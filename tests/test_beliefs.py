from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from provergames.beliefs import (
    BeliefSystem,
    LimitBeliefTrace,
    MemberTrace,
    RationalityReport,
    RationalityViolation,
    SetTrace,
    bayes_beliefs,
    limit_beliefs,
    reachable_sets,
    verify_sequential_rationality,
)
from provergames.equilibrium import enumerate_sse
from provergames.errors import BeliefError, GameFileError
from provergames.gamefile import game_from_doc, game_to_doc
from provergames.gaps import answer_bit_distribution
from provergames.pruning import prune_nature
from provergames.trees import (
    NATURE,
    DecisionNode,
    GameTree,
    InformationSet,
    StrategyProfile,
    TerminalNode,
    continuation_values,
    profile_space_size,
    reach_map,
    require_total_profile,
)

from randgames import corpus_games, random_game, random_profile, random_root_lottery_game


def weighted_coin_game(p):
    nodes = {
        (): DecisionNode(NATURE, ("h", "t"), (p, 1 - p)),
        ("h",): DecisionNode(1, ("l", "r")),
        ("t",): DecisionNode(1, ("l", "r")),
    }
    for first in ("h", "t"):
        for second in ("l", "r"):
            nodes[(first, second)] = TerminalNode((F(0),), 0)
    iset = InformationSet(1, (("h",), ("t",)), ("l", "r"))
    return GameTree(1, nodes, (iset,)), iset


class TestReachableSets:
    def test_root_singleton_probability_one(self, k3):
        root_set = k3.game.set_by_history[()]
        reach = reachable_sets(k3.game, k3.honest)
        assert reach[root_set] == 1

    def test_nexp_no_claim_unreaches_mip_sets(self, nexp_unsat_third):
        game = nexp_unsat_third.game
        s = nexp_unsat_third.honest  # answers c=0 on the false instance
        reach = reachable_sets(game, s)
        mip_sets = [iset for iset in game.info_sets if iset.members[0][:1] == ("c=1",)]
        assert mip_sets
        assert all(iset not in reach for iset in mip_sets)

    def test_unchosen_subtrees_unreachable(self):
        nodes = {(): DecisionNode(1, ("a", "b", "c"))}
        for first in ("a", "b", "c"):
            nodes[(first,)] = DecisionNode(2, ("x", "y"))
            for second in ("x", "y"):
                nodes[(first, second)] = TerminalNode((F(0), F(0)), 0)
        sets = [InformationSet(1, ((),), ("a", "b", "c"))]
        for first in ("a", "b", "c"):
            sets.append(InformationSet(2, ((first,),), ("x", "y")))
        game = GameTree(2, nodes, tuple(sets))
        s = StrategyProfile.from_dict(
            {iset.key: iset.actions[0] for iset in game.info_sets}
        )
        reach = reachable_sets(game, s)
        keys = {iset.key for iset in reach}
        assert sets[1].key in keys  # under action a
        assert sets[2].key not in keys and sets[3].key not in keys


class TestBayesBeliefs:
    def test_fair_coin(self):
        game, iset = weighted_coin_game(F(1, 2))
        s = StrategyProfile.from_dict({iset.key: "l"})
        assert bayes_beliefs(game, s, iset) == {("h",): F(1, 2), ("t",): F(1, 2)}

    def test_biased_coin(self):
        game, iset = weighted_coin_game(F(2, 3))
        s = StrategyProfile.from_dict({iset.key: "l"})
        assert bayes_beliefs(game, s, iset) == {("h",): F(2, 3), ("t",): F(1, 3)}

    def test_member_pruned_by_strategy(self):
        # P1 steers away from one member; Bayes puts a point mass on the other.
        nodes = {
            (): DecisionNode(NATURE, ("x", "y"), (F(1, 2), F(1, 2))),
            ("x",): DecisionNode(1, ("in", "out")),
            ("x", "out"): TerminalNode((F(0), F(0)), 0),
            ("x", "in"): DecisionNode(2, ("u", "v")),
            ("y",): DecisionNode(1, ("in", "out")),
            ("y", "out"): TerminalNode((F(0), F(0)), 0),
            ("y", "in"): DecisionNode(2, ("u", "v")),
        }
        for first in ("x", "y"):
            for a in ("u", "v"):
                nodes[(first, "in", a)] = TerminalNode((F(0), F(0)), 0)
        sets = (
            InformationSet(1, (("x",),), ("in", "out")),
            InformationSet(1, (("y",),), ("in", "out")),
            InformationSet(2, (("x", "in"), ("y", "in")), ("u", "v")),
        )
        game = GameTree(2, nodes, sets)
        s = StrategyProfile.from_dict(
            {sets[0].key: "in", sets[1].key: "out", sets[2].key: "u"}
        )
        assert bayes_beliefs(game, s, sets[2]) == {
            ("x", "in"): F(1),
            ("y", "in"): F(0),
        }

    def test_unreachable_errors(self):
        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): TerminalNode((F(0), F(0)), 0),
            ("b",): DecisionNode(2, ("x", "y")),
            ("b", "x"): TerminalNode((F(0), F(0)), 0),
            ("b", "y"): TerminalNode((F(0), F(0)), 0),
        }
        sets = (
            InformationSet(1, ((),), ("a", "b")),
            InformationSet(2, (("b",),), ("x", "y")),
        )
        game = GameTree(2, nodes, sets)
        s = StrategyProfile.from_dict({sets[0].key: "a", sets[1].key: "x"})
        with pytest.raises(BeliefError, match="Bayes undefined"):
            bayes_beliefs(game, s, sets[1])

    def test_set_with_a_member_outside_the_game_errors(self):
        game, iset = weighted_coin_game(F(1, 2))
        s = StrategyProfile.from_dict({iset.key: "l"})
        foreign = InformationSet(1, (("h",), ("x",)), ("l", "r"))
        with pytest.raises(BeliefError, match=r"set 'h\|x' is not an information set"):
            bayes_beliefs(game, s, foreign)

    def test_set_with_other_actions_errors(self):
        game, iset = weighted_coin_game(F(1, 2))
        s = StrategyProfile.from_dict({iset.key: "l"})
        relabelled = InformationSet(1, iset.members, ("l", "m"))
        with pytest.raises(BeliefError, match=r"set 'h\|t' is not an information set"):
            bayes_beliefs(game, s, relabelled)


class TestLimitBeliefs:
    def test_matches_bayes_at_reachable_sets(self):
        rng = random.Random(101)
        for _ in range(40):
            game = random_game(rng)
            s = random_profile(rng, game)
            mu, _ = limit_beliefs(game, s)
            reach = reachable_sets(game, s)
            for iset in reach:
                assert mu.at(iset) == bayes_beliefs(game, s, iset)

    def test_distributions_sum_to_one(self):
        rng = random.Random(103)
        for _ in range(25):
            game = random_game(rng)
            s = random_profile(rng, game)
            mu, _ = limit_beliefs(game, s)
            for _, probs in mu.distributions:
                assert sum(probs, F(0)) == 1
                assert all(p >= 0 for p in probs)

    def test_opponent_set_after_unchosen_actions(self):
        # P1 picks a among {a,b,c}; P2's set {(b),(c)} gets (1/2, 1/2).
        nodes = {(): DecisionNode(1, ("a", "b", "c")), ("a",): TerminalNode((F(0), F(0)), 0)}
        for first in ("b", "c"):
            nodes[(first,)] = DecisionNode(2, ("x", "y"))
            for second in ("x", "y"):
                nodes[(first, second)] = TerminalNode((F(0), F(0)), 0)
        sets = (
            InformationSet(1, ((),), ("a", "b", "c")),
            InformationSet(2, (("b",), ("c",)), ("x", "y")),
        )
        game = GameTree(2, nodes, sets)
        s = StrategyProfile.from_dict({sets[0].key: "a", sets[1].key: "x"})
        mu, trace = limit_beliefs(game, s)
        assert mu.at(sets[1]) == {("b",): F(1, 2), ("c",): F(1, 2)}
        st = next(t for t in trace.sets if t.set_key == sets[1].key)
        assert st.d == 1 and st.b_d == 1
        assert [m.e for m in st.members] == [1, 1]
        assert [m.c for m in st.members] == [F(1, 2), F(1, 2)]

    def test_minimum_exponent_wins(self):
        # P2 pools a one-deviation branch and a two-deviation branch; the limit
        # puts a point mass on the cheaper one.
        nodes = {
            (): DecisionNode(1, ("a", "b", "z")),
            ("a",): TerminalNode((F(0), F(0)), 0),
            ("z",): DecisionNode(2, ("x", "y")),
            ("b",): DecisionNode(1, ("c", "d")),
            ("b", "c"): TerminalNode((F(0), F(0)), 0),
            ("b", "d"): DecisionNode(2, ("x", "y")),
        }
        for second in ("x", "y"):
            nodes[("z", second)] = TerminalNode((F(0), F(0)), 0)
            nodes[("b", "d", second)] = TerminalNode((F(0), F(0)), 0)
        sets = (
            InformationSet(1, ((),), ("a", "b", "z")),
            InformationSet(1, (("b",),), ("c", "d")),
            InformationSet(2, (("b", "d"), ("z",)), ("x", "y")),
        )
        game = GameTree(2, nodes, sets)
        s = StrategyProfile.from_dict(
            {sets[0].key: "a", sets[1].key: "c", sets[2].key: "x"}
        )
        mu, trace = limit_beliefs(game, s)
        # ("z",) needs one unchosen root action (e=1); ("b","d") needs two (e=2).
        assert mu.at(sets[2]) == {("b", "d"): F(0), ("z",): F(1)}
        st = next(t for t in trace.sets if t.set_key == sets[2].key)
        assert st.d == 1

    def test_zero_probability_nature_branch(self):
        # After pruning, Nature can carry zero-probability outcomes; the
        # bookkeeping treats them like unchosen player actions.
        nodes = {
            (): DecisionNode(NATURE, ("x", "y", "z"), (F(1), F(0), F(0))),
        }
        for first in ("x", "y", "z"):
            nodes[(first,)] = DecisionNode(1, ("l", "r"))
            for second in ("l", "r"):
                nodes[(first, second)] = TerminalNode((F(0),), 0)
        iset = InformationSet(1, (("x",), ("y",), ("z",)), ("l", "r"))
        game = GameTree(1, nodes, (iset,))
        s = StrategyProfile.from_dict({iset.key: "l"})
        mu, trace = limit_beliefs(game, s)
        assert mu.at(iset) == {("x",): F(1), ("y",): F(0), ("z",): F(0)}
        st = trace.sets[0]
        by_history = {m.history: m for m in st.members}
        assert by_history[("y",)].e == 1
        assert by_history[("y",)].c == F(1, 2)  # two zero-probability branches


class TestSequentialRationality:
    def test_max_action_is_rational(self):
        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): TerminalNode((F(1, 2),), 1),
            ("b",): TerminalNode((F(0),), 0),
        }
        game = GameTree(1, nodes, (InformationSet(1, ((),), ("a", "b")),))
        s = StrategyProfile.from_dict({game.info_sets[0].key: "a"})
        mu, _ = limit_beliefs(game, s)
        assert verify_sequential_rationality(game, s, mu).verdict

    def test_dominated_action_reported(self):
        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): TerminalNode((F(1, 2),), 1),
            ("b",): TerminalNode((F(0),), 0),
        }
        game = GameTree(1, nodes, (InformationSet(1, ((),), ("a", "b")),))
        s = StrategyProfile.from_dict({game.info_sets[0].key: "b"})
        mu, _ = limit_beliefs(game, s)
        report = verify_sequential_rationality(game, s, mu)
        assert not report.verdict
        v = report.violations[0]
        assert (v.current, v.better, v.delta) == ("b", "a", F(1, 2))

    def test_missing_coverage_errors(self):
        game, iset = weighted_coin_game(F(1, 2))
        s = StrategyProfile.from_dict({iset.key: "l"})
        from provergames.beliefs import BeliefSystem

        with pytest.raises(BeliefError):
            verify_sequential_rationality(game, s, BeliefSystem(()))

    @staticmethod
    def coin_against_r():
        """Nature picks h or t; P1 cannot tell which. Under Bayes, l is better."""
        nodes = {
            (): DecisionNode(NATURE, ("h", "t"), (F(1, 2), F(1, 2))),
            ("h",): DecisionNode(1, ("l", "r")),
            ("t",): DecisionNode(1, ("l", "r")),
            ("h", "l"): TerminalNode((F(1),), 1),
            ("h", "r"): TerminalNode((F(0),), 0),
            ("t", "l"): TerminalNode((F(0),), 0),
            ("t", "r"): TerminalNode((F(1, 2),), 1),
        }
        iset = InformationSet(1, (("h",), ("t",)), ("l", "r"))
        return GameTree(1, nodes, (iset,)), iset, StrategyProfile.from_dict({iset.key: "r"})

    def test_bayes_belief_finds_the_better_action(self):
        game, iset, s = self.coin_against_r()
        mu = BeliefSystem.from_dict({iset.key: (F(1, 2), F(1, 2))})
        report = verify_sequential_rationality(game, s, mu)
        assert report.violations == (RationalityViolation(iset.key, "r", "l", F(1, 4)),)

    @pytest.mark.parametrize(
        "probs, match",
        [((F(0), F(0)), "does not sum to 1"), ((F(0),), "one entry per member")],
        ids=["zero-mass", "short"],
    )
    def test_non_distribution_belief_errors(self, probs, match):
        game, iset, s = self.coin_against_r()
        with pytest.raises(BeliefError, match=match):
            verify_sequential_rationality(game, s, BeliefSystem.from_dict({iset.key: probs}))

    def test_non_distribution_belief_from_a_game_file_errors(self):
        # The load refuses it, so no such belief system reaches the check.
        game, iset, s = self.coin_against_r()
        doc = game_to_doc(game)
        doc["beliefs"] = {iset.key: ["0", "0"]}
        with pytest.raises(GameFileError, match=r"^beliefs\[.*\]: not a probability distribution$"):
            game_from_doc(doc)

    def test_k3_honest_with_limit_beliefs(self, k3):
        mu, _ = limit_beliefs(k3.game, k3.honest)
        assert verify_sequential_rationality(k3.game, k3.honest, mu).verdict


class TestSseImpliesSequentialRationality:
    def test_random_sses_rational_under_limit_beliefs(self):
        from provergames.equilibrium import is_sse
        from randgames import random_game, random_profile

        rng = random.Random(541)
        confirmed = 0
        for _ in range(150):
            game = random_game(rng, max_nodes=40, max_prover_sets=5)
            s = random_profile(rng, game)
            if not is_sse(game, s).verdict:
                continue
            confirmed += 1
            mu, _ = limit_beliefs(game, s)
            assert verify_sequential_rationality(game, s, mu).verdict
        assert confirmed > 10


def reference_member_perturbation(game, s, h):
    """(c, e, f) of member `h`, walked along its own path from the root."""
    c, e, f = F(1), 0, 0
    for k in range(len(h)):
        prefix, a = h[:k], h[k]
        node = game.nodes[prefix]
        if node.player == NATURE:
            zero_actions = sum(1 for p in node.dist if p == 0)
            p = node.dist[node.actions.index(a)]
            if p > 0:
                c *= p
                if zero_actions:
                    f += 1
            else:
                e += 1
                c *= F(1, zero_actions)
        else:
            iset = game.set_by_history[prefix]
            if s.action(iset.key) == a:
                if len(iset.actions) >= 2:
                    f += 1
            else:
                e += 1
                c *= F(1, len(iset.actions) - 1)
    return c, e, f


def reference_limit_beliefs(game, s):
    dists, traces = {}, []
    for iset in game.sorted_sets:
        members = [
            MemberTrace(h, *reference_member_perturbation(game, s, h)) for h in iset.members
        ]
        d = min(m.e for m in members)
        b_d = sum((m.c for m in members if m.e == d), F(0))
        dists[iset.key] = tuple(m.c / b_d if m.e == d else F(0) for m in members)
        traces.append(SetTrace(iset.key, tuple(members), d, b_d))
    return BeliefSystem.from_dict(dists), LimitBeliefTrace(tuple(traces))


def nature_chain(depth):
    """A path `depth` deep: two Nature moves (one with a zero-probability exit)
    then a prover move, over and over; every move but a one-action prover move
    can leave the path."""
    nodes, sets, h = {}, [], ()
    for k in range(depth):
        if k % 3 == 2:
            actions = ("on",) if k % 12 == 5 else ("on", "off")
            nodes[h] = DecisionNode(1 + k % 2, actions)
            sets.append(InformationSet(1 + k % 2, (h,), actions))
        else:
            p = F(1, k % 7 + 2)
            nodes[h] = DecisionNode(NATURE, ("on", "off", "zero"), (p, 1 - p, F(0)))
            nodes[h + ("zero",)] = TerminalNode((F(0), F(0)), 0)
        if "off" in nodes[h].actions:
            nodes[h + ("off",)] = TerminalNode((F(k % 5, 4), F(0)), k % 2)
        h += ("on",)
    nodes[h] = TerminalNode((F(1), F(0)), 1)
    return GameTree(2, nodes, tuple(sets))


class TestLimitBeliefsMatchPathWalk:
    def assert_same(self, game, s):
        mu, trace = limit_beliefs(game, s)
        ref_mu, ref_trace = reference_limit_beliefs(game, s)
        assert mu == ref_mu and trace == ref_trace
        for _, probs in mu.distributions:
            assert all(type(p) is F for p in probs)
        for st in trace.sets:
            assert type(st.d) is int and type(st.b_d) is F
            for m in st.members:
                assert type(m.c) is F and type(m.e) is int and type(m.f) is int

    def test_random_games_and_their_prunings(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(120):
            game = random_game(rng, max_nodes=60, max_prover_sets=6, nature_weight=0.4)
            for _ in range(4):
                s = random_profile(rng, game)
                self.assert_same(game, s)
                pruned, _ = prune_nature(game, s, rng.randint(1, 3), rng.randint(1, 2))
                self.assert_same(pruned, s)
                checked += 2
        assert checked == 960

    def test_protocol_fixtures(self, nexp_unsat_third, nexp_sat, nexp_clause_sat, pnexp_toy):
        rng = random.Random(5)
        for build in (nexp_unsat_third, nexp_sat, nexp_clause_sat, pnexp_toy):
            self.assert_same(build.game, build.honest)
            for _ in range(10):
                self.assert_same(build.game, random_profile(rng, build.game))

    def test_deep_nature_chain(self):
        game = nature_chain(300)
        rng = random.Random(11)
        on = StrategyProfile.from_dict({iset.key: "on" for iset in game.info_sets})
        self.assert_same(game, on)
        for _ in range(10):
            self.assert_same(game, random_profile(rng, game))


def reference_reachable_sets(game, s):
    """`reachable_sets` as one Fraction pass of `reach_map`."""
    require_total_profile(game, s)
    reach = reach_map(game, s)
    out = {}
    for iset in game.sorted_sets:
        p = sum((reach[h] for h in iset.members), F(0))
        if p > 0:
            out[iset] = p
    return out


def reference_bayes_beliefs(game, s, iset):
    reach = reach_map(game, s)
    total = sum((reach[h] for h in iset.members), F(0))
    if total == 0:
        raise BeliefError(f"Bayes undefined: set {iset.key!r} unreachable under the profile")
    return {h: reach[h] / total for h in iset.members}


def reference_verify_sequential_rationality(game, s, mu):
    """`verify_sequential_rationality` on the Fraction `continuation_values`."""
    require_total_profile(game, s)
    values = continuation_values(game, s)
    violations = []
    for iset in game.sorted_sets:
        belief = mu.at(iset)
        owner = iset.owner
        chosen = s.action(iset.key)

        def value(action):
            return sum(
                (p * values[h + (action,)][owner - 1] for h, p in belief.items()), F(0)
            )

        base = value(chosen)
        for a in iset.actions:
            if a == chosen:
                continue
            delta = value(a) - base
            if delta > 0:
                violations.append(RationalityViolation(iset.key, chosen, a, delta))
    return RationalityReport(not violations, tuple(violations))


def reference_answer_bit_distribution(game, s):
    require_total_profile(game, s)
    reach = reach_map(game, s)
    out = {0: F(0), 1: F(0)}
    for h in game.terminals:
        out[game.nodes[h].answer_bit] += reach[h]
    return out


def random_beliefs(rng, game):
    """A distribution per set with integer weights 0..3, some members left at 0."""
    dists = {}
    for iset in game.sorted_sets:
        w = [rng.randint(0, 3) for _ in iset.members]
        if not any(w):
            w[rng.randrange(len(w))] = 1
        dists[iset.key] = tuple(F(x, sum(w)) for x in w)
    return BeliefSystem.from_dict(dists)


class TestCoreMatchesFractionPasses:
    """The integer-core readers against their Fraction definitions: equal
    results in equal order, and equal errors."""

    def assert_same(self, game, s, rng):
        """Compare every reader at `s`; return the violations found under the
        limit beliefs and under random beliefs."""
        got, want = reachable_sets(game, s), reference_reachable_sets(game, s)
        assert list(got.items()) == list(want.items())
        got, want = answer_bit_distribution(game, s), reference_answer_bit_distribution(game, s)
        assert list(got.items()) == list(want.items())
        for iset in game.sorted_sets:
            try:
                want = list(reference_bayes_beliefs(game, s, iset).items())
            except BeliefError:
                with pytest.raises(BeliefError, match="Bayes undefined"):
                    bayes_beliefs(game, s, iset)
            else:
                assert list(bayes_beliefs(game, s, iset).items()) == want
        found = 0
        for mu in (limit_beliefs(game, s)[0], random_beliefs(rng, game)):
            got = verify_sequential_rationality(game, s, mu)
            assert got == reference_verify_sequential_rationality(game, s, mu)
            assert all(type(v.delta) is F for v in got.violations)
            found += len(got.violations)
        return found

    def test_criterion_7_corpus(self):
        rng = random.Random(7)
        pairs = violations = 0
        for game, _ in corpus_games(300):
            if profile_space_size(game) > 3000:
                continue
            for s in [*enumerate_sse(game), random_profile(rng, game), random_profile(rng, game)]:
                violations += self.assert_same(game, s, rng)
                pairs += 1
        assert pairs == 1051 and violations > 1000

    def test_zero_probability_nature_edges(self):
        # Pruning leaves zero-probability Nature edges, below which the
        # core's weights restart at 1.
        rng = random.Random(31)
        zero_edges = 0
        for n in range(80):
            if n % 2:
                game = random_root_lottery_game(rng)
            else:
                game = random_game(rng, max_nodes=60, max_prover_sets=6, nature_weight=0.4)
            for _ in range(2):
                s = random_profile(rng, game)
                pruned, _ = prune_nature(game, s, rng.randint(1, 3), 1)
                zero_edges += sum(
                    node.dist.count(0)
                    for node in pruned.nodes.values()
                    if isinstance(node, DecisionNode) and node.player == NATURE
                )
                for g in (game, pruned):
                    self.assert_same(g, s, rng)
                    self.assert_same(g, random_profile(rng, g), rng)
        assert zero_edges > 100

    def test_builder_fixtures(
        self, k3, k4, nexp_unsat_third, nexp_sat, nexp_clause_sat, pnexp_toy,
        pnexp_three_query, mrip_toy, mrip_two_round,
    ):
        rng = random.Random(13)
        builds = (
            k3, k4, nexp_unsat_third, nexp_sat, nexp_clause_sat, pnexp_toy,
            pnexp_three_query, mrip_toy, mrip_two_round,
        )
        for build in builds:
            self.assert_same(build.game, build.honest, rng)
            for _ in range(2):
                self.assert_same(build.game, random_profile(rng, build.game), rng)
