from __future__ import annotations

import itertools
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction as F

import pytest

from provergames import equilibrium, trees
from provergames.beliefs import limit_beliefs, reachable_sets, verify_sequential_rationality
from provergames.equilibrium import (
    SseCertificate,
    SseViolation,
    _require_recall,
    enumerate_sse,
    is_sse,
    is_sse_bruteforce,
    max_total_utility_sse,
)
from provergames.errors import CapExceededError, ImperfectRecallError, ProfileError
from provergames.gaps import answer_bit_distribution, verify_utility_gap
from provergames.pruning import prune_nature, verify_pruning
from provergames.subforms import dominant_sse_set, find_dominant_sse
from provergames.trees import (
    NATURE,
    DecisionNode,
    GameTree,
    InformationSet,
    StrategyProfile,
    TerminalNode,
    _IntCore,
    all_profiles,
    check_perfect_recall,
    continuation_values,
    make_game,
    profile_space_size,
    reach_map,
    require_total_profile,
    utility_vector,
)

from randgames import corpus_games, random_game, random_profile, random_root_lottery_game


def forgetful_game() -> GameTree:
    """One prover who forgets its first move: 4 profiles, no perfect recall."""
    nodes = {
        (): DecisionNode(1, ("a", "b")),
        ("a",): DecisionNode(1, ("x", "y")),
        ("b",): DecisionNode(1, ("x", "y")),
    }
    for first in ("a", "b"):
        for second in ("x", "y"):
            nodes[(first, second)] = TerminalNode((F(0),), 0)
    sets = (
        InformationSet(1, ((),), ("a", "b")),
        InformationSet(1, (("a",), ("b",)), ("x", "y")),
    )
    return GameTree(1, nodes, sets)


def is_sse_fraction(game: GameTree, s: StrategyProfile) -> SseCertificate:
    """Reference one-shot check in Fractions: full-tree value and reach passes."""
    _require_recall(check_perfect_recall(game))
    require_total_profile(game, s)
    values = continuation_values(game, s)
    reach = reach_map(game, s)
    ops = len(game.nodes)  # continuation pass
    violations = []
    for iset in game.sorted_sets:
        owner = iset.owner
        chosen = s.action(iset.key)
        total = sum((reach[h] for h in iset.members), F(0))
        ops += len(iset.members) * len(iset.actions)
        if total > 0:
            belief = {h: reach[h] / total for h in iset.members}
            base = sum(
                (p * values[h + (chosen,)][owner - 1] for h, p in belief.items()), F(0)
            )
            for a in iset.actions:
                if a == chosen:
                    continue
                alt = sum(
                    (p * values[h + (a,)][owner - 1] for h, p in belief.items()), F(0)
                )
                if alt > base:
                    violations.append(
                        SseViolation(
                            iset.key, True, None, tuple(sorted(belief.items())),
                            chosen, a, alt - base,
                        )
                    )
        else:
            for h in iset.members:
                base = values[h + (chosen,)][owner - 1]
                for a in iset.actions:
                    if a == chosen:
                        continue
                    alt = values[h + (a,)][owner - 1]
                    if alt > base:
                        violations.append(
                            SseViolation(iset.key, False, h, None, chosen, a, alt - base)
                        )
    return SseCertificate(not violations, tuple(violations), {"ops": ops})


def assert_same_certificate(game, s):
    fast, ref = is_sse(game, s), is_sse_fraction(game, s)
    assert fast == ref  # verdict and violations, deltas and beliefs included
    assert fast.stats == ref.stats
    assert repr(fast) == repr(ref)


def one_shot_game(payments):
    actions = tuple(chr(ord("a") + i) for i in range(len(payments)))
    nodes = {(): DecisionNode(1, actions)}
    for a, r in zip(actions, payments):
        nodes[(a,)] = TerminalNode((r,), 0)
    return make_game(1, nodes)


class TestIsSse:
    def test_max_action_chosen(self):
        game = one_shot_game([F(1, 2), F(0)])
        s = StrategyProfile.from_dict({game.info_sets[0].key: "a"})
        assert is_sse(game, s).verdict

    def test_dominated_action_with_witness(self):
        game = one_shot_game([F(1, 2), F(0)])
        s = StrategyProfile.from_dict({game.info_sets[0].key: "b"})
        cert = is_sse(game, s)
        assert not cert.verdict
        v = cert.violations[0]
        assert v.reachable and v.better == "a" and v.delta == F(1, 2)

    def test_k3_honest_profile(self, k3):
        assert is_sse(k3.game, k3.honest).verdict

    def test_agreeing_with_invalid_coloring_loses_one_dollar(self, k3):
        game, scale = k3.game, k3.scale
        bad_coloring = "col:000"  # every edge monochromatic
        s = k3.honest.replace(
            game.set_by_history[("yes",)].key, bad_coloring
        ).replace(game.set_by_history[("yes", bad_coloring)].key, "agree")
        cert = is_sse(game, s)
        assert not cert.verdict
        v = next(
            v
            for v in cert.violations
            if v.set_key == game.set_by_history[("yes", bad_coloring)].key
        )
        assert v.current == "agree"
        assert v.delta == 1 * scale  # refuting beats agreeing by one dollar

    def test_requires_perfect_recall(self):
        game = forgetful_game()
        sets = game.sorted_sets
        s = StrategyProfile.from_dict({sets[0].key: "a", sets[1].key: "x"})
        with pytest.raises(ImperfectRecallError):
            is_sse(game, s)

    def test_operation_count_scales_linearly(self):
        rng = random.Random(5)
        for nodes_cap in (20, 60, 120, 200):
            game = random_game(rng, max_nodes=nodes_cap, max_depth=5)
            s = random_profile(rng, game)
            stats = is_sse(game, s).stats
            max_actions = max(
                (len(n.actions) for n in game.nodes.values() if isinstance(n, DecisionNode)),
                default=1,
            )
            assert stats["ops"] <= 3 * len(game.nodes) * max_actions


class TestIntegerCore:
    def test_certificates_match_fraction_reference(self, k3, nexp_unsat_third, nexp_sat):
        rng = random.Random(2024)
        games = []
        for _ in range(40):
            game = random_game(rng, max_nodes=80, max_prover_sets=6)
            games.append(game)
            for alpha in (1, 2):
                s = random_profile(rng, game)
                games.append(prune_nature(game, s, alpha, rng.randint(1, 2))[0])
        for _ in range(15):
            game = random_root_lottery_game(rng, profile_cap=512)
            games.append(game)
            games.append(prune_nature(game, random_profile(rng, game), 1, 1)[0])
        zero_edges = sum(
            1
            for game in games
            for node in game.nodes.values()
            if isinstance(node, DecisionNode) and node.dist and 0 in node.dist
        )
        assert zero_edges > 0  # the pruned games exercise the restarted weights
        for game in games:
            for _ in range(6):
                assert_same_certificate(game, random_profile(rng, game))
        for build in (k3, nexp_unsat_third, nexp_sat):
            assert_same_certificate(build.game, build.honest)
            for _ in range(8):
                assert_same_certificate(build.game, random_profile(rng, build.game))

    def test_enumeration_matches_fraction_reference(self, nexp_unsat_third):
        rng = random.Random(99)
        games = [nexp_unsat_third.game]
        while len(games) < 25:
            game = random_game(rng, max_nodes=60, max_prover_sets=5, max_actions=2)
            if profile_space_size(game) <= 256:
                games.append(game)
                games.append(prune_nature(game, random_profile(rng, game), 1, 1)[0])
        for game in games:
            assert enumerate_sse(game) == [
                s for s in all_profiles(game) if is_sse_fraction(game, s).verdict
            ]

    def test_unreached_violation_below_zero_probability_edge(self):
        # Nature never plays "z"; below it Nature weighs (1/3, 2/3) and the
        # prover at ("z", "l") passes up 3/4 * 1/2 + 1/4 * 0 = 3/8 for 0.
        nodes = {
            (): DecisionNode(NATURE, ("y", "z"), (F(1), F(0))),
            ("y",): TerminalNode((F(0),), 0),
            ("z",): DecisionNode(NATURE, ("l", "r"), (F(1, 3), F(2, 3))),
            ("z", "r"): TerminalNode((F(1),), 0),
            ("z", "l"): DecisionNode(1, ("x", "w")),
            ("z", "l", "w"): TerminalNode((F(0),), 0),
            ("z", "l", "x"): DecisionNode(NATURE, ("p", "q"), (F(3, 4), F(1, 4))),
            ("z", "l", "x", "p"): TerminalNode((F(1, 2),), 1),
            ("z", "l", "x", "q"): TerminalNode((F(0),), 0),
        }
        game = make_game(1, nodes)
        s = StrategyProfile.from_dict({"z/l": "w"})
        cert = is_sse(game, s)
        assert cert.violations == (
            SseViolation("z/l", False, ("z", "l"), None, "w", "x", F(3, 8)),
        )
        assert_same_certificate(game, s)

    def test_reached_set_with_unequal_nature_weights(self):
        # One set over ("l",) and ("r",), reached with weights 1/4 and 3/4.
        nodes = {
            (): DecisionNode(NATURE, ("l", "r"), (F(1, 4), F(3, 4))),
            ("l",): DecisionNode(1, ("a", "b")),
            ("r",): DecisionNode(1, ("a", "b")),
            ("l", "a"): TerminalNode((F(1),), 1),
            ("l", "b"): TerminalNode((F(0),), 0),
            ("r", "a"): TerminalNode((F(0),), 0),
            ("r", "b"): TerminalNode((F(1, 2),), 1),
        }
        iset = InformationSet(1, (("l",), ("r",)), ("a", "b"))
        game = GameTree(1, nodes, (iset,))
        s = StrategyProfile.from_dict({iset.key: "a"})  # 1/4 against 3/8 for "b"
        (v,) = is_sse(game, s).violations
        assert v.reachable and v.better == "b" and v.delta == F(1, 8)
        assert v.belief == ((("l",), F(1, 4)), (("r",), F(3, 4)))
        assert_same_certificate(game, s)
        assert is_sse(game, s.replace(iset.key, "b")).verdict

    def test_deep_nature_chain_is_not_recursive(self):
        depth = 3000
        nodes = {}
        h = ()
        for _ in range(depth):
            nodes[h] = DecisionNode(NATURE, ("n",), (F(1),))
            h += ("n",)
        nodes[h] = DecisionNode(1, ("a", "b"))
        nodes[h + ("a",)] = TerminalNode((F(1, 2),), 1)
        nodes[h + ("b",)] = TerminalNode((F(0),), 0)
        game = make_game(1, nodes)
        key = game.info_sets[0].key
        assert is_sse(game, StrategyProfile.from_dict({key: "a"})).verdict
        (v,) = is_sse(game, StrategyProfile.from_dict({key: "b"})).violations
        assert v.delta == F(1, 2)


def assert_first_agrees(game, s):
    """The verdict-only check reports the full verdict and, on a failure, one
    of the full certificate's violations; returns the verdict."""
    full = is_sse(game, s)
    first = is_sse(game, s, _first=True)
    assert first.verdict == full.verdict and first.stats == full.stats
    if full.verdict:
        assert first.violations == ()
    else:
        (v,) = first.violations
        assert v in full.violations
    return full.verdict


class TestStagedCheck:
    def test_first_violation_matches_full_certificate(self):
        rng = random.Random(606)
        games = []
        for game, _ in corpus_games(300):
            games.append(game)
            games.append(prune_nature(game, random_profile(rng, game), 1, 1)[0])
        for _ in range(30):
            game = random_root_lottery_game(rng, profile_cap=512)
            games.append(game)
            games.append(prune_nature(game, random_profile(rng, game), 2, 1)[0])
        verdicts = set()
        for game in games:
            for _ in range(8):
                verdicts.add(assert_first_agrees(game, random_profile(rng, game)))
            for s in enumerate_sse(game)[:2]:
                assert assert_first_agrees(game, s)
        assert verdicts == {True, False}

    def test_set_is_checked_after_its_shallowest_member(self):
        # One set over ("a", "x", "y") and ("b",): the deeper member sorts
        # first, and ("b",)'s children are Nature nodes that are valued
        # only by the steps above the shallow member.
        one = (F(1),)
        nodes = {
            (): DecisionNode(NATURE, ("a", "b"), (F(1, 2), F(1, 2))),
            ("a",): DecisionNode(NATURE, ("x",), one),
            ("a", "x"): DecisionNode(NATURE, ("y",), one),
            ("b",): DecisionNode(1, ("l", "r")),
            ("a", "x", "y"): DecisionNode(1, ("l", "r")),
            ("a", "x", "y", "l"): TerminalNode((F(0),), 0),
            ("a", "x", "y", "r"): TerminalNode((F(0),), 0),
        }
        for a, pay in (("l", F(0)), ("r", F(1))):
            nodes[("b", a)] = DecisionNode(NATURE, ("n",), one)
            nodes[("b", a, "n")] = TerminalNode((pay,), 1)
        iset = InformationSet(1, (("a", "x", "y"), ("b",)), ("l", "r"))
        game = GameTree(1, nodes, (iset,))
        s = StrategyProfile.from_dict({iset.key: "l"})
        (v,) = is_sse(game, s).violations
        assert v.reachable and v.better == "r" and v.delta == F(1, 2)
        assert not is_sse(game, s, _first=True).verdict
        assert_same_certificate(game, s)
        assert enumerate_sse(game) == [s.replace(iset.key, "r")]

    def test_choices_fall_back_on_keys_that_do_not_line_up(self, k3):
        game, s = k3.game, k3.honest
        core = _IntCore(game)
        expected = core.choices(s)
        assert core.choices(StrategyProfile(tuple(reversed(s.choices)))) == expected
        extra = StrategyProfile.from_dict({**s.as_dict(), "zz": "x"})
        assert core.choices(extra) == expected
        assert is_sse(game, extra) == is_sse(game, s)
        (key, _), rest = s.choices[0], s.as_dict()
        del rest[key]
        missing = StrategyProfile.from_dict(rest)
        renamed = StrategyProfile.from_dict({**rest, key + "?": "x"})
        assert len(renamed.choices) == len(s.choices)
        bad_action = s.replace(key, "no-such-action")
        for broken in (missing, renamed, bad_action):
            with pytest.raises(ProfileError):
                core.choices(broken)
            with pytest.raises(ProfileError):
                is_sse(game, broken, _first=True)


class TestBruteforceAgreement:
    def test_sample_agreement(self):
        rng = random.Random(42)
        for _ in range(60):
            game = random_game(rng, max_nodes=60, max_prover_sets=6)
            for _ in range(4):
                s = random_profile(rng, game)
                assert (
                    is_sse(game, s).verdict == is_sse_bruteforce(game, s).verdict
                )

    def test_multi_step_deviation_requires_induction(self):
        # P1 moves twice; only changing both moves together improves the payoff,
        # yet the one-shot checker still rejects, as the equivalence demands.
        nodes = {
            (): DecisionNode(1, ("stay", "go")),
            ("stay",): TerminalNode((F(1, 2),), 0),
            ("go",): DecisionNode(1, ("left", "right")),
            ("go", "left"): TerminalNode((F(0),), 0),
            ("go", "right"): TerminalNode((F(1),), 1),
        }
        game = make_game(1, nodes)
        root = game.set_by_history[()].key
        second = game.set_by_history[("go",)].key
        s = StrategyProfile.from_dict({root: "stay", second: "left"})
        # From "stay"/"left", switching only the root yields 0 < 1/2 and
        # switching only the continuation is off-path; the profile still fails
        # at the unreachable second set (point condition) in both checkers.
        assert not is_sse(game, s).verdict
        assert not is_sse_bruteforce(game, s).verdict
        honest = StrategyProfile.from_dict({root: "go", second: "right"})
        assert is_sse(game, honest).verdict
        assert is_sse_bruteforce(game, honest).verdict


class TestEnumerate:
    def test_strict_max_single_sse(self):
        game = one_shot_game([F(1, 2), F(0)])
        assert len(enumerate_sse(game)) == 1

    def test_tie_gives_two(self):
        game = one_shot_game([F(1, 2), F(1, 2)])
        assert len(enumerate_sse(game)) == 2

    def test_canonical_order(self):
        game = one_shot_game([F(1, 2), F(1, 2)])
        sses = enumerate_sse(game)
        key = game.info_sets[0].key
        assert [s.action(key) for s in sses] == ["a", "b"]

    def test_mini_coloring_contains_honest(self, mini_coloring):
        sses = enumerate_sse(mini_coloring.game)
        assert mini_coloring.honest in sses
        # Ties only in which valid coloring the first prover commits.
        assert len(sses) == 6

    def test_unlisted_profiles_fail(self, nexp_unsat_third):
        from provergames.trees import all_profiles

        game = nexp_unsat_third.game
        listed = set(enumerate_sse(game))
        for s in all_profiles(game):
            assert is_sse(game, s).verdict == (s in listed)

    @pytest.mark.parametrize(
        "search",
        [
            # No next(): the gate raises at the call, before any profile.
            lambda b: all_profiles(b.game, 1000),
            lambda b: enumerate_sse(b.game, cap=1000),
            lambda b: verify_utility_gap(b.game, b.honest, 1, b.correct_bit, cap=1000),
        ],
        ids=["all_profiles", "enumerate_sse", "verify_utility_gap"],
    )
    def test_cap_exceeded_reports_count(self, k3, search):
        count = 2 * 27 * 4**27
        with pytest.raises(CapExceededError) as err:
            search(k3)
        assert err.value.count == count
        assert str(err.value) == f"{count} profiles exceed cap 1000"

    def test_cap_is_checked_before_recall(self):
        game = forgetful_game()
        with pytest.raises(CapExceededError, match="^4 profiles exceed cap 3$"):
            enumerate_sse(game, cap=3)
        with pytest.raises(
            CapExceededError,
            match="^4 profiles exceed cap 3 and the game has non-singleton information sets$",
        ) as err:
            find_dominant_sse(game, profile_cap=3)
        assert err.value.count == 4
        for search in (enumerate_sse, find_dominant_sse):
            with pytest.raises(ImperfectRecallError):
                search(game, 4)


class TestMaxTotal:
    def test_single_sse_flagged_dominant(self):
        game = one_shot_game([F(1, 2), F(0)])
        sses = enumerate_sse(game)
        best, flag = max_total_utility_sse(game, sses)
        assert best == sses[0] and flag

    def test_opposed_pair_not_flagged(self):
        # Nature splits between two single-prover worlds with opposed payoffs;
        # two SSEs with utility vectors (1,0) and (0,1).
        from provergames.trees import NATURE

        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): TerminalNode((F(1), F(0)), 0),
            ("b",): TerminalNode((F(0), F(1)), 1),
        }
        game = make_game(2, nodes)
        key = game.info_sets[0].key
        profiles = [
            StrategyProfile.from_dict({key: "a"}),
            StrategyProfile.from_dict({key: "b"}),
        ]
        # Force both into the comparison set (only "a" is an SSE for prover 1,
        # so build the vectors directly instead).
        best, flag = max_total_utility_sse(game, profiles)
        assert best == profiles[0]  # tie on total, first in canonical order
        assert not flag

    def test_empty_set_rejected(self, k3):
        with pytest.raises(ValueError):
            max_total_utility_sse(k3.game, [])

    def test_per_player_dominance_when_flagged(self):
        rng = random.Random(77)
        flagged = 0
        for _ in range(40):
            game = random_game(rng, max_nodes=40, max_prover_sets=5, max_actions=2)
            try:
                sses = enumerate_sse(game, cap=5000)
            except CapExceededError:
                continue
            if not sses:
                continue
            best, flag = max_total_utility_sse(game, sses)
            vectors = [utility_vector(game, s) for s in sses]
            exists_dominant = any(
                all(all(v[j] >= w[j] for j in range(game.provers)) for w in vectors)
                for v in vectors
            )
            # The max-total SSE is flagged exactly when a per-player dominant
            # SSE exists, and is then itself dominant.
            assert flag == exists_dominant
            if flag:
                flagged += 1
                best_vec = utility_vector(game, best)
                assert all(
                    all(best_vec[j] >= w[j] for j in range(game.provers))
                    for w in vectors
                )
        assert flagged > 0


def reference_max_total_utility_sse(game, sse_set):
    """`max_total_utility_sse` as it was on `utility_vector` Fraction passes."""
    if not sse_set:
        raise ValueError("sse_set must be nonempty")
    vectors = [utility_vector(game, s) for s in sse_set]
    best_idx = 0
    best_total = sum(vectors[0], F(0))
    for i in range(1, len(sse_set)):
        total = sum(vectors[i], F(0))
        if total > best_total:
            best_idx, best_total = i, total
    best_vec = vectors[best_idx]
    dominant = all(
        all(best_vec[j] >= vec[j] for j in range(game.provers)) for vec in vectors
    )
    return sse_set[best_idx], dominant


class TestMaxTotalMatchesFractionPick:
    """The pick on the core's root fields against the Fraction pick: the same
    profile, first of tied totals, and the same flag."""

    def assert_same(self, game, profiles) -> bool:
        got = max_total_utility_sse(game, profiles)
        assert got == reference_max_total_utility_sse(game, profiles)
        return got[1]

    def test_criterion_7_corpus(self):
        rng = random.Random(77)
        sets = flagged = 0
        for game, _ in corpus_games(1000):
            if profile_space_size(game) > 3000:
                continue
            sses = enumerate_sse(game)
            others = [random_profile(rng, game) for _ in range(6)]
            for profiles in (sses, others, sses + others):
                if profiles:
                    flagged += self.assert_same(game, profiles)
                    sets += 1
        assert (sets, flagged) == (2941, 1451)

    def test_root_lotteries_and_their_prunings(self):
        rng = random.Random(78)
        zero_edges = 0
        for _ in range(40):
            game = random_root_lottery_game(rng, profile_cap=512)
            pruned, _ = prune_nature(game, random_profile(rng, game), rng.randint(1, 2), 1)
            zero_edges += sum(
                node.dist.count(0)
                for node in pruned.nodes.values()
                if isinstance(node, DecisionNode) and node.player == NATURE
            )
            for g in (game, pruned):
                self.assert_same(g, enumerate_sse(g))
                self.assert_same(g, [random_profile(rng, g) for _ in range(8)])
        assert zero_edges > 0

    def test_builder_fixtures(
        self, k3, k4, mini_coloring, nexp_unsat_third, nexp_sat, nexp_clause_sat, pnexp_toy,
        pnexp_three_query, mrip_toy, mrip_two_round,
    ):
        rng = random.Random(79)
        for build in (
            k3, k4, mini_coloring, nexp_unsat_third, nexp_sat, nexp_clause_sat, pnexp_toy,
            pnexp_three_query, mrip_toy, mrip_two_round,
        ):
            others = [random_profile(rng, build.game) for _ in range(4)]
            self.assert_same(build.game, [build.honest, *others])
            self.assert_same(build.game, [*others, build.honest])

    def test_first_of_tied_totals_wins(self):
        # Three profiles with total 1/2 each and no one dominating the others.
        nodes = {(): DecisionNode(1, ("a", "b", "c"))}
        for a, pay in (("a", (F(1, 2), F(0))), ("b", (F(0), F(1, 2))), ("c", (F(1, 4), F(1, 4)))):
            nodes[(a,)] = TerminalNode(pay, 0)
        game = make_game(2, nodes)
        key = game.info_sets[0].key
        profiles = [StrategyProfile.from_dict({key: a}) for a in "abc"]
        for order in itertools.permutations(profiles):
            assert max_total_utility_sse(game, list(order)) == (order[0], False)
            self.assert_same(game, list(order))


def unmemoised_core(game: GameTree) -> _IntCore:
    """A core whose stages neither read nor fill a memo: every call checks
    every set, as a fresh core does on its first call."""
    core = _IntCore(game)
    core.stages = tuple((end, k, None, {}, paths) for end, k, _, _, paths in core.stages)
    return core


def installed(core: _IntCore) -> _IntCore:
    """`core` put in the slot of `trees._core_of`, so that the checks of its
    game that follow run on it."""
    trees._last = core
    return core


def assert_shared_core_agrees(game, profiles, rng) -> tuple[int, int]:
    """Full and `_first` certificates from one shared core, visited in
    canonical order and in a seeded shuffle, equal those without a memo;
    returns the canonical pass's memo entries and a bound on its lookups."""
    ref = installed(unmemoised_core(game))
    # `_first` reports the first violation of the first set checked.
    rank = {ref.sets[k].key: n for n, (_, k, _, _, _) in enumerate(ref.stages)}
    expected = {}
    for s in profiles:
        full = is_sse(game, s)
        first = min(full.violations, key=lambda v: rank[v.set_key], default=None)
        expected[s] = full, SseCertificate(full.verdict, (first,) if first else ())
    assert trees._core_of(game) is ref
    trees._last = None
    assert is_sse(game, profiles[0]) == expected[profiles[0]][0]  # a fresh core
    shuffled = list(profiles)
    rng.shuffle(shuffled)
    counts = None
    for order in (profiles, shuffled):
        core = installed(_IntCore(game))
        for n, s in enumerate(order):
            full, first = expected[s]
            if n % 2:  # either mode may meet an entry the other one stored
                assert is_sse(game, s) == full
                assert is_sse(game, s, _first=True) == first
            else:
                assert is_sse(game, s, _first=True) == first
                assert is_sse(game, s) == full
        assert trees._core_of(game) is core
        if counts is None:
            memoised = [memo for _, _, key, memo, _ in core.stages if key is not None]
            counts = (sum(map(len, memoised)), 2 * len(profiles) * len(memoised))
    return counts


def equal_payment_game() -> GameTree:
    # Prover 1 at the root, prover 2 after each move; every payment equal.
    nodes = {(): DecisionNode(1, ("a", "b"))}
    for a in ("a", "b"):
        nodes[(a,)] = DecisionNode(2, ("c", "d"))
        for c in ("c", "d"):
            nodes[(a, c)] = TerminalNode((F(1, 2), F(1, 2)), 1)
    return make_game(2, nodes)


class TestVerdictMemo:
    def test_shared_core_matches_fresh_on_corpus(self):
        rng = random.Random(1212)
        entries = lookups = 0
        for game, _ in corpus_games(300):
            e, n = assert_shared_core_agrees(game, list(all_profiles(game)), rng)
            entries, lookups = entries + e, lookups + n
        assert 0 < entries < lookups / 4  # the memo is filled, and read far more

    def test_shared_core_matches_fresh_on_lotteries_and_prunings(self):
        rng = random.Random(1313)
        dead = 0
        for _ in range(25):
            game = random_root_lottery_game(rng, profile_cap=256)
            for g in (game, prune_nature(game, random_profile(rng, game), 1, 1)[0]):
                dead += any(
                    isinstance(n, DecisionNode) and n.dist and 0 in n.dist
                    for n in g.nodes.values()
                )
                assert_shared_core_agrees(g, list(all_profiles(g)), rng)
        assert dead > 0  # members below zero-probability edges are met

    def test_shared_core_matches_fresh_on_builders(
        self, k3, mini_coloring, nexp_unsat_third, nexp_sat, nexp_clause_sat, pnexp_toy,
        mrip_toy, mrip_two_round,
    ):
        rng = random.Random(1414)
        for build in (
            mini_coloring, nexp_unsat_third, nexp_sat, nexp_clause_sat, pnexp_toy,
            mrip_toy, mrip_two_round,
        ):
            assert_shared_core_agrees(build.game, list(all_profiles(build.game)), rng)
        # K3's space is far too large to list: the honest profile and a sample.
        sample = [k3.honest] + [random_profile(rng, k3.game) for _ in range(60)]
        assert_shared_core_agrees(k3.game, sample, rng)

    def test_two_member_set_keyed_by_the_sets_on_its_paths(self):
        # Prover 2's set S over ("L", "in") and ("R",) holds no set below it;
        # prover 1's choice at "L", outside S's subtree, decides whether both
        # members are reached (then "a" is best) or only ("R",) (then "b").
        third = F(1, 3)
        zero = (F(0), F(0))
        nodes = {
            (): DecisionNode(NATURE, ("D", "L", "R"), (third, third, third)),
            ("D",): DecisionNode(1, ("u", "v")),
            ("D", "u"): TerminalNode(zero, 0),
            ("D", "v"): TerminalNode(zero, 0),
            ("L",): DecisionNode(1, ("in", "out")),
            ("L", "out"): TerminalNode(zero, 0),
            ("L", "in"): DecisionNode(2, ("a", "b")),
            ("L", "in", "a"): TerminalNode((F(0), F(1)), 0),
            ("L", "in", "b"): TerminalNode(zero, 0),
            ("R",): DecisionNode(2, ("a", "b")),
            ("R", "a"): TerminalNode(zero, 0),
            ("R", "b"): TerminalNode((F(0), F(1, 2)), 0),
        }
        sets = (
            InformationSet(1, (("D",),), ("u", "v")),
            InformationSet(1, (("L",),), ("in", "out")),
            InformationSet(2, (("L", "in"), ("R",)), ("a", "b")),
        )
        game = GameTree(2, nodes, sets)
        stage = next(st for st in _IntCore(game).stages if len(st[4]) == 2)
        assert stage[2] is not None  # memoised, under S and the set at "L"
        assert [(s.action("L"), s.action("L/in|R")) for s in enumerate_sse(game)] == [
            ("in", "a"), ("out", "b"), ("in", "a"), ("out", "b"),
        ]
        (v,) = is_sse(game, StrategyProfile.from_dict({"D": "u", "L": "out", "L/in|R": "a"})).violations
        assert v.belief == ((("L", "in"), F(0)), (("R",), F(1))) and v.delta == F(1, 2)
        assert_shared_core_agrees(game, list(all_profiles(game)), random.Random(5))

    def test_one_member_set_keeps_both_certificates(self):
        # The set at ("go",) plays "b" and loses 1 whether or not the root
        # leads there; one memo key, a reached and an unreached certificate.
        nodes = {
            (): DecisionNode(1, ("go", "stop")),
            ("stop",): TerminalNode((F(1, 2),), 0),
            ("go",): DecisionNode(1, ("a", "b")),
            ("go", "a"): TerminalNode((F(1),), 1),
            ("go", "b"): TerminalNode((F(0),), 0),
        }
        game = make_game(1, nodes)
        reached = SseViolation("go", True, None, ((("go",), F(1)),), "b", "a", F(1))
        unreached = SseViolation("go", False, ("go",), None, "b", "a", F(1))
        root = SseViolation("", True, None, (((), F(1)),), "go", "stop", F(1, 2))
        expected = {
            ("go", "a"): (), ("go", "b"): (root, reached),
            ("stop", "a"): (replace(root, current="stop", better="go"),),
            ("stop", "b"): (unreached,),
        }
        for order in (list(expected), list(reversed(expected))):
            core = installed(_IntCore(game))
            for first, second in order:
                s = StrategyProfile.from_dict({"": first, "go": second})
                assert is_sse(game, s).violations == expected[first, second]
                first_only = is_sse(game, s, _first=True).violations
                assert first_only == expected[first, second][-1:]  # the set at "go" comes first
        assert_shared_core_agrees(game, list(all_profiles(game)), random.Random(6))

    def test_set_keyed_by_sets_two_levels_down(self):
        # A at ("p",) compares "r" (1/2) with "l", whose value is fixed by C
        # at ("p", "l", "x"), two levels below, through B at ("p", "l").
        zero = (F(0), F(0))
        nodes = {
            (): DecisionNode(NATURE, ("p", "q"), (F(1, 2), F(1, 2))),
            ("q",): DecisionNode(2, ("u", "v")),
            ("q", "u"): TerminalNode(zero, 0),
            ("q", "v"): TerminalNode(zero, 0),
            ("p",): DecisionNode(1, ("l", "r")),
            ("p", "r"): TerminalNode((F(1, 2), F(0)), 0),
            ("p", "l"): DecisionNode(1, ("x", "y")),
            ("p", "l", "y"): TerminalNode(zero, 0),
            ("p", "l", "x"): DecisionNode(1, ("m", "n")),
            ("p", "l", "x", "m"): TerminalNode((F(1), F(0)), 1),
            ("p", "l", "x", "n"): TerminalNode(zero, 0),
        }
        game = make_game(2, nodes)
        stage = next(st for st in _IntCore(game).stages if st[1] == 0)  # "p" sorts first
        assert stage[2] is not None  # memoised, under A, B and C
        assert [tuple(a for _, a in s.choices) for s in enumerate_sse(game)] == [
            ("l", "x", "m", "u"), ("l", "x", "m", "v"),
        ]
        assert_shared_core_agrees(game, list(all_profiles(game)), random.Random(7))

    def test_three_query_pnexp_enumeration_is_pinned(self, pnexp_three_query, monkeypatch):
        build = pnexp_three_query
        checks = []
        check = equilibrium._check_stage
        monkeypatch.setattr(
            equilibrium, "_check_stage", lambda core, k, *rest: checks.append(k) or check(core, k, *rest)
        )
        assert enumerate_sse(build.game) == [build.honest]
        assert len(checks) == 960  # for 65,536 profiles

    def test_full_key_stage_stays_out_of_the_memo(self):
        game = equal_payment_game()
        core = installed(_IntCore(game))
        assert "stages" not in vars(core)  # built on the first check only
        profiles = list(all_profiles(game))
        assert [s for s in profiles if is_sse(game, s).verdict] == profiles
        assert trees._core_of(game) is core
        memo = {core.sets[k].key: (key is None, len(memo)) for _, k, key, memo, _ in core.stages}
        assert memo == {"": (True, 0), "a": (False, 2), "b": (False, 2)}


def chain(game):
    """The paper's questions about `game` as separate public calls, the
    sse-enum chain and more, yielded one result at a time so that two chains
    can be interleaved call by call."""
    sses = enumerate_sse(game)
    yield sses
    yield dominant_sse_set(game, sses)
    if sses:
        yield max_total_utility_sse(game, sses)
    for s in [*sses, next(all_profiles(game))]:
        mu, trace = limit_beliefs(game, s)
        yield mu, trace
        yield verify_sequential_rationality(game, s, mu)
        yield answer_bit_distribution(game, s)
        yield reachable_sets(game, s)
        yield is_sse(game, s)


def fresh(game) -> list:
    """The chain's results on a structurally equal copy, from an empty slot."""
    trees._last = None
    return list(chain(replace(game)))


def alternated(a, b) -> tuple[list, list]:
    """The chains of `a` and `b`, run one call of each in turn."""
    gap = object()
    steps = list(itertools.zip_longest(chain(a), chain(b), fillvalue=gap))
    return [x for x, _ in steps if x is not gap], [y for _, y in steps if y is not gap]


def sse_rich_games(count: int) -> list[GameTree]:
    """The first `count` criterion-7 corpus games with two or more SSEs."""
    games = []
    for game, _ in corpus_games(200):
        if profile_space_size(game) <= 3000 and len(enumerate_sse(game)) > 1:
            games.append(game)
            if len(games) == count:
                return games
    raise AssertionError("too few games with two or more SSEs")


class TestCoreSlot:
    """`trees._core_of` keeps one core: a chain of analyses of one tree
    compiles it once, and no result depends on the calls made before."""

    @pytest.fixture
    def compiles(self, monkeypatch) -> list:
        made = []
        init = _IntCore.__init__

        def counted(self, game):
            made.append(game)
            init(self, game)

        monkeypatch.setattr(_IntCore, "__init__", counted)
        return made

    def test_one_compile_per_chain(self, compiles):
        for game in sse_rich_games(15):
            compiles.clear()
            sses = enumerate_sse(game)
            dominant_sse_set(game, sses)
            max_total_utility_sse(game, sses)
            for s in sses:
                mu, _ = limit_beliefs(game, s)
                verify_sequential_rationality(game, s, mu)
                answer_bit_distribution(game, s)
            assert compiles == [game]

    def test_interleaved_games_match_fresh_copies(self, compiles):
        games = sse_rich_games(6)
        for a, b in zip(games[::2], games[1::2]):
            want_a, want_b = fresh(a), fresh(b)
            trees._last = None
            compiles.clear()
            assert list(chain(a)) == want_a
            assert list(chain(b)) == want_b
            assert list(chain(a)) == want_a
            assert compiles == [a, b, a]
            assert alternated(a, b) == (want_a, want_b)

    def test_original_and_pruning_alternate_as_verify_pruning_does(self):
        rng = random.Random(1515)
        in_class = 0
        for _ in range(12):
            game = random_root_lottery_game(rng, profile_cap=256)
            s = (enumerate_sse(game) or [random_profile(rng, game)])[0]
            pruned, _ = prune_nature(game, s, rng.randint(1, 2), 1)
            want = fresh(game), fresh(pruned)
            reports = []
            for cap in (None, 1):  # 1: through the perfect-information class search
                trees._last = None
                copies = replace(game), replace(pruned)
                reports.append(verify_pruning(*copies, s, 1, 1, profile_cap=cap))
            trees._last = None
            assert alternated(game, pruned) == want
            for cap, report in zip((None, 1), reports):
                assert verify_pruning(game, pruned, s, 1, 1, profile_cap=cap) == report
                assert list(chain(game)) == want[0]
            in_class += reports[1].dominance_checked
        assert in_class > 0

    def test_equal_copy_gets_its_own_core(self, compiles):
        (game,) = sse_rich_games(1)
        copy = replace(game)
        assert copy == game and copy is not game
        want = fresh(game)
        compiles.clear()
        assert list(chain(game)) == want
        assert list(chain(copy)) == want
        assert compiles == [game, copy]
        assert trees._core_of(copy).game is copy

    def test_threads_sharing_the_slot_get_fresh_results(self):
        games = sse_rich_games(4)  # one thread per game, more threads than cores
        want = [fresh(g) for g in games]
        trees._last = None
        got: list = [None] * len(games)

        def work(n):
            got[n] = [list(chain(games[n])) for _ in range(10)]

        threads = [threading.Thread(target=work, args=(n,)) for n in range(len(games))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 10 for w in want]
