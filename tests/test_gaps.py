from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from provergames import build_nexp_protocol, fixed_soundness_mip
from provergames.equilibrium import enumerate_sse
from provergames.errors import GameError
from provergames.gaps import (
    GapReport,
    GapWitness,
    WrongProfileRow,
    answer_bit_distribution,
    check_gap_closeness,
    find_gap_witness,
    gap_threshold,
    splice,
    subinterval_index,
    subinterval_profile_check,
    verify_utility_gap,
)
from provergames.subforms import Subform, dominant_sse_set, find_subforms, sets_in
from provergames.pruning import prune_nature
from provergames.trees import (
    DecisionNode,
    InformationSet,
    NATURE,
    StrategyProfile,
    TerminalNode,
    _IntCore,
    all_profiles,
    continuation_values,
    expected_utility,
    make_game,
    profile_space_size,
    reach_map,
    utility_vector,
)

from randgames import corpus_games, random_game, random_profile


class TestAnswerBitDistribution:
    def test_deterministic_path(self, k3):
        assert answer_bit_distribution(k3.game, k3.honest) == {0: F(0), 1: F(1)}

    def test_fair_nature_split(self):
        nodes = {
            (): DecisionNode(NATURE, ("x", "y"), (F(1, 2), F(1, 2))),
            ("x",): TerminalNode((F(0),), 0),
            ("y",): TerminalNode((F(0),), 1),
        }
        game = make_game(1, nodes)
        assert answer_bit_distribution(game, StrategyProfile(())) == {
            0: F(1, 2),
            1: F(1, 2),
        }


class TestSplice:
    def test_whole_game_returns_star(self, mini_coloring):
        game = mini_coloring.game
        whole = next(sf for sf in find_subforms(game) if sf.root_set is None)
        sses = enumerate_sse(game)
        other = next(s for s in sses if s != mini_coloring.honest)
        assert splice(game, other, whole, mini_coloring.honest) == mini_coloring.honest

    def test_setless_subform_returns_prime(self, mini_coloring):
        game = mini_coloring.game
        hollow = Subform(None, frozenset({("no",)}), 1)
        sses = enumerate_sse(game)
        other = next(s for s in sses if s != mini_coloring.honest)
        assert splice(game, other, hollow, mini_coloring.honest) == other

    def test_pnexp_splice_changes_only_subform_sets(self, pnexp_toy):
        game, honest = pnexp_toy.game, pnexp_toy.honest
        target = next(
            i
            for i in game.info_sets
            if i.actions == ("c*=0", "c*=1") and ("ans:1;10", "i=2") in i.members
        )
        sf = next(
            sf
            for sf in find_subforms(game)
            if sf.root_set is not None and sf.root_set.key == target.key
        )
        liar = honest.replace(target.key, "c*=1")
        spliced = splice(game, liar, sf, honest)
        assert spliced == honest  # the only deviation sat inside the subform
        root_lie = honest.replace(game.set_by_history[()].key, "ans:0;00")
        spliced = splice(game, root_lie, sf, honest)
        assert spliced == root_lie  # root set is outside the subform


class TestFindGapWitness:
    def test_sat_instance_wrong_bit_loses_half(self, nexp_sat):
        game, scale = nexp_sat.game, nexp_sat.scale
        s_prime = nexp_sat.honest.replace(game.set_by_history[()].key, "c=0")
        alpha_scaled = F(4) / scale  # pre-scale threshold 1/4 < the 1/2 loss
        w = find_gap_witness(game, nexp_sat.honest, s_prime, alpha_scaled)
        assert w is not None
        assert w.subform_key == "<game>"  # witnessed at the whole game
        assert w.prover == 1
        assert w.loss / scale == F(1, 2)

    def test_unsat_third_loss_five_sixths(self, nexp_unsat_third):
        game, scale = nexp_unsat_third.game, nexp_unsat_third.scale
        s_prime = nexp_unsat_third.honest.replace(game.set_by_history[()].key, "c=1")
        alpha_scaled = F(6, 5) / scale
        w = find_gap_witness(game, nexp_unsat_third.honest, s_prime, F(2) / scale)
        assert w is not None and w.loss / scale == F(5, 6)
        # Strict threshold: at exactly 6/5 the 5/6 loss does not qualify.
        assert find_gap_witness(game, nexp_unsat_third.honest, s_prime, alpha_scaled) is None

    def test_star_profile_has_no_witness(self, nexp_sat):
        w = find_gap_witness(nexp_sat.game, nexp_sat.honest, nexp_sat.honest, 10**6)
        assert w is None


class TestVerifyUtilityGap:
    def test_mini_coloring_constant_gap(self, mini_coloring):
        game, scale = mini_coloring.game, mini_coloring.scale
        s_star = dominant_sse_set(game, enumerate_sse(game))[0]
        report = verify_utility_gap(game, s_star, F(2) / scale, mini_coloring.correct_bit)
        assert report.verdict
        # Every wrong-bit profile forfeits at least the one-dollar claim edge.
        assert report.measured_gap / scale == F(1)

    def test_nexp_gap_formula(self):
        for accepting, total in [(1, 3), (1, 2), (1, 4)]:
            build = build_nexp_protocol(fixed_soundness_mip(accepting, total))
            rho = F(accepting, total)
            game, scale = build.game, build.scale
            s_star = dominant_sse_set(game, enumerate_sse(game))[0]
            report = verify_utility_gap(game, s_star, F(100) / scale, build.correct_bit)
            assert report.measured_gap / scale == F(1, 2) - (2 * rho - 1)

    def test_monotone_in_alpha(self, nexp_unsat_third):
        game, scale = nexp_unsat_third.game, nexp_unsat_third.scale
        s_star = nexp_unsat_third.honest
        verdicts = []
        for alpha in (F(6, 5), F(2), F(10)):
            report = verify_utility_gap(game, s_star, alpha / scale, 0)
            verdicts.append(report.verdict)
        # once true, stays true as alpha grows (threshold shrinks)
        assert verdicts == sorted(verdicts)

    def test_bad_bit_rejected(self, nexp_sat):
        with pytest.raises(GameError):
            verify_utility_gap(nexp_sat.game, nexp_sat.honest, 2, 7)


class TestGapCloseness:
    def test_star_is_close_to_itself(self, nexp_sat):
        assert check_gap_closeness(nexp_sat.game, nexp_sat.honest, nexp_sat.honest, 10**9)

    def test_wrong_bit_profile_fails_in_verified_game(self, nexp_unsat_third):
        game, scale = nexp_unsat_third.game, nexp_unsat_third.scale
        alpha_scaled = F(2) / scale
        s_star = nexp_unsat_third.honest
        assert verify_utility_gap(game, s_star, alpha_scaled, 0).verdict
        liar = s_star.replace(game.set_by_history[()].key, "c=1")
        assert not check_gap_closeness(game, liar, s_star, alpha_scaled)

    def test_tie_deviation_stays_close_with_correct_bit(self):
        nodes = {
            (): DecisionNode(1, ("a", "b", "c")),
            ("a",): TerminalNode((F(1, 2),), 1),
            ("b",): TerminalNode((F(1, 2),), 1),
            ("c",): TerminalNode((F(0),), 0),
        }
        game = make_game(1, nodes)
        sses = enumerate_sse(game)
        s_star = dominant_sse_set(game, sses)[0]
        tied = next(s for s in sses if s != s_star)
        assert check_gap_closeness(game, tied, s_star, 10**6)
        assert answer_bit_distribution(game, tied)[1] == 1

    def test_witness_closeness_coupling(self):
        # No witness for a deviating profile forces closeness, except exactly
        # at the threshold or when only non-deviating provers would gain.
        rng = random.Random(900)
        checked = 0
        for _ in range(50):
            game = random_game(rng, max_nodes=40, max_prover_sets=5, max_actions=2)
            try:
                sses = enumerate_sse(game, cap=3000)
            except Exception:
                continue
            doms = dominant_sse_set(game, sses)
            if not doms:
                continue
            s_star = doms[0]
            alpha = 7  # arbitrary threshold
            for _ in range(4):
                s = random_profile(rng, game)
                if s == s_star:
                    continue
                checked += 1
                if find_gap_witness(game, s_star, s, alpha) is None:
                    if not check_gap_closeness(game, s, s_star, alpha):
                        # Localize the failure: it must involve a prover who
                        # did not deviate inside the subform, or an exact tie
                        # with the threshold.
                        ok = False
                        reach = reach_map(game, s)
                        for sf in find_subforms(game):
                            if sf.root_set is not None and not any(
                                reach[h] > 0 for h in sf.root_set.members
                            ):
                                continue
                            spliced = splice(game, s, sf, s_star)
                            devs = {
                                iset.owner
                                for iset in sets_in(game, sf)
                                if s.action(iset.key) != s_star.action(iset.key)
                            }
                            for iset in sets_in(game, sf):
                                j = iset.owner
                                gain = expected_utility(game, spliced, j) - expected_utility(game, s, j)
                                if gain >= F(1, alpha):
                                    assert j not in devs or gain == F(1, alpha)
                                    ok = True
                        assert ok
        assert checked > 50


class TestSubintervalProfiles:
    def test_index_partition(self):
        assert subinterval_index(F(-1), 1) == -4
        assert subinterval_index(F(0), 1) == 0
        assert subinterval_index(F(1), 1) == 3
        assert subinterval_index(F(1, 4) - F(1, 100), 2) == 1

    def test_single_sse_vacuous(self):
        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): TerminalNode((F(1, 2),), 1),
            ("b",): TerminalNode((F(0),), 0),
        }
        game = make_game(1, nodes)
        report = subinterval_profile_check(game, 2, enumerate_sse(game))
        assert report.ok and report.checked == 0

    def test_mini_coloring_holds(self, mini_coloring):
        game = mini_coloring.game
        report = subinterval_profile_check(game, 2, enumerate_sse(game))
        assert report.ok

    def test_mrip_toy_non_vacuous(self, mrip_toy):
        # The commit-low SSEs fail closeness and land in different subintervals.
        game, scale = mrip_toy.game, mrip_toy.scale
        sses = enumerate_sse(game)
        alpha_scaled = int(F(3) / scale)
        report = subinterval_profile_check(game, alpha_scaled, sses)
        assert report.ok
        assert report.checked >= 1


def _oracle_splices(game, s, s_star):
    """(subform, deviators, owners, loss) per reached subform, by literal splice."""
    base = utility_vector(game, s)
    reach = reach_map(game, s)
    for sf in find_subforms(game):
        if sf.root_set is not None and not any(reach[h] > 0 for h in sf.root_set.members):
            continue
        inside = sets_in(game, sf)
        devs = sorted({i.owner for i in inside if s.action(i.key) != s_star.action(i.key)})
        owners = sorted({i.owner for i in inside})
        spliced = utility_vector(game, splice(game, s, sf, s_star))
        yield sf, devs, owners, tuple(a - b for a, b in zip(spliced, base))


def _oracle_witness(game, s_star, s, alpha):
    for sf, devs, _, loss in _oracle_splices(game, s, s_star):
        for j in devs:
            if loss[j - 1] > 1 / F(alpha):
                return GapWitness(sf.key, j, loss[j - 1])
    return None


def _oracle_closeness(game, s, s_star, alpha):
    return not any(
        loss[j - 1] >= 1 / F(alpha)
        for _, _, owners, loss in _oracle_splices(game, s, s_star)
        for j in owners
    )


def _oracle_gap(game, s_star, alpha, correct_bit):
    """(wrong profiles, measured gap, worst row) by splicing every wrong profile."""
    wrong, measured, worst = 0, None, None
    for s in all_profiles(game):
        if answer_bit_distribution(game, s)[correct_bit] == 1:
            continue
        wrong += 1
        best = None
        for sf, devs, _, loss in _oracle_splices(game, s, s_star):
            for j in devs:
                if best is None or loss[j - 1] > best[0]:
                    best = (loss[j - 1], sf.key, j)
        if best is None:
            return "no deviation"
        if measured is None or best[0] < measured:
            measured, worst = best[0], WrongProfileRow(s.choices, *best)
    return wrong, measured, worst


class TestClosedFormSplices:
    """The scans evaluate splices in closed form; `splice` + `utility_vector` is the oracle."""

    def _agree(self, game, s_star, alphas, probes):
        for alpha in alphas:
            for bit in (0, 1):
                expected = _oracle_gap(game, s_star, alpha, bit)
                if expected == "no deviation":
                    with pytest.raises(GameError):
                        verify_utility_gap(game, s_star, alpha, bit)
                    continue
                report = verify_utility_gap(game, s_star, alpha, bit)
                assert (report.wrong_profiles, report.measured_gap, report.worst) == expected
                measured = report.measured_gap
                assert report.verdict == (measured is None or measured > 1 / F(alpha))
            for s in probes:
                assert find_gap_witness(game, s_star, s, alpha) == _oracle_witness(
                    game, s_star, s, alpha
                )
                assert check_gap_closeness(game, s, s_star, alpha) == _oracle_closeness(
                    game, s, s_star, alpha
                )

    def test_random_corpus_matches_splice_oracle(self):
        rng = random.Random(2718)
        games = 0
        while games < 40:
            game = random_game(rng, max_nodes=24, max_prover_sets=5, max_actions=2)
            if not 4 <= profile_space_size(game) <= 32:
                continue
            games += 1
            s_star = random_profile(rng, game)
            probes = [random_profile(rng, game) for _ in range(3)] + [s_star]
            self._agree(game, s_star, (F(1, 3), 2, F(7, 2)), probes)
            # Nature pruning leaves zero-probability branches behind.
            pruned, _ = prune_nature(game, s_star, 1, 1)
            self._agree(pruned, s_star, (2,), probes)

    @pytest.mark.parametrize(
        "pay_aa, pay_ab, loss, all_members_sum",
        [(F(1), F(0), F(-1, 2), F(-3, 2)), (F(0), F(1), F(1, 2), F(3, 2))],
    )
    def test_absent_minded_set_sums_over_frontier_only(
        self, pay_aa, pay_ab, loss, all_members_sum
    ):
        # One set holds both the root and its child "a". Play reaches "a" only
        # through the root, so "a" is no frontier member and adds no term.
        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): DecisionNode(1, ("a", "b")),
            ("a", "a"): TerminalNode((pay_aa,), 0),
            ("a", "b"): TerminalNode((pay_ab,), 1),
            ("b",): TerminalNode((F(1, 2),), 1),
        }
        iset = InformationSet(1, ((), ("a",)), ("a", "b"))
        game = make_game(1, nodes, [iset])
        s_star = StrategyProfile.from_dict({iset.key: "b"})
        s = StrategyProfile.from_dict({iset.key: "a"})
        sf = next(sf for sf in find_subforms(game) if sf.root_set is not None)
        spliced = utility_vector(game, splice(game, s, sf, s_star))
        assert spliced[0] - utility_vector(game, s)[0] == loss
        reach, star = reach_map(game, s), continuation_values(game, s_star)
        vals = continuation_values(game, s)
        naive = sum(reach[m] * (star[m][0] - vals[m][0]) for m in iset.members)
        assert naive == all_members_sum
        report = verify_utility_gap(game, s_star, 1, 1)
        assert report.measured_gap == loss and not report.verdict
        assert report.worst == WrongProfileRow(s.choices, loss, "<game>", 1)
        assert find_gap_witness(game, s_star, s, 1) is None
        assert check_gap_closeness(game, s, s_star, 1)
        self._agree(game, s_star, (1, 3), [s, s_star])

    @pytest.mark.parametrize("pay_a, pay_b, loss", [(F(1, 2), F(0), F(1, 2)), (F(0), F(1, 2), F(-1, 2))])
    def test_subform_entered_below_zero_probability_branch(self, pay_a, pay_b, loss):
        # Set A is entered at "x" and at "y", which Nature never plays; set B
        # lies only below "y", so its subform is unreached even where `s`
        # deviates in it, and must be skipped.
        nodes = {
            (): DecisionNode(NATURE, ("x", "y"), (F(1), F(0))),
            ("x",): DecisionNode(1, ("a", "b")),
            ("y",): DecisionNode(1, ("a", "b")),
            ("x", "a"): TerminalNode((pay_a,), 1),
            ("x", "b"): TerminalNode((pay_b,), 0),
            ("y", "a"): TerminalNode((F(1),), 1),
            ("y", "b"): DecisionNode(1, ("c", "d")),
            ("y", "b", "c"): TerminalNode((F(-1),), 0),
            ("y", "b", "d"): TerminalNode((F(1),), 1),
        }
        a_set = InformationSet(1, (("x",), ("y",)), ("a", "b"))
        b_set = InformationSet(1, (("y", "b"),), ("c", "d"))
        game = make_game(1, nodes, [a_set, b_set])
        s_star = StrategyProfile.from_dict({a_set.key: "a", b_set.key: "c"})
        s = StrategyProfile.from_dict({a_set.key: "b", b_set.key: "d"})
        report = verify_utility_gap(game, s_star, 3, 1)
        assert report.measured_gap == loss and report.worst.witness_subform == a_set.key
        witness = find_gap_witness(game, s_star, s, 3)
        assert witness == (GapWitness(a_set.key, 1, loss) if loss > F(1, 3) else None)
        assert check_gap_closeness(game, s, s_star, 3) == (loss < F(1, 3))
        self._agree(game, s_star, (3, F(1, 2)), [s, s_star])

    def test_deep_nature_chain_is_not_recursive(self):
        depth = 3000
        nodes = {("n",) * k: DecisionNode(NATURE, ("n",), (F(1),)) for k in range(depth)}
        bottom = ("n",) * depth
        nodes[bottom] = DecisionNode(1, ("a", "b"))
        nodes[bottom + ("a",)] = TerminalNode((F(1, 2),), 1)
        nodes[bottom + ("b",)] = TerminalNode((F(0),), 0)
        game = make_game(1, nodes)
        key = game.info_sets[0].key
        s_star = StrategyProfile.from_dict({key: "a"})
        s = StrategyProfile.from_dict({key: "b"})
        report = verify_utility_gap(game, s_star, 3, 1)
        assert report.verdict and report.wrong_profiles == 1
        assert report.worst == WrongProfileRow(s.choices, F(1, 2), key, 1)
        assert find_gap_witness(game, s_star, s, 3) == GapWitness(key, 1, F(1, 2))
        assert not check_gap_closeness(game, s, s_star, 3)

    @pytest.mark.parametrize("alpha", [0, F(-2), -1])
    def test_non_positive_alpha_rejected(self, nexp_sat, alpha):
        game, honest = nexp_sat.game, nexp_sat.honest
        with pytest.raises(GameError, match="positive"):
            verify_utility_gap(game, honest, alpha, 1)
        with pytest.raises(GameError, match="positive"):
            find_gap_witness(game, honest, honest, alpha)
        with pytest.raises(GameError, match="positive"):
            check_gap_closeness(game, honest, honest, alpha)


def reference_wrong_rows(game, s_star, correct_bit):
    """The per-profile loop of `verify_utility_gap` as it was before the scan
    moved to choice indices and integer losses: every `all_profiles` profile
    evaluated in full, each splice loss an exact Fraction. One (profile, best
    (loss, subform key, prover)) row per wrong profile, in scan order."""
    if correct_bit not in (0, 1):
        raise GameError(f"correct_bit must be 0 or 1, got {correct_bit}")
    core = _IntCore(game)
    star_choice = core.choices(s_star)
    star, _ = core.evaluate(star_choice)
    set_no = {iset: k for k, iset in enumerate(core.sets)}
    plan = []
    for sf in find_subforms(game):
        members = ((),) if sf.root_set is None else sf.root_set.members
        frontier = [m for m in members if not any(o != m and m[: len(o)] == o for o in members)]
        inside = [(set_no[i], i.owner, star_choice[set_no[i]]) for i in sets_in(game, sf)]
        plan.append((sf, [core.index[m] for m in frontier], inside))
    wrong_bit = [core.index[t] for t in game.terminals if game.nodes[t].answer_bit != correct_bit]
    rows = []
    for s in all_profiles(game):
        choice = core.choices(s)
        value, reached = core.evaluate(choice)
        if not any(reached[t] for t in wrong_bit):
            continue
        best = None
        for sf, frontier, inside in plan:
            entries = [m for m in frontier if reached[m]]
            deviators = sorted({owner for k, owner, a in inside if choice[k] != a})
            if not entries or not deviators:
                continue
            for j in deviators:
                loss = F(
                    sum(core.field(star[m], j) - core.field(value[m], j) for m in entries),
                    core.scale,
                )
                if best is None or loss > best[0]:
                    best = (loss, sf.key, j)
        if best is None:
            raise GameError("wrong-bit profile identical to the dominant SSE")
        rows.append((s.choices, best))
    return rows


def reference_verify_utility_gap(game, s_star, alpha, correct_bit, rows=None):
    """The Fraction scan's report; `rows` from `reference_wrong_rows` for the
    same game, `s_star` and bit saves scanning again at another alpha."""
    threshold = gap_threshold(alpha)
    if rows is None:
        rows = reference_wrong_rows(game, s_star, correct_bit)
    verdict, measured, worst = True, None, None
    for profile, best in rows:
        if best[0] <= threshold:
            verdict = False
        if measured is None or best[0] < measured:
            measured = best[0]
            worst = WrongProfileRow(profile, *best)
    return GapReport(verdict, F(alpha), threshold, len(rows), measured, worst)


CAMPAIGN_ALPHAS = (F(1, 3), F(6, 5), F(7, 2), 10**6)


def _same_reports(game, s_star):
    """Both bits at every campaign alpha: the scan and the reference agree on
    `GapReport`s, or both refuse. Returns the number of reports compared."""
    compared = 0
    for bit in (0, 1):
        try:
            rows = reference_wrong_rows(game, s_star, bit)
        except GameError:
            for alpha in CAMPAIGN_ALPHAS:
                with pytest.raises(GameError, match="s_star reaches answer bit"):
                    verify_utility_gap(game, s_star, alpha, bit)
            continue
        for alpha in CAMPAIGN_ALPHAS:
            expected = reference_verify_utility_gap(game, s_star, alpha, bit, rows)
            report = verify_utility_gap(game, s_star, alpha, bit)
            assert report == expected and repr(report) == repr(expected)
            compared += 1
    return compared


def _certain_profile(rng, game):
    """A random profile answering some bit with certainty, or None."""
    for _ in range(16):
        s = random_profile(rng, game)
        if 1 in answer_bit_distribution(game, s).values():
            return s
    return None


class TestReferenceCampaign:
    """The index/integer scan gives the same reports as the Fraction scan it replaced."""

    def test_random_games_and_their_prunings(self):
        # For the bit `s_star` does not answer, both sides refuse.
        rng = random.Random(4242)
        games = compared = 0
        while games < 30:
            game = random_game(
                rng, provers=2, max_nodes=20, max_depth=4, max_actions=3, max_prover_sets=8
            )
            if not 512 <= profile_space_size(game) <= 2048:
                continue
            s_star = _certain_profile(rng, game)
            if s_star is None:
                continue
            games += 1
            pruned, _ = prune_nature(game, s_star, 1, 1)
            compared += _same_reports(game, s_star) + _same_reports(pruned, s_star)
        assert compared == 30 * 2 * len(CAMPAIGN_ALPHAS)

    @pytest.mark.parametrize(
        "accepting, total", [(a, t) for t in range(1, 6) for a in range(t + 1)]
    )
    def test_nexp_fixed_soundness_grid(self, accepting, total):
        build = build_nexp_protocol(fixed_soundness_mip(accepting, total))
        assert _same_reports(build.game, build.honest) == len(CAMPAIGN_ALPHAS)

    @pytest.mark.parametrize("name", ["pnexp_toy", "mrip_toy", "mini_coloring"])
    def test_protocol_toys(self, request, name):
        build = request.getfixturevalue(name)
        assert _same_reports(build.game, build.honest) >= len(CAMPAIGN_ALPHAS)


def wrong_reach_classes(game, correct_bit):
    """(classes, profiles) answering the wrong bit, by literal enumeration: a
    class is the distinct (set key, action) pairs at the sets a profile reaches
    under `reach_map`."""
    sets = game.set_by_history
    classes, wrong = set(), 0
    for s in all_profiles(game):
        reach = reach_map(game, s)
        if all(game.nodes[t].answer_bit == correct_bit for t in game.terminals if reach[t]):
            continue
        wrong += 1
        keys = {sets[h].key for h in sets if reach[h]}
        classes.add(tuple(c for c in s.choices if c[0] in keys))
    return len(classes), wrong


def _count_value_passes(monkeypatch):
    passes = []
    advance = _IntCore.advance

    def counted(self, value, choice, steps):
        passes.append(len(steps))
        return advance(self, value, choice, steps)

    monkeypatch.setattr(_IntCore, "advance", counted)
    return passes


class TestReachClasses:
    def test_classes_partition_the_profile_space(self):
        rng = random.Random(7)
        games = 0
        for game, _ in corpus_games(200):
            if profile_space_size(game) > 2000:
                continue
            for g in (game, prune_nature(game, random_profile(rng, game), 1, 1)[0]):
                core = _IntCore(g)
                sizes = [len(iset.actions) for iset in core.sets]
                default = core.choices(random_profile(rng, g))
                classes = [
                    (list(choice), bytes(reached), bytes(fixed))
                    for choice, reached, fixed in core.reach_classes(default)
                ]
                total = sum(
                    math.prod(n for n, f in zip(sizes, fixed) if not f) for _, _, fixed in classes
                )
                assert total == profile_space_size(g)
                for s in all_profiles(g):
                    choice = core.choices(s)
                    homes = [
                        reached
                        for c, reached, fixed in classes
                        if all(a == b for a, b, f in zip(c, choice, fixed) if f)
                    ]
                    assert homes == [bytes(core.reach(choice))]
            games += 1
        assert games >= 40

    def test_free_set_takes_action_zero(self):
        # s_star plays "c"; "a" answers wrong and leaves the set at "b" free:
        # its "p" (not s_star's "q") adds no term above the class's loss 1.
        # The one-action set below "b/q" counts with a factor of 1.
        nodes = {
            (): DecisionNode(1, ("a", "b", "c")),
            ("a",): TerminalNode((F(0),), 0),
            ("b",): DecisionNode(1, ("p", "q")),
            ("b", "p"): TerminalNode((F(0),), 1),
            ("b", "q"): DecisionNode(1, ("z",)),
            ("b", "q", "z"): TerminalNode((F(0),), 1),
            ("c",): TerminalNode((F(1),), 1),
        }
        game = make_game(1, nodes)
        s_star = StrategyProfile.from_dict({"": "c", "b": "q", "b/q": "z"})
        report = verify_utility_gap(game, s_star, 2, 1)
        assert report == reference_verify_utility_gap(game, s_star, 2, 1)
        assert report.wrong_profiles == 2
        assert report.worst.profile == (("", "a"), ("b", "p"), ("b/q", "z"))
        assert report.worst.max_loss == 1

    def test_costly_set_keeps_s_star_action(self):
        # Prover 1 gains 1/2 by answering wrong, so the class's loss is -1/2;
        # prover 2's "e" at the unreached "a/c" would add a loss of 0 in the
        # whole game and in the subform at "a", so "f" stays.
        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): DecisionNode(2, ("c", "d")),
            ("a", "c"): DecisionNode(2, ("e", "f")),
            ("a", "c", "e"): TerminalNode((F(0), F(0)), 1),
            ("a", "c", "f"): TerminalNode((F(0), F(0)), 1),
            ("a", "d"): TerminalNode((F(1, 2), F(0)), 0),
            ("b",): TerminalNode((F(0), F(0)), 1),
        }
        game = make_game(2, nodes)
        s_star = StrategyProfile.from_dict({"": "b", "a": "d", "a/c": "f"})
        report = verify_utility_gap(game, s_star, 2, 1)
        assert report == reference_verify_utility_gap(game, s_star, 2, 1)
        assert report.wrong_profiles == 2
        assert report.worst.profile == (("", "a"), ("a", "d"), ("a/c", "f"))
        assert report.measured_gap == F(-1, 2) and not report.verdict


class TestScanThresholdAndWork:
    def _tie_game(self):
        # Nature plays "x" with 1/3; the prover's "b" there drops 6/5, so the
        # only wrong profile loses exactly 1/3 * 6/5 = 2/5 at scale D = 3 * 10.
        nodes = {
            (): DecisionNode(NATURE, ("x", "y"), (F(1, 3), F(2, 3))),
            ("x",): DecisionNode(1, ("a", "b")),
            ("x", "a"): TerminalNode((F(1),), 1),
            ("x", "b"): TerminalNode((F(-1, 5),), 0),
            ("y",): TerminalNode((F(1, 2),), 1),
        }
        game = make_game(1, nodes)
        key = game.info_sets[0].key
        return game, StrategyProfile.from_dict({key: "a"}), StrategyProfile.from_dict({key: "b"})

    def test_binding_loss_equal_to_threshold_fails(self):
        game, s_star, s = self._tie_game()
        assert _IntCore(game).scale == 30
        alpha = F(5, 2)
        report = verify_utility_gap(game, s_star, alpha, 1)
        assert report.measured_gap == F(2, 5) == report.threshold
        assert not report.verdict
        assert find_gap_witness(game, s_star, s, alpha) is None
        assert not check_gap_closeness(game, s, s_star, alpha)
        # Just above 5/2 the threshold 5/13 sits below the 2/5 loss.
        alpha = F(13, 5)
        assert verify_utility_gap(game, s_star, alpha, 1).verdict
        witness = GapWitness(game.info_sets[0].key, 1, F(2, 5))
        assert find_gap_witness(game, s_star, s, alpha) == witness
        assert not check_gap_closeness(game, s, s_star, alpha)
        assert check_gap_closeness(game, s, s_star, F(12, 5))

    @pytest.mark.parametrize("name", ["pnexp_toy", "mrip_toy", "nexp_unsat_third"])
    def test_one_value_pass_per_wrong_class(self, request, monkeypatch, name):
        build = request.getfixturevalue(name)
        passes = _count_value_passes(monkeypatch)
        report = verify_utility_gap(build.game, build.honest, 2, build.correct_bit)
        classes, wrong = wrong_reach_classes(build.game, build.correct_bit)
        assert 0 < report.wrong_profiles == wrong < profile_space_size(build.game)
        assert len(passes) == classes + 1  # +1 for s_star
        if name == "pnexp_toy":
            assert (classes, wrong) == (52, 2048)

    def test_star_answering_the_wrong_bit_fails_fast(self, nexp_unsat_third, monkeypatch):
        build = nexp_unsat_third
        walks = []
        reach = _IntCore.reach

        def counted(self, choice):
            walks.append(tuple(choice))
            return reach(self, choice)

        monkeypatch.setattr(_IntCore, "reach", counted)
        assert build.correct_bit == 0
        with pytest.raises(GameError, match="^s_star reaches answer bit 0, not 1$"):
            verify_utility_gap(build.game, build.honest, 3, 1)
        assert len(walks) == 1  # s_star's own, before any profile is scanned


def test_three_query_pnexp_gap_is_pinned(pnexp_three_query, monkeypatch):
    build = pnexp_three_query
    game = build.game
    assert (len(game.nodes), profile_space_size(game), build.scale) == (509, 65536, F(1, 3))
    passes = _count_value_passes(monkeypatch)
    report = verify_utility_gap(game, build.honest, F(100) / build.scale, build.correct_bit)
    assert report.verdict and report.wrong_profiles == 32768
    assert len(passes) == 504 + 1  # wrong reach classes, by `wrong_reach_classes`, + s_star
    assert report.measured_gap == report.worst.max_loss == F(1, 18)
    worst = report.worst
    assert worst.witness_prover == 2
    members = worst.witness_subform.split("|")
    assert len(members) == 8 and all(m.startswith("ans:") and m.endswith("/i=1") for m in members)
    assert worst.profile[0] == ("", "ans:0;000")
    # The whole report, byte for byte, as the Fraction scan gave it.
    digest = hashlib.sha256(repr(report).encode()).hexdigest()
    assert digest == "d6431db62ff768c7b9f65bdcb75221ad488952963939eae0e9b0aef31600a98f"
