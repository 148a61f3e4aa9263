from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from provergames.errors import BeliefError, ProfileError, UnknownHistoryError
from provergames.pruning import prune_nature
from provergames.trees import (
    NATURE,
    DecisionNode,
    GameTree,
    InformationSet,
    StrategyProfile,
    TerminalNode,
    _IntCore,
    check_perfect_recall,
    conditional_utility,
    continuation_values,
    expected_utility,
    make_game,
    rational,
    reach_map,
    reach_probability,
    utility_vector,
    validate_game,
)

from randgames import random_game, random_profile


def coin_game(p=F(1, 2)):
    nodes = {
        (): DecisionNode(NATURE, ("h", "t"), (p, 1 - p)),
        ("h",): DecisionNode(1, ("l", "r")),
        ("t",): DecisionNode(1, ("l", "r")),
        ("h", "l"): TerminalNode((F(1),), 1),
        ("h", "r"): TerminalNode((F(0),), 0),
        ("t", "l"): TerminalNode((F(0),), 0),
        ("t", "r"): TerminalNode((F(1, 2),), 1),
    }
    iset = InformationSet(1, (("h",), ("t",)), ("l", "r"))
    return GameTree(1, nodes, (iset,))


class TestRational:
    def test_parse(self):
        assert rational("-1/3") == F(-1, 3)
        assert rational(2) == F(2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rational(0.5)

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            rational("1/0")


class TestValidateGame:
    def test_single_terminal_game_is_valid(self):
        game = make_game(1, {(): TerminalNode((F(0),), 0)})
        assert validate_game(game).ok

    def test_nature_distribution_sum(self):
        nodes = {
            (): DecisionNode(NATURE, ("a", "b"), (F(1, 2), F(1, 3))),
            ("a",): TerminalNode((F(0),), 0),
            ("b",): TerminalNode((F(0),), 0),
        }
        report = validate_game(make_game(1, nodes))
        assert not report.ok
        assert any("sums to 5/6" in v.message for v in report.violations)

    def test_total_payment_budget(self):
        game = make_game(2, {(): TerminalNode((F(3, 4), F(3, 4)), 1)})
        report = validate_game(game)
        assert any(
            v.code == "total-range" and "3/2" in v.message for v in report.violations
        )

    def test_missing_child_and_orphan(self):
        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): TerminalNode((F(0),), 0),
            ("zzz", "x"): TerminalNode((F(0),), 0),
        }
        report = validate_game(make_game(1, nodes))
        codes = {v.code for v in report.violations}
        assert "missing-child" in codes and "orphan" in codes

    def test_partition_violations(self):
        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): TerminalNode((F(0),), 0),
            ("b",): TerminalNode((F(0),), 0),
        }
        report = validate_game(GameTree(1, nodes, ()))
        assert any(v.code == "unpartitioned-history" for v in report.violations)
        bad_set = InformationSet(1, ((),), ("a",))  # wrong action list
        report = validate_game(GameTree(1, nodes, (bad_set,)))
        assert any(v.code == "set-action-mismatch" for v in report.violations)

    def test_reserved_label_rejected(self):
        nodes = {
            (): DecisionNode(1, ("a/b",)),
            ("a/b",): TerminalNode((F(0),), 0),
        }
        report = validate_game(make_game(1, nodes))
        assert any(v.code == "bad-label" for v in report.violations)

    def test_builders_are_valid(self, k3, nexp_unsat_third, pnexp_toy, mrip_toy):
        for build in (k3, nexp_unsat_third, pnexp_toy, mrip_toy):
            assert validate_game(build.game).ok


class TestPerfectRecall:
    def test_one_round_game(self):
        assert check_perfect_recall(coin_game()).ok

    def test_k3_has_perfect_recall(self, k3):
        assert check_perfect_recall(k3.game).ok

    def test_forgetting_own_move_detected(self):
        # One prover moves twice; the second set pools across his own first move.
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
        game = GameTree(1, nodes, sets)
        assert validate_game(game).ok
        report = check_perfect_recall(game)
        assert not report.ok
        assert report.violations[0].where == sets[1].key


class TestReachProbability:
    def test_root_is_one(self):
        game = coin_game()
        s = StrategyProfile.from_dict({game.info_sets[0].key: "l"})
        assert reach_probability(game, s, ()) == 1

    def test_one_coin(self):
        game = coin_game()
        s = StrategyProfile.from_dict({game.info_sets[0].key: "l"})
        assert reach_probability(game, s, ("h", "l")) == F(1, 2)
        assert reach_probability(game, s, ("h", "r")) == 0

    def test_unknown_history(self):
        game = coin_game()
        s = StrategyProfile.from_dict({game.info_sets[0].key: "l"})
        with pytest.raises(UnknownHistoryError):
            reach_probability(game, s, ("nope",))

    def test_k3_honest_yes_path_no_nature(self, k3):
        game, honest = k3.game, k3.honest
        coloring = honest.action(game.set_by_history[("yes",)].key)
        terminal = ("yes", coloring, "agree")
        assert reach_probability(game, honest, terminal) == 1

    def test_total_reach_over_terminals_is_one(self):
        rng = random.Random(7)
        for _ in range(25):
            game = random_game(rng)
            s = random_profile(rng, game)
            reach = reach_map(game, s)
            assert sum(reach[t] for t in game.terminals) == 1

    def test_core_field_differences_are_reach_weighted_value_differences(self):
        # The identity the gap scan rests on: at a history m reached under s,
        # (field(v*[m], j) - field(v[m], j)) / scale = reach_s(m) * (V*(m) - V(m)).
        rng = random.Random(13)
        zero_branches = 0
        for _ in range(25):
            game = random_game(rng)
            s, s_star = random_profile(rng, game), random_profile(rng, game)
            # Nature pruning leaves zero-probability branches to skip.
            for g in (game, prune_nature(game, s, 1, 1)[0]):
                core = _IntCore(g)
                value, reached = core.evaluate(core.choices(s))
                star, _ = core.evaluate(core.choices(s_star))
                reach = reach_map(g, s)
                values, star_values = continuation_values(g, s), continuation_values(g, s_star)
                assert {h for h, i in core.index.items() if reached[i]} == {
                    h for h, r in reach.items() if r > 0
                }
                for h, i in core.index.items():
                    if not reached[i]:
                        continue
                    for j in range(1, g.provers + 1):
                        diff = core.field(star[i], j) - core.field(value[i], j)
                        assert F(diff, core.scale) == reach[h] * (
                            star_values[h][j - 1] - values[h][j - 1]
                        )
                zero_branches += any(
                    p == 0 for n in g.nodes.values() for p in getattr(n, "dist", None) or ()
                )
        assert zero_branches > 0


class TestExpectedUtility:
    def test_single_terminal(self):
        game = make_game(2, {(): TerminalNode((F(1, 2), F(1, 2)), 1)})
        s = StrategyProfile(())
        assert expected_utility(game, s, 1) == F(1, 2)
        assert expected_utility(game, s, 2) == F(1, 2)

    def test_nexp_no_claim_pays_half_each(self, nexp_sat):
        game, scale = nexp_sat.game, nexp_sat.scale
        s = nexp_sat.honest.replace(game.set_by_history[()].key, "c=0")
        assert expected_utility(game, s, 1) / scale == F(1, 2)
        assert expected_utility(game, s, 2) / scale == F(1, 2)

    def test_nexp_lying_at_soundness_third(self, nexp_unsat_third):
        game, scale = nexp_unsat_third.game, nexp_unsat_third.scale
        lying = nexp_unsat_third.honest.replace(game.set_by_history[()].key, "c=1")
        assert expected_utility(game, lying, 1) / scale == F(-1, 3)

    def test_bad_prover_index(self):
        game = make_game(1, {(): TerminalNode((F(0),), 0)})
        with pytest.raises(ProfileError):
            expected_utility(game, StrategyProfile(()), 2)


class TestConditionalUtility:
    def test_root_anchor_equals_expected(self):
        rng = random.Random(11)
        for _ in range(20):
            game = random_game(rng)
            s = random_profile(rng, game)
            for j in range(1, game.provers + 1):
                assert conditional_utility(game, s, j, ()) == expected_utility(
                    game, s, j
                )

    def test_point_belief_on_history(self):
        game = coin_game()
        s = StrategyProfile.from_dict({game.info_sets[0].key: "l"})
        assert conditional_utility(game, s, 1, ("h",)) == 1
        assert conditional_utility(game, s, 1, ("t",)) == 0

    def test_two_member_average(self):
        game = coin_game()
        iset = game.info_sets[0]
        s = StrategyProfile.from_dict({iset.key: "l"})
        belief = {("h",): F(1, 2), ("t",): F(1, 2)}
        assert conditional_utility(game, s, 1, (iset, belief)) == F(1, 2)

    def test_malformed_belief(self):
        game = coin_game()
        iset = game.info_sets[0]
        s = StrategyProfile.from_dict({iset.key: "l"})
        with pytest.raises(BeliefError):
            conditional_utility(game, s, 1, (iset, {("h",): F(1, 3)}))


class TestInvariants:
    def test_relabeling_invariance(self):
        game = coin_game()
        s = StrategyProfile.from_dict({game.info_sets[0].key: "l"})
        base = expected_utility(game, s, 1)

        mapping = {"h": "HEADS", "t": "TAILS", "l": "left", "r": "right"}

        def rename(h):
            return tuple(mapping[a] for a in h)

        nodes = {}
        for h, node in game.nodes.items():
            if isinstance(node, DecisionNode):
                nodes[rename(h)] = DecisionNode(
                    node.player, tuple(mapping[a] for a in node.actions), node.dist
                )
            else:
                nodes[rename(h)] = node
        iset = InformationSet(1, tuple(sorted(map(rename, game.info_sets[0].members))), ("left", "right"))
        game2 = GameTree(1, nodes, (iset,))
        s2 = StrategyProfile.from_dict({iset.key: "left"})
        assert expected_utility(game2, s2, 1) == base

    def test_utilities_within_budget(self):
        rng = random.Random(23)
        for _ in range(30):
            game = random_game(rng)
            assert validate_game(game).ok
            assert check_perfect_recall(game).ok
            s = random_profile(rng, game)
            for j in range(1, game.provers + 1):
                assert -1 <= expected_utility(game, s, j) <= 1

    def test_continuation_values_match_reach_weighted_sum(self):
        rng = random.Random(31)
        game = random_game(rng)
        s = random_profile(rng, game)
        reach = reach_map(game, s)
        values = continuation_values(game, s)
        for j in range(1, game.provers + 1):
            total = sum(
                (reach[t] * game.nodes[t].payments[j - 1] for t in game.terminals),
                F(0),
            )
            assert values[()][j - 1] == total

    def test_utility_vector(self, k3):
        assert utility_vector(k3.game, k3.honest) == (F(1, 2), F(1, 4))
