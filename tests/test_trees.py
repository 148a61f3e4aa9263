from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from fractions import Fraction as F

import pytest

from provergames.errors import BeliefError, ProfileError, UnknownHistoryError
from provergames.pruning import prune_nature
from provergames.trees import (
    NATURE,
    RESERVED_LABEL_CHARS,
    DecisionNode,
    GameTree,
    History,
    InformationSet,
    StrategyProfile,
    TerminalNode,
    ValidationReport,
    Violation,
    _IntCore,
    check_perfect_recall,
    conditional_utility,
    continuation_values,
    expected_utility,
    make_game,
    path_of,
    rational,
    reach_map,
    reach_probability,
    utility_vector,
    validate_game,
)

from randgames import (
    corpus_games,
    random_game,
    random_pi_game,
    random_profile,
    random_root_lottery_game,
)


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


class TestImmutableValues:
    def test_pruned_game_round_trips(self):
        # The slotted node and set classes keep pickling, copying and `replace`.
        rng = random.Random(31)
        game = random_game(rng, max_nodes=60, nature_weight=0.5)
        pruned, _ = prune_nature(game, random_profile(rng, game), 2, 1)
        nature = [n for n in pruned.nodes.values() if isinstance(n, DecisionNode) and n.dist]
        assert nature and any(isinstance(n, TerminalNode) for n in pruned.nodes.values())
        keys = [iset.key for iset in pruned.info_sets]
        for copied in (pickle.loads(pickle.dumps(pruned)), copy.deepcopy(pruned)):
            assert copied == pruned and copied.nodes is not pruned.nodes
            assert [iset.key for iset in copied.info_sets] == keys
            assert utility_vector(copied, random_profile(random.Random(5), copied)) == (
                utility_vector(pruned, random_profile(random.Random(5), pruned))
            )
        assert dataclasses.replace(pruned) == pruned
        node = nature[0]
        assert dataclasses.replace(node, dist=node.dist) == node
        flipped = dataclasses.replace(node, dist=node.dist[::-1])
        assert flipped.dist == node.dist[::-1] and flipped.actions == node.actions
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.player = 1
        iset = coin_game().info_sets[0]  # members h and t
        first = dataclasses.replace(iset, members=iset.members[:1])
        assert first.key == path_of(iset.members[0]) and first != iset
        assert dataclasses.replace(iset) == iset and repr(iset).count("key") == 0


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


def _reference_check_label(label: str, where: str, out: list[Violation]) -> None:
    if not label or any(c in label for c in RESERVED_LABEL_CHARS):
        out.append(
            Violation(
                "bad-label",
                where,
                f"action label {label!r} is empty or contains a reserved character",
            )
        )


def reference_validate_game(game: GameTree) -> ValidationReport:
    """`validate_game` as it was before it checked rationals on integers: Fraction
    comparisons and sums, nodes sorted twice. Kept as the oracle."""
    out: list[Violation] = []
    if game.provers < 1:
        out.append(Violation("bad-provers", "", f"prover count {game.provers} < 1"))
    if () not in game.nodes:
        out.append(Violation("no-root", "", "root history missing"))
        return ValidationReport(tuple(out))

    for h in sorted(game.nodes):
        node = game.nodes[h]
        where = path_of(h)
        if h:
            parent = game.nodes.get(h[:-1])
            if parent is None:
                out.append(Violation("orphan", where, "parent history missing"))
                continue
            if not isinstance(parent, DecisionNode) or h[-1] not in parent.actions:
                out.append(
                    Violation("bad-parent", where, "not reachable by a parent action")
                )
        if isinstance(node, DecisionNode):
            if not node.actions:
                out.append(Violation("no-actions", where, "decision node with no actions"))
            for a in node.actions:
                _reference_check_label(a, where, out)
                if h + (a,) not in game.nodes:
                    out.append(
                        Violation("missing-child", where, f"child for action {a!r} missing")
                    )
            if len(set(node.actions)) != len(node.actions):
                out.append(Violation("dup-action", where, "duplicate action labels"))
            if node.player == NATURE:
                if node.dist is None:
                    out.append(Violation("nature-dist-missing", where, "no distribution"))
                else:
                    if len(node.dist) != len(node.actions):
                        out.append(
                            Violation("nature-dist-length", where, "distribution length mismatch")
                        )
                    if any(p < 0 for p in node.dist):
                        out.append(
                            Violation("nature-dist-negative", where, "negative probability")
                        )
                    total = sum(node.dist, F(0))
                    if total != 1:
                        out.append(
                            Violation(
                                "nature-dist-sum",
                                where,
                                f"nature distribution sums to {total}",
                            )
                        )
            else:
                if not (1 <= node.player <= game.provers):
                    out.append(
                        Violation("bad-prover", where, f"player {node.player} out of range")
                    )
                if node.dist is not None:
                    out.append(Violation("dist-on-prover", where, "prover node has a distribution"))
        else:
            if len(node.payments) != game.provers:
                out.append(Violation("payment-length", where, "payment vector length mismatch"))
            for j, r in enumerate(node.payments, start=1):
                if not (-1 <= r <= 1):
                    out.append(
                        Violation(
                            "payment-range", where, f"payment {r} to prover {j} outside [-1,1]"
                        )
                    )
            total = sum(node.payments, F(0))
            if not (-1 <= total <= 1):
                out.append(
                    Violation("total-range", where, f"total payment {total} outside [-1,1]")
                )
            if node.answer_bit not in (0, 1):
                out.append(Violation("bad-answer-bit", where, f"answer bit {node.answer_bit}"))

    # Information partition: every prover decision history in exactly one set,
    # member action lists identical to the node's.
    seen: dict[History, str] = {}
    for iset in game.info_sets:
        key = iset.key
        if not iset.members:
            out.append(Violation("empty-set", key, "information set with no members"))
            continue
        if iset.owner == NATURE or not (1 <= iset.owner <= game.provers):
            out.append(Violation("bad-owner", key, f"owner {iset.owner} invalid"))
        if tuple(sorted(iset.members)) != iset.members:
            out.append(Violation("unsorted-members", key, "members not in canonical order"))
        for h in iset.members:
            if h in seen:
                out.append(
                    Violation("set-overlap", key, f"history {path_of(h)!r} in two sets")
                )
            seen[h] = key
            node = game.nodes.get(h)
            if node is None:
                out.append(Violation("set-member-missing", key, f"member {path_of(h)!r} missing"))
            elif not (isinstance(node, DecisionNode) and node.player == iset.owner):
                out.append(
                    Violation(
                        "set-member-mismatch",
                        key,
                        f"member {path_of(h)!r} is not a decision node of prover {iset.owner}",
                    )
                )
            elif node.actions != iset.actions:
                out.append(
                    Violation(
                        "set-action-mismatch",
                        key,
                        f"member {path_of(h)!r} has different available actions",
                    )
                )
    for h in sorted(game.nodes):
        node = game.nodes[h]
        if isinstance(node, DecisionNode) and node.player != NATURE and h not in seen:
            out.append(
                Violation(
                    "unpartitioned-history",
                    path_of(h),
                    "prover decision history belongs to no information set",
                )
            )
    return ValidationReport(tuple(out))


VALIDATION_CODES = {
    "bad-provers", "no-root", "orphan", "bad-parent", "no-actions", "bad-label",
    "missing-child", "dup-action", "nature-dist-missing", "nature-dist-length",
    "nature-dist-negative", "nature-dist-sum", "bad-prover", "dist-on-prover",
    "payment-length", "payment-range", "total-range", "bad-answer-bit", "empty-set",
    "bad-owner", "unsorted-members", "set-overlap", "set-member-missing",
    "set-member-mismatch", "set-action-mismatch", "unpartitioned-history",
}
WIDE_GRID = sorted({F(k, d) for k in range(-5, 6) for d in (1, 2, 3, 4, 6)})


def invalid_games():
    """Hand-built games that between them hit every violation code."""
    yield GameTree(0, {}, ())
    yield make_game(
        2,
        {
            (): DecisionNode(NATURE, ("a", "b", "c"), (F(1, 3), F(1, 3), F(1, 2))),
            ("a",): DecisionNode(NATURE, ("x", "y"), (F(3, 2), F(-1, 2))),
            ("a", "x"): TerminalNode((F(3, 2), F(0)), 1),
            ("a", "y"): TerminalNode((F(1, 2),), 2),
            ("b",): DecisionNode(NATURE, ("x",), (F(1, 2), F(1, 2))),
            ("b", "x"): TerminalNode((F(-1), F(-1, 2)), 0),
            ("c",): DecisionNode(1, ("p", "q")),
            ("c", "p"): TerminalNode((F(1, 6), F(-5, 6)), 0),
            ("c", "p", "r"): TerminalNode((F(0), F(0)), 0),
            ("d",): TerminalNode((F(0), F(0)), 0),
            ("z", "w"): TerminalNode((F(0), F(0)), 0),
        },
    )
    nodes = {
        (): DecisionNode(1, ("a", "a", "b|c", "")),
        ("a",): DecisionNode(3, ("x",), (F(1),)),
        ("a", "x"): DecisionNode(NATURE, ("y",)),
        ("a", "x", "y"): DecisionNode(1, ()),
    }
    yield GameTree(
        1,
        nodes,
        (
            InformationSet(1, (), ("a",)),
            InformationSet(0, (("a",),), ("x",)),
            InformationSet(1, (("q",), ()), ("a", "a", "b|c", "")),
            InformationSet(1, ((),), ("a",)),
        ),
    )


def corrupted(rng: random.Random, game: GameTree) -> GameTree:
    """`game` with a few payments, distributions, answer bits or nodes spoiled."""
    nodes = dict(game.nodes)
    for _ in range(rng.randint(1, 3)):
        h = rng.choice(sorted(nodes))
        node = nodes[h]
        if isinstance(node, TerminalNode):
            k = rng.choice((game.provers,) * 3 + (1, 3))
            pays = tuple(rng.choice(WIDE_GRID) for _ in range(k))
            nodes[h] = TerminalNode(pays, rng.choice((0, 1, 1, 2, -1)))
        elif node.player == NATURE:
            k = len(node.actions) + rng.choice((0, 0, 0, 1, -1))
            dist = tuple(rng.choice(WIDE_GRID) for _ in range(k))
            nodes[h] = DecisionNode(NATURE, node.actions, dist)
        elif h:
            del nodes[h]
    return GameTree(game.provers, nodes, game.info_sets)


class TestValidateMatchesReference:
    """The integer checks give the Fraction checks' reports, order and messages."""

    def test_valid_corpora(self, k3, k4, nexp_unsat_third, pnexp_toy, mrip_toy):
        games = [game for game, _ in corpus_games(300)]
        rng = random.Random(11)
        games += [random_root_lottery_game(rng) for _ in range(30)]
        games += [random_pi_game(rng, zero_edges=True) for _ in range(30)]
        games += [b.game for b in (k3, k4, nexp_unsat_third, pnexp_toy, mrip_toy)]
        for game in games:
            report = validate_game(game)
            assert report.ok and report == reference_validate_game(game)

    def test_corrupted_corpus(self):
        codes = set()
        rng = random.Random(23)
        for game, _ in corpus_games(300):
            bad = corrupted(rng, game)
            report = validate_game(bad)
            assert report == reference_validate_game(bad)
            codes |= {v.code for v in report.violations}
        assert {"payment-range", "total-range", "nature-dist-sum", "orphan"} <= codes

    def test_every_code(self):
        codes = set()
        for game in invalid_games():
            report = validate_game(game)
            assert report == reference_validate_game(game)
            codes |= {v.code for v in report.violations}
        assert codes == VALIDATION_CODES
        second = validate_game(list(invalid_games())[1])
        assert "nature distribution sums to 7/6" in {v.message for v in second.violations}
