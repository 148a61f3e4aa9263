from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from provergames.errors import GameError
from provergames.pruning import (
    _in_class,
    interval_index,
    interval_representative,
    prune_nature,
    verify_pruning,
)
from provergames.equilibrium import enumerate_sse, is_sse
from provergames.gaps import answer_bit_distribution
from provergames.subforms import dominant_sse_set
from provergames.beliefs import reachable_sets
from provergames.trees import (
    DecisionNode,
    GameTree,
    NATURE,
    StrategyProfile,
    TerminalNode,
    make_game,
    utility_vector,
    validate_game,
)

from randgames import PAY_GRID, random_profile, random_root_lottery_game


def lottery(payments, weights=None):
    k = len(payments)
    weights = weights or [1] * k
    total = sum(weights)
    labels = tuple(f"o{i}" for i in range(k))
    nodes = {(): DecisionNode(NATURE, labels, tuple(F(w, total) for w in weights))}
    for label, r in zip(labels, payments):
        nodes[(label,)] = TerminalNode((r,), 0)
    return make_game(1, nodes)


def reference_interval_index(payment: F, alpha: int) -> tuple[int, int]:
    """The (interval, half) bucket computed directly on the width-1/(2*alpha) grid."""
    if not (-1 <= payment <= 1):
        raise GameError(f"payment {payment} outside [-1,1]")
    if payment == 1:
        return 2 * alpha - 1, 1
    ell = (2 * alpha * payment).__floor__()
    half = 0 if payment < F(2 * ell + 1, 4 * alpha) else 1
    return ell, half


class TestIntervalRepresentative:
    @pytest.mark.parametrize(
        "payment,alpha,expected",
        [
            (F(1, 10), 1, F(1, 4)),  # lower half of [0, 1/2)
            (F(3, 10), 1, F(3, 4)),  # upper half, literal formula
            (F(0), 1, F(1, 4)),  # boundary belongs to the lower half
            (F(1, 4), 1, F(3, 4)),  # half boundary belongs to the upper half
            (F(-1, 10), 1, F(-1, 4)),
            (F(1), 1, F(7, 4)),  # closed top interval
            (F(-1), 1, F(-7, 4)),
            (F(1, 10), 2, F(1, 8)),
        ],
    )
    def test_examples(self, payment, alpha, expected):
        assert interval_representative(payment, alpha) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(GameError):
            interval_representative(F(3, 2), 1)
        with pytest.raises(GameError):
            interval_representative(F(0), 0)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    def test_interval_index_matches_reference(self, alpha):
        values = {F(n, d) for d in range(1, 49) for n in range(-d, d + 1)}
        for p in values:
            assert interval_index(p, alpha) == reference_interval_index(p, alpha)
        for p in (F(-49, 48), F(49, 48), F(2)):
            with pytest.raises(GameError, match=f"^value {p} outside"):
                interval_index(p, alpha)

    def test_bucket_count_bounded(self):
        rng = random.Random(1)
        for alpha in (1, 2, 3):
            buckets = set()
            for _ in range(4000):
                r = F(rng.randint(-64, 64), 64)
                buckets.add(interval_index(r, alpha))
            assert len(buckets) <= 8 * alpha

    def test_interval_order_matches_payment_order(self):
        # Distinct buckets are fully ordered: everything in a lower bucket is
        # below everything in a higher bucket.
        rng = random.Random(2)
        alpha = 2
        values = [F(rng.randint(-48, 48), 48) for _ in range(500)]
        for a in values[:100]:
            for b in values[100:200]:
                ia, ib = interval_index(a, alpha), interval_index(b, alpha)
                if ia < ib:
                    assert a < b


class TestPruneNature:
    def test_single_group_collapses_to_point_mass(self):
        game = lottery([F(1, 10), F(3, 20), F(1, 5)])  # all inside [0, 1/4)
        s = StrategyProfile(())
        pruned, imap = prune_nature(game, s, 1, 1)
        assert pruned.nodes[()].dist == (F(1), F(0), F(0))
        assert len(imap.groupings[0].groups) == 1

    def test_worked_example(self):
        game = lottery([F(1, 10), F(3, 20), F(3, 10)])
        s = StrategyProfile(())
        pruned, imap = prune_nature(game, s, 1, 1)
        assert pruned.nodes[()].dist == (F(2, 3), F(0), F(1, 3))
        groups = imap.groupings[0].groups
        assert [g.members for g in groups] == [(0, 1), (2,)]
        assert groups[0].representative_payment == F(1, 4)
        assert groups[1].representative_payment == F(3, 4)

    def test_support_bound_on_wide_node(self):
        rng = random.Random(77)
        payments = [F(rng.randint(-32, 32), 32) for _ in range(100)]
        game = lottery(payments, weights=[1] * 100)
        pruned, _ = prune_nature(game, StrategyProfile(()), 2, 1)
        assert sum(1 for p in pruned.nodes[()].dist if p > 0) <= 16

    def test_probability_conserved_and_structure_kept(self):
        rng = random.Random(4)
        for _ in range(30):
            game = random_root_lottery_game(rng)
            sses = enumerate_sse(game)
            s = sses[0]
            pruned, _ = prune_nature(game, s, 2, 1)
            assert validate_game(pruned).ok
            assert set(pruned.nodes) == set(game.nodes)
            assert pruned.info_sets == game.info_sets
            for h, node in pruned.nodes.items():
                if isinstance(node, DecisionNode) and node.player == NATURE:
                    assert sum(node.dist, F(0)) == 1

    def test_reachable_sets_shrink(self):
        rng = random.Random(5)
        for _ in range(20):
            game = random_root_lottery_game(rng)
            s = enumerate_sse(game)[0]
            pruned, _ = prune_nature(game, s, 1, 1)
            before = {i.key for i in reachable_sets(game, s)}
            after = {i.key for i in reachable_sets(pruned, s)}
            assert after <= before

    def test_groups_are_order_separated(self):
        # Distinct representatives imply full separation: every payment in the
        # lower group is below every payment in the higher group.
        rng = random.Random(99)
        for _ in range(25):
            game = random_root_lottery_game(rng)
            s = enumerate_sse(game)[0]
            for alpha in (1, 2):
                _, imap = prune_nature(game, s, alpha, 1)
                for grouping in imap.groupings:
                    ordered = sorted(
                        grouping.groups, key=lambda g: g.representative_payment
                    )
                    for low, high in zip(ordered, ordered[1:]):
                        low_max = max(grouping.payments[i] for i in low.members)
                        high_min = min(grouping.payments[i] for i in high.members)
                        assert low_max < high_min

    def test_grouping_uses_designated_prover(self):
        # Two provers with different payment layouts group differently.
        labels = ("o0", "o1")
        nodes = {
            (): DecisionNode(NATURE, labels, (F(1, 2), F(1, 2))),
            ("o0",): TerminalNode((F(1, 10), F(1, 10)), 0),
            ("o1",): TerminalNode((F(1, 5), F(2, 5)), 0),
        }
        game = make_game(2, nodes)
        s = StrategyProfile(())
        by1, _ = prune_nature(game, s, 1, 1)  # both payments in [0,1/4): merge
        by2, _ = prune_nature(game, s, 1, 2)  # 1/10 and 2/5 split
        assert by1.nodes[()].dist == (F(1), F(0))
        assert by2.nodes[()].dist == (F(1, 2), F(1, 2))


class TestVerifyPruning:
    @pytest.mark.parametrize("prover", [0, -1, 3])
    def test_refuses_a_prover_out_of_range(self, nexp_unsat_third, prover):
        game, s = nexp_unsat_third.game, nexp_unsat_third.honest
        message = f"^prover {prover} out of range 1..2$"
        with pytest.raises(GameError, match=message):
            prune_nature(game, s, 1, prover)
        with pytest.raises(GameError, match=message):
            verify_pruning(game, game, s, 1, designated_prover=prover)

    def test_refuses_alpha_below_one(self, nexp_unsat_third):
        game, s = nexp_unsat_third.game, nexp_unsat_third.honest
        message = "^alpha must be a positive integer, got 0$"
        with pytest.raises(GameError, match=message):
            prune_nature(game, s, 0, 1)
        with pytest.raises(GameError, match=message):
            verify_pruning(game, game, s, 0, designated_prover=1)

    def test_identity_when_support_small(self):
        game = lottery([F(0), F(0)])
        s = StrategyProfile(())
        pruned, _ = prune_nature(game, s, 1, 1)
        rep = verify_pruning(game, pruned, s, 1, designated_prover=1)
        assert rep.ok
        assert rep.drift[0].drift == 0

    def test_worked_example_drift(self):
        game = lottery([F(1, 10), F(3, 20), F(3, 10)])
        s = StrategyProfile(())
        pruned, _ = prune_nature(game, s, 1, 1)
        rep = verify_pruning(game, pruned, s, 1, designated_prover=1)
        assert rep.drift[0].drift == F(1, 60)
        assert rep.claim2_ok and rep.drift[0].drift < F(1, 4)

    def test_dominance_preserved_on_lottery_family(self):
        rng = random.Random(6)
        for _ in range(40):
            game = random_root_lottery_game(rng, profile_cap=512)
            sses = enumerate_sse(game)
            doms = dominant_sse_set(game, sses)
            assert doms, "single-prover games always have a dominant SSE"
            s = doms[0]
            for alpha in (1, 2):
                pruned, _ = prune_nature(game, s, alpha, 1)
                rep = verify_pruning(game, pruned, s, alpha, designated_prover=1)
                assert rep.dominance_checked and rep.dominance_ok
                assert rep.claim2_ok
                assert all(e.ok for e in rep.support)

    def test_perfect_information_branch_checks_the_profile(self, k3):
        # K3 has about 9.7e17 profiles, so dominance goes through the
        # perfect-information search; a non-SSE profile must not pass it.
        game = k3.game
        root = game.set_by_history[()].key
        bad = k3.honest.replace(root, "no")
        pruned, _ = prune_nature(game, bad, 1, 1)
        rep = verify_pruning(game, pruned, bad, 1, designated_prover=1)
        assert not rep.dominance_checked and rep.dominance_ok is None
        assert "profile is not in the dominant class of the original game" in rep.notes
        pruned, _ = prune_nature(game, k3.honest, 1, 1)
        rep = verify_pruning(game, pruned, k3.honest, 1, designated_prover=1)
        assert rep.dominance_checked and rep.dominance_ok is True and rep.ok

    def test_drift_is_exact_rational(self, nexp_unsat_third):
        game, s = nexp_unsat_third.game, nexp_unsat_third.honest
        pruned, _ = prune_nature(game, s, 2, 1)
        rep = verify_pruning(game, pruned, s, 2, designated_prover=1)
        u0, u1 = utility_vector(game, s), utility_vector(pruned, s)
        assert rep.drift[0].drift == abs(u0[0] - u1[0])


def reference_in_class(game, s, dominant) -> bool:
    """`pruning._in_class` as it was on `utility_vector` Fraction passes."""
    return (
        dominant is not None
        and is_sse(game, s).verdict
        and utility_vector(game, s) == utility_vector(game, dominant)
        and answer_bit_distribution(game, s) == answer_bit_distribution(game, dominant)
    )


class TestInClassMatchesFractionPasses:
    def assert_same(self, game, profiles) -> int:
        hits = 0
        for dominant in (None, *profiles):
            for s in profiles:
                got = _in_class(game, s, dominant)
                assert got == reference_in_class(game, s, dominant)
                hits += got
        return hits

    def test_root_lotteries_and_their_prunings(self):
        rng = random.Random(1616)
        hits = 0
        for _ in range(30):
            game = random_root_lottery_game(rng, profile_cap=256)
            pruned, _ = prune_nature(game, random_profile(rng, game), rng.randint(1, 2), 1)
            for g in (game, pruned):
                profiles = enumerate_sse(g)[:4] + [random_profile(rng, g) for _ in range(3)]
                hits += self.assert_same(g, profiles)
        assert hits > 30

    def test_k3(self, k3):
        rng = random.Random(1717)
        profiles = [k3.honest] + [random_profile(rng, k3.game) for _ in range(3)]
        assert self.assert_same(k3.game, profiles) > 0
