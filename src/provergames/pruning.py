"""Collapsing Nature moves to small support while preserving equilibrium structure.

Payments in [-1,1] are bucketed into 8*alpha half-intervals of width 1/(4*alpha);
each Nature outcome is keyed by the bucket of the designated prover's expected
continuation payment, and all probability mass in a bucket moves to its
lowest-indexed outcome. Zero-probability outcomes stay in the tree so the
information partition is untouched; only the distributions change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .equilibrium import enumerate_sse, is_sse
from .errors import CapExceededError, GameError
from .gaps import answer_bit_distribution, subinterval_index
from .subforms import dominant_sse_set, find_dominant_sse, is_perfect_information
from .trees import (
    DEFAULT_PROFILE_CAP,
    NATURE,
    DecisionNode,
    GameTree,
    History,
    StrategyProfile,
    _core_of,
    continuation_values,
    path_of,
    profile_space_size,
    require_total_profile,
    utility_vector,
)


def interval_index(payment: Fraction, alpha: int) -> tuple[int, int]:
    """(interval, half) bucket of a payment: its width-1/(4*alpha) subinterval
    (`gaps.subinterval_index`) split in pairs; the top interval is closed at 1."""
    if alpha < 1:
        raise GameError(f"alpha must be a positive integer, got {alpha}")
    return divmod(subinterval_index(payment, alpha), 2)


def interval_representative(payment: Fraction, alpha: int) -> Fraction:
    """Representative payment of the half-interval containing `payment`.

    Lower half [l/(2a), (2l+1)/(4a)) maps to (4l+1)/(4a), upper half to
    (4l+3)/(4a); representatives are bucket labels and may fall outside the
    bucket itself.
    """
    ell, half = interval_index(payment, alpha)
    return Fraction(4 * ell + 1 + 2 * half, 4 * alpha)


@dataclass(frozen=True)
class OutcomeGroup:
    representative_index: int  # lowest outcome index in the group
    members: tuple[int, ...]
    representative_payment: Fraction  # the shared half-interval label
    mass: Fraction


@dataclass(frozen=True)
class NatureGrouping:
    node: History
    payments: tuple[Fraction, ...]  # designated prover's expected payment per outcome
    groups: tuple[OutcomeGroup, ...]


@dataclass(frozen=True)
class IntervalMap:
    alpha: int
    prover: int
    groupings: tuple[NatureGrouping, ...]


def _check_args(game: GameTree, alpha: int, prover: int | None) -> None:
    if prover is not None and not (1 <= prover <= game.provers):
        raise GameError(f"prover {prover} out of range 1..{game.provers}")
    if alpha < 1:
        raise GameError(f"alpha must be a positive integer, got {alpha}")


def prune_nature(
    game: GameTree, s: StrategyProfile, alpha: int, prover: int
) -> tuple[GameTree, IntervalMap]:
    """Regroup every Nature node by the designated prover's payment buckets."""
    _check_args(game, alpha, prover)
    require_total_profile(game, s)
    values = continuation_values(game, s)
    new_nodes: dict[History, object] = {}
    groupings = []
    for h in sorted(game.nodes):
        node = game.nodes[h]
        if not (isinstance(node, DecisionNode) and node.player == NATURE):
            new_nodes[h] = node
            continue
        payments = tuple(values[h + (a,)][prover - 1] for a in node.actions)
        buckets: dict[tuple[int, int], list[int]] = {}
        for i, r in enumerate(payments):
            buckets.setdefault(interval_index(r, alpha), []).append(i)
        groups = []
        new_dist = [Fraction(0)] * len(node.actions)
        for bucket in sorted(buckets):
            members = tuple(buckets[bucket])
            rep = members[0]
            mass = sum((node.dist[i] for i in members), Fraction(0))
            new_dist[rep] = mass
            groups.append(
                OutcomeGroup(
                    rep, members, interval_representative(payments[rep], alpha), mass
                )
            )
        new_nodes[h] = replace(node, dist=tuple(new_dist))
        groupings.append(NatureGrouping(h, payments, tuple(groups)))
    pruned = GameTree(game.provers, new_nodes, game.info_sets, dict(game.meta))
    return pruned, IntervalMap(alpha, prover, tuple(groupings))


@dataclass(frozen=True)
class SupportEntry:
    node: str
    support: int
    bound: int
    ok: bool


@dataclass(frozen=True)
class DriftEntry:
    prover: int
    original: Fraction
    pruned: Fraction
    drift: Fraction
    bound: Fraction
    ok: bool


@dataclass(frozen=True)
class PruningReport:
    support: tuple[SupportEntry, ...]
    drift: tuple[DriftEntry, ...]
    designated_prover: int | None
    claim2_ok: bool  # drift bound for the designated prover (all provers if None)
    dominance_checked: bool
    dominance_ok: bool | None
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            all(e.ok for e in self.support)
            and self.claim2_ok
            and (self.dominance_ok is not False)
        )


def _in_class(game: GameTree, s: StrategyProfile, dominant: StrategyProfile | None) -> bool:
    """`s` is an SSE with the utility vector and answer distribution of `dominant`."""
    core = _core_of(game)  # packed root values are equal iff every utility is
    return (
        dominant is not None
        and is_sse(game, s).verdict
        and core.values(core.choices(s))[0] == core.values(core.choices(dominant))[0]
        and answer_bit_distribution(game, s) == answer_bit_distribution(game, dominant)
    )


def verify_pruning(
    original: GameTree,
    pruned: GameTree,
    s: StrategyProfile,
    alpha: int,
    designated_prover: int | None = None,
    check_dominance: bool = True,
    profile_cap: int | None = None,
) -> PruningReport:
    """Check the support bound, the payment drift bound, and dominance carry-over.

    Drift below 1/(4*alpha) is guaranteed for the prover whose payments keyed
    the grouping; other provers are reported but only enforced when no
    designated prover is named.
    """
    _check_args(original, alpha, designated_prover)
    notes: list[str] = []
    support = []
    bound = 8 * alpha
    for h in sorted(pruned.nodes):
        node = pruned.nodes[h]
        if isinstance(node, DecisionNode) and node.player == NATURE:
            nonzero = sum(1 for p in node.dist if p > 0)
            support.append(SupportEntry(path_of(h), nonzero, bound, nonzero <= bound))

    u_orig = utility_vector(original, s)
    u_pruned = utility_vector(pruned, s)
    drift_bound = Fraction(1, 4 * alpha)
    drift = []
    for j in range(1, original.provers + 1):
        d = abs(u_orig[j - 1] - u_pruned[j - 1])
        drift.append(DriftEntry(j, u_orig[j - 1], u_pruned[j - 1], d, drift_bound, d < drift_bound))
    if designated_prover is None:
        claim2_ok = all(e.ok for e in drift)
    else:
        claim2_ok = drift[designated_prover - 1].ok

    dominance_checked = False
    dominance_ok: bool | None = None
    if check_dominance:
        cap = profile_cap if profile_cap is not None else DEFAULT_PROFILE_CAP
        try:
            if profile_space_size(original) <= cap:
                originally_dominant = s in dominant_sse_set(
                    original, enumerate_sse(original, cap=cap)
                )
                if not originally_dominant:
                    notes.append("profile is not a dominant SSE of the original game")
                else:
                    dominance_checked = True
                    dominance_ok = s in dominant_sse_set(
                        pruned, enumerate_sse(pruned, cap=cap)
                    )
            elif is_perfect_information(original):
                if not _in_class(original, s, find_dominant_sse(original, profile_cap=cap)):
                    notes.append("profile is not in the dominant class of the original game")
                else:
                    dominance_checked = True
                    dominance_ok = _in_class(
                        pruned, s, find_dominant_sse(pruned, profile_cap=cap)
                    )
                    notes.append(
                        "dominance compared by class via the perfect-information search: "
                        "an SSE with the dominant SSE's utility vector and answer distribution"
                    )
            else:
                notes.append("dominance check skipped: profile space over cap")
        except CapExceededError as exc:
            notes.append(f"dominance check skipped: {exc}")
    return PruningReport(
        tuple(support),
        tuple(drift),
        designated_prover,
        claim2_ok,
        dominance_checked,
        dominance_ok,
        tuple(notes),
    )
