"""Strong-sequential-equilibrium checking and enumeration.

`is_sse` applies the one-shot deviation principle: at sets reached under the
profile a single action change must not help under the Bayes posterior, and at
unreached sets it must not help conditioned on each member history separately.
`is_sse_bruteforce` re-derives the same verdict from the definition, testing
every full alternative strategy of the acting prover, and serves as the
independent oracle in tests.

`is_sse` runs on the integer core of `trees` (`_IntCore`): payments scaled by
Nature weights and a common denominator, so every comparison it makes is
between integers and Nature weights cancel (the realization weights of the
sequence form). Only a reported violation turns back into exact Fractions:
its delta is the integer gain over the scale of the member, or of the reached
members, and its belief the members' weights over their sum, so certificates
equal those of a Fraction evaluation. The check runs the core's `stages`
in order, deepest-ready set first. A set's verdict depends only on the
choices at the set, at the sets below its members and, when it has two or
more members, at the sets on the paths to them, so each stage keeps a memo
from those choices to its violations (context-based caching, as in AND/OR
search). Only a miss runs the pending bottom-up steps and checks the set, on
values computed so far; a one-member set's entry holds the reached and the
unreached certificate, and a check of the member's path picks one. The
violations are then put back in `sorted_sets` order. All calls on one tree
share its core, recall report and memo (`trees._core_of`). `enumerate_sse`
needs only verdicts: its private `_first` stops at the first violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Mapping

from .errors import ImperfectRecallError
from .trees import (
    DEFAULT_PROFILE_CAP,
    NATURE,
    GameTree,
    History,
    StrategyProfile,
    TerminalNode,
    ValidationReport,
    _core_of,
    _IntCore,
    all_profiles,
    check_perfect_recall,
    reach_map,
    require_total_profile,
)


@dataclass(frozen=True)
class SseViolation:
    set_key: str
    reachable: bool
    history: History | None  # witness member at an unreachable set
    belief: tuple[tuple[History, Fraction], ...] | None  # posterior at a reachable set
    current: str
    better: str
    delta: Fraction


@dataclass(frozen=True)
class SseCertificate:
    verdict: bool
    violations: tuple[SseViolation, ...]
    stats: Mapping[str, int] = field(default_factory=dict, compare=False)


def _require_recall(report: ValidationReport) -> None:
    if not report.ok:
        raise ImperfectRecallError(f"game lacks perfect recall: {report.violations[0].message}")


def is_sse(game: GameTree, s: StrategyProfile, *, _first: bool = False) -> SseCertificate:
    """One-shot deviation check, stage by stage on the tree's integer core:
    each set's verdict is looked up under the choices it depends on, in a memo
    all checks of the tree share, and only a miss runs the pending bottom-up
    steps and checks the set. With `_first` it stops at the first violation."""
    core = _core_of(game)
    _require_recall(core.recall)
    choice = core.choices(s)
    stats = {"ops": core.ops}
    violations = []
    value, done = None, 0
    for end, k, key, memo, paths in core.stages:
        found = None if key is None else memo.get(kv := key(choice))
        if found is None:
            if value is None:
                value = core.leaf[:]
            core.advance(value, choice, core.bottom_up[done:end])
            done = end
            found = _check_stage(core, k, choice, value, paths)
            if key is not None:
                memo[kv] = found
        if found:
            if len(paths) == 1:  # (reached, unreached)
                found = found[0] if core.live(paths, choice) else found[1]
            if _first:
                return SseCertificate(False, found[:1], stats)
            violations.extend(found)
    violations.sort(key=lambda v: v.set_key)  # stable: `sorted_sets` order
    return SseCertificate(not violations, tuple(violations), stats)


def _check_stage(
    core: _IntCore, k: int, choice: list[int], value: list[int], paths: tuple
) -> tuple:
    """Set k's memo entry under `choice`: its violations, given the values
    of its members' children. A one-member set's verdict does not depend on
    whether it is reached, but its certificate does, so its entry is the
    pair (reached, unreached), or () when there is no violation."""
    c = choice[k]
    if len(paths) > 1:
        return _violations(core, k, c, value, core.live(paths, choice))
    unreached = _violations(core, k, c, value, ())
    return unreached and (_violations(core, k, c, value, (0,)), unreached)


def _violations(core: _IntCore, k: int, c: int, value: list[int], live: tuple) -> tuple:
    """Set k's violations under the Bayes posterior over its members at
    positions `live`, or at each member alone when `live` is empty."""
    iset, field = core.sets[k], core.field
    owner, rows, chosen = iset.owner, core.rows[k], iset.actions[c]
    out = []
    if live:
        base = sum(field(value[rows[n][c]], owner) for n in live)
        for a, label in enumerate(iset.actions):
            if a == c:
                continue
            gain = sum(field(value[rows[n][a]], owner) for n in live) - base
            if gain > 0:
                belief, total = core.posterior(k, live)
                out.append(
                    SseViolation(iset.key, True, None, belief, chosen, label, Fraction(gain, total))
                )
        return tuple(out)
    for h, m, row in zip(iset.members, core.members[k], rows):
        base = field(value[row[c]], owner)
        for a, label in enumerate(iset.actions):
            if a == c:
                continue
            gain = field(value[row[a]], owner) - base
            if gain > 0:
                delta = Fraction(gain, core.weight[m])
                out.append(SseViolation(iset.key, False, h, None, chosen, label, delta))
    return tuple(out)


def _value_under(
    game: GameTree,
    h: History,
    prover: int,
    base: StrategyProfile,
    overrides: Mapping[str, str],
) -> Fraction:
    """Expected payment of `prover` from `h`; overrides replace `base` per set key."""
    node = game.nodes[h]
    if isinstance(node, TerminalNode):
        return node.payments[prover - 1]
    if node.player == NATURE:
        return sum(
            (
                p * _value_under(game, h + (a,), prover, base, overrides)
                for a, p in zip(node.actions, node.dist)
                if p
            ),
            Fraction(0),
        )
    key = game.set_by_history[h].key
    action = overrides.get(key, base.action(key))
    return _value_under(game, h + (action,), prover, base, overrides)


def is_sse_bruteforce(game: GameTree, s: StrategyProfile) -> SseCertificate:
    """Definition-level check: every full alternative strategy of each owner.

    Intended for small games; the enumeration at each set runs over all action
    assignments to the owner's sets at or below that set.
    """
    _require_recall(check_perfect_recall(game))
    require_total_profile(game, s)
    reach = reach_map(game, s)
    violations = []
    for iset in game.sorted_sets:
        owner = iset.owner
        # Owner's sets whose members extend a member of `iset` (including itself):
        # only these can move the utility conditioned below `iset`.
        relevant = [
            other
            for other in game.sorted_sets
            if other.owner == owner
            and any(
                m[: len(h)] == h for m in other.members for h in iset.members
            )
        ]
        keys = [other.key for other in relevant]
        assignments = [
            dict(zip(keys, combo))
            for combo in product(*(other.actions for other in relevant))
        ]
        current = {k: s.action(k) for k in keys}
        total = sum((reach[h] for h in iset.members), Fraction(0))
        if total > 0:
            belief = {h: reach[h] / total for h in iset.members}

            def value(overrides: Mapping[str, str]) -> Fraction:
                return sum(
                    (
                        p * _value_under(game, h, owner, s, overrides)
                        for h, p in belief.items()
                    ),
                    Fraction(0),
                )

            base = value(current)
            for overrides in assignments:
                delta = value(overrides) - base
                if delta > 0:
                    violations.append(
                        SseViolation(
                            iset.key,
                            True,
                            None,
                            tuple(sorted(belief.items())),
                            s.action(iset.key),
                            overrides[iset.key],
                            delta,
                        )
                    )
                    break
        else:
            for h in iset.members:
                base = _value_under(game, h, owner, s, current)
                hit = False
                for overrides in assignments:
                    delta = _value_under(game, h, owner, s, overrides) - base
                    if delta > 0:
                        violations.append(
                            SseViolation(
                                iset.key,
                                False,
                                h,
                                None,
                                s.action(iset.key),
                                overrides[iset.key],
                                delta,
                            )
                        )
                        hit = True
                        break
                if hit:
                    break
    return SseCertificate(not violations, tuple(violations))


def enumerate_sse(game: GameTree, cap: int = DEFAULT_PROFILE_CAP) -> list[StrategyProfile]:
    """All pure SSEs, in canonical action-order enumeration."""
    return [s for s in all_profiles(game, cap) if is_sse(game, s, _first=True).verdict]


def max_total_utility_sse(
    game: GameTree, sse_set: list[StrategyProfile]
) -> tuple[StrategyProfile, bool]:
    """The SSE maximizing total utility, flagged when it weakly dominates per player.

    Ties break by position in `sse_set` (canonical enumeration order). Root
    fields carry one raise for every prover and profile, so it cancels.
    """
    if not sse_set:
        raise ValueError("sse_set must be nonempty")
    core, provers = _core_of(game), range(1, game.provers + 1)
    vectors = [[core.field(core.values(core.choices(s))[0], j) for j in provers] for s in sse_set]
    best = max(range(len(vectors)), key=lambda i: sum(vectors[i]))  # the first of ties
    dominant = all(all(a >= b for a, b in zip(vectors[best], vec)) for vec in vectors)
    return sse_set[best], dominant
