"""Utility-gap measurement: splices, witnesses, whole-protocol verification.

A wrong-answer profile is robustly punished when some subform it still reaches
contains a prover who deviated there and would gain more than the gap
threshold 1/alpha by switching back to the dominant play inside that subform,
holding everything outside fixed.

The scans evaluate that splice in closed form. Every information set lies
wholly inside or wholly outside a closed subform F, so splicing `s_star` into F
changes neither play outside F nor the reach of its frontier (root-set members
with no other member as a prefix), and by linearity the splice loss is

    sum over frontier members m of reach_s(m) * (V_s_star(m) - V_s(m))

with V the continuation values. The scans read it off the integer core of
`trees` (`_IntCore`): at a reached m the difference of the two profiles'
fields is D*reach_s(m) times the difference of the values, so each loss is
an int over D, and a threshold test cross-multiplies it with 1/alpha.

`verify_utility_gap` scans reach classes (`_IntCore.reach_classes`), not
profiles: profiles that choose alike at every set play reaches share their
reach, answer bit and reached values, so each class reaching a wrong-bit
terminal costs one bottom-up value pass, which prices its cheapest member and
also finds the first such member in `all_profiles` order. `s_star` costs one
pass per call. The profile cap still bounds the whole profile space, checked
at the call. A `Fraction` is built only for a reported loss. `splice` stays
the literal oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import GameError
from .trees import (
    DEFAULT_PROFILE_CAP,
    GameTree,
    StrategyProfile,
    _core_of,
    check_profile_cap,
    require_total_profile,
    utility_vector,
)
from .subforms import Subform, _compiled, dominant_sse_set, sets_in


def answer_bit_distribution(
    game: GameTree, s: StrategyProfile
) -> dict[int, Fraction]:
    """Probability of each terminal answer bit under `s` and Nature."""
    core = _core_of(game)
    reached = core.reach(core.choices(s))
    out = {0: 0, 1: 0}
    for h in game.terminals:
        if reached[t := core.index[h]]:
            out[game.nodes[h].answer_bit] += core.weight[t]
    return {bit: Fraction(n, core.scale) for bit, n in out.items()}


def splice(
    game: GameTree,
    s_prime: StrategyProfile,
    sf: Subform,
    s_star: StrategyProfile,
) -> StrategyProfile:
    """`s_star` at every information set inside the subform, `s_prime` elsewhere."""
    require_total_profile(game, s_prime)
    require_total_profile(game, s_star)
    inside = {iset.key for iset in sets_in(game, sf)}
    return StrategyProfile(
        tuple(
            sorted(
                (key, s_star.action(key) if key in inside else action)
                for key, action in s_prime.choices
            )
        )
    )


def gap_threshold(alpha: Fraction | int) -> Fraction:
    """The loss 1/alpha that a gap witness is measured against; alpha must be > 0."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise GameError(f"alpha must be positive, got {alpha}")
    return 1 / alpha


class _SpliceScan:
    """Closed-form splice losses against a fixed `s_star`, on one integer core."""

    def __init__(self, game: GameTree, s_star: StrategyProfile):
        self.core = core = _core_of(game)
        self.star_choice = core.choices(s_star)
        self.star, self.star_reached = core.evaluate(self.star_choice)
        self.plan = _compiled(core)

    def evaluate(self, s: StrategyProfile) -> tuple[list[int], list[int], bytearray]:
        """`s` as set choices, and the core's values and reached flags under it."""
        choice = self.core.choices(s)
        return (choice, *self.core.evaluate(choice))

    def bar(self, threshold: Fraction) -> tuple[int, int]:
        """(n, d) such that a loss L of `losses` compares with `threshold` as
        L * d compares with n: L/D against n/(d*D), D = `core.scale` > 0."""
        return threshold.numerator * self.core.scale, threshold.denominator

    def losses(
        self, choice: Sequence[int], value: list[int], reached: bytearray
    ) -> Iterator[tuple]:
        """(subform, actors, deviators, loss) per subform that the profile
        `choice` reaches and deviates in, in canonical order; `loss[j - 1]` is
        D times prover j's utility under the splice minus under the profile,
        an int. The frontier members reached are disjoint histories, so their
        packed values sum without carrying between fields."""
        field, star, star_choice = self.core.field, self.star, self.star_choice
        provers = range(1, self.core.game.provers + 1)
        for sf, _, frontier, inside, actors in self.plan:
            entries = [m for m in frontier if reached[m]]
            if not entries:
                continue
            deviators = sorted({owner for k, owner in inside if choice[k] != star_choice[k]})
            if not deviators:  # the splice is the profile itself
                continue
            gain = sum(star[m] for m in entries)
            base = sum(value[m] for m in entries)
            yield sf, actors, deviators, tuple(field(gain, j) - field(base, j) for j in provers)

    def row_max(
        self, choice: list[int], value: list[int], reached: bytearray
    ) -> tuple[int, str, int]:
        """(loss, subform key, prover) of the largest splice loss in the row of
        `choice`, the first such pair in canonical order."""
        best: tuple | None = None
        for sf, _, deviators, loss in self.losses(choice, value, reached):
            for j in deviators:
                if best is None or loss[j - 1] > best[0]:
                    best = (loss[j - 1], sf.key, j)
        return best

    def first_minimiser(
        self, choice: list[int], fixed: bytearray, value: list[int], reached: bytearray, low: int
    ) -> list[int]:
        """The first profile in `all_profiles` order, in the reach class of
        `choice` (`s_star`'s action at every set with `fixed` 0), whose row
        maximum is the class minimum `low`. A free set taking another action
        than `s_star`'s adds its owner as a deviator to each subform holding
        it, and only the subforms the class enters count, so action 0 is free
        at a set exactly when its owner's loss is at most `low` in each of
        them, independently of the other sets."""
        field, star, star_choice = self.core.field, self.star, self.star_choice
        blocked = set()
        for _, _, frontier, inside, _ in self.plan:
            free = [(k, owner) for k, owner in inside if star_choice[k] and not fixed[k]]
            entries = [m for m in frontier if reached[m]]
            if not free or not entries:
                continue
            gain = sum(star[m] for m in entries)
            base = sum(value[m] for m in entries)
            blocked.update(k for k, j in free if field(gain, j) - field(base, j) > low)
        return [a if fixed[k] or k in blocked else 0 for k, a in enumerate(choice)]


@dataclass(frozen=True)
class GapWitness:
    subform_key: str
    prover: int
    loss: Fraction


def find_gap_witness(
    game: GameTree,
    s_star: StrategyProfile,
    s_prime: StrategyProfile,
    alpha: Fraction | int,
) -> GapWitness | None:
    """First subform/prover pair whose splice gain exceeds 1/alpha, scanning
    subforms in canonical (height-ascending) order."""
    scan = _SpliceScan(game, s_star)
    n, d = scan.bar(gap_threshold(alpha))
    for sf, _, deviators, loss in scan.losses(*scan.evaluate(s_prime)):
        for j in deviators:
            if loss[j - 1] * d > n:
                return GapWitness(sf.key, j, Fraction(loss[j - 1], scan.core.scale))
    return None


def check_gap_closeness(
    game: GameTree,
    s: StrategyProfile,
    s_star: StrategyProfile,
    alpha: Fraction | int,
) -> bool:
    """True when no prover acting in a subform reached under `s` would gain
    1/alpha or more from the dominant play spliced into that subform."""
    threshold = gap_threshold(alpha)
    return _closes(_SpliceScan(game, s_star), s, threshold)


def _closes(scan: _SpliceScan, s: StrategyProfile, threshold: Fraction) -> bool:
    n, d = scan.bar(threshold)
    for _, actors, _, loss in scan.losses(*scan.evaluate(s)):
        if any(loss[j - 1] * d >= n for j in actors):
            return False
    return True


@dataclass(frozen=True)
class WrongProfileRow:
    profile: tuple[tuple[str, str], ...]
    max_loss: Fraction
    witness_subform: str
    witness_prover: int


@dataclass(frozen=True)
class GapReport:
    verdict: bool
    alpha: Fraction
    threshold: Fraction
    wrong_profiles: int
    measured_gap: Fraction | None  # min over wrong profiles of the max loss
    worst: WrongProfileRow | None


def verify_utility_gap(
    game: GameTree,
    s_star: StrategyProfile,
    alpha: Fraction | int,
    correct_bit: int,
    cap: int | None = None,
) -> GapReport:
    """Scan every pure profile with a wrong answer bit, one reach class at a
    time, for a gap witness.

    The measured gap is the minimum over wrong profiles of the best available
    splice loss; the protocol has the claimed gap iff that minimum exceeds
    1/alpha. An `s_star` that itself reaches the wrong bit raises `GameError`.
    """
    if correct_bit not in (0, 1):
        raise GameError(f"correct_bit must be 0 or 1, got {correct_bit}")
    threshold = gap_threshold(alpha)
    check_profile_cap(game, DEFAULT_PROFILE_CAP if cap is None else cap)
    scan = _SpliceScan(game, s_star)
    core = scan.core
    wrong_bit = [
        core.index[t] for t in game.terminals if game.nodes[t].answer_bit != correct_bit
    ]
    # Every other profile deviates in the whole-game subform, which is always
    # reached, so `s_star` is the only wrong profile that could lack a witness.
    if any(map(scan.star_reached.__getitem__, wrong_bit)):
        raise GameError(f"s_star reaches answer bit {1 - correct_bit}, not {correct_bit}")
    n, d = scan.bar(threshold)
    sizes = [len(iset.actions) for iset in core.sets]
    verdict = True
    wrong = 0
    measured: tuple | None = None  # (loss, subform key, prover, choice)
    for choice, reached, fixed in core.reach_classes(scan.star_choice):
        if not any(map(reached.__getitem__, wrong_bit)):
            continue
        wrong += math.prod(size for size, f in zip(sizes, fixed) if not f)
        # Free sets at `s_star`'s action add no deviator, and a deviator only
        # adds a term to the row's maximum, so this row is the class minimum.
        value = core.values(choice)
        low = scan.row_max(choice, value, reached)[0]
        if low * d <= n:
            verdict = False
        first = scan.first_minimiser(choice, fixed, value, reached, low)
        if measured is None or (low, first) < (measured[0], measured[3]):
            measured = (*scan.row_max(first, value, reached), first)
    if measured is None:
        return GapReport(verdict, Fraction(alpha), threshold, wrong, None, None)
    loss, key, prover, choice = measured
    gap = Fraction(loss, core.scale)
    profile = tuple((iset.key, iset.actions[c]) for iset, c in zip(core.sets, choice))
    worst = WrongProfileRow(profile, gap, key, prover)
    return GapReport(verdict, Fraction(alpha), threshold, wrong, gap, worst)


@dataclass(frozen=True)
class SubintervalViolation:
    profile: tuple[tuple[str, str], ...]
    dominant_interval: tuple[int, ...]
    profile_interval: tuple[int, ...]


@dataclass(frozen=True)
class SubintervalReport:
    alpha: int
    checked: int  # SSEs failing the closeness test
    violations: tuple[SubintervalViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def subinterval_index(value: Fraction, alpha: int) -> int:
    """Index of the width-1/(4*alpha) subinterval of [-1,1] containing `value`."""
    if not (-1 <= value <= 1):
        raise GameError(f"value {value} outside [-1,1]")
    if value == 1:
        return 4 * alpha - 1
    return (4 * alpha * value).__floor__()


def subinterval_profile_check(
    game: GameTree,
    alpha: int,
    sse_set: list[StrategyProfile],
    s_star: StrategyProfile | None = None,
) -> SubintervalReport:
    """Every SSE failing the closeness test must sit in a different subinterval
    profile than the dominant SSE, in at least one prover's coordinate."""
    if s_star is None:
        dominants = dominant_sse_set(game, sse_set)
        if not dominants:
            raise GameError("no dominant SSE; subinterval check undefined")
        s_star = dominants[0]
    star_vec = utility_vector(game, s_star)
    star_intervals = tuple(subinterval_index(u, alpha) for u in star_vec)
    threshold = gap_threshold(alpha)
    scan = _SpliceScan(game, s_star)
    checked = 0
    violations = []
    for s in sse_set:
        if _closes(scan, s, threshold):
            continue
        checked += 1
        vec = utility_vector(game, s)
        intervals = tuple(subinterval_index(u, alpha) for u in vec)
        if intervals == star_intervals:
            violations.append(
                SubintervalViolation(s.choices, star_intervals, intervals)
            )
    return SubintervalReport(alpha, checked, tuple(violations))
