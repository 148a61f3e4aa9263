"""Beliefs at information sets: Bayes' rule where possible, limit beliefs elsewhere.

Reach, Bayes posteriors and one-shot gains run on the integer core `_IntCore`,
as `is_sse` does; `reach_map` and `continuation_values` are the tests' oracles.

Limit beliefs come from perturbing the pure profile: every unchosen action gets
probability eps split evenly, chosen actions keep 1-eps. The probability of a
member history is then c_h * eps^e_h * (1-eps)^f_h and the eps->0 limit keeps
only the members with the minimum eps-exponent. Zero-probability Nature
branches (they arise only in pruned games, and the core leaves them out) are
treated like unchosen player actions so the construction stays total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import BeliefError
from .trees import (
    NATURE,
    GameTree,
    History,
    InformationSet,
    StrategyProfile,
    TerminalNode,
    _core_of,
    check_belief,
    require_total_profile,
)


@dataclass(frozen=True)
class BeliefSystem:
    """Per information set: a distribution over members, in member order."""

    distributions: tuple[tuple[str, tuple[Fraction, ...]], ...]  # sorted by set key

    @classmethod
    def from_dict(cls, mapping: Mapping[str, tuple[Fraction, ...]]) -> "BeliefSystem":
        return cls(tuple(sorted((k, tuple(v)) for k, v in mapping.items())))

    def as_dict(self) -> dict[str, tuple[Fraction, ...]]:
        return dict(self.distributions)

    def at(self, iset: InformationSet) -> dict[History, Fraction]:
        probs = dict(self.distributions).get(iset.key)
        if probs is None or len(probs) != len(iset.members):
            raise BeliefError(f"no belief of one entry per member recorded for set {iset.key!r}")
        return dict(zip(iset.members, probs))


@dataclass(frozen=True)
class MemberTrace:
    history: History
    c: Fraction
    e: int
    f: int


@dataclass(frozen=True)
class SetTrace:
    set_key: str
    members: tuple[MemberTrace, ...]
    d: int
    b_d: Fraction


@dataclass(frozen=True)
class LimitBeliefTrace:
    sets: tuple[SetTrace, ...]


def reachable_sets(game: GameTree, s: StrategyProfile) -> dict[InformationSet, Fraction]:
    """Information sets reached with positive probability under `s`, with the probability."""
    core = _core_of(game)
    reached = core.reach(core.choices(s))
    sums = (sum(core.weight[m] for m in members if reached[m]) for members in core.members)
    return {iset: Fraction(p, core.scale) for iset, p in zip(core.sets, sums) if p}


def bayes_beliefs(
    game: GameTree, s: StrategyProfile, iset: InformationSet
) -> dict[History, Fraction]:
    """Bayes posterior over members; error at unreachable sets."""
    core = _core_of(game)
    if iset not in core.sets:
        raise BeliefError(f"set {iset.key!r} is not an information set of the game")
    k = core.sets.index(iset)
    reached = core.reach(core.choices(s))
    live = tuple(n for n, m in enumerate(core.members[k]) if reached[m])
    if not live:
        raise BeliefError(f"Bayes undefined: set {iset.key!r} unreachable under the profile")
    return dict(core.posterior(k, live)[0])


def limit_beliefs(
    game: GameTree, s: StrategyProfile
) -> tuple[BeliefSystem, LimitBeliefTrace]:
    """Belief system making `s` sequentially rational wherever `s` is an SSE.

    Reachable sets come out exactly equal to Bayes' rule; unreachable sets get
    the limit of the perturbed posteriors. One top-down pass gives every
    history its (c, e, f).
    """
    require_total_profile(game, s)
    cef: dict[History, tuple[Fraction, int, int]] = {(): (Fraction(1), 0, 0)}
    for h in game.topo_order:
        node = game.nodes[h]
        if isinstance(node, TerminalNode):
            continue
        c, e, f = cef[h]
        if node.player == NATURE:
            zeros = node.dist.count(0)
            for a, p in zip(node.actions, node.dist):
                if p:
                    cef[h + (a,)] = (c * p, e, f + (zeros > 0))
                else:
                    cef[h + (a,)] = (c / zeros, e + 1, f)
        else:
            iset = game.set_by_history[h]
            chosen, others = s.action(iset.key), len(iset.actions) - 1
            for a in node.actions:
                if a == chosen:  # completely mixed only at a one-action set
                    cef[h + (a,)] = (c, e, f + (others > 0))
                else:
                    cef[h + (a,)] = (c / others, e + 1, f)
    dists: dict[str, tuple[Fraction, ...]] = {}
    traces = []
    for iset in game.sorted_sets:
        members = tuple(MemberTrace(h, *cef[h]) for h in iset.members)
        d = min(m.e for m in members)
        b_d = sum((m.c for m in members if m.e == d), Fraction(0))
        dists[iset.key] = tuple(
            m.c / b_d if m.e == d else Fraction(0) for m in members
        )
        traces.append(SetTrace(iset.key, members, d, b_d))
    return BeliefSystem.from_dict(dists), LimitBeliefTrace(tuple(traces))


@dataclass(frozen=True)
class RationalityViolation:
    set_key: str
    current: str
    better: str
    delta: Fraction


@dataclass(frozen=True)
class RationalityReport:
    verdict: bool
    violations: tuple[RationalityViolation, ...]


def verify_sequential_rationality(
    game: GameTree, s: StrategyProfile, mu: BeliefSystem
) -> RationalityReport:
    """One-shot optimality of `s` at every set under the supplied beliefs."""
    core = _core_of(game)
    choice = core.choices(s)
    value, field, w = core.values(choice), core.field, core.weight
    out = []
    for iset, c, members, rows in zip(core.sets, choice, core.members, core.rows):
        belief = mu.at(iset)  # raises if mu does not cover the set
        check_belief(iset, belief)
        # At a member h, two children's fields differ by w[h] times their values'.
        entries = zip(belief.values(), members, rows)
        q = [(p.numerator, p.denominator * w[m], row) for p, m, row in entries if p]
        den = math.lcm(*(d for _, d, _ in q))  # n / den = mu(h) / w[h]
        terms = [(n * (den // d), row) for n, d, row in q]
        owner, chosen = iset.owner, iset.actions[c]
        base = sum(n * field(value[row[c]], owner) for n, row in terms)
        for a, better in enumerate(iset.actions):
            if a == c:
                continue
            gain = sum(n * field(value[row[a]], owner) for n, row in terms) - base
            if gain > 0:
                out.append(RationalityViolation(iset.key, chosen, better, Fraction(gain, den)))
    return RationalityReport(not out, tuple(out))
