"""Subforms and dominant strong sequential equilibria.

A subform is an information set together with every history following it,
subject to closure: any information set touching those histories must lie
wholly inside them, so the players acting there share no information asymmetry
with the outside. The whole game always counts as a subform. `_subforms` finds
them in one walk down from each set, and `_compiled` puts them on an integer
core (`trees._IntCore`) once for both readers: the dominance induction here
and the splice scans of `gaps`. Dominance between equilibria is decided by
induction on subform height: on height-1 subforms a dominant profile must
weakly dominate every SSE, on taller ones every SSE that is itself dominant on
all strictly lower subforms. The induction evaluates each SSE on the core
once; Nature weights cancel from every comparison, as they do in `is_sse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .equilibrium import enumerate_sse, is_sse
from .errors import CapExceededError, GameError, StructureError
from .trees import (
    DEFAULT_PROFILE_CAP,
    NATURE,
    DecisionNode,
    GameTree,
    History,
    InformationSet,
    StrategyProfile,
    TerminalNode,
    _IntCore,
    _core_of,
    require_total_profile,
)

WHOLE_GAME_KEY = "<game>"
DEFAULT_CLASS_CAP = 4096


@dataclass(frozen=True)
class Subform:
    root_set: InformationSet | None  # None marks the whole game
    histories: frozenset[History]
    height: int

    @property
    def key(self) -> str:
        return WHOLE_GAME_KEY if self.root_set is None else self.root_set.key


def _subforms(game: GameTree) -> list[tuple]:
    """(subform, frontier, inside sets) per subform, sorted by (height, key).

    Each set is walked down from its frontier, the members below no other
    member, zero-probability Nature edges included. It roots a subform when
    every set the walk meets lies wholly inside the walk: its inside sets."""
    nodes, set_of = game.nodes, game.set_by_history.get
    subs = []
    for iset in game.sorted_sets:
        if iset.members == ((),):
            continue  # the whole game, added below
        following, frontier, met, height = set(), [], set(), 0
        for m in sorted(iset.members):  # a member below another sorts after it
            if m in following:
                continue
            frontier.append(m)
            stack = [m]
            while stack:
                following.add(h := stack.pop())
                node = nodes[h]
                if isinstance(node, TerminalNode):
                    height = max(height, len(h) - len(m))
                else:
                    met.add(set_of(h))  # None at Nature nodes
                    stack.extend(h + (a,) for a in node.actions)
        met.discard(None)
        if all(h in following for other in met for h in other.members):
            inside = tuple(sorted(met, key=lambda i: i.key))
            subs.append((Subform(iset, frozenset(following), height), tuple(frontier), inside))
    subs.append((Subform(None, frozenset(nodes), game.height), ((),), game.sorted_sets))
    subs.sort(key=lambda entry: (entry[0].height, entry[0].key))
    return subs


def find_subforms(game: GameTree) -> list[Subform]:
    """All subforms, sorted by height ascending (whole game last at its height)."""
    return [sf for sf, _, _ in _subforms(game)]


def _compiled(core: _IntCore) -> list[tuple]:
    """`_subforms` on the core's indices, as (subform, root members, frontier,
    inside sets as (`core.sets` index, owner), actors: their owners). The
    whole game's one member is the root, its frontier."""
    index, set_no = core.index, {iset: k for k, iset in enumerate(core.sets)}
    out = []
    for sf, frontier, inside in _subforms(core.game):
        members = frontier if sf.root_set is None else sf.root_set.members
        sets = tuple((set_no[i], i.owner) for i in inside)
        actors = tuple(sorted({owner for _, owner in sets}))
        out.append((sf, [index[h] for h in members], [index[h] for h in frontier], sets, actors))
    return out


def actors_in(game: GameTree, sf: Subform) -> tuple[int, ...]:
    """Provers owning an information set wholly inside the subform."""
    return tuple(sorted({iset.owner for iset in sets_in(game, sf)}))


def sets_in(game: GameTree, sf: Subform) -> tuple[InformationSet, ...]:
    return tuple(
        iset for iset in game.sorted_sets if set(iset.members) <= sf.histories
    )


def conditional_game(
    game: GameTree, sf: Subform, belief: dict[History, Fraction]
) -> GameTree:
    """The subform as a standalone game: Nature plays `belief` into the members."""
    members = ((),) if sf.root_set is None else sf.root_set.members
    if set(belief) - set(members):
        raise GameError("belief names histories outside the subform root set")
    if any(p < 0 for p in belief.values()) or sum(belief.values(), Fraction(0)) != 1:
        raise GameError("belief is not a probability distribution")

    labels = tuple(f"m{i}" for i in range(len(members)))
    dist = tuple(belief.get(m, Fraction(0)) for m in members)
    nodes: dict[History, object] = {(): DecisionNode(NATURE, labels, dist)}
    remap: dict[History, History] = {}
    for i, m in enumerate(members):
        for h in game.nodes:
            if h[: len(m)] == m:
                new_h = (labels[i],) + h[len(m):]
                nodes[new_h] = game.nodes[h]
                remap[h] = new_h
    new_sets = []
    for iset in game.info_sets:
        inside = [h for h in iset.members if h in remap]
        if not inside:
            continue
        if len(inside) != len(iset.members):
            raise StructureError(
                f"information set {iset.key!r} straddles the subform boundary"
            )
        new_sets.append(
            InformationSet(
                iset.owner, tuple(sorted(remap[h] for h in inside)), iset.actions
            )
        )
    meta = {"conditional_of": sf.key, "member_labels": {labels[i]: "/".join(members[i]) for i in range(len(members))}}
    return GameTree(game.provers, nodes, tuple(new_sets), meta)


def _dominates(
    core: _IntCore, d1: tuple, d2: tuple, members: Sequence[int], actors: tuple[int, ...]
) -> bool:
    """Dominance on the subform with root-set `members` (core indices), read
    off two `core.evaluate` results."""
    (v1, r1), (v2, r2), field = d1, d2, core.field
    live1 = [m for m in members if r1[m]]
    live2 = [m for m in members if r2[m]]
    if live1 and live2:
        # Bayes values: the field sums over the reached members, each over its
        # total weight T; the raise is the same per unit weight on both sides.
        t1 = sum(core.weight[m] for m in live1)
        t2 = sum(core.weight[m] for m in live2)
        return all(
            sum(field(v1[m], j) for m in live1) * t2 >= sum(field(v2[m], j) for m in live2) * t1
            for j in actors
        )
    return all(field(v1[m], j) >= field(v2[m], j) for m in members for j in actors)


def dominates_on_subform(
    game: GameTree, s: StrategyProfile, s2: StrategyProfile, sf: Subform
) -> bool:
    """Weak dominance of `s` over `s2` on the subform, per prover acting within.

    Each side is evaluated in the conditional game under its own Bayes beliefs
    at the root set; if either profile leaves the root set unreached, the
    comparison is made pointwise at every member history instead.
    """
    core = _core_of(game)
    d1, d2 = (core.evaluate(core.choices(p)) for p in (s, s2))
    members = [core.index[h] for h in (((),) if sf.root_set is None else sf.root_set.members)]
    return _dominates(core, d1, d2, members, actors_in(game, sf))


@dataclass(frozen=True)
class SubformComparison:
    subform_key: str
    height: int
    compared: int
    failed_against: tuple[int, ...]  # indices into the supplied SSE list
    evaluated: bool  # False when the candidate was already out at this layer


@dataclass(frozen=True)
class DominanceCertificate:
    verdict: bool
    trace: tuple[SubformComparison, ...]


def _layered_dominant(
    game: GameTree,
    sse_set: Sequence[StrategyProfile],
    watch: StrategyProfile | None = None,
) -> tuple[list[StrategyProfile], list[SubformComparison]]:
    core = _core_of(game)
    subs = _compiled(core)
    data = [core.evaluate(core.choices(s)) for s in sse_set]
    current = list(range(len(sse_set)))
    trace: list[SubformComparison] = []
    for k in sorted({sf.height for sf, *_ in subs}):
        layer = [entry for entry in subs if entry[0].height == k]
        survivors = []
        for i in current:
            rows = [
                (sf, tuple(j for j in current if not _dominates(core, data[i], data[j], m, a)))
                for sf, m, _, _, a in layer
            ]
            if sse_set[i] == watch:
                trace += [SubformComparison(sf.key, k, len(current), f, True) for sf, f in rows]
            if not any(f for _, f in rows):
                survivors.append(i)
        if watch is not None and all(sse_set[i] != watch for i in current):
            trace += [SubformComparison(sf.key, k, len(current), (), False) for sf, *_ in layer]
        current = survivors
    return [sse_set[i] for i in current], trace


def dominant_sse_set(
    game: GameTree, sse_set: Sequence[StrategyProfile]
) -> list[StrategyProfile]:
    """The SSEs surviving the full height induction, in input order."""
    survivors, _ = _layered_dominant(game, sse_set)
    return survivors


def is_dominant_sse(
    game: GameTree, s: StrategyProfile, sse_set: Sequence[StrategyProfile]
) -> DominanceCertificate:
    if not is_sse(game, s).verdict:
        raise GameError("profile is not an SSE; dominance is undefined")
    if s not in list(sse_set):
        raise GameError("profile is not a member of the supplied SSE set")
    survivors, trace = _layered_dominant(game, sse_set, watch=s)
    return DominanceCertificate(s in survivors, tuple(trace))


# ---------------------------------------------------------------------------
# Perfect-information fast path.
#
# With singleton information sets the Bayes condition at a reached set equals
# the per-history condition, so SSE membership and dominance both decompose by
# subtree. Each node carries equivalence classes of SSE continuations keyed by
# (utility vector, answer distribution); the height induction keeps, at each
# prover node, the classes reaching every actor's maximum below it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Class:
    value: tuple[Fraction, ...]
    answers: tuple[tuple[int, Fraction], ...]
    rep: tuple[tuple[str, str], ...]


def _merge_answers(parts: Iterable[tuple[tuple[tuple[int, Fraction], ...], Fraction]]):
    acc: dict[int, Fraction] = {}
    for answers, weight in parts:
        for bit, p in answers:
            acc[bit] = acc.get(bit, Fraction(0)) + weight * p
    return tuple(sorted((b, p) for b, p in acc.items() if p))


def is_perfect_information(game: GameTree) -> bool:
    return all(len(iset.members) == 1 for iset in game.info_sets)


def _nature_classes(
    game: GameTree, node: DecisionNode, kids: list[list[_Class]], class_cap: int
) -> list[_Class]:
    """The distinct Nature mixtures of one class per child, at most `class_cap`."""
    combos = [_Class(tuple([Fraction(0)] * game.provers), (), ())]
    for lst, p in zip(kids, node.dist):
        nxt: list[_Class] = []
        seen = set()
        for left in combos:
            for cls in lst:
                value = tuple(lv + p * cv for lv, cv in zip(left.value, cls.value))
                answers = _merge_answers([(left.answers, Fraction(1)), (cls.answers, p)])
                if (value, answers) in seen:
                    continue
                seen.add((value, answers))
                rep = tuple(sorted((dict(left.rep) | dict(cls.rep)).items()))
                nxt.append(_Class(value, answers, rep))
                if len(nxt) > class_cap:
                    raise CapExceededError(
                        f"continuation classes exceed cap {class_cap}", len(nxt)
                    )
        combos = nxt
    return combos


def _prover_classes(
    game: GameTree, h: History, node: DecisionNode, kids: list[list[_Class]]
) -> list[_Class]:
    """SSE continuations at a prover node: a class below one action survives
    when every other action's worst continuation for the owner (the threat
    played there) pays the owner no more than the class does.

    That is one cutoff, the largest threat of all: a class below the action
    holding it pays at least its own action's threat, which is that largest
    one, so the test against every other action is the test against it."""
    own = node.player - 1
    threats = []
    for lst in kids:
        worst = min(cls.value[own] for cls in lst)
        threats.append((worst, next(cls for cls in lst if cls.value[own] == worst)))
    cutoff = max(worst for worst, _ in threats)
    set_key = game.set_by_history[h].key
    out: list[_Class] = []
    seen = set()
    for idx, a in enumerate(node.actions):
        others = [t for b, t in enumerate(threats) if b != idx]
        for cls in kids[idx]:
            if cutoff > cls.value[own]:
                continue
            if (cls.value, cls.answers) in seen:
                continue
            seen.add((cls.value, cls.answers))
            rep = {set_key: a} | dict(cls.rep)
            for _, threat in others:
                rep |= dict(threat.rep)
            out.append(_Class(cls.value, cls.answers, tuple(sorted(rep.items()))))
    return out


def _perfect_info_dominant(game: GameTree, class_cap: int) -> StrategyProfile | None:
    """The height induction on continuation classes, in one bottom-up pass.

    Every node below h sits at a lower height, and no node at h's height or
    above lies below h, so the classes built from h's already-filtered
    children are exactly h's comparison class in its layer. Each prover node,
    and a root that is not one, keeps the classes reaching every actor's
    maximum below it.
    """
    classes: dict[History, list[_Class]] = {}
    actors: dict[History, frozenset[int]] = {}
    for h in reversed(game.topo_order):
        node = game.nodes[h]
        if isinstance(node, TerminalNode):
            classes[h] = [_Class(node.payments, ((node.answer_bit, Fraction(1)),), ())]
            actors[h] = frozenset()
            continue
        kid_hs = [h + (a,) for a in node.actions]
        kids = [classes.pop(k) for k in kid_hs]
        owners = frozenset().union(*(actors.pop(k) for k in kid_hs))
        if node.player != NATURE:
            owners |= {node.player}
        if not all(kids):
            out = []
        elif node.player == NATURE:
            out = _nature_classes(game, node, kids, class_cap)
        else:
            out = _prover_classes(game, h, node, kids)
        if out and (node.player != NATURE or h == ()):
            best = {j: max(cls.value[j - 1] for cls in out) for j in owners}
            out = [cls for cls in out if all(cls.value[j - 1] >= b for j, b in best.items())]
            if len(out) > class_cap:
                raise CapExceededError(f"continuation classes exceed cap {class_cap}", len(out))
        classes[h], actors[h] = out, owners
    final = classes[()]
    if not final:
        return None
    profile = StrategyProfile(final[0].rep)
    require_total_profile(game, profile)
    return profile


def find_dominant_sse(
    game: GameTree,
    profile_cap: int = DEFAULT_PROFILE_CAP,
    class_cap: int = DEFAULT_CLASS_CAP,
) -> StrategyProfile | None:
    """First dominant SSE in canonical order, or None when none exists.

    Games whose profile space fits the cap go through literal enumeration plus
    the height induction. Larger perfect-information games use the subtree
    class search, which agrees with the literal path wherever both run.
    """
    try:
        sses = enumerate_sse(game, cap=profile_cap)
    except CapExceededError as exc:
        if is_perfect_information(game):
            return _perfect_info_dominant(game, class_cap)
        raise CapExceededError(
            f"{exc} and the game has non-singleton information sets", exc.count
        ) from None
    survivors = dominant_sse_set(game, sses)
    return survivors[0] if survivors else None
