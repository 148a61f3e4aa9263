"""Extensive-form game trees with imperfect information, exact rationals throughout.

Histories are tuples of action labels; the empty tuple is the root. Payments,
chance probabilities and every derived utility are `fractions.Fraction`, so
best-response and dominance comparisons are never subject to floating-point
ties. Trees, information sets and strategy profiles are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, Union

from .errors import BeliefError, CapExceededError, ProfileError, StructureError, UnknownHistoryError

NATURE = 0  # player id of the chance player; provers are 1..p

History = tuple[str, ...]
Rational = Fraction

# Characters with structural meaning in history paths and set keys.
RESERVED_LABEL_CHARS = ("/", "|")


def rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational; floats are rejected to keep arithmetic exact."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def path_of(history: History) -> str:
    """Canonical string form of a history ('' for the root)."""
    return "/".join(history)


def history_from_path(path: str) -> History:
    return tuple(path.split("/")) if path else ()


@dataclass(frozen=True, slots=True)
class DecisionNode:
    player: int
    actions: tuple[str, ...]
    dist: tuple[Fraction, ...] | None = None  # present iff player is Nature


@dataclass(frozen=True, slots=True)
class TerminalNode:
    payments: tuple[Fraction, ...]  # indexed by prover-1
    answer_bit: int


Node = Union[DecisionNode, TerminalNode]


@dataclass(frozen=True, slots=True)
class InformationSet:
    """A prover's indistinguishability class; the unit of strategy assignment."""

    owner: int
    members: tuple[History, ...]  # sorted, nonempty
    actions: tuple[str, ...]
    key: str = field(init=False, repr=False, compare=False)  # the members' paths

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", "|".join(sorted(path_of(h) for h in self.members)))

    def __hash__(self) -> int:
        return hash((self.owner, self.members, self.actions))


@dataclass(frozen=True)
class StrategyProfile:
    """Pure strategy profile: one action per information set, keyed by set key."""

    choices: tuple[tuple[str, str], ...]  # sorted (set key, action label)

    @classmethod
    def from_dict(cls, mapping: Mapping[str, str]) -> "StrategyProfile":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.choices)

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.choices)

    def action(self, set_key: str) -> str:
        try:
            return self._map[set_key]
        except KeyError:
            raise ProfileError(f"profile has no action for information set {set_key!r}")

    def replace(self, set_key: str, action: str) -> "StrategyProfile":
        """One-shot change: same profile except `action` at the named set."""
        items = dict(self.choices)
        items[set_key] = action
        return StrategyProfile(tuple(sorted(items.items())))

    def __hash__(self) -> int:
        return hash(self.choices)


@dataclass(frozen=True)
class GameTree:
    provers: int
    nodes: Mapping[History, Node]
    info_sets: tuple[InformationSet, ...]
    meta: Mapping[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def node(self, h: History) -> Node:
        try:
            return self.nodes[h]
        except KeyError:
            raise UnknownHistoryError(f"history {path_of(h)!r} not in game")

    def is_terminal(self, h: History) -> bool:
        return isinstance(self.node(h), TerminalNode)

    @cached_property
    def terminals(self) -> tuple[History, ...]:
        return tuple(
            sorted(h for h, n in self.nodes.items() if isinstance(n, TerminalNode))
        )

    @cached_property
    def decision_histories(self) -> tuple[History, ...]:
        return tuple(
            sorted(h for h, n in self.nodes.items() if isinstance(n, DecisionNode))
        )

    @cached_property
    def set_by_history(self) -> dict[History, InformationSet]:
        out: dict[History, InformationSet] = {}
        for iset in self.info_sets:
            for h in iset.members:
                out[h] = iset
        return out

    @cached_property
    def set_by_key(self) -> dict[str, InformationSet]:
        return {iset.key: iset for iset in self.info_sets}

    @cached_property
    def sorted_sets(self) -> tuple[InformationSet, ...]:
        return tuple(sorted(self.info_sets, key=lambda s: s.key))

    @cached_property
    def height(self) -> int:
        return max((len(h) for h in self.nodes), default=0)

    @cached_property
    def topo_order(self) -> tuple[History, ...]:
        return tuple(sorted(self.nodes, key=len))

    def children(self, h: History) -> tuple[History, ...]:
        node = self.node(h)
        if isinstance(node, TerminalNode):
            return ()
        return tuple(h + (a,) for a in node.actions)


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _sum_over_lcm(values: tuple[Fraction, ...]) -> tuple[int, int]:
    """`sum(values)` as (n, m) with the sum equal to n/m, m the lcm of the denominators."""
    m = math.lcm(*[v.denominator for v in values])
    return sum([v.numerator * (m // v.denominator) for v in values]), m


def validate_game(game: GameTree) -> ValidationReport:
    """Check every structural invariant; violations are data, not failures."""
    out: list[Violation] = []
    if game.provers < 1:
        out.append(Violation("bad-provers", "", f"prover count {game.provers} < 1"))
    if () not in game.nodes:
        out.append(Violation("no-root", "", "root history missing"))
        return ValidationReport(tuple(out))

    # Rationals are checked on numerators and denominators (positive), not compared
    # as Fractions; a node's (code, message) pairs get its path only if there are any.
    histories = sorted(game.nodes)
    for h in histories:
        node = game.nodes[h]
        found: list[tuple[str, str]] = []
        if h:
            parent = game.nodes.get(h[:-1])
            if parent is None:
                out.append(Violation("orphan", path_of(h), "parent history missing"))
                continue
            if not isinstance(parent, DecisionNode) or h[-1] not in parent.actions:
                found.append(("bad-parent", "not reachable by a parent action"))
        if isinstance(node, DecisionNode):
            if not node.actions:
                found.append(("no-actions", "decision node with no actions"))
            for a in node.actions:
                if not a or any(c in a for c in RESERVED_LABEL_CHARS):
                    message = f"action label {a!r} is empty or contains a reserved character"
                    found.append(("bad-label", message))
                if h + (a,) not in game.nodes:
                    found.append(("missing-child", f"child for action {a!r} missing"))
            if len(set(node.actions)) != len(node.actions):
                found.append(("dup-action", "duplicate action labels"))
            if node.player == NATURE:
                if node.dist is None:
                    found.append(("nature-dist-missing", "no distribution"))
                else:
                    if len(node.dist) != len(node.actions):
                        found.append(("nature-dist-length", "distribution length mismatch"))
                    if any(p.numerator < 0 for p in node.dist):
                        found.append(("nature-dist-negative", "negative probability"))
                    n, m = _sum_over_lcm(node.dist)
                    if n != m:
                        found.append(
                            ("nature-dist-sum", f"nature distribution sums to {Fraction(n, m)}")
                        )
            else:
                if not (1 <= node.player <= game.provers):
                    found.append(("bad-prover", f"player {node.player} out of range"))
                if node.dist is not None:
                    found.append(("dist-on-prover", "prover node has a distribution"))
        else:
            if len(node.payments) != game.provers:
                found.append(("payment-length", "payment vector length mismatch"))
            for j, r in enumerate(node.payments, start=1):
                if not (-r.denominator <= r.numerator <= r.denominator):
                    found.append(("payment-range", f"payment {r} to prover {j} outside [-1,1]"))
            n, m = _sum_over_lcm(node.payments)
            if not (-m <= n <= m):
                found.append(
                    ("total-range", f"total payment {Fraction(n, m)} outside [-1,1]")
                )
            if node.answer_bit not in (0, 1):
                found.append(("bad-answer-bit", f"answer bit {node.answer_bit}"))
        if found:
            where = path_of(h)
            out.extend(Violation(code, where, message) for code, message in found)

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
                out.append(Violation("set-overlap", key, f"history {path_of(h)!r} in two sets"))
            seen[h] = key
            node = game.nodes.get(h)
            if node is None:
                out.append(Violation("set-member-missing", key, f"member {path_of(h)!r} missing"))
            elif not (isinstance(node, DecisionNode) and node.player == iset.owner):
                message = f"member {path_of(h)!r} is not a decision node of prover {iset.owner}"
                out.append(Violation("set-member-mismatch", key, message))
            elif node.actions != iset.actions:
                message = f"member {path_of(h)!r} has different available actions"
                out.append(Violation("set-action-mismatch", key, message))
    for h in histories:
        node = game.nodes[h]
        if isinstance(node, DecisionNode) and node.player != NATURE and h not in seen:
            message = "prover decision history belongs to no information set"
            out.append(Violation("unpartitioned-history", path_of(h), message))
    return ValidationReport(tuple(out))


def player_experience(game: GameTree, player: int, h: History) -> tuple:
    """The (information set, action) pairs `player` went through along `h`."""
    exp = []
    for k in range(len(h)):
        prefix = h[:k]
        node = game.nodes[prefix]
        if isinstance(node, DecisionNode) and node.player == player:
            iset = game.set_by_history.get(prefix)
            key = iset.key if iset is not None else f"?{path_of(prefix)}"
            exp.append((key, h[k]))
    return tuple(exp)


def check_perfect_recall(game: GameTree) -> ValidationReport:
    """Empty iff all members of every set give the owner an identical experience."""
    out: list[Violation] = []
    for iset in game.info_sets:
        base = player_experience(game, iset.owner, iset.members[0])
        for h in iset.members[1:]:
            if player_experience(game, iset.owner, h) != base:
                out.append(
                    Violation(
                        "imperfect-recall",
                        iset.key,
                        f"members {path_of(iset.members[0])!r} and {path_of(h)!r} give "
                        f"prover {iset.owner} different experiences",
                    )
                )
                break
    return ValidationReport(tuple(out))


def require_total_profile(game: GameTree, s: StrategyProfile) -> None:
    for iset in game.info_sets:
        a = s.action(iset.key)  # raises if missing
        if a not in iset.actions:
            raise ProfileError(
                f"action {a!r} not available at information set {iset.key!r}"
            )


def _step_probability(game: GameTree, s: StrategyProfile, prefix: History, action: str) -> Fraction:
    node = game.nodes[prefix]
    assert isinstance(node, DecisionNode)
    if node.player == NATURE:
        return node.dist[node.actions.index(action)]
    iset = game.set_by_history[prefix]
    return Fraction(1) if s.action(iset.key) == action else Fraction(0)


def reach_probability(game: GameTree, s: StrategyProfile, h: History) -> Fraction:
    """Product of Nature probabilities and prover action-match indicators along `h`."""
    if h not in game.nodes:
        raise UnknownHistoryError(f"history {path_of(h)!r} not in game")
    prob = Fraction(1)
    for k in range(len(h)):
        prob *= _step_probability(game, s, h[:k], h[k])
        if prob == 0:
            return Fraction(0)
    return prob


def reach_map(game: GameTree, s: StrategyProfile) -> dict[History, Fraction]:
    """Reach probability of every history under `s`, in one top-down pass."""
    out: dict[History, Fraction] = {(): Fraction(1)}
    for h in game.topo_order:
        node = game.nodes[h]
        if isinstance(node, TerminalNode):
            continue
        base = out[h]
        for a in node.actions:
            out[h + (a,)] = base * _step_probability(game, s, h, a) if base else Fraction(0)
    return out


def continuation_values(
    game: GameTree, s: StrategyProfile
) -> dict[History, tuple[Fraction, ...]]:
    """Per-history expected payment vector when play below follows `s` and Nature."""
    out: dict[History, tuple[Fraction, ...]] = {}
    for h in reversed(game.topo_order):
        node = game.nodes[h]
        if isinstance(node, TerminalNode):
            out[h] = node.payments
        elif node.player == NATURE:
            acc = [Fraction(0)] * game.provers
            for a, p in zip(node.actions, node.dist):
                child = out[h + (a,)]
                for j in range(game.provers):
                    acc[j] += p * child[j]
            out[h] = tuple(acc)
        else:
            chosen = s.action(game.set_by_history[h].key)
            out[h] = out[h + (chosen,)]
    return out


class _IntCore:
    """A game compiled to int-indexed arrays for exact integer evaluation.

    Nodes are numbered in `topo_order`. Node h gets a weight W'(h): the
    product of the Nature probabilities on its path since the last
    zero-probability Nature edge, or since the root, so W'(h) > 0 even below
    such an edge. With D = Dw*Du, where Dw and Du are the common denominators
    of the weights and of the payments, `weight[h]` is the integer D*W'(h).
    Under a pure profile the value of h is the sum of D*W'(t)*u(t) over the
    terminals t that play and positive Nature moves lead to from h: D*W'(h)
    times the continuation value of h. Nature weights therefore cancel from
    every comparison between children of one history, and from comparisons
    between sums over the reached members of a set, where W' is the reach
    probability.

    A value is packed into one int, one field per prover, and `field` is the
    only reader of that layout. Each field is raised by K*Dw*W'(h), K >=
    |Du*u| for every payment u, so no field is negative or overflows and sums
    never carry between fields. Prover moves keep the raise, so it cancels
    from the same comparisons and from the difference of two profiles' fields
    at one node m. If m is reached under a profile, W'(m) is its reach
    probability, so that difference over `scale` = D is reach(m) times the
    difference of the continuation values. Build it only by `_core_of`, which
    keeps one: it holds arrays the size of the tree and the SSE check's memo.
    """

    def __init__(self, game: GameTree):
        self.game = game
        order, nodes = game.topo_order, game.nodes
        self.index = index = {h: i for i, h in enumerate(order)}
        w = [Fraction(1)] * len(order)  # W'
        self.kids: list[tuple[int, ...]] = [()] * len(order)  # live ones under Nature
        self.set_of = [-1] * len(order)  # sorted_sets index of a prover node
        self.sets = game.sorted_sets
        self.members = tuple(tuple(index[h] for h in iset.members) for iset in self.sets)
        for k, members in enumerate(self.members):
            for i in members:
                self.set_of[i] = k
        terminals = []
        for i, h in enumerate(order):
            node = nodes[h]
            if isinstance(node, TerminalNode):
                terminals.append(i)
            elif node.player == NATURE:
                live = []
                for a, p in zip(node.actions, node.dist):
                    c = index[h + (a,)]
                    if p:
                        w[c] = w[i] * p
                        live.append(c)
                self.kids[i] = tuple(live)
            else:
                k = self.set_of[i]
                if k < 0 or self.sets[k].actions != node.actions:
                    raise StructureError(
                        f"history {path_of(h)!r} has no information set with its actions"
                    )
                self.kids[i] = tuple(index[h + (a,)] for a in node.actions)
                for c in self.kids[i]:
                    w[c] = w[i]
        # D*W'(t)*u = (Dw*W'(t)) * (Du*u), a product of integers.
        Dw = math.lcm(*{x.denominator for x in w})
        Du = math.lcm(*{u.denominator for t in terminals for u in nodes[order[t]].payments})
        wint = [x.numerator * (Dw // x.denominator) for x in w]
        self.weight = [Du * x for x in wint]
        self.scale = self.weight[0]  # D, as W'(root) = 1
        pay = {
            t: [u.numerator * (Du // u.denominator) for u in nodes[order[t]].payments]
            for t in terminals
        }
        K = max((abs(x) for row in pay.values() for x in row), default=0)
        self._bits = (2 * K * Dw).bit_length()
        self._mask = (1 << self._bits) - 1
        self.leaf = [0] * len(order)
        for t, row in pay.items():
            for j, x in enumerate(row):
                self.leaf[t] |= wint[t] * (x + K) << (j * self._bits)
        self.bottom_up = tuple(
            (i, self.kids[i], self.set_of[i])
            for i in reversed(range(len(order)))
            if i not in pay
        )
        self.rows = tuple(tuple(self.kids[m] for m in members) for members in self.members)
        self._keyed = tuple(
            (iset.key, {a: n for n, a in enumerate(iset.actions)}) for iset in self.sets
        )
        self.ops = len(order) + sum(len(i.members) * len(i.actions) for i in self.sets)
        self._posteriors: dict[tuple[int, tuple[int, ...]], tuple] = {}

    def choices(self, s: StrategyProfile) -> list[int]:
        """Index of the chosen action at each set, in `sorted_sets` order.
        `s.choices` is read by position when its keys are exactly those of
        `sorted_sets`, and through the key map otherwise."""
        keyed = self._keyed
        try:
            if len(s.choices) == len(keyed):
                out = [
                    actions[a]
                    for (key, a), (want, actions) in zip(s.choices, keyed)
                    if key == want
                ]
                if len(out) == len(keyed):
                    return out
            return [actions[s._map[key]] for key, actions in keyed]
        except KeyError:
            require_total_profile(self.game, s)  # raises the ProfileError
            raise

    @cached_property
    def recall(self) -> ValidationReport:
        """`check_perfect_recall` of the game, run once per core."""
        return check_perfect_recall(self.game)

    @cached_property
    def stages(self) -> tuple:
        """The SSE check's schedule, built on first use: one stage per set
        with two or more actions (a set with one has nothing to deviate to),
        as (end, k, key, memo, paths).

        Set k is ready once every step above its shallowest member has run:
        topo_order sorts by length, so every child of every member lies
        there. Sets go deepest-ready first, and `bottom_up[:end]` holds the
        steps set k needs. Its verdict depends only on the choices at k, at
        the sets with a node below a member, and, when k has two or more
        members, at the sets on the paths to them, which fix the reached
        members. `key(choice)` reads those choices (one-action sets left out,
        they never vary) and `memo` maps it to the stage's verdict; `key` is
        None when it would read every set with two or more actions, as such
        a key never repeats within one enumeration. `paths` holds, per
        member, () at the root, None below a zero-probability Nature edge,
        and otherwise a getter of the varying sets on its path with the
        action indices it must read (see `live`)."""
        n = len(self.leaf)
        varies = [len(iset.actions) > 1 for iset in self.sets]
        every = sum(1 << k for k, v in enumerate(varies) if v)
        below = [0] * n  # bitmask of the varying sets with a node in i's subtree
        for i, kids, k in self.bottom_up:
            mask = 1 << k if k >= 0 and varies[k] else 0
            for c in kids:
                mask |= below[c]
            below[i] = mask
        path: list[tuple | None] = [None] * n
        path[0] = ()
        for i, kids, k in reversed(self.bottom_up):  # top-down, leaves left out
            if path[i] is None:
                continue  # below a zero-probability Nature edge
            for a, c in enumerate(kids):
                if self.kids[c]:
                    path[c] = path[i] + ((k, a),) if k >= 0 and varies[k] else path[i]
        stages, done = [], 0
        for top, k in sorted(((min(m), k) for k, m in enumerate(self.members)), reverse=True):
            while done < len(self.bottom_up) and self.bottom_up[done][0] > top:
                done += 1
            if not varies[k]:
                continue
            members = self.members[k]
            deps = 1 << k
            for m in members:
                for c in self.kids[m]:
                    deps |= below[c]
            paths = []
            for m in members:
                p = path[m]
                if p:  # the choices on the path, read as `key` reads them
                    want = dict(p)
                    get = operator.itemgetter(*want)
                    p = (get, get(want))
                    if len(members) > 1:
                        deps |= sum(1 << j for j in want)
                paths.append(p)
            key = None
            if deps != every:
                sets, rest = [], deps
                while rest:
                    low = rest & -rest
                    sets.append(low.bit_length() - 1)
                    rest ^= low
                key = operator.itemgetter(*sets)
            stages.append((done, k, key, {}, tuple(paths)))
        return tuple(stages)

    @staticmethod
    def live(paths: tuple, choice: list[int]) -> tuple[int, ...]:
        """Positions of the members reached under `choice`, from a stage's
        `paths`: a member is reached when the profile takes every action on
        its path and no zero-probability Nature edge lies on it."""
        return tuple(
            n
            for n, p in enumerate(paths)
            if p is not None and (not p or p[0](choice) == p[1])
        )

    def field(self, v: int, prover: int) -> int:
        """Prover `prover`'s field of the packed value `v` of a node h: under
        the profile, D*W'(h) times h's continuation value plus the raise."""
        return (v >> (prover - 1) * self._bits) & self._mask

    def evaluate(self, choice: list[int]) -> tuple[list[int], bytearray]:
        """Packed node values and reached flags under the profile `choice`."""
        return self.values(choice), self.reach(choice)

    def values(self, choice: list[int]) -> list[int]:
        """Packed node values under the profile `choice`: one bottom-up pass."""
        value = self.leaf[:]
        self.advance(value, choice, self.bottom_up)
        return value

    def advance(self, value: list[int], choice: list[int], steps: tuple) -> None:
        """Run bottom-up `steps` (a slice of `bottom_up`) on `value`, which
        starts as a copy of `leaf`."""
        get = value.__getitem__
        for i, kids, k in steps:
            value[i] = sum(map(get, kids)) if k < 0 else value[kids[choice[k]]]

    def reach(self, choice: list[int]) -> bytearray:
        """Reached flags under the profile `choice`: a node is reached when
        the profile and positive Nature moves lead to it from the root."""
        reached = bytearray(len(self.leaf))
        stack = [0]
        while stack:
            i = stack.pop()
            reached[i] = 1
            k = self.set_of[i]
            if k < 0:
                stack.extend(self.kids[i])
            else:
                stack.append(self.kids[i][choice[k]])
        return reached

    def reach_classes(self, default: list[int]) -> Iterator[tuple[list[int], bytearray, bytearray]]:
        """Every reach class once, as (choice, reached, fixed). A class is
        one assignment of actions to the sets that play reaches, so its
        profiles share `reach` and the values of every reached node. The
        walk is `reach` that branches where play first enters a set with
        two or more actions; `fixed[k]` is 1 at the sets the class reaches,
        and every other set keeps its action from `default`. Each profile
        lies in exactly one class, of size the product of the action counts
        of its sets with `fixed` 0."""
        kids, set_of = self.kids, self.set_of
        pending = [(list(default), bytearray(len(self.sets)), bytearray(len(kids)), [0])]
        while pending:
            choice, fixed, reached, stack = pending.pop()
            while stack:
                i = stack.pop()
                reached[i] = 1
                k = set_of[i]
                if k < 0:
                    stack.extend(kids[i])
                    continue
                if not fixed[k]:
                    fixed[k] = 1
                    for a in range(len(kids[i]) - 1, 0, -1):
                        branch = choice[:]
                        branch[k] = a
                        pending.append((branch, fixed[:], reached[:], [*stack, kids[i][a]]))
                    choice[k] = 0
                stack.append(kids[i][choice[k]])
            yield choice, reached, fixed

    def posterior(self, k: int, live: tuple[int, ...]) -> tuple[tuple, int]:
        """Bayes belief over the members of set `k` when exactly the members at
        positions `live` are reached, and the common denominator D*sum W'."""
        key = (k, live)
        if key not in self._posteriors:
            members = self.members[k]
            total = sum(self.weight[members[n]] for n in live)
            p = [Fraction(0)] * len(members)
            for n in live:
                p[n] = Fraction(self.weight[members[n]], total)
            belief = tuple(sorted(zip(self.sets[k].members, p)))
            self._posteriors[key] = (belief, total)
        return self._posteriors[key]


_last: _IntCore | None = None  # the one core that `_core_of` keeps


def _core_of(game: GameTree) -> _IntCore:
    """`game`'s integer core: the one kept if it is this very tree's, else a new
    one kept instead. Memo entries depend only on their keys, not on past calls."""
    global _last
    if (core := _last) is None or core.game is not game:
        core = _last = _IntCore(game)
    return core


def expected_utility(game: GameTree, s: StrategyProfile, prover: int) -> Fraction:
    """Expected payment of `prover` from the root under `s`."""
    if not (1 <= prover <= game.provers):
        raise ProfileError(f"prover {prover} out of range 1..{game.provers}")
    return continuation_values(game, s)[()][prover - 1]


def utility_vector(game: GameTree, s: StrategyProfile) -> tuple[Fraction, ...]:
    return continuation_values(game, s)[()]


Anchor = Union[History, tuple[InformationSet, Mapping[History, Fraction]]]


def check_belief(iset: InformationSet, belief: Mapping[History, Fraction]) -> None:
    members = set(iset.members)
    if any(h not in members for h in belief):
        raise BeliefError(f"belief names histories outside set {iset.key!r}")
    if any(p < 0 for p in belief.values()):
        raise BeliefError("belief has a negative entry")
    if sum(belief.values(), Fraction(0)) != 1:
        raise BeliefError("belief does not sum to 1")


def conditional_utility(
    game: GameTree, s: StrategyProfile, prover: int, anchor: Anchor
) -> Fraction:
    """Expected payment of `prover` below `anchor` with later moves by `s` and Nature.

    The anchor is either a history (point conditioning) or a pair of an
    information set and a belief over its members.
    """
    values = continuation_values(game, s)
    if isinstance(anchor, tuple) and len(anchor) == 2 and isinstance(anchor[0], InformationSet):
        iset, belief = anchor
        check_belief(iset, belief)
        return sum(
            (p * values[h][prover - 1] for h, p in belief.items()), Fraction(0)
        )
    if anchor not in game.nodes:
        raise UnknownHistoryError(f"history {path_of(anchor)!r} not in game")
    return values[anchor][prover - 1]


def make_game(
    provers: int,
    nodes: Mapping[History, Node],
    info_sets: Iterable[InformationSet] | None = None,
    meta: Mapping[str, Any] | None = None,
) -> GameTree:
    """Assemble a GameTree; with `info_sets=None` every prover node is a singleton set."""
    node_map = dict(nodes)
    if info_sets is None:
        sets = []
        for h in sorted(node_map):
            node = node_map[h]
            if isinstance(node, DecisionNode) and node.player != NATURE:
                sets.append(InformationSet(node.player, (h,), node.actions))
        info_sets = sets
    return GameTree(provers, node_map, tuple(info_sets), dict(meta or {}))


def group_info_sets(
    provers_nodes: Mapping[History, Node], signal: Mapping[History, Any]
) -> tuple[InformationSet, ...]:
    """Group prover decision histories by (owner, signal) into information sets."""
    buckets: dict[tuple, list[History]] = {}
    for h, node in provers_nodes.items():
        if isinstance(node, DecisionNode) and node.player != NATURE:
            buckets.setdefault((node.player, signal[h]), []).append(h)
    sets = []
    for (owner, _), members in sorted(buckets.items(), key=lambda kv: str(kv[0])):
        members = tuple(sorted(members))
        actions = provers_nodes[members[0]].actions
        sets.append(InformationSet(owner, members, actions))
    return tuple(sets)


DEFAULT_PROFILE_CAP = 10**7


def check_profile_cap(game: GameTree, cap: int) -> None:
    """The one profile-cap gate: a space over `cap` raises `CapExceededError`."""
    count = profile_space_size(game)
    if count > cap:
        raise CapExceededError(f"{count} profiles exceed cap {cap}", count)


def all_profiles(game: GameTree, cap: int = DEFAULT_PROFILE_CAP) -> Iterator[StrategyProfile]:
    """Every pure profile in canonical action order. The cap is checked at the
    call, before any profile is built."""
    check_profile_cap(game, cap)
    sets = game.sorted_sets
    keys = [iset.key for iset in sets]  # already in key order
    combos = itertools.product(*(iset.actions for iset in sets))
    return (StrategyProfile(tuple(zip(keys, combo))) for combo in combos)


def profile_space_size(game: GameTree) -> int:
    return math.prod(len(iset.actions) for iset in game.info_sets)
