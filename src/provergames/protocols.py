"""Desk-scale verifier-prover payment protocols compiled to game trees.

Each builder returns the tree, the honest profile its analysis singles out, the
payment rescaling factor applied to fit the per-terminal budget, and the answer
bit a correct run must produce. Verifier coin flips become Nature moves; a
prover's information sets pool exactly the histories it cannot tell apart
(private channels, unseen co-prover messages).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import GameError
# The blackboxes live in `mips`; their API stays importable from here, next to
# the builders it feeds.
from .mips import (
    ACCEPT_CALL_CAP,
    DRAW_CAP,
    MipBlackbox,
    MipOutcome,
    _get,
    fixed_soundness_mip,
    mip_from_params,
    mips_from_doc,
    parse_dimacs,
    toy_clause_variable_mip,
)
from .trees import (
    NATURE,
    DecisionNode,
    GameTree,
    History,
    Node,
    StrategyProfile,
    TerminalNode,
    group_info_sets,
    make_game,
    rational,
)

VERTEX_CAP = 4
QUERY_CAP = 3


@dataclass(frozen=True)
class ProtocolGame:
    game: GameTree
    honest: StrategyProfile
    scale: Fraction  # stored payments = scale * protocol dollars
    correct_bit: int


def _finish(
    provers: int,
    nodes: dict[History, Node],
    signals: Mapping[History, Any] | None,
    honest: Mapping[History, str],
    meta: dict[str, Any],
    scale: Fraction,
    correct: int,
) -> ProtocolGame:
    """The built protocol. Prover nodes are pooled into information sets by
    `signals`, or each is its own set when there are none; each set's honest
    action is `honest` at its first member."""
    if signals is None:
        game = make_game(provers, nodes, meta=meta)
    else:
        game = GameTree(provers, nodes, group_info_sets(nodes, signals), meta)
    profile = StrategyProfile.from_dict({i.key: honest[i.members[0]] for i in game.info_sets})
    return ProtocolGame(game, profile, scale, correct)


# ---------------------------------------------------------------------------
# Graph 3-coloring protocol
# ---------------------------------------------------------------------------


def build_three_coloring(
    num_vertices: int, edges: Sequence[tuple[int, int]], vertex_cap: int = VERTEX_CAP
) -> ProtocolGame:
    """Claim-then-audit protocol: the first prover claims 3-colorability and, on
    a yes, commits a coloring; the second prover agrees or names a bad edge.

    Dollar payments (1,1 no), (2,1 agreed yes), (0,2 caught), (2,0 bad audit)
    are rescaled by 1/4.
    """
    if num_vertices < 1 or num_vertices > vertex_cap:
        raise GameError(f"vertex count {num_vertices} exceeds cap {vertex_cap}")
    edge_list = []
    for u, v in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices) or u == v:
            raise GameError(f"bad edge ({u}, {v})")
        edge_list.append((min(u, v), max(u, v)))
    edge_list = sorted(set(edge_list))
    if not edge_list:
        raise GameError("graph must have at least one edge")

    scale = Fraction(1, 4)

    def pay(p1_dollars: int, p2_dollars: int) -> tuple[Fraction, Fraction]:
        return (scale * p1_dollars, scale * p2_dollars)

    colorings = ["".join(c) for c in itertools.product("012", repeat=num_vertices)]
    edge_labels = [f"edge:{u}-{v}" for u, v in edge_list]
    p2_actions = ("agree",) + tuple(edge_labels)

    bad_edges = {  # coloring -> its monochromatic edges
        c: [e for (u, v), e in zip(edge_list, edge_labels) if c[u] == c[v]] for c in colorings
    }
    valid = [c for c in colorings if not bad_edges[c]]
    correct = 1 if valid else 0
    nodes: dict[History, Node] = {
        (): DecisionNode(1, ("no", "yes")),
        ("no",): TerminalNode(pay(1, 1), 0),
        ("yes",): DecisionNode(1, tuple(f"col:{c}" for c in colorings)),
    }
    honest = {(): "yes" if valid else "no", ("yes",): f"col:{(valid or colorings)[0]}"}
    for c in colorings:
        h = ("yes", f"col:{c}")
        nodes[h] = DecisionNode(2, p2_actions)
        nodes[h + ("agree",)] = TerminalNode(pay(2, 1), 1)
        bad = bad_edges[c]
        honest[h] = bad[0] if bad else "agree"
        for e in edge_labels:
            nodes[h + (e,)] = TerminalNode(pay(0, 2) if e in bad else pay(2, 0), 1)

    meta = {
        "protocol": "three_coloring",
        "vertices": num_vertices,
        "edges": [list(e) for e in edge_list],
        "scale": str(scale),
        "correct_bit": correct,
    }
    return _finish(2, nodes, None, honest, meta, scale, correct)


# ---------------------------------------------------------------------------
# Membership protocol on top of a MIP blackbox
# ---------------------------------------------------------------------------


def _mip_subtree(
    nodes: dict[History, Node],
    signals: dict[History, Any],
    honest: dict[History, str],
    h: History,
    mip: MipBlackbox,
    first: int,
    tags: tuple[tuple, tuple],
    payments: tuple[tuple[Fraction, ...], tuple[Fraction, ...]],
    answer_bit: int,
) -> None:
    """One run of `mip` below `h`: Nature draws an outcome, prover `first` answers
    its query, prover `first + 1` answers its own, and a terminal pays
    `payments[accepted]`. A prover sees only its query: its signal is the
    matching entry of `tags` followed by the query. `honest` gets each prover
    node's honest answer. Nodes are immutable, so equal ones are one object:
    a prover node per query, a terminal per payment."""
    nodes[h] = DecisionNode(
        NATURE, tuple(o.label for o in mip.outcomes), tuple(o.prob for o in mip.outcomes)
    )
    ask1 = {q: DecisionNode(first, alphabet) for q, alphabet in mip.p1_answers}
    ask2 = {q: DecisionNode(first + 1, alphabet) for q, alphabet in mip.p2_answers}
    leaves = tuple(TerminalNode(pay, answer_bit) for pay in payments)
    honest1, honest2 = dict(mip.honest_p1), dict(mip.honest_p2)
    for o in mip.outcomes:
        h1 = h + (o.label,)
        nodes[h1] = ask1[o.p1_query]
        signals[h1] = tags[0] + (o.p1_query,)
        honest[h1] = honest1[o.p1_query]
        for a1 in ask1[o.p1_query].actions:
            h2 = h1 + (a1,)
            nodes[h2] = ask2[o.p2_query]
            signals[h2] = tags[1] + (o.p2_query,)
            honest[h2] = honest2[o.p2_query]
            for a2 in ask2[o.p2_query].actions:
                nodes[h2 + (a2,)] = leaves[mip.accepts(o.label, a1, a2)]


def build_nexp_protocol(mip: MipBlackbox) -> ProtocolGame:
    """Answer bit first; a yes claim triggers the blackbox with both provers.

    Dollar payments: (1/2,1/2) on a no; (1,1) accept / (-1,-1) reject after a
    yes. Rescaled by 1/2 to meet the total budget.
    """
    scale = Fraction(1, 2)
    half, one = scale * Fraction(1, 2), scale * 1
    correct = 1 if mip.is_true else 0
    nodes: dict[History, Node] = {
        (): DecisionNode(1, ("c=0", "c=1")),
        ("c=0",): TerminalNode((half, half), 0),
    }
    signals: dict[History, Any] = {(): ("root",)}
    honest = {(): f"c={correct}"}
    _mip_subtree(
        nodes, signals, honest, ("c=1",), mip, 1, (("p1",), ("p2",)),
        ((-one, -one), (one, one)), 1,
    )
    meta = {"protocol": "nexp", "mip": dict(mip.params), "scale": str(scale), "correct_bit": correct}
    return _finish(2, nodes, signals, honest, meta, scale, correct)


# ---------------------------------------------------------------------------
# Adaptive oracle-query protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleScript:
    """Deterministic decision procedure issuing adaptive yes/no oracle queries.

    `next_query[(q, b)]` names the follow-up after answer `b` to query `q`;
    `output[bits]` is the machine's decision for each full answer vector.
    """

    first: str
    next_query: Mapping[tuple[str, int], str]
    output: Mapping[tuple[int, ...], int]
    num_queries: int

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "OracleScript":
        """Parse a machine-script document or a pnexp game's metadata: `first`,
        `next` ("query,bit" -> query; optional), `output` (bit string -> answer)
        and `num_queries`."""
        first = _get(doc, "first", str)
        next_query = {}
        nxt = _get(doc, "next", dict) if "next" in doc else {}
        for key in nxt:
            q, _, b = key.rpartition(",")
            if not q or b not in ("0", "1"):
                raise GameError(f"key {'next.' + key!r} must be 'query,bit'")
            next_query[(q, int(b))] = _get(nxt, key, str, "next.")
        output = _get(doc, "output", dict)
        for bits in output:
            if not bits or set(bits) - {"0", "1"}:
                raise GameError(f"key {'output.' + bits!r} must be a string of 0s and 1s")
        return cls(
            first,
            next_query,
            {tuple(int(b) for b in bits): _get(output, bits, int, "output.") for bits in output},
            _get(doc, "num_queries", int),
        )

    def to_doc(self) -> dict[str, Any]:
        """The document `from_doc` parses back to this script."""
        return {
            "first": self.first,
            "next": {f"{q},{b}": q2 for (q, b), q2 in sorted(self.next_query.items())},
            "output": {"".join(map(str, bits)): out for bits, out in sorted(self.output.items())},
            "num_queries": self.num_queries,
        }

    def query_path(self, bits: Sequence[int]) -> list[str]:
        path = [self.first]
        for i in range(1, self.num_queries):
            q = self.next_query.get((path[-1], bits[i - 1]))
            if q is None:
                raise GameError(f"script has no query after answer {bits[i - 1]} to {path[-1]!r}")
            path.append(q)
        return path


def build_pnexp_protocol(
    script: OracleScript, mips: Mapping[str, MipBlackbox]
) -> ProtocolGame:
    """First prover commits the machine's answer and every oracle answer; a
    random query is re-proved by the other two provers via the membership
    protocol. Dollar payments rescaled by 1/3.
    """
    alpha = script.num_queries
    if not (1 <= alpha <= QUERY_CAP):
        raise GameError(f"query count {alpha} exceeds cap {QUERY_CAP}")
    for bits in itertools.product((0, 1), repeat=alpha):
        if bits not in script.output:
            raise GameError(f"script has no output for answers {''.join(map(str, bits))}")
        for q in script.query_path(bits):
            if q not in mips:
                raise GameError(f"no blackbox for query {q!r}")
    scale = Fraction(1, 3)

    def p(x: Fraction | int) -> Fraction:
        return scale * Fraction(x)

    honest_bits = []
    q = script.first
    for k in range(1, alpha + 1):
        honest_bits.append(1 if mips[q].is_true else 0)
        if k < alpha:
            q = script.next_query[(q, honest_bits[-1])]
    correct = script.output[tuple(honest_bits)]

    def claim(c: int, bits: Sequence[int]) -> str:
        return f"ans:{c};{''.join(map(str, bits))}"

    claims = [
        (claim(c, bits), c, bits)
        for c in (0, 1)
        for bits in itertools.product((0, 1), repeat=alpha)
    ]
    idx_labels = tuple(f"i={k}" for k in range(1, alpha + 1))
    nodes: dict[History, Node] = {(): DecisionNode(1, tuple(a for a, _, _ in claims))}
    signals: dict[History, Any] = {(): ("root",)}
    honest = {(): claim(correct, honest_bits)}
    for action, c, bits in claims:
        r: History = (action,)
        if script.output[bits] != c:
            nodes[r] = TerminalNode((p(-1), p(0), p(0)), c)
            continue
        nodes[r] = DecisionNode(NATURE, idx_labels, tuple(Fraction(1, alpha) for _ in idx_labels))
        for k, (q, claimed, label) in enumerate(
            zip(script.query_path(bits), bits, idx_labels), start=1
        ):
            mip = mips[q]
            hq = r + (label,)
            nodes[hq] = DecisionNode(2, ("c*=0", "c*=1"))
            signals[hq] = ("bit", k, q)
            honest[hq] = "c*=1" if mip.is_true else "c*=0"
            nodes[hq + ("c*=0",)] = TerminalNode(
                (p(1 - claimed), p(Fraction(1, 2)), p(Fraction(1, 2))), c
            )
            _mip_subtree(
                nodes, signals, honest, hq + ("c*=1",), mip, 2,
                (("mip1", k, q), ("mip2", k, q)),
                ((p(claimed), p(-1), p(-1)), (p(claimed), p(1), p(1))), c,
            )
    meta = {
        "protocol": "pnexp",
        **script.to_doc(),
        "mips": {q: dict(m.params) for q, m in sorted(mips.items())},
        "scale": str(scale),
        "correct_bit": correct,
    }
    return _finish(3, nodes, signals, honest, meta, scale, correct)


# ---------------------------------------------------------------------------
# Cooperative-protocol simulation
# ---------------------------------------------------------------------------

Transcript = tuple[tuple[str, ...], ...]  # per prover, per round


@dataclass(frozen=True)
class MripSpec:
    """Tiny cooperative protocol: deterministic interaction, payment in [0,1]
    per full transcript, strictly positive optimum."""

    provers: int
    rounds: int
    alphabet: tuple[str, ...]
    payments: Mapping[Transcript, Fraction]

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "MripSpec":
        """Parse a spec document or an mrip game's metadata: `provers`,
        `rounds`, `alphabet` and `payments` ("a+b;c+d" transcript -> rational)."""
        provers, rounds = _get(doc, "provers", int), _get(doc, "rounds", int)
        alphabet = _get(doc, "alphabet", list)
        if not all(isinstance(sym, str) for sym in alphabet):
            raise GameError("key 'alphabet' must be a list of strings")
        payments = {}
        for key, r in _get(doc, "payments", dict).items():
            try:
                payment = rational(r)
            except (TypeError, ValueError) as exc:
                raise GameError(f"key {'payments.' + key!r}: {exc}") from None
            payments[tuple(tuple(per.split("+")) for per in key.split(";"))] = payment
        return cls(provers, rounds, tuple(alphabet), payments)

    def to_doc(self) -> dict[str, Any]:
        """The document `from_doc` parses back to this spec."""
        return {
            "provers": self.provers,
            "rounds": self.rounds,
            "alphabet": list(self.alphabet),
            "payments": {
                ";".join("+".join(per) for per in t): str(r)
                for t, r in sorted(self.payments.items())
            },
        }

    def validate(self) -> None:
        if not (1 <= self.provers <= 2) or not (1 <= self.rounds <= 2):
            raise GameError("spec out of desk scale (at most 2 provers, 2 rounds)")
        if not (1 <= len(self.alphabet) <= 4):
            raise GameError("alphabet must have 1..4 symbols")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise GameError("alphabet symbols must be distinct")
        for sym in self.alphabet:
            if not sym or any(ch in sym for ch in "+;./|"):
                raise GameError(f"symbol {sym!r} is empty or uses a reserved character")
        for transcript in _transcripts(self):
            r = self.payments.get(transcript)
            if r is None:
                raise GameError(f"payment missing for transcript {transcript}")
            if not (0 <= r <= 1):
                raise GameError(f"payment {r} outside [0,1]")
        extra = sorted(set(self.payments) - set(_transcripts(self)))
        if extra:
            key = "payments." + ";".join("+".join(per) for per in extra[0])
            raise GameError(f"key {key!r} names no transcript")
        if max(self.payments.values()) <= 0:
            raise GameError("optimum payment must be strictly positive")


def _transcripts(spec: MripSpec):
    space = [
        tuple(itertools.product(spec.alphabet, repeat=spec.rounds))
        for _ in range(spec.provers)
    ]
    return itertools.product(*space)


def build_mrip_simulation(spec: MripSpec) -> ProtocolGame:
    """Cross-examination simulation: the first prover commits the transcript,
    the second is probed on one random prover/round with a random guessed
    prefix; answers are cross-checked. Payments rescaled by 1/2.
    """
    spec.validate()
    scale = Fraction(1, 2)
    pay = spec.payments.__getitem__
    best_transcript = max(_transcripts(spec), key=pay)  # the first of the optima
    correct = 1 if best_transcript[0][0][0] == "1" else 0

    def conditional_best(i: int, prefix: tuple[str, ...]) -> Transcript:
        return max((t for t in _transcripts(spec) if t[i][: len(prefix)] == prefix), key=pay)

    round1 = tuple(itertools.product(spec.alphabet, repeat=spec.provers))
    step1_actions = tuple("send:" + "+".join(combo) for combo in round1)

    probes = []  # (i 0-based, j 1-based, prefix, prob, label, honest answer)
    for i in range(spec.provers):
        for j in range(1, spec.rounds + 1):
            for prefix in itertools.product(spec.alphabet, repeat=j - 1):
                prob = Fraction(1, spec.provers * spec.rounds * len(spec.alphabet) ** (j - 1))
                label = f"probe:{i + 1}.{j}" + ("." + "+".join(prefix) if prefix else "")
                committed = best_transcript if j == 1 else conditional_best(i, prefix)
                probes.append((i, j, prefix, prob, label, committed[i][j - 1]))

    rest_space = tuple(
        itertools.product(spec.alphabet, repeat=spec.provers * (spec.rounds - 1))
    )
    rest_actions = tuple("rest:" + "+".join(r) for r in rest_space)

    def transcript_of(step1: tuple[str, ...], rest: tuple[str, ...]) -> Transcript:
        per = []
        for i in range(spec.provers):
            tail = rest[i * (spec.rounds - 1): (i + 1) * (spec.rounds - 1)]
            per.append((step1[i],) + tail)
        return tuple(per)

    def outcome(
        transcript: Transcript, i: int, j: int, prefix: tuple[str, ...], answer: str
    ) -> TerminalNode:
        bit = 1 if transcript[0][0][0] == "1" else 0
        if transcript[i][: j - 1] != prefix:
            return TerminalNode((Fraction(0), Fraction(0)), bit)
        if transcript[i][j - 1] != answer:
            return TerminalNode((-scale, -scale), bit)
        return TerminalNode((Fraction(0), scale * pay(transcript)), bit)

    nodes: dict[History, Node] = {(): DecisionNode(1, step1_actions)}
    signals: dict[History, Any] = {(): ("root",)}
    honest = {(): "send:" + "+".join(best_transcript[i][0] for i in range(spec.provers))}
    probe_labels = tuple(pr[4] for pr in probes)
    probe_dist = tuple(pr[3] for pr in probes)
    for combo, action in zip(round1, step1_actions):
        h = (action,)
        nodes[h] = DecisionNode(NATURE, probe_labels, probe_dist)
        if spec.rounds == 2:
            # Continuations must use the same tie-break as the probe answers,
            # or the cross-check would punish the honest pair on ties.
            rest_honest = "rest:" + "+".join(
                conditional_best(i, (combo[i],))[i][1] for i in range(spec.provers)
            )
        for (i, j, prefix, _, label, answer_honest) in probes:
            hp = h + (label,)
            nodes[hp] = DecisionNode(2, spec.alphabet)
            signals[hp] = ("probe", label)
            honest[hp] = answer_honest
            for answer in spec.alphabet:
                ha = hp + (answer,)
                if spec.rounds == 1:
                    nodes[ha] = outcome(transcript_of(combo, ()), i, j, prefix, answer)
                    continue
                nodes[ha] = DecisionNode(1, rest_actions)
                signals[ha] = ("rest", action)
                honest[ha] = rest_honest
                for rest, rest_action in zip(rest_space, rest_actions):
                    nodes[ha + (rest_action,)] = outcome(
                        transcript_of(combo, rest), i, j, prefix, answer
                    )
    meta = {"protocol": "mrip", **spec.to_doc(), "scale": str(scale), "correct_bit": correct}
    return _finish(2, nodes, signals, honest, meta, scale, correct)


def honest_strategy(game_or_build: ProtocolGame | GameTree) -> StrategyProfile:
    """The profile argued dominant for a builder-produced game."""
    if isinstance(game_or_build, ProtocolGame):
        return game_or_build.honest
    meta = dict(game_or_build.meta)
    kind = meta.get("protocol")
    if kind == "three_coloring":
        vertices, edges = _get(meta, "vertices", int), _get(meta, "edges", list)
        if not all(
            isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in edges
        ):
            raise GameError("key 'edges' must be a list of integer pairs")
        build = build_three_coloring(vertices, [tuple(e) for e in edges])
    elif kind == "nexp":
        build = build_nexp_protocol(mip_from_params(_get(meta, "mip", dict), "mip."))
    elif kind == "pnexp":
        build = build_pnexp_protocol(OracleScript.from_doc(meta), mips_from_doc(meta))
    elif kind == "mrip":
        build = build_mrip_simulation(MripSpec.from_doc(meta))
    else:
        raise GameError("game does not carry builder metadata")
    return build.honest
