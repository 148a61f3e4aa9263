"""Toy one-round two-prover MIP blackboxes, the proof systems that the
membership and oracle-query protocols of `protocols` run on a yes claim.

A blackbox lists the verifier's draws with their probabilities (each draw a
pair of queries), each prover's answer alphabet per query, and a deterministic
accept predicate; a false instance carries its exact soundness. `mip_from_params`
and `mips_from_doc` rebuild blackboxes from the `params` documents that game
files and machine scripts store.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .errors import CapExceededError, GameError

DRAW_CAP = 64  # verifier draws of a fixed-soundness blackbox
ACCEPT_CALL_CAP = 1 << 18  # accept checks of a clause-var soundness scan


def _get(doc: Any, key: str, kind: type, where: str = "") -> Any:
    """`doc[key]`, which must be a `kind`; a spec document comes from outside,
    so a missing or ill-typed key raises `GameError` naming it."""
    if not isinstance(doc, dict):
        raise GameError(f"{where.rstrip('.') or 'document'} must be an object")
    if key not in doc:
        raise GameError(f"missing key {where + key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise GameError(f"key {where + key!r} must be of type {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class MipOutcome:
    label: str
    prob: Fraction
    p1_query: str
    p2_query: str


@dataclass(frozen=True)
class MipBlackbox:
    """One-round, two-prover proof system with a deterministic accept predicate."""

    name: str
    outcomes: tuple[MipOutcome, ...]
    p1_answers: tuple[tuple[str, tuple[str, ...]], ...]  # query -> alphabet
    p2_answers: tuple[tuple[str, tuple[str, ...]], ...]
    accepts: Callable[[str, str, str], bool] = field(compare=False)
    is_true: bool = True
    soundness: Fraction | None = None  # exact max accept probability when false
    honest_p1: tuple[tuple[str, str], ...] = ()
    honest_p2: tuple[tuple[str, str], ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def p1_alphabet(self, query: str) -> tuple[str, ...]:
        return dict(self.p1_answers)[query]

    def p2_alphabet(self, query: str) -> tuple[str, ...]:
        return dict(self.p2_answers)[query]


def fixed_soundness_mip(accepting: int, total: int) -> MipBlackbox:
    """Blackbox accepting canonical answers on exactly `accepting` of `total`
    equally likely verifier draws; soundness is exactly accepting/total."""
    if not (0 <= accepting <= total) or total < 1:
        raise GameError(f"need 0 <= accepting <= total, got {accepting}/{total}")
    if total > DRAW_CAP:
        raise GameError(f"total {total} exceeds cap {DRAW_CAP}")
    width = len(str(total))
    outcomes = tuple(
        MipOutcome(f"q{i:0{width}d}", Fraction(1, total), "go", "go")
        for i in range(1, total + 1)
    )
    accept_set = {f"q{i:0{width}d}" for i in range(1, accepting + 1)}

    def accepts(label: str, a1: str, a2: str) -> bool:
        return a1 == "1" and a2 == "1" and label in accept_set

    is_true = accepting == total
    return MipBlackbox(
        name=f"fixed-{accepting}-of-{total}",
        outcomes=outcomes,
        p1_answers=(("go", ("0", "1")),),
        p2_answers=(("go", ("0", "1")),),
        accepts=accepts,
        is_true=is_true,
        soundness=None if is_true else Fraction(accepting, total),
        honest_p1=(("go", "1"),),
        honest_p2=(("go", "1"),),
        params={"kind": "fixed", "accepting": accepting, "total": total},
    )


Clause = tuple[int, ...]  # nonzero ints; sign is polarity, abs is 1-based var


def _clause_satisfied(clause: Clause, assignment: Mapping[int, int]) -> bool:
    return any(
        (assignment[abs(lit)] == 1) == (lit > 0) for lit in clause
    )


def _satisfying_assignments(clauses: Sequence[Clause], num_vars: int):
    for bits in itertools.product((0, 1), repeat=num_vars):
        assignment = {v + 1: bits[v] for v in range(num_vars)}
        if all(_clause_satisfied(c, assignment) for c in clauses):
            yield assignment


def parse_dimacs(text: str) -> tuple[int, tuple[Clause, ...]]:
    num_vars = 0
    clauses: list[Clause] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise GameError(f"line {lineno}: malformed problem line {line!r}")
            num_vars = int(parts[2])
            continue
        lits = [int(tok) for tok in line.split()]
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if not lits:
            raise GameError(f"line {lineno}: empty clause")
        clauses.append(tuple(lits))
    return num_vars, tuple(clauses)


def toy_clause_variable_mip(
    clauses: Sequence[Clause], num_vars: int, repetitions: int = 1
) -> MipBlackbox:
    """Clause-versus-variable consistency test, repeated independently.

    The verifier draws a clause and a variable inside it per repetition; the
    first prover commits the clause's full assignment, the second the probed
    variable's bit; accept needs every repetition satisfied and consistent.
    The reported soundness for an unsatisfiable formula is the exact maximum
    accept probability over all prover strategy pairs; a scan that would make
    more than `ACCEPT_CALL_CAP` accept checks raises `CapExceededError` first.
    """
    if num_vars < 1 or num_vars > 4 or len(clauses) > 6 or not clauses:
        raise GameError("formula out of desk scale (at most 4 variables, 6 clauses)")
    if not (1 <= repetitions <= 3):
        raise GameError("repetitions must be between 1 and 3")
    for c in clauses:
        if not c or any(lit == 0 or abs(lit) > num_vars for lit in c):
            raise GameError(f"bad clause {c}")

    single = []
    m = len(clauses)
    clause_vars = [sorted({abs(lit) for lit in c}) for c in clauses]
    for ci, vars_in in enumerate(clause_vars):
        for v in vars_in:
            single.append((ci, v, Fraction(1, m * len(vars_in))))
    sat = next(iter(_satisfying_assignments(clauses, num_vars)), None)

    outcomes = []
    draw_of: dict[str, tuple] = {}  # outcome label -> its draw
    clause_symbols = [  # a clause's full assignments, one bit per variable
        ["".join(bits) for bits in itertools.product("01", repeat=len(vs))] for vs in clause_vars
    ]
    p1_alpha: dict[str, tuple[str, ...]] = {}
    p2_symbols = tuple("+".join(bits) for bits in itertools.product("01", repeat=repetitions))
    honest1: dict[str, str] = {}
    honest2: dict[str, str] = {}
    for draw in itertools.product(single, repeat=repetitions):
        prob = Fraction(1)
        for (_, _, p) in draw:
            prob *= p
        label = "+".join(f"c{ci + 1}.v{v}" for (ci, v, _) in draw)
        q1 = "+".join(f"c{ci + 1}" for (ci, _, _) in draw)
        q2 = "+".join(f"v{v}" for (_, v, _) in draw)
        outcomes.append(MipOutcome(label, prob, q1, q2))
        draw_of[label] = draw
        if q1 not in p1_alpha:
            p1_alpha[q1] = tuple(
                "+".join(parts)
                for parts in itertools.product(*(clause_symbols[ci] for (ci, _, _) in draw))
            )
        if sat is not None:
            honest1[q1] = "+".join(
                "".join(str(sat[v]) for v in clause_vars[ci]) for (ci, _, _) in draw
            )
            honest2[q2] = "+".join(str(sat[v]) for (_, v, _) in draw)
    p2_alpha = {o.p2_query: p2_symbols for o in outcomes}

    def accepts(label: str, a1: str, a2: str) -> bool:
        for (ci, v, _), part1, part2 in zip(draw_of[label], a1.split("+"), a2.split("+")):
            assignment = dict(zip(clause_vars[ci], (int(b) for b in part1)))
            if not _clause_satisfied(clauses[ci], assignment) or assignment[v] != int(part2):
                return False
        return True

    soundness = None
    if sat is None:
        # Unsatisfiable: exact soundness by scanning P2 strategies with a
        # per-query best response for P1.
        p2_queries = sorted(p2_alpha)
        per_strategy = sum(len(p1_alpha[o.p1_query]) for o in outcomes)
        calls = len(p2_symbols) ** len(p2_queries) * per_strategy
        if calls > ACCEPT_CALL_CAP:
            raise CapExceededError(f"{calls} accept checks exceed cap {ACCEPT_CALL_CAP}", calls)
        by_p1_query: dict[str, list[MipOutcome]] = {}
        for o in outcomes:
            by_p1_query.setdefault(o.p1_query, []).append(o)
        for combo in itertools.product(p2_symbols, repeat=len(p2_queries)):
            sigma2 = dict(zip(p2_queries, combo))
            total = Fraction(0)
            sigma1 = {}
            for q, group in sorted(by_p1_query.items()):
                best_a, best_p = None, None
                for a1 in p1_alpha[q]:
                    p = sum(
                        (o.prob for o in group if accepts(o.label, a1, sigma2[o.p2_query])),
                        Fraction(0),
                    )
                    if best_p is None or p > best_p:
                        best_a, best_p = a1, p
                sigma1[q] = best_a
                total += best_p
            if soundness is None or total > soundness:
                soundness, honest1, honest2 = total, sigma1, sigma2
    return MipBlackbox(
        name=f"clause-var-{'unsat' if sat is None else 'sat'}-{m}x{num_vars}r{repetitions}",
        outcomes=tuple(outcomes),
        p1_answers=tuple(sorted(p1_alpha.items())),
        p2_answers=tuple(sorted(p2_alpha.items())),
        accepts=accepts,
        is_true=sat is not None,
        soundness=soundness,
        honest_p1=tuple(sorted(honest1.items())),
        honest_p2=tuple(sorted(honest2.items())),
        params={
            "kind": "clause_var",
            "clauses": [list(c) for c in clauses],
            "num_vars": num_vars,
            "repetitions": repetitions,
        },
    )


def mip_from_params(params: Mapping[str, Any], where: str = "") -> MipBlackbox:
    """The blackbox a `MipBlackbox.params` document describes; `where` prefixes
    the key names in error messages."""
    kind = _get(params, "kind", str, where)
    if kind == "fixed":
        return fixed_soundness_mip(
            _get(params, "accepting", int, where), _get(params, "total", int, where)
        )
    if kind == "clause_var":
        clauses = _get(params, "clauses", list, where)
        if not all(isinstance(c, list) and all(type(x) is int for x in c) for c in clauses):
            raise GameError(f"key {where + 'clauses'!r} must be a list of integer lists")
        return toy_clause_variable_mip(
            tuple(tuple(c) for c in clauses),
            _get(params, "num_vars", int, where),
            _get(params, "repetitions", int, where),
        )
    raise GameError(f"unknown blackbox kind {kind!r}")


def mips_from_doc(doc: Mapping[str, Any]) -> dict[str, MipBlackbox]:
    """The `mips` object of a machine-script document: query name -> blackbox."""
    mips = _get(doc, "mips", dict)
    return {q: mip_from_params(_get(mips, q, dict, "mips."), f"mips.{q}.") for q in mips}
