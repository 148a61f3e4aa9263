from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from provergames import (
    MripSpec,
    OracleScript,
    build_mrip_simulation,
    build_nexp_protocol,
    build_pnexp_protocol,
    build_three_coloring,
    fixed_soundness_mip,
    toy_clause_variable_mip,
    trees,
)

K3_EDGES = [(0, 1), (0, 2), (1, 2)]
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
PNEXP_3Q_MIPS = {"qa": (3, 3), "qb": (1, 3), "qc": (2, 2), "qd": (1, 2)}  # (k, N) per query


@pytest.fixture(autouse=True)
def empty_core_slot():
    """Every test starts with no core in the slot of `trees._core_of`, so a
    count it pins does not depend on the tests that ran before it."""
    trees._last = None
    yield
    trees._last = None


@pytest.fixture(scope="session")
def k3():
    return build_three_coloring(3, K3_EDGES)


@pytest.fixture(scope="session")
def k4():
    return build_three_coloring(4, K4_EDGES)


@pytest.fixture(scope="session")
def mini_coloring():
    # Two vertices, one edge: small enough for literal SSE enumeration.
    return build_three_coloring(2, [(0, 1)])


@pytest.fixture(scope="session")
def nexp_unsat_third():
    # False instance with soundness exactly 1/3.
    return build_nexp_protocol(fixed_soundness_mip(1, 3))


@pytest.fixture(scope="session")
def nexp_sat():
    return build_nexp_protocol(fixed_soundness_mip(3, 3))


@pytest.fixture(scope="session")
def nexp_clause_sat():
    return build_nexp_protocol(toy_clause_variable_mip(((1, 2),), 2))


@pytest.fixture(scope="session")
def pnexp_toy():
    mips = {
        "qa": fixed_soundness_mip(3, 3),
        "qb": fixed_soundness_mip(1, 3),
        "qc": fixed_soundness_mip(2, 2),
    }
    script = OracleScript(
        first="qa",
        next_query={("qa", 1): "qb", ("qa", 0): "qc"},
        output={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        num_queries=2,
    )
    return build_pnexp_protocol(script, mips)


@pytest.fixture(scope="session")
def pnexp_three_query():
    # qa first, then qb or qc, then qd; the answer is the parity of the three
    # bits. 509 nodes and 65,536 profiles.
    mips = {q: fixed_soundness_mip(*kn) for q, kn in PNEXP_3Q_MIPS.items()}
    script = OracleScript(
        first="qa",
        next_query={(q, b): "qd" for q in ("qb", "qc") for b in (0, 1)}
        | {("qa", 1): "qb", ("qa", 0): "qc"},
        output={(a, b, c): a ^ b ^ c for a in (0, 1) for b in (0, 1) for c in (0, 1)},
        num_queries=3,
    )
    return build_pnexp_protocol(script, mips)


@pytest.fixture(scope="session")
def mrip_toy():
    payments = {
        (("0",), ("0",)): Fraction(1, 4),
        (("0",), ("1",)): Fraction(1, 2),
        (("1",), ("0",)): Fraction(3, 4),
        (("1",), ("1",)): Fraction(1, 8),
    }
    return build_mrip_simulation(MripSpec(2, 1, ("0", "1"), payments))


@pytest.fixture(scope="session")
def mrip_two_round():
    payments = {}
    for m1 in "01":
        for m2 in "01":
            payments[((m1, m2),)] = Fraction(1 + int(m1) * 4 + int(m2) * 2, 8)
    return build_mrip_simulation(MripSpec(1, 2, ("0", "1"), payments))
