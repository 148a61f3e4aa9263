"""The benchmark's workloads: seeded inputs, timed jobs and exact output checks.

Each workload turns a seed into an input set and a list of jobs. A job's `run`
is the timed analysis; `report` renders its canonical report (the
`gamefile.dumps` text of a report document) for hashing; `check` applies
exact, seed-independent checks and returns the problems it found. Neither
`report` nor `check` is timed.

Jobs come in blocks. Every block of a workload holds the same mix of job
kinds and cost bands, and a timed run ends on a block boundary, so the mix a
run measures does not depend on the seed or on where the deadline falls.

Why these workloads:

- gap-scan: `verify_utility_gap` over every profile of protocol and random
  games. It is dominated by splices and full-tree passes and makes no
  `is_sse` call, so it is where a splice-free gap scan must show a gain.
- sse-enum: `enumerate_sse`, the dominance induction, the max-total pick and
  limit beliefs on the criterion-7 family. It is dominated by the
  per-profile SSE check and makes no splice, so it is where a faster
  evaluation core or a search-based enumeration must show a gain, and where a
  splice-free gap scan must not move anything.
- cli-pipeline: `provergames.cli.main` in-process on game files. It is the
  only workload that dumps and loads game files, runs the protocol builders
  and the perfect-information class search, and prunes. Each tree is loaded
  fresh and analysed a few times, so a per-tree cache amortises poorly here
  while the other two workloads evaluate thousands of profiles per tree.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from provergames import (
    beliefs,
    cli,
    equilibrium,
    gamefile,
    gaps,
    protocols,
    subforms,
    trees,
)
from provergames.trees import StrategyProfile, profile_space_size

import corpus

DEFAULT_SEED = 1


@dataclass
class Job:
    key: str  # identity within the seed's input set; digests are keyed by it
    run: Callable[[], Any]
    report: Callable[[Any], str]
    check: Callable[[Any], list[str]]
    profiles: int = 0  # profiles `run` enumerates with is_sse, for the trace self-check


@dataclass
class Inputs:
    head: list[Job]  # run once at the start of a timed run
    blocks: list[list[Job]]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], Inputs]
    trace_blocks: int  # blocks in the fixed job list of a traced run


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def _report(kind: str, payload: Any) -> str:
    return gamefile.dumps(gamefile.report_doc(kind, payload))


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# ---------------------------------------------------------------------------
# gap-scan
# ---------------------------------------------------------------------------

# The pnexp toy of the test fixtures: 187 nodes, 4096 profiles.
TOY_SCRIPT = protocols.OracleScript(
    first="qa",
    next_query={("qa", 1): "qb", ("qa", 0): "qc"},
    output={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
    num_queries=2,
)
TOY_MIPS = {"qa": (3, 3), "qb": (1, 3), "qc": (2, 2)}

GAP_BLOCKS = 40
GAP_RANDOM_QUOTAS = {13: 2, 14: 2}  # cost band -> random games per block


def _query_gap(mip: protocols.MipBlackbox) -> Fraction:
    """Unscaled gap of re-proving one query: 1/2 if true, 3/2 - 2*soundness if false.

    Criterion 2 of the acceptance suite for nexp; for a one-query pnexp script
    the same value holds while it lies in [0, 1], which the soundness range
    drawn below guarantees.
    """
    return Fraction(1, 2) if mip.is_true else Fraction(3, 2) - 2 * mip.soundness


def _gap_job(
    key: str,
    game: trees.GameTree,
    s_star: StrategyProfile,
    alpha: Fraction,
    correct_bit: int,
    expected_gap: Fraction | None,
) -> Job:
    def run():
        return gaps.verify_utility_gap(game, s_star, alpha, correct_bit)

    def check(rep) -> list[str]:
        problems: list[str] = []
        if rep.wrong_profiles == 0:  # every profile answers correctly: nothing to punish
            _expect(problems, rep.verdict and rep.worst is None, "verdict without wrong profiles")
            _expect(problems, expected_gap is None, "protocol game without wrong profiles")
            return problems
        _expect(problems, rep.verdict == (rep.measured_gap > rep.threshold), "verdict")
        if expected_gap is not None:
            _expect(problems, rep.measured_gap == expected_gap, "known protocol gap")
            return problems
        # Random game: replay the binding wrong profile's witness splice.
        worst = rep.worst
        s = StrategyProfile(worst.profile)
        _expect(problems, gaps.answer_bit_distribution(game, s)[correct_bit] != 1, "wrong bit")
        sf = next(f for f in subforms.find_subforms(game) if f.key == worst.witness_subform)
        spliced = trees.utility_vector(game, gaps.splice(game, s, sf, s_star))
        loss = spliced[worst.witness_prover - 1] - trees.utility_vector(game, s)[worst.witness_prover - 1]
        _expect(problems, loss == rep.measured_gap == worst.max_loss, "witness splice loss")
        return problems

    return Job(key, run, lambda rep: _report("gap", rep), check)


def _random_gap_game(rng: random.Random):
    """A 512-2048 profile game and a reference profile with a certain answer bit."""
    game = corpus.random_game(
        rng, provers=2, max_nodes=20, max_depth=4, max_actions=3, max_prover_sets=8
    )
    if not 512 <= profile_space_size(game) <= 2048:
        return None
    for _ in range(8):
        s = corpus.random_profile(rng, game)
        bits = gaps.answer_bit_distribution(game, s)
        for bit in (0, 1):
            if bits[bit] == 1:
                return game, s, bit
    return None


def setup_gap_scan(seed: int, workdir: str) -> Inputs:
    toy = protocols.build_pnexp_protocol(
        TOY_SCRIPT,
        {q: protocols.fixed_soundness_mip(*kn) for q, kn in TOY_MIPS.items()},
    )
    # Threshold scale/5 sits below the binding loss scale/4 (criterion 3).
    head = [
        _gap_job(
            "pnexp-toy", toy.game, toy.honest, 5 / toy.scale, toy.correct_bit,
            toy.scale * Fraction(1, 2) * Fraction(1, 2),
        )
    ]
    rng = _rng("gap-scan", seed, "protocols")
    protocol_jobs = []
    for b in range(GAP_BLOCKS):
        total = rng.randint(2, 7)
        mip = protocols.fixed_soundness_mip(rng.randint(0, total), total)
        build = protocols.build_nexp_protocol(mip)
        alpha = Fraction(rng.choice((2, 3, 4, 10**6)))
        nexp = _gap_job(
            f"b{b:02d}.nexp", build.game, build.honest, alpha, build.correct_bit,
            build.scale * _query_gap(mip),
        )
        total = rng.randint(2, 5)
        accepting = rng.choice(
            [total] + [k for k in range(total) if 4 * k >= total and 4 * k <= 3 * total]
        )
        mip = protocols.fixed_soundness_mip(accepting, total)
        flip = rng.randrange(2)
        script = protocols.OracleScript("q", {}, {(0,): flip, (1,): 1 - flip}, 1)
        build = protocols.build_pnexp_protocol(script, {"q": mip})
        pnexp = _gap_job(
            f"b{b:02d}.pnexp", build.game, build.honest, alpha, build.correct_bit,
            build.scale * _query_gap(mip),
        )
        protocol_jobs.append([nexp, pnexp])

    rng = _rng("gap-scan", seed, "random")
    pool = corpus.stratified_pool(
        lambda: _random_gap_game(rng),
        lambda item: corpus.cost_band(item[0]),
        GAP_RANDOM_QUOTAS,
        GAP_BLOCKS,
    )
    blocks = []
    for b, (fixed, randoms) in enumerate(zip(protocol_jobs, pool)):
        jobs = list(fixed)
        for i, (game, s_star, bit) in enumerate(randoms):
            jobs.append(_gap_job(f"b{b:02d}.random{i}", game, s_star, Fraction(10**6), bit, None))
        blocks.append(jobs)
    return Inputs(head, corpus.shuffle_within(_rng("gap-scan", seed, "order"), blocks))


# ---------------------------------------------------------------------------
# sse-enum
# ---------------------------------------------------------------------------

SSE_BLOCKS = 26
# Games per block of 32 by cost band (log2 profiles x nodes): close to the
# criterion-7 family's own frequencies, bands 1-3 merged, bands 14 and above
# left out. The median job lies inside band 10 and the 90th percentile inside
# band 13, not on a border between bands, where they would jump with the seed.
SSE_QUOTAS = {3: 4, 4: 1, 5: 2, 6: 2, 7: 2, 8: 2, 9: 2, 10: 4, 11: 4, 12: 5, 13: 4}


def _dominates_all(vec, vectors) -> bool:
    return all(all(a >= b for a, b in zip(vec, w)) for w in vectors)


def _sse_job(key: str, game: trees.GameTree) -> Job:
    def run():
        sses = equilibrium.enumerate_sse(game)
        dominant = subforms.dominant_sse_set(game, sses)
        best = equilibrium.max_total_utility_sse(game, sses) if sses else None
        rational = []
        for s in sses:
            mu, _ = beliefs.limit_beliefs(game, s)
            rational.append(beliefs.verify_sequential_rationality(game, s, mu).verdict)
        return sses, dominant, best, rational

    def report(result) -> str:
        sses, dominant, best, rational = result
        return _report(
            "sse-enum",
            {
                "sses": [s.as_dict() for s in sses],
                "dominant": [sses.index(s) for s in dominant],
                "max_total": None if best is None else {"profile": best[0].as_dict(), "dominant": best[1]},
                "rational": rational,
            },
        )

    def check(result) -> list[str]:
        sses, dominant, best, rational = result
        problems: list[str] = []
        rng = random.Random(key)
        _expect(problems, all(rational), "SSE not sequentially rational under limit beliefs")
        _expect(problems, all(s in sses for s in dominant), "dominant set outside SSE set")
        if sses:
            _expect(
                problems,
                equilibrium.is_sse_bruteforce(game, rng.choice(sses)).verdict,
                "sampled SSE fails the brute-force check",
            )
            vectors = [trees.utility_vector(game, s) for s in sses]
            exists = any(_dominates_all(v, vectors) for v in vectors)
            top = trees.utility_vector(game, best[0])
            _expect(problems, best[1] == exists, "max-total dominance flag")
            _expect(problems, not exists or _dominates_all(top, vectors), "max-total pick")
        other = corpus.random_profile(rng, game)
        if other not in sses:
            _expect(
                problems,
                not equilibrium.is_sse_bruteforce(game, other).verdict,
                "brute force finds an SSE the enumeration missed",
            )
        return problems

    return Job(key, run, report, check, profiles=profile_space_size(game))


def setup_sse_enum(seed: int, workdir: str) -> Inputs:
    rng = _rng("sse-enum", seed, "games")
    drawn = itertools.count()

    def draw():
        i = next(drawn)
        game = corpus.random_game(
            rng,
            provers=2,
            max_nodes=20 + (i % 10) * 20,
            max_depth=3 + (i % 3),
            max_actions=3,
            max_prover_sets=6,
        )
        return game if profile_space_size(game) <= 3000 else None

    pool = corpus.stratified_pool(
        draw, lambda g: max(corpus.cost_band(g), 3), SSE_QUOTAS, SSE_BLOCKS
    )
    blocks = [
        [_sse_job(f"b{b:02d}.g{i:02d}", g) for i, g in enumerate(games)]
        for b, games in enumerate(pool)
    ]
    return Inputs([], corpus.shuffle_within(_rng("sse-enum", seed, "order"), blocks))


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

CLI_BLOCKS = 36
MRIP_SHAPES = ((1, "01"), (1, "012"), (1, "0123"), (2, "01"))  # provers, alphabet
# Satisfiable formulas, (variables, clauses); at one repetition each game has
# at most 128 profiles. (An unsatisfiable formula's one-repetition game has no
# dominant SSE, so it offers no exact expectation to check.)
DIMACS = (
    (2, ((1, 2),)),
    (2, ((1,), (-1, 2))),
    (2, ((1, -2), (2,))),
    (2, ((1, 2), (-1, -2))),
    (3, ((1, 2, 3),)),
)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _pipeline(steps: list[list[str]]) -> Callable[[], list[tuple[int, str]]]:
    return lambda: [_cli(argv) for argv in steps]


def _pipeline_report(result) -> str:
    return _report(
        "cli-pipeline", {"steps": [{"exit": code, "stdout": out} for code, out in result]}
    )


def _load(path: str) -> trees.GameTree:
    with open(path) as fp:
        return gamefile.load_game(fp)[0]


def _load_strategy(path: str) -> StrategyProfile:
    with open(path) as fp:
        return gamefile.load_strategy(fp)


def _write(path: str, text: str) -> str:
    """Write an input file, unless it already holds `text`.

    Every build in a run writes the same input files to the same paths.
    Rewriting identical bytes would time the disk, whose speed drifts with
    its recent writes and deletes, rather than the set-up.
    """
    try:
        with open(path) as fp:
            if fp.read() == text:
                return path
    except FileNotFoundError:
        pass
    with open(path, "w") as fp:
        fp.write(text)
    return path


def _write_strategy(path: str, s: StrategyProfile) -> str:
    return _write(path, gamefile.dumps(gamefile.strategy_to_doc(s)))


def _random_graph(rng: random.Random, vertices: int, count: int) -> list[tuple[int, int]]:
    """`count` edges touching the last vertex: the CLI counts vertices from the edges."""
    pairs = list(itertools.combinations(range(vertices), 2))
    while True:
        edges = sorted(rng.sample(pairs, count))
        if any(vertices - 1 in e for e in edges):
            return edges


def _colorable(vertices: int, edges) -> bool:
    return any(
        all(c[u] != c[v] for u, v in edges)
        for c in itertools.product(range(3), repeat=vertices)
    )


def _check_sse_step(problems, game_path, strategy_path, step, brute: bool) -> None:
    code, out = step
    verdict = json.loads(out)["certificate"]["verdict"]
    _expect(problems, code == (0 if verdict else 1), "check-sse exit code")
    if brute:
        expected = equilibrium.is_sse_bruteforce(
            _load(game_path), _load_strategy(strategy_path)
        ).verdict
        _expect(problems, verdict == expected, "check-sse verdict differs from brute force")


def _valid_step(problems, step) -> None:
    code, out = step
    _expect(problems, code == 0 and json.loads(out)["valid"], "validate")


def _coloring_job(key: str, d: str, rng: random.Random, vertices: int, edges) -> Job:
    instance = _write(os.path.join(d, "graph.edges"), "".join(f"{u} {v}\n" for u, v in edges))
    game, honest = os.path.join(d, "game"), os.path.join(d, "honest")
    build = protocols.build_three_coloring(vertices, list(edges))
    seeded = _write_strategy(os.path.join(d, "seeded"), corpus.random_profile(rng, build.game))
    colorable = _colorable(vertices, edges)
    steps = [
        ["build", "three-coloring", instance, "--out", game, "--honest-out", honest],
        ["validate", game, "--format", "structured"],
        ["find-dominant", game, "--format", "structured"],
        ["check-sse", game, seeded, "--format", "structured"],
    ]

    def check(result) -> list[str]:
        problems: list[str] = []
        _expect(problems, result[0][0] == 0, "build")
        _valid_step(problems, result[1])
        code, out = result[2]
        doc = json.loads(out)
        scale = build.scale
        want_bits = {"1": "1"} if colorable else {"0": "1"}
        want_utils = [str(2 * scale), str(scale)] if colorable else [str(scale), str(scale)]
        _expect(
            problems,
            code == 0 and doc["answer_bits"] == want_bits and doc["utilities"] == want_utils,
            "coloring dominant SSE (criterion 1)",
        )
        _check_sse_step(problems, game, seeded, result[3], brute=False)
        return problems

    return Job(key, _pipeline(steps), _pipeline_report, check)


def _nexp_job(key: str, d: str, rng: random.Random, formula) -> Job:
    game, honest = os.path.join(d, "game"), os.path.join(d, "honest")
    if formula is None:
        total = rng.randint(2, 7)
        # Above soundness 3/4 a false claim pays more than the honest no.
        accepting = rng.choice([total] + [k for k in range(total) if 4 * k < 3 * total])
        rho = Fraction(accepting, total)  # the CLI reads k/N as a reduced fraction
        build_args = ["--fixed-soundness", str(rho)]
        mip = protocols.fixed_soundness_mip(rho.numerator, rho.denominator)
    else:
        num_vars, clauses = formula
        text = f"p cnf {num_vars} {len(clauses)}\n" + "".join(
            " ".join(str(x) for x in c) + " 0\n" for c in clauses
        )
        build_args = [_write(os.path.join(d, "formula.cnf"), text)]
        mip = protocols.toy_clause_variable_mip(clauses, num_vars, 1)
    build = protocols.build_nexp_protocol(mip)
    seeded = _write_strategy(os.path.join(d, "seeded"), corpus.random_profile(rng, build.game))
    steps = [
        ["build", "nexp", *build_args, "--out", game, "--honest-out", honest],
        ["validate", game, "--format", "structured"],
        ["check-sse", game, seeded, "--format", "structured"],
        ["find-dominant", game, "--format", "structured"],
    ]

    def check(result) -> list[str]:
        problems: list[str] = []
        _expect(problems, result[0][0] == 0, "build")
        _valid_step(problems, result[1])
        _check_sse_step(problems, game, seeded, result[2], brute=True)
        code, out = result[3]
        doc = json.loads(out)
        _expect(
            problems,
            code == 0 and doc["answer_bits"] == {str(build.correct_bit): "1"},
            "nexp dominant SSE answers correctly",
        )
        return problems

    return Job(key, _pipeline(steps), _pipeline_report, check)


def _mrip_job(key: str, d: str, rng: random.Random, provers: int, alphabet: str) -> Job:
    transcripts = list(itertools.product(*[list(alphabet)] * provers))
    values = rng.sample(range(1, 17), len(transcripts))  # distinct: a unique optimum
    spec = {
        "provers": provers,
        "rounds": 1,
        "alphabet": list(alphabet),
        "payments": {";".join(t): f"{v}/16" for t, v in zip(transcripts, values)},
    }
    instance = _write(os.path.join(d, "spec.json"), json.dumps(spec))
    game, honest = os.path.join(d, "game"), os.path.join(d, "honest")
    steps = [
        ["build", "mrip", instance, "--out", game, "--honest-out", honest],
        ["validate", game, "--format", "structured"],
        ["check-sse", game, honest, "--format", "structured"],
        ["find-dominant", game, "--format", "structured"],
    ]

    def check(result) -> list[str]:
        problems: list[str] = []
        _expect(problems, result[0][0] == 0, "build")
        _valid_step(problems, result[1])
        _check_sse_step(problems, game, honest, result[2], brute=True)
        code, out = result[3]
        _expect(
            problems,
            code == 0 and json.loads(out)["profile"] == _load_strategy(honest).as_dict(),
            "mrip honest transcript is the dominant SSE (criterion 9)",
        )
        return problems

    return Job(key, _pipeline(steps), _pipeline_report, check)


def _prune_job(key: str, d: str, rng: random.Random, lottery: trees.GameTree) -> Job:
    game = _write(os.path.join(d, "game"), gamefile.dumps(gamefile.game_to_doc(lottery)))
    dom, pruned = os.path.join(d, "dominant"), os.path.join(d, "pruned")
    alpha = str(rng.randint(1, 2))
    steps = [
        ["validate", game, "--format", "structured"],
        ["find-dominant", game, "--format", "structured", "--strategy-out", dom],
        ["prune", game, dom, "--alpha", alpha, "--prover", "1", "--out", pruned, "--format", "structured"],
    ]

    def check(result) -> list[str]:
        problems: list[str] = []
        _valid_step(problems, result[0])
        _expect(problems, result[1][0] == 0, "single-prover game has a dominant SSE")
        code, out = result[2]
        rep = json.loads(out)["report"]
        _expect(problems, all(e["ok"] for e in rep["support"]), "support bound")
        _expect(problems, rep["claim2_ok"], "designated drift bound")
        _expect(
            problems,
            rep["dominance_checked"] and rep["dominance_ok"] is True,
            "dominance preserved (criterion 6)",
        )
        _expect(problems, code == 0, "prune exit code")
        return problems

    return Job(key, _pipeline(steps), _pipeline_report, check)


def _lottery_band(game: trees.GameTree) -> int:
    """Cost bands of the criterion-6 family merged as <=7, 8-9, 10-11; from
    12 up in half octaves (24 is 2^12 to 2^12.5, 25 is 2^12.5 to 2^13)."""
    band = corpus.cost_band(game)
    return corpus.cost_band(game, per_octave=2) if band >= 12 else max(band, 7) // 2 * 2


# Root-lottery games per block by merged cost band. The top quarter of the
# family's cost range gets two games, so the 90th percentile falls inside it.
# Both come from the upper half of band 12: band 12 mixes games of 216
# profiles with games of 288 or 324, which take about 1.4 times as long, so
# with both kinds the 90th percentile would sit on the gap between them and
# jump with the share each seed happens to draw. Band 13 is left out.
LOTTERY_QUOTAS = {6: 1, 8: 1, 10: 1, 25: 2}


def setup_cli_pipeline(seed: int, workdir: str) -> Inputs:
    """Per block: a 3- and a 4-vertex coloring, an nexp, an mrip and five prunes.

    Cost is set by the shape of each instance, so shapes cycle with the block
    index (edge counts 1-3 and 1-6, so K3 and K4 recur; fixed-soundness and
    DIMACS nexp in turn; the four mrip shapes) and the seed fills in the rest:
    which edges and soundness, the mrip payments and the check-sse profiles.
    The root-lottery games of a block come from the quartiles of their cost.
    """
    rng = _rng("cli-pipeline", seed, "instances")
    lottery_rng = _rng("cli-pipeline", seed, "lotteries")
    lotteries = corpus.stratified_pool(
        lambda: corpus.random_root_lottery_game(lottery_rng, profile_cap=512),
        _lottery_band,
        LOTTERY_QUOTAS,
        CLI_BLOCKS,
    )
    blocks = []
    for b in range(CLI_BLOCKS):
        def place(kind: str) -> tuple[str, str]:
            key = f"b{b:02d}.{kind}"
            d = os.path.join(workdir, key)
            os.makedirs(d, exist_ok=True)
            return key, d

        formula = None if b % 2 == 0 else DIMACS[b // 2 % len(DIMACS)]
        jobs = [
            _coloring_job(*place("coloring3"), rng, 3, _random_graph(rng, 3, 1 + b % 3)),
            _coloring_job(*place("coloring4"), rng, 4, _random_graph(rng, 4, 1 + b % 6)),
            _nexp_job(*place("nexp"), rng, formula),
            _mrip_job(*place("mrip"), rng, *MRIP_SHAPES[b % len(MRIP_SHAPES)]),
        ]
        for i, lottery in enumerate(lotteries[b]):
            jobs.append(_prune_job(*place(f"prune{i}"), rng, lottery))
        blocks.append(jobs)
    return Inputs([], corpus.shuffle_within(_rng("cli-pipeline", seed, "order"), blocks))


# Why each workload exists is stated in the module docstring and, in one
# line each, in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gap-scan", setup_gap_scan, trace_blocks=6),
        Workload("sse-enum", setup_sse_enum, trace_blocks=10),
        Workload("cli-pipeline", setup_cli_pipeline, trace_blocks=16),
    )
}
