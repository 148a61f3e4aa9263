"""Command-line front end.

Exit codes: 0 for a true verdict or successful build, 1 for a false verdict
(not an SSE, no dominant profile, gap not met, ...), 2 for usage or input
errors. Reports are deterministic byte-for-byte given identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import gamefile
from .equilibrium import enumerate_sse, is_sse
from .errors import GameError, GameFileError
from .gaps import answer_bit_distribution, gap_threshold, verify_utility_gap
from .pruning import prune_nature, verify_pruning
from .protocols import (
    MripSpec,
    OracleScript,
    build_mrip_simulation,
    build_nexp_protocol,
    build_pnexp_protocol,
    build_three_coloring,
    fixed_soundness_mip,
    mips_from_doc,
    parse_dimacs,
    toy_clause_variable_mip,
)
from .subforms import find_dominant_sse
from .trees import (
    DEFAULT_PROFILE_CAP,
    GameTree,
    StrategyProfile,
    check_perfect_recall,
    rational,
    utility_vector,
    validate_game,
)

DEFAULT_NODE_CAP = 10**5


def _write(path: str | None, text: str) -> None:
    """Write `text` to the file at `path`, or to stdout when there is none."""
    if path:
        with open(path, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, doc: dict, text_lines: list[str], stdout: bool = False) -> None:
    """The report in `args.format`, to `--out` unless `stdout` is set."""
    if args.format == "structured":
        text = gamefile.dumps(doc)
    else:
        text = "\n".join(text_lines) + "\n"
    _write(None if stdout else args.out, text)


def _check_nodes(args, game: GameTree) -> None:
    if len(game.nodes) > args.max_nodes:
        raise GameError(f"game has {len(game.nodes)} nodes, over --max-nodes {args.max_nodes}")


def _read_game(args) -> GameTree:
    with open(args.game) as fp:
        game, _ = gamefile.load_game(fp)
    _check_nodes(args, game)
    return game


def _load_game(args) -> GameTree:
    """A structurally valid game: the analyses assume one."""
    game = _read_game(args)
    report = validate_game(game)
    if not report.ok:
        v = report.violations[0]
        raise GameFileError(
            f"{args.game}: invalid game, {v.code} at {v.where or '<root>'}: {v.message}"
        )
    return game


def _load_strategy(path: str, game: GameTree) -> StrategyProfile:
    """A strategy document that names only information sets of `game`."""
    with open(path) as fp:
        s = gamefile.load_strategy(fp)
    for key, _ in s.choices:
        if key not in game.set_by_key:
            raise GameFileError(f"choices[{key!r}]: the game has no such information set")
    return s


def _cmd_build(args) -> int:
    fixed = args.fixed_soundness is not None
    if fixed and args.protocol != "nexp":
        raise GameError("--fixed-soundness applies only to protocol 'nexp'")
    if fixed and args.instance is not None:
        raise GameError("protocol 'nexp' takes an instance file or --fixed-soundness, not both")
    if args.repetitions is not None and (args.protocol != "nexp" or fixed):
        raise GameError("--repetitions applies only to protocol 'nexp' on a DIMACS instance")
    if not fixed and args.instance is None:
        raise GameError(f"protocol {args.protocol!r} requires an instance file")
    if args.protocol == "three-coloring":
        edges = []
        vertices = 0
        with open(args.instance) as fp:
            for raw in fp:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                u, v = (int(tok) for tok in line.split())
                edges.append((u, v))
                vertices = max(vertices, u + 1, v + 1)
        build = build_three_coloring(vertices, edges)
    elif args.protocol == "nexp":
        if fixed:
            frac = rational(args.fixed_soundness)
            mip = fixed_soundness_mip(frac.numerator, frac.denominator)
        else:
            with open(args.instance) as fp:
                num_vars, clauses = parse_dimacs(fp.read())
            repetitions = 1 if args.repetitions is None else args.repetitions
            mip = toy_clause_variable_mip(clauses, num_vars, repetitions)
        build = build_nexp_protocol(mip)
    elif args.protocol == "pnexp":
        with open(args.instance) as fp:
            doc = gamefile.loads(fp.read())
        build = build_pnexp_protocol(OracleScript.from_doc(doc), mips_from_doc(doc))
    elif args.protocol == "mrip":
        with open(args.instance) as fp:
            doc = gamefile.loads(fp.read())
        build = build_mrip_simulation(MripSpec.from_doc(doc))
    else:  # pragma: no cover - argparse restricts choices
        raise GameError(f"unknown protocol {args.protocol}")
    _check_nodes(args, build.game)
    _write(args.out, gamefile.dumps(gamefile.game_to_doc(build.game)))
    if args.honest_out:
        _write(args.honest_out, gamefile.dumps(gamefile.strategy_to_doc(build.honest)))
    return 0


def _cmd_validate(args) -> int:
    game = _read_game(args)
    report = validate_game(game)
    recall = check_perfect_recall(game) if report.ok else None
    violations = list(report.violations) + list(recall.violations if recall else ())
    doc = {"valid": not violations, "violations": violations}
    lines = ["valid" if not violations else "invalid"]
    lines += [f"{v.code} at {v.where or '<root>'}: {v.message}" for v in violations]
    _emit(args, gamefile.report_doc("validate", doc), lines)
    return 0 if not violations else 1


def _cmd_check_sse(args) -> int:
    game = _load_game(args)
    s = _load_strategy(args.strategy, game)
    cert = is_sse(game, s)
    doc = gamefile.report_doc("sse", {"certificate": cert})
    lines = [f"sse: {str(cert.verdict).lower()}"]
    for v in cert.violations:
        where = "reachable" if v.reachable else "unreachable"
        lines.append(
            f"violation at {v.set_key} ({where}): {v.current} -> {v.better} gains {v.delta}"
        )
    _emit(args, doc, lines)
    return 0 if cert.verdict else 1


def _cmd_enumerate(args) -> int:
    game = _load_game(args)
    sses = enumerate_sse(game, cap=args.max_profiles)
    doc = gamefile.report_doc(
        "enumerate-sse",
        {"count": len(sses), "profiles": [dict(s.choices) for s in sses]},
    )
    lines = [f"sse count: {len(sses)}"]
    for s in sses:
        lines.append("  " + ", ".join(f"{k}={a}" for k, a in s.choices))
    _emit(args, doc, lines)
    return 0


def _cmd_find_dominant(args) -> int:
    game = _load_game(args)
    dom = find_dominant_sse(game, profile_cap=args.max_profiles)
    if dom is None:
        _emit(args, gamefile.report_doc("dominant", {"found": False}), ["no dominant SSE"])
        return 1
    answers = answer_bit_distribution(game, dom)
    utilities = [str(u) for u in utility_vector(game, dom)]
    doc = gamefile.report_doc(
        "dominant",
        {
            "found": True,
            "profile": dict(dom.choices),
            "answer_bits": {str(k): str(v) for k, v in answers.items() if v},
            "utilities": utilities,
        },
    )
    lines = [
        "dominant SSE found",
        "answer bits: " + ", ".join(f"{k}:{v}" for k, v in sorted(answers.items()) if v),
        "utilities: " + ", ".join(utilities),
    ]
    if args.strategy_out:
        _write(args.strategy_out, gamefile.dumps(gamefile.strategy_to_doc(dom)))
    _emit(args, doc, lines)
    return 0


def _cmd_check_gap(args) -> int:
    game = _load_game(args)
    alpha = rational(args.alpha)
    gap_threshold(alpha)  # reject a non-positive alpha before any search
    if args.strategy:
        s_star = _load_strategy(args.strategy, game)
    else:
        s_star = find_dominant_sse(game, profile_cap=args.max_profiles)
        if s_star is None:
            raise GameError("no dominant SSE; supply --strategy explicitly")
    if args.correct_bit is not None:
        correct = args.correct_bit
    elif "correct_bit" in game.meta:
        correct = game.meta["correct_bit"]
        if type(correct) is not int or correct not in (0, 1):
            raise GameFileError(f"meta.correct_bit: must be 0 or 1 (an integer), got {correct!r}")
    else:
        raise GameError("no --correct-bit given and game metadata has none")
    report = verify_utility_gap(game, s_star, alpha, correct, cap=args.max_profiles)
    doc = gamefile.report_doc("gap", {"report": report})
    lines = [
        f"gap verdict at alpha={alpha}: {str(report.verdict).lower()}",
        f"wrong profiles: {report.wrong_profiles}",
        f"measured gap: {report.measured_gap}",
    ]
    _emit(args, doc, lines)
    return 0 if report.verdict else 1


def _cmd_prune(args) -> int:
    game = _load_game(args)
    s = _load_strategy(args.strategy, game)
    pruned, interval_map = prune_nature(game, s, args.alpha, args.prover)
    report = verify_pruning(
        game, pruned, s, args.alpha, designated_prover=args.prover,
        profile_cap=args.max_profiles,
    )
    if args.out:
        _write(args.out, gamefile.dumps(gamefile.game_to_doc(pruned)))
    doc = gamefile.report_doc("prune", {"intervals": interval_map, "report": report})
    lines = [
        f"pruned by prover {args.prover} at alpha={args.alpha}",
        f"support ok: {str(all(e.ok for e in report.support)).lower()}",
        f"designated drift ok: {str(report.claim2_ok).lower()}",
        f"dominance preserved: {report.dominance_ok}",
    ]
    _emit(args, doc, lines, stdout=True)
    return 0 if report.ok else 1


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="provergames",
        description="Build and analyze verifier-prover payment games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, game=True):
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--max-profiles", type=int, default=DEFAULT_PROFILE_CAP)
        p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_CAP)
        if game:
            p.add_argument("game")

    p = sub.add_parser("build", help="compile a protocol instance to a game file")
    p.add_argument("protocol", choices=("three-coloring", "nexp", "pnexp", "mrip"))
    p.add_argument("instance", nargs="?", help="instance file (edge list, DIMACS, JSON)")
    p.add_argument("--repetitions", type=int, help="nexp on a DIMACS instance: 1..3 (default 1)")
    p.add_argument("--fixed-soundness", help="k/N blackbox instead of a CNF instance")
    p.add_argument("--honest-out", help="also write the honest strategy here")
    common(p, game=False)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("validate", help="structural and perfect-recall checks")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check-sse", help="one-shot deviation check of a profile")
    common(p)
    p.add_argument("strategy")
    p.set_defaults(func=_cmd_check_sse)

    p = sub.add_parser("enumerate-sse", help="list all pure SSEs")
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("find-dominant", help="search for a dominant SSE")
    common(p)
    p.add_argument("--strategy-out", help="write the dominant profile here")
    p.set_defaults(func=_cmd_find_dominant)

    p = sub.add_parser("check-gap", help="verify the utility-gap guarantee")
    common(p)
    p.add_argument("--alpha", required=True, help="gap parameter, e.g. 2 or 6/5")
    p.add_argument("--correct-bit", type=int, choices=(0, 1))
    p.add_argument("--strategy", help="dominant profile file (default: search)")
    p.set_defaults(func=_cmd_check_gap)

    p = sub.add_parser("prune", help="collapse Nature moves to small support")
    common(p)
    p.add_argument("strategy")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--prover", type=int, required=True)
    p.set_defaults(func=_cmd_prune)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GameError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
