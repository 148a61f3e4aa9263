"""Outside-in layer trace: spans and counters around calls into provergames.

The tracer wraps the public functions named in `TRACED` and rebinds each
wrapper in every `provergames` module that holds the original. Rebinding only
the defining module would miss calls: `from .trees import reach_map` gives
`equilibrium` its own name for the function.

A span is (function, start, end, parent span, job). Everything runs in one
thread, so spans nest strictly and a span's self time is its duration minus
the durations of its direct children. No layer queues or waits, so waiting
time is absent, not zero. Spans stay in memory and are written out by
`write_spans` when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = (
    "trees",
    "equilibrium",
    "beliefs",
    "subforms",
    "gaps",
    "pruning",
    "gamefile",
    "protocols",
    "cli",
)

TRACED = {
    "trees": ("continuation_values", "reach_map", "utility_vector"),
    "equilibrium": ("is_sse", "enumerate_sse"),
    "beliefs": ("limit_beliefs", "verify_sequential_rationality"),
    "subforms": ("find_subforms", "dominant_sse_set", "find_dominant_sse"),
    "gaps": ("verify_utility_gap", "splice", "answer_bit_distribution"),
    "pruning": ("prune_nature", "verify_pruning"),
    "gamefile": ("dumps", "loads", "game_to_doc", "game_from_doc"),
    "protocols": (
        "build_three_coloring",
        "build_nexp_protocol",
        "build_pnexp_protocol",
        "build_mrip_simulation",
    ),
    "cli": ("main",),
}


def _observers() -> dict[str, Callable[[dict, tuple, Any], None]]:
    """Per-function counters taken from arguments and results."""

    def nodes_of_first_arg(c, args, result):
        c["trees.nodes_visited"] += len(args[0].nodes)

    def is_sse(c, args, result):
        c["equilibrium.is_sse.ops"] += result.stats.get("ops", 0)
        c["equilibrium.is_sse.true"] += bool(result.verdict)

    def dominant_sse_set(c, args, result):
        c["subforms.dominant_sse_set.input_sses"] += len(args[1])

    def verify_utility_gap(c, args, result):
        c["gaps.wrong_profiles"] += result.wrong_profiles

    def dumps(c, args, result):
        c["gamefile.dumps.bytes"] += len(result)

    def loads(c, args, result):
        c["gamefile.loads.bytes"] += len(args[0])

    def build(c, args, result):
        c["protocols.build.nodes"] += len(result.game.nodes)

    def main(c, args, result):
        c["cli.main.exit_nonzero"] += result != 0

    return {
        "trees.continuation_values": nodes_of_first_arg,
        "trees.reach_map": nodes_of_first_arg,
        "equilibrium.is_sse": is_sse,
        "subforms.dominant_sse_set": dominant_sse_set,
        "gaps.verify_utility_gap": verify_utility_gap,
        "gamefile.dumps": dumps,
        "gamefile.loads": loads,
        "protocols.build_three_coloring": build,
        "protocols.build_nexp_protocol": build,
        "protocols.build_pnexp_protocol": build,
        "protocols.build_mrip_simulation": build,
        "cli.main": main,
    }


def _engine_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "provergames" or name.startswith("provergames."))
    ]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int, str, bool]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)  # (parent, child) calls
        self.job = "-"
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._originals: dict[int, Any] = {}
        self._replacement: dict[int, Any] = {}
        self._installed: list[tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def _prepare(self) -> None:
        for layer, funcs in TRACED.items():
            module = sys.modules[f"provergames.{layer}"]
            for fname in funcs:
                original = getattr(module, fname)
                self._originals[id(original)] = original
                self._replacement[id(original)] = self._wrap(f"{layer}.{fname}", original)
        original = sys.modules["provergames.trees"].all_profiles
        self._originals[id(original)] = original
        self._replacement[id(original)] = self._count_profiles(original)

    def install(self) -> None:
        """Rebind every wrapper wherever a provergames module holds its original."""
        if not self._replacement:
            self._prepare()
        for module in _engine_modules():
            for attr, value in list(vars(module).items()):
                if self._originals.get(id(value)) is value:
                    setattr(module, attr, self._replacement[id(value)])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        observe = _observers().get(name)
        layer = name.split(".", 1)[0]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)  # reserve the id so children can name it
            parent = stack[-1][0] if stack else -1
            frame = [sid, name, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                spans[sid] = (fid, start, end, parent, self.job, ok)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                if not ok:
                    self.errors[layer] += 1
                elif observe is not None:
                    observe(self.counters, args, result)
                if stack:
                    self.edges[(stack[-1][1], name)] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_profiles(self, fn: Callable) -> Callable:
        counters = self.counters

        def all_profiles(*args, **kwargs):
            for s in fn(*args, **kwargs):
                counters["trees.profiles_generated"] += 1
                yield s

        all_profiles.__wrapped__ = fn
        return all_profiles

    # -- results -----------------------------------------------------------

    def layer_metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, by name, as (value, unit)."""
        calls, self_s, c = self.calls, self.self_s, self.counters
        out: dict[str, tuple[float, str]] = {}

        def span(name: str, *extra: str) -> None:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            for key in extra:
                out[f"{name}.{key}"] = (c[f"{name}.{key}"], "bytes" if key == "bytes" else "count")

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        span("trees.continuation_values")
        span("trees.reach_map")
        out["trees.utility_vector.calls"] = (calls["trees.utility_vector"], "count")
        out["trees.nodes_visited"] = (c["trees.nodes_visited"], "count")
        out["trees.profiles_generated"] = (c["trees.profiles_generated"], "count")
        span("equilibrium.is_sse", "ops")
        span("equilibrium.enumerate_sse")
        out["equilibrium.sse_yield"] = (
            ratio(c["equilibrium.is_sse.true"], calls["equilibrium.is_sse"]),
            "ratio",
        )
        span("beliefs.limit_beliefs")
        span("beliefs.verify_sequential_rationality")
        span("subforms.find_subforms")
        span("subforms.dominant_sse_set", "input_sses")
        span("subforms.find_dominant_sse")
        span("gaps.verify_utility_gap")
        span("gaps.splice")
        out["gaps.wrong_profiles"] = (c["gaps.wrong_profiles"], "count")
        out["gaps.splices_per_wrong_profile"] = (
            ratio(
                self.edges[("gaps.verify_utility_gap", "gaps.splice")],
                c["gaps.wrong_profiles"],
            ),
            "ratio",
        )
        out["gaps.answer_bit_distribution.calls"] = (
            calls["gaps.answer_bit_distribution"],
            "count",
        )
        span("pruning.prune_nature")
        span("pruning.verify_pruning")
        out["pruning.verify_pruning.enumerations"] = (
            self.edges[("pruning.verify_pruning", "equilibrium.enumerate_sse")],
            "count",
        )
        span("gamefile.dumps", "bytes")
        span("gamefile.loads", "bytes")
        out["gamefile.game_to_doc.self_s"] = (self_s["gamefile.game_to_doc"], "s")
        out["gamefile.game_from_doc.self_s"] = (self_s["gamefile.game_from_doc"], "s")
        builders = [f"protocols.{f}" for f in TRACED["protocols"]]
        out["protocols.build.calls"] = (sum(calls[b] for b in builders), "count")
        out["protocols.build.self_s"] = (sum(self_s[b] for b in builders), "s")
        out["protocols.build.nodes"] = (c["protocols.build.nodes"], "count")
        span("cli.main", "exit_nonzero")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: id, name, start, end, parent, job, ok."""
        with open(path, "w") as fp:
            fp.write("id\tname\tstart\tend\tparent\tjob\tok\n")
            for sid, (fid, start, end, parent, job, ok) in enumerate(self.spans):
                fp.write(
                    f"{sid}\t{self.names[fid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\t{int(ok)}\n"
                )

