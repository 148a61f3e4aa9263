from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import provergames
from provergames import gamefile
from provergames.cli import main, make_parser


@pytest.fixture()
def k3_edges(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text("0 1\n0 2\n1 2\n")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


PNEXP_SCRIPT = {
    "first": "qa",
    "next": {"qa,1": "qb", "qa,0": "qc"},
    "output": {"00": 0, "01": 1, "10": 1, "11": 0},
    "num_queries": 2,
    "mips": {
        "qa": {"kind": "fixed", "accepting": 3, "total": 3},
        "qb": {"kind": "fixed", "accepting": 1, "total": 3},
        "qc": {"kind": "fixed", "accepting": 2, "total": 2},
    },
}
MRIP_SPEC = {
    "provers": 2,
    "rounds": 1,
    "alphabet": ["0", "1"],
    "payments": {"0;0": "1/4", "0;1": "1/2", "1;0": "3/4", "1;1": "1/8"},
}


class TestBuildAndAnalyze:
    def test_build_then_find_dominant(self, tmp_path, capsys, k3_edges):
        game = tmp_path / "k3.game"
        code, _, _ = run(capsys, "build", "three-coloring", k3_edges, "--out", game)
        assert code == 0
        code, out, _ = run(capsys, "find-dominant", game)
        assert code == 0
        assert "answer bits: 1:1" in out
        assert "utilities: 1/2, 1/4" in out

    def test_validate(self, tmp_path, capsys, k3_edges):
        game = tmp_path / "k3.game"
        run(capsys, "build", "three-coloring", k3_edges, "--out", game)
        code, out, _ = run(capsys, "validate", game)
        assert code == 0 and out.startswith("valid")

    def test_check_sse_violating_profile_exits_one(self, tmp_path, capsys, k3_edges):
        game = tmp_path / "k3.game"
        honest = tmp_path / "k3.honest"
        run(capsys, "build", "three-coloring", k3_edges, "--out", game, "--honest-out", honest)
        doc = json.loads(honest.read_text())
        doc["choices"][""] = "no"  # claim no on a colorable graph: one-shot loss
        bad = tmp_path / "bad.strategy"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check-sse", game, bad)
        assert code == 1
        assert "sse: false" in out
        code, _, _ = run(capsys, "check-sse", game, honest)
        assert code == 0

    def test_fixed_soundness_gap_pipeline(self, tmp_path, capsys):
        game = tmp_path / "nexp.game"
        code, _, _ = run(
            capsys, "build", "nexp", "--fixed-soundness", "1/3", "--out", game
        )
        assert code == 0
        # threshold below the scaled 5/12 measured gap -> verdict true, exit 0
        code, out, _ = run(capsys, "check-gap", game, "--alpha", "3")
        assert code == 0 and "measured gap: 5/12" in out
        # at exactly the measured gap the strict inequality fails -> exit 1
        code, out, _ = run(capsys, "check-gap", game, "--alpha", "12/5")
        assert code == 1

    def test_gap_against_a_strategy_answering_the_wrong_bit_exits_two(self, tmp_path, capsys):
        game = tmp_path / "nexp.game"
        dom = tmp_path / "dom.strategy"
        run(capsys, "build", "nexp", "--fixed-soundness", "1/3", "--out", game)
        run(capsys, "find-dominant", game, "--strategy-out", dom)
        code, out, err = run(
            capsys, "check-gap", game, "--alpha", "3", "--strategy", dom, "--correct-bit", "1"
        )
        assert code == 2 and out == ""
        assert err == "error: s_star reaches answer bit 0, not 1\n"

    def test_enumerate_matches_bruteforce_count(self, tmp_path, capsys):
        game = tmp_path / "nexp.game"
        run(capsys, "build", "nexp", "--fixed-soundness", "2/2", "--out", game)
        code, out, _ = run(capsys, "enumerate-sse", game)
        assert code == 0
        count = int(out.splitlines()[0].split(":")[1])
        from provergames import gamefile, is_sse_bruteforce
        from provergames.trees import all_profiles

        with open(game) as fp:
            g, _ = gamefile.load_game(fp)
        brute = sum(1 for s in all_profiles(g) if is_sse_bruteforce(g, s).verdict)
        assert count == brute

    def test_prune_writes_game_and_report(self, tmp_path, capsys):
        game = tmp_path / "nexp.game"
        dom = tmp_path / "dom.strategy"
        run(capsys, "build", "nexp", "--fixed-soundness", "1/3", "--out", game)
        code, _, _ = run(capsys, "find-dominant", game, "--strategy-out", dom)
        assert code == 0
        pruned = tmp_path / "pruned.game"
        code, out, _ = run(
            capsys, "prune", game, dom, "--alpha", "2", "--prover", "1", "--out", pruned
        )
        assert code == 0
        assert "support ok: true" in out and "designated drift ok: true" in out
        assert pruned.exists()

    def test_structured_reports_are_deterministic(self, tmp_path, capsys, k3_edges):
        game = tmp_path / "k3.game"
        run(capsys, "build", "three-coloring", k3_edges, "--out", game)
        _, out1, _ = run(capsys, "find-dominant", game, "--format", "structured")
        _, out2, _ = run(capsys, "find-dominant", game, "--format", "structured")
        assert out1 == out2
        json.loads(out1)  # valid JSON

    def test_build_round_trip_gives_identical_analysis(self, tmp_path, capsys, k3_edges):
        game = tmp_path / "k3.game"
        run(capsys, "build", "three-coloring", k3_edges, "--out", game)
        copy = tmp_path / "copy.game"
        code, _, _ = run(capsys, "validate", game)
        assert code == 0
        with open(game) as fp:
            text = fp.read()
        copy.write_text(text)
        _, out1, _ = run(capsys, "find-dominant", game, "--format", "structured")
        _, out2, _ = run(capsys, "find-dominant", copy, "--format", "structured")
        assert out1 == out2


class TestInstanceFiles:
    def test_build_nexp_from_dimacs(self, tmp_path, capsys):
        cnf = tmp_path / "formula.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        game = tmp_path / "sat.game"
        code, _, _ = run(capsys, "build", "nexp", cnf, "--out", game)
        assert code == 0
        code, out, _ = run(capsys, "find-dominant", game)
        assert code == 0 and "answer bits: 1:1" in out

    def test_build_pnexp_from_script(self, tmp_path, capsys):
        script = tmp_path / "machine.json"
        script.write_text(json.dumps(PNEXP_SCRIPT))
        game = tmp_path / "pnexp.game"
        code, _, _ = run(capsys, "build", "pnexp", script, "--out", game)
        assert code == 0
        code, out, _ = run(capsys, "find-dominant", game)
        assert code == 0 and "answer bits: 1:1" in out

    def test_build_mrip_from_spec(self, tmp_path, capsys):
        spec = tmp_path / "mrip.json"
        spec.write_text(json.dumps(MRIP_SPEC))
        game = tmp_path / "mrip.game"
        honest = tmp_path / "mrip.honest"
        code, _, _ = run(
            capsys, "build", "mrip", spec, "--out", game, "--honest-out", honest
        )
        assert code == 0
        code, out, _ = run(capsys, "check-sse", game, honest, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["verdict"] is True

    def test_enumerate_count_matches_oracle_on_examples(self, tmp_path, capsys):
        from provergames import gamefile, is_sse_bruteforce
        from provergames.trees import all_profiles

        builds = [
            ("nexp", ["--fixed-soundness", "1/3"]),
            ("nexp", ["--fixed-soundness", "2/2"]),
        ]
        for i, (proto, extra) in enumerate(builds):
            game = tmp_path / f"ex{i}.game"
            run(capsys, "build", proto, *extra, "--out", game)
            code, out, _ = run(capsys, "enumerate-sse", game)
            assert code == 0
            count = int(out.splitlines()[0].split(":")[1])
            with open(game) as fp:
                g, _ = gamefile.load_game(fp)
            assert count == sum(
                1 for s in all_profiles(g) if is_sse_bruteforce(g, s).verdict
            )


class TestSpecDocuments:
    @pytest.mark.parametrize(
        "protocol, doc, key",
        [
            ("pnexp", {}, "first"),
            ("mrip", {}, "provers"),
            ("pnexp", {**PNEXP_SCRIPT, "mips": {"qa": {"kind": "fixed"}}}, "mips.qa.accepting"),
            ("pnexp", {**PNEXP_SCRIPT, "num_queries": "2"}, "num_queries"),
            ("pnexp", {**PNEXP_SCRIPT, "output": {"00": 0}}, "answers 01"),
            (
                "mrip",
                {"provers": 1, "rounds": 1, "alphabet": ["0"], "payments": {"0": 0.5}},
                "payments.0",
            ),
            (
                "mrip",
                {**MRIP_SPEC, "payments": {**MRIP_SPEC["payments"], "zz;9": "1"}},
                "'payments.zz;9' names no transcript",
            ),
        ],
    )
    def test_bad_spec_exits_two_naming_the_key(self, tmp_path, capsys, protocol, doc, key):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code, _, err = run(capsys, "build", protocol, spec)
        assert code == 2
        assert err.startswith("error:") and key in err and "Traceback" not in err


class TestBuildOptions:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["three-coloring", "{edges}", "--repetitions", "-2"], "--repetitions applies only"),
            (["nexp", "--fixed-soundness", "1/2", "--repetitions", "9"], "--repetitions applies only"),
            (["three-coloring", "{edges}", "--fixed-soundness", "1/2"], "--fixed-soundness applies only"),
            (["nexp", "{edges}", "--fixed-soundness", "1/2"], "not both"),
            (["pnexp", "{edges}", "--repetitions", "1"], "--repetitions applies only"),
            (["nexp", "{cnf}", "--repetitions", "0"], "repetitions must be between 1 and 3"),
        ],
        ids=["coloring-repetitions", "fixed-repetitions", "coloring-fixed", "nexp-both", "pnexp-repetitions", "zero-repetitions"],
    )
    def test_unused_or_bad_option_exits_two(self, tmp_path, capsys, k3_edges, argv, message):
        cnf = tmp_path / "formula.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        game = tmp_path / "out.game"
        argv = [a.format(edges=k3_edges, cnf=cnf) for a in argv]
        code, out, err = run(capsys, "build", *argv, "--out", game)
        assert code == 2 and out == "" and not game.exists()
        (line,) = err.splitlines()
        assert line.startswith("error:") and message in line

    def test_repetitions_apply_to_dimacs(self, tmp_path, capsys):
        cnf = tmp_path / "formula.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        one, two = tmp_path / "r1.game", tmp_path / "r2.game"
        assert run(capsys, "build", "nexp", cnf, "--out", one)[0] == 0
        assert run(capsys, "build", "nexp", cnf, "--repetitions", "1", "--out", two)[0] == 0
        assert one.read_text() == two.read_text()  # 1 is the default
        assert run(capsys, "build", "nexp", cnf, "--repetitions", "2", "--out", two)[0] == 0
        assert one.read_text() != two.read_text()


class TestErrors:
    def test_malformed_game_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.game"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", bad)
        assert code == 2
        assert "error:" in err and "line 1" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/game")
        assert code == 2

    def test_node_cap_enforced(self, tmp_path, capsys, k3_edges):
        game = tmp_path / "k3.game"
        run(capsys, "build", "three-coloring", k3_edges, "--out", game)
        code, _, err = run(capsys, "validate", game, "--max-nodes", "5")
        assert code == 2 and "max-nodes" in err

    def test_gap_without_bit_metadata(self, tmp_path, capsys):
        from provergames import gamefile, make_game
        from provergames.trees import DecisionNode, TerminalNode
        from fractions import Fraction as F

        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): TerminalNode((F(1, 2),), 1),
            ("b",): TerminalNode((F(0),), 0),
        }
        game = make_game(1, nodes)
        path = tmp_path / "plain.game"
        with open(path, "w") as fp:
            gamefile.save_game(game, fp)
        code, _, err = run(capsys, "check-gap", path, "--alpha", "3")
        assert code == 2 and "correct-bit" in err
        # threshold 1/3 sits strictly below the 1/2 loss of the wrong claim
        code, _, _ = run(capsys, "check-gap", path, "--alpha", "3", "--correct-bit", "1")
        assert code == 0


class TestInputBoundary:
    GAME = {
        "format": "game/1",
        "provers": 1,
        "nodes": {
            "": {"player": 1, "actions": ["x", "y"]},
            "x": {"payments": ["0"], "answer_bit": 0},
            "y": {"payments": ["1/2"], "answer_bit": 1},
        },
        "info_sets": [{"owner": 1, "members": [""], "actions": ["x", "y"]}],
    }

    def write(self, tmp_path, **changes):
        path = tmp_path / "input.game"
        path.write_text(json.dumps({**self.GAME, **changes}))
        return path

    def test_check_sse_on_game_with_missing_child(self, tmp_path, capsys):
        nodes = dict(self.GAME["nodes"])
        del nodes["y"]
        game = self.write(tmp_path, nodes=nodes)
        strategy = tmp_path / "y.strategy"
        strategy.write_text(json.dumps({"format": "strategy/1", "choices": {"": "y"}}))
        code, out, err = run(capsys, "check-sse", game, strategy)
        assert code == 2 and out == ""
        assert "missing-child" in err and "Traceback" not in err

    def test_nodes_not_an_object(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", self.write(tmp_path, nodes=[]))
        assert code == 2 and "nodes" in err and "Traceback" not in err

    def test_decision_node_without_player(self, tmp_path, capsys):
        nodes = dict(self.GAME["nodes"], **{"": {"actions": ["x", "y"]}})
        code, _, err = run(capsys, "validate", self.write(tmp_path, nodes=nodes))
        assert code == 2 and "missing field 'player'" in err and "Traceback" not in err


    @pytest.mark.parametrize(
        "keys, value, where",
        [
            (("nodes", "x", "payments"), 5, "nodes['x'].payments"),
            (("nodes", "x", "answer_bit"), [1], "nodes['x'].answer_bit"),
            (("nodes", "", "actions"), 7, "nodes[''].actions"),
            (("info_sets",), 5, "info_sets"),
            (("info_sets", 0, "members"), 5, "info_sets[0].members"),
            (("info_sets", 0, "actions"), 7, "info_sets[0].actions"),
            (("provers",), None, "provers"),
            (("meta",), 5, "meta"),
            (("beliefs",), 5, "beliefs"),
        ],
    )
    def test_ill_typed_field_exits_two_with_its_location(
        self, tmp_path, capsys, keys, value, where
    ):
        doc = json.loads(json.dumps(self.GAME))
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path = tmp_path / "input.game"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", path)
        assert code == 2
        assert err.startswith(f"error: {where}:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [
            ("check-sse", "GAME", "STRATEGY"),
            ("check-gap", "GAME", "--strategy", "STRATEGY", "--alpha", "1", "--correct-bit", "1"),
            ("prune", "GAME", "STRATEGY", "--alpha", "1", "--prover", "1"),
        ],
    )
    @pytest.mark.parametrize(
        "choices, where",
        [
            ({"": 5}, "choices['']"),
            ({"": ["x"]}, "choices['']"),
            ({"": "x", "zz": "y"}, "choices['zz']"),
        ],
    )
    def test_bad_strategy_exits_two_with_its_location(
        self, tmp_path, capsys, command, choices, where
    ):
        strategy = tmp_path / "input.strategy"
        strategy.write_text(json.dumps({"format": "strategy/1", "choices": choices}))
        paths = {"GAME": self.write(tmp_path), "STRATEGY": strategy}
        code, out, err = run(capsys, *(paths.get(a, a) for a in command))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {where}:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "beliefs, where",
        [
            ({"h|zz": ["1", "0"]}, "beliefs['h|zz']"),
            ({"h|t": ["1", "0", "0"]}, "beliefs['h|t']"),
            ({"h|t": ["1/3", "1/3"]}, "beliefs['h|t']"),
        ],
        ids=["unknown-set", "wrong-length", "not-a-distribution"],
    )
    def test_bad_beliefs_exit_two_with_their_location(self, tmp_path, capsys, beliefs, where):
        game, strategy = tmp_path / "input.game", tmp_path / "input.strategy"
        game.write_text(json.dumps({**FUZZ_GAME, "beliefs": beliefs}))
        strategy.write_text(json.dumps(FUZZ_STRATEGY))
        for argv in (
            ("validate", game),
            ("check-sse", game, strategy),
            ("enumerate-sse", game),
            ("find-dominant", game),
            ("check-gap", game, "--alpha", "1"),
            ("prune", game, strategy, "--alpha", "1", "--prover", "1"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: {where}:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("value", [[1], None, "x", "1", True, 2])
    def test_check_gap_refuses_a_bad_correct_bit(self, tmp_path, capsys, value):
        game = self.write(tmp_path, meta={"correct_bit": value})
        code, out, err = run(capsys, "check-gap", game, "--alpha", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: meta.correct_bit:") and "Traceback" not in err

    def test_check_gap_reads_correct_bit(self, tmp_path, capsys):
        game = self.write(tmp_path, meta={"correct_bit": 1})
        code, out, _ = run(capsys, "check-gap", game, "--alpha", "3")
        assert code == 0 and "measured gap: 1/2" in out

    def test_jobs_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(self.write(tmp_path)), "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestNestingLimit:
    """A document nested past the interpreter's recursion limit is an input
    error, whether it is read or, through a game's `meta`, written."""

    DEEP = "[" * 200_000 + "]" * 200_000

    @pytest.mark.parametrize(
        "argv",
        [("validate", "{deep}"), ("check-sse", "{game}", "{deep}"), ("build", "pnexp", "{deep}")],
    )
    def test_deep_input_exits_two(self, tmp_path, capsys, argv):
        deep, game = tmp_path / "deep.json", tmp_path / "ok.game"
        deep.write_text(self.DEEP)
        game.write_text(json.dumps(TestInputBoundary.GAME))
        code, out, err = run(capsys, *(a.format(deep=deep, game=game) for a in argv))
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: document nested too deeply to parse"]

    def test_deep_meta_is_refused_before_the_pruned_game_is_written(self, tmp_path, capsys):
        # 700 levels parse, but writing the game back out recurses deeper.
        build = provergames.build_three_coloring(2, [(0, 1)])
        doc = gamefile.game_to_doc(build.game)
        deep: dict = {}
        for _ in range(700):
            deep = {"x": deep}
        doc["meta"] = {**doc.get("meta", {}), "deep": deep}
        game, honest, pruned = (tmp_path / name for name in ("g.json", "h.json", "p.json"))
        game.write_text(json.dumps(doc))
        honest.write_text(gamefile.dumps(gamefile.strategy_to_doc(build.honest)))
        code, out, err = run(
            capsys, "prune", game, honest, "--alpha", "1", "--prover", "1", "--out", pruned
        )
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: meta nested too deeply to render"]
        assert not pruned.exists()


class TestRationalFlags:
    @pytest.mark.parametrize("alpha", ["0", "1/0", "-2"])
    def test_check_gap_rejects_bad_alpha(self, tmp_path, capsys, alpha):
        game = tmp_path / "nexp.game"
        run(capsys, "build", "nexp", "--fixed-soundness", "1/3", "--out", game)
        code, out, err = run(capsys, "check-gap", game, "--alpha", alpha)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_zero_denominator_soundness_exits_two(self, tmp_path, capsys):
        game = tmp_path / "nexp.game"
        code, _, err = run(
            capsys, "build", "nexp", "--fixed-soundness", "1/0", "--out", game
        )
        assert code == 2 and "zero denominator" in err and "Traceback" not in err
        assert not game.exists()


class TestBuildCaps:
    """An oversized build exits 2 before writing any file."""

    def test_fixed_soundness_total_over_cap(self, tmp_path, capsys):
        game = tmp_path / "nexp.game"
        code, out, err = run(
            capsys, "build", "nexp", "--fixed-soundness", "1/2000", "--out", game
        )
        assert (code, out) == (2, "") and err == "error: total 2000 exceeds cap 64\n"
        assert not game.exists()

    def test_pnexp_blackbox_total_over_cap(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PNEXP_SCRIPT))
        doc["mips"]["qc"]["total"] = 1000000
        script, game = tmp_path / "script.json", tmp_path / "pnexp.game"
        script.write_text(json.dumps(doc))
        code, out, err = run(capsys, "build", "pnexp", script, "--out", game)
        assert (code, out) == (2, "") and err == "error: total 1000000 exceeds cap 64\n"
        assert not game.exists()

    def test_clause_var_scan_over_cap(self, tmp_path, capsys):
        # Unsatisfiable, so the soundness scan runs: 4^9 second-prover
        # strategies times 64 accept checks each.
        cnf, game = tmp_path / "unsat.cnf", tmp_path / "nexp.game"
        cnf.write_text("p cnf 3 4\n1 0\n-1 0\n2 0\n3 0\n")
        code, out, err = run(
            capsys, "build", "nexp", cnf, "--repetitions", "2", "--out", game
        )
        assert (code, out) == (2, "")
        assert err == "error: 16777216 accept checks exceed cap 262144\n"
        assert not game.exists()

    def test_max_nodes_bounds_build(self, tmp_path, capsys):
        edges = tmp_path / "k4.edges"
        edges.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        game, honest = tmp_path / "k4.game", tmp_path / "k4.honest"
        code, out, err = run(
            capsys, "build", "three-coloring", edges, "--out", game,
            "--honest-out", honest, "--max-nodes", "100",
        )
        assert (code, out) == (2, "")
        assert err == "error: game has 651 nodes, over --max-nodes 100\n"
        assert not game.exists() and not honest.exists()
        assert run(capsys, "build", "three-coloring", edges, "--max-nodes", "651")[0] == 0


class TestOneParser:
    """`make_parser` is built once per process, and no call leaks into the next."""

    def test_built_once(self):
        assert make_parser() is make_parser()

    @pytest.mark.parametrize(
        "first, second",
        [
            (("validate", "GAME", "--out", "OUT"), ("validate", "GAME")),
            (("find-dominant", "GAME", "--format", "structured"), ("find-dominant", "GAME")),
            (("find-dominant", "GAME", "--strategy-out", "OUT"), ("find-dominant", "GAME")),
        ],
    )
    def test_second_call_behaves_as_in_a_fresh_process(
        self, tmp_path, capsys, k3_edges, first, second
    ):
        game, written = tmp_path / "k3.game", tmp_path / "written"
        run(capsys, "build", "three-coloring", k3_edges, "--out", game)
        paths = {"GAME": game, "OUT": written}
        run(capsys, *(paths.get(a, a) for a in first))
        assert written.exists() == ("OUT" in first)
        written.unlink(missing_ok=True)
        after = run(capsys, *(paths.get(a, a) for a in second))
        assert not written.exists()
        make_parser.cache_clear()
        assert run(capsys, *(paths.get(a, a) for a in second)) == after


class TestShell:
    def test_one_process_per_command_matches_in_process(self, tmp_path, capsys, k3_edges):
        """The K3 gap scan is over the profile cap, so that step checks the error
        path. A step with `--out` must write the same bytes in both runs."""
        src = str(Path(provergames.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        k3, nexp = tmp_path / "k3.game", tmp_path / "nexp.game"
        script, spec = tmp_path / "script.json", tmp_path / "spec.json"
        script.write_text(json.dumps(PNEXP_SCRIPT))
        spec.write_text(json.dumps(MRIP_SPEC))
        steps = [
            (("build", "three-coloring", k3_edges), 0, k3),
            (("validate", k3), 0, None),
            (("find-dominant", k3), 0, None),
            (("check-gap", k3, "--alpha", "2"), 2, None),
            (("build", "nexp", "--fixed-soundness", "1/3"), 0, nexp),
            (("check-gap", nexp, "--alpha", "3"), 0, None),
            (("build", "pnexp", script, "--out", tmp_path / "pnexp.game"), 0, None),
            (("build", "mrip", spec, "--out", tmp_path / "mrip.game"), 0, None),
        ]
        for argv, code, save in steps:
            argv = [str(a) for a in argv]
            out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
            shell = subprocess.run(
                [sys.executable, "-m", "provergames.cli", *argv],
                capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
                timeout=120,
            )
            if out:
                written = out.read_bytes()
                out.unlink()
            assert (shell.returncode, shell.stdout, shell.stderr) == run(capsys, *argv)
            assert shell.returncode == code
            if out:
                assert written and out.read_bytes() == written
            assert bool(shell.stdout) == (code != 2 and not out)
            assert ("error:" in shell.stderr) == (code == 2)
            if save:
                save.write_text(shell.stdout)


# Values that must be refused where a field of the named kind is expected.
JUNK = {
    "int": [True, False, 1.5, "1", None, [1], {}],
    "list": [{}, 3, "x", True, 1.5, None],
    "object": [[], 3, "x", True, 1.5, None],
    "label": [1, True, None, 1.5, ["x"], {}],
    "rational": [True, 1.5, "1/0", None, [], {}, "one", "1/2/3"],
}
FUZZ_GAME = {
    "format": "game/1",
    "provers": 2,
    "nodes": {
        "": {"player": 0, "actions": ["h", "t"], "dist": ["1/3", "2/3"]},
        "h": {"player": 1, "actions": ["x", "y"]},
        "t": {"player": 1, "actions": ["x", "y"]},
        "h/x": {"payments": ["1/2", "0"], "answer_bit": 1},
        "h/y": {"payments": ["0", "1/3"], "answer_bit": 0},
        "t/x": {"payments": ["1/2", "-1/4"], "answer_bit": 1},
        "t/y": {"payments": ["0", "0"], "answer_bit": 0},
    },
    "info_sets": [{"owner": 1, "members": ["h", "t"], "actions": ["x", "y"]}],
    "beliefs": {"h|t": ["1/3", "2/3"]},
    "meta": {"correct_bit": 1},
}
FUZZ_STRATEGY = {"format": "strategy/1", "choices": {"h|t": "x"}}
# (path, kind of the value there, whether dropping the key must be refused too).
# An absent or null `dist` or `meta` is legal, so null is no junk there.
FUZZ_FIELDS = {
    "game": [
        (("format",), "label", True),
        (("provers",), "int", True),
        (("nodes",), "object", True),
        (("nodes", "h"), "object", False),
        (("nodes", "", "player"), "int", True),
        (("nodes", "", "actions"), "list", True),
        (("nodes", "", "actions", 0), "label", False),
        (("nodes", "", "dist"), "list", False),
        (("nodes", "", "dist", 1), "rational", False),
        (("nodes", "h", "player"), "int", True),
        (("nodes", "t", "actions", 1), "label", False),
        (("nodes", "h/x", "payments"), "list", True),
        (("nodes", "t/x", "payments", 1), "rational", False),
        (("nodes", "t/y", "answer_bit"), "int", False),
        (("info_sets",), "list", True),
        (("info_sets", 0), "object", False),
        (("info_sets", 0, "owner"), "int", True),
        (("info_sets", 0, "members"), "list", True),
        (("info_sets", 0, "members", 1), "label", False),
        (("info_sets", 0, "actions"), "list", True),
        (("beliefs",), "object", False),
        (("beliefs", "h|t"), "list", False),
        (("beliefs", "h|t", 0), "rational", False),
        (("meta",), "object", False),
    ],
    "strategy": [
        (("format",), "label", True),
        (("choices",), "object", True),
        (("choices", "h|t"), "label", True),
    ],
    "mrip": [
        (("provers",), "int", True),
        (("rounds",), "int", True),
        (("alphabet",), "list", True),
        (("alphabet", 1), "label", False),
        (("payments",), "object", True),
        (("payments", "1;0"), "rational", True),
    ],
    "pnexp": [
        (("first",), "label", True),
        (("next",), "object", False),
        (("next", "qa,1"), "label", False),
        (("output",), "object", True),
        (("output", "01"), "int", True),
        (("num_queries",), "int", True),
        (("mips",), "object", True),
        (("mips", "qb"), "object", True),
        (("mips", "qb", "kind"), "label", True),
        (("mips", "qc", "total"), "int", True),
    ],
}


def mutated(rng, kind: str):
    """A copy of the `kind` document with one or two faults an input check must
    refuse, and whether all of them are file-level (a dangling member is not)."""
    base = {"game": FUZZ_GAME, "strategy": FUZZ_STRATEGY, "mrip": MRIP_SPEC,
            "pnexp": PNEXP_SCRIPT}[kind]
    doc = json.loads(json.dumps(base))
    file_level = True
    for step in range(rng.randint(1, 2)):
        op = rng.random() if step == 0 else 1.0  # whole-document faults come first
        if kind == "game" and op < 0.1:
            doc = rng.choice([[], "game", 3, None])
            break
        if kind == "game" and op < 0.2:  # the same bad rational at two nodes
            doc["nodes"]["h/y"] = {"payments": ["0", "1/0"], "answer_bit": 0}
            doc["nodes"]["t/y"] = {"payments": ["1/0", "0"], "answer_bit": 0}
            continue
        if kind == "game" and op < 0.3:
            doc["info_sets"][0]["members"] = ["h", "zz/q"]
            file_level = False
            continue
        if kind == "strategy" and op < 0.2:
            doc["choices"] = rng.choice([{"h|t": "x", "zz": "x"}, {}, {"h|t": "q"}])
            continue
        if kind == "mrip" and op < 0.2:
            doc["payments"]["zz;9"] = "1"
            continue
        path, field, required = rng.choice(FUZZ_FIELDS[kind])
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier fault already replaced the field's container
        junk = [v for v in JUNK[field] if v is not None or path[-1] not in ("dist", "meta")]
        if required and rng.random() < 0.3:
            del parent[path[-1]]
        else:
            parent[path[-1]] = rng.choice(junk)
    return doc, file_level


class TestMutationFuzz:
    """Seeded faulty game, strategy and spec documents: each is refused with exit 2
    and one `error:` line, never a traceback (which would exit 1, a false verdict)."""

    @pytest.mark.parametrize("kind", ["game", "strategy", "mrip", "pnexp"])
    def test_refused_with_exit_two(self, tmp_path, capsys, kind):
        rng = random.Random(f"mutation-fuzz:{kind}")
        game, strategy = tmp_path / "base.game", tmp_path / "base.strategy"
        game.write_text(json.dumps(FUZZ_GAME))
        strategy.write_text(json.dumps(FUZZ_STRATEGY))
        assert run(capsys, "check-sse", game, strategy)[0] in (0, 1)
        faulty = tmp_path / "faulty.json"
        for _ in range(60 if kind == "game" else 40):
            doc, file_level = mutated(rng, kind)
            faulty.write_text(json.dumps(doc))
            if kind == "game":
                commands = [("check-sse", faulty, strategy)]
                if file_level:
                    commands.append(("validate", faulty))
            elif kind == "strategy":
                commands = [("check-sse", game, faulty)]
            else:
                commands = [("build", kind, faulty, "--out", tmp_path / "built.game")]
            for argv in commands:
                code, out, err = run(capsys, *argv)
                assert (code, out) == (2, ""), (argv[0], doc, err)
                assert err.startswith("error: ") and err.count("\n") == 1, err
