from __future__ import annotations

import io
import json
import random
import re
from dataclasses import asdict, is_dataclass, replace
from fractions import Fraction as F

import pytest

from provergames import gamefile
from provergames.beliefs import limit_beliefs
from provergames.equilibrium import SseCertificate, SseViolation, enumerate_sse, is_sse
from provergames.errors import GameFileError
from provergames.gaps import answer_bit_distribution, verify_utility_gap
from provergames.pruning import prune_nature, verify_pruning
from provergames.subforms import find_dominant_sse
from provergames.trees import (
    NATURE,
    DecisionNode,
    StrategyProfile,
    TerminalNode,
    check_perfect_recall,
    make_game,
    utility_vector,
    validate_game,
)

import test_protocols
from randgames import corpus_games, random_game, random_profile, random_root_lottery_game


class TestGameRoundTrip:
    def test_byte_identical(self, k3, nexp_unsat_third, pnexp_toy, mrip_toy):
        for build in (k3, nexp_unsat_third, pnexp_toy, mrip_toy):
            buf = io.StringIO()
            gamefile.save_game(build.game, buf)
            first = buf.getvalue()
            game2, _ = gamefile.game_from_doc(gamefile.loads(first))
            buf2 = io.StringIO()
            gamefile.save_game(game2, buf2)
            assert buf2.getvalue() == first

    def test_random_games_round_trip(self):
        rng = random.Random(13)
        for _ in range(15):
            game = random_game(rng)
            doc = gamefile.game_to_doc(game)
            game2, _ = gamefile.game_from_doc(doc)
            assert dict(game2.nodes) == dict(game.nodes)
            assert set(game2.info_sets) == set(game.info_sets)
            assert validate_game(game2).ok

    def test_beliefs_section(self, mini_coloring):
        game, s = mini_coloring.game, mini_coloring.honest
        mu, _ = limit_beliefs(game, s)
        buf = io.StringIO()
        gamefile.save_game(game, buf, beliefs=mu)
        buf.seek(0)
        _, mu2 = gamefile.load_game(buf)
        assert mu2 is not None
        assert mu2.as_dict() == mu.as_dict()

    def test_canonical_rationals(self):
        doc = {
            "format": "game/1",
            "provers": 1,
            "nodes": {"": {"payments": ["2/4"], "answer_bit": 1}},
            "info_sets": [],
        }
        game, _ = gamefile.game_from_doc(doc)
        out = gamefile.dumps(gamefile.game_to_doc(game))
        assert '"1/2"' in out and "2/4" not in out


class TestStrategyFiles:
    def test_round_trip(self, mini_coloring):
        buf = io.StringIO()
        gamefile.save_strategy(mini_coloring.honest, buf)
        buf.seek(0)
        assert gamefile.load_strategy(buf) == mini_coloring.honest

    def test_not_a_strategy(self):
        with pytest.raises(GameFileError):
            gamefile.strategy_from_doc({"format": "game/1"})

    @pytest.mark.parametrize(
        "choices, where", [({5: "a"}, "choices key 5"), ({"a": 5}, "choices['a']")]
    )
    def test_non_string_key_or_action(self, choices, where):
        with pytest.raises(GameFileError, match=re.escape(where)):
            gamefile.strategy_from_doc({"format": "strategy/1", "choices": choices})


class TestDiagnostics:
    def test_json_error_carries_line(self):
        with pytest.raises(GameFileError, match="line 2"):
            gamefile.loads('{\n  "format": oops\n}')

    def test_nesting_past_the_recursion_limit(self, mini_coloring):
        with pytest.raises(GameFileError, match="document nested too deeply to parse"):
            gamefile.loads("[" * 5000 + "]" * 5000)
        deep: dict = {}
        for _ in range(5000):
            deep = {"x": deep}
        with pytest.raises(GameFileError, match="meta nested too deeply to render"):
            gamefile.game_to_doc(replace(mini_coloring.game, meta={"deep": deep}))

    def test_bad_rational_located(self):
        doc = {
            "format": "game/1",
            "provers": 1,
            "nodes": {"": {"payments": ["1/0"], "answer_bit": 0}},
            "info_sets": [],
        }
        with pytest.raises(GameFileError, match="nodes"):
            gamefile.game_from_doc(doc)

    def test_unknown_format(self):
        with pytest.raises(GameFileError, match="unsupported format"):
            gamefile.game_from_doc({"format": "game/999"})

    @pytest.mark.parametrize(
        "beliefs, where, message",
        [
            ({"h|zz": ["1", "0"]}, "beliefs['h|zz']", "the game has no such information set"),
            ({"h|t": ["1"]}, "beliefs['h|t']", "needs 2 entries, got 1"),
            ({"h|t": ["0", "0"]}, "beliefs['h|t']", "not a probability distribution"),
        ],
        ids=["unknown-set", "wrong-length", "not-a-distribution"],
    )
    def test_bad_beliefs_entry_located(self, beliefs, where, message):
        doc = {
            "format": "game/1",
            "provers": 1,
            "nodes": {
                "": {"player": 0, "actions": ["h", "t"], "dist": ["1/2", "1/2"]},
                "h": {"player": 1, "actions": ["x"]},
                "t": {"player": 1, "actions": ["x"]},
                "h/x": {"payments": ["0"], "answer_bit": 0},
                "t/x": {"payments": ["1"], "answer_bit": 1},
            },
            "info_sets": [{"owner": 1, "members": ["h", "t"], "actions": ["x"]}],
            "beliefs": {"h|t": ["1/2", "1/2"], **beliefs},
        }
        with pytest.raises(GameFileError, match=f"^{re.escape(where)}: {re.escape(message)}$"):
            gamefile.game_from_doc(doc)

    def test_repeated_bad_rational_names_its_first_node(self):
        doc = {
            "format": "game/1",
            "provers": 1,
            "nodes": {
                "": {"player": 1, "actions": ["x", "y"]},
                "x": {"payments": ["1/0"], "answer_bit": 0},
                "y": {"payments": ["1/0"], "answer_bit": 0},
            },
            "info_sets": [{"owner": 1, "members": [""], "actions": ["x", "y"]}],
        }
        with pytest.raises(GameFileError, match=re.escape("nodes['x']: bad rational '1/0'")):
            gamefile.game_from_doc(doc)
        doc["nodes"]["x"]["payments"] = ["1/2"]
        with pytest.raises(GameFileError, match=re.escape("nodes['y']: bad rational '1/0'")):
            gamefile.game_from_doc(doc)
        doc["nodes"]["y"]["payments"] = ["1/2"]
        game, _ = gamefile.game_from_doc(doc)
        assert game.nodes[("y",)].payments == (F(1, 2),)


def reference_doc_value(value):
    """The converter reports went through before `_plain` took dataclasses."""
    if is_dataclass(value) and not isinstance(value, type):
        return {k: reference_doc_value(v) for k, v in asdict(value).items()}
    if isinstance(value, F):
        return str(value)
    if isinstance(value, dict):
        return {str(reference_doc_value(k)): reference_doc_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_doc_value(v) for v in value]
    return value


def report_payloads(k3, nexp_unsat_third):
    """(kind, payload) for every report the CLI emits, built as the CLI builds them."""
    bad = make_game(
        1,
        {
            (): DecisionNode(NATURE, ("a", "b"), (F(1, 3), F(1, 3))),
            ("a",): TerminalNode((F(1, 2),), 1),
            ("b",): TerminalNode((F(2),), 0),
        },
    )
    violations = list(validate_game(bad).violations)
    assert violations
    yield "validate", {"valid": False, "violations": violations}
    recall = check_perfect_recall(k3.game)
    yield "validate", {"valid": True, "violations": list(recall.violations)}

    reached = SseViolation(
        "", True, None, ((("x",), F(1, 3)), (("y",), F(2, 3))), "no", "yes", F(1, 4)
    )
    unreached = SseViolation("x|y", False, ("x",), None, "a", "b", F(3, 2))
    yield "sse", {"certificate": SseCertificate(False, (reached, unreached), {"ops": 17})}
    liar = k3.honest.replace("", "no")
    cert = is_sse(k3.game, liar)
    assert not cert.verdict and any(v.belief for v in cert.violations)
    yield "sse", {"certificate": cert}
    yield "sse", {"certificate": is_sse(k3.game, k3.honest)}

    sses = enumerate_sse(nexp_unsat_third.game)
    yield "enumerate-sse", {"count": len(sses), "profiles": [dict(s.choices) for s in sses]}

    yield "dominant", {"found": False}
    dom = find_dominant_sse(k3.game)
    answers = answer_bit_distribution(k3.game, dom)
    yield "dominant", {
        "found": True,
        "profile": dict(dom.choices),
        "answer_bits": {str(k): str(v) for k, v in answers.items() if v},
        "utilities": [str(u) for u in utility_vector(k3.game, dom)],
    }

    game = nexp_unsat_third.game
    report = verify_utility_gap(game, find_dominant_sse(game), F(3), 0)
    assert report.worst is not None
    yield "gap", {"report": report}

    rng = random.Random(7)
    for _ in range(3):
        lottery = random_root_lottery_game(rng, profile_cap=256)
        s = random_profile(rng, lottery)
        pruned, intervals = prune_nature(lottery, s, 2, 1)
        report = verify_pruning(lottery, pruned, s, 2, designated_prover=1)
        yield "prune", {"intervals": intervals, "report": report}


class TestReportDocuments:
    def test_match_the_two_pass_converter(self, k3, nexp_unsat_third):
        kinds = set()
        for kind, payload in report_payloads(k3, nexp_unsat_third):
            kinds.add(kind)
            expected = {"format": f"report/{kind}/1", **reference_doc_value(payload)}
            text = json.dumps(expected, sort_keys=True, indent=2) + "\n"
            assert gamefile.dumps(gamefile.report_doc(kind, payload)) == text
        assert kinds == {"validate", "sse", "enumerate-sse", "dominant", "gap", "prune"}

    def test_dataclass_payload(self, nexp_unsat_third):
        game = nexp_unsat_third.game
        report = verify_utility_gap(game, find_dominant_sse(game), F(3), 0)
        doc = gamefile.report_doc("gap", report)
        assert doc["format"] == "report/gap/1"
        assert doc["measured_gap"] == str(report.measured_gap)
        assert doc["worst"]["max_loss"] == str(report.worst.max_loss)


def reference_dumps(doc):
    """`dumps` as it was: `_plain` over the whole document, then `json.dumps`."""
    return json.dumps(gamefile._plain(doc), sort_keys=True, indent=2) + "\n"


def golden_and_corpus_games():
    for build, _, _ in test_protocols.TestBuilderGolden.BUILDS.values():
        yield build().game
    for game, _ in corpus_games(60):
        yield game


class TestOneWalkDumps:
    def test_load_dump_round_trip_is_byte_identical(self, mini_coloring):
        mu, _ = limit_beliefs(mini_coloring.game, mini_coloring.honest)
        texts = [gamefile.dumps(gamefile.game_to_doc(mini_coloring.game, mu))]
        texts += [gamefile.dumps(gamefile.game_to_doc(g)) for g in golden_and_corpus_games()]
        for text in texts:
            game, beliefs = gamefile.game_from_doc(gamefile.loads(text))
            assert gamefile.dumps(gamefile.game_to_doc(game, beliefs)) == text

    def test_equals_the_two_walk_form(self, k3, nexp_unsat_third):
        docs = [gamefile.game_to_doc(g) for g in golden_and_corpus_games()]
        docs += [gamefile.strategy_to_doc(k3.honest), gamefile.strategy_to_doc(StrategyProfile(()))]
        docs += [
            gamefile.report_doc(kind, payload)
            for kind, payload in report_payloads(k3, nexp_unsat_third)
        ]
        for doc in docs:
            assert gamefile.dumps(doc) == reference_dumps(doc)

    def test_leaves_json_cannot_encode(self, nexp_unsat_third):
        game = nexp_unsat_third.game
        report = verify_utility_gap(game, find_dominant_sse(game), F(3), 0)
        doc = {"report": report, "rationals": (F(1, 3), [F(-2)]), "flag": True, "none": None}
        assert gamefile.dumps(doc) == reference_dumps(doc)


class TestWorkCounters:
    def test_k4_load_parses_each_distinct_rational_once(self, k4, monkeypatch):
        doc = gamefile.loads(gamefile.dumps(gamefile.game_to_doc(k4.game)))
        fields = [
            r for record in doc["nodes"].values()
            for r in record.get("payments", []) + record.get("dist", [])
        ]
        assert len(fields) > 1000 and len(set(fields)) == 3
        calls = []
        real = gamefile.rational
        monkeypatch.setattr(gamefile, "rational", lambda text: calls.append(text) or real(text))
        game, _ = gamefile.game_from_doc(doc)
        assert sorted(calls) == sorted(set(fields))
        assert dict(game.nodes) == dict(k4.game.nodes)

    def test_dumping_built_documents_never_calls_plain(self, k4, monkeypatch):
        docs = [gamefile.game_to_doc(k4.game), gamefile.strategy_to_doc(k4.honest)]
        calls = []
        real = gamefile._plain
        monkeypatch.setattr(gamefile, "_plain", lambda value: calls.append(value) or real(value))
        for doc in docs:
            gamefile.dumps(doc)
        assert calls == []
