from __future__ import annotations

import io
import json
import random
import re
from dataclasses import asdict, is_dataclass
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

from randgames import random_game, random_profile, random_root_lottery_game


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
