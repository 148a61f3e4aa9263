from __future__ import annotations

import io
import random
import re
from fractions import Fraction as F

import pytest

from provergames import gamefile
from provergames.beliefs import limit_beliefs
from provergames.errors import GameFileError
from provergames.trees import StrategyProfile, validate_game

from randgames import random_game, random_profile


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
