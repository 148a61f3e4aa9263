from __future__ import annotations

import hashlib
import io
from fractions import Fraction as F

import pytest

from provergames import gamefile
from provergames.equilibrium import enumerate_sse
from provergames.errors import GameError
from provergames.gaps import answer_bit_distribution
from provergames.protocols import (
    MripSpec,
    OracleScript,
    build_mrip_simulation,
    build_nexp_protocol,
    build_pnexp_protocol,
    build_three_coloring,
    fixed_soundness_mip,
    honest_strategy,
    mips_from_doc,
    parse_dimacs,
    toy_clause_variable_mip,
)
from provergames.subforms import dominant_sse_set, find_dominant_sse
from provergames.trees import (
    DecisionNode,
    NATURE,
    TerminalNode,
    check_perfect_recall,
    expected_utility,
    utility_vector,
    validate_game,
)

from test_cli import PNEXP_SCRIPT


class TestThreeColoring:
    def test_k3_leaf_payments(self, k3):
        game, scale = k3.game, k3.scale
        assert game.nodes[("no",)].payments == (1 * scale, 1 * scale)
        coloring = "col:012"
        agree = game.nodes[("yes", coloring, "agree")]
        assert agree.payments == (2 * scale, 1 * scale)
        caught = game.nodes[("yes", "col:000", "edge:0-1")]
        assert caught.payments == (0 * scale, 2 * scale)
        bad_audit = game.nodes[("yes", coloring, "edge:0-1")]
        assert bad_audit.payments == (2 * scale, 0 * scale)

    def test_k3_dominant(self, k3):
        dom = find_dominant_sse(k3.game)
        assert answer_bit_distribution(k3.game, dom)[1] == 1
        assert [u / k3.scale for u in utility_vector(k3.game, dom)] == [F(2), F(1)]

    def test_k4_dominant(self, k4):
        dom = find_dominant_sse(k4.game)
        assert answer_bit_distribution(k4.game, dom)[0] == 1
        assert [u / k4.scale for u in utility_vector(k4.game, dom)] == [F(1), F(1)]

    def test_monochromatic_send_gets_refuted(self, k3):
        game, scale = k3.game, k3.scale
        s = k3.honest.replace(game.set_by_history[("yes",)].key, "col:000")
        # P2's committed audit at that set names a monochromatic edge.
        audit = s.action(game.set_by_history[("yes", "col:000")].key)
        assert audit.startswith("edge:")
        terminal = game.nodes[("yes", "col:000", audit)]
        assert [p / scale for p in terminal.payments] == [F(0), F(2)]

    def test_vertex_cap(self):
        with pytest.raises(GameError):
            build_three_coloring(5, [(0, 1)])

    def test_bad_edges_rejected(self):
        with pytest.raises(GameError):
            build_three_coloring(3, [(0, 0)])
        with pytest.raises(GameError):
            build_three_coloring(2, [(0, 7)])


class TestToyMip:
    def test_contradiction_soundness_half(self):
        mip = toy_clause_variable_mip(((1,), (-1,)), 1)
        assert not mip.is_true
        assert mip.soundness == F(1, 2)

    def test_repetition_soundness_monotone(self):
        values = []
        for reps in (1, 2, 3):
            mip = toy_clause_variable_mip(((1,), (-1,)), 1, repetitions=reps)
            values.append(mip.soundness)
        assert values == [F(1, 2), F(1, 4), F(1, 8)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_satisfiable_honest_accepts_surely(self):
        mip = toy_clause_variable_mip(((1, 2), (-1, 2)), 2)
        assert mip.is_true
        p1, p2 = dict(mip.honest_p1), dict(mip.honest_p2)
        total = F(0)
        for o in mip.outcomes:
            assert mip.accepts(o.label, p1[o.p1_query], p2[o.p2_query])
            total += o.prob
        assert total == 1

    def test_oversize_rejected(self):
        with pytest.raises(GameError):
            toy_clause_variable_mip(((1,),) * 7, 1)
        with pytest.raises(GameError):
            toy_clause_variable_mip(((1,),), 1, repetitions=4)

    def test_fixed_soundness_values(self):
        mip = fixed_soundness_mip(1, 3)
        assert mip.soundness == F(1, 3) and not mip.is_true
        assert fixed_soundness_mip(3, 3).is_true

    def test_dimacs_parse(self):
        text = "c comment\np cnf 2 2\n1 2 0\n-1 2 0\n"
        num_vars, clauses = parse_dimacs(text)
        assert num_vars == 2 and clauses == ((1, 2), (-1, 2))


class TestNexpProtocol:
    def test_no_claim_leaf(self, nexp_sat):
        game, scale = nexp_sat.game, nexp_sat.scale
        assert game.nodes[("c=0",)].payments == (F(1, 2) * scale, F(1, 2) * scale)

    def test_sat_dominant_claims_membership(self, nexp_clause_sat):
        build = nexp_clause_sat
        dom = find_dominant_sse(build.game)
        assert dom is not None
        assert dom.action(build.game.set_by_history[()].key) == "c=1"
        assert expected_utility(build.game, dom, 1) / build.scale == F(1)
        assert answer_bit_distribution(build.game, dom)[1] == 1

    def test_unsat_lying_utility(self, nexp_unsat_third):
        game, scale = nexp_unsat_third.game, nexp_unsat_third.scale
        liar = nexp_unsat_third.honest.replace(game.set_by_history[()].key, "c=1")
        assert expected_utility(game, liar, 1) / scale == F(-1, 3)

    def test_clause_variable_unsat_has_no_sse(self):
        # The pooled second prover faces contradictory per-history demands, so
        # the strict per-history condition admits no SSE at all; the real
        # proof system's algebraic richness has no four-variable stand-in.
        build = build_nexp_protocol(toy_clause_variable_mip(((1,), (-1,)), 1))
        assert validate_game(build.game).ok
        assert enumerate_sse(build.game) == []


class TestPnexpProtocol:
    def test_honest_utility_and_bit(self, pnexp_toy):
        game, scale = pnexp_toy.game, pnexp_toy.scale
        assert expected_utility(game, pnexp_toy.honest, 1) / scale == F(1)
        assert answer_bit_distribution(game, pnexp_toy.honest)[
            pnexp_toy.correct_bit
        ] == 1

    def test_query_lie_utility_bound(self, pnexp_toy):
        game, scale = pnexp_toy.game, pnexp_toy.scale
        alpha = 2
        root_key = game.set_by_history[()].key
        for action in game.set_by_key[root_key].actions:
            s = pnexp_toy.honest.replace(root_key, action)
            u1 = expected_utility(game, s, 1) / scale
            if action == pnexp_toy.honest.action(root_key):
                assert u1 == 1
            else:
                assert u1 <= 1 - F(1, alpha)

    def test_consistency_failure_terminal(self, pnexp_toy):
        game, scale = pnexp_toy.game, pnexp_toy.scale
        # ans:1;11 claims output 1 but the script outputs 0 on bits (1, 1).
        node = game.nodes[("ans:1;11",)]
        assert isinstance(node, TerminalNode)
        assert [p / scale for p in node.payments] == [F(-1), F(0), F(0)]


class TestMripSimulation:
    def test_honest_dominant_with_optimum_payment(self, mrip_toy):
        game, scale = mrip_toy.game, mrip_toy.scale
        doms = dominant_sse_set(game, enumerate_sse(game))
        assert doms == [mrip_toy.honest]
        assert expected_utility(game, mrip_toy.honest, 2) / scale == F(3, 4)
        assert answer_bit_distribution(game, mrip_toy.honest)[mrip_toy.correct_bit] == 1

    def test_transcript_contradiction_strictly_negative(self, mrip_toy):
        game, scale = mrip_toy.game, mrip_toy.scale
        root_key = game.set_by_history[()].key
        honest_action = mrip_toy.honest.action(root_key)
        for action in game.set_by_key[root_key].actions:
            if action == honest_action:
                continue
            s = mrip_toy.honest.replace(root_key, action)
            delta = expected_utility(game, s, 1) - expected_utility(
                game, mrip_toy.honest, 1
            )
            # Each mismatched message is probed with probability 1/2.
            mism = sum(
                1
                for a, b in zip(action.split(":")[1].split("+"), honest_action.split(":")[1].split("+"))
                if a != b
            )
            assert delta / scale == -F(mism, 2)
            assert delta < 0

    def test_two_round_probe_probabilities(self, mrip_two_round):
        game = mrip_two_round.game
        nature = next(
            n
            for n in game.nodes.values()
            if isinstance(n, DecisionNode) and n.player == NATURE
        )
        dist = dict(zip(nature.actions, nature.dist))
        assert dist["probe:1.1"] == F(1, 2)
        assert dist["probe:1.2.0"] == F(1, 4)  # 1/2 * 1/|alphabet|^(j-1)
        assert dist["probe:1.2.1"] == F(1, 4)

    def test_positive_optimum_required(self):
        payments = {(("0",),): F(0), (("1",),): F(0)}
        with pytest.raises(GameError):
            build_mrip_simulation(MripSpec(1, 1, ("0", "1"), payments))


class TestMipSubtreeGolden:
    """sha256 of the game document and of the honest strategy document, recorded
    before the nexp and pnexp builders shared one MIP subtree helper."""

    BUILDS = {
        "nexp-fixed-2/3": (
            lambda: build_nexp_protocol(fixed_soundness_mip(2, 3)),
            "86804ca0ce39b515b343cbd035aa21385dbc4c94d98026d24286b3ebf2cc757f",
            "6f3fd50fcd30b6315e0f8b27ba0d28975b9d2c5b168146a856897eae83d3687c",
        ),
        "nexp-clause-sat": (
            lambda: build_nexp_protocol(toy_clause_variable_mip(((1, 2),), 2)),
            "a53035d69f449d54257277c30b46f0c16cbb5a9d4405ca1c6c63c529e5ff2360",
            "448cd0eaec6aaacf7c8e835b3e7c697f93d46b98c631f36059da7683829c925d",
        ),
        "nexp-clause-sat-r2": (
            lambda: build_nexp_protocol(toy_clause_variable_mip(((1, 2), (-1, 2)), 2, 2)),
            "ce0fdc2418fd2b48426105317d945eb5d97aa843f4559f43a32cb5891270ebc2",
            "9fafebe7f80d83a8eaf58b8efddf70af0811d43113d3c9e36bd72d72d0deb62a",
        ),
        "nexp-clause-unsat": (
            lambda: build_nexp_protocol(toy_clause_variable_mip(((1,), (-1,)), 1)),
            "5749c6b080df8dec820ae25a79b736feb797b7bf5cf5cf0c0dc3c58daa28f240",
            "f2c53d74352f307fbd4bbbe8eb16c4c20f3eb1ebc44d78db595fc6334fa1cbcb",
        ),
        "pnexp-script": (
            lambda: build_pnexp_protocol(
                OracleScript.from_doc(PNEXP_SCRIPT), mips_from_doc(PNEXP_SCRIPT)
            ),
            "95db0e15a306b542fc5c4800ef04456ef7ac97a7bcb81bed75f599a0fc17fc92",
            "2b10e8adc1a790dcc8f443139bc570d8996b1416374c6eb2043059053cd6a31d",
        ),
    }

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_documents_unchanged(self, name):
        build, game_sha, honest_sha = self.BUILDS[name]
        b = build()

        def sha(doc):
            return hashlib.sha256(gamefile.dumps(doc).encode()).hexdigest()

        assert sha(gamefile.game_to_doc(b.game)) == game_sha
        assert sha(gamefile.strategy_to_doc(b.honest)) == honest_sha


class TestBuilderInvariants:
    def test_all_builders_validate(
        self, k3, k4, mini_coloring, nexp_sat, nexp_unsat_third, nexp_clause_sat,
        pnexp_toy, mrip_toy, mrip_two_round,
    ):
        for build in (
            k3, k4, mini_coloring, nexp_sat, nexp_unsat_third, nexp_clause_sat,
            pnexp_toy, mrip_toy, mrip_two_round,
        ):
            assert validate_game(build.game).ok
            assert check_perfect_recall(build.game).ok

    def test_budget_after_rescaling(self, k3, nexp_unsat_third, pnexp_toy, mrip_toy):
        for build in (k3, nexp_unsat_third, pnexp_toy, mrip_toy):
            for h in build.game.terminals:
                node = build.game.nodes[h]
                assert all(-1 <= p <= 1 for p in node.payments)
                assert -1 <= sum(node.payments) <= 1

    def test_honest_strategy_rebuilds_from_metadata(
        self, k3, nexp_unsat_third, pnexp_toy, mrip_toy
    ):
        for build in (k3, nexp_unsat_third, pnexp_toy, mrip_toy):
            assert honest_strategy(build) == build.honest
            buf = io.StringIO()
            gamefile.save_game(build.game, buf)
            buf.seek(0)
            loaded, _ = gamefile.load_game(buf)
            assert honest_strategy(loaded) == build.honest

    def test_honest_among_dominants_for_in_cap_builders(
        self, mini_coloring, nexp_sat, nexp_unsat_third, nexp_clause_sat,
        pnexp_toy, mrip_toy,
    ):
        for build in (
            mini_coloring, nexp_sat, nexp_unsat_third, nexp_clause_sat,
            pnexp_toy, mrip_toy,
        ):
            doms = dominant_sse_set(build.game, enumerate_sse(build.game))
            assert build.honest in doms
            assert answer_bit_distribution(build.game, build.honest)[
                build.correct_bit
            ] == 1

    @pytest.mark.parametrize(
        "meta, key",
        [
            ({"protocol": "three_coloring"}, "vertices"),
            ({"protocol": "three_coloring", "vertices": 2}, "edges"),
            ({"protocol": "three_coloring", "vertices": 2, "edges": [5]}, "edges"),
            ({"protocol": "three_coloring", "vertices": "2", "edges": []}, "vertices"),
        ],
    )
    def test_three_coloring_metadata_is_checked(self, meta, key):
        from provergames.trees import make_game

        game = make_game(1, {(): TerminalNode((F(0),), 0)}, meta=meta)
        with pytest.raises(GameError, match=key):
            honest_strategy(game)

    def test_metadata_required(self):
        from provergames.trees import make_game

        game = make_game(1, {(): TerminalNode((F(0),), 0)})
        with pytest.raises(GameError):
            honest_strategy(game)
