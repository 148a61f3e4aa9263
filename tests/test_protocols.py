from __future__ import annotations

import hashlib
import io
import itertools
from fractions import Fraction as F

import pytest

from provergames import gamefile
from provergames.equilibrium import enumerate_sse
from provergames.errors import GameError
from provergames.gaps import answer_bit_distribution
from provergames.protocols import (
    DRAW_CAP,
    MipOutcome,
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

from test_cli import MRIP_SPEC, PNEXP_SCRIPT


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

    def test_fixed_soundness_total_is_capped(self):
        assert len(fixed_soundness_mip(1, DRAW_CAP).outcomes) == DRAW_CAP
        with pytest.raises(GameError, match="exceeds cap"):
            fixed_soundness_mip(1, DRAW_CAP + 1)

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


def _mrip(provers, rounds, pay):
    """The mrip simulation of a binary-alphabet spec paying `pay(transcript)`."""
    space = [tuple(itertools.product("01", repeat=rounds))] * provers
    return build_mrip_simulation(
        MripSpec(provers, rounds, ("0", "1"), {t: pay(t) for t in itertools.product(*space)})
    )


class TestSpecDocuments:
    """`to_doc` writes the document `from_doc` reads, and a built game's
    metadata is that document plus the builder's own keys."""

    SCRIPTS = [
        PNEXP_SCRIPT,
        {"first": "q", "output": {"0": 1, "1": 0}, "num_queries": 1, "mips": {}},
    ]
    SPECS = [
        MRIP_SPEC,
        {"provers": 1, "rounds": 2, "alphabet": ["a", "b", "c"],
         "payments": {f"{x}+{y}": "1/3" for x in "abc" for y in "abc"}},
    ]

    @pytest.mark.parametrize("doc", SCRIPTS)
    def test_oracle_script_round_trip(self, doc):
        script = OracleScript.from_doc(doc)
        assert OracleScript.from_doc(script.to_doc()) == script
        keys = ("first", "next", "output", "num_queries")
        assert script.to_doc() == {k: doc.get(k, {}) for k in keys}

    @pytest.mark.parametrize("doc", SPECS)
    def test_mrip_spec_round_trip(self, doc):
        spec = MripSpec.from_doc(doc)
        assert MripSpec.from_doc(spec.to_doc()) == spec
        assert spec.to_doc() == doc

    def test_pnexp_meta_is_script_document(self):
        script = OracleScript.from_doc(PNEXP_SCRIPT)
        build = build_pnexp_protocol(script, mips_from_doc(PNEXP_SCRIPT))
        assert build.game.meta == script.to_doc() | {
            "protocol": "pnexp", "mips": PNEXP_SCRIPT["mips"], "scale": "1/3",
            "correct_bit": build.correct_bit,
        }

    @pytest.mark.parametrize("doc", SPECS)
    def test_mrip_meta_is_spec_document(self, doc):
        spec = MripSpec.from_doc(doc)
        build = build_mrip_simulation(spec)
        assert build.game.meta == spec.to_doc() | {
            "protocol": "mrip", "scale": "1/2", "correct_bit": build.correct_bit,
        }


class TestBuilderGolden:
    """sha256 of the game document and of the honest strategy document. The
    nexp and pnexp entries were recorded before those builders shared one MIP
    subtree helper, the others before every builder shared one finishing path."""

    BUILDS = {
        "three-coloring-k3": (
            lambda: build_three_coloring(3, [(0, 1), (0, 2), (1, 2)]),
            "2efcb490abcf08f24021497137d8e94896df57e9653918306cf7e1632255d6bd",
            "655317136c67cb914e24a9442a6696fdaaeaaef6c1d4de054757b94ce4bb7ff5",
        ),
        "three-coloring-k4": (
            lambda: build_three_coloring(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            "6068fb1236e7db48e579de6872a4eeca854bfbfdaa9e57b107d3a4a93a1d4e00",
            "d8bc936fb3d86aeecb7c4cdd3b104f6e0e1ae5a905ae7f2dc5c5349c1722c179",
        ),
        "three-coloring-edge": (
            lambda: build_three_coloring(2, [(0, 1)]),
            "0657500201df78901f26e06447215bedbd442e41d212fc633444ecbabeb6f533",
            "a729f8ca2ae951afaf63d800cb79c9d46e87d02d975f1e4aaff7c6a243f7b46d",
        ),
        "mrip-toy": (
            lambda: build_mrip_simulation(MripSpec.from_doc(MRIP_SPEC)),
            "534d4607f0ff10fc668622ddfd374248dde94d0aeefefa09f74b32f32894a940",
            "571a6f0bac8a227e17991a2cbb798cc17d0d33d9a39ae43f29f82f87798ce4d9",
        ),
        "mrip-two-round": (
            lambda: _mrip(1, 2, lambda t: F(1 + int(t[0][0]) * 4 + int(t[0][1]) * 2, 8)),
            "870277648c7b94601de7911967ab1f9d58b4640efaab7656c274d64857405efe",
            "2c2fd63075132c1b84517b9401d30f0ee51c29bf596a13b752ee27324c019ee1",
        ),
        "mrip-two-prover-two-round": (
            # Ties in the payments exercise the shared tie-break of probe
            # answers and continuations.
            lambda: _mrip(2, 2, lambda t: F(int(t[0][0]) + int(t[0][1]) + int(t[1][0]) * int(t[1][1]) + 1, 4)),
            "d810f1f78401658b2dc206c37e99d6878d3351413396e9a07577ed476cc4dbc5",
            "79e4d64728be626f3a9b5b4746e18ad4d3ea663fca47c8ce7e42973b65d6ab28",
        ),
        "nexp-clause-unsat-r2": (
            lambda: build_nexp_protocol(toy_clause_variable_mip(((1,), (-1,)), 1, 2)),
            "636340347bff3a29024a36793c2d808c56b7c72e0279c14a798569662aa92621",
            "d5504d70f054d85c4cfaf94cdde3ee4342ccb0ddc9d82e389cf06ee91c79bb05",
        ),
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

    def test_clause_var_boxes_unchanged(self):
        sat = toy_clause_variable_mip(((1, 2), (-1, 2)), 2)
        alphabet = ("00", "01", "10", "11")
        assert (sat.name, sat.soundness, sat.is_true) == ("clause-var-sat-2x2r1", None, True)
        assert sat.honest_p1 == (("c1", "01"), ("c2", "01"))
        assert sat.honest_p2 == (("v1", "0"), ("v2", "1"))
        assert sat.p1_answers == (("c1", alphabet), ("c2", alphabet))
        assert sat.p2_answers == (("v1", ("0", "1")), ("v2", ("0", "1")))
        assert sat.outcomes == tuple(
            MipOutcome(f"c{c}.v{v}", F(1, 4), f"c{c}", f"v{v}") for c in (1, 2) for v in (1, 2)
        )

        unsat = toy_clause_variable_mip(((1,), (-1,)), 1, 2)
        pairs = ("0+0", "0+1", "1+0", "1+1")
        queries = ("c1+c1", "c1+c2", "c2+c1", "c2+c2")
        assert (unsat.name, unsat.soundness, unsat.is_true) == (
            "clause-var-unsat-2x1r2", F(1, 4), False,
        )
        assert unsat.honest_p1 == tuple((q, "0+0") for q in queries)
        assert unsat.honest_p2 == (("v1+v1", "0+0"),)
        assert unsat.p1_answers == tuple((q, pairs) for q in queries)
        assert unsat.p2_answers == (("v1+v1", pairs),)
        assert unsat.outcomes == tuple(
            MipOutcome(f"c{a}.v1+c{b}.v1", F(1, 4), f"c{a}+c{b}", "v1+v1")
            for a in (1, 2) for b in (1, 2)
        )


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
