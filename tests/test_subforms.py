from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from provergames.equilibrium import enumerate_sse
from provergames.errors import CapExceededError, GameError
from provergames.gaps import answer_bit_distribution
from provergames.protocols import build_three_coloring
from provergames.pruning import prune_nature
from provergames.subforms import (
    WHOLE_GAME_KEY,
    Subform,
    _Class,
    _compiled,
    _merge_answers,
    _perfect_info_dominant,
    _prover_classes,
    _subforms,
    actors_in,
    conditional_game,
    dominant_sse_set,
    dominates_on_subform,
    find_dominant_sse,
    find_subforms,
    is_dominant_sse,
    is_perfect_information,
    sets_in,
)
from provergames.trees import (
    DecisionNode,
    GameTree,
    History,
    InformationSet,
    NATURE,
    StrategyProfile,
    TerminalNode,
    _IntCore,
    all_profiles,
    continuation_values,
    expected_utility,
    make_game,
    profile_space_size,
    reach_map,
    utility_vector,
    validate_game,
)

from randgames import (
    corpus_games,
    random_game,
    random_pi_game,
    random_profile,
    random_root_lottery_game,
)


class _ProfileData:
    """Continuation values and reach probabilities of one profile, as Fractions."""

    def __init__(self, game: GameTree, s: StrategyProfile):
        self.values = continuation_values(game, s)
        self.reach = reach_map(game, s)


def dominates_fraction(
    game: GameTree, d1: _ProfileData, d2: _ProfileData, sf: Subform
) -> bool:
    """Reference for `dominates_on_subform`: Bayes values at the root set as
    exact Fractions, or member by member when either side leaves it unreached."""
    actors = actors_in(game, sf)
    if not actors:
        return True
    if sf.root_set is None:
        return all(d1.values[()][j - 1] >= d2.values[()][j - 1] for j in actors)
    iset = sf.root_set
    total1 = sum((d1.reach[h] for h in iset.members), F(0))
    total2 = sum((d2.reach[h] for h in iset.members), F(0))
    if total1 > 0 and total2 > 0:
        for j in actors:
            v1 = sum((d1.reach[h] / total1 * d1.values[h][j - 1] for h in iset.members), F(0))
            v2 = sum((d2.reach[h] / total2 * d2.values[h][j - 1] for h in iset.members), F(0))
            if v1 < v2:
                return False
        return True
    return all(
        d1.values[h][j - 1] >= d2.values[h][j - 1] for h in iset.members for j in actors
    )


def dominant_fraction(game: GameTree, sse_set: list[StrategyProfile]) -> list[StrategyProfile]:
    """Reference for `dominant_sse_set`: the height induction on `dominates_fraction`."""
    subs = find_subforms(game)
    data = [_ProfileData(game, s) for s in sse_set]
    current = list(range(len(sse_set)))
    for k in sorted({sf.height for sf in subs}):
        comp = list(range(len(sse_set))) if k == 1 else list(current)
        layer = [sf for sf in subs if sf.height == k]
        current = [
            i
            for i in current
            if all(dominates_fraction(game, data[i], data[j], sf) for sf in layer for j in comp)
        ]
    return [sse_set[i] for i in current]


def layered_pi_dominant(game: GameTree, class_cap: int) -> StrategyProfile | None:
    """Reference for the perfect-information class search: the height
    induction layer by layer. It builds the class memo unfiltered, then once
    more per prover decision height after freezing that layer's filters."""
    actors_below: dict[History, frozenset[int]] = {}
    node_height: dict[History, int] = {}
    for h in sorted(game.nodes, key=len, reverse=True):
        node = game.nodes[h]
        if isinstance(node, TerminalNode):
            actors_below[h], node_height[h] = frozenset(), 0
        else:
            kids = [h + (a,) for a in node.actions]
            owners = frozenset().union(*(actors_below[k] for k in kids))
            if node.player != NATURE:
                owners |= {node.player}
            actors_below[h] = owners
            node_height[h] = 1 + max(node_height[k] for k in kids)
    filters: dict[History, dict[int, F]] = {}  # prover -> minimum admissible value

    def classes(memo: dict, h: History) -> list[_Class]:
        node = game.nodes[h]
        if isinstance(node, TerminalNode):
            return [_Class(node.payments, ((node.answer_bit, F(1)),), ())]
        kids = [memo[h + (a,)] for a in node.actions]
        if any(not lst for lst in kids):
            return []
        if node.player == NATURE:
            combos = [_Class(tuple([F(0)] * game.provers), (), ())]
            for lst, p in zip(kids, node.dist):
                nxt: list[_Class] = []
                seen = set()
                for left in combos:
                    for cls in lst:
                        value = tuple(lv + p * cv for lv, cv in zip(left.value, cls.value))
                        answers = _merge_answers([(left.answers, F(1)), (cls.answers, p)])
                        if (value, answers) in seen:
                            continue
                        seen.add((value, answers))
                        rep = tuple(sorted((dict(left.rep) | dict(cls.rep)).items()))
                        nxt.append(_Class(value, answers, rep))
                        if len(nxt) > class_cap:
                            raise CapExceededError("continuation classes exceed cap", len(nxt))
                combos = nxt
            out = combos
        else:
            owner = node.player
            set_key = game.set_by_history[h].key
            mins = []
            for lst in kids:
                best = min(cls.value[owner - 1] for cls in lst)
                mins.append((best, next(c for c in lst if c.value[owner - 1] == best)))
            out = []
            seen = set()
            for idx, a in enumerate(node.actions):
                for cls in kids[idx]:
                    mine = cls.value[owner - 1]
                    if any(mins[b][0] > mine for b in range(len(kids)) if b != idx):
                        continue
                    if (cls.value, cls.answers) in seen:
                        continue
                    seen.add((cls.value, cls.answers))
                    rep = {set_key: a} | dict(cls.rep)
                    for b in range(len(kids)):
                        if b != idx:
                            rep |= dict(mins[b][1].rep)
                    out.append(_Class(cls.value, cls.answers, tuple(sorted(rep.items()))))
        filt = filters.get(h)
        if filt:
            out = [c for c in out if all(c.value[j - 1] >= b for j, b in filt.items())]
        if node.player != NATURE and len(out) > class_cap:
            raise CapExceededError("continuation classes exceed cap", len(out))
        return out

    def build() -> dict[History, list[_Class]]:
        memo: dict[History, list[_Class]] = {}
        for h in sorted(game.nodes, key=len, reverse=True):
            memo[h] = classes(memo, h)
        return memo

    def is_prover_node(n) -> bool:
        return isinstance(n, DecisionNode) and n.player != NATURE

    base = current = build()
    for k in sorted({node_height[h] for h, n in game.nodes.items() if is_prover_node(n)}):
        for h, n in sorted(game.nodes.items()):
            if is_prover_node(n) and node_height[h] == k:
                comp = base[h] if k == 1 else current[h]
                if comp:
                    filters[h] = {
                        j: max(c.value[j - 1] for c in comp) for j in actors_below[h]
                    }
        current = build()
    final = current[()]
    if final and not is_prover_node(game.nodes[()]) and actors_below[()]:
        bounds = {j: max(c.value[j - 1] for c in final) for j in actors_below[()]}
        final = [c for c in final if all(c.value[j - 1] >= b for j, b in bounds.items())]
    return StrategyProfile(final[0].rep) if final else None


def _outcome(search, game: GameTree, cap: int):
    try:
        return search(game, cap)
    except CapExceededError:
        return CapExceededError


def _against_reference(game: GameTree, cap: int) -> bool:
    """Check the one-pass search against `layered_pi_dominant` at `cap`; True
    when only the reference's unfiltered first build ran over the cap, and
    then the one-pass answer is the reference's answer at cap 4096."""
    got = _outcome(_perfect_info_dominant, game, cap)
    expected = _outcome(layered_pi_dominant, game, cap)
    if got is CapExceededError:
        assert expected is CapExceededError
        return False
    if expected is CapExceededError:
        assert got == layered_pi_dominant(game, 4096)
        return True
    assert got == expected
    return False


@pytest.fixture(scope="module")
def pi_corpus(k3, k4, mini_coloring):
    """Root-lottery games, 1-3-prover games with Nature (zero-probability
    edges included) and three-coloring games, all perfect information."""
    rng = random.Random(2024)
    games = [random_root_lottery_game(rng, profile_cap=512) for _ in range(150)]
    games += [
        random_pi_game(rng, provers=1 + i % 3, zero_edges=True) for i in range(600)
    ]
    p4 = build_three_coloring(4, [(0, 1), (1, 2), (2, 3)])
    return games + [k3.game, k4.game, p4.game, mini_coloring.game]


def no_dominant_game():
    """Three SSEs with utility vectors (1,0), (0,0), (0,1); none dominates."""
    nodes = {
        (): DecisionNode(1, ("L", "R")),
        ("L",): DecisionNode(2, ("p", "q")),
        ("L", "p"): TerminalNode((F(1), F(0)), 1),
        ("L", "q"): TerminalNode((F(0), F(0)), 0),
        ("R",): DecisionNode(2, ("r",)),
        ("R", "r"): TerminalNode((F(0), F(1)), 0),
    }
    return make_game(2, nodes)


class TestFindSubforms:
    def test_whole_game_always_present(self):
        rng = random.Random(9)
        for _ in range(20):
            game = random_game(rng)
            subs = find_subforms(game)
            whole = [sf for sf in subs if sf.root_set is None]
            assert len(whole) == 1
            assert whole[0].histories == frozenset(game.nodes)
            assert whole[0].height == game.height

    def test_perfect_information_every_node(self, k3):
        subs = find_subforms(k3.game)
        decision_count = len(k3.game.decision_histories)
        # Every decision node roots a subform; the root node's subform is the
        # whole-game entry.
        assert len(subs) == decision_count

    def test_closure_property_on_random_games(self):
        rng = random.Random(17)
        for _ in range(20):
            game = random_game(rng)
            for sf in find_subforms(game):
                for iset in game.info_sets:
                    members = set(iset.members)
                    assert members <= sf.histories or not (members & sf.histories)

    def test_sorted_by_height(self, pnexp_toy):
        subs = find_subforms(pnexp_toy.game)
        heights = [sf.height for sf in subs]
        assert heights == sorted(heights)

    def test_pnexp_index_query_pairs_root_subforms(self, pnexp_toy):
        game = pnexp_toy.game
        subs = find_subforms(game)
        bit_sets = [
            iset for iset in game.info_sets if iset.actions == ("c*=0", "c*=1")
        ]
        rooted = {sf.root_set.key for sf in subs if sf.root_set is not None}
        assert {iset.key for iset in bit_sets} <= rooted

    def test_closure_blocks_straddling_set(self):
        # P2's pooled set straddles the two Nature branches, so P1's later
        # sets (which separate the branches) are not wholly inside either
        # candidate... here the straddling set itself blocks P1's singletons.
        nodes = {
            (): DecisionNode(NATURE, ("x", "y"), (F(1, 2), F(1, 2))),
            ("x",): DecisionNode(1, ("a", "b")),
            ("y",): DecisionNode(1, ("a", "b")),
        }
        for first in ("x", "y"):
            for second in ("a", "b"):
                nodes[(first, second)] = TerminalNode((F(0),), 0)
        pooled = InformationSet(1, (("x",), ("y",)), ("a", "b"))
        pooled_game = GameTree(1, nodes, (pooled,))
        subs = find_subforms(pooled_game)
        assert {sf.key for sf in subs} == {pooled.key, WHOLE_GAME_KEY}

        split = (
            InformationSet(1, (("x",),), ("a", "b")),
            InformationSet(1, (("y",),), ("a", "b")),
        )
        split_game = GameTree(1, nodes, split)
        keys = {sf.key for sf in find_subforms(split_game)}
        assert keys == {split[0].key, split[1].key, WHOLE_GAME_KEY}

    def test_partial_overlap_is_not_a_subform(self):
        # A two-member P2 set below only one branch of P1's pooled set: the
        # pooled set's closure fails at the singleton, and vice versa.
        nodes = {
            (): DecisionNode(NATURE, ("x", "y"), (F(1, 2), F(1, 2))),
            ("x",): DecisionNode(1, ("a", "b")),
            ("y",): DecisionNode(1, ("a", "b")),
            ("x", "a"): DecisionNode(2, ("u", "v")),
            ("y", "a"): DecisionNode(2, ("u", "v")),
            ("x", "b"): TerminalNode((F(0), F(0)), 0),
            ("y", "b"): TerminalNode((F(0), F(0)), 0),
        }
        for first in ("x", "y"):
            for last in ("u", "v"):
                nodes[(first, "a", last)] = TerminalNode((F(0), F(0)), 0)
        sets = (
            InformationSet(1, (("x",),), ("a", "b")),
            InformationSet(1, (("y",),), ("a", "b")),
            InformationSet(2, (("x", "a"), ("y", "a")), ("u", "v")),
        )
        game = GameTree(2, nodes, sets)
        keys = {sf.key for sf in find_subforms(game)}
        # P1's singletons contain only one member of P2's pooled set; the
        # pooled set and the whole game are the only subforms.
        assert keys == {sets[2].key, WHOLE_GAME_KEY}


def reference_find_subforms(game: GameTree) -> list[Subform]:
    """The prefix scan the walk replaced: every history is tested against
    every member of every set, then every set against each candidate."""
    all_hist = frozenset(game.nodes)
    subs: list[Subform] = []
    for iset in game.sorted_sets:
        members = iset.members
        following = frozenset(h for h in all_hist if any(h[: len(m)] == m for m in members))
        closed = all(
            set(other.members) <= following or not (set(other.members) & following)
            for other in game.info_sets
        )
        if not closed or (following == all_hist and members == ((),)):
            continue
        height = 0
        for t in game.terminals:
            if t in following:
                m = next(m for m in members if t[: len(m)] == m)
                height = max(height, len(t) - len(m))
        subs.append(Subform(iset, following, height))
    subs.append(Subform(None, all_hist, game.height))
    subs.sort(key=lambda sf: (sf.height, sf.key))
    return subs


def check_walk(game: GameTree) -> int:
    """`find_subforms` against the prefix scan, and each compiled subform
    against literal oracles; the number of subforms checked."""
    subs = find_subforms(game)
    assert subs == reference_find_subforms(game)
    core = _IntCore(game)
    set_no = {iset: k for k, iset in enumerate(core.sets)}
    compiled = _compiled(core)
    assert [entry[0] for entry in compiled] == subs
    for sf, members, frontier, inside, actors in compiled:
        root = ((),) if sf.root_set is None else sf.root_set.members
        assert members == [core.index[h] for h in root]
        expected = [m for m in root if not any(o != m and m[: len(o)] == o for o in root)]
        assert frontier == [core.index[m] for m in expected]
        assert inside == tuple((set_no[i], i.owner) for i in sets_in(game, sf))
        assert actors == actors_in(game, sf)
    return len(subs)


class TestSubformWalk:
    """The walk down from each root set against the prefix scan it replaced."""

    def test_corpus_and_lottery_games(self):
        rng = random.Random(77)
        games = [game for game, _ in corpus_games(300)]
        lotteries = [random_root_lottery_game(rng) for _ in range(40)]
        games += lotteries + [
            prune_nature(g, random_profile(rng, g), 1, 1)[0] for g in lotteries
        ]
        games += [random_pi_game(rng, provers=1 + i % 3, zero_edges=True) for i in range(60)]
        assert sum(map(check_walk, games)) > len(games)

    @pytest.mark.parametrize(
        "name",
        ["k3", "k4", "mini_coloring", "nexp_unsat_third", "nexp_sat", "nexp_clause_sat",
         "pnexp_toy", "pnexp_three_query", "mrip_toy", "mrip_two_round"],
    )
    def test_builder_fixtures(self, request, name):
        check_walk(request.getfixturevalue(name).game)

    def test_absent_minded_set_walks_from_its_outer_member(self):
        # "l" and its child "l/x" share one set: the frontier is "l" alone,
        # and the height counts from it.
        t = TerminalNode((F(0),), 0)
        nodes = {
            (): DecisionNode(NATURE, ("l", "r"), (F(1, 2), F(1, 2))),
            ("l",): DecisionNode(1, ("x", "y")),
            ("l", "x"): DecisionNode(1, ("x", "y")),
            ("l", "x", "x"): t,
            ("l", "x", "y"): t,
            ("l", "y"): t,
            ("r",): t,
        }
        iset = InformationSet(1, (("l",), ("l", "x")), ("x", "y"))
        game = make_game(1, nodes, [iset])
        (sf, frontier, inside), whole = _subforms(game)
        assert sf.root_set == iset and frontier == (("l",),) and inside == (iset,)
        assert sf.height == 2 and whole[0].height == 3
        check_walk(game)

    def test_set_below_a_zero_probability_edge_blocks_closure(self):
        # P2's set joins "r" to a node Nature never plays below P1's "l".
        t = TerminalNode((F(0), F(0)), 0)
        nodes = {
            (): DecisionNode(NATURE, ("l", "r"), (F(1, 2), F(1, 2))),
            ("l",): DecisionNode(1, ("a", "b")),
            ("l", "a"): DecisionNode(NATURE, ("u", "v"), (F(1), F(0))),
            ("l", "a", "u"): t,
            ("l", "a", "v"): DecisionNode(2, ("p", "q")),
            ("l", "a", "v", "p"): t,
            ("l", "a", "v", "q"): t,
            ("l", "b"): t,
            ("r",): DecisionNode(2, ("p", "q")),
            ("r", "p"): t,
            ("r", "q"): t,
        }
        pooled = InformationSet(2, (("l", "a", "v"), ("r",)), ("p", "q"))
        game = make_game(2, nodes, [InformationSet(1, (("l",),), ("a", "b")), pooled])
        assert [sf.key for sf in find_subforms(game)] == [pooled.key, WHOLE_GAME_KEY]
        check_walk(game)

    def test_closure_fails_only_deep_below_the_frontier(self):
        # P1's sets at "l", "l/a" and "l/a/a" lie inside "l"'s histories; the
        # pooled P2 set three moves below "l" reaches out to "r".
        t = TerminalNode((F(0), F(0)), 0)
        nodes = {
            (): DecisionNode(NATURE, ("l", "r"), (F(1, 2), F(1, 2))),
            ("r",): DecisionNode(2, ("p", "q")),
            ("r", "p"): t,
            ("r", "q"): t,
        }
        h: tuple = ("l",)
        for _ in range(3):
            nodes[h] = DecisionNode(1, ("a", "b"))
            nodes[h + ("b",)] = t
            h += ("a",)
        nodes[h] = DecisionNode(2, ("p", "q"))
        nodes[h + ("p",)] = nodes[h + ("q",)] = t
        pooled = InformationSet(2, (h, ("r",)), ("p", "q"))
        singletons = [InformationSet(1, (h[:k],), ("a", "b")) for k in (1, 2, 3)]
        game = make_game(2, nodes, singletons + [pooled])
        assert [sf.key for sf in find_subforms(game)] == [pooled.key, WHOLE_GAME_KEY]
        check_walk(game)


class TestConditionalGame:
    def test_whole_game_point_belief(self, mini_coloring):
        game = mini_coloring.game
        whole = next(sf for sf in find_subforms(game) if sf.root_set is None)
        cond = conditional_game(game, whole, {(): F(1)})
        assert validate_game(cond).ok
        # Same analysis modulo the trivial Nature root.
        s = mini_coloring.honest
        remapped = StrategyProfile.from_dict(
            {
                cond.set_by_history[("m0",) + h[0:]].key if False else key: act
                for key, act in s.choices
            }
        ) if False else None
        # Info-set keys change under re-rooting; compare utilities through the
        # rebuilt profile instead.
        mapping = {}
        for iset in game.info_sets:
            new_members = tuple(sorted(("m0",) + m for m in iset.members))
            mapping[iset.key] = InformationSet(iset.owner, new_members, iset.actions).key
        s2 = StrategyProfile.from_dict({mapping[k]: a for k, a in s.choices})
        assert utility_vector(cond, s2) == utility_vector(game, s)

    def test_singleton_root_is_plain_subtree(self, mini_coloring):
        game = mini_coloring.game
        sf = next(
            sf
            for sf in find_subforms(game)
            if sf.root_set is not None and sf.root_set.members[0] == ("yes",)
        )
        cond = conditional_game(game, sf, {("yes",): F(1)})
        assert validate_game(cond).ok
        assert len(cond.nodes) == 1 + len(sf.histories)

    def test_two_member_belief_average(self):
        nodes = {
            (): DecisionNode(NATURE, ("x", "y"), (F(1, 2), F(1, 2))),
            ("x",): DecisionNode(1, ("go",)),
            ("y",): DecisionNode(1, ("go",)),
            ("x", "go"): TerminalNode((F(0),), 0),
            ("y", "go"): TerminalNode((F(1),), 1),
        }
        iset = InformationSet(1, (("x",), ("y",)), ("go",))
        game = GameTree(1, nodes, (iset,))
        sf = next(sf for sf in find_subforms(game) if sf.root_set is iset)
        cond = conditional_game(game, sf, {("x",): F(1, 2), ("y",): F(1, 2)})
        s = StrategyProfile.from_dict(
            {cond.info_sets[0].key: "go"}
        )
        assert expected_utility(cond, s, 1) == F(1, 2)

    def test_malformed_belief_rejected(self, mini_coloring):
        game = mini_coloring.game
        whole = next(sf for sf in find_subforms(game) if sf.root_set is None)
        with pytest.raises(GameError):
            conditional_game(game, whole, {(): F(1, 2)})


class TestDominance:
    def test_reflexive(self, mini_coloring):
        game, s = mini_coloring.game, mini_coloring.honest
        for sf in find_subforms(game):
            assert dominates_on_subform(game, s, s, sf)

    def test_height_one_single_prover(self):
        nodes = {
            (): DecisionNode(NATURE, ("x", "y"), (F(1, 2), F(1, 2))),
            ("x",): TerminalNode((F(0), F(0)), 0),
            ("y",): DecisionNode(2, ("p", "q")),
            ("y", "p"): TerminalNode((F(1, 2), F(1, 2)), 1),
            ("y", "q"): TerminalNode((F(1, 2), F(0)), 0),
        }
        game = make_game(2, nodes)
        sf = next(sf for sf in find_subforms(game) if sf.root_set is not None)
        assert sf.height == 1
        key = game.set_by_history[("y",)].key
        high = StrategyProfile.from_dict({key: "p"})
        low = StrategyProfile.from_dict({key: "q"})
        assert dominates_on_subform(game, high, low, sf)
        assert not dominates_on_subform(game, low, high, sf)

    def test_mip_subform_honest_dominates(self, nexp_sat):
        game, honest = nexp_sat.game, nexp_sat.honest
        p2_set = next(i for i in game.info_sets if i.owner == 2)
        sf = next(
            sf for sf in find_subforms(game) if sf.root_set is not None and sf.root_set.key == p2_set.key
        )
        lower = honest.replace(p2_set.key, "0")  # break the proof, lowering accept
        assert dominates_on_subform(game, honest, lower, sf)
        assert not dominates_on_subform(game, lower, honest, sf)


    def test_bayes_comparison_weighs_each_side_by_the_other_total(self):
        # `hi` reaches both members of P2's set (total 1), `lo` only ("a", "in")
        # (total 1/4). P2's Bayes value is 0 under `hi` and 1/2 under `lo`, so
        # `lo` dominates `hi` and not the reverse; swapping the two totals in
        # the cross-multiplication reverses both answers.
        nodes = {
            (): DecisionNode(NATURE, ("a", "b"), (F(1, 4), F(3, 4))),
            ("a",): DecisionNode(1, ("in", "out")),
            ("b",): DecisionNode(1, ("in", "out")),
            ("a", "out"): TerminalNode((F(0), F(0)), 0),
            ("b", "out"): TerminalNode((F(0), F(0)), 0),
            ("a", "in", "l"): TerminalNode((F(0), F(0)), 0),
            ("a", "in", "r"): TerminalNode((F(0), F(1, 2)), 1),
            ("b", "in", "l"): TerminalNode((F(0), F(0)), 0),
            ("b", "in", "r"): TerminalNode((F(0), F(0)), 1),
        }
        p2 = InformationSet(2, (("a", "in"), ("b", "in")), ("l", "r"))
        for h in p2.members:
            nodes[h] = DecisionNode(2, p2.actions)
        sets = (
            InformationSet(1, (("a",),), ("in", "out")),
            InformationSet(1, (("b",),), ("in", "out")),
            p2,
        )
        game = GameTree(2, nodes, sets)
        assert validate_game(game).ok
        sf = next(sf for sf in find_subforms(game) if sf.root_set == p2)
        a, b = sets[0].key, sets[1].key
        hi = StrategyProfile.from_dict({a: "in", b: "in", p2.key: "l"})
        lo = StrategyProfile.from_dict({a: "in", b: "out", p2.key: "r"})
        assert dominates_on_subform(game, lo, hi, sf)
        assert not dominates_on_subform(game, hi, lo, sf)
        d_hi, d_lo = _ProfileData(game, hi), _ProfileData(game, lo)
        assert dominates_fraction(game, d_lo, d_hi, sf)
        assert not dominates_fraction(game, d_hi, d_lo, sf)


class TestDominanceOracle:
    def test_campaign_matches_fraction_oracle(self):
        # Every subform and every ordered profile pair of small random games,
        # root-lottery games and their `prune_nature` outputs, whose zero
        # Nature edges leave members unreached under some profiles.
        rng = random.Random(4242)
        games = []
        while len(games) < 24:
            game = random_game(rng, max_nodes=40, max_prover_sets=4)
            if profile_space_size(game) <= 24:
                games.append(game)
        games += [random_root_lottery_game(rng, outcomes=(2, 4), profile_cap=24) for _ in range(8)]
        games += [prune_nature(g, random_profile(rng, g), 1, 1)[0] for g in games]
        pairs = with_dominant = 0
        for game in games:
            profiles = list(all_profiles(game))
            data = [_ProfileData(game, s) for s in profiles]
            for sf in find_subforms(game):
                for s, d in zip(profiles, data):
                    for s2, d2 in zip(profiles, data):
                        assert dominates_on_subform(game, s, s2, sf) == dominates_fraction(
                            game, d, d2, sf
                        )
                        pairs += 1
            for candidates in (enumerate_sse(game), profiles):
                survivors = dominant_sse_set(game, candidates)
                assert survivors == dominant_fraction(game, candidates)
                with_dominant += bool(survivors)
        assert pairs > 10000 and with_dominant > 20


class TestDominantSse:
    def test_single_sse_is_dominant(self):
        nodes = {
            (): DecisionNode(1, ("a", "b")),
            ("a",): TerminalNode((F(1, 2),), 1),
            ("b",): TerminalNode((F(0),), 0),
        }
        game = make_game(1, nodes)
        sses = enumerate_sse(game)
        cert = is_dominant_sse(game, sses[0], sses)
        assert cert.verdict

    def test_mini_coloring_honest_dominant_full_induction(self, mini_coloring):
        game, honest = mini_coloring.game, mini_coloring.honest
        sses = enumerate_sse(game)
        cert = is_dominant_sse(game, honest, sses)
        assert cert.verdict
        assert all(not c.failed_against for c in cert.trace if c.evaluated)
        doms = dominant_sse_set(game, sses)
        assert honest in doms
        # Dominant SSEs share the expected-utility vector.
        vecs = {utility_vector(game, d) for d in doms}
        assert len(vecs) == 1

    def test_non_sse_rejected(self, mini_coloring):
        game = mini_coloring.game
        bad = mini_coloring.honest.replace(game.set_by_history[()].key, "no")
        with pytest.raises(GameError):
            is_dominant_sse(game, bad, enumerate_sse(game))

    def test_suboptimal_sse_excluded_at_height_one(self, mrip_toy):
        # The cross-examination toy has one SSE per committed transcript; the
        # non-optimal ones fail dominance at the height-1 probe subforms.
        game = mrip_toy.game
        sses = enumerate_sse(game)
        assert len(sses) == 4
        doms = dominant_sse_set(game, sses)
        assert doms == [mrip_toy.honest]
        loser = next(s for s in sses if s not in doms)
        cert = is_dominant_sse(game, loser, sses)
        assert not cert.verdict
        failed = [c for c in cert.trace if c.evaluated and c.failed_against]
        assert failed and min(c.height for c in failed) == 1

    def test_no_dominant_when_symmetric(self):
        game = no_dominant_game()
        sses = enumerate_sse(game)
        vectors = sorted(tuple(utility_vector(game, s)) for s in sses)
        assert vectors == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
        assert dominant_sse_set(game, sses) == []
        assert find_dominant_sse(game) is None


class TestFindDominant:
    def test_k3(self, k3):
        dom = find_dominant_sse(k3.game)
        assert dom is not None
        assert answer_bit_distribution(k3.game, dom) == {0: F(0), 1: F(1)}
        assert utility_vector(k3.game, dom) == (F(2) * k3.scale, F(1) * k3.scale)

    def test_k4(self, k4):
        dom = find_dominant_sse(k4.game)
        assert dom is not None
        assert answer_bit_distribution(k4.game, dom)[0] == 1
        assert utility_vector(k4.game, dom) == (F(1) * k4.scale, F(1) * k4.scale)

    def test_structural_matches_literal_on_perfect_info_games(self, mini_coloring):
        game = mini_coloring.game
        assert is_perfect_information(game)
        literal = find_dominant_sse(game)  # within cap: literal path
        structural = _perfect_info_dominant(game, 4096)
        assert literal is not None and structural is not None
        assert utility_vector(game, literal) == utility_vector(game, structural)
        sses = enumerate_sse(game)
        assert structural in sses
        assert is_dominant_sse(game, structural, sses).verdict

    def test_structural_matches_literal_on_random_perfect_info(self):
        rng = random.Random(55)
        for _ in range(25):
            game = random_root_lottery_game(rng, profile_cap=512)
            literal_doms = dominant_sse_set(game, enumerate_sse(game))
            structural = _perfect_info_dominant(game, 4096)
            if literal_doms:
                assert structural is not None
                assert utility_vector(game, structural) == utility_vector(
                    game, literal_doms[0]
                )
                assert structural in literal_doms
            else:
                assert structural is None

    def test_structural_matches_literal_on_two_prover_perfect_info(self):
        rng = random.Random(31337)
        with_dominant = without = 0
        for _ in range(120):
            game = random_pi_game(rng)
            if profile_space_size(game) > 3000:
                continue
            literal = dominant_sse_set(game, enumerate_sse(game))
            structural = _perfect_info_dominant(game, 4096)
            if literal:
                with_dominant += 1
                assert structural in literal
                assert utility_vector(game, structural) == utility_vector(
                    game, literal[0]
                )
            else:
                without += 1
                assert structural is None
        assert with_dominant > 50

    def test_one_pass_equals_layered_reference(self, pi_corpus):
        found = 0
        for game in pi_corpus:
            assert not _against_reference(game, 4096)
            _against_reference(game, 6)
            found += _perfect_info_dominant(game, 4096) is not None
        assert found > 400

    def test_tight_cap_counts_only_filtered_classes(self, pi_corpus):
        rescued = sum(
            _against_reference(game, cap) for game in pi_corpus for cap in (1, 2, 3)
        )
        assert rescued > 0

    def test_cap_still_bounds_a_filtered_list(self):
        # Each prover is indifferent between answers 0 and 1, so both classes
        # survive its filter; Nature at 1/3, 2/3 combines them into four.
        pay, nodes = (F(0),), {(): DecisionNode(NATURE, ("x", "y"), (F(1, 3), F(2, 3)))}
        for h in (("x",), ("y",)):
            nodes[h] = DecisionNode(1, ("a", "b"))
            nodes[h + ("a",)] = TerminalNode(pay, 0)
            nodes[h + ("b",)] = TerminalNode(pay, 1)
        game = make_game(1, nodes)
        assert _perfect_info_dominant(game, 4) is not None
        with pytest.raises(CapExceededError):
            _perfect_info_dominant(game, 3)

    def test_cap_bounds_a_prover_nodes_classes(self):
        # Equal payments, answers 0, 1, 1: two classes survive at the root.
        nodes = {(): DecisionNode(1, ("a", "b", "c"))}
        for a, bit in zip("abc", (0, 1, 1)):
            nodes[(a,)] = TerminalNode((F(0),), bit)
        game = make_game(1, nodes)
        assert _perfect_info_dominant(game, 2) is not None
        with pytest.raises(CapExceededError):
            _perfect_info_dominant(game, 1)
        with pytest.raises(CapExceededError):
            layered_pi_dominant(game, 1)

    def test_tied_largest_threats(self):
        # "a" and "b" both threaten 1/4, "c" threatens 0: every class below
        # "a" and "b" pays at least 1/4 and stays, and below "c" only 1/3 does.
        nodes = {(): DecisionNode(1, ("a", "b", "c"))}
        nodes |= {(a,): TerminalNode((F(0),), 1) for a in "abc"}
        game = make_game(1, nodes)
        kids = [
            [(F(1, 4), 0), (F(1, 2), 0)],
            [(F(1, 4), 1), (F(3, 4), 1)],
            [(F(0), 0), (F(1, 5), 1), (F(1, 3), 1)],
        ]
        kids = [[_Class((v,), ((bit, F(1)),), ()) for v, bit in lst] for lst in kids]
        out = _prover_classes(game, (), game.nodes[()], kids)
        assert [(c.value[0], c.rep) for c in out] == [
            (F(1, 4), (("", "a"),)),
            (F(1, 2), (("", "a"),)),
            (F(1, 4), (("", "b"),)),
            (F(3, 4), (("", "b"),)),
            (F(1, 3), (("", "c"),)),
        ]

    def test_cap_error_on_big_imperfect_info(self):
        # Pooled sets and an over-cap profile space: no fast path applies.
        rng = random.Random(3)
        game = random_game(rng, max_prover_sets=8, max_nodes=150)
        while is_perfect_information(game):
            game = random_game(rng, max_prover_sets=8, max_nodes=150)
        with pytest.raises(CapExceededError):
            find_dominant_sse(game, profile_cap=1)

    def test_builder_games_have_dominant_with_correct_bit(
        self, nexp_sat, nexp_unsat_third, pnexp_toy, mrip_toy
    ):
        for build in (nexp_sat, nexp_unsat_third, pnexp_toy, mrip_toy):
            dom = find_dominant_sse(build.game)
            assert dom is not None
            dist = answer_bit_distribution(build.game, dom)
            assert dist[build.correct_bit] == 1
