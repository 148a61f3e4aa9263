"""Seeded random game families for the property campaigns.

All games come out valid, with perfect recall by construction: a prover node's
information set is keyed by the owner's own past (set, action) experience plus
an observation token, so two pooled histories always share the owner's past.
"""

from __future__ import annotations

import random
from fractions import Fraction

from provergames.trees import (
    NATURE,
    DecisionNode,
    GameTree,
    History,
    InformationSet,
    StrategyProfile,
    TerminalNode,
    make_game,
)

ACTION_NAMES = ("a", "b", "c")
PAY_GRID = [Fraction(k, 4) for k in range(-4, 5)]


def _payments(rng: random.Random, provers: int) -> tuple[Fraction, ...]:
    while True:
        pays = tuple(rng.choice(PAY_GRID) for _ in range(provers))
        if -1 <= sum(pays) <= 1:
            return pays


def random_game(
    rng: random.Random,
    *,
    provers: int = 2,
    max_depth: int = 4,
    max_actions: int = 3,
    max_nodes: int = 200,
    max_prover_sets: int = 8,
    nature_weight: float = 0.3,
    stop_weight: float = 0.4,
    obs_pool: int = 2,
) -> GameTree:
    nodes: dict[History, object] = {}
    signal_of: dict[History, tuple] = {}
    actions_of: dict[tuple, tuple[str, ...]] = {}
    budget = [max_nodes]

    def grow(h: History, depth: int, experience: dict[int, tuple]) -> None:
        budget[0] -= 1
        stop = depth >= max_depth or budget[0] <= 2 or rng.random() < stop_weight
        if stop and depth > 0:
            nodes[h] = TerminalNode(_payments(rng, provers), rng.randrange(2))
            return
        if rng.random() < nature_weight:
            k = rng.randint(2, max_actions)
            weights = [rng.randint(1, 4) for _ in range(k)]
            total = sum(weights)
            dist = tuple(Fraction(w, total) for w in weights)
            acts = ACTION_NAMES[:k]
            nodes[h] = DecisionNode(NATURE, acts, dist)
            for a in acts:
                grow(h + (a,), depth + 1, experience)
            return
        owner = rng.randint(1, provers)
        obs = rng.randrange(obs_pool)
        signal = (owner, experience[owner], depth, obs)
        if signal not in actions_of:
            if len(actions_of) >= max_prover_sets:
                nodes[h] = TerminalNode(_payments(rng, provers), rng.randrange(2))
                return
            actions_of[signal] = ACTION_NAMES[: rng.randint(2, max_actions)]
        acts = actions_of[signal]
        nodes[h] = DecisionNode(owner, acts)
        signal_of[h] = signal
        for a in acts:
            nxt = dict(experience)
            nxt[owner] = experience[owner] + ((signal, a),)
            grow(h + (a,), depth + 1, nxt)

    grow((), 0, {j: () for j in range(1, provers + 1)})

    buckets: dict[tuple, list[History]] = {}
    for h, sig in signal_of.items():
        buckets.setdefault(sig, []).append(h)
    sets = tuple(
        InformationSet(sig[0], tuple(sorted(members)), actions_of[sig])
        for sig, members in sorted(buckets.items(), key=lambda kv: str(kv[0]))
    )
    return GameTree(provers, nodes, sets)


def random_profile(rng: random.Random, game: GameTree) -> StrategyProfile:
    return StrategyProfile.from_dict(
        {iset.key: rng.choice(iset.actions) for iset in game.info_sets}
    )


def random_root_lottery_game(
    rng: random.Random,
    *,
    outcomes: tuple[int, int] = (3, 6),
    subtree_depth: int = 2,
    max_actions: int = 3,
    profile_cap: int = 2048,
) -> GameTree:
    """Single prover, one Nature move at the root, perfect information below.

    The family where the pruning transform provably preserves dominance: all
    continuation conditions are belief-free and dominant continuations share
    every node value. Profile spaces are kept enumerable so the dominant SSE
    can be brute-force verified.
    """

    def attempt() -> GameTree:
        nodes: dict[History, object] = {}
        budget = [10]  # prover decision nodes

        def grow(h: History, depth: int) -> None:
            if depth >= subtree_depth or budget[0] <= 0 or rng.random() < 0.45:
                nodes[h] = TerminalNode((rng.choice(PAY_GRID),), rng.randrange(2))
                return
            budget[0] -= 1
            acts = ACTION_NAMES[: rng.randint(2, max_actions)]
            nodes[h] = DecisionNode(1, acts)
            for a in acts:
                grow(h + (a,), depth + 1)

        k = rng.randint(*outcomes)
        weights = [rng.randint(1, 6) for _ in range(k)]
        total = sum(weights)
        labels = tuple(f"o{i}" for i in range(k))
        nodes[()] = DecisionNode(
            NATURE, labels, tuple(Fraction(w, total) for w in weights)
        )
        for a in labels:
            grow((a,), 0)
        sets = tuple(
            InformationSet(1, (h,), n.actions)
            for h, n in sorted(nodes.items())
            if isinstance(n, DecisionNode) and n.player != NATURE
        )
        return GameTree(1, nodes, sets)

    while True:
        game = attempt()
        size = 1
        for iset in game.info_sets:
            size *= len(iset.actions)
        if size <= profile_cap:
            return game


def random_pi_game(
    rng: random.Random,
    *,
    provers: int = 2,
    max_prover_nodes: int = 9,
    zero_edges: bool = False,
) -> GameTree:
    """Perfect information, depth at most 3, Nature at about a quarter of the
    decision nodes; with `zero_edges` a Nature edge may carry probability 0."""
    nodes: dict[History, object] = {}
    budget = [max_prover_nodes]

    def grow(h: History, depth: int) -> None:
        if depth >= 3 or budget[0] <= 0 or (depth > 0 and rng.random() < 0.4):
            nodes[h] = TerminalNode(_payments(rng, provers), rng.randrange(2))
            return
        if rng.random() < 0.25:
            k = rng.randint(2, 3)
            w = [rng.randint(0 if zero_edges else 1, 3) for _ in range(k)]
            if not any(w):
                w[0] = 1
            nodes[h] = DecisionNode(
                NATURE, ACTION_NAMES[:k], tuple(Fraction(x, sum(w)) for x in w)
            )
        else:
            budget[0] -= 1
            nodes[h] = DecisionNode(
                rng.randint(1, provers), ACTION_NAMES[: rng.randint(2, 3)]
            )
        for a in nodes[h].actions:
            grow(h + (a,), depth + 1)

    grow((), 0)
    return make_game(provers, nodes)


def corpus_games(count: int):
    """The criterion-4/7 corpus: <=200 nodes, <=3 actions, <=2 provers."""
    rng = random.Random(0xC0FFEE)
    for i in range(count):
        yield random_game(
            rng,
            provers=2,
            max_nodes=20 + (i % 10) * 20,
            max_depth=3 + (i % 3),
            max_actions=3,
            max_prover_sets=6,
        ), rng
