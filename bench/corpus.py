"""Frozen seeded game families and the stratified pools the workloads draw from.

`random_game`, `random_profile` and `random_root_lottery_game` are copies of
the families in `tests/randgames.py` as they stood when this benchmark was
defined. They live here so that an edit to the test corpus cannot silently
change what a workload measures; a change to a workload is a change to these
files and shows up as a benchmark change.

Why these families:

- `random_game` with the criterion-7 parameters gives two-prover games with
  pooled information sets, perfect recall by construction, and profile spaces
  from 1 to a few hundred. They cover the one-shot SSE check, the height
  induction and limit beliefs on games the engine has never seen, which is
  what the acceptance campaigns 4, 7 and 8 exercise.
- `random_game` with fewer nodes and more prover sets gives the 512-2048
  profile games of the gap scan: enough profiles that the per-profile splice
  loop dominates, few enough nodes that a job takes about 0.15 s.
- `random_root_lottery_game` is the criterion-6 family: single prover, one
  Nature lottery at the root, perfect information below. Pruning provably
  preserves dominance on it, so the pruning report has exact expected flags.

Job cost grows roughly with profiles x nodes and varies by a factor of about
ten between games drawn from one family. A pool drawn freely per seed would
make throughput depend on the seed; `stratified_pool` instead fills fixed
quotas per cost band (log2 of profiles x nodes), so every seed yields the same
mix of cheap and expensive jobs and only the games within a band differ.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from provergames.trees import (
    NATURE,
    DecisionNode,
    GameTree,
    History,
    InformationSet,
    StrategyProfile,
    TerminalNode,
    profile_space_size,
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
    """Random imperfect-information game with perfect recall by construction.

    A prover node's information set is keyed by the owner's own past
    (set, action) experience plus an observation token, so two pooled
    histories always share the owner's past.
    """
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
    """Single prover, one Nature move at the root, perfect information below."""

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


def cost_band(game: GameTree, per_octave: int = 1) -> int:
    """log2 of profiles x nodes, the first-order cost of an exhaustive scan,
    in steps of 1/per_octave."""
    return int(per_octave * math.log2(profile_space_size(game) * len(game.nodes)))


def stratified_pool(
    draw: Callable[[], object | None],
    band_of: Callable[[object], int],
    quotas: Mapping[int, int],
    blocks: int,
) -> list[list[object]]:
    """`blocks` lists, each holding exactly `quotas[band]` items per band.

    `draw` returns a candidate or None (rejected); candidates whose band has
    no quota, or whose band is already full, are discarded.
    """
    need = {band: count * blocks for band, count in quotas.items()}
    filled: dict[int, list[object]] = {band: [] for band in quotas}
    while any(len(filled[b]) < need[b] for b in quotas):
        item = draw()
        if item is None:
            continue
        band = band_of(item)
        if band in filled and len(filled[band]) < need[band]:
            filled[band].append(item)
    out = []
    for i in range(blocks):
        block = []
        for band in sorted(quotas):
            q = quotas[band]
            block.extend(filled[band][i * q : (i + 1) * q])
        out.append(block)
    return out


def shuffle_within(rng: random.Random, blocks: Sequence[list]) -> list[list]:
    """Shuffle the order inside each block; blocks keep their order."""
    out = []
    for block in blocks:
        block = list(block)
        rng.shuffle(block)
        out.append(block)
    return out
