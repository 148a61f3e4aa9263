"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
All comparisons are exact rational equalities unless stated otherwise.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest

from provergames import (
    answer_bit_distribution,
    build_mrip_simulation,
    build_nexp_protocol,
    build_three_coloring,
    dominant_sse_set,
    enumerate_sse,
    find_dominant_sse,
    fixed_soundness_mip,
    is_sse,
    is_sse_bruteforce,
    limit_beliefs,
    max_total_utility_sse,
    prune_nature,
    subinterval_profile_check,
    utility_vector,
    verify_pruning,
    verify_sequential_rationality,
    verify_utility_gap,
)
from provergames.beliefs import bayes_beliefs, reachable_sets
from provergames.gaps import splice
from provergames.subforms import find_subforms
from provergames.trees import expected_utility, profile_space_size

from randgames import (
    corpus_games,
    random_game,
    random_profile,
    random_root_lottery_game,
)


def report(n: int, ok: bool, summary: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {n} failed: {summary}"


def test_criterion_1_three_coloring():
    t0 = time.monotonic()
    k3 = build_three_coloring(3, [(0, 1), (0, 2), (1, 2)])
    dom3 = find_dominant_sse(k3.game)
    t3 = time.monotonic() - t0
    ok = dom3 is not None
    ok = ok and answer_bit_distribution(k3.game, dom3) == {0: F(0), 1: F(1)}
    ok = ok and [u / k3.scale for u in utility_vector(k3.game, dom3)] == [F(2), F(1)]
    ok = ok and t3 < 10

    t0 = time.monotonic()
    k4 = build_three_coloring(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    dom4 = find_dominant_sse(k4.game)
    t4 = time.monotonic() - t0
    ok = ok and dom4 is not None
    ok = ok and answer_bit_distribution(k4.game, dom4) == {0: F(1), 1: F(0)}
    ok = ok and [u / k4.scale for u in utility_vector(k4.game, dom4)] == [F(1), F(1)]
    ok = ok and t4 < 10
    report(
        1,
        ok,
        f"K3 answer 1 utilities (2,1) in {t3:.2f}s; K4 answer 0 utilities (1,1) in {t4:.2f}s",
    )


def test_criterion_2_nexp_gap():
    t0 = time.monotonic()
    measured = {}
    ok = True
    for accepting, total in [(1, 3), (1, 2), (1, 4), (2, 3)]:
        rho = F(accepting, total)
        unsat = build_nexp_protocol(fixed_soundness_mip(accepting, total))
        s_star = dominant_sse_set(unsat.game, enumerate_sse(unsat.game))[0]
        rep = verify_utility_gap(
            unsat.game, s_star, F(10**6), unsat.correct_bit
        )
        unsat_gap = rep.measured_gap / unsat.scale
        ok = ok and unsat_gap == F(1, 2) - (2 * rho - 1)
        measured[rho] = unsat_gap

    sat = build_nexp_protocol(fixed_soundness_mip(3, 3))
    s_star = dominant_sse_set(sat.game, enumerate_sse(sat.game))[0]
    rep = verify_utility_gap(sat.game, s_star, F(10**6), sat.correct_bit)
    sat_gap = rep.measured_gap / sat.scale
    ok = ok and sat_gap == F(1, 2)

    # Protocol-level aggregate over both instance types.
    for rho, unsat_gap in measured.items():
        ok = ok and min(sat_gap, unsat_gap) == min(F(1, 2), F(1, 2) - (2 * rho - 1))
    ok = ok and measured[F(1, 3)] == F(5, 6)
    dt = time.monotonic() - t0
    ok = ok and dt < 60
    report(
        2,
        ok,
        f"unsat gap 1/2-(2r-1) at r in (1/3,1/2,1/4,2/3), sat gap 1/2, "
        f"gap at soundness 1/3 = 5/6 exactly ({dt:.1f}s)",
    )


def test_criterion_3_pnexp_quantities(pnexp_toy):
    t0 = time.monotonic()
    game, scale, honest = pnexp_toy.game, pnexp_toy.scale, pnexp_toy.honest
    alpha = 2
    ok = expected_utility(game, honest, 1) / scale == F(1)

    # The claimant's utility after any root lie stays below 1 - 1/alpha.
    root_key = game.set_by_history[()].key
    honest_action = honest.action(root_key)
    for action in game.set_by_key[root_key].actions:
        if action == honest_action:
            continue
        u1 = expected_utility(game, honest.replace(root_key, action), 1) / scale
        ok = ok and u1 <= 1 - F(1, alpha)

    # A prover answering the reachable false query wrongly forfeits at least
    # (1/alpha)(5/6) overall, exactly (1/alpha)(5/6) in the pure case.
    target = next(
        i
        for i in game.info_sets
        if i.actions == ("c*=0", "c*=1") and ("ans:1;10", "i=2") in i.members
    )
    sf = next(
        s for s in find_subforms(game) if s.root_set is not None and s.root_set.key == target.key
    )
    liar = honest.replace(target.key, "c*=1")
    spliced = utility_vector(game, splice(game, liar, sf, honest))
    base = utility_vector(game, liar)
    loss2 = (spliced[1] - base[1]) / scale
    ok = ok and loss2 == F(1, alpha) * F(5, 6)

    # Both sub-provers lying inside the same subform each lose at least that.
    mip3 = next(
        i for i in game.info_sets if i.owner == 3 and i.members[0][:3] == ("ans:0;11", "i=2", "c*=1")
    )
    both = liar.replace(mip3.key, "0")
    spliced = utility_vector(game, splice(game, both, sf, honest))
    base = utility_vector(game, both)
    ok = ok and (spliced[1] - base[1]) / scale >= F(1, alpha) * F(5, 6)
    ok = ok and (spliced[2] - base[2]) / scale >= F(1, alpha) * F(5, 6)

    # Whole-protocol scan within the enumeration cap; the binding wrong profile
    # denies a true query, losing exactly (1/alpha)(1/2), so any strictly
    # smaller threshold verifies.
    rep = verify_utility_gap(game, honest, F(5) / scale, pnexp_toy.correct_bit)
    ok = ok and rep.verdict and rep.measured_gap / scale == F(1, alpha) * F(1, 2)
    dt = time.monotonic() - t0
    ok = ok and dt < 300
    report(
        3,
        ok,
        f"query-lie loss {loss2} = (1/2)(5/6), claimant lie <= 1/2, "
        f"measured gap {rep.measured_gap / scale} ({dt:.1f}s)",
    )


def test_criterion_4_one_shot_equivalence():
    t0 = time.monotonic()
    games = 0
    profiles = 0
    mismatches = 0
    for game, rng in corpus_games(1000):
        games += 1
        for _ in range(10):
            s = random_profile(rng, game)
            profiles += 1
            if is_sse(game, s).verdict != is_sse_bruteforce(game, s).verdict:
                mismatches += 1
    dt = time.monotonic() - t0
    report(
        4,
        mismatches == 0 and games == 1000 and profiles == 10000,
        f"{games} games x 10 profiles, {mismatches} discrepancies ({dt:.1f}s)",
    )


def test_criterion_5_sse_to_sequential_equilibrium(
    mini_coloring, nexp_sat, nexp_unsat_third, nexp_clause_sat, pnexp_toy, mrip_toy
):
    t0 = time.monotonic()
    checked = 0
    failures = 0
    for build in (
        mini_coloring,
        nexp_sat,
        nexp_unsat_third,
        nexp_clause_sat,
        pnexp_toy,
        mrip_toy,
    ):
        game = build.game
        for s in enumerate_sse(game):
            checked += 1
            mu, _ = limit_beliefs(game, s)
            if not verify_sequential_rationality(game, s, mu).verdict:
                failures += 1
            for iset in reachable_sets(game, s):
                if mu.at(iset) != bayes_beliefs(game, s, iset):
                    failures += 1
    dt = time.monotonic() - t0
    report(
        5,
        failures == 0 and checked > 0,
        f"{checked} enumerated SSEs sequentially rational under limit beliefs, "
        f"limit = Bayes at all reachable sets ({dt:.1f}s)",
    )


def test_criterion_6_pruning_campaign():
    t0 = time.monotonic()
    rng = random.Random(0xBADA55)
    games = 0
    violations = 0
    while games < 1000:
        game = random_root_lottery_game(rng, profile_cap=512)
        sses = enumerate_sse(game)
        doms = dominant_sse_set(game, sses)
        if not doms:
            violations += 1  # single-prover games always admit a dominant SSE
            break
        s = doms[0]
        games += 1
        alpha = 1 + games % 2
        pruned, _ = prune_nature(game, s, alpha, 1)
        rep = verify_pruning(game, pruned, s, alpha, designated_prover=1)
        if not all(e.ok for e in rep.support):
            violations += 1
        if not rep.claim2_ok:
            violations += 1
        if not (rep.dominance_checked and rep.dominance_ok):
            violations += 1
    dt = time.monotonic() - t0
    report(
        6,
        violations == 0 and games == 1000,
        f"{games} pruned games: support <= 8a, designated drift < 1/(4a), "
        f"dominance preserved; {violations} violations ({dt:.1f}s)",
    )


def test_criterion_7_max_total_dominance():
    t0 = time.monotonic()
    games = 0
    eligible = 0
    violations = 0
    for game, _ in corpus_games(1000):
        games += 1
        if profile_space_size(game) > 3000:
            continue
        sses = enumerate_sse(game)
        if not sses:
            continue
        vectors = [utility_vector(game, s) for s in sses]
        exists_dominant = any(
            all(all(v[j] >= w[j] for j in range(game.provers)) for w in vectors)
            for v in vectors
        )
        if not exists_dominant:
            continue
        eligible += 1
        best, flag = max_total_utility_sse(game, sses)
        best_vec = utility_vector(game, best)
        if not flag:
            violations += 1
        if not all(
            all(best_vec[j] >= w[j] for j in range(game.provers)) for w in vectors
        ):
            violations += 1
    dt = time.monotonic() - t0
    report(
        7,
        violations == 0 and games == 1000 and eligible >= 300,
        f"{games} corpus games, {eligible} with a per-player dominant SSE, "
        f"{violations} violations ({dt:.1f}s)",
    )


def test_criterion_8_subinterval_profiles():
    t0 = time.monotonic()
    rng = random.Random(0x5EED)
    qualifying = 0
    attempts = 0
    violations = 0
    nonvacuous = 0
    while qualifying < 1000 and attempts < 20000:
        attempts += 1
        game = random_game(
            rng,
            provers=2,
            max_nodes=22,
            max_depth=3,
            max_actions=2,
            max_prover_sets=5,
        )
        if profile_space_size(game) > 256:
            continue
        sses = enumerate_sse(game)
        if not sses:
            continue
        doms = dominant_sse_set(game, sses)
        if not doms:
            continue
        s_star = doms[0]
        bits = answer_bit_distribution(game, s_star)
        if bits[0] != 1 and bits[1] != 1:
            continue
        correct = 1 if bits[1] == 1 else 0
        rep = verify_utility_gap(game, s_star, F(10**9), correct)
        if rep.measured_gap is None or rep.measured_gap <= 0:
            continue
        alpha = int(1 / rep.measured_gap) + 1  # smallest integer with 1/a < gap
        qualifying += 1
        sub = subinterval_profile_check(game, alpha, sses, s_star=s_star)
        nonvacuous += 1 if sub.checked else 0
        violations += len(sub.violations)
    dt = time.monotonic() - t0
    report(
        8,
        violations == 0 and qualifying >= 1000 and nonvacuous > 0,
        f"{qualifying} gap games (of {attempts} drawn), {nonvacuous} with "
        f"closeness-failing SSEs, {violations} violations ({dt:.1f}s)",
    )


def test_criterion_9_mrip_simulation(mrip_toy):
    game, scale, honest = mrip_toy.game, mrip_toy.scale, mrip_toy.honest
    sses = enumerate_sse(game)
    doms = dominant_sse_set(game, sses)
    ok = doms == [honest]
    ok = ok and answer_bit_distribution(game, honest)[mrip_toy.correct_bit] == 1

    root_key = game.set_by_history[()].key
    honest_action = honest.action(root_key)
    worst = F(0)
    for action in game.set_by_key[root_key].actions:
        if action == honest_action:
            continue
        s = honest.replace(root_key, action)
        delta = expected_utility(game, s, 1) - expected_utility(game, honest, 1)
        ok = ok and delta < 0
        worst = min(worst, delta)
    report(
        9,
        ok,
        f"honest transcript is the unique dominant SSE (bit {mrip_toy.correct_bit}); "
        f"every inconsistent commitment costs the committer, worst {worst / scale} pre-scaling",
    )
