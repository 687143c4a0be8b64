"""End-to-end acceptance: reference-table reproduction, oracle agreement, budgets.

Each test prints one `[acceptance] ...: PASS/FAIL` line (run with -s to see
them on success; pytest shows captured output for failures).
"""

import time
from itertools import product

import numpy as np
import pytest

from cells import cells_at, slot_fraction_se
from csma_game.analysis import (
    _age_slope_parts,
    _cost_slope_parts,
    _wifi_slope,
    alpha2_root,
    tau_prime_upper_bound,
    verify_quasiconcavity,
)
from csma_game.equilibrium import enumerate_nash, single_network_optimum, solve_stackelberg
from csma_game.game import _cost_expr, build_surfaces, rescale_age_per_opponent
from csma_game.metrics import _aoi_expr, _throughput_expr, aoi_node, inter_update_moments, per_node_throughput
from csma_game.model import DSRC, WIFI, AccessVector, NetworkConfig, SlotLengths, StrategyPair
from csma_game.simulate import SimConfig, run_simulation

BETA = 0.001
S001 = SlotLengths.from_beta(BETA)


def _finish(name, failures, elapsed, budget):
    ok = not failures and elapsed <= budget
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, budget {budget:g}s)")
    for item in failures:
        print(f"  - {item}")
    assert not failures, f"{name}: {failures}"
    assert elapsed <= budget, f"{name}: runtime {elapsed:.2f}s exceeds {budget:g}s"


# One lone-network table: (kind, n) -> (tau*, value), both printed to 4 decimals.
# The wifi n=4 value 0.2407 is not attainable from this throughput curve: its
# true maximum is 0.2406447 (confirmed by the slot-kernel route as well), which
# rounds to 0.2406. The entry is asserted as printed and is expected to fail.
LONE_OPTIMA = {
    (DSRC, 2): (0.0268, 2.5576),
    (DSRC, 4): (0.0119, 4.6505),
    (DSRC, 10): (0.0100, 11.0723),
    (WIFI, 2): (0.0306, 0.4847),
    (WIFI, 4): (0.0126, 0.2407),
    (WIFI, 10): (0.0100, 0.0946),
}


def test_criterion_01_lone_network_optima_to_four_decimals():
    t0 = time.perf_counter()
    failures = []
    for (kind, n), (tau_ref, value_ref) in LONE_OPTIMA.items():
        res = single_network_optimum(kind, n, BETA)
        if round(res.tau_star, 4) != tau_ref:
            failures.append(f"{kind} n={n}: tau {res.tau_star:.6f} -> {round(res.tau_star, 4)} != {tau_ref}")
        if round(res.value, 4) != value_ref:
            failures.append(f"{kind} n={n}: value {res.value:.6f} -> {round(res.value, 4)} != {value_ref}")
    _finish("lone-network optima (4 decimals)", failures, time.perf_counter() - t0, 1.0)


FREE_NASH_ROWS = {
    (1, 1): (0.99, 0.99, 101.6015, 0.0099),
    (2, 1): (0.50, 0.99, 399.8980, 0.2494),
    (2, 2): (0.46, 0.46, 12.9614, 0.0803),
    (2, 5): (0.44, 0.18, 9.9417, 0.0288),
    (5, 1): (0.20, 0.99, 1218.4, 0.3268),
    (5, 2): (0.18, 0.44, 35.2623, 0.1060),
    (5, 5): (0.17, 0.17, 26.8100, 0.0380),
}


def test_criterion_02_free_game_nash_rows():
    t0 = time.perf_counter()
    failures = []
    for (nd, nw), (td, tw, age_ref, thr_ref) in FREE_NASH_ROWS.items():
        surf = build_surfaces(NetworkConfig(nd, nw, BETA))
        results = enumerate_nash(surf)
        near = [
            r for r in results
            if abs(r.pair.tau_d - td) <= 0.0101 and abs(r.pair.tau_w - tw) <= 0.0101
        ]
        if not near:
            found = [(round(r.pair.tau_d, 2), round(r.pair.tau_w, 2)) for r in results]
            failures.append(f"({nd},{nw}): no equilibrium near ({td},{tw}); found {found}")
            continue
        best = near[0]
        if abs(best.age - age_ref) > 0.05 * age_ref:
            failures.append(f"({nd},{nw}): age {best.age:.4f} vs {age_ref} beyond 5%")
        if abs(best.throughput - thr_ref) > 0.05 * thr_ref:
            failures.append(f"({nd},{nw}): throughput {best.throughput:.4f} vs {thr_ref} beyond 5%")
    _finish("free-game Nash rows", failures, time.perf_counter() - t0, 10.0)


# (leader, nd, nw) -> (tau_d, tau_w, age, throughput). Three of the six cells
# sit on plateaus where the composed leader objective is flat to ~0.3%; the
# reference coordinates there are not the exact grid max-min points (the exact
# optima differ by 0.02-0.03 in one coordinate) and are expected to fail.
STACKELBERG_ROWS = {
    (DSRC, 1, 1): (0.99, 0.99, 101.6015, 0.0099),
    (DSRC, 2, 2): (0.32, 0.42, 12.2014, 0.1328),
    (DSRC, 5, 5): (0.10, 0.15, 25.2029, 0.0615),
    (WIFI, 1, 1): (0.99, 0.99, 101.5607, 0.0099),
    (WIFI, 2, 2): (0.41, 0.30, 7.3323, 0.0857),
    (WIFI, 5, 5): (0.15, 0.10, 16.7464, 0.0405),
}


def test_criterion_03_stackelberg_rows():
    t0 = time.perf_counter()
    failures = []
    for (leader, nd, nw), (td, tw, age_ref, thr_ref) in STACKELBERG_ROWS.items():
        res = solve_stackelberg(leader, build_surfaces(NetworkConfig(nd, nw, BETA)))
        if abs(res.pair.tau_d - td) > 0.0101 or abs(res.pair.tau_w - tw) > 0.0101:
            failures.append(
                f"{leader} ({nd},{nw}): pair ({res.pair.tau_d:.2f},{res.pair.tau_w:.2f}) vs ({td},{tw})"
            )
        if abs(res.age - age_ref) > 0.05 * age_ref:
            failures.append(f"{leader} ({nd},{nw}): age {res.age:.4f} vs {age_ref} beyond 5%")
        if abs(res.throughput - thr_ref) > 0.05 * thr_ref:
            failures.append(f"{leader} ({nd},{nw}): thr {res.throughput:.4f} vs {thr_ref} beyond 5%")
    _finish("Stackelberg rows", failures, time.perf_counter() - t0, 30.0)


def test_criterion_04_costed_equilibria_qualitative():
    t0 = time.perf_counter()
    failures = []
    weights = dict(w_idle=BETA, w_col=1.0 + BETA)
    for nd, nw in ((2, 2), (5, 5)):
        free = enumerate_nash(build_surfaces(NetworkConfig(nd, nw, BETA)))[0]
        costed_surf = build_surfaces(
            NetworkConfig(nd, nw, BETA, **weights), rescale=rescale_age_per_opponent
        )
        costed = enumerate_nash(costed_surf)
        if not costed:
            failures.append(f"({nd},{nw}): no costed equilibrium found")
            continue
        tame = [
            r for r in costed
            if r.pair.tau_d <= 0.5 * free.pair.tau_d and r.pair.tau_w <= 0.5 * free.pair.tau_w
        ]
        if not tame:
            found = [(round(r.pair.tau_d, 2), round(r.pair.tau_w, 2)) for r in costed]
            failures.append(
                f"({nd},{nw}): no costed equilibrium at most half as aggressive as "
                f"({free.pair.tau_d},{free.pair.tau_w}); found {found}"
            )
    one_one = enumerate_nash(
        build_surfaces(NetworkConfig(1, 1, BETA, **weights), rescale=rescale_age_per_opponent)
    )
    if len(one_one) < 2:
        failures.append(f"(1,1): expected multiple costed equilibria, found {len(one_one)}")
    _finish("costed equilibria (qualitative)", failures, time.perf_counter() - t0, 10.0)


def test_criterion_05_closed_forms_match_general_pipeline():
    t0 = time.perf_counter()
    worst = 0.0
    pts = [0.01 + 0.01 * k for k in range(99)]
    for nd, nw in product((1, 2, 5), repeat=2):
        cfg = NetworkConfig(nd, nw, BETA)
        for td in pts:
            for tw in pts:
                pair = StrategyPair(td, tw)
                v = AccessVector.homogeneous(cfg, pair)
                c = cells_at(pair, cfg)
                thr_cf, age_cf = _throughput_expr(c), _aoi_expr(c)
                worst = max(
                    worst,
                    abs(per_node_throughput(v, S001, nd) - thr_cf) / abs(thr_cf),
                    abs(aoi_node(v, S001, 0) - age_cf) / abs(age_cf),
                )
    failures = [] if worst <= 1e-10 else [f"worst relative discrepancy {worst:.3e} > 1e-10"]
    _finish("closed form vs general pipeline", failures, time.perf_counter() - t0, 5.0)


def _homogeneous(nd, nw, td, tw):
    return AccessVector.homogeneous(NetworkConfig(nd, nw, BETA), StrategyPair(td, tw))


MC_CONFIGS = [
    _homogeneous(1, 1, 0.3, 0.3),
    _homogeneous(2, 2, 0.46, 0.46),
    _homogeneous(5, 5, 0.17, 0.17),
    _homogeneous(2, 5, 0.44, 0.18),
    _homogeneous(1, 2, 0.9, 0.2),
    _homogeneous(2, 0, 0.0268, 0.0),
    _homogeneous(0, 2, 0.0, 0.0306),
    AccessVector((0.2, 0.5, 0.7), (DSRC, DSRC, WIFI)),
    AccessVector((0.05, 0.1, 0.3, 0.6), (DSRC, WIFI, DSRC, WIFI)),
    AccessVector((0.01, 0.95), (DSRC, WIFI)),
    AccessVector((0.5,), (DSRC,)),
    _homogeneous(2, 2, 0.07, 0.19),
]


def test_criterion_06_monte_carlo_validates_analytics():
    t0 = time.perf_counter()
    failures = []
    for ci, v in enumerate(MC_CONFIGS):
        res = run_simulation(v, S001, SimConfig(horizon_slots=1_000_000, seed=17 + ci))
        p_idle = v._kernels.idle
        p_succ = v._kernels.success
        targets = (p_idle, p_succ, 1.0 - p_idle - p_succ)
        for frac, se, target, label in zip(
            res.slot_fractions(), slot_fraction_se(res), targets, ("idle", "success", "collision")
        ):
            gap = abs(frac - target)
            if gap > max(3.0 * se, 1e-12):
                failures.append(f"config {ci}: slot fraction {label} off by {gap / max(se, 1e-300):.1f} se")
        for i, tau in enumerate(v.taus):
            if tau <= 0.0:
                continue
            m = inter_update_moments(v, S001, i)
            checks = (
                ("age", res.age[i], res.age_se[i], aoi_node(v, S001, i)),
                ("throughput", res.throughput[i], res.throughput_se[i], per_node_throughput(v, S001, i)),
                ("ez", res.inter_update_mean[i], res.inter_update_mean_se[i], m.first),
                ("ez2", res.inter_update_sq_mean[i], res.inter_update_sq_mean_se[i], m.second),
            )
            for label, est, se, target in checks:
                gap = abs(est - target)
                if np.isnan(est) or gap > max(3.0 * se, 1e-9):
                    failures.append(f"config {ci} node {i}: {label} {est} vs {target} (se {se})")
    _finish("Monte Carlo vs analytics", failures, time.perf_counter() - t0, 120.0)


def test_criterion_07_derivative_terms_match_finite_differences():
    t0 = time.perf_counter()
    failures = []
    h = 1e-6
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20240817)
    for player in (DSRC, WIFI):
        for k in range(1000):
            cfg = NetworkConfig(
                int(rng.choice([1, 2, 5])),
                int(rng.choice([1, 2, 5])),
                float(rng.choice([0.001, 0.01])),
                *((0.0, 0.0) if rng.random() < 0.5 else (BETA, 1.0 + BETA)),
            )
            td, tw = float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99))
            c = cells_at(StrategyPair(td, tw), cfg)
            if player == DSRC:
                alpha_col, alpha_idle = _cost_slope_parts(c.d, c.w, cfg)
                analytic = sum(_age_slope_parts(c)) + alpha_col - alpha_idle

                def f(t):
                    c = cells_at(StrategyPair(t, tw), cfg)
                    return _aoi_expr(c) + _cost_expr(c, cfg)

                x = td
            else:
                alpha_col, alpha_idle = _cost_slope_parts(c.w, c.d, cfg)
                analytic = _wifi_slope(c) + alpha_col - alpha_idle

                def f(t):
                    c = cells_at(StrategyPair(td, t), cfg)
                    return _cost_expr(c, cfg) - _throughput_expr(c)

                x = tw
            hi, lo = f(x + h), f(x - h)
            fd = (hi - lo) / (2.0 * h)
            noise_floor = 32.0 * eps * max(abs(hi), abs(lo)) / (2.0 * h)
            if abs(analytic - fd) > 1e-5 * max(abs(analytic), abs(fd)) + noise_floor:
                failures.append(f"{player} point {k}: analytic {analytic:.6e} vs fd {fd:.6e}")
    _finish("derivative terms vs finite differences", failures, time.perf_counter() - t0, 5.0)


def test_criterion_08_unimodality_sweep():
    t0 = time.perf_counter()
    failures = []
    for nd, nw in product((1, 2, 5), repeat=2):
        for weights in ((0.0, 0.0), (BETA, 1.0 + BETA)):
            cfg = NetworkConfig(nd, nw, BETA, *weights)
            for tenths in range(1, 10):
                tau = tenths / 10.0
                for player in (DSRC, WIFI):
                    rep = verify_quasiconcavity(player, cfg, tau)
                    if rep.sign_change_count > 1 or not rep.sign_pattern_ok:
                        failures.append(
                            f"{player} nd={nd} nw={nw} w={weights} opp={tau}: "
                            f"{rep.sign_change_count} changes, ok={rep.sign_pattern_ok}"
                        )
    _finish("derivative sign-pattern sweep", failures, time.perf_counter() - t0, 30.0)


def test_criterion_09_update_rate_root_exceeds_curvature_bound():
    t0 = time.perf_counter()
    failures = []
    for beta in (0.001, 0.01, 0.1):
        for n_d in range(1, 11):
            bound = tau_prime_upper_bound(beta, n_d)
            if bound is None:
                continue
            root = alpha2_root(n_d, beta, q_w=1.0)
            if not root > bound:
                failures.append(f"beta={beta} n_d={n_d}: root {root:.6f} <= bound {bound:.6f}")
    _finish("root exceeds curvature bound", failures, time.perf_counter() - t0, 1.0)


def test_criterion_10_free_game_nash_invariant_to_affine_rescaling():
    t0 = time.perf_counter()
    failures = []
    maps = (lambda age, thr: 3.0 * age + 5.0, lambda age, thr: 0.25 * age + 11.0)
    for nd, nw in FREE_NASH_ROWS:
        cfg = NetworkConfig(nd, nw, BETA)
        found = [
            [(r.pair.tau_d, r.pair.tau_w) for r in enumerate_nash(build_surfaces(cfg, rescale=m))]
            for m in maps
        ]
        if found[0] != found[1]:
            failures.append(f"({nd},{nw}): {found[0]} vs {found[1]}")
    _finish("rescale-invariant free-game equilibria", failures, time.perf_counter() - t0, 10.0)
