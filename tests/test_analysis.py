"""Closed-form derivatives vs finite differences, landmark roots, sign scans.

``alpha1_rewritten`` below is a second derivation of the curvature term; it
lives here as an oracle for the library's form. ``bisection_alpha2_root``
and ``one_value_scan`` are the bisection root and the per-opponent-value
sign scan that the library used before its Newton root and its
(opponent values x scan points) scan; they are kept as oracles of both.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cells import cells_at
from csma_game import analysis
from csma_game.analysis import (
    QuasiConcavityReport,
    _age_slope_parts,
    _alpha2_root,
    _cost_slope_parts,
    _effective_signs,
    _tau_prime_bound,
    _wifi_slope,
    verify_quasiconcavity,
)
from csma_game.game import _cost_expr
from csma_game.metrics import _aoi_expr, _throughput_expr
from csma_game.model import DSRC, WIFI, NetworkConfig, StrategyPair, _Axis

EPS = np.finfo(float).eps


def central_difference(f, x, h=1e-6):
    hi, lo = f(x + h), f(x - h)
    # the oracle's own resolution: rounding of f amplified by the 1/(2h)
    noise_floor = 32.0 * EPS * max(abs(hi), abs(lo)) / (2.0 * h)
    return (hi - lo) / (2.0 * h), noise_floor


def assert_matches_fd(analytic, f, x, rel=1e-5):
    fd, floor = central_difference(f, x)
    assert abs(analytic - fd) <= rel * max(abs(analytic), abs(fd)) + floor, (analytic, fd)


def neg_dsrc_payoff(cfg, tau_w):
    def f(t):
        c = cells_at(StrategyPair(t, tau_w), cfg)
        return _aoi_expr(c) + _cost_expr(c, cfg)

    return f


def neg_wifi_payoff(cfg, tau_d):
    def f(t):
        c = cells_at(StrategyPair(tau_d, t), cfg)
        return _cost_expr(c, cfg) - _throughput_expr(c)

    return f


def age_terms(pair, cfg):
    """alpha1, alpha2, alpha_col, alpha_idle: the terms of d(age + cost)/d tau_d at one pair."""
    c = cells_at(pair, cfg)
    return (*_age_slope_parts(c), *_cost_slope_parts(c.d, c.w, cfg))


def age_total(pair, cfg):
    alpha1, alpha2, alpha_col, alpha_idle = age_terms(pair, cfg)
    return alpha1 + alpha2 + alpha_col - alpha_idle


def wifi_terms(pair, cfg):
    """alpha, alpha_col, alpha_idle: the terms of d(cost - throughput)/d tau_w at one pair."""
    c = cells_at(pair, cfg)
    return (_wifi_slope(c), *_cost_slope_parts(c.w, c.d, cfg))


class TestAgeDerivativeTerms:
    def test_update_rate_term_at_equal_share_point(self):
        for n_d in (2, 4):
            cfg = NetworkConfig(n_d, 3, 0.001)
            _, alpha2, _, _ = age_terms(StrategyPair(1.0 / n_d, 0.3), cfg)
            assert alpha2 == pytest.approx(n_d**2, rel=1e-12)

    def test_free_game_has_no_cost_terms(self):
        cfg = NetworkConfig(3, 2, 0.01)
        pair = StrategyPair(0.4, 0.6)
        alpha1, alpha2, alpha_col, alpha_idle = age_terms(pair, cfg)
        assert alpha_col == 0.0
        assert alpha_idle == 0.0
        assert age_total(pair, cfg) == pytest.approx(alpha1 + alpha2, abs=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            cfg = NetworkConfig(
                int(rng.choice([1, 2, 5])),
                int(rng.choice([1, 2, 5])),
                float(rng.choice([0.001, 0.01])),
                *((0.0, 0.0) if rng.random() < 0.5 else (0.001, 1.001)),
            )
            td, tw = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            total = age_total(StrategyPair(td, tw), cfg)
            assert_matches_fd(total, neg_dsrc_payoff(cfg, tw), td)


class TestWifiDerivativeTerms:
    def test_free_game_total_is_single_term(self):
        cfg = NetworkConfig(2, 3, 0.01)
        alpha, alpha_col, alpha_idle = wifi_terms(StrategyPair(0.3, 0.55), cfg)
        assert alpha_col == 0.0 and alpha_idle == 0.0
        assert alpha + alpha_col - alpha_idle == alpha

    def test_equal_share_point_simplification(self):
        beta = 0.001
        for n_w in (2, 4):
            cfg = NetworkConfig(2, n_w, beta)
            tau_w = 1.0 / n_w
            q_d = (1 - 0.3) ** 2
            q_w = (1 - tau_w) ** n_w
            expected = (
                q_d
                * (1 + beta)
                * (1 - tau_w) ** (n_w - 2)
                * q_d
                * q_w
                / (1 - q_d * q_w + beta) ** 2
            )
            alpha, _, _ = wifi_terms(StrategyPair(0.3, tau_w), cfg)
            assert alpha == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            cfg = NetworkConfig(
                int(rng.choice([1, 2, 5])),
                int(rng.choice([1, 2, 5])),
                float(rng.choice([0.001, 0.01])),
                *((0.0, 0.0) if rng.random() < 0.5 else (0.001, 1.001)),
            )
            td, tw = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            alpha, alpha_col, alpha_idle = wifi_terms(StrategyPair(td, tw), cfg)
            assert_matches_fd(alpha + alpha_col - alpha_idle, neg_wifi_payoff(cfg, td), tw)


def alpha1_rewritten(pair, config):
    """alpha1 with the beta factors folded into the denominator."""
    beta = config.beta
    n_d = config.n_dsrc
    q_w = (1.0 - pair.tau_w) ** config.n_wifi
    one = 1.0 - pair.tau_d
    denom = (2.0 * (1.0 + beta) / beta) * (1.0 - one**n_d * q_w / (1.0 + beta)) ** 2
    return q_w * n_d * one ** (n_d - 1) / denom


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.floats(0.001, 0.5),
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
)
def test_alpha1_rewrite_is_the_same_function(n_d, n_w, beta, tau_d, tau_w):
    cfg = NetworkConfig(n_d, n_w, beta)
    pair = StrategyPair(tau_d, tau_w)
    direct, _, _, _ = age_terms(pair, cfg)
    assert alpha1_rewritten(pair, cfg) == pytest.approx(direct, rel=1e-12)


class TestTauPrimeUpperBound:
    def test_hand_value(self):
        base = 1.001 - math.sqrt(0.001 * 1.001 / 2.0)
        expected = 1.0 - base ** 0.5
        got = _tau_prime_bound(0.001, 2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.01074, abs=1e-5)

    def test_increasing_in_beta(self):
        values = [_tau_prime_bound(b, 2) for b in (0.001, 0.01, 0.1)]
        assert values[0] < values[1] < values[2]


def root_at(n_d, beta, q_w=1.0):
    """The library's update-rate root for one opponent idle factor."""
    return float(_alpha2_root(n_d, beta, np.array([q_w]))[0])


class TestAlpha2Root:
    def test_two_node_quadratic_oracle(self):
        # 1 - 2t = (1/1.001)(1-t)^2  <=>  t^2 + 0.002 t - 0.001 = 0
        oracle = (-0.002 + math.sqrt(0.002**2 + 0.004)) / 2.0
        root = root_at(2, 0.001)
        assert root == pytest.approx(oracle, abs=1e-9)
        assert root == pytest.approx(0.030639, abs=1e-6)

    def test_term_vanishes_at_root(self):
        for n_d in (2, 3, 5):
            cfg = NetworkConfig(n_d, 1, 0.001)
            root = root_at(n_d, 0.001)
            _, alpha2, _, _ = age_terms(StrategyPair(root, 0.0), cfg)
            assert abs(alpha2) <= 1e-9

    def test_root_below_equal_share(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            n_d = int(rng.integers(1, 11))
            beta = float(rng.uniform(0.001, 0.5))
            q_w = float(rng.uniform(0.05, 1.0))
            assert 0.0 < root_at(n_d, beta, q_w) <= 1.0 / n_d

    def test_smallest_root_at_full_idle_factor(self):
        roots = [root_at(3, 0.001, q) for q in (0.2, 0.5, 0.8, 1.0)]
        assert roots == sorted(roots, reverse=True)

    def test_single_node_root_degenerates_to_one(self):
        assert root_at(1, 0.001) == pytest.approx(1.0, abs=1e-9)


class TestVerifyQuasiconcavity:
    def test_two_by_two_free_game(self):
        (report,) = verify_quasiconcavity(DSRC, NetworkConfig(2, 2, 0.001), [0.2])
        assert report.sign_change_count <= 1
        assert report.sign_pattern_ok
        assert report.tau_prime_bound == pytest.approx(0.01074, abs=1e-5)
        assert report.alpha2_root is not None

    def test_lone_dsrc_node_age_is_monotone(self):
        cfg = NetworkConfig(1, 2, 0.001)
        (report,) = verify_quasiconcavity(DSRC, cfg, [0.2])
        assert report.sign_change_count == 0
        assert report.sign_pattern_ok
        for tau_d in (0.05, 0.3, 0.7, 0.95):
            assert age_total(StrategyPair(tau_d, 0.2), cfg) < 0.0

    def test_derivative_positive_beyond_equal_share(self):
        for n_d in (2, 5):
            cfg = NetworkConfig(n_d, 2, 0.001)
            for tau_d in np.linspace(1.0 / n_d, 0.95, 7):
                assert age_total(StrategyPair(float(tau_d), 0.3), cfg) > 0.0

    def test_wifi_side_report(self):
        (report,) = verify_quasiconcavity(WIFI, NetworkConfig(2, 5, 0.001, 0.001, 1.001), [0.4])
        assert report.sign_change_count <= 1
        assert report.sign_pattern_ok
        assert report.tau_prime_bound is None and report.alpha2_root is None

    def test_custom_scan_and_validation(self):
        (report,) = verify_quasiconcavity(DSRC, NetworkConfig(2, 2, 0.001), [0.2], step=0.01)
        assert report.sign_pattern_ok
        with pytest.raises(ValueError):
            verify_quasiconcavity("lte", NetworkConfig(1, 1, 0.001), [0.2])
        with pytest.raises(ValueError):
            verify_quasiconcavity(DSRC, NetworkConfig(1, 1, 0.001), [1.0])
        for step in (0.0, -0.1, math.nan, math.inf, 1e-320):  # 1/1e-320 overflows, so its points cannot be counted
            with pytest.raises(ValueError, match="scan step must be positive and finite"):
                verify_quasiconcavity(DSRC, NetworkConfig(1, 1, 0.001), [0.2], step=step)


def test_root_exceeds_bound_wherever_bound_exists():
    for beta in (0.001, 0.01, 0.1):
        for n_d in range(1, 11):
            bound = _tau_prime_bound(beta, n_d)
            if bound is not None:
                assert root_at(n_d, beta) > bound


def bisection_alpha2_root(n_d, beta, q_w=1.0, tol=1e-12):
    """The root by bisection of [0, 1/n_d] to ``tol`` interval width."""
    scale = q_w / (1.0 + beta)

    def f(t):
        return 1.0 - n_d * t - scale * (1.0 - t) ** n_d

    lo, hi = 0.0, 1.0 / n_d
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def one_value_scan(player, config, fixed_opponent, step=0.001):
    """(sign changes, pattern ok, bound, root) of one opponent value's scan, term by term."""
    pts = step + step * np.arange(math.ceil(1.0 / step) - 1)
    pts = pts[(pts >= 1e-4) & (pts <= 1.0 - 1e-4)]
    beta = config.beta
    if player == DSRC:
        own, opp = d, w = _Axis(pts, config.n_dsrc), _Axis(fixed_opponent, config.n_wifi)
        denom = 1.0 + beta - d.q * w.q
        alpha1 = 0.5 * beta * (1.0 + beta) * w.q * d.n * d.r1 / denom**2
        alpha2 = (1.0 + (1.0 + beta) * (d.n * d.tau - 1.0) / (w.q * d.q)) / d.tau**2
        slope = alpha1 + alpha2
    else:
        own, opp = w, d = _Axis(pts, config.n_wifi), _Axis(fixed_opponent, config.n_dsrc)
        denom = 1.0 - d.q * w.q + beta
        slope = d.q * (1.0 + beta) * w.r2 * (d.q * w.q + (1.0 + beta) * (w.tau * w.n - 1.0)) / denom**2
    opp_prime = opp.n * opp.tau * opp.r1
    alpha_col = config.w_col * (opp.q * own.n * (own.n - 1) * own.tau * own.r2 + opp_prime * own.n * own.r1)
    alpha_idle = config.w_idle * opp.q * own.n * own.r1
    signs = _effective_signs(np.asarray(slope + alpha_col - alpha_idle))
    changes = int(np.count_nonzero(np.diff(signs) != 0))
    ok = changes == 0 or (changes == 1 and signs[0] < 0 and signs[-1] > 0)
    if player == WIFI:
        return changes, bool(ok), None, None
    root = bisection_alpha2_root(config.n_dsrc, beta, q_w=float(w.q))
    return changes, bool(ok), _tau_prime_bound(beta, config.n_dsrc), root


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2000),
    st.floats(1e-4, 0.999, exclude_min=True, exclude_max=True),
    st.floats(1e-300, 1.0),
)
def test_newton_root_matches_bisection(n_d, beta, q_w):
    assert abs(root_at(n_d, beta, q_w) - bisection_alpha2_root(n_d, beta, q_w=q_w)) <= 1e-12


def test_newton_root_over_an_array_is_the_root_of_each_entry():
    q_w = np.array([1e-300, 0.2, 0.5, 1.0])
    roots = _alpha2_root(7, 0.01, q_w)
    assert roots.shape == q_w.shape
    assert roots.tolist() == [root_at(7, 0.01, float(q)) for q in q_w]


def assert_matches_oracle(reports, player, config, opponents, step=0.001):
    assert len(reports) == len(opponents)
    for rep, tau in zip(reports, opponents):
        changes, ok, bound, root = one_value_scan(player, config, tau, step)
        assert rep.fixed_opponent == tau
        assert (rep.sign_change_count, rep.sign_pattern_ok, rep.tau_prime_bound) == (changes, ok, bound)
        if root is None:
            assert rep.alpha2_root is None
        else:
            assert abs(rep.alpha2_root - root) <= 1e-12


CATALOG_OPPONENTS = tuple(k / 10.0 for k in range(1, 10))


@pytest.mark.parametrize("player", [DSRC, WIFI])
@pytest.mark.parametrize("weights", [(0.0, 0.0), (0.001, 1.001)], ids=["free", "costed"])
def test_sequence_scan_matches_one_value_oracle(player, weights):
    for n_d in (1, 2, 5):
        for n_w in (1, 2, 5):
            cfg = NetworkConfig(n_d, n_w, 0.001, *weights)
            reports = verify_quasiconcavity(player, cfg, CATALOG_OPPONENTS)
            assert isinstance(reports, tuple)
            assert_matches_oracle(reports, player, cfg, CATALOG_OPPONENTS)


def test_near_zero_rows_are_bridged_as_the_oracle_does(monkeypatch):
    # (1-tau_w)^48 underflows towards 0 at the top of the scan, so the wifi slope has entries below 1e-12
    cfg = NetworkConfig(2, 50, 0.001, 0.001, 1.001)
    rows = []

    def recording(values):
        rows.append(values)
        return _effective_signs(values)

    monkeypatch.setattr(analysis, "_effective_signs", recording)
    reports = verify_quasiconcavity(WIFI, cfg, CATALOG_OPPONENTS)
    assert len(rows) == len(CATALOG_OPPONENTS) and all(np.any(np.abs(r) < 1e-12) for r in rows)
    assert_matches_oracle(reports, WIFI, cfg, CATALOG_OPPONENTS)


def test_opponents_are_a_sequence():
    cfg = NetworkConfig(2, 2, 0.001)
    with pytest.raises(TypeError):
        verify_quasiconcavity(DSRC, cfg, 0.2)
    assert verify_quasiconcavity(DSRC, cfg, []) == ()
    (report,) = verify_quasiconcavity(DSRC, cfg, (t for t in [0.2]))
    assert isinstance(report, QuasiConcavityReport)
    assert report == verify_quasiconcavity(DSRC, cfg, np.array([0.3, 0.2]))[1]
    assert type(report.fixed_opponent) is float


def test_sequence_raises_the_first_bad_values_error():
    cfg = NetworkConfig(2, 400, 0.001)
    with pytest.raises(FloatingPointError, match=r"\(1-0.9\)\^400"):
        verify_quasiconcavity(DSRC, cfg, [0.5, 0.9, 1.0])
    with pytest.raises(ValueError, match="fixed opponent"):
        verify_quasiconcavity(DSRC, cfg, [0.5, 1.0, 0.9])


@pytest.mark.parametrize("player, config", [
    (DSRC, NetworkConfig(0, 2, 0.001)),
    (WIFI, NetworkConfig(2, 0, 0.001)),
], ids=["dsrc", "wifi"])
def test_scanned_network_needs_a_node(player, config):
    for opponents in ([0.2], [], [1.0]):
        with pytest.raises(ValueError, match=f"the scanned {player} network has no nodes"):
            verify_quasiconcavity(player, config, opponents)


def test_lone_network_against_an_absent_opponent():
    for player, config in ((DSRC, NetworkConfig(2, 0, 0.001)), (WIFI, NetworkConfig(0, 2, 0.001))):
        reports = verify_quasiconcavity(player, config, CATALOG_OPPONENTS)
        assert_matches_oracle(reports, player, config, CATALOG_OPPONENTS)
        # the absent opponent leaves every scan, and every landmark, the same
        assert len(set(r[1:] for r in map(astuple, reports))) == 1


def test_sequence_checks_each_value_in_order():
    cfg = NetworkConfig(2, 400, 0.001)
    with pytest.raises(ValueError, match="fixed opponent"):
        verify_quasiconcavity(DSRC, cfg, [0.5, float("nan"), 0.9])
    with pytest.raises(ValueError, match="fixed opponent"):
        verify_quasiconcavity(DSRC, cfg, [-0.1])
    with pytest.raises(FloatingPointError) as exc:
        verify_quasiconcavity(DSRC, cfg, [0.95, 0.9])
    assert str(exc.value).startswith("(1-0.95)^400 underflows to 0")
    # the WiFi scan needs no update-rate root, so an underflowing DSRC factor is no error
    assert len(verify_quasiconcavity(WIFI, NetworkConfig(400, 2, 0.001), [0.9])) == 1


@pytest.mark.parametrize("step, kept", [
    (0.5, 1),  # what `verify --scan-step 0.5` scans
    (0.99995, 0),  # its one multiple in (0, 1) lies inside the edge margin
    (1.5, 0),  # no multiple lies in (0, 1)
], ids=["one-point", "no-point", "above-one"])
def test_scan_too_coarse_to_show_a_sign_change_is_rejected(step, kept):
    cfg = NetworkConfig(2, 2, 0.001)
    for player in (DSRC, WIFI):
        with pytest.raises(ValueError, match=rf"the scan keeps {kept} point\(s\) inside \[0.0001, 0.9999\]"):
            verify_quasiconcavity(player, cfg, [0.2], step=step)
    # two points are the fewest a sign change needs: 0.35 and 0.7 straddle it
    (report,) = verify_quasiconcavity(DSRC, cfg, [0.2], step=0.35)
    assert report.sign_change_count == 1 and report.sign_pattern_ok
