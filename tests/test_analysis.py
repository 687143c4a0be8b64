"""Closed-form derivatives vs finite differences, landmark roots, sign scans.

``alpha1_rewritten`` below is a second derivation of the curvature term; it
lives here as an oracle for the library's form.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from csma_game.analysis import (
    age_payoff_derivative_terms,
    alpha2_root,
    tau_prime_upper_bound,
    verify_quasiconcavity,
    wifi_payoff_derivative_terms,
)
from csma_game.game import GridSpec, wastage_cost
from csma_game.metrics import aoi_closed_form, throughput_closed_form
from csma_game.model import DSRC, WIFI, NetworkConfig, StrategyPair

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
    return lambda t: aoi_closed_form(StrategyPair(t, tau_w), cfg) + wastage_cost(
        StrategyPair(t, tau_w), cfg
    )


def neg_wifi_payoff(cfg, tau_d):
    return lambda t: wastage_cost(StrategyPair(tau_d, t), cfg) - throughput_closed_form(
        StrategyPair(tau_d, t), cfg
    )


class TestAgeDerivativeTerms:
    def test_update_rate_term_at_equal_share_point(self):
        for n_d in (2, 4):
            cfg = NetworkConfig(n_d, 3, 0.001)
            terms = age_payoff_derivative_terms(StrategyPair(1.0 / n_d, 0.3), cfg)
            assert terms.alpha2 == pytest.approx(n_d**2, rel=1e-12)

    def test_free_game_has_no_cost_terms(self):
        cfg = NetworkConfig(3, 2, 0.01)
        terms = age_payoff_derivative_terms(StrategyPair(0.4, 0.6), cfg)
        assert terms.alpha_col == 0.0
        assert terms.alpha_idle == 0.0
        assert terms.total == pytest.approx(terms.alpha1 + terms.alpha2, abs=1e-14)

    def test_total_recomposes_from_parts(self):
        cfg = NetworkConfig(2, 2, 0.001, w_idle=0.7, w_col=2.0)
        t = age_payoff_derivative_terms(StrategyPair(0.23, 0.61), cfg)
        assert t.total == pytest.approx(t.alpha1 + t.alpha2 + t.alpha_col - t.alpha_idle, abs=1e-14)

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
            total = age_payoff_derivative_terms(StrategyPair(td, tw), cfg).total
            assert_matches_fd(total, neg_dsrc_payoff(cfg, tw), td)

    def test_rejects_boundary(self):
        cfg = NetworkConfig(1, 1, 0.001)
        with pytest.raises(ValueError):
            age_payoff_derivative_terms(StrategyPair(0.0, 0.5), cfg)


class TestWifiDerivativeTerms:
    def test_free_game_total_is_single_term(self):
        cfg = NetworkConfig(2, 3, 0.01)
        terms = wifi_payoff_derivative_terms(StrategyPair(0.3, 0.55), cfg)
        assert terms.alpha_col == 0.0 and terms.alpha_idle == 0.0
        assert terms.total == terms.alpha

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
            terms = wifi_payoff_derivative_terms(StrategyPair(0.3, tau_w), cfg)
            assert terms.alpha == pytest.approx(expected, rel=1e-12)

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
            total = wifi_payoff_derivative_terms(StrategyPair(td, tw), cfg).total
            assert_matches_fd(total, neg_wifi_payoff(cfg, td), tw)

    def test_rejects_boundary(self):
        cfg = NetworkConfig(1, 1, 0.001)
        with pytest.raises(ValueError):
            wifi_payoff_derivative_terms(StrategyPair(0.5, 0.0), cfg)


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
    direct = age_payoff_derivative_terms(pair, cfg).alpha1
    assert alpha1_rewritten(pair, cfg) == pytest.approx(direct, rel=1e-12)


class TestTauPrimeUpperBound:
    def test_hand_value(self):
        base = 1.001 - math.sqrt(0.001 * 1.001 / 2.0)
        expected = 1.0 - base ** 0.5
        got = tau_prime_upper_bound(0.001, 2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.01074, abs=1e-5)

    def test_increasing_in_beta(self):
        values = [tau_prime_upper_bound(b, 2) for b in (0.001, 0.01, 0.1)]
        assert values[0] < values[1] < values[2]

    def test_absent_when_denominator_never_reaches_one(self):
        # with a small enough opponent factor the landmark leaves (0, 1)
        assert tau_prime_upper_bound(0.001, 2, q_w=0.5) is None
        assert tau_prime_upper_bound(0.001, 2, q_w=0.99) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            tau_prime_upper_bound(1.5, 2)
        with pytest.raises(ValueError):
            tau_prime_upper_bound(0.001, 0)
        with pytest.raises(ValueError):
            tau_prime_upper_bound(0.001, 2, q_w=0.0)


class TestAlpha2Root:
    def test_two_node_quadratic_oracle(self):
        # 1 - 2t = (1/1.001)(1-t)^2  <=>  t^2 + 0.002 t - 0.001 = 0
        oracle = (-0.002 + math.sqrt(0.002**2 + 0.004)) / 2.0
        root = alpha2_root(2, 0.001, q_w=1.0)
        assert root == pytest.approx(oracle, abs=1e-9)
        assert root == pytest.approx(0.030639, abs=1e-6)

    def test_term_vanishes_at_root(self):
        for n_d in (2, 3, 5):
            cfg = NetworkConfig(n_d, 1, 0.001)
            root = alpha2_root(n_d, 0.001, q_w=1.0)
            terms = age_payoff_derivative_terms(StrategyPair(root, 0.0), cfg)
            assert abs(terms.alpha2) <= 1e-9

    def test_root_below_equal_share(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            n_d = int(rng.integers(1, 11))
            beta = float(rng.uniform(0.001, 0.5))
            q_w = float(rng.uniform(0.05, 1.0))
            assert 0.0 < alpha2_root(n_d, beta, q_w=q_w) <= 1.0 / n_d

    def test_smallest_root_at_full_idle_factor(self):
        roots = [alpha2_root(3, 0.001, q_w=q) for q in (0.2, 0.5, 0.8, 1.0)]
        assert roots == sorted(roots, reverse=True)

    def test_single_node_root_degenerates_to_one(self):
        assert alpha2_root(1, 0.001, q_w=1.0) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_positive_idle_factor(self):
        for q_w in (0.0, -0.5):
            with pytest.raises(ValueError, match="q_w"):
                alpha2_root(2, 0.001, q_w=q_w)


class TestVerifyQuasiconcavity:
    def test_two_by_two_free_game(self):
        report = verify_quasiconcavity(DSRC, NetworkConfig(2, 2, 0.001), 0.2)
        assert report.sign_change_count <= 1
        assert report.sign_pattern_ok
        assert report.tau_prime_bound == pytest.approx(0.01074, abs=1e-5)
        assert report.alpha2_root is not None

    def test_lone_dsrc_node_age_is_monotone(self):
        cfg = NetworkConfig(1, 2, 0.001)
        report = verify_quasiconcavity(DSRC, cfg, 0.2)
        assert report.sign_change_count == 0
        assert report.sign_pattern_ok
        for tau_d in (0.05, 0.3, 0.7, 0.95):
            assert age_payoff_derivative_terms(StrategyPair(tau_d, 0.2), cfg).total < 0.0

    def test_derivative_positive_beyond_equal_share(self):
        for n_d in (2, 5):
            cfg = NetworkConfig(n_d, 2, 0.001)
            for tau_d in np.linspace(1.0 / n_d, 0.95, 7):
                assert age_payoff_derivative_terms(StrategyPair(float(tau_d), 0.3), cfg).total > 0.0

    def test_wifi_side_report(self):
        report = verify_quasiconcavity(WIFI, NetworkConfig(2, 5, 0.001, 0.001, 1.001), 0.4)
        assert report.sign_change_count <= 1
        assert report.sign_pattern_ok
        assert report.tau_prime_bound is None and report.alpha2_root is None

    def test_custom_scan_and_validation(self):
        report = verify_quasiconcavity(DSRC, NetworkConfig(2, 2, 0.001), 0.2, scan=GridSpec(0.01, 0.99, 0.01))
        assert report.sign_pattern_ok
        with pytest.raises(ValueError):
            verify_quasiconcavity("lte", NetworkConfig(1, 1, 0.001), 0.2)
        with pytest.raises(ValueError):
            verify_quasiconcavity(DSRC, NetworkConfig(1, 1, 0.001), 1.0)


def test_root_exceeds_bound_wherever_bound_exists():
    for beta in (0.001, 0.01, 0.1):
        for n_d in range(1, 11):
            bound = tau_prime_upper_bound(beta, n_d)
            if bound is not None:
                assert alpha2_root(n_d, beta, q_w=1.0) > bound
