"""Throughput and age metrics: both routes, hand values, pinned reference optima.

The ratio-form moments below are a second derivation of the inter-update
moments, from the renewal cycle; they live here as the oracle of the
library's closed forms, which the per-node route evaluates too.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cells import cells_at
from csma_game.metrics import _aoi_expr, _throughput_expr, aoi_node, inter_update_moments, per_node_throughput
from csma_game.model import (
    DSRC,
    WIFI,
    AccessVector,
    NetworkConfig,
    SlotLengths,
    StrategyPair,
    _slot_kernels,
)
from csma_game.simulate import SimConfig, run_simulation

S001 = SlotLengths.from_beta(0.001)


def vector(*taus):
    return AccessVector(tuple(taus), (DSRC,) * len(taus))


taus_interior = st.lists(st.floats(0.02, 0.9), min_size=1, max_size=4)


def residual_pmf(taus, i):
    """P(idle), P(another node's success), P(collision) given node i does not update."""
    k = _slot_kernels(tuple(taus))
    fail = 1.0 - k.solo[i]
    success = sum(k.solo)
    return k.idle / fail, (success - k.solo[i]) / fail, (1.0 - k.idle - success) / fail


def ratio_form_moments(taus, s, i):
    """E[Z] and E[Z^2] in ratio form, without going through L and Y.

    E[Z] is the mean slot length over node i's renewal cycle divided by its
    per-slot success probability; E[Z^2] follows from the same per-outcome
    weights with squared durations. Also returns the age in its expanded
    two-term form.
    """
    k = _slot_kernels(tuple(taus))
    p = k.solo[i]
    p_other = sum(k.solo) - p
    collision = 1.0 - k.idle - sum(k.solo)
    cycle = s.idle * k.idle + s.success * (p_other + p) + s.collision * collision
    cycle_sq = s.idle**2 * k.idle + s.success**2 * (p_other + p) + s.collision**2 * collision
    ez = cycle / p
    ez2 = (
        2.0 * ez**2
        + s.success**2
        - 2.0 * s.success * ez
        + (s.idle**2 * k.idle + s.success**2 * p_other + s.collision**2 * collision) / p
    )
    return ez, ez2, cycle / p + cycle_sq / (2.0 * cycle)


class TestPerNodeThroughput:
    def test_silent_node(self):
        assert per_node_throughput(vector(0.0, 0.4), S001, 0) == 0.0

    def test_hand_value(self):
        # p_succ = 0.2 * 0.8^2, slot mean = 0.001*0.512 + 1.001*0.488
        expected = (0.2 * 0.64 * 1.001) / (0.001 * 0.512 + 1.001 * (0.384 + 0.104))
        got = per_node_throughput(vector(0.2, 0.2, 0.2), S001, 0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.26202, abs=1e-5)

    @given(taus_interior)
    def test_node_shares_sum_below_one(self, taus):
        v = vector(*taus)
        total = sum(per_node_throughput(v, S001, i) for i in range(len(taus)))
        assert total <= 1.0 + 1e-12


class TestResidualSlotPmf:
    def test_two_symmetric_nodes_uniform_thirds(self):
        for prob in residual_pmf((0.5, 0.5), 0):
            assert prob == pytest.approx(1 / 3, abs=1e-12)

    def test_single_node_only_idles(self):
        p_idle, p_other, p_col = residual_pmf((0.3,), 0)
        assert (p_idle, p_other) == (1.0, 0.0)
        # 1 - P(idle) - P(success) rounds to 5.6e-17 here, not to 0
        assert p_col == pytest.approx(0.0, abs=1e-15)

    @given(taus_interior)
    def test_normalization(self, taus):
        for i in range(len(taus)):
            assert sum(residual_pmf(taus, i)) == pytest.approx(1.0, abs=1e-12)


class TestInterUpdateMoments:
    def test_deterministic_updates(self):
        m = inter_update_moments(vector(1.0), S001, 0)
        assert m.first == pytest.approx(1.001)
        assert m.second == pytest.approx(1.001**2)

    def test_single_node_geometric(self):
        # every failed slot is idle: E[Z] = (sigma_I * 0.5 + sigma_S * 0.5) / 0.5
        s = SlotLengths.from_beta(0.2)
        m = inter_update_moments(vector(0.5), s, 0)
        assert m.first == pytest.approx((s.idle * 0.5 + s.success * 0.5) / 0.5, rel=1e-12)

    def test_never_updating_raises(self):
        with pytest.raises(ValueError):
            inter_update_moments(vector(0.0, 0.4), S001, 0)
        with pytest.raises(ValueError):
            aoi_node(vector(0.0, 0.4), S001, 0)

    @pytest.mark.parametrize("n, tau, p", [(8000, 0.1, "5e-324"), (3000, 0.25, "0.0")],
                             ids=["p-squared-underflows", "p-underflows"])
    def test_underflowing_update_probability_overflows_the_moments(self, n, tau, p):
        v = vector(*(tau,) * n)
        message = f"moments of node 0 overflow the double range: its per-slot update probability is {p},"
        for view in (inter_update_moments, aoi_node):
            with pytest.raises(FloatingPointError, match=message):
                view(v, S001, 0)
        # An exact zero still never updates: a node beside an always-transmitting one.
        with pytest.raises(ValueError, match="never updates"):
            aoi_node(vector(0.4, 1.0), S001, 0)

    @given(taus_interior)
    def test_composition_equals_closed_form(self, taus):
        v = vector(*taus)
        for i in range(len(taus)):
            m = inter_update_moments(v, S001, i)
            ez, ez2, age = ratio_form_moments(taus, S001, i)
            assert m.first == pytest.approx(ez, rel=1e-10)
            assert m.second == pytest.approx(ez2, rel=1e-10)
            assert aoi_node(v, S001, i) == pytest.approx(age, rel=1e-9)

    @given(taus_interior)
    def test_second_moment_dominates_square(self, taus):
        v = vector(*taus)
        for i in range(len(taus)):
            m = inter_update_moments(v, S001, i)
            assert m.second >= m.first**2 * (1 - 1e-12)

    def test_monte_carlo_oracle(self):
        v = AccessVector((0.15, 0.4, 0.3), (DSRC, DSRC, WIFI))
        res = run_simulation(v, S001, SimConfig(horizon_slots=200_000, seed=7))
        for i in range(3):
            m = inter_update_moments(v, S001, i)
            assert abs(res.inter_update_mean[i] - m.first) <= 3 * res.inter_update_mean_se[i]
            assert abs(res.inter_update_sq_mean[i] - m.second) <= 3 * res.inter_update_sq_mean_se[i]


@pytest.mark.parametrize("i", [2, -1])
@pytest.mark.parametrize("view", [per_node_throughput, inter_update_moments, aoi_node])
def test_node_views_reject_index_outside_vector(view, i):
    with pytest.raises(IndexError):
        view(vector(0.2, 0.3), S001, i)


class TestAoiNode:
    def test_deterministic_updates(self):
        assert aoi_node(vector(1.0), S001, 0) == pytest.approx(1.5 * 1.001, rel=1e-12)

    def test_hand_value_two_nodes(self):
        # term1 = 0.361/0.16, term2 = beta/2, term3 = 1.001*0.36/(2*0.361)
        expected = 0.361 / 0.16 + 0.0005 + 1.001 * 0.36 / (2 * 0.361)
        got = aoi_node(vector(0.2, 0.2), S001, 0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.7559, abs=1e-4)


class TestClosedForms:
    def test_aoi_matches_pinned_lone_network_values(self):
        cfg2 = NetworkConfig(n_dsrc=2, n_wifi=0, beta=0.001)
        assert _aoi_expr(cells_at(StrategyPair(0.0268, 0.0), cfg2)) == pytest.approx(2.5576, abs=5e-5)
        cfg10 = NetworkConfig(n_dsrc=10, n_wifi=0, beta=0.001)
        assert _aoi_expr(cells_at(StrategyPair(0.0100, 0.0), cfg10)) == pytest.approx(11.0723, abs=5e-5)

    def test_throughput_matches_pinned_lone_network_value(self):
        cfg = NetworkConfig(n_dsrc=0, n_wifi=2, beta=0.001)
        assert _throughput_expr(cells_at(StrategyPair(0.0, 0.0306), cfg)) == pytest.approx(0.4847, abs=5e-5)

    def test_throughput_vanishes_without_senders(self):
        cfg = NetworkConfig(n_dsrc=1, n_wifi=2, beta=0.001)
        assert _throughput_expr(cells_at(StrategyPair(0.3, 1e-9), cfg)) == pytest.approx(0.0, abs=1e-8)
        lone = NetworkConfig(n_dsrc=2, n_wifi=0, beta=0.001)
        assert _throughput_expr(cells_at(StrategyPair(0.3, 0.0), lone)) == 0.0

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=200)
    def test_closed_forms_equal_general_route(self, n_dsrc, n_wifi, tau_d, tau_w):
        cfg = NetworkConfig(n_dsrc=n_dsrc, n_wifi=n_wifi, beta=0.001)
        pair = StrategyPair(tau_d, tau_w)
        v = AccessVector.homogeneous(cfg, pair)
        thr = _throughput_expr(cells_at(pair, cfg))
        assert per_node_throughput(v, S001, n_dsrc) == pytest.approx(thr, rel=1e-12)
        age = _aoi_expr(cells_at(pair, cfg))
        assert aoi_node(v, S001, 0) == pytest.approx(age, rel=1e-12)
        # The renewal derivation: the DSRC node's age, and the WiFi node's E[Z] = sigma_S / throughput.
        assert age == pytest.approx(ratio_form_moments(v.taus, S001, 0)[2], rel=1e-10)
        assert ratio_form_moments(v.taus, S001, n_dsrc)[0] == pytest.approx(S001.success / thr, rel=1e-10)


class TestShapeOfTheSurfaces:
    def test_single_dsrc_node_age_decreases_with_own_tau(self):
        for n_wifi in (1, 2, 5):
            for tau_w in (0.2, 0.5):
                cfg = NetworkConfig(n_dsrc=1, n_wifi=n_wifi, beta=0.001)
                ages = [
                    _aoi_expr(cells_at(StrategyPair(0.01 + 0.01 * k, tau_w), cfg)) for k in range(99)
                ]
                assert all(a >= b - 1e-12 for a, b in zip(ages, ages[1:]))

    def test_age_grows_with_wifi_population(self):
        pair = StrategyPair(0.3, 0.2)
        ages = [
            _aoi_expr(cells_at(pair, NetworkConfig(n_dsrc=2, n_wifi=n, beta=0.001))) for n in (1, 2, 5)
        ]
        assert ages[0] < ages[1] < ages[2]

    def test_throughput_drops_with_dsrc_population(self):
        pair = StrategyPair(0.2, 0.3)
        thr = [
            _throughput_expr(cells_at(pair, NetworkConfig(n_dsrc=n, n_wifi=2, beta=0.001)))
            for n in (1, 2, 5)
        ]
        assert thr[0] > thr[1] > thr[2]
