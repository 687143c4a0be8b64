"""Slot-outcome kernels: hand values, algebraic identities, brute-force oracle."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csma_game.model import (
    DSRC,
    WIFI,
    AccessVector,
    NetworkConfig,
    SlotLengths,
    StrategyPair,
    _slot_kernels,
)


def vector(*taus):
    return AccessVector(tuple(taus), (DSRC,) * len(taus))


def kernels(*taus):
    return _slot_kernels(tuple(taus))


def brute_force_probs(taus):
    """Enumerate all 2^n transmit patterns: the independent oracle.

    Returns P(idle), P(node i alone transmits) and P(no node other than i
    transmits) for every i.
    """
    n = len(taus)
    p_idle = 0.0
    p_succ = [0.0] * n
    p_excl = [0.0] * n
    for pattern in product((0, 1), repeat=n):
        p = 1.0
        for bit, tau in zip(pattern, taus):
            p *= tau if bit else 1.0 - tau
        senders = [j for j, bit in enumerate(pattern) if bit]
        if not senders:
            p_idle += p
            p_excl = [ex + p for ex in p_excl]
        elif len(senders) == 1:
            p_succ[senders[0]] += p
            p_excl[senders[0]] += p
    return p_idle, p_succ, p_excl


taus_lists = st.lists(st.floats(0.0, 0.95), min_size=1, max_size=4)
# The oracle's domain keeps always-transmitting nodes (tau = 1).
taus_closed = st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=4)


class TestJointIdleProb:
    def test_all_silent_is_certainly_idle(self):
        assert vector(0.0, 0.0, 0.0)._kernels.idle == 1.0

    def test_hand_value(self):
        # 0.8^3
        assert vector(0.2, 0.2, 0.2)._kernels.idle == pytest.approx(0.512, abs=1e-15)

    def test_always_transmitting_node_kills_idle(self):
        assert vector(1.0, 0.2)._kernels.idle == 0.0

    @given(taus_lists)
    def test_positive_below_one(self, taus):
        assert vector(*taus)._kernels.idle > 0.0


class TestIdleProbExcluding:
    def test_single_node_empty_product(self):
        assert kernels(0.7).excl == (1.0,)

    def test_hand_value(self):
        assert kernels(0.2, 0.2, 0.2).excl[0] == pytest.approx(0.64, abs=1e-15)

    @given(taus_lists)
    def test_factorization_identity(self, taus):
        k = kernels(*taus)
        for i in range(len(taus)):
            assert abs(k.idle - (1.0 - taus[i]) * k.excl[i]) <= 1e-14


class TestSuccessProbs:
    def test_silent_node_never_succeeds(self):
        assert kernels(0.0, 0.3).solo[0] == 0.0

    def test_hand_value(self):
        assert kernels(0.2, 0.2, 0.2).solo[0] == pytest.approx(0.128, abs=1e-15)

    def test_uncontended_node(self):
        assert kernels(0.7).solo[0] == pytest.approx(0.7)

    def test_total_hand_value(self):
        assert vector(0.2, 0.2, 0.2)._kernels.success == pytest.approx(0.384, abs=1e-15)

    def test_total_all_silent(self):
        assert vector(0.0, 0.0)._kernels.success == 0.0

    @given(taus_lists)
    def test_success_splits_into_node_and_rest(self, taus):
        # the rest, taken as total minus own, equals the direct sum over the other nodes
        k = kernels(*taus)
        for i in range(len(taus)):
            rest = sum(p for j, p in enumerate(k.solo) if j != i)
            assert abs((k.success - k.solo[i]) - rest) <= 1e-14

    @given(taus_lists)
    def test_disjoint_event_bounds(self, taus):
        v = vector(*taus)
        p_idle = v._kernels.idle
        p_succ = v._kernels.success
        assert 0.0 <= p_succ <= 1.0
        assert p_idle + p_succ <= 1.0 + 1e-14


@given(taus_closed)
def test_brute_force_oracle_equivalence(taus):
    k = kernels(*taus)
    p_idle, p_succ, p_excl = brute_force_probs(taus)
    assert abs(k.idle - p_idle) <= 1e-12
    assert abs(vector(*taus)._kernels.idle - p_idle) <= 1e-12
    assert abs(vector(*taus)._kernels.success - sum(p_succ)) <= 1e-12
    assert abs(k.collision - (1.0 - p_idle - sum(p_succ))) <= 1e-12
    for i in range(len(taus)):
        assert abs(k.solo[i] - p_succ[i]) <= 1e-12
        assert abs(k.excl[i] - p_excl[i]) <= 1e-12
        assert abs((k.success - k.solo[i]) - (sum(p_succ) - p_succ[i])) <= 1e-12


class TestExpectedSlotLength:
    def test_hand_value(self):
        s = SlotLengths.from_beta(0.001)
        # 0.001*0.512 + 1.001*0.384 + 1.001*0.104
        assert vector(0.2, 0.2, 0.2)._kernels.mean_length(s) == pytest.approx(0.489, abs=1e-12)

    def test_all_silent_gives_idle_length(self):
        s = SlotLengths(idle=0.5, success=2.0, collision=3.0)
        assert vector(0.0, 0.0)._kernels.mean_length(s) == pytest.approx(0.5)

    @given(taus_lists)
    def test_convex_combination_bounds(self, taus):
        s = SlotLengths(idle=0.25, success=1.5, collision=2.5)
        value = vector(*taus)._kernels.mean_length(s)
        assert 0.25 - 1e-12 <= value <= 2.5 + 1e-12


class TestDomainTypes:
    def test_slot_lengths_positive(self):
        with pytest.raises(ValueError):
            SlotLengths(idle=0.0, success=1.0, collision=1.0)
        with pytest.raises(ValueError):
            SlotLengths(idle=0.1, success=-1.0, collision=1.0)

    def test_from_beta_bounds(self):
        with pytest.raises(ValueError):
            SlotLengths.from_beta(0.0)
        with pytest.raises(ValueError):
            SlotLengths.from_beta(1.0)
        s = SlotLengths.from_beta(0.25)
        assert (s.idle, s.success, s.collision) == (0.25, 1.25, 1.25)

    def test_network_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(n_dsrc=0, n_wifi=0, beta=0.1)
        with pytest.raises(ValueError):
            NetworkConfig(n_dsrc=-1, n_wifi=2, beta=0.1)
        with pytest.raises(ValueError):
            NetworkConfig(n_dsrc=1, n_wifi=1, beta=1.5)
        with pytest.raises(ValueError):
            NetworkConfig(n_dsrc=1, n_wifi=1, beta=0.1, w_idle=-0.1)
        lone = NetworkConfig(n_dsrc=0, n_wifi=3, beta=0.1)
        assert (lone.n_dsrc, lone.n_wifi) == (0, 3)

    @pytest.mark.parametrize("weights", [
        {"w_idle": float("nan")}, {"w_col": float("nan")}, {"w_idle": float("inf")}, {"w_col": float("inf")},
    ], ids=["w_idle-nan", "w_col-nan", "w_idle-inf", "w_col-inf"])
    def test_network_config_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="cost weights must be finite and non-negative"):
            NetworkConfig(n_dsrc=1, n_wifi=1, beta=0.1, **weights)

    def test_strategy_pair_bounds(self):
        with pytest.raises(ValueError):
            StrategyPair(tau_d=1.0, tau_w=0.5)
        with pytest.raises(ValueError):
            StrategyPair(tau_d=0.5, tau_w=-0.1)
        # 0 stands in for an absent network
        assert StrategyPair(tau_d=0.0, tau_w=0.5).tau_d == 0.0

    @pytest.mark.parametrize("tau_d, tau_w, message", [
        (1.0, 0.5, "tau_d must lie in [0, 1), got 1.0"),
        (0.5, -0.1, "tau_w must lie in [0, 1), got -0.1"),
        (-0.5, 2.0, "tau_d must lie in [0, 1), got -0.5"),  # tau_d is named first
        (0.5, float("nan"), "tau_w must lie in [0, 1), got nan"),
        (0.5, 1.0, "tau_w must lie in [0, 1), got 1.0"),
    ])
    def test_strategy_pair_messages_name_the_first_bad_component(self, tau_d, tau_w, message):
        with pytest.raises(ValueError) as exc:
            StrategyPair(tau_d=tau_d, tau_w=tau_w)
        assert str(exc.value) == message

    def test_access_vector_validation(self):
        with pytest.raises(ValueError):
            AccessVector((0.2,), (DSRC, WIFI))
        with pytest.raises(ValueError):
            AccessVector((), ())
        with pytest.raises(ValueError):
            AccessVector((1.0001,), (DSRC,))
        with pytest.raises(ValueError):
            AccessVector((0.2,), ("lte",))
        assert AccessVector((1.0,), (DSRC,)).taus == (1.0,)

    def test_homogeneous_construction(self):
        config = NetworkConfig(n_dsrc=2, n_wifi=3, beta=0.001)
        v = AccessVector.homogeneous(config, StrategyPair(0.4, 0.1))
        assert v.taus == (0.4, 0.4, 0.1, 0.1, 0.1)
        assert v.tags == (DSRC, DSRC, WIFI, WIFI, WIFI)
        assert len(v) == config.n_dsrc + config.n_wifi
