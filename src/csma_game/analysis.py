"""Closed-form payoff derivatives and a numerical unimodality verifier.

Each player's negated payoff has a closed-form derivative in its own
strategy that splits into named terms: a curvature term from the busy-slot
ratio, a dominant term from the update rate (age side only), and the cost
contributions of collisions and idling. ``verify_quasiconcavity`` scans
the derivative along one strategy axis and checks the sign pattern implied
by a unimodal payoff: non-positive then non-negative, with at most one
sign change. ``tau_prime_upper_bound`` and ``alpha2_root`` locate two
landmarks of that pattern: where the curvature term's denominator reaches
one, and where the update-rate term changes sign. All terms combine the
per-axis contention factors of :mod:`~csma_game.model`; the cost terms of
both players share one formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GridSpec
from .model import DSRC, NetworkConfig, StrategyPair, _Axis, _require_player

# Scan points closer than this to 0 or 1 are dropped: the 1/tau^2 term
# swamps double precision in the last few ulps of the interval.
_EDGE_MARGIN = 1e-4
_ZERO_BRIDGE = 1e-12


@dataclass(frozen=True)
class AgeDerivativeTerms:
    """Terms of d(age + cost)/d tau_d at one strategy pair.

    ``total = alpha1 + alpha2 + alpha_col - alpha_idle`` is the derivative
    of the age player's negated (unrescaled) payoff.
    """

    alpha1: float
    alpha2: float
    alpha_col: float
    alpha_idle: float
    q_w: float
    q_w_prime: float
    total: float


@dataclass(frozen=True)
class ThrDerivativeTerms:
    """Terms of d(cost - throughput)/d tau_w at one strategy pair.

    ``total = alpha + alpha_col - alpha_idle``.
    """

    alpha: float
    alpha_col: float
    alpha_idle: float
    q_d: float
    q_d_prime: float
    total: float


@dataclass(frozen=True)
class QuasiConcavityReport:
    """Outcome of a derivative sign scan along one player's strategy axis."""

    player: str
    config: NetworkConfig
    fixed_opponent: float
    scan: GridSpec
    sign_change_count: int
    sign_pattern_ok: bool
    tau_prime_bound: float | None
    alpha2_root: float | None


def _cost_slope_parts(own, opp, config: NetworkConfig):
    """Collision and idle terms of d(cost)/d(own tau), plus the opponent's
    one-sender probability n tau (1-tau)^(n-1) that the collision term uses."""
    opp_prime = opp.n * opp.tau * opp.r1
    alpha_col = config.w_col * (
        opp.q * own.n * (own.n - 1) * own.tau * own.r2 + opp_prime * own.n * own.r1
    )
    alpha_idle = config.w_idle * opp.q * own.n * own.r1
    return alpha_col, alpha_idle, opp_prime


def _age_derivative_parts(tau_d, tau_w, config: NetworkConfig):
    beta = config.beta
    d, w = _Axis(tau_d, config.n_dsrc), _Axis(tau_w, config.n_wifi)
    denom = 1.0 + beta - d.q * w.q
    alpha1 = 0.5 * beta * (1.0 + beta) * w.q * d.n * d.r1 / denom**2
    alpha2 = (1.0 + (1.0 + beta) * (d.n * d.tau - 1.0) / (w.q * d.q)) / d.tau**2
    alpha_col, alpha_idle, q_w_prime = _cost_slope_parts(d, w, config)
    return alpha1, alpha2, alpha_col, alpha_idle, w.q, q_w_prime


def _wifi_derivative_parts(tau_d, tau_w, config: NetworkConfig):
    beta = config.beta
    d, w = _Axis(tau_d, config.n_dsrc), _Axis(tau_w, config.n_wifi)
    denom = 1.0 - d.q * w.q + beta
    alpha = d.q * (1.0 + beta) * w.r2 * (d.q * w.q + (1.0 + beta) * (w.tau * w.n - 1.0)) / denom**2
    alpha_col, alpha_idle, q_d_prime = _cost_slope_parts(w, d, config)
    return alpha, alpha_col, alpha_idle, d.q, q_d_prime


def age_payoff_derivative_terms(pair: StrategyPair, config: NetworkConfig) -> AgeDerivativeTerms:
    """Term decomposition of the age player's negated payoff derivative."""
    if not 0.0 < pair.tau_d < 1.0:
        raise ValueError("tau_d must be interior to (0, 1)")
    a1, a2, a_col, a_idle, q_w, q_w_prime = _age_derivative_parts(pair.tau_d, pair.tau_w, config)
    return AgeDerivativeTerms(
        alpha1=float(a1),
        alpha2=float(a2),
        alpha_col=float(a_col),
        alpha_idle=float(a_idle),
        q_w=float(q_w),
        q_w_prime=float(q_w_prime),
        total=float(a1 + a2 + a_col - a_idle),
    )


def wifi_payoff_derivative_terms(pair: StrategyPair, config: NetworkConfig) -> ThrDerivativeTerms:
    """Term decomposition of the throughput player's negated payoff derivative."""
    if not 0.0 < pair.tau_w < 1.0:
        raise ValueError("tau_w must be interior to (0, 1)")
    a, a_col, a_idle, q_d, q_d_prime = _wifi_derivative_parts(pair.tau_d, pair.tau_w, config)
    return ThrDerivativeTerms(
        alpha=float(a),
        alpha_col=float(a_col),
        alpha_idle=float(a_idle),
        q_d=float(q_d),
        q_d_prime=float(q_d_prime),
        total=float(a + a_col - a_idle),
    )


def _check_landmark_args(n_d: int, beta: float, q_w: float) -> None:
    if n_d < 1:
        raise ValueError("n_d must be at least 1")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if not 0.0 < q_w <= 1.0:
        raise ValueError("q_w must lie in (0, 1]")


def tau_prime_upper_bound(beta: float, n_d: int, q_w: float = 1.0) -> float | None:
    """Largest tau_d at which the curvature term's denominator reaches one.

    With the default ``q_w = 1`` this is the opponent-free upper bound; a
    concrete ``q_w < 1`` gives the exact landmark for that opponent. Returns
    None when no such point exists in (0, 1), which is the common case.
    """
    _check_landmark_args(n_d, beta, q_w)
    base = (1.0 + beta - math.sqrt(beta * (1.0 + beta) / 2.0)) / q_w
    if base >= 1.0:
        return None
    return 1.0 - base ** (1.0 / n_d)


def alpha2_root(n_d: int, beta: float, q_w: float = 1.0, tol: float = 1e-12) -> float:
    """Zero of the update-rate term: solves 1 - n_d*t = (q_w/(1+beta)) (1-t)^n_d.

    The bracket [0, 1/n_d] always contains the root: the left end is
    1 - q_w/(1+beta) > 0 and the right end is non-positive. Plain bisection
    to ``tol`` interval width.
    """
    _check_landmark_args(n_d, beta, q_w)
    scale = q_w / (1.0 + beta)

    def f(t: float) -> float:
        return 1.0 - n_d * t - scale * _Axis(t, n_d).q

    lo, hi = 0.0, 1.0 / n_d
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _effective_signs(values: np.ndarray) -> np.ndarray:
    """Signs with near-zero entries bridged to the nearest decisive neighbor."""
    signs = np.sign(values)
    decisive = np.flatnonzero(np.abs(values) >= _ZERO_BRIDGE)
    if decisive.size == 0:
        return np.zeros_like(signs)
    bridged = np.flatnonzero(np.abs(values) < _ZERO_BRIDGE)
    if bridged.size:
        pos = np.searchsorted(decisive, bridged)
        left = decisive[np.clip(pos - 1, 0, decisive.size - 1)]
        right = decisive[np.clip(pos, 0, decisive.size - 1)]
        nearest = np.where(bridged - left <= right - bridged, left, right)
        signs[bridged] = signs[nearest]
    return signs


def verify_quasiconcavity(
    player: str,
    config: NetworkConfig,
    fixed_opponent: float,
    scan: GridSpec | None = None,
) -> QuasiConcavityReport:
    """Scan the negated-payoff derivative along one axis and check unimodality.

    A payoff that rises then falls in the player's own strategy makes the
    scanned derivative non-positive then non-negative, so at most one sign
    change is allowed and it must run negative to positive. Raises
    FloatingPointError when the opponent's idle factor (1-tau)^n_w, which
    locates the update-rate root, underflows to 0.
    """
    _require_player(player)
    if not 0.0 <= fixed_opponent < 1.0:
        raise ValueError("fixed opponent strategy must lie in [0, 1)")
    scan = scan if scan is not None else GridSpec(lo=0.001, hi=0.999, step=0.001)
    pts = scan.points()
    pts = pts[(pts >= _EDGE_MARGIN) & (pts <= 1.0 - _EDGE_MARGIN)]
    if player == DSRC:
        if _Axis(fixed_opponent, config.n_wifi).q == 0.0:  # checked first: the terms divide by it
            raise FloatingPointError(
                f"(1-{fixed_opponent})^{config.n_wifi} underflows to 0, so the update-rate "
                "root cannot be located for this opponent strategy"
            )
        a1, a2, a_col, a_idle, q_w, _ = _age_derivative_parts(pts, fixed_opponent, config)
        totals = a1 + a2 + a_col - a_idle
        bound = tau_prime_upper_bound(config.beta, config.n_dsrc)
        root = alpha2_root(config.n_dsrc, config.beta, q_w=float(q_w))
    else:
        a, a_col, a_idle, _, _ = _wifi_derivative_parts(fixed_opponent, pts, config)
        totals = a + a_col - a_idle
        bound = None
        root = None
    signs = _effective_signs(np.asarray(totals))
    changes = int(np.count_nonzero(np.diff(signs) != 0))
    ok = changes == 0 or (changes == 1 and signs[0] < 0 and signs[-1] > 0)
    return QuasiConcavityReport(
        player=player,
        config=config,
        fixed_opponent=fixed_opponent,
        scan=scan,
        sign_change_count=changes,
        sign_pattern_ok=bool(ok),
        tau_prime_bound=bound,
        alpha2_root=root,
    )
