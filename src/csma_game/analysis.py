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
from types import SimpleNamespace

import numpy as np

from .game import GridSpec
from .model import DSRC, NetworkConfig, _Axis, _Cells, _require_player

# Scan points closer than this to 0 or 1 are dropped: the 1/tau^2 term
# swamps double precision in the last few ulps of the interval.
_EDGE_MARGIN = 1e-4
_ZERO_BRIDGE = 1e-12
_NEWTON_STEPS = 50
_NEWTON_TOL = 1e-12


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
    """Collision and idle terms of d(cost)/d(own tau)."""
    opp_prime = opp.n * opp.tau * opp.r1  # the opponent's one-sender probability
    alpha_col = config.w_col * (
        opp.q * own.n * (own.n - 1) * own.tau * own.r2 + opp_prime * own.n * own.r1
    )
    alpha_idle = config.w_idle * opp.q * own.n * own.r1
    return alpha_col, alpha_idle


def _age_slope_parts(c: _Cells):
    """The curvature and update-rate terms of d(age)/d tau_d."""
    beta, d, w = c.beta, c.d, c.w
    alpha1 = 0.5 * beta * (1.0 + beta) * w.q * d.n * d.r1 / (1.0 + beta - c.p_idle) ** 2
    alpha2 = (1.0 + (1.0 + beta) * (d.n * d.tau - 1.0) / c.p_idle) / d.tau**2
    return alpha1, alpha2


def _wifi_slope(c: _Cells):
    """d(-throughput)/d tau_w."""
    beta, d, w = c.beta, c.d, c.w
    return d.q * (1.0 + beta) * w.r2 * (c.p_idle + (1.0 + beta) * (w.tau * w.n - 1.0)) / c.mean_length**2


def _check_landmark_args(n_d: int, beta: float, q_w) -> None:
    if n_d < 1:
        raise ValueError("n_d must be at least 1")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if not np.all((0.0 < q_w) & (q_w <= 1.0)):
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


def alpha2_root(n_d: int, beta: float, q_w: float = 1.0) -> float:
    """Zero of the update-rate term: solves 1 - n_d*t = (q_w/(1+beta)) (1-t)^n_d.

    With s = q_w/(1+beta) < 1, g(t) = 1 - n_d t - s (1-t)^n_d is decreasing and
    concave on [0, 1/n_d] and g(1/n_d) <= 0, so Newton's method from 1/n_d falls
    monotonically onto the root. It stops once a step is at most ``_NEWTON_TOL`` (or
    after ``_NEWTON_STEPS``); an array ``q_w`` gives the root of each entry.
    """
    q_w = np.asarray(q_w, dtype=float)
    _check_landmark_args(n_d, beta, q_w)
    s = q_w / (1.0 + beta)
    t = np.full_like(s, 1.0 / n_d)
    moving = np.ones_like(t, dtype=bool)  # an entry stops as it would on its own
    for _ in range(_NEWTON_STEPS):
        one = 1.0 - t
        s_r1 = s * one ** (n_d - 1)
        step = (1.0 - n_d * t - s_r1 * one) / (n_d - n_d * s_r1)  # -g(t) / g'(t)
        t = np.where(moving, t + step, t)
        moving &= np.abs(step) > _NEWTON_TOL
        if not moving.any():
            break
    return float(t) if t.ndim == 0 else t


def _effective_signs(values: np.ndarray) -> np.ndarray:
    """Signs with near-zero entries bridged to the nearest decisive neighbor."""
    signs = np.sign(values)
    decisive = np.flatnonzero(np.abs(values) >= _ZERO_BRIDGE)
    if decisive.size == 0:
        return np.zeros_like(signs)
    bridged = np.flatnonzero(np.abs(values) < _ZERO_BRIDGE)
    pos = np.searchsorted(decisive, bridged)
    left = decisive[np.clip(pos - 1, 0, decisive.size - 1)]
    right = decisive[np.clip(pos, 0, decisive.size - 1)]
    signs[bridged] = signs[np.where(bridged - left <= right - bridged, left, right)]  # the nearest decisive entry
    return signs


def verify_quasiconcavity(player: str, config: NetworkConfig, fixed_opponent, scan: GridSpec | None = None):
    """Scan the negated-payoff derivative along one axis and check unimodality.

    A payoff that rises then falls in the player's own strategy makes the
    scanned derivative non-positive then non-negative, so at most one sign
    change is allowed and it must run negative to positive. Raises
    FloatingPointError when the opponent's idle factor (1-tau)^n_w, which
    locates the update-rate root, underflows to 0.

    ``fixed_opponent`` is one value, which gives one report, or a sequence,
    which gives a tuple of reports in its order. A sequence is one (values x
    scan points) array, with each report what its value alone would give;
    the values are checked in order first, so the first bad one raises.
    """
    _require_player(player)
    values = tuple(fixed_opponent) if np.ndim(fixed_opponent) else (fixed_opponent,)
    dsrc = player == DSRC
    own_n, opp_n = (config.n_dsrc, config.n_wifi) if dsrc else (config.n_wifi, config.n_dsrc)
    axes, bound = [], None
    for tau in values:
        if not 0.0 <= tau < 1.0:
            raise ValueError("fixed opponent strategy must lie in [0, 1)")
        axes.append(_Axis(tau, opp_n))
        if dsrc and axes[-1].q == 0.0:  # checked first: the terms divide by it
            raise FloatingPointError(
                f"(1-{tau})^{config.n_wifi} underflows to 0, so the update-rate "
                "root cannot be located for this opponent strategy"
            )
        if dsrc and len(axes) == 1:  # its n_d check follows the first value's, as in a one-value scan
            bound = tau_prime_upper_bound(config.beta, config.n_dsrc)
    scan = scan if scan is not None else GridSpec(lo=0.001, hi=0.999, step=0.001)
    pts = scan.points()
    own = _Axis(pts[(pts >= _EDGE_MARGIN) & (pts <= 1.0 - _EDGE_MARGIN)], own_n)
    # The opponent values' factors as one column, each entry from its value's own scalar ``_Axis``.
    column = {k: np.array([getattr(a, k) for a in axes]).reshape(-1, 1) for k in ("tau", "q", "r1")}
    opp = SimpleNamespace(n=opp_n, **column)
    if dsrc:
        totals = np.add(*_age_slope_parts(_Cells(own, opp, config.beta)))
        roots = alpha2_root(config.n_dsrc, config.beta, q_w=opp.q[:, 0]).tolist()
    else:
        totals, roots = _wifi_slope(_Cells(opp, own, config.beta)), [None] * len(values)
    if config.w_col or config.w_idle:  # zero weights add +-0.0, which changes no sign
        a_col, a_idle = _cost_slope_parts(own, opp, config)
        totals = totals + a_col - a_idle
    signs = np.sign(totals)
    for r in np.flatnonzero(~(np.abs(totals) >= _ZERO_BRIDGE).all(axis=1)):  # near-zero or NaN entries
        signs[r] = _effective_signs(totals[r])
    changes = np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1).tolist()
    reports = tuple(QuasiConcavityReport(player, config, tau, scan, n, n == 0 or (n == 1 and bool(s[0] < 0 < s[-1])),
                                         bound, root) for tau, n, s, root in zip(values, changes, signs, roots))
    return reports if np.ndim(fixed_opponent) else reports[0]
