"""Closed-form payoff derivatives and a numerical unimodality verifier.

Each player's negated payoff has a closed-form derivative in its own strategy
that splits into named terms: a curvature term from the busy-slot ratio, a
dominant term from the update rate (age side only), and the cost
contributions of collisions and idling. ``verify_quasiconcavity`` scans the
derivative at the multiples of a step along one strategy axis, against many
opponent values at once, and checks the sign pattern of a unimodal payoff:
non-positive then non-negative, with at most one sign change; exact zeros
take no part. Both players' scans fail where the opponent's (1-tau)^n
underflows to 0. A DSRC report also carries two landmarks: the opponent-free
bound on where the curvature term's denominator reaches one, and the
update-rate term's root. All terms combine the per-axis contention factors of
:mod:`~csma_game.model`; the cost terms of both players share one formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DSRC, NetworkConfig, _Axis, _Cells, _require_player

# Scan points closer than this to 0 or 1 are dropped: the 1/tau^2 term
# swamps double precision in the last few ulps of the interval.
_EDGE_MARGIN = 1e-4
_NEWTON_STEPS = 50
_NEWTON_TOL = 1e-12


@dataclass(frozen=True)
class QuasiConcavityReport:
    """One opponent value's derivative sign scan; the landmarks are None on the WiFi side."""

    fixed_opponent: float
    sign_change_count: int
    sign_pattern_ok: bool
    tau_prime_bound: float | None
    alpha2_root: float | None


def _cost_slope_parts(own, opp, config: NetworkConfig):
    """Collision and idle terms of d(cost)/d(own tau)."""
    alpha_col = config.w_col * (
        opp.q * own.n * (own.n - 1) * own.tau * own.r2 + opp.one_sender * own.n * own.r1
    )
    alpha_idle = config.w_idle * opp.q * own.n * own.r1
    return alpha_col, alpha_idle


def _age_slope_parts(c: _Cells):
    """The curvature and update-rate terms of d(age)/d tau_d."""
    beta, d, w = c.beta, c.d, c.w
    alpha1 = 0.5 * beta * (1.0 + beta) * w.q * d.n * d.r1 / c.mean_length**2
    alpha2 = (1.0 + (1.0 + beta) * (d.n * d.tau - 1.0) / c.p_idle) / d.tau**2
    return alpha1, alpha2


def _wifi_slope(c: _Cells):
    """d(-throughput)/d tau_w."""
    beta, d, w = c.beta, c.d, c.w
    return d.q * (1.0 + beta) * w.r2 * (c.p_idle + (1.0 + beta) * (w.tau * w.n - 1.0)) / c.mean_length**2


def _tau_prime_bound(beta: float, n_d: int) -> float | None:
    """Opponent-free upper bound on the tau_d at which the curvature term's
    denominator reaches one; None when no such point exists in (0, 1)."""
    base = 1.0 + beta - math.sqrt(beta * (1.0 + beta) / 2.0)
    return None if base >= 1.0 else 1.0 - base ** (1.0 / n_d)


def _alpha2_root(n_d: int, beta: float, q_w: np.ndarray) -> np.ndarray:
    """Zero of the update-rate term: solves 1 - n_d*t = (q_w/(1+beta)) (1-t)^n_d for each entry of ``q_w``.

    With s = q_w/(1+beta) < 1, g(t) = 1 - n_d t - s (1-t)^n_d is decreasing and
    concave on [0, 1/n_d] and g(1/n_d) <= 0, so Newton's method from 1/n_d falls
    monotonically onto the root. Each entry stops once its own step is at most
    ``_NEWTON_TOL`` (or after ``_NEWTON_STEPS``), as it would alone.
    """
    s = q_w / (1.0 + beta)
    t = np.full_like(s, 1.0 / n_d)
    moving = np.ones_like(t, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        one = 1.0 - t
        s_r1 = s * one ** (n_d - 1)
        step = (1.0 - n_d * t - s_r1 * one) / (n_d - n_d * s_r1)  # -g(t) / g'(t)
        t = np.where(moving, t + step, t)
        moving &= np.abs(step) > _NEWTON_TOL
        if not moving.any():
            break
    return t


def verify_quasiconcavity(player: str, config: NetworkConfig, opponents, step: float = 0.001):
    """Scan the negated-payoff derivative along one axis and check unimodality.

    A payoff that rises then falls in the player's own strategy makes the
    scanned derivative non-positive then non-negative, so at most one sign
    change among its nonzero entries is allowed (exact zeros and NaN take no
    part), and it must run negative to positive. ``opponents`` is a sequence
    of opponent strategies, scanned at the multiples of ``step`` in (0, 1) as
    one array; the reports come back as a tuple in its order. Raises
    ValueError for a scanned network with no nodes, a value outside [0, 1), a
    step not positive and finite or fewer than two scan points, and
    FloatingPointError when the opponent's (1-tau)^n, a factor or divisor of
    every entry of either player's scan, underflows to 0: the first bad
    value raises its error.
    """
    _require_player(player)
    dsrc = player == DSRC
    own_n, opp_n = (config.n_dsrc, config.n_wifi) if dsrc else (config.n_wifi, config.n_dsrc)
    if own_n < 1:
        raise ValueError(f"the scanned {player} network has no nodes")
    values = np.array(tuple(opponents), dtype=float)
    in_range = (0.0 <= values) & (values < 1.0)  # False for NaN
    n_ok = values.size if in_range.all() else int(in_range.argmin())
    opp = _Axis(values[:n_ok, None], opp_n)  # the values before the first one out of range, as a column
    if not opp.q.all():  # checked first: the DSRC terms divide by it, the WiFi ones are multiples of it
        tau = float(values[opp.q.argmin()])  # the first zero, as no q is negative
        raise FloatingPointError(f"(1-{tau})^{opp_n} underflows to 0, so the scanned slope's signs cannot be read")
    if n_ok < values.size:
        raise ValueError("fixed opponent strategy must lie in [0, 1)")
    if not (0.0 < step < math.inf and 1.0 / step < math.inf):  # also rejects NaN, and a step too small to count
        raise ValueError(f"scan step must be positive and finite, got {step}")
    pts = step + step * np.arange(math.ceil(1.0 / step) - 1)
    pts = pts[(pts >= _EDGE_MARGIN) & (pts <= 1.0 - _EDGE_MARGIN)]
    if pts.size < 2:  # no pair of neighbours, so no sign change could show
        raise ValueError(f"the scan keeps {pts.size} point(s) inside [{_EDGE_MARGIN}, {1.0 - _EDGE_MARGIN}], "
                         "too few to show a sign change")
    own = _Axis(pts, own_n)
    if dsrc:
        with np.errstate(divide="ignore", over="ignore"):  # the own (1-tau_d)^n_d underflows: a +inf rate term
            totals = np.add(*_age_slope_parts(_Cells(own, opp, config.beta)))
        bound, roots = _tau_prime_bound(config.beta, own_n), _alpha2_root(own_n, config.beta, opp.q[:, 0]).tolist()
    else:
        totals, bound, roots = _wifi_slope(_Cells(opp, own, config.beta)), None, [None] * values.size
    if config.w_col or config.w_idle:  # zero weights add +-0.0, which changes no sign
        a_col, a_idle = _cost_slope_parts(own, opp, config)
        totals = totals + a_col - a_idle
    signs = np.sign(totals)
    changes, rows = np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1).tolist(), list(signs)
    for r in np.flatnonzero(~(np.abs(totals) > 0.0).all(axis=1)):  # its exact zeros and NaN take no part
        rows[r] = s = signs[r][np.abs(totals[r]) > 0.0]
        changes[r] = np.count_nonzero(s[1:] != s[:-1])
    return tuple(QuasiConcavityReport(tau, n, n == 0 or (n == 1 and bool(s[0] < 0 < s[-1])), bound, root)
                 for tau, n, s, root in zip(values.tolist(), changes, rows, roots))
