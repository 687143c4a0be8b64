"""Independent reference computations, written from the model as the README
states it and sharing no code with ``src/``.

Model: each node transmits in a slot with its own probability tau. A slot
with no transmitter is idle and lasts beta; one with exactly one transmitter
is a success and one with two or more is a collision, both lasting
sigma = 1 + beta. A tagged node's inter-update time Z is the time from the
end of one of its successful slots to the end of the next. Slots are iid, so
with p = P(node alone transmits) and g(s) = sum over the other outcomes o of
P(o) e^{s len(o)}, the moment generating function of Z is

    M(s) = p e^{s sigma} / (1 - g(s)),

which gives E[Z] = m1 / p and E[Z^2] = sigma^2 + (2 sigma g1 + g2) / p
+ 2 g1^2 / p^2, where g1 = g'(0), g2 = g''(0) and m1 = g1 + p sigma is the
mean slot length. Age grows at unit rate from sigma after each update, so
its time average is sigma + E[Z^2] / (2 E[Z]); a node's throughput is the
share of time its successes occupy, p sigma / m1.

Two ways to get the slot-outcome probabilities:

* ``node_quantities`` enumerates all 2^n transmit patterns when n <= 12;
* otherwise, and on strategy grids, the products (1 - tau)^n are evaluated as
  exp(n log1p(-tau)) and ages are kept as logarithms, which stay finite
  where the products underflow.
"""

from __future__ import annotations

import math

import numpy as np

BRUTE_FORCE_MAX_N = 12

# Tolerances (see README): full-precision outputs must agree to RTOL; a value
# printed at 6 significant digits may also differ by half a unit in its last
# printed digit. Rankings treat two payoffs within RANK_TOL (relative to the
# largest magnitude in that column or row, or absolute for log-age and
# log-throughput) as tied.
RTOL = 1e-9
RANK_TOL = 1e-9


def grid_points(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(round((hi - lo) / step) + 1)


def _renewal(p, other, p_idle, beta):
    """E[Z], E[Z^2], age and throughput from p, P(busy and not node's success), P(idle)."""
    sig = 1.0 + beta
    g1 = beta * p_idle + sig * other
    g2 = beta**2 * p_idle + sig**2 * other
    m1 = g1 + p * sig
    ez = m1 / p
    ez2 = sig**2 + (2.0 * sig * g1 + g2) / p + 2.0 * g1**2 / p**2
    return ez, ez2, ez2 / (2.0 * ez) + sig, p * sig / m1


def node_quantities(taus, beta: float) -> dict:
    """Per-node age, throughput, E[Z], E[Z^2], plus slot-outcome probabilities."""
    taus = np.asarray(taus, dtype=float)
    n = taus.size
    if n <= BRUTE_FORCE_MAX_N:
        bits = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
        prob = np.prod(np.where(bits, taus, 1.0 - taus), axis=1)
        count = bits.sum(axis=1)
        p_idle = prob[count == 0].sum()
        alone = bits & (count == 1)[:, None]
        p = (prob[:, None] * alone).sum(axis=0)
        other = (prob[:, None] * ((count >= 1)[:, None] & ~alone)).sum(axis=0)
        p_succ = prob[count == 1].sum()
    else:
        l1 = np.log1p(-taus)
        log_idle = l1.sum()
        p_idle = math.exp(log_idle)
        p = taus * np.exp(log_idle - l1)
        other = -math.expm1(log_idle) - p
        p_succ = p.sum()
    ez, ez2, age, thr = _renewal(p, other, p_idle, beta)
    return {"age": age, "throughput": thr, "ez": ez, "ez2": ez2,
            "p_idle": p_idle, "p_success": p_succ, "p_collision": 1.0 - p_idle - p_succ}


def homogeneous(nd: int, nw: int, beta: float, td, tw, w_idle=0.0, w_col=0.0) -> dict:
    """Log-domain closed forms for nd age nodes at td and nw throughput nodes at tw.

    Returns log age of an age node, log throughput of a throughput node and
    the wastage cost; td and tw broadcast, and complex arguments are allowed
    (complex-step derivatives).
    """
    sig = 1.0 + beta
    l1d = np.log1p(-td) if nd else 0.0
    l1w = np.log1p(-tw) if nw else 0.0
    log_idle = nd * l1d + nw * l1w
    p_idle = np.exp(log_idle)
    busy = -np.expm1(log_idle)
    out = {}
    succ = 0.0
    if nd:
        log_pd = np.log(td) + (nd - 1) * l1d + nw * l1w
        pd = np.exp(log_pd)
        succ = succ + nd * pd
        g1 = beta * p_idle + sig * (busy - pd)
        g2 = beta**2 * p_idle + sig**2 * (busy - pd)
        m1 = g1 + pd * sig
        num = sig**2 * pd**2 + (2.0 * sig * g1 + g2) * pd + 2.0 * g1**2
        out["log_age"] = np.log(num / (2.0 * m1) + sig * pd) - log_pd
    if nw:
        log_pw = np.log(tw) + (nw - 1) * l1w + nd * l1d
        succ = succ + nw * np.exp(log_pw)
        m1 = beta * p_idle + sig * busy
        out["log_thr"] = log_pw + math.log(sig) - np.log(m1)
    out["cost"] = w_idle * p_idle + w_col * (busy - succ)
    return out


def _affine_ratio(log_age, axis):
    """(age - min) / (max - min) along axis (or globally), computed from log age."""
    lo = log_age.min(axis=axis, keepdims=True) if axis is not None else log_age.min()
    hi = log_age.max(axis=axis, keepdims=True) if axis is not None else log_age.max()
    span = -np.expm1(lo - hi)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (np.exp(log_age - hi) - np.exp(lo - hi)) / span
    return np.where(span > 0.0, r, 0.0)


class Game:
    """Reference payoff surfaces of one game on one grid, indexed [tau_d, tau_w]."""

    def __init__(self, nd, nw, beta, w_idle, w_col, rescale, grid):
        self.pts = grid_points(*grid)
        self.grid = grid
        h = homogeneous(nd, nw, beta, self.pts[:, None], self.pts[None, :], w_idle, w_col)
        self.log_age = h["log_age"]
        self.log_thr = h["log_thr"]
        with np.errstate(over="ignore"):
            self.age = np.exp(self.log_age)
        self.throughput = np.exp(self.log_thr)
        self.cost = h["cost"]
        thr_lo, thr_hi = self.throughput.min(), self.throughput.max()
        r = _affine_ratio(self.log_age, axis=None if rescale == "range" else 0)
        self.age_rescaled = thr_lo + (thr_hi - thr_lo) * r
        self.u_dsrc = -self.age_rescaled - self.cost
        self.u_wifi = self.throughput - self.cost
        if w_idle == 0.0 and w_col == 0.0:
            # Best responses are invariant under increasing maps of each payoff.
            self.rank_dsrc, self.rank_wifi = -self.log_age, self.log_thr
            self.tol_dsrc = self.tol_wifi = RANK_TOL
        else:
            self.rank_dsrc, self.rank_wifi = self.u_dsrc, self.u_wifi
            self.tol_dsrc = RANK_TOL * np.abs(self.u_dsrc).max(axis=0, keepdims=True)
            self.tol_wifi = RANK_TOL * np.abs(self.u_wifi).max(axis=1, keepdims=True)
        self.br_dsrc = self.rank_dsrc >= self.rank_dsrc.max(axis=0, keepdims=True) - self.tol_dsrc
        self.br_wifi = self.rank_wifi >= self.rank_wifi.max(axis=1, keepdims=True) - self.tol_wifi

    def index(self, tau: float) -> int:
        lo, _, step = self.grid
        k = round((tau - lo) / step)
        if not 0 <= k < self.pts.size or abs(self.pts[k] - tau) > 1e-9:
            raise ValueError(f"{tau} is not a grid point")
        return k

    def nash_sets(self):
        """(loose, robust): pairs within RANK_TOL of mutual best responses, and
        those whose best-response sets are single cells on both sides."""
        loose = self.br_dsrc & self.br_wifi
        single = (self.br_dsrc.sum(axis=0, keepdims=True) == 1) & (self.br_wifi.sum(axis=1, keepdims=True) == 1)
        return loose, loose & single

    def stackelberg(self, leader: str):
        """Leader payoff [leader, follower], loose follower best-response sets,
        the lowest pessimistic value of each leader strategy over those sets,
        and the payoff tolerance."""
        if leader == "dsrc":
            lead, follower = self.u_dsrc, self.br_wifi
        else:
            lead, follower = self.u_wifi.T, self.br_dsrc.T
        finite = np.isfinite(lead)
        scale = np.abs(lead[finite]).max() if finite.any() else 1.0
        pess_lo = np.where(follower, lead, np.inf).min(axis=1)
        return lead, follower, pess_lo, RANK_TOL * scale


def close(x: float, ref: float, rtol: float = RTOL, atol: float = 0.0) -> bool:
    """Full-precision comparison; two infinities of one sign also agree."""
    if math.isinf(ref) or math.isinf(x):
        return x == ref
    return abs(x - ref) <= rtol * abs(ref) + atol


def matches_printed(text: str, ref, rtol: float = RTOL, atol: float = 0.0) -> bool:
    """A 6-significant-digit value printed by the CLI against a reference value.

    An empty cell matches only a missing reference. Otherwise the printed value
    may differ from the reference by half a unit in its 6th significant digit
    (rounding) plus the full-precision tolerance.
    """
    if text == "" or ref is None:
        return text == "" and ref is None
    x = float(text)
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 5) if x != 0.0 else 0.0
    return abs(x - ref) <= half_unit + rtol * abs(ref) + atol


def lone_network(kind: str, n: int, beta: float, taus):
    """Age (kind 'dsrc') or throughput ('wifi') of a network alone on the channel."""
    if kind == "dsrc":
        return np.exp(homogeneous(n, 0, beta, taus, 0.0)["log_age"])
    return np.exp(homogeneous(0, n, beta, 0.0, taus)["log_thr"])


def lone_optimum(kind: str, n: int, beta: float, lo: float, hi: float) -> tuple[float, float]:
    """Continuous optimum on [lo, hi]: a dense scan, then a bounded Brent search."""
    from scipy.optimize import minimize_scalar

    sign = 1.0 if kind == "dsrc" else -1.0
    xs = np.linspace(lo, hi, 200_001)
    k = int(np.argmin(sign * lone_network(kind, n, beta, xs)))
    a, b = xs[max(k - 1, 0)], xs[min(k + 1, xs.size - 1)]
    res = minimize_scalar(lambda t: sign * float(lone_network(kind, n, beta, t)), bounds=(a, b),
                          method="bounded", options={"xatol": 1e-12})
    best = min((res.x, xs[k]), key=lambda t: sign * float(lone_network(kind, n, beta, t)))
    return float(best), float(lone_network(kind, n, beta, best))


def negated_payoff_slope(player: str, nd: int, nw: int, beta: float, w_idle: float, w_col: float,
                         taus: np.ndarray, opponent: float) -> np.ndarray:
    """Derivative of the unrescaled negated payoff along the player's own strategy,
    by complex step: age + cost for 'dsrc', cost - throughput for 'wifi'."""
    h = 1e-30
    z = taus + 1j * h
    if player == "dsrc":
        r = homogeneous(nd, nw, beta, z, opponent, w_idle, w_col)
        f = np.exp(r["log_age"]) + r["cost"]
    else:
        r = homogeneous(nd, nw, beta, opponent, z, w_idle, w_col)
        f = r["cost"] - np.exp(r["log_thr"])
    return f.imag / h


def sign_changes(slope: np.ndarray, atol: float) -> tuple[int, bool]:
    """Sign changes of the decisive entries (|slope| > atol), and whether the
    pattern is non-positive then non-negative."""
    signs = np.sign(slope[np.abs(slope) > atol])
    changes = int(np.count_nonzero(np.diff(signs) != 0))
    ok = changes == 0 or (changes == 1 and signs[0] < 0 and signs[-1] > 0)
    return changes, ok


def update_rate_root(nd: int, beta: float, q_w: float) -> float:
    """Zero in (0, 1/nd] of d/dtau of (1 + beta - q_d q_w) / (tau (1-tau)^(nd-1) q_w),
    the update-rate part of the age; its sign is that of
    q_w (1-tau)^nd + (1 + beta)(nd tau - 1)."""
    from scipy.optimize import brentq

    def f(t):
        return q_w * (1.0 - t) ** nd + (1.0 + beta) * (nd * t - 1.0)

    hi = 1.0 / nd
    if f(hi) <= 0.0:
        return hi
    return brentq(f, 0.0, hi, xtol=1e-15, rtol=1e-15)


def curvature_landmark(nd: int, beta: float) -> float | None:
    """tau where 2 (1 + beta - (1-tau)^nd)^2 / (beta (1 + beta)) = 1 with no opponent."""
    base = 1.0 + beta - math.sqrt(beta * (1.0 + beta) / 2.0)
    if base >= 1.0:
        return None
    return -math.expm1(math.log(base) / nd)


def bonferroni_bound(m: int, df: float | None, alpha: float) -> float:
    """Two-sided bound on |z| for m comparisons with family-wise error alpha;
    Student t with df degrees of freedom, or normal when df is None."""
    from scipy import stats

    p = alpha / (2.0 * m)
    return float(stats.norm.isf(p) if df is None else stats.t.isf(p, df))
