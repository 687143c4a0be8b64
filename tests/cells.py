"""Test-side helpers: one strategy pair's slot factors, whole payoff grids, grid indices, and slot-fraction errors."""

import numpy as np

from csma_game.model import _Axis, _Cells


def cells_at(pair, config):
    """The ``_Cells`` of one (tau_d, tau_w) pair: scalar factors of both networks."""
    return _Cells(_Axis(pair.tau_d, config.n_dsrc), _Axis(pair.tau_w, config.n_wifi), config.beta)


def payoff_grids(surf):
    """Both players' payoffs on the whole grid: the oracle of the library's row-block sweep."""
    return -surf.age_rescaled - surf.cost, surf.throughput - surf.cost


def index_of(grid, tau):
    """Index of a point of ``grid``; raises for values off the grid."""
    k = round((tau - grid.lo) / grid.step)
    if not 0 <= k < grid.n_points or abs(grid.lo + k * grid.step - tau) > 1e-9:
        raise ValueError(f"{tau} is not a point of the grid [{grid.lo}, {grid.hi}] step {grid.step}")
    return k


def slot_fraction_se(res):
    """Binomial standard errors of a ``SimResult``'s idle, success and collision fractions."""
    f = res.slot_fractions()
    return np.sqrt(f * (1.0 - f) / res.slots_measured)
