"""The slot factors of one strategy pair, for evaluating the grid closed forms at a point."""

from csma_game.model import _Axis, _Cells


def cells_at(pair, config):
    """The ``_Cells`` of one (tau_d, tau_w) pair: scalar factors of both networks."""
    return _Cells(_Axis(pair.tau_d, config.n_dsrc), _Axis(pair.tau_w, config.n_wifi), config.beta)
