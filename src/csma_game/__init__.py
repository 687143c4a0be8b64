"""Medium-sharing game between an age-driven and a throughput-driven network.

Layers, bottom up: slot-outcome kernels (:mod:`~csma_game.model`), per-node
throughput and age of information (:mod:`~csma_game.metrics`), payoff
surfaces with wastage costs (:mod:`~csma_game.game`), grid equilibrium
solvers (:mod:`~csma_game.equilibrium`), closed-form derivative checks
(:mod:`~csma_game.analysis`), and a Monte Carlo slot simulator
(:mod:`~csma_game.simulate`). The :mod:`~csma_game.cli` front end exposes
all of it as subcommands.
"""

from types import ModuleType as _Module

from .analysis import QuasiConcavityReport, verify_quasiconcavity
from .equilibrium import (
    NashResult,
    SingleNetworkOptimum,
    StackelbergResult,
    enumerate_nash,
    single_network_optimum,
    solve_stackelberg,
)
from .game import GridSpec, PayoffSurfaces, build_surfaces, rescale_age, rescale_age_per_opponent
from .metrics import InterUpdateMoments, aoi_node, inter_update_moments, per_node_throughput
from .model import DSRC, WIFI, AccessVector, NetworkConfig, SlotLengths, StrategyPair
from .simulate import NoProgressError, SimConfig, SimResult, run_simulation

# Every name imported above; the submodules themselves are not re-exported.
__all__ = sorted(
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _Module))
)
