"""Medium-sharing game between an age-driven and a throughput-driven network.

Layers, bottom up: slot-outcome kernels (:mod:`~csma_game.model`), per-node
throughput and age of information (:mod:`~csma_game.metrics`), payoff
surfaces with wastage costs (:mod:`~csma_game.game`), grid equilibrium
solvers (:mod:`~csma_game.equilibrium`), closed-form derivative checks
(:mod:`~csma_game.analysis`), and a Monte Carlo slot simulator
(:mod:`~csma_game.simulate`). The :mod:`~csma_game.cli` front end exposes
all of it as subcommands.
"""

from .analysis import (
    AgeDerivativeTerms,
    QuasiConcavityReport,
    ThrDerivativeTerms,
    age_payoff_derivative_terms,
    alpha2_root,
    tau_prime_upper_bound,
    verify_quasiconcavity,
    wifi_payoff_derivative_terms,
)
from .equilibrium import (
    BestResponseMap,
    NashResult,
    SingleNetworkOptimum,
    StackelbergResult,
    best_response,
    enumerate_nash,
    single_network_optimum,
    solve_stackelberg,
)
from .game import (
    GridSpec,
    PayoffSurfaces,
    build_surfaces,
    rescale_age,
    rescale_age_per_opponent,
    wastage_cost,
)
from .metrics import (
    InterUpdateMoments,
    aoi_closed_form,
    aoi_node,
    inter_update_moments,
    per_node_throughput,
    throughput_closed_form,
)
from .model import (
    DSRC,
    WIFI,
    AccessVector,
    NetworkConfig,
    SlotLengths,
    StrategyPair,
    expected_slot_length,
    joint_idle_prob,
    success_prob_total,
)
from .simulate import NoProgressError, SimConfig, SimResult, run_simulation

__all__ = [
    "AccessVector",
    "AgeDerivativeTerms",
    "BestResponseMap",
    "DSRC",
    "GridSpec",
    "InterUpdateMoments",
    "NashResult",
    "NetworkConfig",
    "NoProgressError",
    "PayoffSurfaces",
    "QuasiConcavityReport",
    "SimConfig",
    "SimResult",
    "SingleNetworkOptimum",
    "SlotLengths",
    "StackelbergResult",
    "StrategyPair",
    "ThrDerivativeTerms",
    "WIFI",
    "age_payoff_derivative_terms",
    "alpha2_root",
    "aoi_closed_form",
    "aoi_node",
    "best_response",
    "build_surfaces",
    "enumerate_nash",
    "expected_slot_length",
    "inter_update_moments",
    "joint_idle_prob",
    "per_node_throughput",
    "rescale_age",
    "rescale_age_per_opponent",
    "run_simulation",
    "single_network_optimum",
    "solve_stackelberg",
    "success_prob_total",
    "tau_prime_upper_bound",
    "throughput_closed_form",
    "verify_quasiconcavity",
    "wastage_cost",
    "wifi_payoff_derivative_terms",
]
