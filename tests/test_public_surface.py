"""The package's public surface: 27 names, each exported once, and no scalar wrappers."""

import inspect
from dataclasses import fields

import numpy as np

import csma_game
from csma_game import analysis, cli, equilibrium, game, metrics, model, simulate

# Scalar wrappers over the kernels and closed forms that only tests called, and retired CLI helpers.
REMOVED = {
    model: ("joint_idle_prob", "success_prob_total", "expected_slot_length"),
    metrics: ("aoi_closed_form", "throughput_closed_form"),
    game: ("wastage_cost",),
    equilibrium: ("best_response", "BestResponseMap"),
    analysis: (
        "age_payoff_derivative_terms",
        "wifi_payoff_derivative_terms",
        "AgeDerivativeTerms",
        "ThrDerivativeTerms",
        # The derivative scan's two landmarks, which every DSRC report carries.
        "alpha2_root",
        "tau_prime_upper_bound",
    ),
    # One game loop serves every game subcommand, and simulate reads the public per-node functions.
    cli: ("_network", "_rescale_fn", "_nash_rows", "_age_and_moments"),
}
REMOVED_ATTRIBUTES = {
    model.NetworkConfig: ("n_total",),
    model._Cells: ("at",),
    # The payoff grids: the solvers read both payoffs block by block in one sweep.
    game.PayoffSurfaces: (
        "payoff", "indices_of", "payoff_dsrc_grid", "payoff_wifi_grid", "payoff_dsrc", "payoff_wifi",
    ),
    # Members that only tests called; the tests' own versions are in tests/cells.py.
    game.GridSpec: ("index_of",),
    simulate.SimResult: ("slot_fraction_se",),
}
# The scan's report holds its results only, not its inputs echoed back.
REPORT_FIELDS = ("fixed_opponent", "sign_change_count", "sign_pattern_ok", "tau_prime_bound", "alpha2_root")
# Tolerances that no caller set: a best response is an exact maximum, and the
# Newton and refinement tolerances are module constants.
RETIRED_PARAMETERS = {
    equilibrium.enumerate_nash: "eps_tie",
    equilibrium.solve_stackelberg: "eps_tie",
    analysis._alpha2_root: "tol",
    equilibrium.single_network_optimum: "refine",
    # Block buffers for the slot factors: the build's row blocks keep its temporaries small without them.
    model._Cells.__init__: "bufs",
}


def test_public_surface_is_27_names_without_the_scalar_wrappers():
    names = csma_game.__all__
    assert len(names) == 27
    assert len(set(names)) == 27
    for name in names:
        assert getattr(csma_game, name) is not None
    namespace = {}
    exec("from csma_game import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(names)
    for module, removed in REMOVED.items():
        for name in removed:
            assert not hasattr(csma_game, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for cls, removed in REMOVED_ATTRIBUTES.items():
        for name in removed:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    assert tuple(f.name for f in fields(analysis.QuasiConcavityReport)) == REPORT_FIELDS


def test_retired_tolerances_and_mask_cache_are_gone():
    for fn, name in RETIRED_PARAMETERS.items():
        assert name not in inspect.signature(fn).parameters, f"{fn.__name__}({name}=)"
    for name in ("_br_mask", "_tie_mask"):
        assert not hasattr(equilibrium, name), name
    # The masks are cached properties of the surfaces, not entries of a dict field.
    assert "_masks" not in {f.name for f in fields(game.PayoffSurfaces)}
    grid = game.GridSpec(lo=0.1, hi=0.2, step=0.1)
    surf = game.PayoffSurfaces(model.NetworkConfig(1, 1, 0.001), grid, *(np.zeros((2, 2)) for _ in range(4)))
    assert not hasattr(surf, "_masks")


def test_closed_forms_take_no_scratch_array():
    cells = model._Cells(model._Axis(0.2, 1), model._Axis(0.3, 2), 0.001)
    node = metrics._Node(model.AccessVector((0.2, 0.3), (model.DSRC, model.WIFI)), model.SlotLengths(0.001), 0)
    for factors in (cells, node):
        assert not hasattr(factors, "spare"), type(factors).__name__
