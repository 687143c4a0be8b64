"""The package's public surface: 29 names, each exported once, and no scalar wrappers."""

import inspect
from dataclasses import fields

import numpy as np

import csma_game
from csma_game import analysis, equilibrium, game, metrics, model, simulate

# Scalar wrappers over the kernels and closed forms that only tests called.
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
    ),
}
REMOVED_ATTRIBUTES = {
    model.NetworkConfig: ("n_total",),
    model._Cells: ("at",),
    game.PayoffSurfaces: ("payoff", "indices_of", "payoff_dsrc_grid", "payoff_wifi_grid"),
    # Members that only tests called; the tests' own versions are in tests/cells.py.
    game.GridSpec: ("index_of",),
    simulate.SimResult: ("slot_fraction_se",),
}
# Tolerances that no caller set: a best response is an exact maximum, and the
# Newton and refinement tolerances are module constants.
RETIRED_PARAMETERS = {
    equilibrium.enumerate_nash: "eps_tie",
    equilibrium.solve_stackelberg: "eps_tie",
    analysis.alpha2_root: "tol",
    equilibrium.single_network_optimum: "refine",
}


def test_public_surface_is_29_names_without_the_scalar_wrappers():
    names = csma_game.__all__
    assert len(names) == 29
    assert len(set(names)) == 29
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
