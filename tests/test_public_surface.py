"""The package's public surface: 29 names, each exported once, and no scalar wrappers."""

import csma_game
from csma_game import analysis, equilibrium, game, metrics, model

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
