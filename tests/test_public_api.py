"""The public API, pinned: each module's __all__ and the package namespace.

Adding or deleting a public name needs a deliberate edit here, and an
__all__ entry that no longer resolves fails.
"""

import importlib
import inspect

import pytest

PUBLIC = {
    "iksea.model": [
        "ChainParams", "PhaseInfo", "momentum_grid", "block_elements",
        "dispersion", "exceptional_tolerance", "exceptional_field",
        "zero_crossings", "classify_phase",
    ],
    "iksea.ground": [
        "QfiRecord", "ground_qfi", "ground_qfi_values", "asymptotic_qfi",
        "NEAR_SINGULAR_CONTRIB",
    ],
    "iksea.dynamics": ["dynamical_qfi", "qfi_time_series"],
    "iksea.scaling": [
        "ScalingFit", "SweepResult", "power_law_fit", "size_exponent",
        "exponent_vs_offset", "kappa_sweep",
    ],
    "iksea.config": ["RunConfig", "COMMANDS"],
    "iksea.runner": [
        "run_grid", "sha256_file", "Manifest",
    ],
    "iksea.oracle": [
        "DENSE_CAP", "EVOLUTION_CAP",
        "dense_hamiltonian", "parity_vector", "even_sector_indices",
        "sector_hamiltonian", "spectral_decomposition", "spectral_ground_state",
        "block_even_multiset", "spectrum_match_error", "fd_qfi_ground",
        "dense_evolution_qfi", "calibrate_energy_scale",
        "fit_energy_scale", "sample_conditioned_params", "run_oracle_suite",
    ],
    "iksea.cli": ["main"],
}

#: iksea.__all__ is every public name bound in the package, except the
#: submodules its imports load
PACKAGE = sorted([
    "CalibrationError", "CapacityError", "ChainParams",
    "ConfigError", "DomainError", "EvolutionOverflowError",
    "ExceptionalModeError", "IkseaError", "InsufficientDataError",
    "LevelCrossingError", "NearSingularWarning", "NumericalConsistencyError",
    "OutOfWindowError", "ParameterError", "PhaseInfo", "QfiRecord",
    "RunConfig", "ScalingFit", "SweepResult", "asymptotic_qfi",
    "block_elements", "classify_phase", "dispersion",
    "dynamical_qfi", "exceptional_field", "exponent_vs_offset", "ground_qfi",
    "ground_qfi_values",
    "kappa_sweep", "momentum_grid",
    "power_law_fit", "qfi_time_series",
    "size_exponent", "zero_crossings",
])


#: signatures of the functions whose options were removed or changed (the
#: dynamics kernel's fd derivative and fd_step, kappa_sweep's enforce_window,
#: the oracle's sampler floors, finite-difference steps and forced
#: recalibration; size_exponent's fit window, which the sweep CLI passes)
SIGNATURES = {
    ("iksea.dynamics", "dynamical_qfi"): "(params: 'ChainParams', t: 'float') -> 'float'",
    ("iksea.dynamics", "qfi_time_series"):
        "(params: 'ChainParams', times) -> 'np.ndarray'",
    ("iksea.scaling", "kappa_sweep"):
        "(gamma: 'float', kappa_grid: 'Sequence[float]', "
        "n_grid: 'Sequence[int]', h: 'float' = 1.0) -> 'SweepResult'",
    ("iksea.scaling", "size_exponent"):
        "(template: 'ChainParams', n_grid: 'Sequence[int]', "
        "window: 'Optional[Tuple[float, float]]' = None) -> 'SweepResult'",
    ("iksea.oracle", "sample_conditioned_params"):
        "(rng: 'np.random.Generator', n_points: 'int', sizes=(4, 6, 8)) "
        "-> 'List[ChainParams]'",
    ("iksea.oracle", "dense_evolution_qfi"):
        "(params: 'ChainParams', t: 'float', corrupt: 'float' = 1.0) -> 'float'",
    ("iksea.oracle", "calibrate_energy_scale"): "() -> 'Tuple[float, float]'",
}


@pytest.mark.parametrize("module, name", sorted(SIGNATURES))
def test_signature_is_pinned(module, name):
    fn = getattr(importlib.import_module(module), name)
    assert str(inspect.signature(fn)) == SIGNATURES[module, name]


@pytest.mark.parametrize("module, name", [
    ("iksea.model", "block_matrix"), ("iksea.dynamics", "block_propagator"),
    ("iksea.dynamics", "propagator_derivative"), ("iksea.oracle", "block_fd_qfi")])
def test_matrix_route_lives_in_the_tests(module, name):
    # the 2x2 matrix route is the tests' reference (tests/_reference.py)
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_module_all_is_pinned_and_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__ == PUBLIC[module]
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ lists missing {name!r}"


def test_package_all_is_pinned_and_resolves():
    import iksea
    assert sorted(iksea.__all__) == PACKAGE
    for name in iksea.__all__:
        assert hasattr(iksea, name), f"iksea.__all__ lists missing {name!r}"
