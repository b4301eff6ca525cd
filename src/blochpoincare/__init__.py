"""Optimal-speed qubit evolution meets maximal-coherence light propagation.

Two unit spheres, one geometry: time-optimal two-level Hamiltonian evolution
on the Bloch sphere and intensity-preserving propagation of polarized light
at maximal degree of coherence on the Poincare sphere. The package builds
both sides, exposes their common structure, and verifies the correspondence
quantitatively.

Importing the package loads no submodule, nor numpy: each public name imports
its submodule on first use (PEP 562).
"""

__version__ = "0.1.0"

# Each public name by the submodule that defines it.
_EXPORTS = {
    "bloch": (
        "bloch_vector",
        "bloch_vectors",
        "fidelities",
        "fidelity",
        "fubini_study_angle",
        "orthogonal_state",
    ),
    "coherence": (
        "BisectorReport",
        "ConstraintLedger",
        "CorrespondenceReport",
        "OpticalScenario",
        "QuantumScenario",
        "RotationSolution",
        "bisector_geometry",
        "correspondence_report",
        "optimal_rotation",
        "stokes_rotation_check",
    ),
    "interference": (
        "classical_intensity",
        "fringe_visibility",
        "pancharatnam_intensity",
        "quantum_probability",
    ),
    "mueller": (
        "A_MATRIX",
        "MuellerClass",
        "classify_mueller",
        "mueller_from_jones",
        "mueller_rotator",
        "wigner_rotation",
    ),
    "numerics": ("matrix_exponential_su2", "su2_propagators"),
    "polarization": (
        "PolarizationReport",
        "WienerDecomposition",
        "degree_of_polarization",
        "partial_coherence_profile",
        "rotate_coherency",
        "stokes_from_coherency",
        "wiener_decompose",
    ),
    "speed_limit": (
        "EfficiencyReport",
        "Hamiltonian2",
        "Route",
        "SynthesisResult",
        "basis_rotation_to_pole",
        "efficiency",
        "evolve_state",
        "evolve_states",
        "geodesic_state",
        "synthesize_max_uncertainty",
        "synthesize_min_time",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOMES])


def __getattr__(name: str):
    """A submodule, or a public name from its submodule, imported on first use and kept."""
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
