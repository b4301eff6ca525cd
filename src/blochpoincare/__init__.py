"""Optimal-speed qubit evolution meets maximal-coherence light propagation.

Two unit spheres, one geometry: time-optimal two-level Hamiltonian evolution
on the Bloch sphere and intensity-preserving propagation of polarized light
at maximal degree of coherence on the Poincare sphere. The package builds
both sides, exposes their common structure, and verifies the correspondence
quantitatively.
"""

__version__ = "0.1.0"

from .bloch import (
    bloch_vector,
    bloch_vectors,
    fidelities,
    fidelity,
    fubini_study_angle,
    orthogonal_state,
)
from .coherence import (
    BisectorReport,
    ConstraintLedger,
    CorrespondenceReport,
    OpticalScenario,
    QuantumScenario,
    RotationSolution,
    bisector_geometry,
    correspondence_report,
    optimal_rotation,
    stokes_rotation_check,
)
from .interference import (
    classical_intensity,
    fringe_visibility,
    pancharatnam_intensity,
    quantum_probability,
)
from .mueller import (
    A_MATRIX,
    MuellerClass,
    classify_mueller,
    mueller_from_jones,
    mueller_rotator,
    wigner_rotation,
)
from .numerics import matrix_exponential_su2, su2_propagators
from .polarization import (
    PolarizationReport,
    WienerDecomposition,
    degree_of_polarization,
    partial_coherence_profile,
    rotate_coherency,
    stokes_from_coherency,
    wiener_decompose,
)
from .speed_limit import (
    EfficiencyReport,
    Hamiltonian2,
    Route,
    SynthesisResult,
    basis_rotation_to_pole,
    efficiency,
    evolve_state,
    evolve_states,
    geodesic_state,
    synthesize_max_uncertainty,
    synthesize_min_time,
)

__all__ = [name for name in dir() if not name.startswith("_")]
