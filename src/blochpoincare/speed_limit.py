"""Synthesis of optimal-speed two-level Hamiltonians and geodesic evolution.

Two independent constructions are provided and cross-gated:

* minimum evolution time at a fixed eigenvalue gap, which pins the optimal
  matrix elements (equal diagonal, maximal off-diagonal, a definite
  off-diagonal phase);
* maximum energy uncertainty, which pins the spectral decomposition in terms
  of the endpoint states and yields the traceless generator directly.

Every synthesis is gated by a forward-evolution endpoint check: the returned
Hamiltonian must actually carry the initial state onto the target ray.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .bloch import _moduli, _sphere_angles, _unit_norms
from .bloch import as_state, fubini_study_angle, is_normalized, normalize, overlap
from .numerics import _HERMITIAN_TOL, gate, is_hermitian, pauli_components, su2_propagators

_ENDPOINT_TOL = 1e-10
_DEGENERATE_OVERLAP_TOL = 1e-12


class UnrepresentableTimeError(ValueError):
    """The minimal time of a synthesis is not a positive finite number."""


class Route(enum.Enum):
    TIME_MINIMIZATION = "time_minimization"
    UNCERTAINTY_MAXIMIZATION = "uncertainty_maximization"


@dataclass(frozen=True)
class Hamiltonian2:
    """Hermitian 2x2 operator with cached spectral and Pauli views."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not is_hermitian(m):
            raise ValueError(f"Hamiltonian must be Hermitian within {_HERMITIAN_TOL!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def eigensystem(self) -> Tuple[np.ndarray, np.ndarray]:
        values, vectors = np.linalg.eigh(self.matrix)
        return values, vectors

    @property
    def eigenvalues(self) -> Tuple[float, float]:
        """(E-, E+) with E- <= E+."""
        values = self.eigensystem[0]
        return float(values[0]), float(values[1])

    @property
    def eigenstates(self) -> Tuple[np.ndarray, np.ndarray]:
        """Normalized eigenvectors ordered to match ``eigenvalues``."""
        vectors = self.eigensystem[1]
        return vectors[:, 0].copy(), vectors[:, 1].copy()

    @property
    def gap(self) -> float:
        lo, hi = self.eigenvalues
        return hi - lo

    @property
    def trace_part(self) -> float:
        return pauli_components(self.matrix)[0]

    def traceless(self) -> np.ndarray:
        """The matrix with its trace part removed (same generated physics)."""
        return self.matrix - self.trace_part * np.eye(2)


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesized generator plus its minimal traversal time and dispersion."""

    hamiltonian: Hamiltonian2
    t_min: float
    delta_e: float
    route: Route
    hbar: float = 1.0


@dataclass(frozen=True)
class EfficiencyReport:
    """Geodesic length s0, traversed length s, and their ratio s0/s."""

    geodesic_length: float
    path_length: float
    eta_qm: float


def evolve_states(h: Hamiltonian2, state, times, hbar: float = 1.0) -> np.ndarray:
    """The state evolved to each time in ``times``, shape (N, 2), in one kernel call."""
    return su2_propagators(h.matrix, times, hbar=hbar) @ as_state(state)


def evolve_state(h: Hamiltonian2, state, t: float, hbar: float = 1.0) -> np.ndarray:
    return evolve_states(h, state, [t], hbar=hbar)[0]


def basis_rotation_to_pole(state) -> np.ndarray:
    """Unitary U with U|state> = (1, 0); use it to move into the working basis."""
    s = normalize(state)
    return np.array(
        [[np.conj(s[0]), np.conj(s[1])], [-s[1], s[0]]], dtype=complex
    )


def _check_endpoint(h: Hamiltonian2, a, b, t_min: float, hbar: float) -> None:
    if not 0.0 < t_min < np.inf:
        raise UnrepresentableTimeError(f"minimal time {t_min!r} is not a positive finite number")
    reached = evolve_state(h, a, t_min, hbar=hbar)
    miss = abs(abs(overlap(b, reached)) - 1.0)
    message = f"endpoint check failed: synthesized evolution misses the target by {miss:.3e}"
    gate(miss, _ENDPOINT_TOL, message)


def synthesize_min_time(a, b, e0: float, hbar: float = 1.0) -> SynthesisResult:
    """Least-time generator at fixed gap e0, for a = (1, 0) in the working basis.

    The optimum has equal diagonal entries and off-diagonal modulus e0/2; the
    diagonal value and the off-diagonal phase follow from requiring that the
    evolution lands exactly on b (phases included) at
    t_min = (2*hbar/e0) * arcsin(|b_1|). Callers whose initial state is not
    (1, 0) should first conjugate with ``basis_rotation_to_pole``.
    """
    a = as_state(a)
    b = as_state(b)
    if e0 <= 0.0:
        raise ValueError("e0 must be positive")
    if not (is_normalized(a) and is_normalized(b)):
        raise ValueError("endpoint states must be normalized")
    message = "initial state must be (1, 0); rotate the basis first (see basis_rotation_to_pole)"
    gate(np.max(np.abs(a - (1.0, 0.0))), 1e-12, message, ValueError)
    beta_mod = abs(b[1])
    if beta_mod <= _DEGENERATE_OVERLAP_TOL:
        raise ValueError("degenerate synthesis: target equals the initial state ray")

    half_angle = float(np.arcsin(min(1.0, beta_mod)))
    t_min = 2.0 * hbar * half_angle / e0
    phi_alpha = float(np.angle(b[0])) if abs(b[0]) > 0.0 else 0.0
    phi_beta = float(np.angle(b[1]))
    diag = -(e0 / 2.0) * phi_alpha / half_angle
    phase = phi_beta - phi_alpha + np.pi / 2.0
    off = (e0 / 2.0) * np.exp(-1j * phase)
    h = Hamiltonian2(np.array([[diag, off], [np.conj(off), diag]], dtype=complex))

    _check_endpoint(h, a, b, t_min, hbar)
    return SynthesisResult(
        hamiltonian=h, t_min=t_min, delta_e=e0 / 2.0, route=Route.TIME_MINIMIZATION, hbar=hbar
    )


def synthesize_max_uncertainty(a, b, e: float, hbar: float = 1.0) -> SynthesisResult:
    """Traceless generator with maximal dispersion carrying a onto b.

    Built from the endpoint dyads. For non-orthogonal endpoints the
    cot(theta/2)-weighted commutator form applies directly; orthogonal
    endpoints use the equivalent phase-normalized dyad form, which is regular
    there. The result has <a|H|a> = 0, dispersion e, and eigenvalues +-e.
    """
    a = as_state(a)
    b = as_state(b)
    if e <= 0.0:
        raise ValueError("e must be positive")
    if not (is_normalized(a) and is_normalized(b)):
        raise ValueError("endpoint states must be normalized")
    inner = overlap(a, b)
    if abs(abs(inner) - 1.0) <= _DEGENERATE_OVERLAP_TOL:
        raise ValueError("degenerate synthesis: endpoints coincide up to phase")

    theta = fubini_study_angle(a, b)
    if abs(inner) > _DEGENERATE_OVERLAP_TOL:
        weight = 1j * e / np.tan(theta / 2.0)
        m = weight * (np.outer(b, np.conj(a)) / inner - np.outer(a, np.conj(b)) / np.conj(inner))
    else:
        # Orthogonal endpoints: the geodesic is not unique; take b's phase as
        # given, which puts both eigenstates on the equator when a, b sit at
        # the poles.
        m = 1j * e * (np.outer(b, np.conj(a)) - np.outer(a, np.conj(b)))
    h = Hamiltonian2(m)

    mean = float(np.real(np.vdot(a, h.matrix @ a)))
    bound = _ENDPOINT_TOL * max(1.0, e)  # <a|H|a> scales with e, and so does its bound above 1
    gate(abs(mean), bound, f"synthesis failed: <a|H|a> = {mean:.3e}, expected 0")
    t_min = hbar * theta / (2.0 * e)
    _check_endpoint(h, a, b, t_min, hbar)
    return SynthesisResult(
        hamiltonian=h, t_min=t_min, delta_e=e, route=Route.UNCERTAINTY_MAXIMIZATION, hbar=hbar
    )


def geodesic_state(a, b, e: float, t: float, hbar: float = 1.0) -> np.ndarray:
    """Point at time t on the constant-speed geodesic from a towards b.

    Evaluates the closed-form coefficient combination of the endpoint states.
    The closed form presumes arg<a|b> = -theta/2; the target is re-phased
    internally so arbitrary input phases are accepted, which shifts the
    output only by a global phase.
    """
    a = as_state(a)
    b = as_state(b)
    if e <= 0.0:
        raise ValueError("e must be positive")
    inner = overlap(a, b)
    if not 0.0 < abs(inner) < 1.0:
        raise ValueError("geodesic form requires 0 < |<a|b>| < 1")
    theta = fubini_study_angle(a, b)
    t_min = hbar * theta / (2.0 * e)
    if not -1e-15 <= t <= t_min * (1.0 + 1e-12):
        raise ValueError(f"t={t!r} outside [0, t_min={t_min!r}]")

    gauge = np.exp(1j * (-theta / 2.0 - np.angle(inner)))
    b_fixed = b * gauge
    tau = e * t / hbar
    half = theta / 2.0
    coeff_a = np.cos(tau) - np.sin(tau) / np.tan(half)
    coeff_b = np.exp(1j * half) * np.sin(tau) / np.sin(half)
    return coeff_a * a + coeff_b * b_fixed


def _separations(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sphere angles 2 arccos|<a|b>| of the paired rows of a and b, and which pairs are apart.

    A pair is apart when its angle and twice its chord |b - a <a|b>/|<a|b>||
    (about the angle, for close rays) both exceed 1e-12. The chord is exact
    for close rays and the angle is not: an overlap that rounds just below 1
    gives an angle of about 3e-8, so on its angle alone an exact repeat passes.
    """
    inner = np.vecdot(a, b)
    moduli = _moduli(inner)
    angles = _sphere_angles(moduli)
    phases = np.divide(inner, moduli, out=np.ones_like(inner), where=moduli > 0.0)
    chords = np.linalg.norm(b - a * phases[:, None], axis=-1)
    return angles, (angles > 1e-12) & (2.0 * chords > 1e-12)


def efficiency(trajectory: Sequence[np.ndarray]) -> EfficiencyReport:
    """Geodesic-to-traversed length ratio of a sampled trajectory.

    The traversed length is the chain of great-circle separations between
    consecutive samples; the geodesic length joins the first and last sample
    directly. The ratio is clamped to 1 from above (it exceeds 1 only by
    floating-point noise; the triangle inequality bounds the exact value).
    """
    states = np.array([as_state(s) for s in trajectory])
    if len(states) < 2:
        raise ValueError("need at least 2 samples")
    with np.errstate(over="ignore", invalid="ignore"):  # such rows fail the checks below
        normalized = _unit_norms(states)
        # The consecutive pairs, then the endpoints as one more pair.
        angles, apart = _separations(
            np.concatenate((states[:-1], states[:1])), np.concatenate((states[1:], states[-1:]))
        )
    # The first failing pair in order raises, for its normalization before a coincidence.
    failing = np.flatnonzero(~(normalized[:-1] & normalized[1:] & apart[:-1]))
    if failing.size:
        if not normalized[failing[0] : failing[0] + 2].all():
            raise ValueError("both states must be normalized")
        raise ValueError("consecutive samples coincide up to phase")
    if not apart[-1]:
        raise ValueError("trajectory endpoints coincide up to phase")
    geodesic_length = float(angles[-1])
    path_length = sum(angles[:-1].tolist())  # in trajectory order, as a running sum
    eta = geodesic_length / path_length
    gate(eta, 1.0 + 1e-9, f"inconsistent trajectory: eta = {eta!r} exceeds 1")
    return EfficiencyReport(
        geodesic_length=geodesic_length,
        path_length=path_length,
        eta_qm=min(eta, 1.0),
    )
