"""Maximal-coherence frames and the quantum-optical correspondence report.

For any beam with a polarized part there is a pair of orthogonal transverse
directions in which the two intensities are equal and the degree of coherence
reaches the degree of polarization. This module finds that frame, checks the
intensity constraint it conserves, verifies the bisector geometry, and
assembles the side-by-side pass/fail report that pairs a beam and its frame
with time-optimal quantum evolution; the report derives the rotation ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bloch import as_state, fidelity, orthogonal_state, overlap
from .mueller import mueller_rotator
from .numerics import gate
from .polarization import (
    _LINEAR_ZERO_TOL,
    _coherence,
    as_coherency,
    degree_of_polarization,
    orientation_angle,
    rotate_coherency,
    stokes_from_coherency,
    validate_stokes,
)
from .speed_limit import EfficiencyReport, SynthesisResult, evolve_state

_QUARTER = np.pi / 4.0
_HALF_PI = np.pi / 2.0

# The correspondence rows in report order: label, quantum check, optical check, quantum tolerance.
_QUANTUM_TOL, _EFFICIENCY_TOL, _OPTICAL_TOL = 1e-10, 1e-6, 1e-9
_ROWS = (
    ("constraint conservation", "(E+ - E-)^2 = (h11 - h22)^2 + 4|h12|^2",
     "I_pol^2 invariant under frame rotation", _QUANTUM_TOL),
    ("equal diagonal", "h11 = h22", "Jx'x' = Jy'y'", _QUANTUM_TOL),
    ("maximal off-diagonal", "|h12| = E0/2", "|Jx'y'| = I_pol/2", _QUANTUM_TOL),
    ("equal-split overlaps", "|<E+-|A>|^2 = |<E+-|A_perp>|^2 = 1/2",
     "squared cosines with principal axes = 1/2", _QUANTUM_TOL),
    ("unit efficiency", "eta_qm = 1", "|j_xy|/P = 1 in the optimal frame", _EFFICIENCY_TOL),
)


@dataclass(frozen=True)
class RotationSolution:
    """Frame rotation maximizing the degree of coherence.

    ``phi_opt`` is the canonical representative in (-pi/4, pi/4]; all other
    solutions differ by multiples of pi/2 and single out the same pair of
    directions.
    """

    phi_opt: float
    j_before: float
    j_after: float
    p: float
    chi: float


@dataclass(frozen=True)
class ConstraintLedger:
    """Polarized-intensity conservation record for one frame rotation."""

    i_pol_before: float
    i_pol_after: float
    s1_sq_before: float
    s1_sq_after: float
    s2_sq_before: float
    s2_sq_after: float


@dataclass(frozen=True)
class BisectorReport:
    """Geometry of the optimal frame relative to the ellipse principal axes."""

    chi: float
    phi_opt: float
    offset: float
    cosines_sq: Tuple[float, float, float, float]


def _fold_quarter(angle: float) -> float:
    """Fold an angle into the canonical branch (-pi/4, pi/4] modulo pi/2."""
    folded = angle
    while folded > _QUARTER:
        folded -= _HALF_PI
    while folded <= -_QUARTER:
        folded += _HALF_PI
    return folded


def optimal_rotation(j) -> RotationSolution:
    """Rotation angle equalizing the two transverse intensities.

    Solves tan(2 phi) = (J_yy - J_xx)/(J_xy + J_yx); in the rotated frame the
    diagonal entries agree and the degree of coherence equals the degree of
    polarization. Strictly unpolarized input has no preferred frame and is
    rejected.
    """
    j = as_coherency(j)
    report = degree_of_polarization(j)  # validates j
    if report.p <= 1e-12:
        raise ValueError("no polarized part: the optimum frame is undefined at P = 0")

    s1 = (j[0, 0] - j[1, 1]).real
    s2 = (j[0, 1] + j[1, 0]).real
    if abs(s1) <= _LINEAR_ZERO_TOL and abs(s2) <= _LINEAR_ZERO_TOL:
        phi = 0.0  # already optimal
    else:
        phi = _fold_quarter(0.5 * float(np.arctan2(-s1, s2)))

    rotated = rotate_coherency(j, phi)  # derived from j: not validated again
    j_after = _coherence(rotated)[0]
    scale = max(1.0, report.total_intensity)
    unequal = abs((rotated[0, 0] - rotated[1, 1]).real)
    gate(unequal, 1e-9 * scale, "rotated frame failed to equalize the diagonal intensities")
    short = abs(j_after - report.p)
    gate(short, 1e-9, "rotated coherence does not reach the degree of polarization")
    return RotationSolution(
        phi_opt=float(phi),
        j_before=report.coherence_magnitude,
        j_after=j_after,
        p=report.p,
        chi=orientation_angle(j),
    )


def stokes_rotation_check(s, phi: float) -> ConstraintLedger:
    """Apply the rotator Mueller matrix and record the conserved quantities.

    Rotation about the circular axis leaves S0, S3 and S1^2 + S2^2 fixed;
    violations beyond rounding raise.
    """
    s = validate_stokes(s)
    after = mueller_rotator(phi) @ s
    scale = max(1.0, float(s[0]))
    drift = np.max(np.abs((after - s)[[0, 3]]))
    gate(drift, 1e-10 * scale, "rotation failed to preserve the total/circular components")
    drift = abs(after[1] ** 2 + after[2] ** 2 - (s[1] ** 2 + s[2] ** 2))
    gate(drift, 1e-10 * scale**2, "rotation failed to preserve the linear-component length")
    return ConstraintLedger(
        i_pol_before=float(np.linalg.norm(s[1:])),
        i_pol_after=float(np.linalg.norm(after[1:])),
        s1_sq_before=float(s[1] ** 2),
        s1_sq_after=float(after[1] ** 2),
        s2_sq_before=float(s[2] ** 2),
        s2_sq_after=float(after[2] ** 2),
    )


def _axis_cosines(j: np.ndarray, phi: float) -> Tuple[float, float, float, float]:
    """Squared cosines of the frame at ``phi`` with J's principal axes; rejects a circular J."""
    s1 = (j[0, 0] - j[1, 1]).real
    s2 = (j[0, 1] + j[1, 0]).real
    scale = max(1.0, (j[0, 0] + j[1, 1]).real)
    if abs(s1) <= 1e-12 * scale and abs(s2) <= 1e-12 * scale:
        raise ValueError("degenerate: polarized part is circular, principal axes undefined")
    chi = orientation_angle(j)
    x_opt = np.array([np.cos(phi), np.sin(phi)])
    y_opt = np.array([-np.sin(phi), np.cos(phi)])
    major = np.array([np.cos(chi), np.sin(chi)])
    minor = np.array([-np.sin(chi), np.cos(chi)])
    return tuple(float(np.dot(u, v) ** 2) for u in (x_opt, y_opt) for v in (major, minor))


def bisector_geometry(j) -> BisectorReport:
    """Check that the optimal directions bisect the ellipse principal axes.

    The optimal frame sits at pi/4 (mod pi/2) from the major-axis frame, so
    each optimal direction makes equal squared cosines of 1/2 with both
    principal axes. Beams without a polarized part, or whose polarized part
    is circular, have no principal axes and are rejected.
    """
    j = as_coherency(j)
    solution = optimal_rotation(j)  # validates j and rejects P = 0
    chi, phi_opt = solution.chi, solution.phi_opt
    cosines = _axis_cosines(j, phi_opt)
    offset = phi_opt - chi
    residual = (offset - _QUARTER) % _HALF_PI
    residual = min(residual, _HALF_PI - residual)
    gate(residual, 1e-8, f"optimal frame misses the bisector by {residual:.3e} rad (mod pi/2)")
    deviation = np.max(np.abs(np.subtract(cosines, 0.5)))
    gate(deviation, 1e-9, "squared direction cosines deviate from 1/2")
    return BisectorReport(
        chi=float(chi), phi_opt=float(phi_opt), offset=float(offset), cosines_sq=cosines
    )


@dataclass(frozen=True)
class QuantumScenario:
    """Synthesized evolution data for one endpoint pair in the working basis."""

    synthesis: SynthesisResult
    efficiency: EfficiencyReport
    initial_state: np.ndarray
    final_state: np.ndarray


@dataclass(frozen=True)
class OpticalScenario:
    """Coherency matrix with its optimal rotation; the report derives the ledger."""

    coherency: np.ndarray
    rotation: RotationSolution


@dataclass(frozen=True)
class CorrespondenceRow:
    """One paired check: a quantum residual and its optical counterpart."""

    label: str
    quantum_check: str
    optical_check: str
    quantum_residual: float
    optical_residual: float
    quantum_tolerance: float
    optical_tolerance: float

    @property
    def quantum_pass(self) -> bool:
        return self.quantum_residual <= self.quantum_tolerance

    @property
    def optical_pass(self) -> bool:
        return self.optical_residual <= self.optical_tolerance

    @property
    def passed(self) -> bool:
        return self.quantum_pass and self.optical_pass


@dataclass(frozen=True)
class CorrespondenceReport:
    rows: Tuple[CorrespondenceRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "rows": [
                {
                    **vars(row),
                    "quantum_pass": row.quantum_pass,
                    "optical_pass": row.optical_pass,
                    "pass": row.passed,
                }
                for row in self.rows
            ],
        }

    def as_table(self) -> str:
        header = f"{'correspondence':<28} {'quantum':>12} {'optical':>12}  verdict"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            q = "pass" if row.quantum_pass else "FAIL"
            o = "pass" if row.optical_pass else "FAIL"
            verdict = "ok" if row.passed else "MISMATCH"
            lines.append(f"{row.label:<28} {q:>12} {o:>12}  {verdict}")
        lines.append(f"overall: {'all rows pass' if self.all_passed else 'FAILED'}")
        return "\n".join(lines)


def _check_pairing(quantum: QuantumScenario, optical: OpticalScenario) -> tuple:
    a = as_state(quantum.initial_state)
    b = as_state(quantum.final_state)
    pairing = "mismatched scenario pairing: "
    basis = "quantum side must be given in the working basis with initial state (1, 0)"
    gate(np.max(np.abs(a - (1.0, 0.0))), 1e-9, pairing + basis, ValueError)
    synthesis = quantum.synthesis
    reached = evolve_state(synthesis.hamiltonian, a, synthesis.t_min, hbar=synthesis.hbar)
    connect = "synthesis does not connect the declared endpoint states"
    gate(abs(abs(overlap(b, reached)) - 1.0), 1e-8, pairing + connect, ValueError)
    j = as_coherency(optical.coherency)
    report = degree_of_polarization(j)  # validates j
    rotation = "rotation solution is for a different beam"
    gate(abs(optical.rotation.p - report.p), 1e-8, pairing + rotation, ValueError)
    return a, j, report.p * report.total_intensity


def correspondence_report(
    quantum: QuantumScenario, optical: OpticalScenario
) -> CorrespondenceReport:
    """Side-by-side verification of the structural quantum-optical mapping.

    Five paired rows: conservation of the gap/intensity constraint, equalized
    diagonal entries, maximal off-diagonal magnitude, equal-split overlaps
    with the optimal eigenbasis/principal axes, and unit efficiency. Every
    optical row judges the frame angle it is given against the beam, and the
    frame is not solved again, so an angle that is not the beam's optimum
    fails its rows. The conservation
    ledger of the rotation is derived here from the beam and its frame. All
    compared quantities are dimensionless residuals; no unit bridge between
    energy and intensity is attempted.
    """
    a, j, i_pol = _check_pairing(quantum, optical)
    h = quantum.synthesis.hamiltonian
    gap, m = h.gap, h.matrix
    rotated = rotate_coherency(j, optical.rotation.phi_opt)
    ledger = stokes_rotation_check(stokes_from_coherency(j), optical.rotation.phi_opt)

    # Constraint conservation: the gap identity, and I_pol^2 under the frame rotation.
    ec_q = abs(gap**2 - ((m[0, 0] - m[1, 1]).real ** 2 + 4.0 * abs(m[0, 1]) ** 2))
    ec_o = abs(ledger.i_pol_after**2 - ledger.i_pol_before**2)

    diag_q = abs((m[0, 0] - m[1, 1]).real)
    diag_o = abs((rotated[0, 0] - rotated[1, 1]).real)

    off_q = abs(abs(m[0, 1]) - gap / 2.0)
    off_o = abs(abs(rotated[0, 1]) - i_pol / 2.0)

    a_perp = orthogonal_state(a)
    split_q = max(abs(fidelity(v, s) - 0.5) for v in h.eigenstates for s in (a, a_perp))
    split_o = max(abs(c - 0.5) for c in _axis_cosines(j, optical.rotation.phi_opt))

    eta_q = abs(1.0 - quantum.efficiency.eta_qm)
    eta_o = abs(1.0 - optical.rotation.j_after / optical.rotation.p)

    pairs = ((ec_q, ec_o), (diag_q, diag_o), (off_q, off_o), (split_q, split_o), (eta_q, eta_o))
    rows = (
        CorrespondenceRow(label, q_check, o_check, float(q), float(o), q_tol, _OPTICAL_TOL)
        for (label, q_check, o_check, q_tol), (q, o) in zip(_ROWS, pairs)
    )
    return CorrespondenceReport(rows=tuple(rows))
