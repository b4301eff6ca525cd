"""Polarization calculus: Stokes parameters, coherency matrices, beam splits.

Stokes vectors are real ndarrays of shape (4,); coherency matrices are
Hermitian complex ndarrays of shape (2, 2) built from time-averaged field
correlations. Intensity units are arbitrary but must be used consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import gate

_BOUND_TOL = 1e-9
_LINEAR_ZERO_TOL = 1e-15  # |S1| and |S2| at most this: no linear part, the frame angles are 0


@dataclass(frozen=True)
class PolarizationReport:
    """Degree of polarization plus the frame-dependent coherence data."""

    p: float
    total_intensity: float
    polarized_intensity: float
    coherence_magnitude: float
    coherence_phase: float


@dataclass(frozen=True)
class WienerDecomposition:
    """Split of a beam into natural light plus a fully polarized remainder.

    ``orientation`` is the tilt of the polarized part's major axis; the
    remaining fields describe the polarized part in its principal frame:
    intensities along the major/minor axes and the signed amplitude product
    whose sign encodes handedness.
    """

    natural_level: float
    major_intensity: float
    minor_intensity: float
    cross_amplitude: float
    orientation: float

    @property
    def natural_matrix(self) -> np.ndarray:
        return self.natural_level * np.eye(2, dtype=complex)

    @property
    def polarized_matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.major_intensity, -1j * self.cross_amplitude],
                [1j * self.cross_amplitude, self.minor_intensity],
            ],
            dtype=complex,
        )

    @property
    def principal_matrix(self) -> np.ndarray:
        """Coherency matrix in the principal frame: natural + polarized."""
        return self.natural_matrix + self.polarized_matrix

    @property
    def polarized_intensity(self) -> float:
        return self.major_intensity + self.minor_intensity


def as_stokes(vec) -> np.ndarray:
    s = np.asarray(vec, dtype=float).reshape(-1)
    if s.shape != (4,):
        raise ValueError(f"expected a real 4-vector, got shape {s.shape}")
    return s


def validate_stokes(s, tol: float = _BOUND_TOL) -> np.ndarray:
    """A valid Stokes 4-vector, or an (N > 1, 4) stack that raises for its first invalid row."""
    stack = np.asarray(s, dtype=float)
    if stack.ndim == 2 and stack.shape[0] > 1 and stack.shape[1] == 4:
        # Array and scalar squares can round an ulp apart: clear rows by far more.
        with np.errstate(over="ignore"):
            polarized = stack[:, 1] ** 2 + stack[:, 2] ** 2 + stack[:, 3] ** 2
            bound = (stack[:, 0] ** 2 + tol) * (1.0 - 1e-12)
        clear = np.isfinite(stack).all(axis=1) & (stack[:, 0] > 0.0) & (polarized < bound)
        for row in stack[~clear]:
            validate_stokes(row, tol)
        return stack
    s = as_stokes(stack)
    if not np.all(np.isfinite(s)):
        raise ValueError("Stokes parameters must be finite")
    if s[0] <= 0.0:
        raise ValueError("total intensity must be positive")
    polarized = s[1] ** 2 + s[2] ** 2 + s[3] ** 2
    message = "polarized intensity exceeds the total-intensity bound"
    gate(polarized, s[0] ** 2 + tol, message, ValueError)
    return s


def as_coherency(mat) -> np.ndarray:
    j = np.asarray(mat, dtype=complex)
    if j.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {j.shape}")
    return j


def _exact_rescale(j: np.ndarray) -> tuple[np.ndarray, int]:
    """J / 2**k, whose largest entry lies in [1/2, 1), and k; exact, part by part."""
    k = math.frexp(np.max(np.abs(j)))[1]
    return np.ldexp(np.ascontiguousarray(j).view(float), -k).view(complex), k


def validate_coherency(mat) -> np.ndarray:
    """Finite, Hermitian, nonnegative, Schwarz-bounded (within ``_BOUND_TOL``), positive trace."""
    j = as_coherency(mat)
    if not np.all(np.isfinite(j)):
        raise ValueError("coherency entries must be finite")
    tol = _BOUND_TOL
    gate(np.max(np.abs(j - j.conj().T)), tol, "coherency matrix must be Hermitian", ValueError)
    jxx, jyy = j[0, 0].real, j[1, 1].real  # finite, so min() sees no NaN
    gate(-min(jxx, jyy), tol, "diagonal intensities must be nonnegative", ValueError)
    # Formed on J itself, |J_xy|^2 - J_xx J_yy is inf - inf = NaN from about 1e155.
    scaled, k = _exact_rescale(j)
    excess = abs(scaled[0, 1]) ** 2 - scaled[0, 0].real * scaled[1, 1].real
    with np.errstate(over="ignore"):
        excess = np.ldexp(excess, 2 * k)
    gate(excess, tol, "coherency determinant must be nonnegative (Schwarz bound)", ValueError)
    if scaled[0, 0].real + scaled[1, 1].real <= 0.0:  # J's own trace can overflow
        raise ValueError("total intensity must be positive")
    return j


def check_ellipse_angles(beta: float, chi: float) -> None:
    """Range check: ellipticity in (-pi/4, pi/4], orientation in [0, pi)."""
    if not -np.pi / 4.0 < beta <= np.pi / 4.0:
        raise ValueError(f"ellipticity angle {beta!r} outside (-pi/4, pi/4]")
    if not 0.0 <= chi < np.pi:
        raise ValueError(f"orientation angle {chi!r} outside [0, pi)")


def stokes_from_coherency(j) -> np.ndarray:
    j = as_coherency(j)
    return np.array(
        [
            (j[0, 0] + j[1, 1]).real,
            (j[0, 0] - j[1, 1]).real,
            (j[0, 1] + j[1, 0]).real,
            (1j * (j[1, 0] - j[0, 1])).real,
        ]
    )


def rotate_coherency(j, phi: float) -> np.ndarray:
    """Coherency matrix after rotating the transverse axes by phi.

    Applies R(phi) . J . R(-phi) with R the 2-D axes rotation; total and
    circular intensities are invariant, the linear components mix.
    """
    j = as_coherency(j)
    c, s = np.cos(phi), np.sin(phi)
    r = np.array([[c, s], [-s, c]])
    return r @ j @ r.T


def _coherence(j: np.ndarray) -> tuple[float, float]:
    """|J_xy|/sqrt(J_xx J_yy) and arg J_xy of a J validated or derived from one, unchecked."""
    denom = j[0, 0].real * j[1, 1].real
    if denom > 0.0:
        phase = float(np.angle(j[0, 1])) if abs(j[0, 1]) > 0.0 else 0.0
        return float(abs(j[0, 1]) / np.sqrt(denom)), phase
    return 0.0, 0.0  # a dark axis: J_xy vanishes by the Schwarz bound, the ratio is taken as 0


def degree_of_polarization(j) -> PolarizationReport:
    """Rotation-invariant polarization fraction plus frame-local coherence.

    P = sqrt(1 - 4 det(J)/tr(J)^2). The coherence magnitude is the
    normalized off-diagonal |J_xy|/sqrt(J_xx J_yy), which depends on the
    frame and never exceeds P.
    """
    j = validate_coherency(j)
    trace = (j[0, 0] + j[1, 1]).real
    det = (j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]).real
    p = float(np.sqrt(max(0.0, 1.0 - 4.0 * det / trace**2)))
    magnitude, phase = _coherence(j)
    return PolarizationReport(
        p=p,
        total_intensity=float(trace),
        polarized_intensity=float(p * trace),
        coherence_magnitude=magnitude,
        coherence_phase=phase,
    )


def orientation_angle(j) -> float:
    """Major-axis tilt chi in [0, pi) of the polarized part of the beam.

    Half the two-argument arctangent of (J_xy + J_yx, J_xx - J_yy); the
    doubly degenerate case (both arguments zero) is canonicalized to 0.
    """
    j = as_coherency(j)
    s1 = (j[0, 0] - j[1, 1]).real
    s2 = (j[0, 1] + j[1, 0]).real
    if abs(s1) <= _LINEAR_ZERO_TOL and abs(s2) <= _LINEAR_ZERO_TOL:
        return 0.0
    chi = 0.5 * float(np.arctan2(s2, s1))
    return chi % np.pi


def wiener_decompose(j) -> WienerDecomposition:
    """Natural + fully-polarized split in the principal frame.

    Conjugating with the reflection T(chi) = [[cos chi, sin chi],
    [sin chi, -cos chi]] moves the beam to the frame of the polarization
    ellipse of its polarized part, where the split into a multiple of the
    identity plus a zero-determinant remainder is unique.
    """
    j = validate_coherency(j)
    trace = (j[0, 0] + j[1, 1]).real
    det = (j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]).real
    chi = orientation_angle(j)

    c, s = np.cos(chi), np.sin(chi)
    t = np.array([[c, s], [s, -c]])
    principal = t @ j @ t
    natural = (trace - np.sqrt(max(0.0, trace**2 - 4.0 * det))) / 2.0
    major = max(0.0, principal[0, 0].real - natural)
    minor = max(0.0, principal[1, 1].real - natural)
    cross = float(j[0, 1].imag)
    return WienerDecomposition(
        natural_level=float(natural),
        major_intensity=float(major),
        minor_intensity=float(minor),
        cross_amplitude=cross,
        orientation=float(chi),
    )


def partial_coherence_profile(beta: float, chi: float, p: float) -> float:
    """Coherence magnitude of a beam given sphere angles and polarization p.

    |j| = p * sqrt((1 - cos^2(2 beta) cos^2(2 chi)) /
                   (1 - p^2 cos^2(2 beta) cos^2(2 chi))).
    For any beta the maximum over chi is p itself, reached at chi = pi/4.
    """
    check_ellipse_angles(beta, chi)
    if not 0.0 <= p <= 1.0:
        raise ValueError("degree of polarization must lie in [0, 1]")
    c_sq = (np.cos(2.0 * beta) * np.cos(2.0 * chi)) ** 2
    denom = 1.0 - p * p * c_sq
    if denom <= 1e-15:
        # Fully polarized light aligned with the x-axis: J_yy -> 0 and the
        # ratio tends to 1 = p; return the limit.
        return float(p)
    return float(p * np.sqrt(max(0.0, 1.0 - c_sq) / denom))
