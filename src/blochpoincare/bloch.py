"""Pure-state qubit geometry: sphere angles, unit vectors, and distances.

States are plain complex ndarrays of shape (2,), stacked as (N, 2) for the
batched kernels. Global phase is physically irrelevant; comparisons between
states go through the up-to-phase helpers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .numerics import _squares

TWO_PI = 2.0 * np.pi


class BlochAngles(NamedTuple):
    """Polar angle theta in [0, pi] and azimuth phi in [0, 2*pi)."""

    theta: float
    phi: float


def as_state(vec) -> np.ndarray:
    state = np.asarray(vec, dtype=complex).reshape(-1)
    if state.shape != (2,):
        raise ValueError(f"expected a complex 2-vector, got shape {state.shape}")
    return state


def is_normalized(state: np.ndarray, tol: float = 1e-12) -> bool:
    s = as_state(state)
    return bool(abs(float(np.vdot(s, s).real) - 1.0) <= tol)


def normalize(state) -> np.ndarray:
    s = as_state(state)
    norm = float(np.linalg.norm(s))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return s / norm


def overlap(a, b) -> complex:
    """Inner product <a|b> (conjugate-linear in the first argument)."""
    return complex(np.vdot(as_state(a), as_state(b)))


def fidelities(a, states) -> np.ndarray:
    """|<a|s>|^2 for each row s of ``states``, shape (N, 2) -> (N,)."""
    inner = np.vecdot(as_state(a), np.asarray(states, dtype=complex).reshape(-1, 2))
    return _squares(np.hypot(inner.real, inner.imag))


def fidelity(a, b) -> float:
    """|<a|b>|^2 for normalized states; ``fidelities`` is the batched form."""
    return abs(overlap(a, b)) ** 2


def states_equal_up_to_phase(a, b, tol: float = 1e-10) -> bool:
    """True when a and b describe the same ray, i.e. |<a|b>| = 1 within tol."""
    return bool(abs(abs(overlap(a, b)) - 1.0) <= tol)


def orthogonal_state(state) -> np.ndarray:
    """The unique (up to phase) state orthogonal to the input."""
    s = normalize(state)
    return np.array([-np.conj(s[1]), np.conj(s[0])], dtype=complex)


def state_from_angles(theta: float, phi: float) -> np.ndarray:
    """State cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta={theta!r} outside [0, pi]")
    if not 0.0 <= phi < TWO_PI:
        raise ValueError(f"phi={phi!r} outside [0, 2*pi)")
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )


def angles_from_state(state) -> BlochAngles:
    """Inverse of state_from_angles; phi is canonically 0 at the poles."""
    s = as_state(state)
    if not is_normalized(s):
        raise ValueError("state must be normalized")
    theta = 2.0 * np.arctan2(abs(s[1]), abs(s[0]))
    if abs(s[0]) <= 1e-12 or abs(s[1]) <= 1e-12:
        return BlochAngles(float(theta), 0.0)
    phi = float(np.angle(s[1]) - np.angle(s[0])) % TWO_PI
    return BlochAngles(float(theta), phi)


def bloch_vectors(states) -> np.ndarray:
    """Bloch vectors of the rows of ``states``, shape (N, 2) -> (N, 3).

    The rows are taken as normalized; ``bloch_vector`` checks one state.
    """
    s = np.asarray(states, dtype=complex).reshape(-1, 2)
    re0, im0, re1, im1 = s[:, 0].real, s[:, 0].imag, s[:, 1].real, s[:, 1].imag
    # conj(c0) * c1 from its parts: numpy's array complex multiply rounds
    # differently from its scalar one.
    cross_re = re0 * re1 + im0 * im1
    cross_im = re0 * im1 - im0 * re1
    bz = _squares(np.hypot(re0, im0)) - _squares(np.hypot(re1, im1))
    return np.stack((2.0 * cross_re, 2.0 * cross_im, bz), axis=-1)


def bloch_vector(state) -> np.ndarray:
    """Unit 3-vector of Pauli expectation values (sin t cos p, sin t sin p, cos t)."""
    s = as_state(state)
    if not is_normalized(s):
        raise ValueError("state must be normalized")
    return bloch_vectors(s)[0]


def fubini_study_angle(a, b) -> float:
    """Geodesic separation 2*arccos(|<a|b>|) in [0, pi].

    This is the great-circle angle between the two rays on the unit sphere
    (twice the Fubini-Study distance), invariant under global phases.
    """
    sa, sb = as_state(a), as_state(b)
    if not (is_normalized(sa) and is_normalized(sb)):
        raise ValueError("both states must be normalized")
    x = min(1.0, abs(np.vdot(sa, sb)))
    return float(2.0 * np.arccos(x))
