"""Pure-state qubit geometry: unit vectors, overlaps, and distances.

States are plain complex ndarrays of shape (2,), stacked as (N, 2) for the
batched kernels. Global phase is physically irrelevant; comparisons between
states go through overlap moduli, which ignore it.
"""

from __future__ import annotations

import numpy as np

from .numerics import _squares


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


def orthogonal_state(state) -> np.ndarray:
    """The unique (up to phase) state orthogonal to the input."""
    s = normalize(state)
    return np.array([-np.conj(s[1]), np.conj(s[0])], dtype=complex)


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
