"""Pure-state qubit geometry: unit vectors, overlaps, and distances.

States are plain complex ndarrays of shape (2,), stacked as (N, 2) for the
batched kernels. Global phase is physically irrelevant; comparisons between
states go through overlap moduli, which ignore it.
"""

from __future__ import annotations

import numpy as np

from .numerics import _squares

_UNIT_NORM_TOL = 1e-12  # the bound on |<s|s> - 1| of a normalized state


def as_state(vec) -> np.ndarray:
    state = np.asarray(vec, dtype=complex).reshape(-1)
    if state.shape != (2,):
        raise ValueError(f"expected a complex 2-vector, got shape {state.shape}")
    return state


def _unit_norms(states) -> np.ndarray:
    """Whether each row of a stack is normalized within ``_UNIT_NORM_TOL``; NaN or inf is not."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(np.vecdot(states, states).real - 1.0) <= _UNIT_NORM_TOL


def is_normalized(state: np.ndarray) -> bool:
    """True when |<s|s> - 1| <= ``_UNIT_NORM_TOL``: one row of ``_unit_norms``."""
    return bool(_unit_norms(as_state(state)))


def normalize(state) -> np.ndarray:
    s = as_state(state)
    norm = float(np.linalg.norm(s))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return s / norm


def overlap(a, b) -> complex:
    """Inner product <a|b> (conjugate-linear in the first argument)."""
    return complex(np.vdot(as_state(a), as_state(b)))


def _moduli(inner) -> np.ndarray:
    """|<a|b>| of overlaps by hypot, not np.abs: it rounds as the scalar abs of one overlap does."""
    return np.hypot(np.real(inner), np.imag(inner))


def _sphere_angles(moduli) -> np.ndarray:
    """Great-circle angles 2 arccos|<a|b>| of overlap moduli, clamped at 1."""
    return 2.0 * np.arccos(np.minimum(1.0, moduli))


def fidelities(a, states) -> np.ndarray:
    """|<a|s>|^2 for each row s of ``states``, shape (N, 2) -> (N,)."""
    inner = np.vecdot(as_state(a), np.asarray(states, dtype=complex).reshape(-1, 2))
    return _squares(_moduli(inner))


def fidelity(a, b) -> float:
    """|<a|b>|^2 for normalized states: the ``fidelities`` kernel on one ``overlap``."""
    return float(_squares(_moduli(overlap(a, b))))


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
    return float(_sphere_angles(_moduli(np.vdot(sa, sb))))
