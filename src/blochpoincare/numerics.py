"""Small fixed-size numerical kernels shared by the physics modules.

Pauli matrices, the Hermiticity test and the closed-form SU(2) exponential.
Everything is pure: no global state, no randomness, bit-stable results for
identical inputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

IDENTITY2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def is_hermitian(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """True when the matrix equals its conjugate transpose within ``tol``."""
    m = np.asarray(matrix, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def pauli_components(matrix: np.ndarray) -> Tuple[float, float, float, float]:
    """Coefficients (a0, ax, ay, az) of M = a0*I + ax*sx + ay*sy + az*sz.

    Only meaningful for Hermitian input, where all four coefficients are real.
    """
    m = np.asarray(matrix, dtype=complex)
    a0 = float(np.real(m[0, 0] + m[1, 1])) / 2.0
    az = float(np.real(m[0, 0] - m[1, 1])) / 2.0
    ax = float(np.real(m[0, 1]))
    ay = float(-np.imag(m[0, 1]))
    return a0, ax, ay, az


def matrix_exponential_su2(
    hamiltonian: np.ndarray, time: float, hbar: float = 1.0, tol: float = 1e-12
) -> np.ndarray:
    """exp(-i H t / hbar) for a Hermitian 2x2 generator, in closed form.

    Splits H into its trace part and Pauli axis and applies the cos/sin
    rotation formula, so the result is unitary to machine precision with no
    series truncation.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {h.shape}")
    if not is_hermitian(h, tol):
        raise ValueError("generator must be Hermitian")
    a0, ax, ay, az = pauli_components(h)
    norm = float(np.sqrt(ax * ax + ay * ay + az * az))
    angle = norm * time / hbar
    phase = np.exp(-1j * a0 * time / hbar)
    if norm == 0.0:
        return phase * IDENTITY2
    axis_dot_sigma = (ax * PAULI_X + ay * PAULI_Y + az * PAULI_Z) / norm
    return phase * (np.cos(angle) * IDENTITY2 - 1j * np.sin(angle) * axis_dot_sigma)
