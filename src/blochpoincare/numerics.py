"""Small fixed-size numerical kernels shared by the physics modules.

Pauli matrices, the Hermiticity test, the closed-form SU(2) exponential on a
whole time vector at once, the libm squaring the batched kernels share, and
the residual-versus-bound gate every construction ends in. Everything is
pure: no global state, no randomness, bit-stable results for identical inputs.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Tuple

import numpy as np

IDENTITY2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_HERMITIAN_TOL = 1e-12  # the bound on max |M - M^dagger| of every Hermitian generator


def gate(residual, bound, message: str, error=RuntimeError) -> None:
    """Raise ``error``, naming residual and bound, unless ``residual <= bound``: NaN fails.

    Reduce an array residual with ``np.max``; pass a lower bound ``x >= b`` as ``-x <= -b``.
    """
    if not residual <= bound:
        raise error(f"{message} (residual {float(residual)!r}, bound {float(bound)!r})")


def is_hermitian(matrix: np.ndarray) -> bool:
    """True when the matrix equals its conjugate transpose within ``_HERMITIAN_TOL``."""
    m = np.asarray(matrix, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= _HERMITIAN_TOL)


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


def _squares(values) -> np.ndarray:
    """Each value squared through libm ``pow``, as Python and numpy scalars square.

    numpy's array squaring rounds differently in the last bit of some values,
    so batched kernels that match a one-point evaluation bit for bit square here.
    """
    x = np.asarray(values, dtype=float)
    return np.array([math.pow(v, 2.0) for v in x.ravel().tolist()]).reshape(x.shape)


def _pauli_axis(ax: float, ay: float, az: float) -> Tuple[float, Optional[np.ndarray]]:
    """Norm of a Pauli vector and its unit axis dotted into sigma; (0.0, None) for 0.

    Where the plain sum of squares is not a normal finite number, the norm is
    taken on the components divided by the largest, and the axis is formed
    from real quotients: numpy's complex division by a subnormal returns NaN.
    """
    squares = ax * ax + ay * ay + az * az
    if sys.float_info.min <= squares <= sys.float_info.max:
        norm = math.sqrt(squares)
        return norm, (ax * PAULI_X + ay * PAULI_Y + az * PAULI_Z) / norm
    scale = max(abs(ax), abs(ay), abs(az))
    if scale == 0.0:
        return 0.0, None
    x, y, z = ax / scale, ay / scale, az / scale
    norm = scale * math.sqrt(x * x + y * y + z * z)
    return norm, (ax / norm) * PAULI_X + (ay / norm) * PAULI_Y + (az / norm) * PAULI_Z


def su2_propagators(hamiltonian: np.ndarray, times, hbar: float = 1.0) -> np.ndarray:
    """exp(-i H t / hbar) for each t in ``times``, shape (N, 2, 2), in closed form.

    Checks hermiticity and splits H into its trace part and Pauli axis once,
    then applies the cos/sin rotation formula on the whole time vector, so
    every row is unitary to machine precision with no series truncation.
    Row for row the result is bit-equal to the scalar evaluation at each time.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {h.shape}")
    if not is_hermitian(h):
        raise ValueError("generator must be Hermitian")
    a0, ax, ay, az = pauli_components(h)
    norm, axis_dot_sigma = _pauli_axis(ax, ay, az)
    t = np.asarray(times, dtype=float).reshape(-1)
    # A real exponent first: the complex form -1j * a0 * t / hbar would divide
    # by hbar through its reciprocal on arrays.
    phase = np.exp(1j * (-a0 * t / hbar))[:, None, None]
    if norm == 0.0:
        return phase * IDENTITY2
    angle = (norm * t / hbar)[:, None, None]
    return phase * (np.cos(angle) * IDENTITY2 - 1j * np.sin(angle) * axis_dot_sigma)


def matrix_exponential_su2(
    hamiltonian: np.ndarray, time: float, hbar: float = 1.0
) -> np.ndarray:
    """exp(-i H t / hbar) for a Hermitian 2x2 generator: one row of ``su2_propagators``."""
    return su2_propagators(hamiltonian, [time], hbar=hbar)[0]
