"""Jones-to-Mueller lifts and the two-to-one rotation homomorphism.

A 2x2 Jones matrix acting on the transverse field lifts to a real 4x4
Mueller matrix acting on Stokes vectors. Two independent constructions are
provided: the Kronecker-product lift A (J (x) J*) A^(-1), and for unitaries
the trace form over the Stokes operator basis. They agree entrywise, which
the test suite uses as a cross-oracle.
"""

from __future__ import annotations

import enum

import numpy as np

from .numerics import IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z, gate
from .polarization import validate_stokes

# Maps the row-major entries of a coherency matrix to Stokes parameters:
# rows carry the entries of I, sigma_z, sigma_x, sigma_y.
A_MATRIX = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, -1j, 1j, 0],
    ],
    dtype=complex,
)

# A is 2-orthogonal: A A^dagger = 2 I, so the inverse is exact.
A_MATRIX_INVERSE = A_MATRIX.conj().T / 2.0

# Operator basis dual to the Stokes parameters S_i = tr(Xi_i J). The sign on
# the last element matches S_3 = i (J_yx - J_xy); with +sigma_y the trace
# construction would disagree with the A-matrix lift in the S_3 row/column.
STOKES_BASIS = (IDENTITY2, PAULI_Z, PAULI_X, -PAULI_Y)

_DEFAULT_PROBE_SEED = 20240801
_UNITARY_TOL = 1e-10  # the bound on max |U^dagger U - I|, and on the rotation block of its lift
_IMAG_TOL = 1e-12  # the bound on a Mueller lift's imaginary residue, relative to its largest entry


class MuellerClass(enum.Enum):
    NONDEPOLARIZING = "nondepolarizing"
    DEPOLARIZING = "depolarizing"


def is_unitary(matrix: np.ndarray) -> bool:
    """True when U^dagger U equals the identity within ``_UNITARY_TOL``."""
    u = np.asarray(matrix, dtype=complex)
    return bool(np.max(np.abs(u.conj().T @ u - np.eye(2))) <= _UNITARY_TOL)


def mueller_from_jones(jones: np.ndarray) -> np.ndarray:
    """Mueller matrix A (J (x) J*) A^(-1) of a 2x2 Jones matrix.

    Parameters
    ----------
    jones : array_like
        Complex 2x2 transmission matrix acting on the field components.

    Returns
    -------
    numpy.ndarray
        Real 4x4 matrix acting on Stokes vectors. The algebra makes it real, so
        an imaginary residue above ``_IMAG_TOL`` of its largest entry raises.
    """
    j = np.asarray(jones, dtype=complex)
    if j.shape != (2, 2):
        raise ValueError(f"expected a 2x2 Jones matrix, got shape {j.shape}")
    if not np.all(np.isfinite(j)):
        raise ValueError("Jones entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        lifted = A_MATRIX @ np.kron(j, j.conj()) @ A_MATRIX_INVERSE
    if not np.all(np.isfinite(lifted)):
        raise ValueError("Mueller lift overflows: Jones entries too large")
    residue = float(np.max(np.abs(lifted.imag)))
    relative = f"{residue:.3e} > {_IMAG_TOL:.1e} relative to its largest entry"
    bound = _IMAG_TOL * float(np.max(np.abs(lifted)))
    gate(residue, bound, f"Mueller lift produced imaginary residue {relative}")
    return np.ascontiguousarray(lifted.real)


def wigner_rotation(unitary: np.ndarray) -> np.ndarray:
    """Rotation-type Mueller matrix of a unitary Jones matrix, by traces.

    M_ij = (1/2) tr(U^dagger Xi_i U Xi_j) over the Stokes operator basis.
    The result has first row and column (1, 0, 0, 0) and a proper-rotation
    3x3 block, each checked within ``_UNITARY_TOL`` as is the unitarity of U;
    U and -U give the same image (the mapping is two-to-one).
    """
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if not is_unitary(u):
        raise ValueError("input must be unitary")
    udag = u.conj().T
    m = np.empty((4, 4))
    for i, xi_i in enumerate(STOKES_BASIS):
        left = udag @ xi_i @ u
        for k, xi_k in enumerate(STOKES_BASIS):
            m[i, k] = 0.5 * np.trace(left @ xi_k).real

    border = np.concatenate((m[0] - (1.0, 0.0, 0.0, 0.0), m[1:, 0]))
    tol = _UNITARY_TOL
    gate(np.max(np.abs(border)), tol, "rotation lift lost the intensity row/column structure")
    block = m[1:, 1:]
    gate(np.max(np.abs(block @ block.T - np.eye(3))), tol, "rotation block is not orthogonal")
    gate(abs(np.linalg.det(block) - 1.0), tol, "rotation block must have determinant +1")
    return m


def mueller_rotator(phi: float) -> np.ndarray:
    """Mueller matrix of an axes rotation by phi about the beam direction.

    Leaves the total and circular components untouched and rotates the two
    linear components by 2*phi.
    """
    c, s = np.cos(2.0 * phi), np.sin(2.0 * phi)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, s, 0.0],
            [0.0, -s, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def classify_mueller(
    m: np.ndarray, probes: int = 1000, seed: int = _DEFAULT_PROBE_SEED
) -> MuellerClass:
    """Probe-based split into nondepolarizing vs depolarizing matrices.

    Sends ``probes`` seeded fully polarized Stokes vectors through ``m`` in one
    batched pass. If every image is a valid Stokes vector and stays fully
    polarized (within 1e-8), the matrix is nondepolarizing; a valid image with
    reduced polarization makes it depolarizing; an invalid image raises, the
    first in probe order. The probes go through ``m`` divided by its largest
    entry, so the verdict does not depend on the scale of ``m``.
    """
    if probes < 1:
        raise ValueError(f"probes must be at least 1, got {probes!r}")
    mat = np.asarray(m, dtype=float)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    outside = "matrix maps a valid Stokes vector outside the cone"
    if not np.isfinite(mat).all():
        raise ValueError(f"{outside}: Stokes parameters must be finite")
    # Scaling by a positive factor leaves the verdict unchanged; at unit scale
    # the absolute bound of validate_stokes sits at the rounding level of m.
    scale = float(np.max(np.abs(mat)))
    if scale > 0.0:
        mat = mat / scale
    directions = np.random.default_rng(seed).normal(size=(probes, 3))
    directions /= np.sqrt(np.vecdot(directions, directions))[:, None]
    stokes = np.concatenate((np.ones((probes, 1)), directions), axis=1)
    # Per-probe mat-vecs, bit-equal to mat @ stokes[i]; stokes @ mat.T is not.
    images = np.matmul(mat, stokes[:, :, None])[:, :, 0]
    try:
        validate_stokes(images)
    except ValueError as exc:
        raise ValueError(f"{outside}: {exc}")
    p_out = np.sqrt(np.vecdot(images[:, 1:], images[:, 1:])) / images[:, 0]
    depolarizes = np.any(p_out < 1.0 - 1e-8)
    return MuellerClass.DEPOLARIZING if depolarizes else MuellerClass.NONDEPOLARIZING
