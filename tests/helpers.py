"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they are used to
check: the matrix exponential is a scaled-and-squared Taylor series,
coherency rotations are spelled out entrywise, maxima come from a grid search
with golden-section refinement, and period averages from the trapezoid rule.
The scalar SU(2) exponential, Bloch vector, fidelity, the four one-point
interference laws, the probe-by-probe Mueller classification and the
pair-by-pair efficiency walk are the evaluations the batched kernels must
reproduce bit for bit.
"""

import sys
from typing import Callable, Tuple

import numpy as np

from blochpoincare.bloch import as_state, bloch_vector, fubini_study_angle, is_normalized, overlap
from blochpoincare.mueller import _DEFAULT_PROBE_SEED, MuellerClass
from blochpoincare.numerics import (
    IDENTITY2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    gate,
    is_hermitian,
    pauli_components,
)
from blochpoincare.polarization import (
    degree_of_polarization,
    validate_coherency,
    validate_stokes,
)
from blochpoincare.speed_limit import EfficiencyReport

# Unitary variant of the Stokes change of basis A_MATRIX; differs from
# A / sqrt(2) by a sign flip of the circular-component row.
U_STOKES = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1j, -1j, 0],
    ],
    dtype=complex,
) / np.sqrt(2.0)


def random_state(rng):
    v = rng.normal(size=4)
    c = v[:2] + 1j * v[2:]
    return c / np.linalg.norm(c)


def random_state_pair(rng, lo=0.05, hi=0.95):
    """Normalized pair with overlap magnitude strictly inside (lo, hi)."""
    while True:
        a, b = random_state(rng), random_state(rng)
        if lo < abs(np.vdot(a, b)) < hi:
            return a, b


def random_su2(rng):
    """Haar-uniform SU(2) via a random unit quaternion."""
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    a, b, c, d = v
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def random_unitary(rng):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * random_su2(rng)


def random_coherency(rng, min_p=0.0, max_p=1.0):
    """Random valid coherency matrix, optionally constrained in P."""
    while True:
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        j = g @ g.conj().T
        trace = np.trace(j).real
        det = np.linalg.det(j).real
        p = np.sqrt(max(0.0, 1.0 - 4.0 * det / trace**2))
        if min_p < p < max_p:
            return j


def state_from_angles(theta, phi):
    """State cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> at sphere angles (theta, phi)."""
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def states_equal_up_to_phase(a, b, tol=1e-10):
    """True when a and b describe the same ray, i.e. |<a|b>| = 1 within tol."""
    return abs(abs(np.vdot(a, b)) - 1.0) <= tol


def energy_uncertainty(h, state):
    """Dispersion [<H^2> - <H>^2]^(1/2) of a Hamiltonian2 in a (normalizable) state."""
    s = np.asarray(state, dtype=complex)
    norm_sq = np.vdot(s, s).real
    hs = h.matrix @ s
    mean = np.vdot(s, hs).real / norm_sq
    mean_sq = np.vdot(hs, hs).real / norm_sq
    return float(np.sqrt(max(0.0, mean_sq - mean * mean)))


def coherency_from_stokes(s):
    """Coherency matrix of a Stokes 4-vector: the inverse of stokes_from_coherency."""
    return np.array(
        [
            [(s[0] + s[1]) / 2.0, (s[2] + 1j * s[3]) / 2.0],
            [(s[2] - 1j * s[3]) / 2.0, (s[0] - s[1]) / 2.0],
        ],
        dtype=complex,
    )


def ellipse_residual(delta_x, delta_y, phase):
    """The polarization-ellipse identity at one instant, left side minus right.

    With Ex/E0x = cos(phase + delta_x), Ey/E0y = cos(phase + delta_y) and
    delta = delta_x - delta_y, a monochromatic field satisfies
    (Ex/E0x)^2 + (Ey/E0y)^2 - 2 (Ex/E0x)(Ey/E0y) cos(delta) = sin^2(delta)
    at every phase = omega t.
    """
    x, y = np.cos(phase + delta_x), np.cos(phase + delta_y)
    delta = delta_x - delta_y
    return float(x * x + y * y - 2.0 * x * y * np.cos(delta) - np.sin(delta) ** 2)


def interference_coefficients(j, a, b):
    """The cross-term coefficients of the three interference laws.

    The degree of coherence |j_xy| of a beam (maximal in its equal-diagonal
    frame), the half-separation cosine cos(theta/2) of two states' unit
    vectors, and their overlap |<a|b>|: the three agree under the sphere
    correspondence.
    """
    coherence = degree_of_polarization(j).coherence_magnitude
    cos_full = float(np.clip(np.dot(bloch_vector(a), bloch_vector(b)), -1.0, 1.0))
    return coherence, float(np.sqrt((1.0 + cos_full) / 2.0)), abs(overlap(a, b))


def series_expm(matrix, squarings=12):
    """exp(matrix) by 4th-order Taylor of the 2^-s scaled matrix, squared back.

    Independent of the closed-form SU(2) route. Twelve squarings balance the
    series truncation against rounding growth for arguments of norm ~1.
    """
    m = np.asarray(matrix, dtype=complex)
    scaled = m / (2.0**squarings)
    term = np.eye(m.shape[0], dtype=complex)
    result = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 5):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def conjugate_coherency(j, phi):
    """Entrywise R(phi) J R(-phi) with R the 2-D axes rotation."""
    c, s = np.cos(phi), np.sin(phi)
    jxx, jxy, jyx, jyy = j[0, 0], j[0, 1], j[1, 0], j[1, 1]
    return np.array(
        [
            [
                c * c * jxx + c * s * (jxy + jyx) + s * s * jyy,
                c * c * jxy - s * s * jyx - c * s * (jxx - jyy),
            ],
            [
                c * c * jyx - s * s * jxy - c * s * (jxx - jyy),
                s * s * jxx - c * s * (jxy + jyx) + c * c * jyy,
            ],
        ],
        dtype=complex,
    )


def coherence_magnitude(j):
    """|J_xy| / sqrt(J_xx J_yy), straight from the definition."""
    return abs(j[0, 1]) / np.sqrt(j[0, 0].real * j[1, 1].real)


def arrival_time_grid(b, e0, n_axis, n_phase, hbar=1.0, threshold=1e-9):
    """Independent least-arrival-time oracle over gap-constrained generators.

    Sweeps traceless Hermitian generators H = (e0/2) n.sigma, with the axis
    polar angle discretized on [0, pi] (this parametrizes every admissible
    diagonal-difference / off-diagonal-modulus pair on the constraint circle)
    and the off-diagonal phase on [0, 2pi), augmented per polar angle with
    the phase that exactly matches the target so the sweep always contains
    arriving generators. Starting state is (1, 0).

    Arrival is the first local maximum of the target fidelity whose peak
    value reaches 1 - threshold. (The literal first crossing of the
    threshold precedes the peak by O(sqrt(threshold)) even for the optimal
    generator, so peaks are the meaningful arrival notion.) The fidelity
    curve is evaluated in closed form from the axis-angle evolution,
    independent of the library's synthesis path.
    """
    polar = np.linspace(0.0, np.pi, n_axis)
    phases = np.linspace(0.0, 2.0 * np.pi, n_phase, endpoint=False)
    beta_mod = abs(b[1])
    tau_match = np.full_like(polar, np.nan)
    mu = np.zeros_like(polar)
    ok = np.sin(polar) >= beta_mod
    tau_match[ok] = np.arcsin(np.clip(beta_mod / np.sin(polar[ok]), 0.0, 1.0))
    mu[ok] = np.arctan2(np.cos(polar[ok]) * np.sin(tau_match[ok]), np.cos(tau_match[ok]))
    matching = np.angle(b[1]) - np.angle(b[0]) + np.pi / 2.0 - mu

    arrivals = []
    for i, psi in enumerate(polar):
        row_phases = phases if not ok[i] else np.concatenate((phases, [matching[i]]))
        nz = np.cos(psi)
        nxy = np.sin(psi) * np.exp(1j * row_phases)
        amp_a = np.conj(b[0])
        amp_b = amp_a * nz + np.conj(b[1]) * nxy
        m = (abs(amp_a) ** 2 + np.abs(amp_b) ** 2) / 2.0
        p = (abs(amp_a) ** 2 - np.abs(amp_b) ** 2) / 2.0
        q = -np.imag(amp_a * np.conj(amp_b))
        peak = m + np.hypot(p, q)
        alpha = np.arctan2(q, p)
        alpha = np.where(alpha <= 0.0, alpha + 2.0 * np.pi, alpha)
        t_peak = hbar * alpha / e0  # tau = e0 t / (2 hbar), peak at 2 tau = alpha
        reached = peak >= 1.0 - threshold
        arrivals.extend(t_peak[reached].tolist())
    return np.array(arrivals)


def coherence_vs_rotation(j, phis):
    """Vectorized |j_xy| after rotating the axes by each angle in ``phis``.

    Works through the Stokes parameters, so it is an independent route from
    the matrix-conjugation implementation.
    """
    phis = np.asarray(phis, dtype=float)
    s0 = (j[0, 0] + j[1, 1]).real
    s1 = (j[0, 0] - j[1, 1]).real
    s2 = (j[0, 1] + j[1, 0]).real
    s3 = (1j * (j[1, 0] - j[0, 1])).real
    c, s = np.cos(2.0 * phis), np.sin(2.0 * phis)
    s1r = c * s1 + s * s2
    s2r = -s * s1 + c * s2
    off = 0.5 * np.sqrt(s2r**2 + s3**2)
    denom = np.sqrt((s0 + s1r) * (s0 - s1r)) / 2.0
    return off / denom


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # golden-section step ratio


def grid_search_max(
    f: Callable[[float], float], lower: float, upper: float, n: int
) -> Tuple[float, float]:
    """Deterministic maximizer of a scalar function on [lower, upper].

    Evaluates an n-point uniform grid, then runs one golden-section
    refinement on the bracketing interval around the grid winner. Returns
    ``(argmax, max)``. No randomness, so repeated calls are bit-identical.
    """
    if n < 2:
        raise ValueError("need at least 2 grid points")
    if not lower < upper:
        raise ValueError("need lower < upper")
    xs = np.linspace(lower, upper, n)
    values = []
    for x in xs:
        v = float(f(float(x)))
        if not np.isfinite(v):
            raise ValueError(f"non-finite objective value {v!r} at x={float(x)!r}")
        values.append(v)
    best = int(np.argmax(values))
    best_x, best_v = float(xs[best]), values[best]

    # Golden-section pass over the bracket [x_{i-1}, x_{i+1}].
    a = float(xs[max(best - 1, 0)])
    b = float(xs[min(best + 1, n - 1)])
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = float(f(x1)), float(f(x2))
    for _ in range(200):
        if b - a <= 1e-13 * (1.0 + abs(a) + abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = float(f(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = float(f(x1))
    x_mid = 0.5 * (a + b)
    v_mid = float(f(x_mid))
    if not np.isfinite(v_mid):
        raise ValueError(f"non-finite objective value {v_mid!r} at x={x_mid!r}")
    if v_mid >= best_v:
        return x_mid, v_mid
    return best_x, best_v


def time_average_quadrature(f: Callable[[float], float], period: float, n: int) -> float:
    """(1/T) * integral of f over one period, by the composite trapezoid rule.

    For smooth periodic integrands the trapezoid rule on a full period is
    extremely accurate; n is the number of subdivisions (>= 4).
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    if n < 4:
        raise ValueError("need at least 4 subdivisions")
    ts = np.linspace(0.0, period, n + 1)
    samples = np.array([float(f(float(t))) for t in ts])
    if not np.all(np.isfinite(samples)):
        bad = int(np.flatnonzero(~np.isfinite(samples))[0])
        raise ValueError(f"non-finite sample at t={float(ts[bad])!r}")
    return float(np.trapezoid(samples, ts) / period)


def scalar_su2_exponential(hamiltonian, time, hbar=1.0, tol=1e-12):
    """exp(-i H t / hbar) at one time, by the closed-form cos/sin rotation formula."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {h.shape}")
    if not is_hermitian(h, tol):
        raise ValueError("generator must be Hermitian")
    a0, ax, ay, az = pauli_components(h)
    phase = np.exp(-1j * a0 * time / hbar)
    squares = ax * ax + ay * ay + az * az
    plain = sys.float_info.min <= squares <= sys.float_info.max
    if plain:
        norm = float(np.sqrt(squares))
    else:
        # The sum of squares under- or overflows: scale by the largest component.
        scale = max(abs(ax), abs(ay), abs(az)) or 1.0
        x, y, z = ax / scale, ay / scale, az / scale
        norm = scale * float(np.sqrt(x * x + y * y + z * z))
    if norm == 0.0:
        return phase * IDENTITY2
    if plain:
        axis_dot_sigma = (ax * PAULI_X + ay * PAULI_Y + az * PAULI_Z) / norm
    else:
        # Real quotients: complex division by a subnormal norm returns NaN.
        axis_dot_sigma = (ax / norm) * PAULI_X + (ay / norm) * PAULI_Y + (az / norm) * PAULI_Z
    angle = norm * time / hbar
    return phase * (np.cos(angle) * IDENTITY2 - 1j * np.sin(angle) * axis_dot_sigma)


def scalar_bloch_vector(state):
    """(2 Re c0* c1, 2 Im c0* c1, |c0|^2 - |c1|^2) of one state, on numpy scalars."""
    s = np.asarray(state, dtype=complex)
    cross = np.conj(s[0]) * s[1]
    return np.array([2.0 * cross.real, 2.0 * cross.imag, (abs(s[0]) ** 2 - abs(s[1]) ** 2)])


def scalar_fidelity(a, b):
    """|<a|b>|^2 of two states, on a Python complex."""
    return abs(complex(np.vdot(a, b))) ** 2


def scalar_classical_intensity(j, theta, epsilon):
    """The classical law at one analyzer angle and phase delay, on numpy scalars."""
    j = validate_coherency(j)
    report = degree_of_polarization(j)
    i_x = j[0, 0].real * np.cos(theta) ** 2
    i_y = j[1, 1].real * np.sin(theta) ** 2
    cross = 2.0 * np.sqrt(max(0.0, i_x * i_y)) * report.coherence_magnitude
    return float(i_x + i_y + cross * np.cos(report.coherence_phase - epsilon))


def scalar_fringe_visibility(j, theta):
    """The fringe visibility at one analyzer angle, on numpy scalars."""
    j = validate_coherency(j)
    report = degree_of_polarization(j)
    i_x = j[0, 0].real * np.cos(theta) ** 2
    i_y = j[1, 1].real * np.sin(theta) ** 2
    total = i_x + i_y
    if total <= 0.0:
        raise ValueError("visibility undefined: both analyzer intensities vanish")
    return float(2.0 * np.sqrt(max(0.0, i_x * i_y)) * report.coherence_magnitude / total)


def scalar_pancharatnam_intensity(i_a, i_b, theta_poincare, delta):
    """The two-beam sphere-separation law at one point, on Python floats."""
    if i_a < 0.0 or i_b < 0.0:
        raise ValueError("intensities must be nonnegative")
    if not 0.0 <= theta_poincare <= np.pi:
        raise ValueError("sphere separation must lie in [0, pi]")
    cross = 2.0 * np.sqrt(i_a * i_b) * np.cos(theta_poincare / 2.0)
    return float(i_a + i_b + cross * np.cos(delta))


def scalar_quantum_probability(a_amp, b_amp, state_a, state_b):
    """The quantum law for one amplitude pair, on Python complex numbers."""
    sa, sb = as_state(state_a), as_state(state_b)
    if not (is_normalized(sa) and is_normalized(sb)):
        raise ValueError("branch states must be normalized")
    a_amp, b_amp = complex(a_amp), complex(b_amp)
    p_a, p_b = abs(a_amp) ** 2, abs(b_amp) ** 2
    inner = overlap(sa, sb)
    phase = np.angle(inner) - (np.angle(a_amp) - np.angle(b_amp)) if inner != 0 else 0.0
    cross = 2.0 * np.sqrt(p_a * p_b) * abs(inner)
    return float(p_a + p_b + cross * np.cos(phase))


def scalar_probe_images(mat, probes, seed):
    """(Stokes probe, image under ``mat``) pairs, one seeded normal draw per probe."""
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        stokes = np.concatenate(([1.0], direction))
        yield stokes, mat @ stokes


def scalar_classify_mueller(m, probes=1000, seed=_DEFAULT_PROBE_SEED):
    """The probe classification one probe at a time, each image checked on its own."""
    mat = np.asarray(m, dtype=float)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    scale = float(np.max(np.abs(mat)))
    if scale > 0.0:
        mat = mat / scale
    depolarizes = False
    for _, image in scalar_probe_images(mat, probes, seed):
        try:
            validate_stokes(image)
        except ValueError as exc:
            raise ValueError(f"matrix maps a valid Stokes vector outside the cone: {exc}")
        p_out = float(np.linalg.norm(image[1:]) / image[0])
        if p_out < 1.0 - 1e-8:
            depolarizes = True
    return MuellerClass.DEPOLARIZING if depolarizes else MuellerClass.NONDEPOLARIZING


def _scalar_apart(a, b, angle):
    """Whether one pair of samples is apart: its angle and twice its chord both exceed 1e-12."""
    inner = complex(np.vdot(a, b))
    phase = inner / abs(inner) if inner != 0 else 1.0
    return angle > 1e-12 and 2.0 * float(np.linalg.norm(b - a * phase)) > 1e-12


def scalar_efficiency(trajectory):
    """The efficiency report by a walk over consecutive samples, one pair at a time."""
    states = [as_state(s) for s in trajectory]
    if len(states) < 2:
        raise ValueError("need at least 2 samples")
    segments = []
    for prev, curr in zip(states[:-1], states[1:]):
        seg = fubini_study_angle(prev, curr)
        if not _scalar_apart(prev, curr, seg):
            raise ValueError("consecutive samples coincide up to phase")
        segments.append(seg)
    geodesic_length = fubini_study_angle(states[0], states[-1])
    if not _scalar_apart(states[0], states[-1], geodesic_length):
        raise ValueError("trajectory endpoints coincide up to phase")
    path_length = float(sum(segments))
    eta = geodesic_length / path_length
    gate(eta, 1.0 + 1e-9, f"inconsistent trajectory: eta = {eta!r} exceeds 1")
    return EfficiencyReport(
        geodesic_length=geodesic_length, path_length=path_length, eta_qm=min(eta, 1.0)
    )


def bitwise_equal(a, b):
    """True when two arrays hold the same doubles, signs of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
