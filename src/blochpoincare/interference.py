"""The three two-beam interference laws and their shared cosine structure.

Classical partially coherent vibrations, superposed elliptically polarized
beams, and quantum probability amplitudes all combine as
base + cross-term * cosine; the cross-term carries the degree of coherence,
the half-separation cosine on the polarization sphere, or the state overlap
respectively, and the three coincide under the sphere correspondence. Each
law broadcasts over its angle, phase and amplitude arguments, so a sweep is
one call; scalar arguments give a float.
"""

from __future__ import annotations

import numpy as np

from .bloch import as_state, is_normalized, overlap
from .numerics import _squares, gate
from .polarization import _BOUND_TOL, _coherence, _exact_rescale, validate_coherency


def _value(result):
    """A Python float for a 0-d result, the array otherwise."""
    return float(result) if np.ndim(result) == 0 else result


def _analyzer_terms(j, theta):
    """I_x, I_y, 2 sqrt(I_x I_y) |j_xy| and beta_xy, all of J / 2**k, and k.

    The laws are homogeneous in J: after validating J as given they are
    evaluated on the exact rescale J / 2**k, which keeps I_x I_y clear of
    under- and overflow. J's bounds are absolute; the two the laws read, the
    diagonal and the Schwarz bound, are also held on the rescale, so a beam
    far below 1 cannot pass with negative intensities or |j_xy| > 1.
    """
    scaled, k = _exact_rescale(validate_coherency(j))
    jxx, jyy = scaled[0, 0].real, scaled[1, 1].real
    gate(-min(jxx, jyy), _BOUND_TOL, "diagonal intensities must be nonnegative", ValueError)
    excess = abs(scaled[0, 1]) ** 2 - jxx * jyy
    gate(excess, _BOUND_TOL, "coherency determinant must be nonnegative (Schwarz bound)", ValueError)
    magnitude, phase = _coherence(scaled)
    i_x = jxx * _squares(np.cos(theta))
    i_y = jyy * _squares(np.sin(theta))
    product = i_x * i_y
    cross = 2.0 * np.sqrt(np.where(product > 0.0, product, 0.0)) * magnitude
    return i_x, i_y, cross, phase, k


def classical_intensity(j, theta, epsilon):
    """Intensity of the field component along a rotated analyzer direction.

    I = I_x + I_y + 2 sqrt(I_x I_y) |j_xy| cos(beta_xy - epsilon) with
    I_x = J_xx cos^2(theta), I_y = J_yy sin^2(theta); epsilon is the phase
    delay applied to the y component.
    """
    i_x, i_y, cross, phase, k = _analyzer_terms(j, theta)
    with np.errstate(over="ignore"):  # an overflow is inf, which the caller reports
        return _value(np.ldexp(i_x + i_y + cross * np.cos(phase - epsilon), k))


def fringe_visibility(j, theta):
    """Fringe contrast 2 sqrt(I_x I_y)|j_xy| / (I_x + I_y) of the epsilon sweep.

    Equals the degree of coherence exactly when the two intensities match
    (theta = pi/4 on an equal-diagonal beam); that equality is the
    operational meaning of |j_xy|. The error for angles at which both
    intensities vanish names the first of them.
    """
    i_x, i_y, cross, _, _ = _analyzer_terms(j, theta)
    total = i_x + i_y
    if np.any(total <= 0.0):
        angle = float(np.broadcast_to(theta, np.shape(total))[total <= 0.0][0])
        raise ValueError(
            f"angle {angle!r} rad: visibility undefined: both analyzer intensities vanish"
        )
    return _value(cross / total)


def pancharatnam_intensity(i_a, i_b, theta_poincare, delta):
    """Resultant intensity of two coherent elliptically polarized beams.

    I_C = I_A + I_B + 2 sqrt(I_A I_B) cos(theta/2) cos(delta), where theta is
    the angular separation of the two polarization states on the sphere and
    delta is the beams' phase-advance angle. delta is accepted as an opaque
    input: relating it to component phase delays would need an extra x-phase
    absent from the single-beam model, so only this note records that link.
    """
    i_a, i_b, theta = (np.asarray(x, dtype=float) for x in (i_a, i_b, theta_poincare))
    if np.any(i_a < 0.0) or np.any(i_b < 0.0):
        raise ValueError("intensities must be nonnegative")
    if not np.all((0.0 <= theta) & (theta <= np.pi)):
        raise ValueError("sphere separation must lie in [0, pi]")
    cross = 2.0 * np.sqrt(i_a * i_b) * np.cos(theta / 2.0)
    return _value(i_a + i_b + cross * np.cos(delta))


def quantum_probability(a_amp, b_amp, state_a, state_b):
    """Squared norm of a_amp|A> + b_amp|B> via the interference law.

    p = |a|^2 + |b|^2 + 2|a||b| |<A|B>| cos(phi_AB - (phi_a - phi_b)).
    This is an identity, not an approximation; it matches the direct inner
    product to rounding.
    """
    sa, sb = as_state(state_a), as_state(state_b)
    if not (is_normalized(sa) and is_normalized(sb)):
        raise ValueError("branch states must be normalized")
    a_amp, b_amp = np.asarray(a_amp, dtype=complex), np.asarray(b_amp, dtype=complex)
    p_a = _squares(np.hypot(a_amp.real, a_amp.imag))
    p_b = _squares(np.hypot(b_amp.real, b_amp.imag))
    inner = overlap(sa, sb)
    phase = np.angle(inner) - (np.angle(a_amp) - np.angle(b_amp)) if inner != 0 else 0.0
    cross = 2.0 * np.sqrt(p_a * p_b) * abs(inner)
    return _value(p_a + p_b + cross * np.cos(phase))
