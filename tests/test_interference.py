import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpoincare.interference import (
    classical_intensity,
    fringe_visibility,
    pancharatnam_intensity,
    quantum_probability,
)
from blochpoincare.polarization import degree_of_polarization, rotate_coherency
from helpers import (
    bitwise_equal,
    interference_coefficients,
    random_coherency,
    random_state,
    scalar_classical_intensity,
    scalar_fringe_visibility,
    scalar_pancharatnam_intensity,
    scalar_quantum_probability,
    time_average_quadrature,
)

J_WORKED = np.array([[3.0, 1.0], [1.0, 1.0]], dtype=complex)
HALF = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Classical law
# ---------------------------------------------------------------------------


def test_unpolarized_light_shows_no_fringes():
    j = 0.7 * np.eye(2, dtype=complex)
    for theta in (0.3, np.pi / 4.0, 1.2):
        for eps in (0.0, 1.0, 2.5):
            i_x = 0.7 * np.cos(theta) ** 2
            i_y = 0.7 * np.sin(theta) ** 2
            assert abs(classical_intensity(j, theta, eps) - (i_x + i_y)) < 1e-14


def test_fully_coherent_constructive_peak():
    # cos(beta_xy - eps) = 1 gives (sqrt(I_x) + sqrt(I_y))^2.
    j = np.array([[1.0, np.exp(0.4j)], [np.exp(-0.4j), 1.0]], dtype=complex)
    theta = 0.9
    i_x, i_y = np.cos(theta) ** 2, np.sin(theta) ** 2
    value = classical_intensity(j, theta, 0.4)
    assert abs(value - (np.sqrt(i_x) + np.sqrt(i_y)) ** 2) < 1e-12


def test_classical_intensity_worked_value():
    assert abs(classical_intensity(J_WORKED, np.pi / 4.0, 0.0) - 3.0) < 1e-12


def test_classical_intensity_matches_field_ensemble_average():
    # Realize the beam as two uncorrelated monochromatic fields (its
    # eigen-decomposition) and average the squared analyzer component over a
    # period; twice the summed averages must reproduce the law's value.
    theta, eps, omega = np.pi / 4.0, 0.7, 2.0
    values, vectors = np.linalg.eigh(J_WORKED)
    total = 0.0
    for weight, column in zip(values, vectors.T):
        cx, cy = np.sqrt(weight) * column
        projected = cx * np.cos(theta) + cy * np.exp(1j * eps) * np.sin(theta)

        def real_field(t, amp=projected):
            return (amp * np.exp(1j * omega * t)).real

        total += 2.0 * time_average_quadrature(
            lambda t: real_field(t) ** 2, 2.0 * np.pi / omega, 4096
        )
    assert abs(total - classical_intensity(J_WORKED, theta, eps)) < 1e-8


def test_classical_intensity_nonnegative():
    rng = np.random.default_rng(401)
    for _ in range(1000):
        j = random_coherency(rng)
        theta = rng.uniform(0.0, np.pi / 2.0)
        eps = rng.uniform(0.0, 2.0 * np.pi)
        assert classical_intensity(j, theta, eps) >= -1e-12


def test_visibility_names_the_first_angle_where_both_intensities_vanish():
    j = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match=r"^angle 0\.0 rad: visibility undefined"):
        fringe_visibility(j, [0.3, 0.0, np.pi, 0.0])
    with pytest.raises(ValueError, match=r"^angle 0\.0 rad"):
        fringe_visibility(j, 0.0)


@pytest.mark.parametrize("scale_exponent", range(-300, 301, 50))
def test_classical_law_is_scale_free(scale_exponent):
    # The law is homogeneous of degree one in J, the visibility of degree zero.
    c = 10.0**scale_exponent
    j = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.5]])
    theta = np.linspace(0.05, 1.5, 7)[:, None]
    epsilon = np.linspace(0.0, 2.0 * np.pi, 5)
    expected = classical_intensity(j, theta, epsilon)
    assert classical_intensity(c * j, theta, epsilon) == pytest.approx(c * expected, rel=1e-12)
    assert fringe_visibility(c * j, theta) == pytest.approx(fringe_visibility(j, theta), rel=1e-12)


def test_visibility_equals_coherence_at_equal_intensities():
    rng = np.random.default_rng(409)
    for _ in range(200):
        j = random_coherency(rng)
        # move to the equal-diagonal frame first
        phi = 0.5 * np.arctan2((j[1, 1] - j[0, 0]).real, (j[0, 1] + j[1, 0]).real)
        equalized = rotate_coherency(j, phi)
        report = degree_of_polarization(equalized)
        assert abs(
            fringe_visibility(equalized, np.pi / 4.0) - report.coherence_magnitude
        ) < 1e-10


# ---------------------------------------------------------------------------
# Sphere-separation law for two beams
# ---------------------------------------------------------------------------


def test_pancharatnam_antipodal_beams_never_interfere():
    for delta in (0.0, 0.8, 3.0):
        assert abs(pancharatnam_intensity(1.3, 0.7, np.pi, delta) - 2.0) < 1e-15


def test_pancharatnam_full_constructive():
    assert abs(pancharatnam_intensity(1.0, 1.0, 0.0, 0.0) - 4.0) < 1e-15


def test_pancharatnam_quarter_separation():
    value = pancharatnam_intensity(1.0, 1.0, np.pi / 2.0, 0.0)
    assert abs(value - (2.0 + np.sqrt(2.0))) < 1e-12
    # cross-check against the quantum law at the same half-angle overlap
    a = np.array([1.0, 0.0])
    b = np.array([np.cos(np.pi / 4.0), np.sin(np.pi / 4.0)])
    assert abs(value - quantum_probability(1.0, 1.0, a, b)) < 1e-12


def test_pancharatnam_rejects_bad_input():
    with pytest.raises(ValueError):
        pancharatnam_intensity(-1.0, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        pancharatnam_intensity(1.0, 1.0, 4.0, 0.0)


# ---------------------------------------------------------------------------
# Quantum law
# ---------------------------------------------------------------------------


def test_quantum_probability_orthogonal_branches():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert abs(quantum_probability(HALF, HALF, a, b) - 1.0) < 1e-15


def test_quantum_probability_identical_branches():
    a = np.array([1.0, 0.0])
    assert abs(quantum_probability(HALF, HALF, a, a) - 2.0) < 1e-15
    direct = np.linalg.norm(np.sqrt(2.0) * a) ** 2
    assert abs(quantum_probability(HALF, HALF, a, a) - direct) < 1e-15


def test_quantum_probability_full_destructive():
    a = np.array([0.6, 0.8j])
    assert abs(quantum_probability(HALF, HALF * np.exp(1j * np.pi), a, a)) < 1e-15


def test_quantum_probability_is_an_identity():
    rng = np.random.default_rng(419)
    for _ in range(1000):
        sa, sb = random_state(rng), random_state(rng)
        amp_a = rng.normal() + 1j * rng.normal()
        amp_b = rng.normal() + 1j * rng.normal()
        law = quantum_probability(amp_a, amp_b, sa, sb)
        direct = np.linalg.norm(amp_a * sa + amp_b * sb) ** 2
        assert abs(law - direct) < 1e-12 * max(1.0, direct)


# ---------------------------------------------------------------------------
# Broadcast laws against the one-point oracles
# ---------------------------------------------------------------------------

# Many random points per example: array squaring differs from libm pow in
# roughly one value in a thousand, and these properties must catch it.
_POINTS = 200
# Angles whose squared sine is 0 or a normal double: below about 1e-154 it is
# subnormal, and the power-of-two rescale of J no longer commutes with rounding.
_ANGLES = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-150, max_value=10.0),
        st.floats(min_value=-10.0, max_value=-1e-150),
    ),
    max_size=5,
)
_SEED = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=50, deadline=None)
@given(seed=_SEED, extra=_ANGLES)
def test_classical_laws_are_bitwise_the_one_point_oracles(seed, extra):
    rng = np.random.default_rng(seed)
    j = random_coherency(rng)
    theta = np.concatenate((extra, rng.uniform(-2.0 * np.pi, 2.0 * np.pi, _POINTS)))
    epsilon = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 2)
    intensity = classical_intensity(j, theta[:, None], epsilon)
    visibility = fringe_visibility(j, theta)
    expected = [[scalar_classical_intensity(j, t, e) for e in epsilon] for t in theta]
    assert bitwise_equal(intensity, np.array(expected).reshape(len(theta), len(epsilon)))
    assert bitwise_equal(visibility, np.array([scalar_fringe_visibility(j, t) for t in theta]))


@settings(max_examples=50, deadline=None)
@given(
    seed=_SEED,
    i_a=st.floats(min_value=0.0, max_value=1e6),
    i_b=st.floats(min_value=0.0, max_value=1e6),
    extra=_ANGLES,
)
def test_pancharatnam_law_is_bitwise_the_one_point_oracle(seed, i_a, i_b, extra):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi, _POINTS)
    delta = np.concatenate((extra, rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 3)))
    intensity = pancharatnam_intensity(i_a, i_b, theta[:, None], delta)
    expected = [[scalar_pancharatnam_intensity(i_a, i_b, t, d) for d in delta] for t in theta]
    assert bitwise_equal(intensity, np.array(expected).reshape(len(theta), len(delta)))


@settings(max_examples=50, deadline=None)
@given(seed=_SEED, amplitude_scale=st.floats(min_value=1e-3, max_value=1e3))
def test_quantum_law_is_bitwise_the_one_point_oracle(seed, amplitude_scale):
    rng = np.random.default_rng(seed)
    sa, sb = random_state(rng), random_state(rng)
    parts = rng.normal(size=(2, 2, _POINTS))
    a_amp, b_amp = amplitude_scale * (parts[0] + 1j * parts[1])
    probability = quantum_probability(a_amp, b_amp, sa, sb)
    expected = [scalar_quantum_probability(a, b, sa, sb) for a, b in zip(a_amp, b_amp)]
    assert bitwise_equal(probability, np.array(expected))


def test_scalar_arguments_give_python_floats():
    state = np.array([1.0, 0.0])
    values = (
        classical_intensity(J_WORKED, 0.3, 0.1),
        fringe_visibility(J_WORKED, 0.3),
        pancharatnam_intensity(1.0, 2.0, 0.5, 0.1),
        quantum_probability(0.5, 0.5j, state, state),
    )
    assert all(type(value) is float for value in values)


# ---------------------------------------------------------------------------
# The shared cosine triple
# ---------------------------------------------------------------------------


def test_triple_saturates_for_identical_states_and_full_coherence():
    j = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    a = np.array([0.8, 0.6j])
    assert np.allclose(interference_coefficients(j, a, a), (1.0, 1.0, 1.0), atol=1e-12)


def test_triple_vanishes_for_orthogonal_and_incoherent():
    j = 0.5 * np.eye(2, dtype=complex)
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    coherence, poincare_cosine, bloch_cosine = interference_coefficients(j, a, b)
    assert coherence == 0.0
    assert abs(bloch_cosine) < 1e-12
    assert abs(poincare_cosine) < 1e-7  # sqrt rounding near zero


def test_triple_matches_for_constructed_pairing():
    # |j| built to cos(pi/4) against states separated by theta = pi/2.
    j = np.array([[1.0, HALF], [HALF, 1.0]], dtype=complex)
    a = np.array([1.0, 0.0])
    b = np.array([HALF, HALF])
    assert np.allclose(interference_coefficients(j, a, b), (HALF, HALF, HALF), atol=1e-10)
