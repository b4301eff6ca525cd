import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpoincare.bloch import (
    bloch_vector,
    bloch_vectors,
    fidelities,
    fidelity,
    fubini_study_angle,
    is_normalized,
    orthogonal_state,
)
from helpers import (
    bitwise_equal,
    random_state,
    scalar_bloch_vector,
    scalar_fidelity,
    scalar_is_normalized,
    scalar_sphere_angle,
    state_from_angles,
    states_equal_up_to_phase,
)


def test_state_from_angles_poles_and_equator():
    assert np.allclose(state_from_angles(0.0, 0.0), [1.0, 0.0])
    assert np.allclose(state_from_angles(np.pi, 0.0), [0.0, 1.0])
    assert np.allclose(
        state_from_angles(np.pi / 2.0, np.pi / 2.0),
        [1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)],
    )


def test_bloch_vector_and_geodesic_angle_read_back_the_sphere_angles():
    rng = np.random.default_rng(11)
    north = np.array([1.0, 0.0])
    for _ in range(200):
        theta = rng.uniform(1e-3, np.pi - 1e-3)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        state = state_from_angles(theta, phi)
        expected = [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        assert np.max(np.abs(bloch_vector(state) - expected)) < 1e-12
        assert abs(fubini_study_angle(north, state) - theta) < 1e-10


def test_bloch_vector_cardinal_states():
    assert np.allclose(bloch_vector([1.0, 0.0]), [0.0, 0.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(bloch_vector([s, s]), [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(bloch_vector([s, 1j * s]), [0.0, 1.0, 0.0], atol=1e-15)


def test_bloch_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        bloch_vector([1.0, 1.0])


def test_bloch_vector_unit_length():
    rng = np.random.default_rng(5)
    for _ in range(500):
        v = bloch_vector(random_state(rng))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_fubini_study_angle_reference_values():
    a = np.array([1.0, 0.0])
    assert fubini_study_angle(a, a) == 0.0
    assert abs(fubini_study_angle(a, [0.0, 1.0]) - np.pi) < 1e-15
    s = 1.0 / np.sqrt(2.0)
    assert abs(fubini_study_angle(a, [s, s]) - np.pi / 2.0) < 1e-14


def test_fubini_study_phase_invariance():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, b = random_state(rng), random_state(rng)
        base = fubini_study_angle(a, b)
        ga, gb = np.exp(1j * rng.uniform(0, 2 * np.pi)), np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert abs(fubini_study_angle(ga * a, gb * b) - base) < 1e-14


def test_sphere_metric_matches_chord_to_second_order():
    # |dn|^2 against d theta^2 + sin^2(theta) d phi^2, midpoint evaluation.
    rng = np.random.default_rng(31)
    step = 1e-4
    for _ in range(10):
        theta = rng.uniform(0.3, np.pi - 0.3)
        phi = rng.uniform(0.1, 2.0 * np.pi - 0.1)
        d_theta = step * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        d_phi = step * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        chord = bloch_vector(state_from_angles(theta + d_theta, phi + d_phi)) - bloch_vector(
            state_from_angles(theta, phi)
        )
        form = d_theta**2 + np.sin(theta + d_theta / 2.0) ** 2 * d_phi**2
        assert abs(np.dot(chord, chord) - form) / form < 1e-4


def test_orthogonal_state_is_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s = random_state(rng)
        assert abs(np.vdot(s, orthogonal_state(s))) < 1e-15


def test_equal_up_to_phase_comparator():
    s = np.array([0.6, 0.8j])
    assert states_equal_up_to_phase(s, np.exp(1j * 1.234) * s)
    assert not states_equal_up_to_phase(s, np.array([0.8, 0.6j]))


_PART = st.floats(min_value=-10.0, max_value=10.0)
_STATE = st.tuples(_PART, _PART, _PART, _PART).map(
    lambda p: np.array([complex(p[0], p[1]), complex(p[2], p[3])])
)


@settings(max_examples=200, deadline=None)
@given(a=_STATE, states=st.lists(_STATE, min_size=1, max_size=20))
def test_batched_bloch_vectors_and_fidelities_are_bitwise_the_scalar_ones(a, states):
    stack = np.array(states)
    vectors, values = bloch_vectors(stack), fidelities(a, stack)
    assert vectors.shape == (len(states), 3) and values.shape == (len(states),)
    for state, vector, value in zip(states, vectors, values):
        assert bitwise_equal(vector, scalar_bloch_vector(state))
        assert bitwise_equal(value, np.float64(scalar_fidelity(a, state)))
        assert fidelity(a, state) == value


_UNIT = _STATE.filter(lambda s: np.linalg.norm(s) > 1e-3).map(lambda s: s / np.linalg.norm(s))


@st.composite
def _pairs(draw):
    """Two vectors: random unit states, near-coincident rays, or raw parts.

    The "rescaled" pairs put the second squared norm on both sides of the unit-norm bound.
    """
    kind = draw(st.sampled_from(("random", "near", "rescaled", "raw")))
    if kind == "raw":
        return draw(_STATE), draw(_STATE)
    a = draw(_UNIT)
    if kind == "random":
        return a, draw(_UNIT)
    if kind == "rescaled":
        return a, a * (1.0 + draw(st.floats(-3e-12, 3e-12)))
    phase = draw(st.floats(min_value=0.0, max_value=2.0 * np.pi))
    b = a * np.exp(1j * phase) + draw(_STATE) * 10.0 ** draw(st.floats(-17.0, -3.0))
    return a, b / np.linalg.norm(b)


def _angle_or_error(angle, a, b):
    try:
        return np.float64(angle(a, b))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(pair=_pairs())
def test_scalar_kernels_are_bitwise_their_independent_oracles(pair):
    a, b = pair
    value = fidelity(a, b)
    assert type(value) is float
    assert bitwise_equal(np.float64(value), np.float64(scalar_fidelity(a, b)))
    for state in (a, b):
        assert is_normalized(state) is scalar_is_normalized(state)
    angle, oracle = (_angle_or_error(f, a, b) for f in (fubini_study_angle, scalar_sphere_angle))
    assert angle == oracle if isinstance(oracle, str) else bitwise_equal(angle, oracle)
