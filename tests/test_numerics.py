import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochpoincare.numerics import (
    PAULI_Y,
    PAULI_Z,
    gate,
    matrix_exponential_su2,
    su2_propagators,
)
from blochpoincare.speed_limit import Hamiltonian2, evolve_states
from helpers import (
    bitwise_equal,
    coherence_magnitude,
    conjugate_coherency,
    grid_search_max,
    random_state,
    random_su2,
    scalar_su2_exponential,
    series_expm,
    time_average_quadrature,
)

# Pauli components whose sum of squares stays a normal double: there the
# kernel takes the same plain norm as the scalar oracle.
_COMPONENT = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-100, max_value=1e100),
    st.floats(min_value=-1e100, max_value=-1e-100),
)


def test_gate_fails_on_nan_and_on_nan_inside_max():
    with pytest.raises(RuntimeError):
        gate(float("nan"), 1.0, "scalar")
    with pytest.raises(ValueError):
        gate(np.max(np.array([0.0, np.nan, 0.5])), 1.0, "array", ValueError)
    with pytest.raises(RuntimeError):
        gate(0.0, float("nan"), "bound")


def test_gate_lower_bound_form_passes_exactly_at_the_bound():
    value = bound = 1.0 - 1e-9
    gate(-value, -bound, "at the bound")
    with pytest.raises(RuntimeError):
        gate(-np.nextafter(bound, 0.0), -bound, "one ulp below")


def test_gate_message_carries_the_text_the_residual_and_the_bound():
    with pytest.raises(ArithmeticError, match=r"^drift too large \(residual 0\.5, bound 0\.25\)$"):
        gate(np.float64(0.5), 0.25, "drift too large", ArithmeticError)


def test_exponential_of_zero_is_identity():
    u = matrix_exponential_su2(np.zeros((2, 2)), 3.7)
    assert np.allclose(u, np.eye(2), atol=1e-15)


def test_exponential_sigma_y_quarter_turn():
    e0 = 1.3
    h = (e0 / 2.0) * PAULI_Y
    t = np.pi / (2.0 * e0)
    u = matrix_exponential_su2(h, t)

    # Independent series oracle (scaled 4th-order Taylor, squared back).
    oracle = series_expm(-1j * h * t)
    assert np.max(np.abs(u - oracle)) < 1e-10
    assert np.max(np.abs(u - scipy.linalg.expm(-1j * h * t))) < 1e-12

    mapped = u @ np.array([1.0, 0.0])
    assert np.allclose(mapped, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-12)


def test_exponential_sigma_z_periods():
    # The eigenphase difference completes a period at t = pi (eigenvalues
    # +-1), where the operator is -I; the 2*pi point is back to +I.
    assert np.allclose(matrix_exponential_su2(PAULI_Z, np.pi), -np.eye(2), atol=1e-12)
    assert np.allclose(
        matrix_exponential_su2(PAULI_Z, 2.0 * np.pi), np.eye(2), atol=1e-12
    )


def test_exponential_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        matrix_exponential_su2(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_exponential_unitarity_and_group_law():
    rng = np.random.default_rng(42)
    for _ in range(100):
        h = rng.normal() * random_su2(rng)  # random direction, random scale
        h = (h + h.conj().T) / 2.0
        t1, t2 = rng.normal(), rng.normal()
        u1 = matrix_exponential_su2(h, t1)
        u2 = matrix_exponential_su2(h, t2)
        u12 = matrix_exponential_su2(h, t1 + t2)
        assert np.max(np.abs(u1.conj().T @ u1 - np.eye(2))) < 1e-12
        assert np.max(np.abs(u1 @ u2 - u12)) < 1e-11


def test_grid_search_parabola_vertex():
    x, v = grid_search_max(lambda x: -((x - 1.0) ** 2), 0.0, 2.0, 10001)
    assert abs(x - 1.0) < 1e-6
    assert abs(v) < 1e-12


def test_grid_search_sine_peak():
    x, _ = grid_search_max(np.sin, 0.0, np.pi, 10001)
    assert abs(x - np.pi / 2.0) < 1e-6


def test_grid_search_refinement_beats_grid_spacing():
    # concave quadratic with an off-grid vertex
    vertex = 0.123456789
    n = 101
    x, _ = grid_search_max(lambda x: -((x - vertex) ** 2), 0.0, 1.0, n)
    assert abs(x - vertex) < 1.0 / n + 1e-9


def test_grid_search_coherence_rotation_profile():
    # The searched maximum of |j_xy| over frame rotations must land on the
    # degree of polarization sqrt(1/2) of this beam.
    j = np.array([[3.0, 1.0], [1.0, 1.0]], dtype=complex)

    def objective(phi):
        return coherence_magnitude(conjugate_coherency(j, phi))

    _, peak = grid_search_max(objective, 0.0, np.pi, 10001)
    assert abs(peak - np.sqrt(0.5)) < 1e-7


def test_grid_search_rejects_non_finite():
    with pytest.raises(ValueError, match="x="):
        grid_search_max(lambda x: np.nan, 0.0, 1.0, 11)


def test_time_average_cos_squared():
    omega = 2.0
    period = 2.0 * np.pi / omega
    avg = time_average_quadrature(lambda t: np.cos(omega * t) ** 2, period, 4096)
    assert abs(avg - 0.5) < 1e-10


def test_time_average_orthogonality():
    omega = 3.0
    period = 2.0 * np.pi / omega
    avg = time_average_quadrature(
        lambda t: np.cos(omega * t) * np.sin(omega * t), period, 4096
    )
    assert abs(avg) < 1e-10


def test_time_average_product_to_sum():
    # <cos(wt + dx) cos(wt + dy)> = cos(dx - dy)/2 over one period
    omega, dx, dy = 3.0, 0.7, 0.2
    period = 2.0 * np.pi / omega
    avg = time_average_quadrature(
        lambda t: np.cos(omega * t + dx) * np.cos(omega * t + dy), period, 4096
    )
    assert abs(avg - 0.5 * np.cos(dx - dy)) < 1e-10


def test_time_average_rejects_non_finite():
    with pytest.raises(ValueError, match="t="):
        time_average_quadrature(lambda t: np.nan if t > 0.5 else 1.0, 1.0, 8)


@settings(max_examples=200, deadline=None)
@given(
    components=st.tuples(_COMPONENT, _COMPONENT, _COMPONENT, _COMPONENT),
    times=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20),
    hbar=st.floats(min_value=1e-3, max_value=1e3).filter(lambda x: x != 1.0),
)
def test_propagator_rows_are_bitwise_the_scalar_exponential(components, times, hbar):
    a0, ax, ay, az = components
    h = np.array([[a0 + az, complex(ax, -ay)], [complex(ax, ay), a0 - az]])
    rows = su2_propagators(h, times, hbar=hbar)
    assert rows.shape == (len(times), 2, 2)
    for row, t in zip(rows, times):
        assert bitwise_equal(row, scalar_su2_exponential(h, t, hbar=hbar))
        assert bitwise_equal(matrix_exponential_su2(h, t, hbar=hbar), row)


@settings(max_examples=200, deadline=None)
@given(
    components=st.tuples(*(st.floats(min_value=-1e3, max_value=1e3),) * 4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    times=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20),
    hbar=st.floats(min_value=1e-3, max_value=1e3).filter(lambda x: x != 1.0),
)
# A subnormal Pauli norm, by which numpy's complex division returns NaN.
@example(components=(0.0, 0.0, 0.0, 2.2250738585e-313), seed=0, times=[0.0], hbar=2.0)
def test_evolved_states_are_bitwise_the_scalar_propagator_applied(components, seed, times, hbar):
    a0, ax, ay, az = components
    h = np.array([[a0 + az, complex(ax, -ay)], [complex(ax, ay), a0 - az]])
    state = random_state(np.random.default_rng(seed))
    states = evolve_states(Hamiltonian2(h), state, times, hbar=hbar)
    assert states.shape == (len(times), 2)
    for evolved, t in zip(states, times):
        assert bitwise_equal(evolved, scalar_su2_exponential(h, t, hbar=hbar) @ state)
