import itertools

import numpy as np
import pytest

from blochpoincare.bloch import states_equal_up_to_phase
from blochpoincare.polarization import (
    FieldAmplitudes,
    coherency_from_stokes,
    degree_of_polarization,
    orientation_angle,
    partial_coherence_profile,
    poincare_from_angles,
    poincare_vector,
    polarization_state_from_angles,
    rotate_coherency,
    stokes_from_coherency,
    stokes_from_fields,
    validate_coherency,
    validate_stokes,
    verify_ellipse_point,
    wiener_decompose,
)
from helpers import (
    bitwise_equal,
    coherence_magnitude,
    conjugate_coherency,
    random_coherency,
    time_average_quadrature,
)

J_WORKED = np.array([[3.0, 1.0], [1.0, 1.0]], dtype=complex)


# ---------------------------------------------------------------------------
# Fields and Stokes parameters
# ---------------------------------------------------------------------------


def test_stokes_from_fields_reference_beams():
    assert np.allclose(
        stokes_from_fields(FieldAmplitudes(1.0, 0.0, 0.3, 0.9, 1.0)), [1, 1, 0, 0]
    )
    s = 1.0 / np.sqrt(2.0)
    circular = FieldAmplitudes(s, s, np.pi / 2.0, 0.0, 1.0)
    assert np.allclose(stokes_from_fields(circular), [1, 0, 0, 1], atol=1e-15)
    diagonal = FieldAmplitudes(s, s, 0.0, 0.0, 1.0)
    assert np.allclose(stokes_from_fields(diagonal), [1, 0, 1, 0], atol=1e-15)


def test_stokes_from_fields_fully_polarized_identity():
    rng = np.random.default_rng(101)
    for _ in range(200):
        f = FieldAmplitudes(
            rng.uniform(0.1, 2.0),
            rng.uniform(0.1, 2.0),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0.5, 5.0),
        )
        s = validate_stokes(stokes_from_fields(f))
        assert abs(s[0] ** 2 - (s[1] ** 2 + s[2] ** 2 + s[3] ** 2)) < 1e-10


def test_stokes_match_time_average_quadrature():
    # The S parameters are (twice) period averages of real field products;
    # the circular component needs the quarter-period-advanced y field.
    rng = np.random.default_rng(103)
    for _ in range(10):
        f = FieldAmplitudes(
            rng.uniform(0.2, 1.5),
            rng.uniform(0.2, 1.5),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0.5, 4.0),
        )
        shifted = FieldAmplitudes(f.e0x, f.e0y, f.delta_x, f.delta_y + np.pi / 2.0, f.omega)
        n = 4096
        xx = time_average_quadrature(lambda t: f.ex(t) * f.ex(t), f.period, n)
        yy = time_average_quadrature(lambda t: f.ey(t) * f.ey(t), f.period, n)
        xy = time_average_quadrature(lambda t: f.ex(t) * f.ey(t), f.period, n)
        xy_quarter = time_average_quadrature(
            lambda t: f.ex(t) * shifted.ey(t), f.period, n
        )
        s = stokes_from_fields(f)
        assert abs(s[0] - 2.0 * (xx + yy)) < 1e-8
        assert abs(s[1] - 2.0 * (xx - yy)) < 1e-8
        assert abs(s[2] - 4.0 * xy) < 1e-8
        assert abs(s[3] - 4.0 * xy_quarter) < 1e-8


def test_field_amplitudes_validation():
    with pytest.raises(ValueError):
        FieldAmplitudes(-1.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        FieldAmplitudes(0.0, 0.0, 0.0, 0.0, 1.0)


def test_ellipse_identity_pointwise():
    f = FieldAmplitudes(1.0, 0.5, np.pi / 3.0, 0.0, 2.0)
    assert abs(verify_ellipse_point(f, 0.0)) < 1e-10

    s = 1.0 / np.sqrt(2.0)
    circular = FieldAmplitudes(s, s, np.pi / 2.0, 0.0, 1.0)
    rng = np.random.default_rng(107)
    for t in rng.uniform(0.0, 20.0, size=100):
        assert abs(verify_ellipse_point(circular, float(t))) < 1e-10

    # full-period sweep doubles as the time-average oracle input
    for t in np.linspace(0.0, f.period, 257):
        assert abs(verify_ellipse_point(f, float(t))) < 1e-10


# ---------------------------------------------------------------------------
# Sphere parametrization
# ---------------------------------------------------------------------------


def test_poincare_from_angles_reference_points():
    assert np.allclose(poincare_from_angles(np.pi / 4.0, 0.7), [1, 0, 0, 1], atol=1e-15)
    assert np.allclose(poincare_from_angles(0.0, 0.0), [1, 1, 0, 0])
    assert np.allclose(poincare_from_angles(0.0, np.pi / 4.0), [1, 0, 1, 0], atol=1e-15)


def test_poincare_from_angles_rejects_out_of_range():
    with pytest.raises(ValueError):
        poincare_from_angles(np.pi / 2.0, 0.0)
    with pytest.raises(ValueError):
        poincare_from_angles(0.0, np.pi)
    with pytest.raises(ValueError):
        poincare_from_angles(0.0, 0.0, s0=0.0)


def test_polarization_state_circular_basis_points():
    # Poles are the circular basis vectors; equator points are linear states.
    assert np.allclose(polarization_state_from_angles(np.pi / 4.0, 0.0), [1.0, 0.0])
    s = 1.0 / np.sqrt(2.0)
    horizontal = np.array([s, s])
    vertical = np.array([1j * s, -1j * s])
    assert states_equal_up_to_phase(polarization_state_from_angles(0.0, 0.0), horizontal)
    assert states_equal_up_to_phase(
        polarization_state_from_angles(0.0, np.pi / 2.0), vertical
    )
    # Circular-basis relation RC = (HL - i VL)/sqrt(2), exactly.
    rc = (horizontal - 1j * vertical) / np.sqrt(2.0)
    assert np.allclose(rc, [1.0, 0.0], atol=1e-15)


def test_polarization_state_matches_stokes_parametrization():
    rng = np.random.default_rng(109)
    for _ in range(100):
        beta = rng.uniform(-np.pi / 4.0 + 1e-6, np.pi / 4.0)
        chi = rng.uniform(0.0, np.pi - 1e-9)
        vec = poincare_vector(polarization_state_from_angles(beta, chi))
        stokes = poincare_from_angles(beta, chi)
        assert np.max(np.abs(vec - stokes[1:])) < 1e-10


def test_poincare_metric_matches_chord_to_second_order():
    # |dn|^2 against 4 [d beta^2 + cos^2(2 beta) d chi^2], midpoint form.
    rng = np.random.default_rng(113)
    step = 1e-4
    for _ in range(10):
        beta = rng.uniform(-np.pi / 4.0 + 0.15, np.pi / 4.0 - 0.15)
        chi = rng.uniform(0.1, np.pi - 0.1)
        d_beta = step * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        d_chi = step * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        chord = poincare_vector(
            polarization_state_from_angles(beta + d_beta, chi + d_chi)
        ) - poincare_vector(polarization_state_from_angles(beta, chi))
        form = 4.0 * (
            d_beta**2 + np.cos(2.0 * (beta + d_beta / 2.0)) ** 2 * d_chi**2
        )
        assert abs(np.dot(chord, chord) - form) / form < 1e-4


# ---------------------------------------------------------------------------
# Stokes <-> coherency
# ---------------------------------------------------------------------------


def test_coherency_from_stokes_reference_values():
    assert np.allclose(
        coherency_from_stokes([1, 0, 1, 0]), np.array([[0.5, 0.5], [0.5, 0.5]])
    )
    assert np.allclose(coherency_from_stokes([1, 1, 0, 0]), np.diag([1.0, 0.0]))
    assert np.allclose(coherency_from_stokes([2, 0, 0, 0]), np.eye(2))


def test_stokes_from_coherency_reference_values():
    assert np.allclose(
        stokes_from_coherency(np.array([[0.5, 0.5], [0.5, 0.5]])), [1, 0, 1, 0]
    )
    assert np.allclose(stokes_from_coherency(np.diag([1.0, 0.0])), [1, 1, 0, 0])
    assert np.allclose(stokes_from_coherency(np.eye(2)), [2, 0, 0, 0])


def test_round_trip_stokes_coherency():
    rng = np.random.default_rng(127)
    for _ in range(1000):
        j = random_coherency(rng)
        assert np.max(np.abs(coherency_from_stokes(stokes_from_coherency(j)) - j)) < 1e-12
        s = validate_stokes(stokes_from_coherency(j))
        assert np.max(np.abs(stokes_from_coherency(coherency_from_stokes(s)) - s)) < 1e-12


def test_coherency_pauli_expansion_identity():
    # J equals half the Stokes-weighted operator sum over (I, sz, sx, -sy).
    rng = np.random.default_rng(131)
    basis = (
        np.eye(2),
        np.array([[1, 0], [0, -1]], dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        -np.array([[0, -1j], [1j, 0]], dtype=complex),
    )
    for _ in range(100):
        j = random_coherency(rng)
        s = stokes_from_coherency(j)
        rebuilt = 0.5 * sum(si * op for si, op in zip(s, basis))
        assert np.max(np.abs(rebuilt - j)) < 1e-12


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e155, 1e160, 1e300])
def test_validate_coherency_schwarz_verdict_is_scale_free(scale):
    # The determinant of the first matrix is negative; unformed on J / 2**k
    # its Schwarz term is inf - inf = NaN from about 1e155.
    if scale >= 1.0:
        with pytest.raises(ValueError, match=r"Schwarz bound\) \(residual "):
            validate_coherency(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
    valid = scale * np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.0]])
    assert np.array_equal(validate_coherency(valid), valid)


def test_validate_coherency_rejects_invalid():
    with pytest.raises(ValueError):
        validate_coherency(np.array([[1.0, 0.5], [0.2, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        validate_coherency(np.array([[1.0, 2.0], [2.0, 1.0]]))  # Schwarz violated
    with pytest.raises(ValueError):
        validate_stokes([1.0, 1.0, 1.0, 0.2])


def _first_rejection(rows):
    """The one-vector message of the first row rejected, in order, or None."""
    for row in rows:
        try:
            validate_stokes(row)
        except ValueError as exc:
            return str(exc)
    return None


def _stack_rejection(rows):
    try:
        assert bitwise_equal(validate_stokes(rows), np.asarray(rows, dtype=float))
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_validate_stokes_stack_reports_its_first_invalid_row(order):
    invalid = [[1.0, 1.0, 1.0, 0.2], [1.0, np.nan, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
    rows = [[2.0, 0.5, -1.0, 0.3], [1.0, 1.0, 0.0, 0.0]] + [invalid[i] for i in order]
    assert _stack_rejection(rows) == _first_rejection(rows) is not None
    assert _stack_rejection(rows[:2]) is None
    assert validate_stokes(rows[0]).shape == validate_stokes(rows[:1]).shape == (4,)


def _rejection(stokes, tol):
    try:
        validate_stokes(stokes, tol)
    except ValueError as exc:
        return str(exc)
    return None


def test_validate_stokes_stack_at_the_bound_is_each_rows_check():
    # Squares on arrays and on scalars can round an ulp apart. For rows whose
    # sums of squares differ so, a bound placed ulps around the scalar sum
    # must still give a stack of that row the one-vector verdict and message.
    rng = np.random.default_rng(263)
    directions = rng.normal(size=(20000, 3))
    directions *= np.sqrt(1.5) / np.linalg.norm(directions, axis=1)[:, None]
    batched = directions[:, 0] ** 2 + directions[:, 1] ** 2 + directions[:, 2] ** 2
    scalar = np.array([d[0] ** 2 + d[1] ** 2 + d[2] ** 2 for d in directions])
    split = batched != scalar
    assert split.any()
    for direction, polarized in zip(directions[split], scalar[split]):
        row = np.concatenate(([1.0], direction))
        for ulps in range(-2, 3):
            tol = polarized - 1.0 + ulps * 2.0**-52  # the bound 1 + tol, exactly
            stack = np.stack(([1.0, 0.0, 0.0, 0.0], row))
            assert _rejection(stack, tol) == _rejection(row, tol)


# ---------------------------------------------------------------------------
# Degree of polarization and coherence
# ---------------------------------------------------------------------------


def test_degree_of_polarization_reference_beams():
    natural = degree_of_polarization(np.eye(2, dtype=complex))
    assert natural.p < 1e-12
    assert natural.coherence_magnitude == 0.0

    linear = degree_of_polarization(np.diag([1.0, 0.0]).astype(complex))
    assert abs(linear.p - 1.0) < 1e-12

    worked = degree_of_polarization(J_WORKED)
    assert abs(worked.p - np.sqrt(0.5)) < 1e-12
    assert abs(worked.coherence_magnitude - 1.0 / np.sqrt(3.0)) < 1e-12
    assert abs(worked.total_intensity - 4.0) < 1e-12
    assert abs(worked.polarized_intensity - 2.0 * np.sqrt(2.0)) < 1e-12


def test_degree_of_polarization_is_grid_search_maximum_of_coherence():
    # P re-derived as the best coherence over all frames.
    phis = np.linspace(0.0, np.pi, 100001)
    best = max(coherence_magnitude(conjugate_coherency(J_WORKED, p)) for p in phis)
    assert abs(best - degree_of_polarization(J_WORKED).p) < 1e-7


def test_degree_of_polarization_rotation_invariant():
    rng = np.random.default_rng(137)
    for _ in range(200):
        j = random_coherency(rng)
        phi = rng.uniform(0.0, np.pi)
        before = degree_of_polarization(j).p
        after = degree_of_polarization(rotate_coherency(j, phi)).p
        assert abs(before - after) < 1e-10


def test_coherence_bounded_by_polarization():
    rng = np.random.default_rng(139)
    for _ in range(500):
        j = random_coherency(rng)
        report = degree_of_polarization(j)
        assert report.coherence_magnitude <= report.p + 1e-9
        # equality only in the equal-intensity frame
        if abs((j[0, 0] - j[1, 1]).real) > 1e-3:
            assert report.coherence_magnitude < report.p - 1e-12


def test_coherence_reaches_polarization_at_equal_intensities():
    rng = np.random.default_rng(149)
    for _ in range(200):
        j = random_coherency(rng)
        equalized = rotate_coherency(
            j, 0.5 * np.arctan2((j[1, 1] - j[0, 0]).real, (j[0, 1] + j[1, 0]).real)
        )
        report = degree_of_polarization(equalized)
        assert abs(report.coherence_magnitude - report.p) < 1e-9


def test_degree_of_polarization_rejects_zero_trace():
    with pytest.raises(ValueError):
        degree_of_polarization(np.zeros((2, 2), dtype=complex))


# ---------------------------------------------------------------------------
# Natural + polarized decomposition
# ---------------------------------------------------------------------------


def test_wiener_decompose_natural_light():
    d = wiener_decompose(np.eye(2, dtype=complex))
    assert abs(d.natural_level - 1.0) < 1e-12
    assert d.major_intensity < 1e-12 and d.minor_intensity < 1e-12
    assert d.orientation == 0.0


def test_wiener_decompose_fully_polarized_circular():
    j = np.array([[1.0, -1j], [1j, 1.0]], dtype=complex)
    d = wiener_decompose(j)
    assert d.natural_level < 1e-12
    assert abs(d.major_intensity + d.minor_intensity - 2.0) < 1e-12
    assert abs(d.cross_amplitude + 1.0) < 1e-12  # left-handed: AB = -1


def test_wiener_decompose_worked_beam():
    d = wiener_decompose(J_WORKED)
    assert abs(d.orientation - np.pi / 8.0) < 1e-12
    assert abs(d.polarized_intensity - 2.0 * np.sqrt(2.0)) < 1e-10
    assert abs(d.natural_level - (2.0 - np.sqrt(2.0))) < 1e-10


def test_wiener_reconstruction_residual():
    rng = np.random.default_rng(151)
    c, s = np.cos, np.sin
    for _ in range(300):
        j = random_coherency(rng)
        d = wiener_decompose(j)
        chi = d.orientation
        t = np.array([[c(chi), s(chi)], [s(chi), -c(chi)]])
        assert np.max(np.abs(t @ j @ t - d.principal_matrix)) < 1e-10
        # the polarized part is fully polarized, the natural part isotropic
        assert abs(np.linalg.det(d.polarized_matrix)) < 1e-10
        report = degree_of_polarization(j)
        assert abs(d.polarized_intensity - report.polarized_intensity) < 1e-10


def test_orientation_angle_range_and_degenerate_case():
    rng = np.random.default_rng(157)
    for _ in range(200):
        chi = orientation_angle(random_coherency(rng))
        assert 0.0 <= chi < np.pi
    assert orientation_angle(np.eye(2, dtype=complex)) == 0.0


# ---------------------------------------------------------------------------
# Partially polarized coherence profile
# ---------------------------------------------------------------------------


def test_profile_maximum_is_p_at_quarter_orientation():
    rng = np.random.default_rng(163)
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        for _ in range(20):
            beta = rng.uniform(-np.pi / 4.0 + 1e-9, np.pi / 4.0)
            assert abs(partial_coherence_profile(beta, np.pi / 4.0, p) - p) < 1e-12


def test_profile_vanishes_for_horizontal_linear():
    for p in (0.0, 0.3, 0.9, 0.999):
        assert partial_coherence_profile(0.0, 0.0, p) == 0.0


def test_profile_interior_value_cross_checked_against_constructed_beam():
    beta, chi, p = np.pi / 8.0, np.pi / 8.0, 0.8
    value = partial_coherence_profile(beta, chi, p)
    assert 0.0 < value < p

    # Build the beam explicitly and read the coherence off the matrix.
    s = np.array(
        [
            1.0,
            p * np.cos(2 * beta) * np.cos(2 * chi),
            p * np.cos(2 * beta) * np.sin(2 * chi),
            p * np.sin(2 * beta),
        ]
    )
    direct = degree_of_polarization(coherency_from_stokes(s)).coherence_magnitude
    assert abs(value - direct) < 1e-12

    # Same beam built at zero orientation, then rotated into place.
    s0 = np.array([1.0, p * np.cos(2 * beta), 0.0, p * np.sin(2 * beta)])
    rotated = rotate_coherency(coherency_from_stokes(s0), -chi)
    assert abs(
        degree_of_polarization(rotated).coherence_magnitude - value
    ) < 1e-12


def test_profile_matches_stokes_form():
    # |j| from the sphere-angle formula equals sqrt((S2^2+S3^2)/(S0^2-S1^2)).
    rng = np.random.default_rng(167)
    for _ in range(200):
        beta = rng.uniform(-np.pi / 4.0 + 1e-6, np.pi / 4.0)
        chi = rng.uniform(0.0, np.pi - 1e-9)
        p = rng.uniform(0.0, 0.999)
        s = np.array(
            [
                1.0,
                p * np.cos(2 * beta) * np.cos(2 * chi),
                p * np.cos(2 * beta) * np.sin(2 * chi),
                p * np.sin(2 * beta),
            ]
        )
        expected = np.sqrt((s[2] ** 2 + s[3] ** 2) / (s[0] ** 2 - s[1] ** 2))
        assert abs(partial_coherence_profile(beta, chi, p) - expected) < 1e-12
