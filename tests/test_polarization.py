import itertools

import numpy as np
import pytest

from blochpoincare.bloch import bloch_vector, fubini_study_angle
from blochpoincare.interference import classical_intensity
from blochpoincare.polarization import (
    degree_of_polarization,
    orientation_angle,
    partial_coherence_profile,
    rotate_coherency,
    stokes_from_coherency,
    validate_coherency,
    validate_stokes,
    wiener_decompose,
)
from helpers import (
    bitwise_equal,
    coherence_magnitude,
    coherency_from_stokes,
    conjugate_coherency,
    ellipse_residual,
    random_coherency,
    time_average_quadrature,
)

J_WORKED = np.array([[3.0, 1.0], [1.0, 1.0]], dtype=complex)
HALF = 1.0 / np.sqrt(2.0)


def field_coherency(e0x, e0y, delta_x, delta_y):
    """Coherency E E^dagger of the monochromatic field with these amplitudes and phases."""
    e = np.array([e0x * np.exp(1j * delta_x), e0y * np.exp(1j * delta_y)])
    return np.outer(e, e.conj())


def circular_state(beta, chi):
    """Polarization state on the circular (RC, LC) basis at sphere angles (beta, chi)."""
    return np.array(
        [
            (np.cos(beta) + np.sin(beta)) / np.sqrt(2.0),
            np.exp(2j * chi) * (np.cos(beta) - np.sin(beta)) / np.sqrt(2.0),
        ]
    )


def sphere_stokes(beta, chi, p=1.0):
    """Unit-intensity Stokes vector at latitude 2 beta, longitude 2 chi, polarization p."""
    return np.array(
        [
            1.0,
            p * np.cos(2 * beta) * np.cos(2 * chi),
            p * np.cos(2 * beta) * np.sin(2 * chi),
            p * np.sin(2 * beta),
        ]
    )


# ---------------------------------------------------------------------------
# Fields and Stokes parameters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fields, expected",
    [
        ((1.0, 0.0, 0.3, 0.9), [1, 1, 0, 0]),  # horizontal
        ((0.0, 1.0, 0.3, 0.9), [1, -1, 0, 0]),  # vertical
        ((HALF, HALF, 0.0, 0.0), [1, 0, 1, 0]),  # diagonal
        ((HALF, HALF, np.pi, 0.0), [1, 0, -1, 0]),  # anti-diagonal
        ((HALF, HALF, np.pi / 2.0, 0.0), [1, 0, 0, 1]),  # right circular
        ((HALF, HALF, -np.pi / 2.0, 0.0), [1, 0, 0, -1]),  # left circular
    ],
)
def test_stokes_of_field_reference_beams(fields, expected):
    j = field_coherency(*fields)
    assert np.allclose(stokes_from_coherency(j), expected, atol=1e-15)
    assert abs(degree_of_polarization(j).p - 1.0) < 1e-7  # sqrt of a rounded zero


def test_field_coherency_is_fully_polarized():
    rng = np.random.default_rng(101)
    for _ in range(200):
        fields = (*rng.uniform(0.1, 2.0, size=2), *rng.uniform(0.0, 2.0 * np.pi, size=2))
        s = validate_stokes(stokes_from_coherency(field_coherency(*fields)))
        assert abs(s[0] ** 2 - (s[1] ** 2 + s[2] ** 2 + s[3] ** 2)) < 1e-10
        assert abs(s[2] - 2.0 * fields[0] * fields[1] * np.cos(fields[2] - fields[3])) < 1e-12
        assert abs(s[3] - 2.0 * fields[0] * fields[1] * np.sin(fields[2] - fields[3])) < 1e-12


def test_field_stokes_match_time_average_quadrature():
    # The S parameters are (twice) period averages of real field products;
    # the circular component needs the quarter-period-advanced y field.
    rng = np.random.default_rng(103)
    for _ in range(10):
        e0x, e0y = rng.uniform(0.2, 1.5, size=2)
        dx, dy = rng.uniform(0.0, 2.0 * np.pi, size=2)
        omega = rng.uniform(0.5, 4.0)
        period = 2.0 * np.pi / omega

        def ex(t):
            return e0x * np.cos(omega * t + dx)

        def ey(t, advance=0.0):
            return e0y * np.cos(omega * t + dy + advance)

        n = 4096
        xx = time_average_quadrature(lambda t: ex(t) * ex(t), period, n)
        yy = time_average_quadrature(lambda t: ey(t) * ey(t), period, n)
        xy = time_average_quadrature(lambda t: ex(t) * ey(t), period, n)
        xy_quarter = time_average_quadrature(lambda t: ex(t) * ey(t, np.pi / 2.0), period, n)
        s = stokes_from_coherency(field_coherency(e0x, e0y, dx, dy))
        assert abs(s[0] - 2.0 * (xx + yy)) < 1e-8
        assert abs(s[1] - 2.0 * (xx - yy)) < 1e-8
        assert abs(s[2] - 4.0 * xy) < 1e-8
        assert abs(s[3] - 4.0 * xy_quarter) < 1e-8


# ---------------------------------------------------------------------------
# Polarization ellipse
# ---------------------------------------------------------------------------


def test_ellipse_identity_pointwise():
    assert abs(ellipse_residual(np.pi / 3.0, 0.0, 0.0)) < 1e-10

    rng = np.random.default_rng(107)
    for phase in rng.uniform(0.0, 20.0, size=100):  # circular light
        assert abs(ellipse_residual(np.pi / 2.0, 0.0, float(phase))) < 1e-10

    for phase in np.linspace(0.0, 2.0 * np.pi, 257):  # one full period
        assert abs(ellipse_residual(np.pi / 3.0, 0.0, float(phase))) < 1e-10


# ---------------------------------------------------------------------------
# Sphere parametrization
# ---------------------------------------------------------------------------


def test_circular_basis_state_maps_to_its_stokes_direction():
    # The qubit sphere's Pauli map takes the circular-basis state at
    # (beta, chi) to the Poincare point of the beam with those angles.
    rng = np.random.default_rng(109)
    for _ in range(100):
        beta = rng.uniform(-np.pi / 4.0 + 1e-3, np.pi / 4.0 - 1e-3)
        chi = rng.uniform(0.0, np.pi - 1e-9)
        s = sphere_stokes(beta, chi)
        assert np.max(np.abs(bloch_vector(circular_state(beta, chi)) - s[1:])) < 1e-10
        j = coherency_from_stokes(s)
        assert abs(orientation_angle(j) - chi) < 1e-9
        assert abs(degree_of_polarization(j).p - 1.0) < 1e-7


def test_poincare_metric_matches_chord_to_second_order():
    # |dn|^2 against 4 [d beta^2 + cos^2(2 beta) d chi^2], midpoint form;
    # the geodesic angle between the two states is |dn| to the same order.
    rng = np.random.default_rng(113)
    step = 1e-4
    for _ in range(10):
        beta = rng.uniform(-np.pi / 4.0 + 0.15, np.pi / 4.0 - 0.15)
        chi = rng.uniform(0.1, np.pi - 0.1)
        d_beta = step * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        d_chi = step * rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        a, b = circular_state(beta, chi), circular_state(beta + d_beta, chi + d_chi)
        chord = bloch_vector(b) - bloch_vector(a)
        form = 4.0 * (d_beta**2 + np.cos(2.0 * (beta + d_beta / 2.0)) ** 2 * d_chi**2)
        assert abs(np.dot(chord, chord) - form) / form < 1e-4
        assert abs(fubini_study_angle(a, b) ** 2 - form) / form < 1e-4


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


def test_profile_of_circular_light_is_p_in_every_frame():
    # beta = pi/4 closes the ellipticity range: its coherence is p at any chi.
    for p in (0.0, 0.4, 1.0):
        for chi in (0.0, 0.3, np.pi / 4.0, np.pi - 1e-9):
            assert abs(partial_coherence_profile(np.pi / 4.0, chi, p) - p) < 1e-12


@pytest.mark.parametrize(
    "beta, chi, p",
    [
        (np.pi / 2.0, 0.0, 0.5),
        (-np.pi / 4.0, 0.0, 0.5),
        (np.nan, 0.0, 0.5),
        (0.0, np.pi, 0.5),
        (0.0, -0.1, 0.5),
        (0.0, 0.0, 1.5),
        (0.0, 0.0, -0.1),
    ],
)
def test_profile_rejects_out_of_range_arguments(beta, chi, p):
    with pytest.raises(ValueError, match="outside|must lie in"):
        partial_coherence_profile(beta, chi, p)


def test_profile_vanishes_for_horizontal_linear():
    for p in (0.0, 0.3, 0.9, 0.999):
        assert partial_coherence_profile(0.0, 0.0, p) == 0.0


def test_profile_interior_value_cross_checked_against_constructed_beam():
    beta, chi, p = np.pi / 8.0, np.pi / 8.0, 0.8
    value = partial_coherence_profile(beta, chi, p)
    assert 0.0 < value < p

    # Build the beam explicitly and read the coherence off the matrix.
    s = sphere_stokes(beta, chi, p)
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
        s = sphere_stokes(beta, chi, p)
        expected = np.sqrt((s[2] ** 2 + s[3] ** 2) / (s[0] ** 2 - s[1] ** 2))
        assert abs(partial_coherence_profile(beta, chi, p) - expected) < 1e-12


@pytest.mark.parametrize("j", [np.zeros((2, 2)), np.diag([-1e-10, -1e-10]), np.diag([1e-10, -3e-10])])
def test_a_beam_without_intensity_is_rejected_where_it_is_validated(j):
    # Like validate_stokes with S0 <= 0: every construction that validates the
    # beam rejects it, the decomposition and the interference laws included.
    for construction in (validate_coherency, degree_of_polarization, wiener_decompose):
        with pytest.raises(ValueError, match="total intensity must be positive"):
            construction(j)
    with pytest.raises(ValueError, match="total intensity must be positive"):
        classical_intensity(j, 0.3, 0.0)
