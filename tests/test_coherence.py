import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpoincare.coherence import (
    OpticalScenario,
    QuantumScenario,
    RotationSolution,
    bisector_geometry,
    correspondence_report,
    optimal_rotation,
    stokes_rotation_check,
)
from blochpoincare.polarization import (
    degree_of_polarization,
    rotate_coherency,
    stokes_from_coherency,
)
from blochpoincare.speed_limit import (
    efficiency,
    evolve_state,
    geodesic_state,
    synthesize_min_time,
)
from helpers import coherence_vs_rotation, random_coherency

J_WORKED = np.array([[3.0, 1.0], [1.0, 1.0]], dtype=complex)
ZERO = np.array([1.0, 0.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
PLUS_I = np.array([1.0, 1j]) / np.sqrt(2.0)


def make_quantum_scenario(target=PLUS, e0=1.0, samples=101, detour=False):
    synthesis = synthesize_min_time(ZERO, target, e0)
    if detour:
        half = [geodesic_state(ZERO, PLUS_I, 1.0, t) for t in np.linspace(0.0, np.pi / 4.0, 51)]
        back = [
            geodesic_state(PLUS_I, target, 1.0, t)
            for t in np.linspace(0.0, np.pi / 4.0, 51)
        ][1:]
        trajectory = half + back
    else:
        trajectory = [
            evolve_state(synthesis.hamiltonian, ZERO, float(t))
            for t in np.linspace(0.0, synthesis.t_min, samples)
        ]
    return QuantumScenario(
        synthesis=synthesis,
        efficiency=efficiency(trajectory),
        initial_state=ZERO,
        final_state=target,
    )


def make_optical_scenario(j=J_WORKED, phi=None):
    solution = optimal_rotation(j)
    if phi is not None:
        rotated = rotate_coherency(j, phi)
        solution = RotationSolution(
            phi_opt=phi,
            j_before=solution.j_before,
            j_after=degree_of_polarization(rotated).coherence_magnitude,
            p=solution.p,
            chi=solution.chi,
        )
    return OpticalScenario(coherency=j, rotation=solution)


# ---------------------------------------------------------------------------
# Optimal rotation
# ---------------------------------------------------------------------------


def test_already_equalized_beam_needs_no_rotation():
    j = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 1.0]], dtype=complex)
    assert optimal_rotation(j).phi_opt == 0.0


def test_optimal_rotation_worked_beam():
    solution = optimal_rotation(J_WORKED)
    assert abs(solution.phi_opt + np.pi / 8.0) < 1e-12
    assert abs(solution.j_after - np.sqrt(0.5)) < 1e-12
    assert abs(solution.p - np.sqrt(0.5)) < 1e-12
    assert abs(solution.j_before - 1.0 / np.sqrt(3.0)) < 1e-12
    assert abs(solution.chi - np.pi / 8.0) < 1e-12
    # Dense grid search confirms both the maximum and its location lattice.
    phis = np.linspace(0.0, np.pi, 1_000_000, endpoint=False)
    values = coherence_vs_rotation(J_WORKED, phis)
    best = phis[np.argmax(values)]
    assert abs(values.max() - solution.p) < 1e-7
    lattice_offset = (best - solution.phi_opt) % (np.pi / 2.0)
    assert min(lattice_offset, np.pi / 2.0 - lattice_offset) < 1e-5


def test_optimal_rotation_linear_horizontal():
    solution = optimal_rotation(np.diag([1.0, 0.0]).astype(complex))
    assert abs(abs(solution.phi_opt) - np.pi / 4.0) < 1e-12
    assert abs(solution.j_after - 1.0) < 1e-12
    # direct conjugation: rotating linear light by 45 deg equalizes arms
    rotated = rotate_coherency(np.diag([1.0, 0.0]).astype(complex), solution.phi_opt)
    assert abs((rotated[0, 0] - rotated[1, 1]).real) < 1e-12


def test_optimal_rotation_branch_is_canonical():
    rng = np.random.default_rng(311)
    for _ in range(300):
        j = random_coherency(rng, min_p=0.05)
        phi = optimal_rotation(j).phi_opt
        assert -np.pi / 4.0 < phi <= np.pi / 4.0


def test_optimal_rotation_attains_the_grid_maximum():
    rng = np.random.default_rng(313)
    phis = np.linspace(0.0, np.pi, 16384, endpoint=False)
    for _ in range(500):
        j = random_coherency(rng, min_p=0.05)
        solution = optimal_rotation(j)
        values = coherence_vs_rotation(j, phis)
        assert abs(values.max() - solution.p) < 1e-7
        best = phis[np.argmax(values)]
        offset = (best - solution.phi_opt) % (np.pi / 2.0)
        assert min(offset, np.pi / 2.0 - offset) < 2e-4
        assert abs(solution.j_after - solution.p) < 1e-9


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.5, 2.0),
    st.floats(1e-3, 1.0),
    st.floats(0.0, np.pi),
    st.floats(0.0, 2.0 * np.pi),
)
def test_optimal_rotation_reaches_the_eigenvalue_degree_of_polarization(intensity, p, theta, phi):
    # A unit-scale beam of intensity S0 and degree P, its Stokes vector along (theta, phi).
    s1, s2, s3 = intensity * p * np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    j = 0.5 * np.array([[intensity + s1, s2 - 1j * s3], [s2 + 1j * s3, intensity - s1]])
    low, high = np.linalg.eigvalsh(j)
    oracle = (high - low) / (high + low)
    solution = optimal_rotation(j)
    assert solution.p == pytest.approx(oracle, rel=1e-9)
    assert solution.j_after == pytest.approx(oracle, rel=1e-9)


def test_optimal_rotation_rejects_unpolarized():
    with pytest.raises(ValueError, match="no polarized part"):
        optimal_rotation(np.eye(2, dtype=complex))


# ---------------------------------------------------------------------------
# Stokes rotation ledger
# ---------------------------------------------------------------------------


def test_rotation_ledger_identity_angle():
    s = np.array([2.0, 0.5, 0.3, 0.4])
    ledger = stokes_rotation_check(s, 0.0)
    assert ledger.i_pol_before == ledger.i_pol_after
    assert ledger.s1_sq_before == ledger.s1_sq_after


def test_rotation_ledger_takes_a_stokes_vector_shaped_as_one_row():
    s = np.array([2.0, 0.5, 0.3, 0.4])
    assert stokes_rotation_check(s[None], 0.7) == stokes_rotation_check(s, 0.7)


def test_rotation_ledger_rejects_a_nan_angle():
    with pytest.raises(RuntimeError, match="preserve"):
        stokes_rotation_check(np.array([2.0, 0.5, 0.3, 0.1]), np.nan)


def test_rotation_ledger_quarter_turn_on_linear_light():
    ledger = stokes_rotation_check(np.array([1.0, 1.0, 0.0, 0.0]), np.pi / 4.0)
    assert abs(ledger.s1_sq_after) < 1e-15
    assert abs(ledger.s2_sq_after - 1.0) < 1e-15


def test_rotation_ledger_worked_beam_cross_module():
    phi = optimal_rotation(J_WORKED).phi_opt
    ledger = stokes_rotation_check(stokes_from_coherency(J_WORKED), phi)
    assert ledger.s1_sq_after < 1e-10
    assert abs(ledger.i_pol_after - ledger.i_pol_before) < 1e-10


def test_polarized_intensity_conserved_for_random_rotations():
    rng = np.random.default_rng(317)
    for _ in range(300):
        j = random_coherency(rng)
        phi = rng.uniform(-np.pi, np.pi)
        ledger = stokes_rotation_check(stokes_from_coherency(j), phi)
        assert abs(ledger.i_pol_after**2 - ledger.i_pol_before**2) < 1e-9
        # the same conservation read off the matrix entries
        rotated = rotate_coherency(j, phi)
        invariant = ((j[0, 0] - j[1, 1]) ** 2 + 4.0 * j[0, 1] * j[1, 0]).real
        rotated_invariant = (
            (rotated[0, 0] - rotated[1, 1]) ** 2 + 4.0 * rotated[0, 1] * rotated[1, 0]
        ).real
        assert abs(invariant - rotated_invariant) < 1e-9


# ---------------------------------------------------------------------------
# Bisector geometry
# ---------------------------------------------------------------------------


def test_bisector_worked_beam():
    report = bisector_geometry(J_WORKED)
    assert abs(report.chi - np.pi / 8.0) < 1e-12
    assert abs(report.phi_opt + np.pi / 8.0) < 1e-12
    assert abs(report.offset + np.pi / 4.0) < 1e-12  # -pi/4 == pi/4 (mod pi/2)
    assert all(abs(c - 0.5) < 1e-9 for c in report.cosines_sq)


def test_bisector_linear_horizontal():
    report = bisector_geometry(np.diag([1.0, 0.0]).astype(complex))
    assert report.chi == 0.0
    assert abs(abs(report.phi_opt) - np.pi / 4.0) < 1e-12


def test_bisector_equal_diagonal_real_coupling():
    j = np.array([[1.0, 0.4], [0.4, 1.0]], dtype=complex)
    report = bisector_geometry(j)
    assert abs(report.chi - np.pi / 4.0) < 1e-12
    assert report.phi_opt == 0.0
    assert abs(report.offset + np.pi / 4.0) < 1e-12


def test_bisector_identity_random_beams():
    rng = np.random.default_rng(331)
    checked = 0
    while checked < 500:
        j = random_coherency(rng, min_p=0.05)
        s1 = (j[0, 0] - j[1, 1]).real
        s2 = (j[0, 1] + j[1, 0]).real
        # keep both tangents finite and well conditioned
        if abs(s1) < 1e-3 or abs(s2) < 1e-3:
            continue
        report = bisector_geometry(j)
        product = np.tan(2.0 * report.phi_opt) * np.tan(2.0 * report.chi)
        assert abs(product + 1.0) < 1e-8
        checked += 1


@pytest.mark.parametrize(
    "j, match", [([[1.0, -0.4j], [0.4j, 1.0]], "degenerate"), (np.eye(2), "no polarized part")]
)
def test_bisector_rejects_circular_polarized_part(j, match):
    with pytest.raises(ValueError, match=match):
        bisector_geometry(j)


def test_optimal_frame_moves_orientation_to_quarter():
    # After the optimal rotation the effective orientation sits on the
    # pi/4 lattice, where the partially-polarized profile peaks.
    rng = np.random.default_rng(337)
    from blochpoincare.polarization import wiener_decompose

    for _ in range(200):
        j = random_coherency(rng, min_p=0.05)
        rotated = rotate_coherency(j, optimal_rotation(j).phi_opt)
        chi = wiener_decompose(rotated).orientation
        offset = chi % (np.pi / 2.0)
        assert abs(offset - np.pi / 4.0) < 1e-8


# ---------------------------------------------------------------------------
# Correspondence report
# ---------------------------------------------------------------------------


def test_worked_pair_passes_every_row():
    report = correspondence_report(make_quantum_scenario(), make_optical_scenario())
    assert report.all_passed
    assert len(report.rows) == 5
    table = report.as_table()
    assert "MISMATCH" not in table


def test_worked_pair_rows_state_their_checks_and_tolerances():
    report = correspondence_report(make_quantum_scenario(), make_optical_scenario()).as_dict()
    computed = {"quantum_residual", "optical_residual", "quantum_pass", "optical_pass", "pass"}
    rows = [{k: v for k, v in row.items() if k not in computed} for row in report["rows"]]
    assert set(report) == {"all_passed", "rows"}
    assert rows == [
        {
            "label": "constraint conservation",
            "quantum_check": "(E+ - E-)^2 = (h11 - h22)^2 + 4|h12|^2",
            "optical_check": "I_pol^2 invariant under frame rotation",
            "quantum_tolerance": 1e-10,
            "optical_tolerance": 1e-9,
        },
        {
            "label": "equal diagonal",
            "quantum_check": "h11 = h22",
            "optical_check": "Jx'x' = Jy'y'",
            "quantum_tolerance": 1e-10,
            "optical_tolerance": 1e-9,
        },
        {
            "label": "maximal off-diagonal",
            "quantum_check": "|h12| = E0/2",
            "optical_check": "|Jx'y'| = I_pol/2",
            "quantum_tolerance": 1e-10,
            "optical_tolerance": 1e-9,
        },
        {
            "label": "equal-split overlaps",
            "quantum_check": "|<E+-|A>|^2 = |<E+-|A_perp>|^2 = 1/2",
            "optical_check": "squared cosines with principal axes = 1/2",
            "quantum_tolerance": 1e-10,
            "optical_tolerance": 1e-9,
        },
        {
            "label": "unit efficiency",
            "quantum_check": "eta_qm = 1",
            "optical_check": "|j_xy|/P = 1 in the optimal frame",
            "quantum_tolerance": 1e-6,
            "optical_tolerance": 1e-9,
        },
    ]


def test_detour_fails_only_the_quantum_efficiency_side():
    report = correspondence_report(
        make_quantum_scenario(detour=True), make_optical_scenario()
    )
    by_label = {row.label: row for row in report.rows}
    eta_row = by_label["unit efficiency"]
    assert not eta_row.quantum_pass
    assert eta_row.optical_pass
    for label, row in by_label.items():
        if label != "unit efficiency":
            assert row.passed


def test_half_rotation_fails_the_off_diagonal_row():
    half_phi = optimal_rotation(J_WORKED).phi_opt / 2.0
    report = correspondence_report(
        make_quantum_scenario(), make_optical_scenario(phi=half_phi)
    )
    by_label = {row.label: row for row in report.rows}
    assert not by_label["maximal off-diagonal"].optical_pass
    assert not by_label["equal diagonal"].optical_pass
    assert by_label["constraint conservation"].passed
    assert by_label["equal-split overlaps"].passed


def test_mismatched_pairing_is_rejected():
    quantum = make_quantum_scenario()
    other = make_optical_scenario(j=np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex))
    tampered = OpticalScenario(coherency=J_WORKED, rotation=other.rotation)
    with pytest.raises(ValueError, match="pairing"):
        correspondence_report(quantum, tampered)


def test_pairing_with_a_nan_polarization_is_rejected():
    optical = make_optical_scenario()
    tampered = dataclasses.replace(
        optical, rotation=dataclasses.replace(optical.rotation, p=float("nan"))
    )
    with pytest.raises(ValueError, match="rotation solution is for a different beam"):
        correspondence_report(make_quantum_scenario(), tampered)
