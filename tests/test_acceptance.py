"""Acceptance suite: the quantitative exit criteria, one test per criterion.

Each criterion prints a single pass/fail line (run with ``pytest -s`` or
``-rA`` to see them on success). Tolerances and runtime budgets are pinned
here, not configurable.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from blochpoincare.bloch import fidelity, fubini_study_angle
from blochpoincare.coherence import (
    OpticalScenario,
    QuantumScenario,
    bisector_geometry,
    correspondence_report,
    optimal_rotation,
    stokes_rotation_check,
)
from blochpoincare.interference import fringe_visibility, quantum_probability
from blochpoincare.mueller import mueller_from_jones, wigner_rotation
from blochpoincare.polarization import (
    degree_of_polarization,
    partial_coherence_profile,
    rotate_coherency,
    stokes_from_coherency,
    wiener_decompose,
)
from blochpoincare.speed_limit import (
    basis_rotation_to_pole,
    efficiency,
    evolve_state,
    geodesic_state,
    synthesize_max_uncertainty,
    synthesize_min_time,
)
from helpers import (
    arrival_time_grid,
    coherence_vs_rotation,
    random_coherency,
    random_state,
    random_state_pair,
    random_unitary,
)

ZERO = np.array([1.0, 0.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
PLUS_I = np.array([1.0, 1j]) / np.sqrt(2.0)
J_WORKED = np.array([[3.0, 1.0], [1.0, 1.0]], dtype=complex)


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield started
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_endpoint_reachability():
    with criterion(1, "both synthesis routes reach the target, 200 random pairs") as t0:
        rng = np.random.default_rng(1001)
        for _ in range(200):
            a, b = random_state_pair(rng, lo=0.05, hi=0.95)
            e0 = rng.uniform(0.5, 2.0)

            rotate = basis_rotation_to_pole(a)
            tm = synthesize_min_time(rotate @ a, rotate @ b, e0)
            reached = evolve_state(tm.hamiltonian, rotate @ a, tm.t_min)
            assert fidelity(reached, rotate @ b) >= 1.0 - 1e-9

            mu = synthesize_max_uncertainty(a, b, e0 / 2.0)
            reached = evolve_state(mu.hamiltonian, a, mu.t_min)
            assert fidelity(reached, b) >= 1.0 - 1e-9
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_time_optimality_oracle():
    with criterion(2, "200x200 constrained-generator grid never beats t_min") as t0:
        rng = np.random.default_rng(1002)
        e0 = 1.0
        for _ in range(20):
            _, b = random_state_pair(rng, lo=0.05, hi=0.95)
            t_min = synthesize_min_time(ZERO, b, e0).t_min
            arrivals = arrival_time_grid(b, e0, n_axis=200, n_phase=200)
            assert arrivals.size > 0
            assert arrivals.min() >= t_min - 1e-6
            # sanity: the sweep does approach the optimum from above
            assert arrivals.min() <= t_min + 1e-2
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_unit_quantum_efficiency():
    with criterion(3, "geodesics have unit efficiency, kinked paths do not"):
        rng = np.random.default_rng(1003)
        for _ in range(20):
            a, b = random_state_pair(rng, lo=0.05, hi=0.95)
            e = rng.uniform(0.4, 1.5)
            t_min = fubini_study_angle(a, b) / (2.0 * e)
            trajectory = [
                geodesic_state(a, b, e, t) for t in np.linspace(0.0, t_min, 101)
            ]
            eta = efficiency(trajectory).eta_qm
            assert 1.0 - 1e-6 <= eta <= 1.0

        half_leg = np.linspace(0.0, np.pi / 4.0, 51)
        kinked = [geodesic_state(ZERO, PLUS_I, 1.0, t) for t in half_leg] + [
            geodesic_state(PLUS_I, PLUS, 1.0, t) for t in half_leg
        ][1:]
        assert efficiency(kinked).eta_qm < 0.95


def test_criterion_4_coherence_optimality_oracle():
    with criterion(4, "rotation grid confirms max |j| = P on 500 random beams") as t0:
        rng = np.random.default_rng(1004)
        phis = np.linspace(0.0, np.pi, 16384, endpoint=False)
        for _ in range(500):
            j = random_coherency(rng, min_p=0.05)
            solution = optimal_rotation(j)
            values = coherence_vs_rotation(j, phis)
            assert abs(values.max() - solution.p) < 1e-7
            best = phis[int(np.argmax(values))]
            offset = (best - solution.phi_opt) % (np.pi / 2.0)
            assert min(offset, np.pi / 2.0 - offset) < 2e-4
            assert abs(solution.j_after - solution.p) < 1e-9
        assert time.perf_counter() - t0 < 10.0


def test_criterion_5_bisector_identity():
    with criterion(5, "tan(2 phi_opt) tan(2 chi) = -1 on 500 random beams"):
        rng = np.random.default_rng(1005)
        checked = 0
        while checked < 500:
            j = random_coherency(rng, min_p=0.05)
            s1 = (j[0, 0] - j[1, 1]).real
            s2 = (j[0, 1] + j[1, 0]).real
            if abs(s1) < 1e-3 or abs(s2) < 1e-3:
                continue  # keep both tangents finite and conditioned
            report = bisector_geometry(j)
            assert abs(np.tan(2.0 * report.phi_opt) * np.tan(2.0 * report.chi) + 1.0) < 1e-8
            checked += 1


def test_criterion_6_constraint_conservation():
    with criterion(6, "gap identity and polarized-intensity conservation"):
        rng = np.random.default_rng(1006)
        for _ in range(200):
            j = random_coherency(rng)
            phi = rng.uniform(-np.pi, np.pi)
            ledger = stokes_rotation_check(stokes_from_coherency(j), phi)
            assert abs(ledger.i_pol_after**2 - ledger.i_pol_before**2) < 1e-9

            _, b = random_state_pair(rng)
            h = synthesize_min_time(ZERO, b, rng.uniform(0.5, 2.0)).hamiltonian
            m = h.matrix
            identity = (m[0, 0] - m[1, 1]).real ** 2 + 4.0 * abs(m[0, 1]) ** 2
            assert abs(h.gap**2 - identity) < 1e-10

        # Both sides at once inside the correspondence report.
        report = _worked_report()
        row = {r.label: r for r in report.rows}["constraint conservation"]
        assert row.passed


def test_criterion_7_mueller_jones_homomorphism():
    with criterion(7, "rotation lift is a homomorphism matching the Kronecker lift"):
        rng = np.random.default_rng(1007)
        for _ in range(200):
            u1, u2 = random_unitary(rng), random_unitary(rng)
            product = wigner_rotation(u1 @ u2)
            composed = wigner_rotation(u1) @ wigner_rotation(u2)
            assert np.max(np.abs(product - composed)) < 1e-10
            assert np.max(np.abs(wigner_rotation(u1) - mueller_from_jones(u1))) < 1e-10


def test_criterion_8_partial_coherence_profile():
    with criterion(8, "coherence profile peaks at P and vanishes on the x-axis"):
        rng = np.random.default_rng(1008)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            for _ in range(20):
                beta = rng.uniform(-np.pi / 4.0 + 1e-9, np.pi / 4.0)
                assert abs(partial_coherence_profile(beta, np.pi / 4.0, p) - p) <= 1e-12
        for p in (0.0, 0.3, 0.7, 0.999):
            assert partial_coherence_profile(0.0, 0.0, p) == 0.0


def test_criterion_9_interference_identity():
    with criterion(9, "interference law is exact; visibility equals coherence"):
        rng = np.random.default_rng(1009)
        for _ in range(1000):
            sa, sb = random_state(rng), random_state(rng)
            amp_a = rng.normal() + 1j * rng.normal()
            amp_b = rng.normal() + 1j * rng.normal()
            law = quantum_probability(amp_a, amp_b, sa, sb)
            direct = float(np.linalg.norm(amp_a * sa + amp_b * sb) ** 2)
            assert abs(law - direct) < 1e-12 * max(1.0, direct)

        for _ in range(100):
            j = random_coherency(rng)
            equalized = rotate_coherency(j, optimal_rotation(j).phi_opt) if (
                degree_of_polarization(j).p > 1e-6
            ) else j
            report = degree_of_polarization(equalized)
            assert abs(
                fringe_visibility(equalized, np.pi / 4.0) - report.coherence_magnitude
            ) < 1e-10


def _worked_report():
    synthesis = synthesize_min_time(ZERO, PLUS, 1.0)
    trajectory = [
        evolve_state(synthesis.hamiltonian, ZERO, float(t))
        for t in np.linspace(0.0, synthesis.t_min, 101)
    ]
    quantum = QuantumScenario(
        synthesis=synthesis,
        efficiency=efficiency(trajectory),
        initial_state=ZERO,
        final_state=PLUS,
    )
    optical = OpticalScenario(coherency=J_WORKED, rotation=optimal_rotation(J_WORKED))
    return correspondence_report(quantum, optical)


def test_criterion_10_worked_correspondence_scenario():
    with criterion(10, "worked optical/quantum pair passes every report row"):
        # Regenerate the frozen numbers from their oracles before asserting.
        report = degree_of_polarization(J_WORKED)
        phis = np.linspace(0.0, np.pi, 1_000_000, endpoint=False)
        grid_max = coherence_vs_rotation(J_WORKED, phis).max()
        assert abs(grid_max - report.p) < 1e-7

        solution = optimal_rotation(J_WORKED)
        decomposition = wiener_decompose(J_WORKED)
        synthesis = synthesize_min_time(ZERO, PLUS, 1.0)

        # Frozen regression values for the worked pair.
        assert report.p == pytest.approx(0.7071067811865476, abs=1e-12)
        assert report.coherence_magnitude == pytest.approx(0.5773502691896258, abs=1e-12)
        assert decomposition.orientation == pytest.approx(0.39269908169872414, abs=1e-12)
        assert solution.phi_opt == pytest.approx(-0.39269908169872414, abs=1e-12)
        assert solution.j_after == pytest.approx(0.7071067811865476, abs=1e-9)
        assert synthesis.t_min == pytest.approx(1.5707963267948966, abs=1e-12)
        sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
        assert np.max(np.abs(synthesis.hamiltonian.traceless() - 0.5 * sigma_y)) < 1e-12

        full_report = _worked_report()
        assert full_report.all_passed
        assert len(full_report.rows) == 5
