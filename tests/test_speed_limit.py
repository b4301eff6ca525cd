import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blochpoincare.bloch import (
    bloch_vector,
    fidelity,
    fubini_study_angle,
    orthogonal_state,
)
from blochpoincare import speed_limit
from blochpoincare.numerics import PAULI_X, PAULI_Y, pauli_components
from blochpoincare.speed_limit import (
    Hamiltonian2,
    Route,
    UnrepresentableTimeError,
    basis_rotation_to_pole,
    efficiency,
    evolve_state,
    evolve_states,
    geodesic_state,
    synthesize_max_uncertainty,
    synthesize_min_time,
)
from helpers import (
    arrival_time_grid,
    bitwise_equal,
    energy_uncertainty,
    random_state,
    random_state_pair,
    scalar_efficiency,
    states_equal_up_to_phase,
)

HALF = 1.0 / np.sqrt(2.0)
PLUS = np.array([HALF, HALF])
PLUS_I = np.array([HALF, 1j * HALF])
ZERO = np.array([1.0, 0.0])
ONE = np.array([0.0, 1.0])


# ---------------------------------------------------------------------------
# Hamiltonian2
# ---------------------------------------------------------------------------


def test_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        Hamiltonian2(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))


def test_hamiltonian_gap_identity_and_orthonormal_eigenvectors():
    rng = np.random.default_rng(8)
    for _ in range(100):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = Hamiltonian2((g + g.conj().T) / 2.0)
        m = h.matrix
        identity = (m[0, 0] - m[1, 1]).real ** 2 + 4.0 * abs(m[0, 1]) ** 2
        assert abs(h.gap**2 - identity) < 1e-10
        lo, hi = h.eigenstates
        assert abs(np.vdot(lo, hi)) < 1e-12
        assert abs(np.linalg.norm(lo) - 1.0) < 1e-12
        _, ax, ay, az = pauli_components(m)
        assert abs(np.sqrt(ax * ax + ay * ay + az * az) - h.gap / 2.0) < 1e-12


# ---------------------------------------------------------------------------
# Minimum-time synthesis
# ---------------------------------------------------------------------------


def test_min_time_plus_target_gives_sigma_y():
    e0 = 1.0
    result = synthesize_min_time(ZERO, PLUS, e0)
    assert np.max(np.abs(result.hamiltonian.traceless() - (e0 / 2.0) * PAULI_Y)) < 1e-12
    assert abs(result.t_min - np.pi / (2.0 * e0)) < 1e-12
    assert result.route is Route.TIME_MINIMIZATION
    # Forward-evolution oracle: the synthesized generator lands on the target.
    reached = evolve_state(result.hamiltonian, ZERO, result.t_min)
    assert fidelity(reached, PLUS) > 1.0 - 1e-12


def test_min_time_orthogonal_target_time():
    result = synthesize_min_time(ZERO, ONE, 1.0)
    assert abs(result.t_min - np.pi) < 1e-12
    # pole-to-pole transport pivots about an equatorial eigenpair
    for vec in result.hamiltonian.eigenstates:
        assert abs(bloch_vector(vec)[2]) < 1e-10


def test_min_time_plus_i_target_gives_minus_sigma_x():
    result = synthesize_min_time(ZERO, PLUS_I, 1.0)
    assert np.max(np.abs(result.hamiltonian.traceless() + 0.5 * PAULI_X)) < 1e-12
    reached = evolve_state(result.hamiltonian, ZERO, result.t_min)
    assert fidelity(reached, PLUS_I) > 1.0 - 1e-12


def test_min_time_rejects_bad_inputs():
    with pytest.raises(ValueError, match="rotate the basis"):
        synthesize_min_time(PLUS, ONE, 1.0)
    with pytest.raises(ValueError, match="degenerate"):
        synthesize_min_time(ZERO, np.array([np.exp(1j * 0.3), 0.0]), 1.0)
    with pytest.raises(ValueError):
        synthesize_min_time(ZERO, PLUS, -1.0)


def test_min_time_full_gauge_lands_exactly_on_target():
    # The non-traceless gauge reproduces the target including its phase.
    rng = np.random.default_rng(17)
    for _ in range(50):
        b = random_state(rng)
        if abs(b[1]) < 0.05:
            continue
        result = synthesize_min_time(ZERO, b, 1.7)
        reached = evolve_state(result.hamiltonian, ZERO, result.t_min)
        assert np.max(np.abs(reached - b)) < 1e-10


def test_min_time_invariants_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(100):
        _, b = random_state_pair(rng)
        e0 = rng.uniform(0.3, 3.0)
        result = synthesize_min_time(ZERO, b, e0)
        assert abs(result.delta_e - result.hamiltonian.gap / 2.0) < 1e-10
        theta = fubini_study_angle(ZERO, b)
        assert abs(result.t_min * result.delta_e - theta / 2.0) < 1e-10
        assert abs(energy_uncertainty(result.hamiltonian, ZERO) - result.delta_e) < 1e-10


def test_min_time_hbar_scaling():
    t1 = synthesize_min_time(ZERO, PLUS, 1.0, hbar=1.0).t_min
    t2 = synthesize_min_time(ZERO, PLUS, 1.0, hbar=2.0).t_min
    assert abs(t2 - 2.0 * t1) < 1e-14


@pytest.mark.parametrize("synthesize", [synthesize_min_time, synthesize_max_uncertainty])
@pytest.mark.parametrize("exponent", range(-300, 301, 50))
def test_synthesis_holds_across_the_double_range(synthesize, exponent):
    # The physics depends on e0 * t / hbar only; the endpoint gate must pass,
    # and the trajectory land on the target, at every representable scale.
    target = np.array([0.6, 0.8j])
    result = synthesize(ZERO, target, 10.0**exponent)
    assert result.t_min * result.delta_e == pytest.approx(
        fubini_study_angle(ZERO, target) / 2.0, rel=1e-12
    )
    reached = evolve_states(result.hamiltonian, ZERO, [0.0, result.t_min])
    assert fidelity(target, reached[-1]) >= 1.0 - 1e-12
    assert np.allclose(reached[0], ZERO, atol=1e-15)


@pytest.mark.parametrize("synthesize", [synthesize_min_time, synthesize_max_uncertainty])
@pytest.mark.parametrize("e0, hbar", [(1e-310, 1.0), (1.0, 1.7e308), (1e300, 1e-300)])
def test_unrepresentable_minimal_time_is_an_input_error(synthesize, e0, hbar):
    # t_min = 2 hbar arcsin|b1| / e0 (or hbar theta / 2e) overflows or underflows.
    with pytest.raises(UnrepresentableTimeError, match="is not a positive finite number"):
        synthesize(ZERO, np.array([0.6, 0.8j]), e0, hbar=hbar)


def test_nan_endpoint_fails_the_synthesis_gate(monkeypatch):
    monkeypatch.setattr(speed_limit, "evolve_state", lambda *args, **kwargs: np.full(2, np.nan))
    with pytest.raises(RuntimeError, match="endpoint check failed"):
        synthesize_min_time(ZERO, PLUS, 1.0)


def test_basis_rotation_helper_enables_general_initial_states():
    rng = np.random.default_rng(41)
    for _ in range(25):
        a, b = random_state_pair(rng)
        u = basis_rotation_to_pole(a)
        assert np.max(np.abs(u @ a - ZERO)) < 1e-12
        result = synthesize_min_time(u @ a, u @ b, 1.0)
        # Map the generator back to the original frame and evolve there.
        h_back = Hamiltonian2(u.conj().T @ result.hamiltonian.matrix @ u)
        reached = evolve_state(h_back, a, result.t_min)
        assert fidelity(reached, b) > 1.0 - 1e-10


# ---------------------------------------------------------------------------
# Maximum-uncertainty synthesis
# ---------------------------------------------------------------------------


def test_max_uncertainty_plus_target_gives_sigma_y():
    e = 1.3
    result = synthesize_max_uncertainty(ZERO, PLUS, e)
    assert np.max(np.abs(result.hamiltonian.matrix - e * PAULI_Y)) < 1e-12
    assert abs(result.t_min - (np.pi / 2.0) / (2.0 * e)) < 1e-12


def test_max_uncertainty_orthogonal_targets_equatorial_eigenstates():
    result = synthesize_max_uncertainty(ZERO, ONE, 0.8)
    assert abs(result.t_min - np.pi / (2.0 * 0.8)) < 1e-12
    for vec in result.hamiltonian.eigenstates:
        assert abs(bloch_vector(vec)[2]) < 1e-10
    reached = evolve_state(result.hamiltonian, ZERO, result.t_min)
    assert fidelity(reached, ONE) > 1.0 - 1e-12


def test_max_uncertainty_properties_random_pairs():
    rng = np.random.default_rng(53)
    for _ in range(100):
        a, b = random_state_pair(rng)
        e = rng.uniform(0.3, 2.0)
        result = synthesize_max_uncertainty(a, b, e)
        h = result.hamiltonian
        assert abs(np.vdot(a, h.matrix @ a).real) < 1e-10
        assert abs(energy_uncertainty(h, a) - e) < 1e-10
        assert abs(h.trace_part) < 1e-12
        assert abs(result.delta_e - h.gap / 2.0) < 1e-10
        theta = fubini_study_angle(a, b)
        assert abs(result.t_min * result.delta_e - theta / 2.0) < 1e-10
        reached = evolve_state(h, a, result.t_min)
        assert states_equal_up_to_phase(reached, b, 1e-10)


def test_max_uncertainty_equal_split_overlaps():
    # Both eigenstates overlap the endpoints' basis half-and-half (squared).
    rng = np.random.default_rng(59)
    for _ in range(100):
        a, b = random_state_pair(rng)
        h = synthesize_max_uncertainty(a, b, 1.0).hamiltonian
        a_perp = orthogonal_state(a)
        for vec in h.eigenstates:
            assert abs(fidelity(vec, a) - 0.5) < 1e-10
            assert abs(fidelity(vec, a_perp) - 0.5) < 1e-10


def test_cross_route_agreement():
    # Same traceless generator and same minimal time when the uncertainty
    # budget is half the gap budget.
    rng = np.random.default_rng(61)
    for _ in range(100):
        _, b = random_state_pair(rng)
        e0 = rng.uniform(0.5, 2.0)
        tm = synthesize_min_time(ZERO, b, e0)
        mu = synthesize_max_uncertainty(ZERO, b, e0 / 2.0)
        assert np.max(np.abs(tm.hamiltonian.traceless() - mu.hamiltonian.matrix)) < 1e-10
        assert abs(tm.t_min - mu.t_min) < 1e-12


def test_max_uncertainty_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        synthesize_max_uncertainty(PLUS, np.exp(1j * 0.4) * PLUS, 1.0)


# ---------------------------------------------------------------------------
# Geodesic interpolation
# ---------------------------------------------------------------------------


def test_geodesic_endpoints():
    a, b = ZERO, PLUS
    assert np.max(np.abs(geodesic_state(a, b, 1.0, 0.0) - a)) < 1e-15
    t_min = fubini_study_angle(a, b) / 2.0
    end = geodesic_state(a, b, 1.0, t_min)
    # For this phase-aligned pair the closed form lands exactly on b.
    assert np.max(np.abs(end - b)) < 1e-12


def test_geodesic_midpoint_halves_the_angle():
    a, b = ZERO, PLUS
    theta = fubini_study_angle(a, b)
    t_min = theta / 2.0
    mid = geodesic_state(a, b, 1.0, t_min / 2.0)
    assert abs(fubini_study_angle(a, mid) - theta / 2.0) < 1e-12


def test_geodesic_matches_dynamics_everywhere():
    rng = np.random.default_rng(67)
    for _ in range(50):
        a, b = random_state_pair(rng)
        e = rng.uniform(0.4, 1.6)
        result = synthesize_max_uncertainty(a, b, e)
        for frac in np.linspace(0.0, 1.0, 9):
            t = frac * result.t_min
            dyn = evolve_state(result.hamiltonian, a, t)
            geo = geodesic_state(a, b, e, t)
            assert states_equal_up_to_phase(dyn, geo, 1e-10)
            assert abs(np.linalg.norm(geo) - 1.0) < 1e-12


def test_geodesic_rejects_out_of_range_time_and_orthogonal_endpoints():
    with pytest.raises(ValueError):
        geodesic_state(ZERO, PLUS, 1.0, 10.0)
    with pytest.raises(ValueError):
        geodesic_state(ZERO, ONE, 1.0, 0.1)


def test_geodesic_speed_equals_dispersion():
    # d s_FS / dt == Delta E / hbar along the geodesic (finite differences).
    rng = np.random.default_rng(71)
    for _ in range(20):
        a, b = random_state_pair(rng)
        e = rng.uniform(0.4, 1.6)
        result = synthesize_max_uncertainty(a, b, e)
        h_step = 1e-3 / e
        for frac in (0.1, 0.5, 0.8):
            t = frac * result.t_min
            if t + h_step > result.t_min:
                continue
            s_fs = fubini_study_angle(
                geodesic_state(a, b, e, t), geodesic_state(a, b, e, t + h_step)
            ) / 2.0
            speed = s_fs / h_step
            assert abs(speed - e) / e < 1e-6


# ---------------------------------------------------------------------------
# Energy uncertainty
# ---------------------------------------------------------------------------


def test_energy_uncertainty_vanishes_on_eigenstates():
    h = Hamiltonian2(np.array([[1.0, 0.3], [0.3, -0.4]], dtype=complex))
    lo, hi = h.eigenstates
    assert energy_uncertainty(h, lo) < 1e-12
    assert energy_uncertainty(h, hi) < 1e-12


def test_energy_uncertainty_equal_superposition_is_half_gap():
    h = Hamiltonian2(np.array([[-0.7, 0.0], [0.0, 1.1]], dtype=complex))
    lo, hi = h.eigenstates
    state = (lo + hi) / np.sqrt(2.0)
    assert abs(energy_uncertainty(h, state) - h.gap / 2.0) < 1e-12


def test_energy_uncertainty_two_to_one_superposition():
    # |amp_lo| = 2 |amp_hi| gives dispersion (gap/2) sqrt(1 - (3/5)^2).
    h = Hamiltonian2(np.array([[-0.7, 0.0], [0.0, 1.1]], dtype=complex))
    lo, hi = h.eigenstates
    state = 2.0 * lo + hi  # unnormalized input is allowed
    expected = (h.gap / 2.0) * np.sqrt(1.0 - (3.0 / 5.0) ** 2)
    assert abs(energy_uncertainty(h, state) - expected) < 1e-12
    # Direct expectation-value oracle on the explicit vector.
    norm_sq = np.vdot(state, state).real
    mean = np.vdot(state, h.matrix @ state).real / norm_sq
    mean_sq = np.vdot(state, h.matrix @ h.matrix @ state).real / norm_sq
    assert abs(energy_uncertainty(h, state) - np.sqrt(mean_sq - mean**2)) < 1e-12


# ---------------------------------------------------------------------------
# Geometric efficiency
# ---------------------------------------------------------------------------


def test_efficiency_of_sampled_geodesic_is_unity():
    a, b = ZERO, PLUS
    ts = np.linspace(0.0, fubini_study_angle(a, b) / 2.0, 100)
    trajectory = [geodesic_state(a, b, 1.0, t) for t in ts]
    report = efficiency(trajectory)
    assert 1.0 - 1e-6 <= report.eta_qm <= 1.0


def test_efficiency_of_detour_is_below_unity():
    a, b, c = ZERO, PLUS, PLUS_I
    report = efficiency([a, c, a, b])
    assert report.eta_qm < 1.0
    assert abs(report.geodesic_length - fubini_study_angle(a, b)) < 1e-14


def test_efficiency_two_samples_is_exactly_one():
    assert efficiency([ZERO, PLUS]).eta_qm == 1.0


def test_efficiency_rejects_bad_trajectories():
    with pytest.raises(ValueError):
        efficiency([ZERO])
    with pytest.raises(ValueError):
        efficiency([ZERO, np.exp(1j * 0.2) * ZERO, PLUS])


def _outcome(walk, trajectory):
    """The report's repr, which fixes every bit of its floats, or the error's type and text."""
    try:
        return repr(walk(trajectory))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _sampled_trajectory(rng, samples, route, energy, hbar, start=ZERO):
    """Evolved samples from ``start`` to a random target, shape (samples, 2).

    The time-minimizing route starts at the working-basis pole.
    """
    b = random_state(rng)
    if route is Route.TIME_MINIMIZATION:
        synthesis = synthesize_min_time(ZERO, b, energy, hbar=hbar)
    else:
        synthesis = synthesize_max_uncertainty(start, b, energy, hbar=hbar)
    times = np.linspace(0.0, synthesis.t_min, samples)
    return evolve_states(synthesis.hamiltonian, start, times, hbar=hbar)


_DEFECTS = [
    None,
    "kinked",
    "one sample",
    "repeat",
    "unnormalized",
    "closed loop",
    "repeat then unnormalized",
    "unnormalized then repeat",
]


def test_vecdot_rounds_each_overlap_as_vdot():
    # The batched walk forms norms and overlaps with np.vecdot, the pair walk
    # with np.vdot (a BLAS dot kernel); the two reports agree bit for bit only
    # while both round a 2-term product sum alike.
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 2000, 2)) + 1j * rng.normal(size=(2, 2000, 2))
    single = np.array([np.vdot(x, y) for x, y in zip(a, b)])
    assert bitwise_equal(np.vecdot(a, b), single), (
        "np.vecdot and np.vdot round overlaps differently in the installed numpy/BLAS, "
        "so the batched efficiency cannot match the pair walk bit for bit"
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(2, 300),
    route=st.sampled_from(list(Route)),
    energy=st.floats(1e-3, 1e3),
    hbar=st.floats(1e-2, 1e2),
    defect=st.sampled_from(_DEFECTS),
    where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    scale=st.sampled_from([0.0, 0.5, 1.0 + 3e-12, 1.0 + 1e-9, 2.0, np.nan]),
)
def test_batched_efficiency_is_bitwise_the_pair_by_pair_walk(
    seed, samples, route, energy, hbar, defect, where, scale
):
    rng = np.random.default_rng(seed)
    states = _sampled_trajectory(rng, samples, route, energy, hbar)
    first, second = sorted(int(w * (len(states) - 1)) for w in where)
    if defect == "kinked":  # on to a second target from the end of the first leg
        onward = _sampled_trajectory(
            rng, samples, Route.UNCERTAINTY_MAXIMIZATION, energy, hbar, start=states[-1]
        )
        states = np.concatenate((states, onward[1:]))
    elif defect == "one sample":
        states = states[first : first + 1]
    elif defect == "repeat":
        states = np.insert(states, first, states[first], axis=0)
    elif defect == "unnormalized":
        states[first] *= scale
    elif defect == "closed loop":
        states = np.concatenate((states, states[-2::-1]))
    elif defect == "repeat then unnormalized":
        states = np.insert(states, first, states[first], axis=0)
        states[min(second + 2, len(states) - 1)] *= scale
    elif defect == "unnormalized then repeat":
        states = np.insert(states, second, states[second], axis=0)
        states[first] *= scale
    assert _outcome(efficiency, states) == _outcome(scalar_efficiency, states)
    assert _outcome(efficiency, list(states)) == _outcome(scalar_efficiency, states)


_LINE = [ZERO, PLUS, PLUS_I]  # three samples at right angles on the sphere
_COINCIDE = "consecutive samples coincide up to phase"
_UNNORMALIZED = "both states must be normalized"


@pytest.mark.parametrize(
    "trajectory, message",
    [
        ([ZERO], "need at least 2 samples"),
        ([], "need at least 2 samples"),
        ([ZERO, ZERO, PLUS], _COINCIDE),
        ([ZERO, 2.0 * PLUS, PLUS_I], _UNNORMALIZED),
        ([ZERO, PLUS, ZERO], "trajectory endpoints coincide up to phase"),
        ([ZERO, ZERO, PLUS, 2.0 * PLUS_I], _COINCIDE),
        ([ZERO, 2.0 * PLUS, PLUS_I, PLUS_I], _UNNORMALIZED),
        ([PLUS, ZERO, ZERO, np.nan * PLUS_I], _COINCIDE),
        ([ZERO, np.array([np.inf, 0.0]), PLUS], _UNNORMALIZED),
        ([ZERO, [1.0, 0.0, 0.0], PLUS], "expected a complex 2-vector, got shape (3,)"),
        ([ZERO, PLUS, PLUS_I.reshape(2, 1)], None),
        (np.array(_LINE).reshape(3, 1, 2), None),
    ],
)
def test_efficiency_raises_for_the_first_failing_pair_as_the_walk_does(trajectory, message):
    outcome = _outcome(efficiency, trajectory)
    assert outcome == _outcome(scalar_efficiency, trajectory)
    if message is None:
        assert outcome == repr(scalar_efficiency(_LINE))
    else:
        assert outcome == (ValueError, message)


def test_efficiency_rejects_exact_repeats_of_random_states():
    # For about a third of random states |<s|s>| rounds below 1, and
    # 2 arccos|<s|s>| is about 3e-8: their repeats are caught by the chord.
    rng = np.random.default_rng(0)
    for _ in range(200):
        s, w = random_state(rng), random_state(rng)
        for walk in (efficiency, scalar_efficiency):
            with pytest.raises(ValueError, match=_COINCIDE):
                walk([s, s, w])
            with pytest.raises(ValueError, match="trajectory endpoints coincide"):
                walk([s, w, s])


# ---------------------------------------------------------------------------
# Optimality oracle (small-scale; the acceptance suite runs the full sweep)
# ---------------------------------------------------------------------------


def test_no_constrained_generator_beats_t_min():
    rng = np.random.default_rng(73)
    e0 = 1.0
    for _ in range(3):
        _, b = random_state_pair(rng, lo=0.2, hi=0.9)
        t_min = synthesize_min_time(ZERO, b, e0).t_min
        arrivals = arrival_time_grid(b, e0, n_axis=50, n_phase=50)
        assert arrivals.size > 0
        assert arrivals.min() >= t_min - 1e-9


def test_arrival_oracle_agrees_with_expm_simulation():
    rng = np.random.default_rng(79)
    _, b = random_state_pair(rng, lo=0.2, hi=0.9)
    e0 = 1.0
    arrivals = arrival_time_grid(b, e0, n_axis=12, n_phase=12)
    t_star = arrivals.min()
    # Re-derive the best arrival by brute-force simulation over the same grid.
    best = np.inf
    for psi in np.linspace(0.0, np.pi, 12):
        beta_mod = abs(b[1])
        if np.sin(psi) < beta_mod:
            continue
        tau = np.arcsin(beta_mod / np.sin(psi))
        mu = np.arctan2(np.cos(psi) * np.sin(tau), np.cos(tau))
        phi = np.angle(b[1]) - np.angle(b[0]) + np.pi / 2.0 - mu
        nx, ny, nz = np.sin(psi) * np.cos(phi), np.sin(psi) * np.sin(phi), np.cos(psi)
        h = (e0 / 2.0) * np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
        ts = np.linspace(1e-4, 1.2 * np.pi / e0, 4000)
        fids = [
            abs(np.vdot(b, scipy.linalg.expm(-1j * h * t) @ ZERO)) ** 2 for t in ts
        ]
        for k in range(1, len(ts) - 1):
            if fids[k] >= fids[k - 1] and fids[k] >= fids[k + 1] and fids[k] > 1.0 - 1e-6:
                best = min(best, ts[k])
                break
    assert np.isfinite(best)
    assert abs(best - t_star) < 2e-3  # limited by the simulation time grid
