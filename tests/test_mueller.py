import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochpoincare import mueller
from blochpoincare.mueller import (
    _DEFAULT_PROBE_SEED,
    A_MATRIX,
    A_MATRIX_INVERSE,
    MuellerClass,
    classify_mueller,
    mueller_from_jones,
    mueller_rotator,
    wigner_rotation,
)
from blochpoincare.polarization import (
    stokes_from_coherency,
    validate_stokes,
)
from helpers import (
    U_STOKES,
    bitwise_equal,
    random_coherency,
    random_state,
    random_su2,
    random_unitary,
    scalar_classify_mueller,
    scalar_probe_images,
)

J_WORKED = np.array([[3.0, 1.0], [1.0, 1.0]], dtype=complex)


def jones_rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]], dtype=complex)


def sqrt_psd_2x2(m):
    """Closed-form square root of a positive-semidefinite 2x2 matrix."""
    tau = np.trace(m)
    root_det = np.sqrt(max(np.linalg.det(m).real, 0.0))
    return (m + root_det * np.eye(2)) / np.sqrt(tau.real + 2.0 * root_det)


def test_a_matrix_rows_are_the_operator_entries():
    sigma = {
        0: np.eye(2),
        1: np.array([[1, 0], [0, -1]]),
        2: np.array([[0, 1], [1, 0]]),
        3: np.array([[0, -1j], [1j, 0]]),
    }
    for i in range(4):
        assert np.array_equal(A_MATRIX[i], sigma[i].reshape(-1))
    assert np.max(np.abs(A_MATRIX @ A_MATRIX_INVERSE - np.eye(4))) < 1e-15


def test_identity_lifts_to_identity():
    assert np.allclose(mueller_from_jones(np.eye(2)), np.eye(4), atol=1e-14)
    assert np.allclose(wigner_rotation(np.eye(2)), np.eye(4), atol=1e-14)


def test_horizontal_polarizer_on_natural_light():
    m = mueller_from_jones(np.diag([1.0, 0.0]))
    out = m @ np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, [0.5, 0.5, 0.0, 0.0], atol=1e-14)
    # Cross-check by acting on the coherency matrix directly.
    jones = np.diag([1.0, 0.0])
    natural = np.eye(2, dtype=complex) / 2.0
    direct = stokes_from_coherency(jones @ natural @ jones.conj().T)
    assert np.allclose(out, direct, atol=1e-14)


def test_phase_plate_lift_matches_rotation_lift():
    # exp(-i sz phi) mixes the S2/S3 pair; both constructions must agree.
    phi = 0.61
    jones = np.diag([np.exp(-1j * phi), np.exp(1j * phi)])
    lifted = mueller_from_jones(jones)
    assert np.max(np.abs(lifted - wigner_rotation(jones))) < 1e-12
    block = lifted[2:, 2:]
    expected = np.array(
        [[np.cos(2 * phi), np.sin(2 * phi)], [-np.sin(2 * phi), np.cos(2 * phi)]]
    )
    assert np.allclose(block, expected, atol=1e-12)
    assert np.allclose(lifted[:2, :2], np.eye(2), atol=1e-12)


def test_wigner_rotation_sign_blind():
    rng = np.random.default_rng(211)
    for _ in range(50):
        u = random_su2(rng)
        assert np.max(np.abs(wigner_rotation(u) - wigner_rotation(-u))) < 1e-12


def test_wigner_rotation_matches_kron_lift_on_unitaries():
    rng = np.random.default_rng(223)
    for _ in range(200):
        u = random_unitary(rng)
        assert np.max(np.abs(wigner_rotation(u) - mueller_from_jones(u))) < 1e-10


def test_wigner_rotation_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        wigner_rotation(np.diag([1.0, 0.5]))


def test_homomorphism_under_composition():
    rng = np.random.default_rng(227)
    for _ in range(200):
        u1, u2 = random_unitary(rng), random_unitary(rng)
        lhs = wigner_rotation(u1 @ u2)
        rhs = wigner_rotation(u1) @ wigner_rotation(u2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_u_stokes_construction_is_the_same_lift():
    # The unitary change of basis reproduces the Kronecker lift exactly; the
    # two matrices differ by the sign of the circular row: U = D A / sqrt(2).
    d = np.diag([1.0, 1.0, 1.0, -1.0])
    assert np.allclose(U_STOKES, d @ A_MATRIX / np.sqrt(2.0))
    rng = np.random.default_rng(229)
    for _ in range(100):
        jones = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = U_STOKES @ np.kron(jones.conj(), jones) @ U_STOKES.conj().T
        rhs = mueller_from_jones(jones)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_mueller_rotator_reference_values():
    assert np.allclose(mueller_rotator(0.0), np.eye(4))
    out = mueller_rotator(np.pi / 4.0) @ np.array([1.0, 1.0, 0.0, 0.0])
    assert np.allclose(out, [1.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_mueller_rotator_equalizes_worked_beam():
    # The frame angle that zeroes S1 of this beam is -pi/8 (the +pi/8
    # rotation aligns the ellipse with the x-axis and zeroes S2 instead).
    s = stokes_from_coherency(J_WORKED)
    rotated = mueller_rotator(-np.pi / 8.0) @ s
    assert abs(rotated[1]) < 1e-10
    aligned = mueller_rotator(np.pi / 8.0) @ s
    assert abs(aligned[2]) < 1e-10


def test_mueller_rotator_composition():
    rng = np.random.default_rng(233)
    for _ in range(100):
        p1, p2 = rng.uniform(-np.pi, np.pi, size=2)
        lhs = mueller_rotator(p1) @ mueller_rotator(p2)
        assert np.max(np.abs(lhs - mueller_rotator(p1 + p2))) < 1e-12


def test_mueller_rotator_is_the_lift_of_the_axes_rotation():
    for phi in (-1.1, 0.0, 0.37, 2.5):
        assert np.max(
            np.abs(mueller_rotator(phi) - mueller_from_jones(jones_rotation(phi)))
        ) < 1e-12


def test_consistency_square_field_vs_stokes():
    # Jones action on the field then Stokes readout == Mueller action on
    # the Stokes readout, for fully polarized light.
    rng = np.random.default_rng(239)
    for _ in range(100):
        e = random_state(rng) * rng.uniform(0.5, 2.0)
        jones = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        coh = np.outer(e, e.conj())
        direct = stokes_from_coherency(jones @ coh @ jones.conj().T)
        lifted = mueller_from_jones(jones) @ stokes_from_coherency(coh)
        assert np.max(np.abs(direct - lifted)) < 1e-10


def test_jones_lift_preserves_stokes_validity():
    rng = np.random.default_rng(241)
    for _ in range(20):
        jones = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = mueller_from_jones(jones)
        for _ in range(50):
            j = random_coherency(rng)
            out = m @ validate_stokes(stokes_from_coherency(j))
            if out[0] > 1e-12:
                validate_stokes(out)


def test_polar_factorization_of_general_lift():
    # M(J) = M(W) M(H) with W unitary and H = sqrt(J^dag J): the rotation of
    # the polarized direction is carried entirely by the polar part.
    rng = np.random.default_rng(251)
    for _ in range(50):
        jones = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = sqrt_psd_2x2(jones.conj().T @ jones)
        w = jones @ np.linalg.inv(h)
        assert np.max(np.abs(w.conj().T @ w - np.eye(2))) < 1e-10
        m_total = mueller_from_jones(jones)
        m_parts = mueller_from_jones(w) @ mueller_from_jones(h)
        assert np.max(np.abs(m_total - m_parts)) < 1e-9
        # the unitary factor lifts to a pure rotation block
        rotation = wigner_rotation(w)
        assert np.max(np.abs(rotation - mueller_from_jones(w))) < 1e-10


def test_classification_of_reference_elements():
    rng = np.random.default_rng(257)
    for _ in range(5):
        jones = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = mueller_from_jones(jones)
        assert classify_mueller(m) is MuellerClass.NONDEPOLARIZING
    assert classify_mueller(np.diag([1.0, 0, 0, 0])) is MuellerClass.DEPOLARIZING
    assert classify_mueller(mueller_rotator(0.83)) is MuellerClass.NONDEPOLARIZING


def test_classification_is_seed_stable():
    m = np.diag([1.0, 0.7, 0.7, 0.7])
    assert classify_mueller(m, seed=1) is MuellerClass.DEPOLARIZING
    assert classify_mueller(m, seed=1) is classify_mueller(m, seed=1)


def test_classification_rejects_non_physical():
    with pytest.raises(ValueError, match="cone"):
        classify_mueller(np.diag([1.0, 2.0, 2.0, 2.0]))


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_classification_rejects_a_non_finite_entry_without_a_warning(entry):
    m = np.eye(4)
    m[0, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside the cone: Stokes parameters must be finite"):
            classify_mueller(m)


@pytest.mark.parametrize("probes", [0, -5])
@pytest.mark.parametrize("diagonal", [(1.0, 0.0, 0.0, 0.0), (1.0, 2.0, 2.0, 2.0)])
def test_classification_needs_at_least_one_probe(diagonal, probes):
    with pytest.raises(ValueError, match="probes must be at least 1"):
        classify_mueller(np.diag(diagonal), probes=probes)


def _probe_matrix(kind, rng):
    """A 4x4 matrix of one kind: random, a Jones lift (regular or rank 1), a diagonal depolarizer."""
    if kind == "random":
        return rng.normal(size=(4, 4))
    if kind == "depolarizer":
        return np.diag(np.concatenate(([1.0], rng.uniform(-1.0, 1.0, 3))))
    jones = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if kind == "rank-1 lift":
        jones = np.outer(jones[:, 0], jones[0].conj())
    return mueller_from_jones(jones)


_MATRICES = st.builds(
    _probe_matrix,
    st.sampled_from(["random", "lift", "rank-1 lift", "depolarizer"]),
    st.integers(min_value=0, max_value=2**32 - 1).map(np.random.default_rng),
)


def _verdict(classify, m, probes, seed):
    try:
        return classify(m, probes=probes, seed=seed)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(m=_MATRICES, probes=st.sampled_from([1, 7, 1000]), seed=st.integers(0, 2**64 - 1))
@example(m=np.zeros((4, 4)), probes=1000, seed=_DEFAULT_PROBE_SEED)
@example(m=np.diag([1.0, np.nan, 1.0, 1.0]), probes=7, seed=0)
@example(m=np.diag([1.0, 2.0, 2.0, 2.0]), probes=1000, seed=_DEFAULT_PROBE_SEED)
def test_classification_is_the_probe_by_probe_oracle(m, probes, seed):
    # Same verdict, or the same error message with the same residual bits.
    expected = _verdict(scalar_classify_mueller, m, probes, seed)
    assert _verdict(classify_mueller, m, probes, seed) == expected


@pytest.mark.parametrize("seed", [0, 1, 7, _DEFAULT_PROBE_SEED, 2**64 - 1])
def test_batched_probes_and_images_are_the_sequential_ones(monkeypatch, seed):
    checked = []
    monkeypatch.setattr(mueller, "validate_stokes", lambda s: checked.append(s.copy()) or s)
    lift = mueller_from_jones(np.array([[0.3, -0.2 + 0.7j], [0.1j, 0.9 - 0.4j]]))
    classify_mueller(np.eye(4), seed=seed)  # the identity's images are the probes
    classify_mueller(lift, seed=seed)
    probes, _ = zip(*scalar_probe_images(np.eye(4), 1000, seed))
    _, images = zip(*scalar_probe_images(lift / np.max(np.abs(lift)), 1000, seed))
    assert bitwise_equal(checked[0], np.array(probes))
    assert bitwise_equal(checked[1], np.array(images))
