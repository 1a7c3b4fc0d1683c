import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roofext import (
    ConfigError,
    DimMismatch,
    EmbeddingSpec,
    NotIsometry,
    OutOfRange,
    SolverConfig,
    bloch_to_qubit,
    concave_leaf_membership,
    diag_entropy,
    ed_qubit,
    ed_qubit_flat_pair,
    embed_qubit_pair,
    embed_state,
    embedding_offset,
    h0_min_entropy_experiment,
    isotropic_state,
    maximally_mixed,
    pure_projector,
    qubit_split_embedding,
    qubit_to_bloch,
    random_density,
    random_pure,
    xi,
)

LOG2 = float(np.log(2.0))

interior_bloch = arrays(
    np.float64, (3,), elements=st.floats(min_value=-0.55, max_value=0.55)
)


def test_diag_entropy_range(rng):
    for d in (2, 3, 4):
        rho = random_density(d, seed=rng)
        s = diag_entropy(rho)
        assert -1e-12 <= s <= np.log(d) + 1e-12
    assert diag_entropy(maximally_mixed(3)) == pytest.approx(np.log(3.0), abs=1e-14)


def test_diag_entropy_balanced_superposition():
    psi = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert diag_entropy(pure_projector(psi)) == pytest.approx(LOG2, abs=1e-14)


def test_ed_qubit_closed_form(rng):
    # ed equals xi of the diagonal-channel concurrence 2|omega_01|
    for _ in range(20):
        omega = random_density(2, seed=rng)
        c = 2.0 * abs(omega[0, 1])
        assert abs(ed_qubit(omega) - xi(c)) < 1e-12


def test_ed_qubit_rejects_wrong_dim():
    with pytest.raises(DimMismatch):
        ed_qubit(maximally_mixed(3))


@given(x=interior_bloch)
def test_flat_pair_contract(x):
    omega = bloch_to_qubit(x)
    dec = ed_qubit_flat_pair(omega)
    assert dec.reconstruction_error(omega) < 1e-10
    vals = [diag_entropy(pure_projector(s)) for s in dec.states]
    assert abs(vals[0] - vals[1]) < 1e-10
    avg = sum(p * v for p, v in zip(dec.weights, vals))
    assert abs(avg - ed_qubit(omega)) < 1e-10


def test_flat_pair_members_swap_third_coordinate():
    omega = bloch_to_qubit([0.4, -0.2, 0.1])
    dec = ed_qubit_flat_pair(omega)
    xs = sorted(qubit_to_bloch(pure_projector(s))[2] for s in dec.states)
    assert abs(xs[0] + xs[1]) < 1e-10  # +/- same height
    x = [0.4, -0.2]
    s = np.sqrt(1.0 - x[0] ** 2 - x[1] ** 2)
    assert abs(xs[1] - s) < 1e-10


def test_flat_pair_pure_input_single_member():
    dec = ed_qubit_flat_pair(pure_projector(random_pure(2, seed=2)))
    assert len(dec.weights) == 1


def test_isotropic_state_basics():
    iso = isotropic_state(4, 0.7)
    psi = np.ones(4) / 2.0
    assert abs((psi @ iso.matrix @ psi).real - 0.7) < 1e-14
    assert abs(iso.x - (4 * 0.7 - 1) / 3.0) < 1e-14
    np.testing.assert_allclose(np.diag(iso.matrix), 0.25, atol=1e-15)
    with pytest.raises(OutOfRange):
        isotropic_state(3, 1.05)
    with pytest.raises(ConfigError):
        isotropic_state(1, 0.5)


def test_isotropic_bifurcation_coordinates():
    # the d=3 threshold fidelity 8/9 maps to x = 5/6
    iso = isotropic_state(3, 8.0 / 9.0)
    assert abs(iso.x - 5.0 / 6.0) < 1e-14
    vals = np.linalg.eigvalsh(iso.matrix)
    np.testing.assert_allclose(sorted(vals)[:2], (1 - iso.x) / 3.0, atol=1e-14)
    assert abs(max(vals) - 8.0 / 9.0) < 1e-12


def test_embedding_spec_validation():
    with pytest.raises(NotIsometry):
        EmbeddingSpec((2,), ([0.5, 0.5],))
    with pytest.raises(DimMismatch):
        EmbeddingSpec((1, 2), ([1.0],))
    spec = qubit_split_embedding()
    V = spec.isometry()
    np.testing.assert_allclose(V.conj().T @ V, np.eye(2), atol=1e-15)
    assert spec.source_dim == 2 and spec.target_dim == 3


def test_embedding_offset_identity(rng):
    spec = qubit_split_embedding()
    for _ in range(10):
        omega = random_density(2, seed=rng)
        img = embed_state(spec, omega)
        lhs = diag_entropy(img)
        rhs = diag_entropy(omega) + embedding_offset(spec, omega)
        assert abs(lhs - rhs) < 1e-12
        # the canonical split contributes <1|omega|1> log 2
        assert abs(embedding_offset(spec, omega) - omega[1, 1].real * LOG2) < 1e-12


def test_embedded_optimal_pair_diagonals():
    x1 = 2.0 * np.sqrt(2.0) / 3.0
    omega = bloch_to_qubit([x1, 0.0, 0.21])
    dec = ed_qubit_flat_pair(omega)
    spec = qubit_split_embedding()
    diags = sorted(
        (np.diag(embed_state(spec, pure_projector(s))).real for s in dec.states),
        key=lambda v: float(v[0]),
    )
    np.testing.assert_allclose(diags[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(diags[1], [2 / 3, 1 / 6, 1 / 6], atol=1e-12)


def test_embed_qubit_pair_blocks(rng):
    omega = random_density(2, seed=rng)
    img = embed_qubit_pair(omega)
    assert img.shape == (4, 4)
    assert abs(np.trace(img).real - 1.0) < 1e-12
    assert abs(img[0, 0] - omega[0, 0]) < 1e-14


def test_concave_leaf_membership(rng):
    omega = random_density(3, seed=rng)
    assert concave_leaf_membership(omega, omega)
    assert concave_leaf_membership(omega, np.diag(np.diag(omega)))
    shifted = np.diag(np.roll(np.diag(omega).real, 1)).astype(complex)
    assert not concave_leaf_membership(omega, shifted)
    with pytest.raises(DimMismatch):
        concave_leaf_membership(omega, maximally_mixed(2))


def test_h0_experiment_small_dims():
    val2, psi2 = h0_min_entropy_experiment(2)
    assert val2 == pytest.approx(LOG2, abs=1e-15)
    assert abs(np.sum(psi2)) < 1e-12  # lives on the zero-sum subspace
    val3, psi3 = h0_min_entropy_experiment(3, SolverConfig(restarts=16, max_iters=800, seed=0))
    assert abs(val3 - LOG2) < 1e-3
    assert abs(np.sum(psi3)) < 1e-8
    with pytest.raises(ConfigError):
        h0_min_entropy_experiment(1)


@pytest.mark.parametrize("d", range(2, 9))
def test_h0_basis_orthonormal_and_zero_sum(d):
    from roofext.diagonal import _h0_basis

    N = _h0_basis(d)
    assert N.shape == (d, d - 1)
    np.testing.assert_allclose(N.conj().T @ N, np.eye(d - 1), atol=1e-14)
    np.testing.assert_allclose(np.ones(d) @ N, 0.0, atol=1e-14)
