import warnings

import numpy as np
import pytest

from roofext import (
    DimMismatch,
    EmbeddingSpec,
    OutOfRange,
    PureDecomposition,
    RoofextError,
    SolverConfig,
    affine_map,
    axial_beta_max,
    axial_map,
    axial_tangle,
    bell_state,
    bloch_to_qubit,
    check_symmetric,
    channel_entanglement,
    channel_tangle,
    concurrence_2qubit,
    concurrence_sq,
    decomposition_from_isometry,
    dephased_amplitude_damping,
    depolarizing_map,
    diagonal_channel,
    eof_2qubit,
    identity_map,
    kraus_map,
    map_concurrence,
    maximally_mixed,
    minimize_roof,
    objective_for,
    product_pure,
    pure_projector,
    random_density,
    random_pure,
    shannon_entropy,
    spectrum,
    theta_from_kraus_pair,
    transport_theta,
    two_kraus_seminorm,
    von_neumann_entropy,
    validate_density,
    validate_pure,
    werner_state,
    xi,
)
from roofext import measures
from roofext.diagonal import ed_qubit
from roofext.qubitmaps import apply_map
from roofext.verify import _rand_kraus_channel

LOG2 = float(np.log(2.0))


def test_xi_anchors():
    assert xi(0.0) == 0.0
    assert xi(1.0) == pytest.approx(LOG2, abs=1e-15)
    assert xi(0.6) == pytest.approx(shannon_entropy([0.1, 0.9]), abs=1e-14)
    with pytest.raises(OutOfRange):
        xi(1.01)
    # a hair over one from roundoff is clamped, not rejected
    assert xi(1.0 + 1e-13) == pytest.approx(LOG2, abs=1e-12)


def test_entropies():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(LOG2, abs=1e-15)
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert von_neumann_entropy(maximally_mixed(4)) == pytest.approx(np.log(4.0), abs=1e-12)
    assert von_neumann_entropy(pure_projector(bell_state("phi+"))) < 1e-12
    assert shannon_entropy([]) == 0.0


def test_negative_probability_raises_before_the_log_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="nonnegative"):
            shannon_entropy([-0.1, 1.1])


def test_concurrence_anchors():
    assert concurrence_2qubit(pure_projector(bell_state("psi+"))).value == pytest.approx(
        1.0, abs=1e-10
    )
    prod = pure_projector(product_pure([0.6, 0.8], [1.0, 0.0]))
    assert concurrence_2qubit(prod).value == pytest.approx(0.0, abs=1e-10)
    assert concurrence_2qubit(werner_state(0.9)).value == pytest.approx(0.85, abs=1e-10)
    with pytest.raises(DimMismatch):
        concurrence_2qubit(maximally_mixed(2))


def test_eof_anchors():
    rep = eof_2qubit(pure_projector(bell_state("phi-")))
    assert rep.value == pytest.approx(LOG2, abs=1e-10)
    rep = eof_2qubit(werner_state(0.9))
    assert rep.value == pytest.approx(xi(0.85), abs=1e-12)
    assert rep.extras["concurrence"] == pytest.approx(0.85, abs=1e-10)
    assert rep.method == "closed_form"


def test_map_concurrence_diagonal_channel(rng):
    omega = random_density(2, seed=rng)
    rep = map_concurrence(diagonal_channel(), omega)
    assert rep.value == pytest.approx(2.0 * abs(omega[0, 1]), abs=1e-10)
    assert rep.quantity == "concurrence"


def test_channel_tangle_closed_form(rng):
    a, g = 0.4, 0.75
    b = 0.5 * axial_beta_max(a, g)
    T = axial_map(a, b, g)
    omega = random_density(2, seed=rng)
    rep = channel_tangle(T, omega)
    assert rep.method == "closed_form"
    assert rep.value == pytest.approx(axial_tangle(a, b, g, omega), abs=1e-12)


def test_channel_entanglement_pure_is_exact():
    T = dephased_amplitude_damping(0.3)
    psi = random_pure(2, seed=3)
    rho = pure_projector(psi)
    rep = channel_entanglement(T, rho)
    assert rep.method == "closed_form"
    expect = von_neumann_entropy(apply_map(T, rho))
    assert rep.value == pytest.approx(expect, abs=1e-12)
    assert rep.bounds[0] <= rep.value + 1e-12
    assert len(rep.decomposition.weights) == 1


def test_channel_entanglement_diagonal_matches_closed(rng):
    omega = random_density(2, rank=2, seed=rng)
    cfg = SolverConfig(members=4, restarts=6, max_iters=600, seed=5)
    rep = channel_entanglement(diagonal_channel(), omega, cfg)
    assert rep.quantity == "entropy-out"
    assert rep.method == "solver"
    assert abs(rep.value - ed_qubit(omega)) < 2e-3
    lower, upper = rep.bounds
    assert lower - 5e-3 <= rep.value <= upper + 1e-9
    assert rep.extras["flat"]  # the diagonal channel roof is flat


@pytest.mark.parametrize("seed", range(5))
def test_channel_entanglement_identity_bracket(seed):
    # E = 0 for the identity map; the solver's entropy cancels to rounding
    # dust that once came out negative, with lower > upper on some states
    rep = channel_entanglement(identity_map(), random_density(2, seed=seed))
    lower, upper = rep.bounds
    assert rep.value >= 0.0
    assert lower <= rep.value <= upper
    assert upper < 1e-12


def test_channel_entanglement_bracket_violation_raises(monkeypatch):
    monkeypatch.setattr(measures, "xi", lambda c: 1.0)  # a lower bound above every value
    with pytest.raises(RoofextError, match="outside its bracket"):
        channel_entanglement(identity_map(), random_density(2, seed=0), SolverConfig(restarts=2))


def test_channel_entanglement_dim_check():
    with pytest.raises(DimMismatch):
        channel_entanglement(diagonal_channel(), maximally_mixed(4))


def test_report_bounds_sandwich_random(rng):
    for _ in range(5):
        a, g = rng.uniform(0.1, 0.9, size=2)
        b = rng.uniform(0.0, 0.95) * axial_beta_max(a, g)
        T = axial_map(a, b, g)
        omega = random_density(2, rank=2, seed=rng)
        rep = channel_entanglement(T, omega, SolverConfig(members=4, restarts=4, max_iters=400, seed=9))
        assert rep.value >= rep.bounds[0] - 5e-3
        assert rep.value <= rep.bounds[1] + 1e-9


def _random_maps(g, per_kind):
    """Kraus maps with 1-4 operators, their Bloch matrices as affine maps, and
    the same composed with the transpose (positive, not completely positive)."""
    for _ in range(per_kind):
        for n_ops in (1, 2, 3, 4):
            T = _rand_kraus_channel(g, n_ops)
            yield T
            yield affine_map(T.bloch)
            yield affine_map(T.bloch @ np.diag([1.0, 1.0, -1.0, 1.0]))


def test_channel_tangle_matches_the_solver():
    g = np.random.default_rng(21)
    maps = [_rand_kraus_channel(g, n_ops) for n_ops in (2, 3, 4) for _ in range(4)]
    maps += [m for m in _random_maps(g, 1) if m.kind == "affine"][:4]
    for T in maps:
        omega = random_density(2, rank=2, seed=g)
        rep = channel_tangle(T, omega)
        assert rep.method == "closed_form" and len(rep.decomposition) == 2
        cfg = SolverConfig(members=4, restarts=4, max_iters=500, tol=1e-9, stall_iters=30, seed=3)
        referee = 4.0 * minimize_roof(objective_for(T, "det-out"), omega, cfg).value
        assert referee - 5e-3 <= rep.value <= referee + 1e-9


def test_channel_tangle_witness_attains_the_value():
    g = np.random.default_rng(5)
    for T in _random_maps(g, 20):
        omega = random_density(2, seed=g)
        rep = channel_tangle(T, omega)
        dec = rep.decomposition
        assert dec.reconstruction_error(omega) <= 1e-10
        avg = sum(
            p * 4.0 * np.linalg.det(apply_map(T, pure_projector(s))).real
            for p, s in zip(dec.weights, dec.states)
        )
        assert abs(avg - rep.value) <= 1e-12
        assert rep.value >= concurrence_sq(T, omega) - 1e-12


def test_channel_tangle_identity_and_pure_inputs():
    for seed in range(5):
        rep = channel_tangle(identity_map(), random_density(2, seed=seed))
        assert 0.0 <= rep.value <= 1e-15
    psi = random_pure(2, seed=3)
    T = _rand_kraus_channel(np.random.default_rng(3), 3)
    rep = channel_tangle(T, pure_projector(psi))
    assert len(rep.decomposition) == 1
    assert rep.value == pytest.approx(4.0 * np.linalg.det(apply_map(T, pure_projector(psi))).real, abs=1e-15)


def test_channel_tangle_dim_check():
    with pytest.raises(DimMismatch):
        channel_tangle(affine_map(depolarizing_map(0.5).bloch), maximally_mixed(4))


NAN = float("nan")
NAN_STATE = np.array([[NAN, 0.0], [0.0, 0.5]])
NAN_INPUTS = {
    "validate_density": lambda: validate_density(NAN_STATE),
    "spectrum": lambda: spectrum(NAN_STATE),
    "concurrence_sq": lambda: concurrence_sq(identity_map(), np.array([[0.5, NAN], [NAN, 0.5]])),
    "xi": lambda: xi(NAN),
    "kraus_map": lambda: kraus_map([np.diag([1.0, NAN])]),
    "axial_map": lambda: axial_map(0.5, NAN, 0.5),
    "affine_map": lambda: affine_map(np.diag([1.0, NAN, 1.0, 1.0])),
    "check_symmetric": lambda: check_symmetric(np.diag([NAN, 1.0])),
    "validate_pure": lambda: validate_pure([NAN, 1.0]),
    "two_kraus_seminorm": lambda: two_kraus_seminorm(np.diag([NAN, 1.0]), np.zeros((2, 2)), np.eye(2)),
    "shannon_entropy": lambda: shannon_entropy([NAN, 0.5]),
    "EmbeddingSpec": lambda: EmbeddingSpec((1, 2), ([1.0], [NAN, 1.0])),
    "bloch_to_qubit": lambda: bloch_to_qubit((NAN, 0.0, 0.0)),
    "pure_projector": lambda: pure_projector([NAN, 1.0]),
    "transport_theta": lambda: transport_theta(np.eye(2), np.full((2, 2), NAN)),
    "theta_from_kraus_pair": lambda: theta_from_kraus_pair(np.full((2, 2), NAN), np.eye(2)),
    "decomposition_from_isometry": lambda: decomposition_from_isometry(
        maximally_mixed(2), np.array([[NAN, 0.0], [0.0, 1.0]])
    ),
    "from_columns": lambda: PureDecomposition.from_columns(np.array([[1.0, NAN], [0.0, 0.0]])),
}


@pytest.mark.parametrize("name", sorted(NAN_INPUTS))
def test_nan_input_raises_a_typed_error(name):
    # NaN compares False with every tolerance, so each check is written to fail on it
    with pytest.raises(RoofextError, match="nan|non-finite"):
        NAN_INPUTS[name]()
