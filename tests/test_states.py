import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roofext import (
    DimMismatch,
    NotHermitian,
    NotIsometry,
    NotPSD,
    OutOfRange,
    OutsideBall,
    PureDecomposition,
    TraceNotOne,
    bell_state,
    bloch_chord,
    bloch_to_qubit,
    concurrence_sq,
    decomposition_from_isometry,
    depolarizing_map,
    ed_qubit,
    maximally_mixed,
    product_pure,
    pure_projector,
    qubit_to_bloch,
    random_density,
    random_pure,
    random_unitary,
    spectral_ensemble,
    spectrum,
    subtraction_weight,
    validate_density,
    werner_state,
)
from roofext.measures import eta


def test_validate_density_rejects_nonhermitian():
    bad = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(NotHermitian):
        validate_density(bad)


def test_validate_density_rejects_bad_trace():
    with pytest.raises(TraceNotOne):
        validate_density(np.eye(2, dtype=complex))


def test_validate_density_rejects_negative():
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(NotPSD):
        validate_density(bad)


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((2, 3)),
        np.array([[0.5, 0.1], [0.3, 0.5]]),
        np.eye(2),
        np.diag([1.2, -0.2]),
    ],
)
def test_spectrum_raises_what_validate_density_raises(bad):
    with pytest.raises(Exception) as expected:
        validate_density(bad)
    with pytest.raises(type(expected.value)) as got:
        spectrum(bad)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("d,rank", [(2, 1), (3, 2), (4, 4), (8, 5)])
def test_spectrum_record(rng, d, rank):
    rho = random_density(d, rank=rank, seed=rng)
    sp = spectrum(rho)
    assert spectrum(sp) is sp is spectrum(sp, dim=d)
    with pytest.raises(DimMismatch):
        spectrum(sp, dim=d + 1)
    vals = np.linalg.eigvalsh(rho)
    assert sp.dim == d and sp.rank == rank == int(np.sum(vals > 1e-10))
    assert np.array_equal(sp.matrix, rho)
    assert np.all(np.diff(sp.values) <= 0.0)
    np.testing.assert_allclose(sp.values, vals[::-1], atol=1e-14)
    np.testing.assert_allclose((sp.vectors * sp.values) @ sp.vectors.conj().T, rho, atol=1e-14)
    K = sp.factor
    np.testing.assert_allclose(K @ K.conj().T, rho, atol=1e-14)
    R = K @ sp.vectors.conj().T
    np.testing.assert_allclose(R @ R, rho, atol=1e-12)
    np.testing.assert_allclose(R, R.conj().T, atol=1e-13)
    ens = spectral_ensemble(sp)
    assert len(ens) == rank
    assert ens.reconstruction_error(rho) < 1e-12


def test_spectral_decomposition_descending_and_reconstructs(rng):
    rho = random_density(4, seed=rng)
    sp = spectrum(rho)
    assert np.all(np.diff(sp.values) <= 1e-14)
    rebuilt = (sp.vectors * sp.values) @ sp.vectors.conj().T
    np.testing.assert_allclose(rebuilt, rho, atol=1e-12)


def test_psd_sqrt(rng):
    rho = random_density(3, seed=rng)
    sp = spectrum(rho)
    R = sp.factor @ sp.vectors.conj().T
    np.testing.assert_allclose(R @ R, rho, atol=1e-12)
    np.testing.assert_allclose(R, R.conj().T, atol=1e-13)


def test_spectrum_rank(rng):
    cases = [(maximally_mixed(4), 4), (pure_projector(bell_state("phi+")), 1)]
    cases.append((random_density(4, rank=2, seed=rng), 2))
    for rho, rank in cases:
        assert spectrum(rho).rank == rank == int(np.sum(np.linalg.eigvalsh(rho) > 1e-10))


def test_pure_decomposition_validation(rng):
    psi = random_pure(2, seed=rng)
    with pytest.raises(Exception):
        PureDecomposition((0.7,), (psi,))  # weights must sum to one
    with pytest.raises(Exception):
        PureDecomposition((1.0,), (2.0 * psi,))  # members must be normalized
    dec = PureDecomposition((0.25, 0.75), (random_pure(2, seed=rng), psi))
    assert abs(sum(dec.weights) - 1.0) < 1e-12
    assert dec.average_state().shape == (2, 2)


def test_pure_decomposition_reports_the_worst_member_norm(rng):
    psi = random_pure(3, seed=rng)
    PureDecomposition((0.5, 0.5), (psi, (1.0 + 1e-11) * psi))  # within 1e-10
    with pytest.raises(NotIsometry, match=r"member norm deviation 1\.000e-06 > 1e-10"):
        PureDecomposition((0.2, 0.3, 0.5), (psi, (1.0 + 1e-9) * psi, (1.0 - 1e-6) * psi))


@pytest.mark.parametrize(
    "weights, second, error",
    [
        ((math.nan, 1.0), [0.0, 1.0], NotPSD),
        ((1.0, math.nan), [0.0, 1.0], NotPSD),
        ((0.5, 0.5), [math.nan, 0.0], NotIsometry),
    ],
    ids=["nan-weight-first", "nan-weight-last", "nan-member"],
)
def test_pure_decomposition_rejects_nan(weights, second, error):
    with pytest.raises(error, match="nan"):
        PureDecomposition(weights, ([1.0, 0.0], second))


def test_decomposition_from_isometry(rng):
    rho = random_density(3, rank=2, seed=rng)
    G = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    V, _ = np.linalg.qr(G)
    dec = decomposition_from_isometry(rho, V)
    assert dec.reconstruction_error(rho) < 1e-12
    with pytest.raises(NotIsometry):
        decomposition_from_isometry(rho, 1.1 * V)
    with pytest.raises(NotIsometry):  # fewer members than the rank is never an isometry
        decomposition_from_isometry(rho, np.array([[1.0, 0.0]]))


def test_pure_projector_rejects_an_unnormalized_vector():
    with pytest.raises(NotIsometry, match="norm"):
        pure_projector([1.0, 1.0])


@given(
    x=arrays(
        np.float64,
        (3,),
        elements=st.floats(min_value=-0.57, max_value=0.57),
    )
)
def test_bloch_round_trip(x):
    rho = bloch_to_qubit(x)
    validate_density(rho)
    np.testing.assert_allclose(qubit_to_bloch(rho), x, atol=1e-12)


def test_bloch_outside_ball():
    with pytest.raises(OutsideBall):
        bloch_to_qubit([0.8, 0.8, 0.8])


def test_bell_and_product_states():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        psi = bell_state(kind)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
    prod = product_pure([1.0, 0.0], [0.6, 0.8])
    assert abs(np.linalg.norm(prod) - 1.0) < 1e-14


def test_werner_family():
    np.testing.assert_allclose(werner_state(0.0), maximally_mixed(4), atol=1e-15)
    w = werner_state(1.0)
    np.testing.assert_allclose(w, pure_projector(bell_state("psi-")), atol=1e-14)
    assert np.linalg.eigvalsh(werner_state(-1.0 / 3.0))[0] > -1e-15


@pytest.mark.parametrize("p", [2.0, -0.5, math.nan])
def test_werner_state_rejects_a_parameter_that_is_not_a_state(p):
    with pytest.raises(OutOfRange, match=r"\[-1/3, 1\]"):
        werner_state(p)


@pytest.mark.parametrize("make", [maximally_mixed, random_pure, random_unitary, random_density])
@pytest.mark.parametrize("dim", [0, -1, 2.5])
def test_constructors_reject_dim_below_one(make, dim):
    with pytest.raises(DimMismatch, match=">= 1"):
        make(dim)


def test_random_generators_are_seeded():
    a = random_density(3, seed=7)
    b = random_density(3, seed=7)
    np.testing.assert_array_equal(a, b)
    U = random_unitary(4, seed=11)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(4), atol=1e-12)


def test_eta_matches_math_log():
    grid = np.concatenate([[0.0, 1.0, 1e-300], np.random.default_rng(5).uniform(size=200)])
    want = np.array([-v * math.log(v) if v > 0.0 else 0.0 for v in grid])
    np.testing.assert_allclose(eta(grid), want, rtol=0.0, atol=1e-15)
    for v, w in zip(grid, want):
        got = eta(float(v))
        assert type(got) is float
        assert abs(got - w) <= 1e-15
    assert eta(0.0) == 0.0


def test_import_loads_no_scipy():
    import roofext

    src = str(Path(roofext.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import roofext, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


def test_validate_density_takes_a_spectrum_record(monkeypatch):
    sp = spectrum(random_density(2, seed=1))
    assert ed_qubit(sp) == ed_qubit(sp.matrix)
    T = depolarizing_map(0.4)
    assert concurrence_sq(T, sp, subtraction_weight(T)) == concurrence_sq(T, sp.matrix, subtraction_weight(T))
    calls = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
    assert validate_density(sp, dim=2) is sp.matrix
    ed_qubit(sp)
    assert calls == []  # a record is not validated again
    with pytest.raises(DimMismatch):
        validate_density(sp, dim=3)


def _bloch_of(psi):
    return qubit_to_bloch(pure_projector(psi))


@st.composite
def _chords(draw):
    """(x, d): interior points, points within 1e-9 of the sphere, and chords through the south pole."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, d = (v / np.linalg.norm(v) for v in g.normal(size=(2, 3)))
    kind = draw(st.sampled_from(["interior", "near-sphere", "south-pole"]))
    if kind == "interior":
        x = draw(st.floats(0.0, 0.999)) * u
    elif kind == "near-sphere":
        x = (1.0 - 10.0 ** draw(st.floats(-9.0, -3.0))) * u
    else:
        south = np.array([0.0, 0.0, -1.0])
        x = south + draw(st.floats(1e-3, 1.0 - 1e-3)) * (u - south)
        d = (u - south) / np.linalg.norm(u - south)
    return x, d


@given(_chords())
def test_bloch_chord_members_lie_on_the_line_and_sphere(case):
    x, d = case
    dec = bloch_chord(x, d)
    assert 1 <= len(dec) <= 2 and min(dec.weights) > 0.0
    ys = [_bloch_of(psi) for psi in dec.states]
    for psi, y in zip(dec.states, ys):
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
        off = (y - x) - ((y - x) @ d) * d  # distance from the line
        assert np.linalg.norm(off) <= 1e-12
    avg = sum(p * y for p, y in zip(dec.weights, ys))
    assert np.linalg.norm(avg - x) <= 1e-12


def test_bloch_chord_through_both_poles():
    dec = bloch_chord([0.0, 0.0, 0.2], [0.0, 0.0, 2.0])
    np.testing.assert_allclose(dec.weights, [0.6, 0.4], atol=1e-15)
    np.testing.assert_allclose(dec.states[0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(dec.states[1], [0.0, 1.0], atol=1e-15)
    assert dec.reconstruction_error(bloch_to_qubit([0.0, 0.0, 0.2])) <= 1e-15
