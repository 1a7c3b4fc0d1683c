import json

import numpy as np
import pytest

from roofext import ParseError, bell_state, pure_projector, random_density
from roofext.diagonal import qubit_split_embedding
from roofext.measures import concurrence_2qubit, map_concurrence, partial_trace_kraus
from roofext.qubitmaps import axial_map, kraus_map
from roofext.serialize import (
    complex_array_to_json,
    decomposition_from_json,
    decomposition_to_json,
    dumps,
    embedding_from_json,
    embedding_to_json,
    json_to_complex_array,
    map_from_json,
    map_to_json,
    report_to_json,
    state_from_json,
    state_to_json,
)
from roofext.states import PureDecomposition, random_pure


def test_complex_array_round_trip(rng):
    A = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    back = json_to_complex_array(complex_array_to_json(A))
    np.testing.assert_array_equal(A, back)


def test_complex_array_rejects_garbage():
    with pytest.raises(ParseError):
        json_to_complex_array([[1.0, 2.0, 3.0]])  # last axis must pair re/im
    with pytest.raises(ParseError):
        json_to_complex_array("nope")


def test_state_round_trip(rng):
    rho = random_density(3, seed=rng)
    back = state_from_json(state_to_json(rho))
    np.testing.assert_allclose(back, rho, atol=0)
    with pytest.raises(ParseError):
        state_from_json({"dim": 2})


def test_map_round_trip():
    T = axial_map(0.3, 0.2, 0.8)
    back = map_from_json(map_to_json(T))
    np.testing.assert_allclose(back.bloch, T.bloch, atol=0)
    K = kraus_map([k for k in _damping_ops(0.25)])
    back = map_from_json(map_to_json(K))
    np.testing.assert_allclose(back.bloch, K.bloch, atol=1e-15)
    with pytest.raises(ParseError):
        map_from_json({"kind": "mystery"})


def _damping_ops(p):
    yield np.diag([1.0, np.sqrt(1 - p)]).astype(complex)
    yield np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)


def test_decomposition_round_trip(rng):
    psi1 = random_pure(2, seed=rng)
    psi2 = random_pure(2, seed=rng)
    dec = PureDecomposition((0.4, 0.6), (psi1, psi2))
    back = decomposition_from_json(decomposition_to_json(dec))
    assert back.weights == dec.weights
    np.testing.assert_array_equal(np.asarray(back.states), np.asarray(dec.states))


def test_embedding_round_trip():
    spec = qubit_split_embedding()
    back = embedding_from_json(embedding_to_json(spec))
    assert back.blocks == spec.blocks
    np.testing.assert_allclose(back.isometry(), spec.isometry(), atol=0)


def test_report_json_shape():
    rep = concurrence_2qubit(pure_projector(bell_state("phi+")))
    data = report_to_json(rep)
    assert set(data) <= {"quantity", "value", "method", "bounds", "decomposition"}
    text = dumps(data)
    parsed = json.loads(text)
    assert parsed["quantity"] == "concurrence"
    # canonical formatting: sorted keys, two-space indent
    assert text == json.dumps(data, indent=2, sort_keys=True)


def test_report_json_writes_extras():
    rep = map_concurrence(axial_map(0.3, 0.2, 0.8), random_density(2, seed=3))
    parsed = json.loads(dumps(report_to_json(rep)))
    assert parsed["extras"] == {"w_lo": rep.extras["w_lo"], "w_hi": rep.extras["w_hi"]}
