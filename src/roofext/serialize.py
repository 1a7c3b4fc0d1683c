"""JSON serialization: states and maps both ways, decompositions and reports out.

Complex entries are encoded as [re, im] pairs; affine map matrices are plain
real 4x4 arrays.  All dumps are indent=2 and key-sorted so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .qubitmaps import affine_map, axial_map, kraus_map
from .states import validate_density


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def complex_array_to_json(A):
    arr = np.asarray(A, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def json_to_complex_array(obj):
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"expected nested [re, im] lists: {exc}") from None
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ParseError(f"expected [re, im] pairs in the last axis, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_json(omega):
    omega = validate_density(omega)
    return {"dim": int(omega.shape[0]), "matrix": complex_array_to_json(omega)}


def state_from_json(obj):
    try:
        dim = int(obj["dim"])
        matrix = json_to_complex_array(obj["matrix"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"state object needs 'dim' and 'matrix': {exc}") from None
    if matrix.shape != (dim, dim):
        raise ParseError(f"matrix shape {matrix.shape} does not match dim {dim}")
    return matrix


def decomposition_to_json(dec):
    return {
        "weights": [float(p) for p in dec.weights],
        "states": [complex_array_to_json(s) for s in dec.states],
    }


def map_to_json(T):
    if T.kind == "kraus":
        return {"kind": "kraus", "ops": [complex_array_to_json(E) for E in T.kraus]}
    if T.kind == "axial":
        a, b, g = T.params
        return {"kind": "axial", "alpha": a, "beta": b, "gamma": g}
    if T.kind == "affine":
        return {"kind": "affine", "m": np.asarray(T.bloch, dtype=float).tolist()}
    raise ParseError(f"unknown map kind {T.kind!r}")


def map_from_json(obj):
    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"map object needs a 'kind': {exc}") from None
    if kind == "kraus":
        try:
            ops = [json_to_complex_array(E) for E in obj["ops"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"kraus map needs 'ops': {exc}") from None
        return kraus_map(ops)
    if kind == "axial":
        try:
            return axial_map(float(obj["alpha"]), float(obj["beta"]), float(obj["gamma"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"axial map needs numeric 'alpha', 'beta', 'gamma': {exc}") from None
    if kind == "affine":
        try:
            m = np.asarray(obj["m"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"affine map needs a real 'm' matrix: {exc}") from None
        return affine_map(m)
    raise ParseError(f"unknown map kind {kind!r}")


def report_to_json(report):
    out = {
        "quantity": report.quantity,
        "value": float(report.value),
        "method": report.method,
    }
    if report.bounds is not None:
        out["bounds"] = {"lower": float(report.bounds[0]), "upper": float(report.bounds[1])}
    if report.decomposition is not None:
        out["decomposition"] = decomposition_to_json(report.decomposition)
    if report.extras:
        out["extras"] = dict(report.extras)
    return out


def read_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON file {path}: {exc}") from None
