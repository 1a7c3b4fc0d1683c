import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roofext import DegeneratePencil, bell_state, pure_projector, random_density, werner_state
from roofext.cli import main
from roofext.qubitmaps import (
    affine_map,
    axial_beta_max,
    axial_map,
    dephased_amplitude_damping,
    depolarizing_map,
    diagonal_channel,
    kraus_map,
)
from roofext.serialize import dumps, map_to_json, state_to_json

LOG2 = float(np.log(2.0))

HH3 = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)


@pytest.fixture
def bell_file(tmp_path):
    p = tmp_path / "bell.json"
    p.write_text(dumps(state_to_json(pure_projector(bell_state("phi+")))))
    return str(p)


@pytest.fixture
def qubit_file(tmp_path):
    p = tmp_path / "hh3.json"
    p.write_text(dumps(state_to_json(HH3)))
    return str(p)


@pytest.fixture
def diag_map_file(tmp_path):
    p = tmp_path / "diag.json"
    p.write_text(dumps(map_to_json(diagonal_channel())))
    return str(p)


def test_measure_bell_eof_base2(bell_file, capsys):
    code = main(["measure", "--state", bell_file, "--quantity", "eof", "--base", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["quantity"] == "eof"
    assert abs(out["value"] - 1.0) < 1e-10


def test_measure_diagonal_concurrence(qubit_file, diag_map_file, capsys):
    code = main(
        ["measure", "--state", qubit_file, "--map", diag_map_file, "--quantity", "concurrence"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 0.5) < 1e-10  # 2 |omega_01|


def test_measure_map_concurrence_prints_interval(qubit_file, tmp_path, capsys):
    p = tmp_path / "damp.json"
    p.write_text(dumps(map_to_json(dephased_amplitude_damping(0.5))))
    code = main(["measure", "--state", qubit_file, "--map", str(p), "--quantity", "concurrence"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["extras"]["w_lo"] - 0.5) < 1e-12  # the interval is {gamma}
    assert abs(out["extras"]["w_hi"] - 0.5) < 1e-12
    assert abs(out["value"] - np.sqrt(0.375)) < 1e-12


def test_measure_missing_file_exits_2(capsys):
    assert main(["measure", "--state", "/nonexistent.json", "--quantity", "eof"]) == 2


def test_measure_bad_flag_exits_2(bell_file):
    assert main(["measure", "--state", bell_file, "--quantity", "sorcery"]) == 2


def test_measure_dim_mismatch_exits_3(bell_file):
    assert main(["measure", "--state", bell_file, "--quantity", "ed"]) == 3


def _general_maps():
    g = np.random.default_rng(2)
    Q, _ = np.linalg.qr(g.normal(size=(6, 2)) + 1j * g.normal(size=(6, 2)))
    T = kraus_map([Q[0:2], Q[2:4], Q[4:6]])
    return {"kraus": T, "affine": affine_map(depolarizing_map(0.5).bloch)}


@pytest.mark.parametrize("kind", ["kraus", "affine"])
def test_measure_tangle_dim_mismatch_exits_3(bell_file, tmp_path, kind):
    p = tmp_path / "map.json"
    p.write_text(dumps(map_to_json(_general_maps()[kind])))
    assert main(["measure", "--state", bell_file, "--map", str(p), "--quantity", "tangle"]) == 3


def test_measure_tangle_is_closed_form_for_kraus_maps(qubit_file, tmp_path, capsys):
    p = tmp_path / "map.json"
    p.write_text(dumps(map_to_json(_general_maps()["kraus"])))
    assert main(["measure", "--state", qubit_file, "--map", str(p), "--quantity", "tangle"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "closed_form"
    assert len(out["decomposition"]["weights"]) == 2


def test_measure_invariant_violation_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # hand-rolled so the writer's own validation can't reject it first: trace 2
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    bad.write_text(json.dumps({"dim": 2, "matrix": eye}))
    code = main(["measure", "--state", str(bad), "--quantity", "ed"])
    assert code == 4
    err = capsys.readouterr().err
    assert "invariant violation" in err and "TraceNotOne" in err


NAN_MAPS = {
    "axial": {"kind": "axial", "alpha": 0.5, "beta": float("nan"), "gamma": 0.5},
    "affine": {"kind": "affine", "m": np.diag([1.0, float("nan"), 1.0, 1.0]).tolist()},
}


@pytest.mark.parametrize("kind", sorted(NAN_MAPS))
def test_measure_nan_map_exits_4(qubit_file, tmp_path, capsys, kind):
    p = tmp_path / "nan_map.json"
    p.write_text(json.dumps(NAN_MAPS[kind]))  # json writes and reads the NaN literal
    assert main(["measure", "--state", qubit_file, "--map", str(p), "--quantity", "concurrence"]) == 4
    err = capsys.readouterr().err
    assert "invariant violation" in err and "Traceback" not in err


def test_measure_nan_state_exits_4(tmp_path, capsys):
    p = tmp_path / "nan_state.json"
    matrix = [[[0.5, 0.0], [float("nan"), 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    p.write_text(json.dumps({"dim": 2, "matrix": matrix}))
    assert main(["measure", "--state", str(p), "--quantity", "ed"]) == 4
    err = capsys.readouterr().err
    assert "NotHermitian" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command", [["solve", "--objective", "theta-form"], ["decompose", "--method", "flat-convex"]]
)
def test_nan_theta_exits_4(bell_file, tmp_path, capsys, command):
    p = tmp_path / "nan_theta.json"
    theta = np.eye(4)
    theta[0, 3] = theta[3, 0] = float("nan")
    p.write_text(json.dumps({"matrix": np.stack([theta, 0.0 * theta], axis=-1).tolist()}))
    assert main(command + ["--state", bell_file, "--theta", str(p)]) == 4
    err = capsys.readouterr().err
    assert "NotSymmetric" in err and "Traceback" not in err


def test_sweep_axial_csv(qubit_file, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep-axial",
            "--alpha", "1.0",
            "--gamma", "0.5",
            "--beta-steps", "4",
            "--state", qubit_file,
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "beta,w,concurrence,tangle,affine"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 0.5) < 1e-10  # w = gamma on the beta = 0 family
    assert abs(float(first[2]) - np.sqrt(0.375)) < 1e-9


def test_sweep_axial_single_row(qubit_file, tmp_path):
    out_csv = tmp_path / "one.csv"
    code = main(
        [
            "sweep-axial",
            "--alpha", "0.8",
            "--gamma", "0.6",
            "--beta-steps", "1",
            "--state", qubit_file,
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 2  # header + one row


def test_sweep_axial_out_of_range_writes_nothing(qubit_file, tmp_path, capsys):
    out_csv = tmp_path / "never.csv"
    argv = ["sweep-axial", "--alpha", "2", "--gamma", "0.5", "--beta-steps", "3"]
    code = main(argv + ["--state", qubit_file, "--out", str(out_csv)])
    assert code == 4
    err = capsys.readouterr().err
    assert "OutOfRange" in err and "RuntimeWarning" not in err
    assert not out_csv.exists()


def test_solve_diag_entropy(qubit_file, capsys):
    code = main(
        [
            "solve",
            "--state", qubit_file,
            "--objective", "diag-entropy",
            "--restarts", "4",
            "--max-iters", "400",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    from roofext.diagonal import ed_qubit

    assert abs(out["value"] - ed_qubit(HH3)) < 2e-3
    assert out["mode"] == "min"
    assert out["stop_reason"] in ("gradient", "armijo", "stall", "max_iters")
    assert out["converged"] == (out["stop_reason"] == "gradient")
    assert len(out["restart_values"]) == len(out["restart_reasons"]) == 4
    assert out["value"] == min(out["restart_values"])
    assert out["stop_reason"] == out["restart_reasons"][out["restart_values"].index(out["value"])]
    assert out["grad_evals"] >= 4 and out["value_evals"] > out["grad_evals"]
    weights = out["decomposition"]["weights"]
    assert abs(sum(weights) - 1.0) < 1e-9


@pytest.mark.parametrize("flag,value", [("--restarts", "0"), ("--max-iters", "0")])
def test_solve_rejects_an_empty_search_exits_4(qubit_file, flag, value, capsys):
    argv = ["solve", "--state", qubit_file, "--objective", "diag-entropy", flag, value]
    assert main(argv) == 4
    assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err


@pytest.fixture
def theta_file(tmp_path):
    p = tmp_path / "theta.json"
    p.write_text(json.dumps({"matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}))
    return str(p)


@pytest.mark.parametrize(
    "command", [["solve", "--objective", "theta-form"], ["decompose", "--method", "flat-convex"]]
)
def test_theta_default_and_dimension_checks(command, qubit_file, bell_file, theta_file, capsys):
    # a qubit state has no default conjugation
    assert main(command + ["--state", qubit_file]) == 2
    assert "--theta is required unless the state is two-qubit" in capsys.readouterr().err
    # a 2x2 conjugation against a two-qubit state
    assert main(command + ["--state", bell_file, "--theta", theta_file]) == 3
    assert "conjugation is 2-dimensional, state is 4" in capsys.readouterr().err
    # a matching one is accepted
    argv = command + ["--state", qubit_file, "--theta", theta_file]
    if command[0] == "solve":
        argv += ["--restarts", "2", "--max-iters", "50"]
    assert main(argv) == 0


def test_decompose_flat_convex(bell_file, capsys):
    code = main(["decompose", "--state", bell_file, "--method", "flat-convex"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["weights"]) == 1  # pure state


def test_decompose_ed_pair(qubit_file, capsys):
    code = main(["decompose", "--state", qubit_file, "--method", "ed-pair"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["weights"]) == 2


def _kraus_channel(seed, n_ops):
    g = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(g.normal(size=(2 * n_ops, 2)) + 1j * g.normal(size=(2 * n_ops, 2)))
    return kraus_map([Q[2 * k : 2 * k + 2] for k in range(n_ops)])


def test_decompose_length_two_output_is_pinned(tmp_path, capsys):
    # the 2-Kraus channel and the axial map (on its beta^2 branch) have a
    # two-dimensional pencil null space; the 3-Kraus and damping maps do not
    state = tmp_path / "state.json"
    state.write_text(dumps(state_to_json(random_density(2, rank=2, seed=3))))
    maps = [
        _kraus_channel(3, 3),
        _kraus_channel(2, 2),
        axial_map(0.35, 0.4 * axial_beta_max(0.35, 0.8), 0.8),
        dephased_amplitude_damping(0.5),
    ]
    out = ""
    with pytest.warns(DegeneratePencil):
        for i, T in enumerate(maps):
            p = tmp_path / f"map{i}.json"
            p.write_text(dumps(map_to_json(T)))
            argv = ["decompose", "--state", str(state), "--map", str(p), "--method", "length-two"]
            assert main(argv) == 0
            out += capsys.readouterr().out
    pinned = (Path(__file__).parent / "data" / "decompose_length_two.txt").read_text()
    assert out == pinned


def _solve_pinned_argvs(tmp_path):
    """`solve` command lines of tests/data/solve_pinned.txt, with their input files."""

    def write(name, payload):
        p = tmp_path / name
        p.write_text(dumps(payload))
        return str(p)

    g = np.random.default_rng(11)
    M = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
    two_qubit = write("rho4.json", state_to_json(random_density(4, rank=3, seed=5)))
    qutrit = write("rho3.json", state_to_json(random_density(3, seed=6)))
    qubit = write("rho2.json", state_to_json(random_density(2, seed=7)))
    theta = write("theta3.json", {"matrix": np.stack([(M + M.T).real, (M + M.T).imag], axis=-1).tolist()})
    kraus3 = write("kraus3.json", map_to_json(_kraus_channel(3, 3)))
    axial = write("axial.json", map_to_json(axial_map(0.35, 0.4 * axial_beta_max(0.35, 0.8), 0.8)))
    flags = ["--restarts", "4", "--max-iters", "300", "--seed", "2"]
    return [
        ["solve", "--state", two_qubit, "--objective", "theta-form", *flags],
        ["solve", "--state", qutrit, "--objective", "theta-form", "--mode", "max", "--theta", theta, *flags],
        ["solve", "--state", qubit, "--objective", "diag-entropy", *flags],
        ["solve", "--state", qubit, "--objective", "sqrt-det-out", "--map", kraus3, *flags],
        ["solve", "--state", qubit, "--objective", "entropy-out", "--map", axial, *flags],
    ]


def _json_documents(text):
    return [json.loads(doc) for doc in re.split(r"(?m)^(?=\{)", text) if doc]


def test_solve_output_is_pinned(tmp_path, capsys):
    # every field but value_evals, which counts each batch's trials past the accepted one
    out = ""
    for argv in _solve_pinned_argvs(tmp_path):
        assert main(argv) == 0
        out += capsys.readouterr().out
    pinned = (Path(__file__).parent / "data" / "solve_pinned.txt").read_text()
    runs, pinned_runs = _json_documents(out), _json_documents(pinned)
    assert len(runs) == len(pinned_runs) == 5
    for run, ref in zip(runs, pinned_runs):
        assert run.pop("value_evals") >= ref.pop("value_evals")
        assert run == ref


def test_h0_experiment_d2(capsys):
    code = main(["h0-experiment", "--dim", "2"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 2
    assert abs(out["value"] - LOG2) < 1e-14
    assert abs(out["excess"]) < 1e-14


def test_verify_zero_trials_is_noop(capsys):
    assert main(["verify", "--suite", "wootters", "--trials", "0"]) == 0
    assert "nothing to verify" in capsys.readouterr().out


def test_verify_deterministic_output(capsys):
    args = ["verify", "--suite", "bounds", "--trials", "3", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "pass" in first


def test_sweep_isotropic(tmp_path):
    out_csv = tmp_path / "iso.csv"
    code = main(
        [
            "sweep-isotropic",
            "--dim", "3",
            "--steps", "3",
            "--restarts", "3",
            "--max-iters", "300",
            "--out", str(out_csv),
        ]
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "fidelity,x,roof,diag_entropy"
    assert len(lines) == 4
    # the F = 1/d row is the maximally mixed state, already diagonal: the
    # basis ensemble drives the roof to zero
    first = [float(v) for v in lines[1].split(",")]
    assert abs(first[0] - 1.0 / 3.0) < 1e-12
    assert first[2] < 5e-3
    # the F = 1 row is pure: roof equals its diagonal entropy exactly
    last = [float(v) for v in lines[3].split(",")]
    assert abs(last[2] - last[3]) < 5e-3


def test_sweep_isotropic_rejects_zero_members(tmp_path, capsys):
    out_csv = tmp_path / "iso.csv"
    argv = ["sweep-isotropic", "--dim", "3", "--steps", "1", "--members", "0"]
    assert main(argv + ["--out", str(out_csv)]) == 4
    assert "members=0" in capsys.readouterr().err
    assert not out_csv.exists()


def test_sweep_isotropic_rejects_dim_zero(tmp_path, capsys):
    # the default --fidelity-min is 1/d; isotropic_state checks d before it divides
    out_csv = tmp_path / "iso.csv"
    assert main(["sweep-isotropic", "--dim", "0", "--out", str(out_csv)]) == 4
    assert "ConfigError" in capsys.readouterr().err
    assert not out_csv.exists()


def test_sweep_isotropic_out_of_range_writes_nothing(tmp_path, capsys):
    # the F = 1/3 row is valid; F = 1.5 fails after it, and no partial file remains
    out_csv = tmp_path / "iso.csv"
    argv = ["sweep-isotropic", "--dim", "3", "--steps", "2", "--fidelity-max", "1.5"]
    assert main(argv + ["--restarts", "2", "--max-iters", "100", "--out", str(out_csv)]) == 4
    assert "OutOfRange" in capsys.readouterr().err
    assert not out_csv.exists()


def test_solve_requires_map_for_output_objectives(qubit_file):
    assert main(["solve", "--state", qubit_file, "--objective", "det-out"]) == 2


def test_measure_eof_with_map_is_rejected(bell_file, diag_map_file):
    code = main(
        ["measure", "--state", bell_file, "--map", diag_map_file, "--quantity", "eof"]
    )
    assert code == 2


def test_solve_prints_the_final_gradient_norm(qubit_file, capsys):
    argv = ["solve", "--state", qubit_file, "--objective", "diag-entropy", "--restarts", "2"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["grad_norm"] < 1e-6  # the best restart ends near a stationary point


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "roofext", "verify", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "--suite" in proc.stdout
