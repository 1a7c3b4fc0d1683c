import json

import numpy as np
import pytest

from roofext import bell_state, pure_projector, werner_state
from roofext.cli import main
from roofext.qubitmaps import dephased_amplitude_damping, diagonal_channel
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


def test_measure_invariant_violation_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # hand-rolled so the writer's own validation can't reject it first: trace 2
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    bad.write_text(json.dumps({"dim": 2, "matrix": eye}))
    code = main(["measure", "--state", str(bad), "--quantity", "ed"])
    assert code == 4
    err = capsys.readouterr().err
    assert "invariant violation" in err and "TraceNotOne" in err


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
    weights = out["decomposition"]["weights"]
    assert abs(sum(weights) - 1.0) < 1e-9


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


def test_solve_requires_map_for_output_objectives(qubit_file):
    assert main(["solve", "--state", qubit_file, "--objective", "det-out"]) == 2


def test_measure_eof_with_map_is_rejected(bell_file, diag_map_file):
    code = main(
        ["measure", "--state", bell_file, "--map", diag_map_file, "--quantity", "eof"]
    )
    assert code == 2
