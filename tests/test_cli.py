import json

import numpy as np
import pytest

from orthobound.cli import dumps_stable, load_instance, main


def write_instance(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


DENSE_REAL = {
    "space": {"kind": "dense", "dim": 3},
    "a": [1, 1, 1],
    "b": [1, 2, 3],
    "mode": "real",
}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# --- instance parsing ------------------------------------------------------

def test_load_round_trip(tmp_path):
    path = write_instance(tmp_path, DENSE_REAL)
    space, a, b, real_mode = load_instance(path)
    assert space.dim == 3 and real_mode
    np.testing.assert_array_equal(a, [1, 1, 1])
    np.testing.assert_array_equal(b, [1, 2, 3])


def test_load_complex_pairs(tmp_path):
    doc = {
        "space": {"kind": "dense", "dim": 2},
        "a": [[0, 1], [1, 0]],
        "b": [[1, 1], 2],
        "mode": "complex",
    }
    _, a, b, real_mode = load_instance(write_instance(tmp_path, doc))
    assert not real_mode
    np.testing.assert_array_equal(a, [1j, 1])
    np.testing.assert_array_equal(b, [1 + 1j, 2])


def test_real_mode_rejects_imaginary(tmp_path, capsys):
    doc = dict(DENSE_REAL, a=[[1, 0.5], 1, 1])
    code, _, err = run(capsys, ["bound", write_instance(tmp_path, doc)])
    assert code == 2
    assert "a[0]" in err


def test_dimension_mismatch_names_field(tmp_path, capsys):
    doc = dict(DENSE_REAL, b=[1, 2])
    code, _, err = run(capsys, ["bound", write_instance(tmp_path, doc)])
    assert code == 2
    assert "b" in err


def test_bad_mode(tmp_path, capsys):
    doc = dict(DENSE_REAL, mode="octonion")
    code, _, err = run(capsys, ["bound", write_instance(tmp_path, doc)])
    assert code == 2
    assert "mode" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, ["bound", "/nonexistent/inst.json"])
    assert code == 2


def test_bad_weight_reported(tmp_path, capsys):
    doc = {
        "space": {"kind": "weighted", "weights": [1.0, -2.0]},
        "a": [1, 0],
        "b": [0, 1],
        "mode": "real",
    }
    code, _, err = run(capsys, ["bound", write_instance(tmp_path, doc)])
    assert code == 2
    assert "index 1" in err


# --- stable serialization --------------------------------------------------

def test_dumps_stable_formats():
    assert dumps_stable({"a": 1.0, "b": [True, None, "x"]}) == '{"a": 1, "b": [true, null, "x"]}'
    assert dumps_stable(1 / 3) == "0.33333333333333331"


def test_output_round_trips_as_json(tmp_path, capsys):
    code, out, _ = run(capsys, ["bound", write_instance(tmp_path, DENSE_REAL)])
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == pytest.approx(2.0)
    assert doc["gram"]["det"] == pytest.approx(6.0)


# --- subcommands -----------------------------------------------------------

def test_cmd_bound_trivial(tmp_path, capsys):
    doc = {"space": {"kind": "dense", "dim": 2}, "a": [1, 0], "b": [1, 1], "mode": "real"}
    code, out, _ = run(capsys, ["bound", write_instance(tmp_path, doc)])
    assert code == 0
    assert json.loads(out)["bound"] == 1.0


def test_cmd_bound_zero_vector(tmp_path, capsys):
    doc = dict(DENSE_REAL, a=[0, 0, 0])
    code, _, err = run(capsys, ["bound", write_instance(tmp_path, doc)])
    assert code == 3
    assert "zero vector a" in err


def test_cmd_bound_quadrature_near_analytic(tmp_path, capsys):
    s = np.linspace(0.0, 1.0, 201)
    h = 1.0 / 200
    weights = [h / 2] + [h] * 199 + [h / 2]
    doc = {
        "space": {"kind": "quadrature", "nodes": list(s), "weights": weights},
        "a": [1.0] * 201,
        "b": list(s),
        "mode": "real",
    }
    code, out, _ = run(capsys, ["bound", write_instance(tmp_path, doc)])
    assert code == 0
    assert json.loads(out)["bound"] == pytest.approx(1 / 12, abs=2e-4)


def test_cmd_extremize(tmp_path, capsys):
    code, out, _ = run(capsys, ["extremize", write_instance(tmp_path, DENSE_REAL)])
    assert code == 0
    doc = json.loads(out)
    assert doc["attained"] == pytest.approx(2.0, abs=1e-9)
    assert doc["residual_orth"] < 1e-9
    assert doc["residual_norm"] < 1e-9
    np.testing.assert_allclose(doc["x"], [-1 / np.sqrt(2), 0, 1 / np.sqrt(2)], atol=1e-12)


def test_cmd_extremize_dependent_exits_4(tmp_path, capsys):
    doc = {"space": {"kind": "dense", "dim": 2}, "a": [1, 2], "b": [2, 4], "mode": "real"}
    code, _, _ = run(capsys, ["extremize", write_instance(tmp_path, doc)])
    assert code == 4


def test_cmd_minnorm(tmp_path, capsys):
    code, out, _ = run(capsys, ["minnorm", write_instance(tmp_path, DENSE_REAL)])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.5)
    np.testing.assert_allclose(doc["x"], [-0.5, 0, 0.5], atol=1e-12)


def test_cmd_minnorm_dim1_exits_4(tmp_path, capsys):
    doc = {"space": {"kind": "dense", "dim": 1}, "a": [1], "b": [2], "mode": "real"}
    code, _, _ = run(capsys, ["minnorm", write_instance(tmp_path, doc)])
    assert code == 4


def test_cmd_verify_defaults_pass(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify", write_instance(tmp_path, DENSE_REAL), "--trials", "100"])
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert len(lines) == 5
    assert all(d["passed"] for d in lines)
    assert lines[0]["settings"] == {"trials": 100, "seed": 1, "tol": 1e-9}


def test_cmd_verify_zero_trials(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify", write_instance(tmp_path, DENSE_REAL), "--trials", "0"])
    assert code == 0


def test_cmd_verify_complex_instance(tmp_path, capsys):
    doc = {
        "space": {"kind": "dense", "dim": 4},
        "a": [[1, 1], [0, 2], [3, 0], [1, -1]],
        "b": [[2, 0], [1, 1], [0, 0], [0, 1]],
        "mode": "complex",
    }
    code, out, _ = run(capsys, ["verify", write_instance(tmp_path, doc), "--trials", "100"])
    assert code == 0
    assert all(json.loads(ln)["passed"] for ln in out.splitlines())


def test_cmd_verify_bad_flag(tmp_path, capsys):
    code, _, _ = run(capsys, ["verify", write_instance(tmp_path, DENSE_REAL), "--tol", "2.0"])
    assert code == 2


def test_cmd_verify_replay_round_trip(tmp_path, capsys):
    inst = write_instance(tmp_path, DENSE_REAL)
    code, out, _ = run(capsys, ["verify", inst, "--trials", "50", "--seed", "7"])
    assert code == 0
    replay = tmp_path / "replay.jsonl"
    replay.write_text(out)
    code, out2, _ = run(capsys, ["verify", inst, "--replay", str(replay)])
    assert code == 0
    assert out2 == out


def test_cmd_verify_corrupted_replay_exits_5(tmp_path, capsys):
    inst = write_instance(tmp_path, DENSE_REAL)
    _, out, _ = run(capsys, ["verify", inst, "--trials", "50"])
    replay = tmp_path / "replay.jsonl"
    replay.write_text(out.replace('"bound": 2', '"bound": 3'))
    code, _, err = run(capsys, ["verify", inst, "--replay", str(replay)])
    assert code == 5
    assert "mismatch" in err


def test_cmd_verify_replay_of_older_format_exits_2(tmp_path, capsys):
    inst = write_instance(tmp_path, DENSE_REAL)
    _, out, _ = run(capsys, ["verify", inst, "--trials", "50"])
    assert all(json.loads(ln)["harness_format"] == 2 for ln in out.splitlines())
    replay = tmp_path / "replay.jsonl"
    for older in (out.replace(', "harness_format": 2', ""), out.replace('"harness_format": 2', '"harness_format": 1')):
        replay.write_text(older)
        code, _, err = run(capsys, ["verify", inst, "--replay", str(replay)])
        assert code == 2
        assert "older sampler" in err and "regenerate" in err


def test_cmd_verify_deterministic_output(tmp_path, capsys):
    inst = write_instance(tmp_path, DENSE_REAL)
    _, out1, _ = run(capsys, ["verify", inst, "--trials", "50"])
    _, out2, _ = run(capsys, ["verify", inst, "--trials", "50"])
    assert out1 == out2


WEIGHTED_COMPLEX = {
    "space": {"kind": "weighted", "weights": [0.5, 2.0, 1.25, 3.0]},
    "a": [[1, -0.5], [0.25, 2], [-1.5, 0], [0.75, 0.5]],
    "b": [[2, 1], [-0.5, 0.25], [1, -1], [0.125, 3]],
    "mode": "complex",
}

# Exact stdout of the pair subcommands, pinned so that a refactor cannot
# change a digit unnoticed.
GOLDEN_STDOUT = {
    ("dense_real", "bound"):
        '{"bound": 2, "gram": {"norm_a_sq": 3, "norm_b_sq": 14, "inner_ab": 6, "det": 6}}\n',
    ("dense_real", "extremize"):
        '{"x": [-0.70710678118654757, 0, 0.70710678118654757], "attained": 2.0000000000000009, '
        '"bound": 2, "residual_orth": 0, "residual_norm": 0}\n',
    ("dense_real", "minnorm"):
        '{"x": [-0.5, 0, 0.5], "value": 0.5, "residual_orth": 0, "residual_one": 0}\n',
    ("weighted_complex", "bound"):
        '{"bound": 21.735700334821427, "gram": {"norm_a_sq": 13.999999999999998, '
        '"norm_b_sq": 32.671875, "inner_ab": [4.40625, -11.5625], "det": 304.29980468749994}}\n',
    ("weighted_complex", "extremize"):
        '{"x": [[0.27290407632647057, 0.071098693569264682], [0.23017304332272059, -0.12567950883455883], '
        '[0.31575480410053924, 0.051229361696372572], [0.064754870742377443, 0.47686396494941174]], '
        '"attained": 21.735700334821431, "bound": 21.735700334821427, '
        '"residual_orth": 2.4825341532472731e-16, "residual_norm": 0}\n',
    ("weighted_complex", "minnorm"):
        '{"x": [[0.058536021796966008, 0.015250174099735879], [0.049370513120862131, -0.02695737845912909], '
        '[0.067727204166840513, 0.010988340933816435], [0.01388946832989413, 0.10228399598206692]], '
        '"value": 0.046007259236913636, "residual_orth": 1.3877787807814457e-16, '
        '"residual_one": 2.2221394694025363e-16}\n',
}


@pytest.mark.parametrize("instance, command", sorted(GOLDEN_STDOUT))
def test_pair_subcommands_golden_stdout(tmp_path, capsys, instance, command):
    doc = {"dense_real": DENSE_REAL, "weighted_complex": WEIGHTED_COMPLEX}[instance]
    code, out, _ = run(capsys, [command, write_instance(tmp_path, doc)])
    assert code == 0
    assert out == GOLDEN_STDOUT[instance, command]
