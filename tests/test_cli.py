import hashlib
import json

import numpy as np
import pytest

from orthobound import OrthoboundError
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


def _real_pair_on(space, dim):
    return {"space": space, "a": [1] + [0] * (dim - 1), "b": [0] * (dim - 1) + [2], "mode": "real"}


BEYOND_FLOAT64 = 10**400

# Instances the decoder refuses, with the message it gives: an integer beyond
# float64 anywhere, weights or nodes that are not a nonempty array of numbers
# (a string, a bool or a bare number was once converted to a weight or a
# node), and, as a pin, an imaginary part in real mode named before a later
# string entry.  Then what is not the JSON shape of an instance: a top level
# or a space that is not an object, a missing key, or a dim that is not an
# integer or does not match the weights.
MALFORMED_INSTANCES = {
    "a-beyond-float64": (dict(DENSE_REAL, a=[BEYOND_FLOAT64, 1, 1]), "a: entries must fit in float64"),
    "b-beyond-float64": (dict(DENSE_REAL, b=[1, 2, [3, -BEYOND_FLOAT64]]), "b: entries must fit in float64"),
    "weights-beyond-float64": (
        _real_pair_on({"kind": "weighted", "weights": [1.0, BEYOND_FLOAT64]}, 2),
        "space.weights: entries must fit in float64",
    ),
    "nodes-beyond-float64": (
        _real_pair_on({"kind": "quadrature", "nodes": [0, BEYOND_FLOAT64], "weights": [0.5, 0.5]}, 2),
        "space.nodes: entries must fit in float64",
    ),
    "weights-string": (
        _real_pair_on({"kind": "weighted", "weights": ["1", 2]}, 2), "space.weights[0]: expected a number"
    ),
    "weights-bool": (
        _real_pair_on({"kind": "weighted", "weights": [True, 2]}, 2), "space.weights[0]: expected a number"
    ),
    "weights-bare-number": (
        _real_pair_on({"kind": "weighted", "weights": 2.5}, 1), "space.weights: expected a nonempty array"
    ),
    "nodes-strings": (
        _real_pair_on({"kind": "quadrature", "nodes": ["0", "1"], "weights": [0.5, 0.5]}, 2),
        "space.nodes[0]: expected a number",
    ),
    "a-imaginary-before-string": (
        dict(DENSE_REAL, a=[[1, 0.5], "x", 1]), "a[0]: nonzero imaginary part in real mode"
    ),
    "top-level-array": ([DENSE_REAL], "file: top-level value must be an object"),
    "space-array": (dict(DENSE_REAL, space=[3]), "space: expected an object"),
    "space-missing": ({"a": [1], "b": [2], "mode": "real"}, "space: missing"),
    "a-missing": ({"space": {"kind": "dense", "dim": 1}, "b": [2], "mode": "real"}, "a: missing"),
    "b-missing": ({"space": {"kind": "dense", "dim": 1}, "a": [1], "mode": "real"}, "b: missing"),
    "dim-float": (dict(DENSE_REAL, space={"kind": "dense", "dim": 3.0}), "space.dim: expected a positive integer"),
    "dim-bool": (_real_pair_on({"kind": "dense", "dim": True}, 1), "space.dim: expected a positive integer"),
    "dim-against-weights": (
        _real_pair_on({"kind": "weighted", "weights": [1, 2], "dim": 3}, 2),
        "space.dim: inconsistent with weights length 2",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INSTANCES))
def test_malformed_instance_is_an_input_error(tmp_path, capsys, case):
    doc, message = MALFORMED_INSTANCES[case]
    code, out, err = run(capsys, ["bound", write_instance(tmp_path, doc)])
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_dimension_mismatch_names_field(tmp_path, capsys):
    doc = dict(DENSE_REAL, b=[1, 2])
    code, _, err = run(capsys, ["bound", write_instance(tmp_path, doc)])
    assert code == 2
    assert "b" in err


# Bad vector and space values are refused by the library, in its own words;
# the CLI refuses what is not the JSON shape of an instance, such as a missing
# key, text that is not JSON, or a dense dim that differs from the length of a.
# The whole shape, a and b included, is checked before any value, so a space
# value fault is named only once the vectors decode.  No refusal allocates as
# much as 1 MiB: a dense dim of 10^7 is refused before the space's 80 MB of
# weights exist.  A vector given as None is left out of the instance.
DENSE_3 = '{"kind": "dense", "dim": 3}'
LAYER_REFUSALS = {
    # json reads the float 1e400 as inf
    "a-inf": (DENSE_3, "[1e400, 1, 1]", "[1, 2, 3]", "a contains NaN or Inf"),
    "b-short": (DENSE_3, "[1, 1, 1]", "[1, 2]", "b has length 2, space has dimension 3"),
    "dense-without-dim": ('{"kind": "dense"}', "[1]", "[2]", "space.dim: required for dense spaces"),
    # a kind that cannot be a key of the CLI's table of required keys
    "kind-list": ('{"kind": ["dense"]}', "[1]", "[2]", "space.kind: expected dense|weighted|quadrature"),
    "a-short": (DENSE_3, "[1, 1]", "[1, 2, 3]", "space.dim: inconsistent with length 2 of a"),
    "dense-dim-1e7": ('{"kind": "dense", "dim": 10000000}', "[1]", "[2]", "space.dim: inconsistent with length 1 of a"),
    "dense-dim-1e7-a-string": ('{"kind": "dense", "dim": 10000000}', '"x"', "[2]", "a: expected a nonempty array"),
    "dense-dim-1e7-a-missing": ('{"kind": "dense", "dim": 10000000}', None, "[2]", "a: missing"),
    "weight-negative-a-string": ('{"kind": "weighted", "weights": [-1]}', '"x"', "[2]", "a: expected a nonempty array"),
    "dense-dim-0-a-string": ('{"kind": "dense", "dim": 0}', '"x"', "[2]", "a: expected a nonempty array"),
    "dense-dim-negative-a-missing": ('{"kind": "dense", "dim": -5}', None, "[2]", "a: missing"),
    "nodes-decreasing-b-missing": (
        '{"kind": "quadrature", "nodes": [1, 0], "weights": [1, 1]}', "[1, 0]", None, "b: missing"
    ),
    # the dim is checked against the weights before the weights' values
    "weight-negative-dim-against-weights": (
        '{"kind": "weighted", "weights": [-1, 1], "dim": 3}', "[1, 0]", "[0, 1]",
        "space.dim: inconsistent with weights length 2",
    ),
    "invalid-json": (
        DENSE_3, "[1, 1, 1", "[1, 2, 3]", "file: invalid JSON: Expecting ',' delimiter: line 1 column 58 (char 57)"
    ),
    "nodes-inf": (
        '{"kind": "quadrature", "nodes": [0, 1e400], "weights": [1, 1]}', "[1, 0]", "[0, 1]",
        "space: quadrature nodes must be finite",
    ),
    "nodes-against-weights": (
        '{"kind": "quadrature", "nodes": [0, 1, 2], "weights": [1, 1]}', "[1, 0]", "[0, 1]",
        "space: nodes and weights must have equal length",
    ),
}


@pytest.mark.parametrize("case", sorted(LAYER_REFUSALS))
def test_each_layer_names_what_it_refuses(tmp_path, capsys, case):
    import tracemalloc

    space, a, b, message = LAYER_REFUSALS[case]
    path = tmp_path / "inst.json"
    vectors = "".join(f'"{name}": {v}, ' for name, v in (("a", a), ("b", b)) if v is not None)
    path.write_text(f'{{"space": {space}, {vectors}"mode": "real"}}')
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["bound", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"input error: {message}\n")
    assert peak < 1 << 20


@pytest.mark.parametrize("command", ["bound", "extremize", "minnorm", "verify"])
def test_each_vector_is_validated_once(tmp_path, capsys, as_vector_calls, command):
    inst = write_instance(tmp_path, dict(DENSE_REAL, b=[1, 2, 4]))
    extra = ["--trials", "20"] if command == "verify" else []
    assert main([command, inst] + extra) == 0
    assert as_vector_calls == ["a", "b"]


def test_verify_worker_keeps_the_floating_point_settings(tmp_path, capsys):
    # the deflated check's worker thread overflows on these weights; it runs
    # under main's np.errstate, so the run ends in one typed error, with no
    # numpy warning (an error under this suite's warning filter)
    space = {"kind": "weighted", "weights": [5e-324, 1e308, 1]}
    doc = {"space": space, "a": [1, 0, 1], "b": [0, 1, 2], "mode": "real"}
    code, out, err = run(capsys, ["verify", write_instance(tmp_path, doc)])
    assert (code, out) == (2, "")
    assert err == (
        "input error: scale covariance check, scale 2.0: the Gram data of the pair overflows float64 "
        "(||a||^2=4.000e+00, ||b||^2=1.000e+308)\n"
    )


def test_bad_mode(tmp_path, capsys):
    doc = dict(DENSE_REAL, mode="octonion")
    code, _, err = run(capsys, ["bound", write_instance(tmp_path, doc)])
    assert code == 2
    assert "mode" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, ["bound", "/nonexistent/inst.json"])
    assert code == 2


@pytest.mark.parametrize("field", ["file", "--replay"])
def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, field):
    # the byte 0xe9, Latin-1 for an e with an acute accent, in a JSON string
    inst = write_instance(tmp_path, DENSE_REAL)
    path = tmp_path / "latin1.json"
    if field == "file":
        path.write_bytes(json.dumps(dict(DENSE_REAL, mode="r\xe9al"), ensure_ascii=False).encode("latin-1"))
        argv = ["bound", str(path)]
    else:
        _, out, _ = run(capsys, ["verify", inst, "--trials", "20"])
        path.write_bytes(out.replace('"check"', '"ch\xe9ck"', 1).encode("latin-1"))
        argv = ["verify", inst, "--replay", str(path)]
    code, out, err = run(capsys, argv)
    position = 81 if field == "file" else 4
    assert (code, out, err) == (
        2, "", f"input error: {field}: 'utf-8' codec can't decode byte 0xe9 in position {position}: "
        "invalid continuation byte\n",
    )


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_dumps_stable_refuses_non_finite_floats(value):
    for obj in (value, np.float64(value), [1.0, [value]], {"a": {"b": value}}, {"a": [0.5, value]}):
        with pytest.raises(OrthoboundError, match=repr(value)):
            dumps_stable(obj)
        assert "null" in dumps_stable(obj, nulls=True)


# ||b||^2 is subnormal and the kernel's ||a||^2 / det overflows (ROADMAP item 1):
# the non-finite answer must not reach stdout
SUBNORMAL_B = {
    "space": {"kind": "dense", "dim": 2},
    "a": [[0, 1], [3, 1]],
    "b": [[0, 0], [0, 6.494684341851422e-161]],
    "mode": "complex",
}


@pytest.mark.parametrize("command", ["extremize", "minnorm"])
def test_non_finite_result_is_an_input_error(tmp_path, capsys, command):
    code, out, err = run(capsys, [command, write_instance(tmp_path, SUBNORMAL_B)])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1


def _strict_json(line):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=refuse)


def test_verify_with_non_finite_figures_fails_the_check(tmp_path, capsys):
    # the checks see the kernel's overflowing extremizer and min-norm vector:
    # a failed check (exit 5) with the figures written as null, not bad input
    inst = write_instance(tmp_path, SUBNORMAL_B)
    code, out, err = run(capsys, ["verify", inst, "--trials", "50"])
    assert code == 5
    docs = [_strict_json(ln) for ln in out.splitlines()]
    assert [d["check"] for d in docs] == [
        "bound_dominance", "min_norm_optimality", "deflated_schwarz", "scale_covariance", "real_consistency"
    ]
    assert [d["passed"] for d in docs] == [False, False, True, True, True]
    assert docs[0]["worst_violation"] is None and docs[1]["value"] is None
    assert err.splitlines() == [
        "bound_dominance: a figure is nan or inf, written as null",
        "min_norm_optimality: a figure is nan or inf, written as null",
        "verification FAILED",
    ]
    replay = tmp_path / "replay.jsonl"
    replay.write_text(out)
    code, out2, _ = run(capsys, ["verify", inst, "--replay", str(replay)])
    assert (code, out2) == (0, out)


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_cmd_verify_passes_a_near_dependent_pair(tmp_path, capsys):
    # the min-norm check measures its residuals through det, which cancels
    # here: min_norm_optimality reads 8.3e-8 against 1e-9 on correct work
    doc = dict(DENSE_REAL, b=[2, 2.0001, 2])
    code, _, _ = run(capsys, ["verify", write_instance(tmp_path, doc), "--trials", "100"])
    assert code == 0


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


# verify flags that are refused (exit 2): a value argparse cannot convert, in
# argparse's words after its usage line, or one out of range, in the CLI's
VERIFY_FLAG_FAULTS = {
    "trials-not-int": (
        ["--trials", "x"],
        "usage: orthobound verify [-h] [--quiet] [--trials TRIALS] [--seed SEED] [--tol TOL] [--replay REPLAY] "
        "instance\northobound verify: error: argument --trials: invalid int value: 'x'",
    ),
    "seed-negative": (["--seed", "-1"], "input error: --seed: must be nonnegative"),
    "tol-out-of-range": (["--tol", "2.0"], "input error: --tol: rel_eps must lie in (0, 1), got 2.0"),
}


@pytest.mark.parametrize("case", sorted(VERIFY_FLAG_FAULTS))
def test_cmd_verify_flag_faults(tmp_path, capsys, monkeypatch, case):
    flags, message = VERIFY_FLAG_FAULTS[case]
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps its usage line to the terminal width
    code, out, err = run(capsys, ["verify", write_instance(tmp_path, DENSE_REAL)] + flags)
    assert (code, out, err) == (2, "", message + "\n")


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


# Replay files that are refused, with the message after "--replay": the output
# of `verify --trials 20` with a text as recorded in its first line replaced
# by the stored one (an out-of-range setting, or a first line that is not a
# report object), a file that holds no report (stored None: only blank
# lines), and a path that cannot be read (recorded None: a directory).
REPLAY_SETTINGS = {
    "tol": ('"tol": 1.0000000000000001e-09', '"tol": 2.0', " settings.tol: rel_eps must lie in (0, 1), got 2.0"),
    "seed": ('"seed": 1', '"seed": -1', " settings.seed: must be nonnegative"),
    "trials": ('"settings": {"trials": 20', '"settings": {"trials": -3', " settings.trials: must be nonnegative"),
    # the flags' parsers would refuse these types, so a replay file must too
    "trials-bool": ('"settings": {"trials": 20', '"settings": {"trials": true', " settings.trials: must be an integer"),
    "trials-float": ('"settings": {"trials": 20', '"settings": {"trials": 20.7', " settings.trials: must be an integer"),
    "trials-string": ('"settings": {"trials": 20', '"settings": {"trials": "20"', " settings.trials: must be an integer"),
    "seed-bool": ('"seed": 1', '"seed": false', " settings.seed: must be an integer"),
    "tol-string": ('"tol": 1.0000000000000001e-09', '"tol": "1e-9"', " settings.tol: must be a number"),
    "not-json": (
        '{"check"', '{check', ": malformed report line: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "without-settings": (', "settings"', ', "options"', ": malformed report line: 'trials'"),
    "blank": ("", None, ": file holds no reports"),
    "unreadable": (None, None, ": [Errno 21] Is a directory: {path!r}"),
}


@pytest.mark.parametrize("setting", sorted(REPLAY_SETTINGS))
def test_cmd_verify_replay_settings_are_checked(tmp_path, capsys, setting):
    inst = write_instance(tmp_path, DENSE_REAL)
    _, out, _ = run(capsys, ["verify", inst, "--trials", "20"])
    first, rest = out.split("\n", 1)
    recorded, stored, message = REPLAY_SETTINGS[setting]
    replay = tmp_path / "replay.jsonl"
    if recorded is None:
        replay.mkdir()
    else:
        assert recorded in first
        replay.write_text("\n \n" if stored is None else first.replace(recorded, stored, 1) + "\n" + rest)
    code, out, err = run(capsys, ["verify", inst, "--replay", str(replay)])
    assert (code, out, err) == (2, "", f"input error: --replay{message.format(path=str(replay))}\n")


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


# Exact stdout of `verify --trials 200`, one entry per report line, captured
# before the deflated check moved to a second thread and the arithmetic to
# row chunks; neither may change a byte.
GOLDEN_VERIFY_LINES = {
    "dense_real": [
        '{"check": "bound_dominance", "trials": 201, "worst_violation": 8.8817841970012523e-16, '
        '"tolerance": 3.0000000000000004e-09, "passed": true, "skipped": false, '
        '"witness": [[-0.70710678118654757, 0], [0, 0], [0.70710678118654757, 0]], "bound": 2, '
        '"harness_format": 2, "settings": {"trials": 200, "seed": 1, '
        '"tol": 1.0000000000000001e-09}}',
        '{"check": "min_norm_optimality", "trials": 201, "worst_violation": 0, '
        '"tolerance": 1.0000000000000001e-09, "passed": true, "skipped": false, "witness": [[-0.5, '
        '0], [0, 0], [0.5, 0]], "value": 0.5, "harness_format": 2, "settings": {"trials": 200, '
        '"seed": 1, "tol": 1.0000000000000001e-09}}',
        '{"check": "deflated_schwarz", "trials": 200, "worst_violation": 5.126719873585216e-17, '
        '"tolerance": 1.0000000000000001e-09, "passed": true, "skipped": false, '
        '"witness": [[-0.13943512295807425, 0], [1.0779060038581814, -0], [-0.34559549383386307, '
        '0]], "note": "equality-case slack is 10x rel_eps, folded in at 1/10 weight", '
        '"harness_format": 2, "settings": {"trials": 200, "seed": 1, '
        '"tol": 1.0000000000000001e-09}}',
        '{"check": "scale_covariance", "trials": 3, "worst_violation": 0, '
        '"tolerance": 1.0000000000000001e-09, "passed": true, "skipped": false, "witness": [[1, '
        '0], [1, 0], [1, 0]], "harness_format": 2, "settings": {"trials": 200, "seed": 1, '
        '"tol": 1.0000000000000001e-09}}',
        '{"check": "real_consistency", "trials": 1, "worst_violation": 0, '
        '"tolerance": 1.0000000000000001e-09, "passed": true, "skipped": false, '
        '"witness": [[-0.70710678118654757, 0], [0, 0], [0.70710678118654757, 0]], '
        '"harness_format": 2, "settings": {"trials": 200, "seed": 1, '
        '"tol": 1.0000000000000001e-09}}',
    ],
    "weighted_complex": [
        '{"check": "bound_dominance", "trials": 201, "worst_violation": 3.5527136788005009e-15, '
        '"tolerance": 2.273570033482143e-08, "passed": true, "skipped": false, '
        '"witness": [[0.27290407632647057, 0.071098693569264682], [0.23017304332272059, '
        '-0.12567950883455883], [0.31575480410053924, 0.051229361696372572], '
        '[0.064754870742377443, 0.47686396494941174]], "bound": 21.735700334821427, '
        '"harness_format": 2, "settings": {"trials": 200, "seed": 1, '
        '"tol": 1.0000000000000001e-09}}',
        '{"check": "min_norm_optimality", "trials": 201, '
        '"worst_violation": 9.9825337854478655e-17, "tolerance": 1.0000000000000001e-09, '
        '"passed": true, "skipped": false, "witness": [[0.058536021796966008, '
        '0.015250174099735879], [0.049370513120862131, -0.02695737845912909], '
        '[0.067727204166840513, 0.010988340933816435], [0.01388946832989413, '
        '0.10228399598206692]], "value": 0.046007259236913636, "harness_format": 2, '
        '"settings": {"trials": 200, "seed": 1, "tol": 1.0000000000000001e-09}}',
        '{"check": "deflated_schwarz", "trials": 200, "worst_violation": 8.985930412329975e-17, '
        '"tolerance": 1.0000000000000001e-09, "passed": true, "skipped": false, '
        '"witness": [[-2.8678141822498495, -2.3503560234335836], [-1.9535963262908382, '
        '6.4840342190262366], [1.5981086815480816, 4.3063834152722391], [2.2301136023817638, '
        '1.1165768185224683]], "note": "equality-case slack is 10x rel_eps, '
        'folded in at 1/10 weight", "harness_format": 2, "settings": {"trials": 200, "seed": 1, '
        '"tol": 1.0000000000000001e-09}}',
        '{"check": "scale_covariance", "trials": 5, "worst_violation": 2.0518284193924727e-16, '
        '"tolerance": 1.0000000000000001e-09, "passed": true, "skipped": false, "witness": [[2, '
        '1.5], [-3.75, 2.5], [-1.5, -3], [-0.25, 2]], "harness_format": 2, '
        '"settings": {"trials": 200, "seed": 1, "tol": 1.0000000000000001e-09}}',
        '{"check": "real_consistency", "trials": 0, "worst_violation": 0, '
        '"tolerance": 1.0000000000000001e-09, "passed": true, "skipped": true, '
        '"note": "complex inputs", "harness_format": 2, "settings": {"trials": 200, "seed": 1, '
        '"tol": 1.0000000000000001e-09}}',
    ],
}


@pytest.mark.parametrize("instance", sorted(GOLDEN_VERIFY_LINES))
def test_verify_golden_stdout(tmp_path, capsys, instance):
    doc = {"dense_real": DENSE_REAL, "weighted_complex": WEIGHTED_COMPLEX}[instance]
    inst = write_instance(tmp_path, doc)
    expected = "".join(line + "\n" for line in GOLDEN_VERIFY_LINES[instance])
    code, out, _ = run(capsys, ["verify", inst, "--trials", "200"])
    assert code == 0
    assert out == expected
    # a replay file holding those bytes still reproduces
    replay = tmp_path / "replay.jsonl"
    replay.write_text(expected)
    code, _, _ = run(capsys, ["verify", inst, "--replay", str(replay)])
    assert code == 0


# Finite pairs whose Gram data does not fit in float64: a typed error (exit 2),
# never a traceback, `nan`/`inf` JSON, or a claim that the input is not finite.
OVERFLOW_REPROS = {
    "bound-inner-product": ("bound", [1e308, 1], [0.5, 1]),
    "bound-norms": ("bound", [1e200, 0], [0, 1e200]),
    "bound-norm-product": ("bound", [1e100, 0], [0, 1e110]),
    "verify-norm-a": ("verify", [7e307, 0.5], [0, 1]),
    # ||b||^2 = 1e308 fits, but the scale-covariance check's copy 2*b does not
    "verify-scaled-copy": ("verify", [1, 0], [0, 1e154]),
}


@pytest.mark.parametrize("repro", sorted(OVERFLOW_REPROS))
def test_gram_overflow_is_a_typed_error(tmp_path, capsys, repro):
    command, a, b = OVERFLOW_REPROS[repro]
    doc = {"space": {"kind": "dense", "dim": 2}, "a": a, "b": b, "mode": "real"}
    extra = ["--trials", "10"] if command == "verify" else []
    code, out, err = run(capsys, [command, write_instance(tmp_path, doc)] + extra)
    assert code == 2
    assert out == ""
    assert "overflows float64" in err
    assert "NaN or Inf" not in err


def _dim_4096_instance(kind):
    """A dim-4096 instance from a fixed seed: a real pair on a trapezoid rule
    over [0, 2], or a complex weighted pair whose vectors mix [re, im] pairs
    with plain floats and integers."""
    n = 4096
    rng = np.random.default_rng(4096)
    if kind == "quadrature_real":
        nodes = np.linspace(0.0, 2.0, n)
        weights = np.full(n, 2.0 / (n - 1))
        weights[[0, -1]] /= 2
        space = {"kind": "quadrature", "nodes": nodes.tolist(), "weights": weights.tolist()}
        a, b = np.cos(3 * nodes), nodes**2 + 0.1 * rng.standard_normal(n)
        return {"space": space, "a": a.tolist(), "b": b.tolist(), "mode": "real"}
    space = {"kind": "weighted", "weights": rng.uniform(0.25, 4.0, n).tolist()}
    a, b = rng.standard_normal((2, n, 2)).tolist()
    for i in range(0, n, 7):
        a[i], b[n - 1 - i] = a[i][0], int(10 * b[n - 1 - i][1])
    return {"space": space, "a": a, "b": b, "mode": "complex"}


# sha256 of the stdout of the pair subcommands at dim 4096, captured before
# the per-entry instance parser gave way to a whole-list decoder
DIM_4096_DIGESTS = {
    ("quadrature_real", "bound"):
        "3e63835c0601985daa3214ec0e973189b82e3d848a3045e18532e0567b2de9fd",
    ("quadrature_real", "extremize"):
        "8fd99b8b9abc91b9ddb35bd9579cd6d944b8d33330d0f8ad5c11125ac1e93f95",
    ("quadrature_real", "minnorm"):
        "85135ac58d231feb0d405f3865a96652c7ac3ff1891ddea5cbb5f3e9cc254250",
    ("weighted_complex", "bound"):
        "2fc0803503adab1a231653de27be34394088e4171e27e63df7e242ea7903640d",
    ("weighted_complex", "extremize"):
        "e29abbab60d46f5b8d4c256e31b4f333538aab0457710d8b4a69cbad5ee52296",
    ("weighted_complex", "minnorm"):
        "c3e0c52a8bb7e1148681891c143e821c1e4c4179d87faee4e1b6a70fdeaef788",
}


@pytest.mark.parametrize("instance, command", sorted(DIM_4096_DIGESTS))
def test_pair_subcommands_dim_4096_digests(tmp_path, capsys, instance, command):
    code, out, _ = run(capsys, [command, write_instance(tmp_path, _dim_4096_instance(instance))])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIM_4096_DIGESTS[instance, command]
