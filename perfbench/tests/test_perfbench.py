"""Tests of the benchmark itself: generator, oracle, tail rule, calibration,
failure accounting and metric names.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = gen.generate(workload, 7)
    assert first.fingerprint() == gen.generate(workload, 7).fingerprint()
    assert first.fingerprint() != gen.generate(workload, 8).fingerprint()


def test_pairs_small_mix_is_fixed():
    d = gen.generate("pairs-small", 3).describe()
    assert d["share_near_dependent"] == 0.1
    assert d["share_extreme_scale"] == 0.02
    assert d["share_real"] == 0.5
    assert d["dims"] == [8, 32]


def test_near_dependent_pairs_hit_their_target_and_stay_independent():
    inputs = gen.generate("pairs-small", 3)
    near = [p for p in inputs.pairs if p.cls == gen.NEAR_DEPENDENT]
    for p in near[:20]:
        ctx, na, nb, re, im = oracle.gram(gen.space_weights(inputs.spaces[p.space]), p.a, p.b)
        sin2 = float(1 - (re * re + im * im) / (na * nb))
        assert sin2 == pytest.approx(p.sin2, rel=1e-4)
    assert min(p.sin2 for p in near) > 1e-12  # the dependence_eps rule


def test_oracle_gives_readme_value():
    bound, value = oracle.reference(np.ones(3), np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    assert bound == 2.0
    assert value == 0.5
    assert run.oracle_self_check()


def test_oracle_is_exact_under_power_of_two_scaling():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 2.0, 16)
    a = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    bound, value = oracle.reference(w, a, b)
    big_a, tiny_b = np.ldexp(a.real, 600) + 1j * np.ldexp(a.imag, 600), b * 2.0**-400
    scaled = oracle.reference(w, big_a, tiny_b)
    assert scaled == (math.ldexp(bound, -800), math.ldexp(value, 800))


@pytest.mark.parametrize("n, pct", [(40, 75.0), (100, 90.0), (1000, 99.0), (20, 50.0)])
def test_tail_picks_highest_percentile_with_ten_beyond(n, pct):
    xs = [float(k) for k in range(1, n + 1)]
    value, got_pct, got_n, _ = checks.tail([xs])
    assert (got_pct, got_n) == (pct, n)
    assert sum(x > value for x in xs) == 10


def test_tail_over_inputs_ignores_one_off_stalls():
    # 100 inputs, 5 visits each; input k takes k, but every input's first
    # visit stalls
    keys = [k for _ in range(5) for k in range(100)]
    xs = [1e3] * 100 + [float(k) for k in keys[100:]]
    value, pct, samples, per = checks.tail(checks.by_input(xs, keys))
    assert (value, pct, samples, per) == (89.0, 90.0, 100, "input medians")


def test_few_inputs_report_the_worst_input():
    keys = [0, 1, 2] * 5
    xs = [1.0, 3.0, 2.0] * 5
    assert checks.tail(checks.by_input(xs, keys)) == (3.0, 50.0, 5, "ops of the worst input")


def test_statistics_weigh_inputs_equally():
    # a run that stops mid-rotation: input 0 ran once more than 1 and 2
    groups = checks.by_input([1.0, 2.0, 6.0, 1.0, 2.0, 6.0, 1.0], [0, 1, 2] * 2 + [0])
    assert checks.balanced_median(groups) == 2.0
    assert checks.balanced_mean(groups) == 3.0


def test_calibration_scale_is_nominal_over_unit_time():
    cal = calibrate.Calibration("small")
    s = cal.scale(0.01)
    assert 0.0 < s < 100.0 and cal.units >= 2


def _pairs(tmp_path):
    return workloads.Pairs(None, gen.generate("pairs-small", 1), HERE.parent, tmp_path)


def test_nan_result_is_a_failure(tmp_path):
    wl = _pairs(tmp_path)
    dim = wl.inputs.pairs[wl.pair_index(0)].a.size
    x = np.zeros(dim, dtype=np.complex128)
    assert wl.check(0, (math.nan, x, x, 1.0)) == "nonfinite"


def test_wrong_finite_result_is_a_failure(tmp_path):
    wl = _pairs(tmp_path)
    pair = wl.inputs.pairs[wl.pair_index(0)]
    x = np.ones(pair.a.size, dtype=np.complex128)
    assert wl.check(0, (1.0, x, x, 1.0)).startswith("wrong:")


def test_extreme_scale_pairs_stay_out_of_the_op_stream(tmp_path):
    wl = _pairs(tmp_path)
    visited = {wl.pair_index(i) for i in range(len(wl.inputs.order))}
    extreme = {pi for pi, p in enumerate(wl.inputs.pairs) if p.cls == gen.EXTREME_SCALE}
    assert len(extreme) == gen.SMALL_EXTREME
    assert visited == set(range(gen.SMALL_PAIRS)) - extreme


@pytest.mark.parametrize(
    "stdout, reason",
    [
        ('{"bound": NaN, "gram": {}}\n', "invalid-json"),
        ('{"bound": Infinity, "gram": {}}\n', "invalid-json"),
        ("{bound: 1}\n", "invalid-json"),
        ('{"bound": 1e999, "gram": {}}\n', "nonfinite"),
    ],
)
def test_bad_cli_stdout_is_a_failure(tmp_path, stdout, reason):
    wl = workloads.Cli(None, gen.generate("cli", 1), HERE.parent, tmp_path)
    assert wl.check(0, ("bound", 0, stdout)) == reason


def test_cli_exit_code_is_a_failure(tmp_path):
    wl = workloads.Cli(None, gen.generate("cli", 1), HERE.parent, tmp_path)
    assert wl.check(0, ("bound", 4, "")) == "exit:4"


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = [f"{f}.{m}" for f in run.FUNCTIONS for m in ("calls", "self_s", "p50_us", "errors")]
    layer += list(run.DERIVED)
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
