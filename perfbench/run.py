"""Benchmark of the orthobound package, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs come from ``gen`` and the seed; the
package is imported from ``src/`` (it need not be installed) and the CLI
runs as ``python -m orthobound.cli``.  One client, closed loop: the next op
starts when the previous one returns.  BLAS threads are pinned to 1 and
numpy's huge-page requests are off, here and in every child process.

Every op's output is checked (see ``checks``); a failed op is counted and
the run goes on.  Op latencies and set-up times are scaled to a nominal
host speed (see ``calibrate``).  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it describe the inputs, the extreme-scale
probe and the tail percentile.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# numpy asks for transparent huge pages on large arrays; whether the host has
# any free comes and goes, and moved peak RSS by 20% between sets of runs
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
from array import array
import gc
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from calibrate import SPAWN_NOMINAL_S, Calibration, spawn_seconds  # noqa: E402
from checks import REL_ERR_FLOOR, balanced_mean, balanced_median, by_input, floored_rel_err, median, tail  # noqa: E402
from oracle import reference  # noqa: E402
from tracing import SETUP_OP, Tracer, function_metrics  # noqa: E402
from workloads import OP_SPAN, WORKLOADS  # noqa: E402

# The audit pairs are the same in every run, so rel_err_max compares across
# runs and commits; each run's own outputs are checked separately.
AUDIT_SEED = 0
SETUP_REPEATS = 7
# Ops run this long, unmeasured, before each timed loop: a fresh process on a
# shared host runs markedly slower in its first second.
WARMUP_S = 1.0
# After each stretch of at least CAL_EVERY_S of op time, the calibration
# kernel runs for CAL_SHARE of that stretch, and the stretch's latencies are
# scaled by what it measured (see ``calibrate``).  Ops that take longer than
# CAL_EVERY_S (all but pairs-small's) are each calibrated on their own, so
# every op runs right after a calibration: with several ops per stretch the
# first one after it ran from colder caches and made its own tail.
CAL_EVERY_S = 0.02
CAL_SHARE = 0.2
# the calibration kernel of each workload's ops
CAL_KIND = {"pairs-small": "small", "pairs-large": "stream", "harness": "small", "cli": "small"}
# the calibration before a timed loop's first stretch
FIRST_CAL_S = 0.05
WORK_DIR = ".perfbench_tmp"
SPAN_DIR = ".perfbench_out"

FUNCTIONS = (
    "spaces.make_weighted", "spaces.trapezoid_rule",
    "core.ostrowski_bound", "core.extremizer", "core.min_norm_solution", "core.gram2",
    "verify.verify_all", "verify.verify_bound", "verify.verify_min_norm", "verify.verify_deflated",
    "cli.load_instance", "cli.dumps_stable", "cli.main",
)
END_TO_END = (
    "setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "ok_rate", "rel_err_max", "peak_rss_mb",
)
# per-layer metrics beyond calls, self_s, p50_us and errors of each function
DERIVED = (
    "core.bytes_computed", "core.gbps_computed", "verify.other_s",
    "cli.import_s", "cli.unattributed_s", "cli.stdout_bytes", "trace.overhead_pct",
    "core.extreme_scale_failed",
)
CORE = ("core.ostrowski_bound", "core.extremizer", "core.min_norm_solution", "core.gram2")
VERIFY_PARTS = ("verify.verify_bound", "verify.verify_min_norm", "verify.verify_deflated")
# Which other workload's op a traced run borrows for layers its own ops miss
PROBES = (("harness", ("verify.", "spaces.")), ("pairs-small", ("core.",)), ("cli", ("cli.",)))


def import_package():
    if not (ROOT / "src" / "orthobound" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {ROOT / 'src' / 'orthobound'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import orthobound
    import orthobound.cli  # noqa: F401  (binds orthobound.cli)

    return orthobound


def run_ops(wl, cal, seconds: float, first: int = 0, tracer=None):
    """Closed loop for ``seconds`` from op index ``first``; returns per-op
    latencies, the host-speed scale of each and the failed ops.  An op's
    scale is the mean of the calibrations just before and just after the
    stretch of ops it belongs to.

    Untraced, an op's latency is the time its calls take.  Traced, it is
    the ``op`` span, so the extra layer calls after it are not counted.
    """
    start = time.perf_counter()
    k = first
    while time.perf_counter() - start < WARMUP_S:
        try:
            wl.op(k)
        except Exception:  # failures are counted in the timed loop
            pass
        k += 1
    before = cal.scale(FIRST_CAL_S)
    gc.collect()
    gc.freeze()
    latencies, scales, failures = array("d"), array("d"), {}
    stretch = 0.0
    i, start = first, time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(i)
            else:
                tracer.op = i
                out = wl.op_traced(i, tracer)
            reason = None
        except Exception as exc:  # every exception is a failed op; the run goes on
            reason = f"exception:{type(exc).__name__}"
        t1 = time.perf_counter()
        if tracer is not None:
            span = tracer.last(OP_SPAN)
            t0, t1 = span.start, span.end
        latencies.append(t1 - t0)
        stretch += t1 - t0
        if reason is None:
            try:
                reason = wl.check(i, out)
            except Exception as exc:  # output of an unexpected shape
                reason = f"wrong:{type(exc).__name__}"
        if reason:
            failures[i] = reason
        i += 1
        if stretch >= CAL_EVERY_S or not time.perf_counter() - start < seconds:
            after = cal.scale(CAL_SHARE * stretch)
            scales.extend([0.5 * (before + after)] * (len(latencies) - len(scales)))
            before, stretch = after, 0.0
    gc.unfreeze()
    return latencies, scales, failures


def scaled(latencies, scales) -> list:
    return [t * s for t, s in zip(latencies, scales)]


def setup_seconds(wl) -> float:
    """Median over fresh processes of start-to-ready: interpreter start,
    ``import orthobound`` and building every space the workload uses.  It
    is scaled by the median of fresh interpreters that import numpy, one
    before the first probe and one after each (see ``calibrate``)."""
    spec_path = wl.tmp / "setup.json"
    spec_path.write_text(json.dumps(wl.setup_spec()), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), str(spec_path)]
    samples, spawns = [], [spawn_seconds(ROOT)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError("setup probe failed")
        samples.append(ready - t0 - json.loads(line)["load_s"])
        spawns.append(spawn_seconds(ROOT))
    return median(samples) * SPAWN_NOMINAL_S / median(spawns)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def outcome(wl, failures, oracle_ok):
    """(correct, failed).  ``failures`` maps op index to reason; ops whose
    numbers miss the reference are added here.  The run is correct when no
    op failed and the oracle passes its own check."""
    failed = [(wl.pair_index(i), 1, reason) for i, reason in failures.items()]
    failed += wl.reference_failures()
    for pi, count, reason in failed[:5]:
        print(f"perfbench: {count} ops on pair {pi} failed: {reason}", file=sys.stderr)
    n_failed = sum(f[1] for f in failed)
    return oracle_ok and n_failed == 0, n_failed


def extreme_scale_failures(wl, args) -> int:
    """How many extreme-scale pairs of ``pairs-small`` fail, each run once,
    untimed, outside the op stream; says so on a line of stdout."""
    if args.workload != "pairs-small":
        wl = make_workload("pairs-small", args)
        wl.setup()
    reasons = wl.probe_extreme_scale()
    bad = sorted({r for r in reasons.values() if r})
    n_failed = sum(r is not None for r in reasons.values())
    print(f"extreme-scale probe: {n_failed} of {len(reasons)} pairs fail"
          + (f" ({', '.join(bad)})" if bad else ""))
    return n_failed


def oracle_self_check() -> bool:
    import numpy as np

    bound, value = reference(np.ones(3), np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    return bound == 2.0 and value == 0.5


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_plain(wl, args):
    wl.setup()
    raw, scales, failures = run_ops(wl, Calibration(CAL_KIND[args.workload]), args.seconds)
    latencies = scaled(raw, scales)
    rss = peak_rss_mb(args.workload)
    n = len(latencies)
    correct, failed = outcome(wl, failures, oracle_self_check())
    rel = floored_rel_err(wl.audit(gen.generate(args.workload, AUDIT_SEED)))
    if args.workload == "pairs-small":
        extreme_scale_failures(wl, args)
    groups = by_input(latencies, [wl.input_key(i) for i in range(n)])
    tail_ms, tail_pct, samples, per = tail(groups)
    print(f"latency_tail_ms is p{tail_pct:.4g} of {samples} {per}; {n} ops on {len(groups)} inputs; "
          f"rel_err_max floor {REL_ERR_FLOOR:g}; host-speed scale median {median(scales):.4g}, "
          f"unscaled p50 {median(raw) * 1e3:.4g} ms")
    metrics = {
        "setup_s": metric(setup_seconds(wl), "s"),
        "ops_per_s": metric((n - failed) / n / balanced_mean(groups), "1/s"),
        "latency_p50_ms": metric(balanced_median(groups) * 1e3, "ms"),
        "latency_tail_ms": metric(tail_ms * 1e3, "ms"),
        "ok_rate": metric((n - failed) / n, "ratio"),
        "rel_err_max": metric(rel, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return correct, n, failed, {k: metrics[k] for k in END_TO_END}


def probe_missing(tracer, args):
    """One traced set-up and op of each other workload that reaches a layer
    function this run's ops did not, so that every layer metric has samples.
    Returns the probe tracer and the probe's CLI workload, if one ran."""
    probe, cli_wl = Tracer(), None
    missing = [f for f in FUNCTIONS if tracer.last(f) is None]
    for name, prefixes in PROBES:
        if not any(f.startswith(prefixes) for f in missing):
            continue
        wl = make_workload(name, args)
        probe.op = SETUP_OP
        wl.setup(probe)
        probe.op = 0
        try:
            wl.check(0, wl.op_traced(0, probe))
        except Exception:  # a probe's errors are on its spans
            pass
        cli_wl = wl if name == "cli" else cli_wl
    return probe, cli_wl


def by_op(tracer, names):
    """{op: {name: total duration}} over spans with the given names."""
    out = {}
    for s in tracer.spans:
        if s.name in names:
            d = out.setdefault(s.op, {})
            d[s.name] = d.get(s.name, 0.0) + s.duration
    return out


def verify_other_s(tracer) -> float:
    """Time verify_all spends outside the three sampling checks, summed
    over the ops where the three ran separately."""
    total = 0.0
    for d in by_op(tracer, ("verify.verify_all",) + VERIFY_PARTS).values():
        if len(d) == 4:
            total += d["verify.verify_all"] - sum(d[k] for k in VERIFY_PARTS)
    return total


def cli_unattributed_s(tracer) -> float:
    """cli.main minus load, compute and dump, summed over decomposed ops."""
    parts = ("cli.load_instance", "cli.compute", "cli.dumps_stable")
    total = 0.0
    for d in by_op(tracer, ("cli.main",) + parts).values():
        if "cli.main" in d:
            total += d["cli.main"] - sum(d.get(k, 0.0) for k in parts)
    return total


def run_traced(wl, args):
    """Half the time untraced, half traced; per-layer metrics from the spans."""
    cal = Calibration(CAL_KIND[args.workload])
    wl.setup()
    plain, scales, failures = run_ops(wl, cal, args.seconds / 2)
    plain = scaled(plain, scales)
    tracer = Tracer()
    wl.setup(tracer)
    traced, scales, traced_failures = run_ops(wl, cal, args.seconds / 2, len(plain), tracer)
    traced = scaled(traced, scales)
    failures.update(traced_failures)
    n = len(plain) + len(traced)
    correct, failed = outcome(wl, failures, oracle_self_check())

    probe, probe_cli = probe_missing(tracer, args)
    src = {f: tracer if tracer.last(f) else probe for f in FUNCTIONS}
    metrics = {}
    for name, m in function_metrics(tracer, FUNCTIONS).items():
        if src[name] is probe:
            m = function_metrics(probe, (name,))[name]
        metrics[f"{name}.calls"] = metric(m["calls"], "count")
        metrics[f"{name}.self_s"] = metric(m["self_s"], "s")
        metrics[f"{name}.p50_us"] = metric(m["p50_us"], "us")
        metrics[f"{name}.errors"] = metric(m["errors"], "count")
    core = [s for s in src["core.ostrowski_bound"].spans if s.name in CORE]
    nbytes = sum(s.nbytes for s in core)
    metrics["core.bytes_computed"] = metric(nbytes, "bytes")
    metrics["core.gbps_computed"] = metric(nbytes / sum(s.duration for s in core) / 1e9, "GB/s")
    metrics["verify.other_s"] = metric(verify_other_s(src["verify.verify_bound"]), "s")
    cli_src = src["cli.main"]
    imports = [s.duration for s in cli_src.spans if s.name == "cli.import_s"]
    metrics["cli.import_s"] = metric(median(imports), "s")
    metrics["cli.unattributed_s"] = metric(cli_unattributed_s(cli_src), "s")
    cli_wl = wl if cli_src is tracer else probe_cli
    metrics["cli.stdout_bytes"] = metric(median(cli_wl.stdout_bytes), "bytes")
    overhead = sum(traced) / len(traced) / (sum(plain) / len(plain)) - 1.0
    metrics["trace.overhead_pct"] = metric(overhead * 100.0, "%")
    metrics["core.extreme_scale_failed"] = metric(extreme_scale_failures(wl, args), "count")

    out_dir = ROOT / SPAN_DIR
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    names = [f"{f}.{m}" for f in FUNCTIONS for m in ("calls", "self_s", "p50_us", "errors")]
    return correct, n, failed, {k: metrics[k] for k in names + list(DERIVED)}


def make_workload(name, args):
    return WORKLOADS[name](args.ob, gen.generate(name, args.seed), ROOT, args.tmp)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="orthobound benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.ob = import_package()
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    args.tmp = Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR))
    try:
        wl = make_workload(args.workload, args)
        print(json.dumps(wl.inputs.describe()))
        run = run_traced if args.trace else run_plain
        correct, attempted, failed, metrics = run(wl, args)
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
