"""The four workloads: what one op is, how it is traced, checked and audited.

Each op calls the package's public functions, or ``python -m orthobound.cli``
as a subprocess, on inputs made by ``gen``.  ``op`` is what the untraced run
times; ``op_traced`` wraps the same calls in spans (its ``op`` span is the
timed part) and then makes the extra calls that split an op by layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import gen
from checks import all_finite, check_scalars, check_vectors, rel_err, strict_json, tolerance
from oracle import reference

OP_SPAN = "op"
SUBPROCESS_TIMEOUT_S = 30


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    """Shared set-up, checks and audit; subclasses define the op."""

    def __init__(self, ob, inputs: gen.Inputs, root: Path, tmp: Path):
        self.ob = ob
        self.inputs = inputs
        self.root = root
        self.tmp = tmp
        self.spaces: list = []
        # how many ops returned each (pair index, bound, value), for the
        # reference check; ops on one pair return the same numbers
        self.scalars: Dict[Tuple[int, Optional[float], Optional[float]], int] = {}

    # -- set-up ---------------------------------------------------------
    def setup(self, tracer=None) -> None:
        ob = self.ob
        call = tracer.call if tracer else (lambda name, fn, *a: fn(*a))
        self.spaces = []
        for spec in self.inputs.spaces:
            if spec.kind == "weighted":
                self.spaces.append(call("spaces.make_weighted", ob.make_weighted, spec.weights))
            else:
                self.spaces.append(
                    call("spaces.trapezoid_rule", ob.trapezoid_rule, spec.n, spec.lo, spec.hi)
                )

    def setup_spec(self) -> list:
        """The space builds of ``setup``, for a fresh process to repeat."""
        out = []
        for k, spec in enumerate(self.inputs.spaces):
            if spec.kind == "weighted":
                path = self.tmp / f"weights{k}.npy"
                np.save(path, spec.weights)
                out.append({"kind": "weighted", "file": str(path)})
            else:
                out.append({"kind": "trapezoid", "n": spec.n, "lo": spec.lo, "hi": spec.hi})
        return out

    # -- ops ------------------------------------------------------------
    def pair_index(self, i: int) -> int:
        return i % len(self.inputs.pairs)

    def input_key(self, i: int) -> int:
        """The input of op i; statistics weigh every input equally."""
        return self.pair_index(i)

    def op(self, i: int):
        raise NotImplementedError

    def op_traced(self, i: int, tracer):
        raise NotImplementedError

    def check(self, i: int, out) -> Optional[str]:
        raise NotImplementedError

    # -- reference check and audit ---------------------------------------
    def weights(self, pair: gen.Pair) -> np.ndarray:
        return gen.space_weights(self.inputs.spaces[pair.space])

    def record(self, pi: int, bound, value) -> None:
        key = (pi, bound, value)
        self.scalars[key] = self.scalars.get(key, 0) + 1

    def reference_failures(self) -> List[Tuple[int, int, str]]:
        """(pair index, ops, reason) for returned numbers that miss the
        50-digit reference."""
        refs: Dict[int, Tuple[float, Optional[float]]] = {}
        out = []
        for (pi, bound, value), count in self.scalars.items():
            pair = self.inputs.pairs[pi]
            if pi not in refs:
                refs[pi] = reference(self.weights(pair), pair.a, pair.b)
            reason = check_scalars(bound, value, *refs[pi], tolerance(pair.sin2))
            if reason:
                out.append((pi, count, reason))
        return out

    def audit_values(self, inputs: gen.Inputs) -> List[Tuple[gen.Pair, Optional[float], Optional[float]]]:
        """(pair, bound, value) from the program for every audit pair."""
        ob = self.ob
        out = []
        for pair in inputs.pairs:
            if pair.cls == gen.EXTREME_SCALE:  # not in the op stream; see probe_extreme_scale
                continue
            space = ob.make_weighted(gen.space_weights(inputs.spaces[pair.space]))
            try:
                bound = ob.ostrowski_bound(space, pair.a, pair.b)
                value = ob.min_norm_solution(space, pair.a, pair.b)[1]
            except Exception:  # a failure, not an accuracy figure
                continue
            out.append((pair, bound, value))
        return out

    def audit(self, inputs: gen.Inputs) -> List[float]:
        """Relative errors of bound and value against the reference, over
        the audit pairs that did not fail."""
        errs = []
        for pair, bound, value in self.audit_values(inputs):
            if not all_finite(bound, value):
                continue
            ref_bound, ref_value = reference(gen.space_weights(inputs.spaces[pair.space]), pair.a, pair.b)
            errs += [rel_err(bound, ref_bound), rel_err(value, ref_value)]
        return errs


class Pairs(Workload):
    """One op: ostrowski_bound, extremizer and min_norm_solution on one pair."""

    def pair_index(self, i: int) -> int:
        order = self.inputs.order
        return int(order[i % len(order)]) if order is not None else i % len(self.inputs.pairs)

    def op(self, i: int):
        return self._calls(self.inputs.pairs[self.pair_index(i)])

    def _calls(self, pair: gen.Pair):
        ob = self.ob
        space = self.spaces[pair.space]
        bound = ob.ostrowski_bound(space, pair.a, pair.b)
        x_ext = ob.extremizer(space, pair.a, pair.b)
        x_min, value = ob.min_norm_solution(space, pair.a, pair.b)
        return bound, x_ext, x_min, value

    def op_traced(self, i: int, tracer):
        ob = self.ob
        pair = self.inputs.pairs[self.pair_index(i)]
        space = self.spaces[pair.space]
        # bytes each call must read (a, b, weights) and write (x), from array sizes
        nin = pair.a.nbytes + pair.b.nbytes + space.weights.nbytes
        nout = 16 * space.dim
        with tracer.span(OP_SPAN):
            bound = tracer.call("core.ostrowski_bound", ob.ostrowski_bound, space, pair.a, pair.b, nbytes=nin)
            x_ext = tracer.call("core.extremizer", ob.extremizer, space, pair.a, pair.b, nbytes=nin + nout)
            x_min, value = tracer.call(
                "core.min_norm_solution", ob.min_norm_solution, space, pair.a, pair.b, nbytes=nin + nout
            )
        tracer.call("core.gram2", ob.gram2, space, pair.a, pair.b, nbytes=nin, swallow=True)
        return bound, x_ext, x_min, value

    def check(self, i: int, out) -> Optional[str]:
        bound, x_ext, x_min, value = out
        pi = self.pair_index(i)
        if not all_finite(bound, x_ext, x_min, value):
            return "nonfinite"
        pair = self.inputs.pairs[pi]
        self.record(pi, bound, value)
        return check_vectors(
            self.weights(pair), pair.a, pair.b, bound, value, x_ext, x_min, tolerance(pair.sin2)
        )

    def probe_extreme_scale(self) -> Dict[int, Optional[str]]:
        """{pair index: why it failed, or None} for each extreme-scale pair,
        run once with the op's calls and checks, bound and value against the
        reference included.  Their answers fit in float64 but ``||a||^2``
        does not, so they stay out of the op stream and are reported here."""
        out = {}
        for pi, pair in enumerate(self.inputs.pairs):
            if pair.cls != gen.EXTREME_SCALE:
                continue
            try:
                with np.errstate(all="ignore"):
                    bound, x_ext, x_min, value = self._calls(pair)
            except Exception as exc:  # the reason is the result
                out[pi] = f"exception:{type(exc).__name__}"
                continue
            tol = tolerance(pair.sin2)
            if not all_finite(bound, x_ext, x_min, value):
                out[pi] = "nonfinite"
            else:
                w = self.weights(pair)
                out[pi] = check_vectors(w, pair.a, pair.b, bound, value, x_ext, x_min, tol) \
                    or check_scalars(bound, value, *reference(w, pair.a, pair.b), tol)
        return out


class Harness(Workload):
    """One op: one verify_all(trials=1000) call on a rotation of three pairs."""

    def _args(self, i: int):
        pair = self.inputs.pairs[self.pair_index(i)]
        seeds = self.inputs.verify_seeds
        return pair, self.spaces[pair.space], seeds[i % len(seeds)]

    def op(self, i: int):
        pair, space, seed = self._args(i)
        return self.ob.verify_all(space, pair.a, pair.b, trials=gen.HARNESS_TRIALS, seed=seed, real=pair.real)

    def op_traced(self, i: int, tracer):
        ob = self.ob
        pair, space, seed = self._args(i)
        n, real = gen.HARNESS_TRIALS, pair.real
        with tracer.span(OP_SPAN):
            reports = tracer.call(
                "verify.verify_all", ob.verify_all, space, pair.a, pair.b, trials=n, seed=seed, real=real
            )
        # the three sampling checks again, with the seeds verify_all gives them
        tracer.call("verify.verify_bound", ob.verify_bound, space, pair.a, pair.b, n,
                    seed=seed, real=real, swallow=True)
        tracer.call("verify.verify_min_norm", ob.verify_min_norm, space, pair.a, pair.b, n,
                    seed=seed + 1, real=real, swallow=True)
        tracer.call("verify.verify_deflated", ob.verify_deflated, space, n,
                    seed=seed + 2, real=real, swallow=True)
        return reports

    def check(self, i: int, reports) -> Optional[str]:
        if [r.check_name for r in reports] != list(self.ob.CHECK_ORDER):
            return "wrong:report-order"
        for r in reports:
            if not all_finite(r.worst_violation, r.tolerance, r.witness):
                return "nonfinite"
            if not r.passed:
                return f"wrong:{r.check_name}-failed"
        return None


class Cli(Workload):
    """One op: one ``python -m orthobound.cli`` subprocess, in a fixed rotation."""

    def __init__(self, ob, inputs, root, tmp):
        super().__init__(ob, inputs, root, tmp)
        self.env = child_env(root)
        self.instances = self.write_instances(inputs, "run")
        self.stdout_bytes: List[int] = []

    def write_instances(self, inputs: gen.Inputs, tag: str) -> List[str]:
        paths = []
        for k, pair in enumerate(inputs.pairs):
            path = self.tmp / f"{tag}-instance{k}.json"
            path.write_text(json.dumps(gen.instance_doc(inputs, pair)), encoding="utf-8")
            paths.append(str(path))
        return paths

    def pair_index(self, i: int) -> int:
        return gen.CLI_ROTATION[i % len(gen.CLI_ROTATION)][1]

    def input_key(self, i: int) -> int:
        return i % len(gen.CLI_ROTATION)

    def run_cli(self, command: str, path: str):
        proc = subprocess.run(
            [sys.executable, "-m", "orthobound.cli", command, path],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        return command, proc.returncode, proc.stdout

    def op(self, i: int):
        command, k = gen.CLI_ROTATION[i % len(gen.CLI_ROTATION)]
        return self.run_cli(command, self.instances[k])

    def op_traced(self, i: int, tracer):
        command, k = gen.CLI_ROTATION[i % len(gen.CLI_ROTATION)]
        path = self.instances[k]
        with tracer.span(OP_SPAN):
            out = self.run_cli(command, path)
        self.stdout_bytes.append(len(out[2].encode()))
        with tracer.span("cli.import_s"):
            subprocess.run([sys.executable, "-c", "import orthobound.cli"], cwd=self.root,
                           env=self.env, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
        self.decompose(command, path, out[2], tracer)
        return out

    def decompose(self, command: str, path: str, stdout: str, tracer) -> None:
        """load, compute and dump in-process, then the whole of cli.main."""
        ob, cli = self.ob, self.ob.cli
        loaded = tracer.call("cli.load_instance", cli.load_instance, path, swallow=True)
        if loaded is not None:
            space, a, b, real = loaded
            with tracer.span("cli.compute"):
                try:
                    if command == "bound":
                        tracer.call("core.gram2", ob.gram2, space, a, b)
                        tracer.call("core.ostrowski_bound", ob.ostrowski_bound, space, a, b)
                    elif command == "extremize":
                        tracer.call("core.extremizer", ob.extremizer, space, a, b)
                        tracer.call("core.ostrowski_bound", ob.ostrowski_bound, space, a, b)
                    elif command == "minnorm":
                        tracer.call("core.min_norm_solution", ob.min_norm_solution, space, a, b)
                    else:
                        tracer.call("verify.verify_all", ob.verify_all, space, a, b, real=real)
                except Exception:  # recorded on the span; the subprocess op is what counts
                    pass
        try:
            docs = [strict_json(line) for line in stdout.splitlines() if line.strip()]
        except ValueError:
            docs = []
        for doc in docs:
            tracer.call("cli.dumps_stable", cli.dumps_stable, doc, swallow=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            with tracer.span("cli.main") as span:
                rc = cli.main([command, path])
        span.error = rc != 0

    def check(self, i: int, out) -> Optional[str]:
        command, rc, stdout = out
        if rc != 0:
            return f"exit:{rc}"
        try:
            docs = [strict_json(line) for line in stdout.splitlines() if line.strip()]
        except ValueError:
            return "invalid-json"
        pi = self.pair_index(i)
        pair = self.inputs.pairs[pi]
        if not docs or not all_finite(*_numbers(docs)):
            return "nonfinite"
        tol = tolerance(pair.sin2)
        w = self.weights(pair)
        doc = docs[0]
        if command == "bound":
            self.record(pi, doc["bound"], None)
        elif command == "extremize":
            self.record(pi, doc["bound"], None)
            return check_vectors(w, pair.a, pair.b, doc["bound"], None, _vector(doc["x"]), None, tol)
        elif command == "minnorm":
            self.record(pi, None, doc["value"])
            return check_vectors(w, pair.a, pair.b, None, doc["value"], None, _vector(doc["x"]), tol)
        else:
            if [d.get("check") for d in docs] != list(self.ob.CHECK_ORDER):
                return "wrong:report-order"
            if not all(d["passed"] for d in docs):
                return "wrong:verify-failed"
            self.record(pi, docs[0]["bound"], docs[1].get("value"))
        return None

    def audit_values(self, inputs: gen.Inputs):
        """Bound and value as the CLI prints them for the audit instances."""
        out = []
        for pair, path in zip(inputs.pairs, self.write_instances(inputs, "audit")):
            got = {}
            for command, key in (("bound", "bound"), ("minnorm", "value")):
                _, rc, stdout = self.run_cli(command, path)
                try:
                    got[key] = strict_json(stdout)[key] if rc == 0 else None
                except ValueError:
                    got[key] = None
            if None not in got.values():
                out.append((pair, got["bound"], got["value"]))
        return out


def _numbers(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    return [x for v in obj for x in _numbers(v)]


def _vector(entries) -> np.ndarray:
    """A CLI vector: plain numbers in real mode, [re, im] pairs in complex mode."""
    arr = np.asarray(entries, dtype=np.float64)
    return arr.astype(np.complex128) if arr.ndim == 1 else arr[:, 0] + 1j * arr[:, 1]


WORKLOADS = {"pairs-small": Pairs, "pairs-large": Pairs, "harness": Harness, "cli": Cli}
