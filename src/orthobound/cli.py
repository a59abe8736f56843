"""Command-line front end: ``orthobound bound|extremize|minnorm|verify <instance.json>``.
README's CLI section documents the flags, the instance format and the exit codes."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

import numpy as np

from . import core, verify
from .errors import DependentVectors, OrthoboundError, ZeroVector
from .spaces import SpaceDescriptor, make_dense, make_weighted


class InstanceError(OrthoboundError):
    """Instance file failed to parse or validate; names the offending field."""

    def __init__(self, field: str, msg: str):
        self.field = field
        super().__init__(f"{field}: {msg}")


# ---------------------------------------------------------------------------
# stable JSON output


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps_stable(obj, nulls: bool = False) -> str:
    """JSON with insertion key order and 17-significant-digit floats.  A nan
    or inf, which JSON cannot represent, is written as null if nulls is set
    and raises OrthoboundError if not."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            if nulls:
                return "null"
            raise OrthoboundError(f"the result holds {float(obj)!r}, which JSON cannot represent")
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_stable(v, nulls) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {dumps_stable(v, nulls)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# instance parsing


def _parse_scalar(entry, field: str, real_mode: bool) -> complex:
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        return complex(float(entry), 0.0)
    if isinstance(entry, list) and len(entry) == 2 and all(
        isinstance(p, (int, float)) and not isinstance(p, bool) for p in entry
    ):
        z = complex(float(entry[0]), float(entry[1]))
        if real_mode and z.imag != 0.0:
            raise InstanceError(field, "nonzero imaginary part in real mode")
        return z
    raise InstanceError(field, "expected a number or a [re, im] pair")


def _parse_vector(doc, field: str, real_mode: bool) -> np.ndarray:
    if not isinstance(doc, list) or not doc:
        raise InstanceError(field, "expected a nonempty array")
    out = np.empty(len(doc), dtype=np.complex128)
    for i, entry in enumerate(doc):
        out[i] = _parse_scalar(entry, f"{field}[{i}]", real_mode)
    if not np.isfinite(out).all():
        raise InstanceError(field, "entries must be finite")
    return out


def _parse_space(doc) -> SpaceDescriptor:
    if not isinstance(doc, dict):
        raise InstanceError("space", "expected an object")
    kind = doc.get("kind")
    try:
        if kind == "dense":
            if not isinstance(doc.get("dim"), int) or isinstance(doc.get("dim"), bool):
                raise InstanceError("space.dim", "expected a positive integer")
            space = make_dense(doc["dim"])
        elif kind == "weighted":
            if "weights" not in doc:
                raise InstanceError("space.weights", "required for weighted spaces")
            space = make_weighted(np.asarray(doc["weights"], dtype=np.float64))
        elif kind == "quadrature":
            for key in ("nodes", "weights"):
                if key not in doc:
                    raise InstanceError(f"space.{key}", "required for quadrature spaces")
            space = SpaceDescriptor(
                "quadrature",
                np.asarray(doc["weights"], dtype=np.float64),
                np.asarray(doc["nodes"], dtype=np.float64),
            )
        else:
            raise InstanceError("space.kind", "expected dense|weighted|quadrature")
    except InstanceError:
        raise
    except (OrthoboundError, ValueError, TypeError) as exc:
        raise InstanceError("space", str(exc)) from exc
    if "dim" in doc and doc["dim"] != space.dim:
        raise InstanceError("space.dim", f"inconsistent with weights length {space.dim}")
    return space


def load_instance(path: str) -> Tuple[SpaceDescriptor, np.ndarray, np.ndarray, bool]:
    """Read an instance file; returns (space, a, b, real_mode)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceError("file", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise InstanceError("file", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("file", "top-level value must be an object")
    mode = doc.get("mode")
    if mode not in ("real", "complex"):
        raise InstanceError("mode", "expected \"real\" or \"complex\"")
    real_mode = mode == "real"
    if "space" not in doc:
        raise InstanceError("space", "missing")
    space = _parse_space(doc["space"])
    vectors = []
    for name in ("a", "b"):
        if name not in doc:
            raise InstanceError(name, "missing")
        v = _parse_vector(doc[name], name, real_mode)
        if v.size != space.dim:
            raise InstanceError(name, f"length {v.size} does not match space dimension {space.dim}")
        vectors.append(v)
    return space, vectors[0], vectors[1], real_mode


def _emit_vector(x: np.ndarray, real_mode: bool):
    if real_mode:
        return [float(z.real) for z in x]
    return [[float(z.real), float(z.imag)] for z in x]


# ---------------------------------------------------------------------------
# subcommands


def cmd_bound(args) -> int:
    space, a, b, real_mode = load_instance(args.instance)
    g = core.gram2(space, a, b)
    bound = core._bound(g)
    gram = {
        "norm_a_sq": g.norm_a_sq,
        "norm_b_sq": g.norm_b_sq,
        "inner_ab": g.inner_ab.real if real_mode else [g.inner_ab.real, g.inner_ab.imag],
        "det": g.det,
    }
    print(dumps_stable({"bound": bound, "gram": gram}))
    return 0


def cmd_extremize(args) -> int:
    space, a, b, real_mode = load_instance(args.instance)
    a, b, g = core._pair(space, a, b)
    x = core._extremizer(a, b, g, core.DEFAULT_TOL)
    w = space.weights
    print(
        dumps_stable(
            {
                "x": _emit_vector(x, real_mode),
                "attained": abs(complex(core._inner_rows(w, x, b))) ** 2,
                "bound": core._bound(g),
                "residual_orth": abs(complex(core._inner_rows(w, x, a))),
                "residual_norm": abs(np.sqrt(float(core._norm_sq_rows(w, x))) - 1.0),
            }
        )
    )
    return 0


def cmd_minnorm(args) -> int:
    space, a, b, real_mode = load_instance(args.instance)
    a, b, g = core._pair(space, a, b)
    x, value = core._min_norm(a, b, g, core.DEFAULT_TOL)
    w = space.weights
    print(
        dumps_stable(
            {
                "x": _emit_vector(x, real_mode),
                "value": value,
                "residual_orth": abs(complex(core._inner_rows(w, x, a))),
                "residual_one": abs(complex(core._inner_rows(w, x, b)) - 1.0),
            }
        )
    )
    return 0


def _verify_lines(space, a, b, real_mode, trials, seed, tol_value) -> Tuple[List[str], bool, List[str]]:
    """The report lines of one verify run, whether every check passed, and the
    checks with a nan or inf figure, which fail and write the figure as null."""
    tol = core.Tolerances(rel_eps=tol_value)
    reports = verify.verify_all(space, a, b, trials=trials, tol=tol, seed=seed, real=real_mode)
    settings = {"trials": trials, "seed": seed, "tol": tol_value}
    lines, non_finite = [], []
    for rep in reports:
        doc = dict(rep.to_dict(), harness_format=verify.HARNESS_FORMAT, settings=settings)
        try:
            lines.append(dumps_stable(doc))
        except OrthoboundError:
            non_finite.append(rep.check_name)
            lines.append(dumps_stable(doc, nulls=True))
    return lines, not non_finite and all(rep.passed for rep in reports), non_finite


def cmd_verify(args) -> int:
    space, a, b, real_mode = load_instance(args.instance)
    if args.trials < 0:
        raise InstanceError("--trials", "must be nonnegative")
    if args.seed < 0:
        raise InstanceError("--seed", "must be nonnegative")
    if not (0.0 < args.tol < 1.0):
        raise InstanceError("--tol", "must lie in (0, 1)")

    if args.replay:
        return _cmd_verify_replay(args, space, a, b, real_mode)

    lines, passed, non_finite = _verify_lines(space, a, b, real_mode, args.trials, args.seed, args.tol)
    for line in lines:
        print(line)
    if not passed:
        if not args.quiet:
            for check in non_finite:
                print(f"{check}: a figure is nan or inf, written as null", file=sys.stderr)
            print("verification FAILED", file=sys.stderr)
        return 5
    return 0


def _cmd_verify_replay(args, space, a, b, real_mode) -> int:
    """Re-run the checks recorded in a previous verify output and compare
    byte-for-byte; any drift (or hand-edited value) is a failure."""
    try:
        with open(args.replay, "r", encoding="utf-8") as fh:
            stored = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise InstanceError("--replay", str(exc)) from exc
    if not stored:
        raise InstanceError("--replay", "file holds no reports")
    try:
        first = json.loads(stored[0])
        written_by = first.get("harness_format")
        settings = first.get("settings", {})
        trials = int(settings["trials"])
        seed = int(settings["seed"])
        tol_value = float(settings["tol"])
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InstanceError("--replay", f"malformed report line: {exc}") from exc
    if written_by != verify.HARNESS_FORMAT:
        raise InstanceError(
            "--replay",
            f"file was written by an older sampler (harness_format {written_by!r}, "
            f"this version writes {verify.HARNESS_FORMAT}); regenerate it with 'orthobound verify'",
        )

    fresh = _verify_lines(space, a, b, real_mode, trials, seed, tol_value)[0]
    ok = len(stored) == len(fresh) and all(s == f for s, f in zip(stored, fresh))
    for line in fresh:
        print(line)
    if not ok:
        if not args.quiet:
            print("replay mismatch: stored reports do not reproduce", file=sys.stderr)
        return 5
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthobound",
        description="Gram-determinant bounds, extremizers, and min-norm solutions "
        "over weighted inner-product spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("bound", cmd_bound),
        ("extremize", cmd_extremize),
        ("minnorm", cmd_minnorm),
        ("verify", cmd_verify),
    ):
        p = sub.add_parser(name)
        p.add_argument("instance", help="path to the instance JSON file")
        p.add_argument("--quiet", action="store_true", help="suppress stderr diagnostics")
        if name == "verify":
            p.add_argument("--trials", type=int, default=verify.DEFAULT_TRIALS)
            p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
            p.add_argument("--tol", type=float, default=core.DEFAULT_TOL.rel_eps)
            p.add_argument("--replay", default=None, help="previous verify output to re-check")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the input-error code
        return int(exc.code or 0)
    quiet = getattr(args, "quiet", False)

    def diag(msg: str):
        if not quiet:
            print(msg, file=sys.stderr)

    try:
        # GramOverflow and dumps_stable's refusal of inf and nan stand for numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except ZeroVector as exc:
        diag(str(exc))
        return 3
    except DependentVectors as exc:
        diag(str(exc))
        return 4
    except OrthoboundError as exc:
        diag(f"input error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
