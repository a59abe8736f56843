"""Command-line front end: ``orthobound bound|extremize|minnorm|verify <instance.json>``.
README's CLI section documents the flags, the instance format and the exit codes."""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Tuple

import numpy as np

from . import core
from .errors import DependentVectors, OrthoboundError, ZeroVector
from .spaces import SpaceDescriptor, make_dense


class InstanceError(OrthoboundError):
    """Instance file failed to parse or validate; names the offending field."""

    def __init__(self, field: str, msg: str):
        super().__init__(f"{field}: {msg}")


# ---------------------------------------------------------------------------
# stable JSON output


def dumps_stable(obj, nulls: bool = False) -> str:
    """JSON with insertion key order and 17-significant-digit floats.  A nan
    or inf, which JSON cannot represent, is written as null if nulls is set
    and raises OrthoboundError if not."""
    if isinstance(obj, (float, np.floating)):
        if math.isfinite(obj):
            return format(float(obj), ".17g")
        if nulls:
            return "null"
        raise OrthoboundError(f"the result holds {float(obj)!r}, which JSON cannot represent")
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (list, tuple)):
        body = None  # floats, or [re, im] pairs of them, in one join
        if set(map(type, obj)) == {float}:
            body = ", ".join(["%.17g" % v for v in obj])
        elif all(type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is float for p in obj):
            body = ", ".join(["[%.17g, %.17g]" % (re, im) for re, im in obj])
        if body is None or "n" in body:  # %.17g writes inf and nan with an n
            body = ", ".join(dumps_stable(v, nulls) for v in obj)
        return "[" + body + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {dumps_stable(v, nulls)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# instance parsing

# the entry types json.load gives numbers; bool, a subclass of int, is not one
_NUMBER = (int, float)


def _decode(doc, field: str, real_mode: Optional[bool] = None) -> np.ndarray:
    """A nonempty JSON array of numbers as float64.  With real_mode given it is
    a vector: entries may also be [re, im] pairs, the result is complex128, and
    real mode refuses a nonzero imaginary part.  Names the first bad entry."""
    if type(doc) is not list or not doc:
        raise InstanceError(field, "expected a nonempty array")
    rows, want = doc, "expected a number"
    ok = [type(e) in _NUMBER for e in rows]
    if real_mode is not None and not all(ok):  # a vector with pairs; e stands for [e, 0]
        rows, want = [e if type(e) is list else (e, 0) for e in doc], "expected a number or a [re, im] pair"
        ok = [len(e) == 2 and type(e[0]) in _NUMBER and type(e[1]) in _NUMBER for e in rows]
    n = ok.index(False) if False in ok else len(ok)
    # the entries before the first bad one, so that an earlier error is named first
    try:
        out = np.array(rows[:n], dtype=np.float64)
    except OverflowError as exc:  # an integer beyond float64
        raise InstanceError(field, "entries must fit in float64") from exc
    if real_mode is not None:
        # numbers alone convert as they are; rows of [re, im] are viewed as complex
        out = out.astype(np.complex128) if rows is doc else out.reshape(n, 2).view(np.complex128).ravel()
        if real_mode and out.imag.any():
            raise InstanceError(f"{field}[{np.flatnonzero(out.imag)[0]}]", "nonzero imaginary part in real mode")
    if n < len(ok):
        raise InstanceError(f"{field}[{n}]", want)
    return out


def _read(path: str, field: str) -> str:
    """The text of an instance or replay file, refused under field if unreadable or not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(field, str(exc)) from exc


def load_instance(path: str) -> Tuple[SpaceDescriptor, np.ndarray, np.ndarray, bool]:
    """Read an instance file; returns (space, a, b, real_mode), a and b not yet checked against
    space.  Its whole JSON shape, a dense dim against the length of a too, is checked first."""
    try:
        doc = json.loads(_read(path, "file"))
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
    spec = doc["space"]
    if not isinstance(spec, dict):
        raise InstanceError("space", "expected an object")
    kind = spec.get("kind")
    # the keys each kind requires, in the order their absence is reported
    required = {"dense": ("dim",), "weighted": ("weights",), "quadrature": ("nodes", "weights")}
    if not isinstance(kind, str) or kind not in required:
        raise InstanceError("space.kind", "expected dense|weighted|quadrature")
    for key in required[kind]:
        if key not in spec:
            raise InstanceError(f"space.{key}", f"required for {kind} spaces")
    if kind == "dense":
        dim = spec["dim"]
        if type(dim) is not int:  # json gives bool, an int subclass, for true and false
            raise InstanceError("space.dim", "expected a positive integer")
    else:
        weights = _decode(spec["weights"], "space.weights")
        nodes = _decode(spec["nodes"], "space.nodes") if kind == "quadrature" else None
        if "dim" in spec and spec["dim"] != weights.size:
            raise InstanceError("space.dim", f"inconsistent with weights length {weights.size}")
    vectors = []
    for name in ("a", "b"):
        if name not in doc:
            raise InstanceError(name, "missing")
        vectors.append(_decode(doc[name], name, real_mode))
    a, b = vectors
    if kind == "dense" and dim != a.size:
        raise InstanceError("space.dim", f"inconsistent with length {a.size} of a")
    try:
        space = make_dense(dim) if kind == "dense" else SpaceDescriptor(kind, weights, nodes)
    except OrthoboundError as exc:
        raise InstanceError("space", str(exc)) from exc
    return space, a, b, real_mode


def _emit_vector(x: np.ndarray, real_mode: bool):
    return x.real.tolist() if real_mode else x.view(np.float64).reshape(-1, 2).tolist()


# ---------------------------------------------------------------------------
# subcommands


def cmd_pair(args) -> int:
    """bound, extremize or minnorm, on the Gram data core._pair builds once."""
    space, a, b, real_mode = load_instance(args.instance)
    a, b, g = core._pair(space, a, b)
    w = space.weights
    if args.command == "bound":
        # the Gram fields in GramSummary's order, the complex one as [re, im]
        iab = g.inner_ab
        gram = dict(vars(g), inner_ab=iab.real if real_mode else [iab.real, iab.imag])
        doc = {"bound": core._bound(g), "gram": gram}
    elif args.command == "extremize":
        x = core._extremizer(a, b, g, core.DEFAULT_TOL)
        doc = {
            "x": _emit_vector(x, real_mode),
            "attained": abs(complex(core._inner_rows(w, x, b))) ** 2,
            "bound": core._bound(g),
            "residual_orth": abs(complex(core._inner_rows(w, x, a))),
            "residual_norm": abs(np.sqrt(float(core._norm_sq_rows(w, x))) - 1.0),
        }
    else:
        x, value = core._min_norm(a, b, g, core.DEFAULT_TOL)
        doc = {
            "x": _emit_vector(x, real_mode),
            "value": value,
            "residual_orth": abs(complex(core._inner_rows(w, x, a))),
            "residual_one": abs(complex(core._inner_rows(w, x, b)) - 1.0),
        }
    print(dumps_stable(doc))
    return 0


def _tolerances(trials: int, seed: int, tol_value: float, prefix: str) -> core.Tolerances:
    """Check the settings of a verify run, from the flags (prefix "--") or from
    a replay file's first line, and return its tolerances.  The flags' parsers
    give an int, an int and a float; a replay file must hold JSON of those types."""
    for name, value in (("trials", trials), ("seed", seed)):
        if type(value) is not int:
            raise InstanceError(f"{prefix}{name}", "must be an integer")
        if value < 0:
            raise InstanceError(f"{prefix}{name}", "must be nonnegative")
    if type(tol_value) not in _NUMBER:
        raise InstanceError(f"{prefix}tol", "must be a number")
    try:
        return core.Tolerances(rel_eps=tol_value)
    except ValueError as exc:
        raise InstanceError(f"{prefix}tol", str(exc)) from exc


def _verify_lines(space, a, b, real_mode, trials, seed, tol) -> Tuple[List[str], bool, List[str]]:
    """The report lines of one verify run, whether every check passed, and the
    checks with a nan or inf figure, which fail and write the figure as null."""
    from . import verify  # loaded here, so that bound, extremize and minnorm do not load it
    reports = verify.verify_all(space, a, b, trials=trials, tol=tol, seed=seed, real=real_mode)
    settings = {"trials": trials, "seed": seed, "tol": tol.rel_eps}
    lines, non_finite = [], []
    for rep in reports:
        doc = dict(rep.to_dict(), harness_format=verify.HARNESS_FORMAT, settings=settings)
        try:
            lines.append(dumps_stable(doc))
        except OrthoboundError:
            non_finite.append(rep.check_name)
            lines.append(dumps_stable(doc, nulls=True))
    return lines, not non_finite and all(rep.passed for rep in reports), non_finite


def _read_replay(path: str) -> Tuple[List[str], int, int, core.Tolerances]:
    """The report lines of a previous verify output, and the trials, seed and
    tolerances recorded in its first line."""
    from . import verify
    stored = [ln for ln in _read(path, "--replay").split("\n") if ln.strip()]
    if not stored:
        raise InstanceError("--replay", "file holds no reports")
    try:
        first = json.loads(stored[0])  # its JSONDecodeError is a ValueError
        written_by = first.get("harness_format")
        settings = first.get("settings", {})
        trials, seed, tol_value = settings["trials"], settings["seed"], settings["tol"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InstanceError("--replay", f"malformed report line: {exc}") from exc
    if written_by != verify.HARNESS_FORMAT:
        raise InstanceError(
            "--replay",
            f"file was written by an older sampler (harness_format {written_by!r}, "
            f"this version writes {verify.HARNESS_FORMAT}); regenerate it with 'orthobound verify'",
        )
    return stored, trials, seed, _tolerances(trials, seed, tol_value, "--replay settings.")


def cmd_verify(args) -> int:
    space, a, b, real_mode = load_instance(args.instance)
    tol = _tolerances(args.trials, args.seed, args.tol, "--")
    stored, trials, seed = None, args.trials, args.seed
    if args.replay:
        stored, trials, seed, tol = _read_replay(args.replay)
    lines, passed, non_finite = _verify_lines(space, a, b, real_mode, trials, seed, tol)
    for line in lines:
        print(line)
    # a replay re-runs the recorded checks and compares byte for byte: any drift
    # (or hand-edited value) is a failure, whether or not the checks pass
    if stored is None and not passed:
        notes = [f"{check}: a figure is nan or inf, written as null" for check in non_finite]
        notes.append("verification FAILED")
    elif stored is not None and stored != lines:
        notes = ["replay mismatch: stored reports do not reproduce"]
    else:
        return 0
    if not args.quiet:
        for note in notes:
            print(note, file=sys.stderr)
    return 5


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthobound",
        description="Gram-determinant bounds, extremizers, and min-norm solutions "
        "over weighted inner-product spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bound", "extremize", "minnorm", "verify"):
        p = sub.add_parser(name)
        p.add_argument("instance", help="path to the instance JSON file")
        p.add_argument("--quiet", action="store_true", help="suppress stderr diagnostics")
        if name == "verify":
            p.add_argument("--trials", type=int, default=core.DEFAULT_TRIALS)
            p.add_argument("--seed", type=int, default=core.DEFAULT_SEED)
            p.add_argument("--tol", type=float, default=core.DEFAULT_TOL.rel_eps)
            p.add_argument("--replay", default=None, help="previous verify output to re-check")
        p.set_defaults(fn=cmd_verify if name == "verify" else cmd_pair)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the input-error code
        return int(exc.code or 0)

    def diag(msg: str):
        if not args.quiet:
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
