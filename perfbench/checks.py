"""Output checks, failure accounting and latency statistics.

An op fails when it raises (``DependentVectors`` or ``ZeroVector`` included,
since every generated pair is independent), returns any non-finite number,
exits the CLI with a code other than 0, prints stdout that strict JSON
rejects, or returns a finite answer that misses the reference.  A failed op
is counted and the run goes on.

Reference tolerances scale with the pair's conditioning ``1 / (1 - cos^2)``:
the Gram-determinant formula loses that factor to cancellation, and the
benchmark reports the loss through ``rel_err_max`` rather than failing it.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

import numpy as np

from gen import weighted_inner as _ip
from oracle import prescale, rel_err

UNIT_ROUNDOFF = 2.0**-53
TOL_FLOOR = 1e-9
TOL_PER_CONDITION = 256.0
# Relative errors below this read as this: rounding noise of a few ulps
# varies with summation order, and must not count as a regression.
REL_ERR_FLOOR = 1e-12
TAIL_BEYOND = 10
# An input run at least this often in a run is judged by its median latency.
MIN_VISITS = 5


def tolerance(sin2: float) -> float:
    """Relative tolerance for a pair with the given 1 - cos^2."""
    return TOL_FLOOR + TOL_PER_CONDITION * UNIT_ROUNDOFF / sin2


def all_finite(*values) -> bool:
    for v in values:
        if v is None:
            continue
        if not np.all(np.isfinite(np.asarray(v, dtype=np.complex128))):
            return False
    return True


def check_scalars(bound, value, ref_bound, ref_value, tol) -> Optional[str]:
    """None when bound and value match the reference within tol, else why not."""
    if bound is not None and rel_err(bound, ref_bound) > tol:
        return "wrong:bound"
    if value is not None and rel_err(value, ref_value) > tol:
        return "wrong:value"
    return None


def check_vectors(w, a, b, bound, value, x_ext, x_min, tol) -> Optional[str]:
    """Residual checks on the extremizer and the min-norm solution.

    The pair is rescaled by exact powers of two first, so the checks hold
    for pairs whose squared norms would overflow or underflow.
    """
    a, _ = prescale(a)
    b, kb = prescale(b)
    na = _ip(w, a, a).real
    if x_ext is not None:
        nx = _ip(w, x_ext, x_ext).real
        if abs(nx - 1.0) > tol:
            return "wrong:extremizer-norm"
        if abs(_ip(w, x_ext, a)) > tol * math.sqrt(nx * na):
            return "wrong:extremizer-orthogonality"
        # bound scales as |b|^2
        if rel_err(abs(_ip(w, x_ext, b)) ** 2, math.ldexp(bound, -2 * kb)) > tol:
            return "wrong:extremizer-attainment"
    if x_min is not None:
        # x scales as 1 / b
        x = np.ldexp(x_min.real, kb) + 1j * np.ldexp(x_min.imag, kb)
        nx = _ip(w, x, x).real
        if abs(_ip(w, x, a)) > tol * math.sqrt(nx * na):
            return "wrong:minnorm-orthogonality"
        if abs(_ip(w, x, b) - 1.0) > tol:
            return "wrong:minnorm-constraint"
        if rel_err(nx, math.ldexp(value, 2 * kb)) > tol:
            return "wrong:minnorm-value"
    return None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity; raises ValueError."""
    return json.loads(text, parse_constant=_reject_constant)


def median(xs: Sequence[float]) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def _tail(xs: Sequence[float]):
    s = sorted(xs)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return median(s), 50.0
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / n


def by_input(xs: Sequence[float], keys: Sequence[int]) -> list:
    """The samples of each input, ``keys[i]`` naming the input of sample i."""
    out = {}
    for x, k in zip(xs, keys):
        out.setdefault(k, []).append(x)
    return list(out.values())


def balanced_median(groups) -> float:
    """The median over inputs of each input's median."""
    return median([median(g) for g in groups])


def balanced_mean(groups) -> float:
    """The mean over inputs of each input's mean."""
    return sum(sum(g) / len(g) for g in groups) / len(groups)


def tail(groups):
    """(value, percentile, samples, what the samples are): the latency at
    the highest percentile that has at least TAIL_BEYOND samples above it,
    or the median when there are fewer than 2 * TAIL_BEYOND samples.

    With at least 2 * TAIL_BEYOND inputs, each run at least MIN_VISITS
    times, a sample is one input's median, so the tail is over inputs and
    one-off host stalls do not move it.  With fewer inputs, whose latencies
    differ by class, the figure is taken over each input's own ops and the
    worst input's is reported; pooled over ops, it jumped between classes
    with the run's op count.
    """
    if len(groups) >= 2 * TAIL_BEYOND and min(map(len, groups)) >= MIN_VISITS:
        value, pct = _tail([median(g) for g in groups])
        return value, pct, len(groups), "input medians"
    worst = max(groups, key=lambda g: _tail(g)[0])
    value, pct = _tail(worst)
    return value, pct, len(worst), "ops of the worst input"


def floored_rel_err(errs: Sequence[float]) -> float:
    return max([REL_ERR_FLOOR, *errs])
