"""High-precision reference values for the Ostrowski bound and the min-norm value.

Independent of ``orthobound``: the Gram data of a pair are summed exactly
from the float64 inputs and the closed forms are evaluated in 50-digit
mpmath, straight from the definitions

    det   = ||a||^2 ||b||^2 - |<a,b>|^2
    bound = det / ||a||^2
    value = ||a||^2 / det

with ``<u,v> = sum_i w_i u_i conj(v_i)``.

Summation: every product ``w_i * x_i * y_i`` of float64 numbers is split
into four float64 terms whose sum is exact (Dekker's two-product), and the
term list is summed by ``math.fsum`` repeatedly, each pass taking the
previous partial sums back out, which yields the sum as three float64
components (about 159 bits, 48 digits).  Vectors are first scaled by an
exact power of two so that no product overflows or underflows; mpmath puts
the scale back.
This keeps a dim-2^18 pair at about a second, where pure mpmath sums take
tens of seconds.
"""

from __future__ import annotations

import math

import numpy as np

DIGITS = 50
_SPLIT = 134217729.0  # 2**27 + 1
_COMPONENTS = 3


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _two_prod(x, y):
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _triple_terms(w, x, y):
    """Four arrays whose elementwise sum is exactly w*x*y."""
    p, e = _two_prod(x, y)
    p1, e1 = _two_prod(w, p)
    p2, e2 = _two_prod(w, e)
    return (p1, e1, p2, e2)


def _exact_sum(ctx, parts):
    """Sum of every element of every array in ``parts``, as an mpf."""
    terms = np.concatenate([np.ravel(p) for p in parts]).tolist()
    total = ctx.mpf(0)
    taken = []
    for _ in range(_COMPONENTS):
        s = math.fsum(terms + [-t for t in taken])
        if s == 0.0:
            break
        taken.append(s)
        total += s
    return total


def prescale(v):
    """(v / 2**k, k) with the largest |component| of v / 2**k in [0.5, 1)."""
    peak = float(np.max(np.abs(np.concatenate([v.real, v.imag]))))
    if peak == 0.0:
        return v, 0
    k = math.frexp(peak)[1]
    return np.ldexp(v.real, -k) + 1j * np.ldexp(v.imag, -k), k


def gram(weights, a, b):
    """(||a||^2, ||b||^2, Re<a,b>, Im<a,b>) as 50-digit mpf values."""
    import mpmath  # here, so that importing this module stays light

    ctx = mpmath.mp.clone()
    ctx.dps = DIGITS
    w = np.asarray(weights, dtype=np.float64)
    a, ka = prescale(np.asarray(a, dtype=np.complex128))
    b, kb = prescale(np.asarray(b, dtype=np.complex128))
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    na = _exact_sum(ctx, _triple_terms(w, ar, ar) + _triple_terms(w, ai, ai))
    nb = _exact_sum(ctx, _triple_terms(w, br, br) + _triple_terms(w, bi, bi))
    # <a,b> = sum w (ar + i ai)(br - i bi)
    re = _exact_sum(ctx, _triple_terms(w, ar, br) + _triple_terms(w, ai, bi))
    im = _exact_sum(ctx, _triple_terms(w, ai, br) + tuple(-t for t in _triple_terms(w, ar, bi)))
    sa, sb, sab = ctx.ldexp(1, 2 * ka), ctx.ldexp(1, 2 * kb), ctx.ldexp(1, ka + kb)
    return ctx, na * sa, nb * sb, re * sab, im * sab


def reference(weights, a, b):
    """(bound, value) of the pair, each rounded to the nearest float64.

    ``value`` is None when the pair is exactly dependent (det == 0).
    """
    ctx, na, nb, re, im = gram(weights, a, b)
    if na == 0:
        raise ValueError("zero vector a")
    det = na * nb - (re * re + im * im)
    bound = det / na
    value = None if det == 0 else na / det
    return float(bound), (None if value is None else float(value))


def rel_err(computed: float, ref: float) -> float:
    """|computed - ref| / |ref|, in float64, without overflow for huge values."""
    if ref == 0.0:
        return 0.0 if computed == 0.0 else math.inf
    return abs(computed / ref - 1.0)
