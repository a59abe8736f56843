"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: plain Python
summation for inner products, a 2x2 linear solve for the min-norm
problem, and high-precision mpmath arithmetic for the pair answers.
Acceptance checks compare the closed forms against these.
"""

from typing import NamedTuple

import mpmath
import numpy as np


def inner_by_summation(weights, u, v) -> complex:
    """Left-to-right scalar summation, no numpy reductions."""
    acc = 0j
    for w, x, y in zip(weights, u, v):
        acc += complex(w) * complex(x) * complex(y).conjugate()
    return acc


def norm_sq_by_summation(weights, u) -> float:
    return inner_by_summation(weights, u, u).real


def min_norm_by_lagrange(weights, a, b):
    """Solve the constrained least-norm problem from first principles.

    The minimizer lies in span{a, b}: x = p*a + q*b.  The constraints
    <x,a> = 0 and <x,b> = 1 give a 2x2 linear system in (p, q) with the
    Gram matrix as coefficients, solved numerically rather than by the
    library's closed form.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    gram = np.array(
        [
            [inner_by_summation(weights, a, a), inner_by_summation(weights, b, a)],
            [inner_by_summation(weights, a, b), inner_by_summation(weights, b, b)],
        ],
        dtype=np.complex128,
    )
    p, q = np.linalg.solve(gram, np.array([0.0, 1.0], dtype=np.complex128))
    x = p * a + q * b
    return x, norm_sq_by_summation(weights, x)


# Whole-array forms of the pair functions on complex128 vectors: one numpy
# expression per quantity over the full vectors, with Python's scalar
# arithmetic.  Up to 2^14 elements the library must reproduce these bit for
# bit.  The extremizer and the min-norm vector are elementwise given coef and
# ||r||^2, so on longer vectors they are evaluated on the library's own.


def residual_whole(w, a, b):
    """(||a||^2, ||b||^2, <a,b>, coef, ||r||^2) for r = b - coef*a, coef = conj(<a,b>)/||a||^2:
    ||r||^2 is ||b||^2 - |<a,b>| |coef| while that is at least half of ||b||^2, else r's squares summed."""
    na = float(np.add.reduce(w * np.abs(a) ** 2))
    nb = float(np.add.reduce(w * np.abs(b) ** 2))
    iab = complex(np.add.reduce(w * a * np.conj(b)))
    coef = iab.conjugate() / na
    nr = nb - abs(iab) * abs(coef)
    if nr < nb / 2:
        nr = float(np.add.reduce(w * np.abs(b - coef * a) ** 2))
    return na, nb, iab, coef, nr


def gram_whole(w, a, b):
    """(||a||^2, ||b||^2, <a,b>, det) with det taken as ||a||^2 ||r||^2."""
    na, nb, iab, _, nr = residual_whole(w, a, b)
    return na, nb, iab, na * nr


def extremizer_whole(a, b, coef, nr):
    return (b - coef * a) * complex(1 / np.sqrt(nr))


def min_norm_whole(a, b, coef, nr):
    return (b - coef * a) * complex(1 / nr), 1 / nr


class PairAnswers(NamedTuple):
    det: float
    bound: float
    extremizer: np.ndarray
    min_norm: np.ndarray
    value: float
    kappa: float  # ||b||^2 / ||r||^2, the condition number of the bound under relative changes of b


def pair_answers_by_mpmath(weights, a, b, digits=60) -> PairAnswers:
    """The pair's answers from its float inputs, taken exactly as given, in digits-digit
    arithmetic: r = b - (<b,a>/||a||^2) a, bound ||r||^2, extremizer r/||r||, min-norm
    vector r/||r||^2 with value 1/||r||^2; each rounded to float64 at the end."""
    with mpmath.workdps(digits):
        w = [mpmath.mpf(float(v)) for v in weights]
        a, b = ([mpmath.mpc(complex(v)) for v in u] for u in (a, b))

        def ip(u, v):
            return mpmath.fsum(wk * uk * mpmath.conj(vk) for wk, uk, vk in zip(w, u, v))

        na = ip(a, a).real
        coef = ip(b, a) / na
        r = [bk - coef * ak for ak, bk in zip(a, b)]
        nr = ip(r, r).real
        norm_r = mpmath.sqrt(nr)
        return PairAnswers(
            float(na * nr),
            float(nr),
            np.array([complex(rk / norm_r) for rk in r]),
            np.array([complex(rk / nr) for rk in r]),
            float(1 / nr),
            float(ip(b, b).real / nr),
        )
