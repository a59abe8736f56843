"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: plain Python
summation for inner products, and a 2x2 linear solve for the min-norm
problem.  Acceptance checks compare the closed forms against these.
"""

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
# expression per quantity over the full vectors.  Up to 2^14 elements the
# library must reproduce these bit for bit.  The extremizer and the min-norm
# vector are elementwise given the Gram data g = (||a||^2, ||b||^2, <a,b>, det),
# so on longer vectors they are evaluated on the library's own g.


def gram_whole(w, a, b):
    """(||a||^2, ||b||^2, <a,b>, det) with det clamped at 0."""
    na = float(np.add.reduce(w * np.abs(a) ** 2))
    nb = float(np.add.reduce(w * np.abs(b) ** 2))
    iab = complex(np.add.reduce(w * a * np.conj(b)))
    return na, nb, iab, max(na * nb - abs(iab) * abs(iab), 0.0)


def extremizer_whole(a, b, g):
    na, _, iab, det = g
    return np.sqrt(na / det) * (b - (np.conj(iab) / na) * a)


def min_norm_whole(a, b, g):
    na, _, iab, det = g
    return (na * b - np.conj(iab) * a) / det, na / det
