"""Seeded input generator for the benchmark workloads.

Everything a workload feeds the program comes from here, from the seed
alone: the same seed gives byte-identical arrays (see ``fingerprint``).
Only numpy is used, so generating inputs never touches ``orthobound``.

The share of each input property is fixed per workload and only the values
vary with the seed, so two seeds give the same mix of dims, conditioning
classes and real/complex modes; this keeps run-to-run spread down.

Run ``python3 perfbench/gen.py --workload pairs-small --seed 1`` to print
what a workload contains.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

WORKLOADS = ("pairs-small", "pairs-large", "harness", "cli")

NORMAL, NEAR_DEPENDENT, EXTREME_SCALE = "normal", "near-dependent", "extreme-scale"

# pairs-small composition
SMALL_SPACES = 32
SMALL_DIM_RANGE = (8, 32)
SMALL_PAIRS = 1000
SMALL_NEAR = 100  # 10 %
SMALL_EXTREME = 20  # 2 %
NEAR_LOG10_RANGE = (-10.0, -4.0)  # log10(1 - cos^2)
EXTREME_A_LOG10 = (160.0, 200.0)
EXTREME_B_LOG10 = (100.0, 150.0)

LARGE_DIM = 1 << 18
HARNESS_TRIALS = 1000
CLI_SMALL_DIM = 64
CLI_LARGE_DIM = 4096
CLI_ROTATION = (
    ("bound", 0), ("extremize", 0), ("minnorm", 0),
    ("bound", 1), ("extremize", 1), ("minnorm", 1),
    ("verify", 0),
)


@dataclass
class SpaceSpec:
    """How to build one space: ``weighted`` from weights, or ``trapezoid``."""

    kind: str
    weights: Optional[np.ndarray] = None
    n: int = 0
    lo: float = 0.0
    hi: float = 0.0

    def nbytes(self) -> int:
        # weights, plus nodes for quadrature spaces
        return self.weights.nbytes if self.kind == "weighted" else 16 * self.n

    @property
    def dim(self) -> int:
        return self.weights.size if self.kind == "weighted" else self.n


@dataclass
class Pair:
    space: int
    a: np.ndarray
    b: np.ndarray
    real: bool
    cls: str = NORMAL
    # 1 - cos^2 as generated; used to scale check tolerances
    sin2: float = 1.0
    # a = a0 * 2**ka, b = b0 * 2**kb; nonzero only for extreme-scale pairs
    ka: int = 0
    kb: int = 0


@dataclass
class Inputs:
    workload: str
    seed: int
    spaces: List[SpaceSpec]
    pairs: List[Pair]
    # pairs-small: the order in which ops visit pairs; other workloads rotate
    order: Optional[np.ndarray] = None
    verify_seeds: List[int] = field(default_factory=list)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for s in self.spaces:
            h.update(s.kind.encode())
            if s.weights is not None:
                h.update(s.weights.tobytes())
            h.update(np.array([s.n, s.lo, s.hi]).tobytes())
        for p in self.pairs:
            h.update(np.array([p.space, p.real, p.sin2, p.ka, p.kb], dtype=np.float64).tobytes())
            h.update(p.cls.encode() + p.a.tobytes() + p.b.tobytes())
        if self.order is not None:
            h.update(self.order.tobytes())
        h.update(np.array(self.verify_seeds, dtype=np.int64).tobytes())
        return h.hexdigest()

    def describe(self) -> dict:
        n = len(self.pairs)
        dims = sorted({self.spaces[p.space].dim for p in self.pairs})
        share = lambda cls: sum(p.cls == cls for p in self.pairs) / n
        vec = sum(p.a.nbytes + p.b.nbytes for p in self.pairs)
        spc = sum(s.nbytes() for s in self.spaces)
        return {
            "workload": self.workload,
            "seed": self.seed,
            "pairs": n,
            "spaces": len(self.spaces),
            "dims": dims if len(dims) <= 8 else [dims[0], dims[-1]],
            "share_real": sum(p.real for p in self.pairs) / n,
            "share_near_dependent": share(NEAR_DEPENDENT),
            "share_extreme_scale": share(EXTREME_SCALE),
            "working_set_bytes": vec + spc,
            "fingerprint": self.fingerprint(),
        }


def _vec(rng, n, real):
    z = rng.standard_normal(n).astype(np.complex128)
    if not real:
        z += 1j * rng.standard_normal(n)
    return z


def _log_uniform_weights(rng, n):
    return np.exp(rng.uniform(math.log(0.25), math.log(4.0), n))


def weighted_inner(w, u, v) -> complex:
    """<u, v> = sum_i w_i u_i conj(v_i), the inner product of every space."""
    return complex(np.sum(w * u * np.conj(v)))


def _sin2(w, a, b):
    na, nb = weighted_inner(w, a, a).real, weighted_inner(w, b, b).real
    return 1.0 - abs(weighted_inner(w, a, b)) ** 2 / (na * nb)


def _near_dependent(rng, w, real, sin2):
    """b = lam * a_hat + mu * q_hat with q_hat orthogonal to a_hat and
    |mu|^2 / (|lam|^2 + |mu|^2) = sin2."""
    n = w.size
    a = _vec(rng, n, real)
    q = _vec(rng, n, real)
    na = weighted_inner(w, a, a).real
    for _ in range(2):
        q = q - (weighted_inner(w, q, a) / na) * a
    a_hat = a / math.sqrt(na)
    q_hat = q / math.sqrt(weighted_inner(w, q, q).real)
    lam = complex(rng.standard_normal(), 0.0 if real else rng.standard_normal())
    mu = abs(lam) * math.sqrt(sin2 / (1.0 - sin2))
    return a, lam * a_hat + mu * q_hat


def _signed_exponent(rng, log10_range):
    e = rng.uniform(*log10_range) * math.log2(10.0)
    return int(round(e)) * (1 if rng.random() < 0.5 else -1)


def _pairs_small(rng, seed):
    lo, hi = SMALL_DIM_RANGE
    dims = [lo + round((hi - lo) * k / (SMALL_SPACES - 1)) for k in range(SMALL_SPACES)]
    dims = [dims[i] for i in rng.permutation(SMALL_SPACES)]
    spaces = [SpaceSpec("weighted", _log_uniform_weights(rng, d)) for d in dims]
    classes = (
        [NEAR_DEPENDENT] * SMALL_NEAR
        + [EXTREME_SCALE] * SMALL_EXTREME
        + [NORMAL] * (SMALL_PAIRS - SMALL_NEAR - SMALL_EXTREME)
    )
    # stratified log-uniform 1 - cos^2, one draw per stratum
    lo10, hi10 = NEAR_LOG10_RANGE
    strata = (np.arange(SMALL_NEAR) + rng.random(SMALL_NEAR)) / SMALL_NEAR
    near_sin2 = 10.0 ** (lo10 + (hi10 - lo10) * rng.permutation(strata))
    pairs, k_near = [], 0
    for i, cls in enumerate(classes):
        si = i % SMALL_SPACES
        w = spaces[si].weights
        real = (i + i // SMALL_SPACES) % 2 == 0
        if cls == NEAR_DEPENDENT:
            s2 = float(near_sin2[k_near])
            k_near += 1
            a, b = _near_dependent(rng, w, real, s2)
            pairs.append(Pair(si, a, b, real, cls, s2))
            continue
        a, b = _vec(rng, w.size, real), _vec(rng, w.size, real)
        p = Pair(si, a, b, real, cls, _sin2(w, a, b))
        if cls == EXTREME_SCALE:
            p.ka = _signed_exponent(rng, EXTREME_A_LOG10)
            p.kb = _signed_exponent(rng, EXTREME_B_LOG10)
            p.a, p.b = np.ldexp(a.real, p.ka) + 1j * np.ldexp(a.imag, p.ka), \
                np.ldexp(b.real, p.kb) + 1j * np.ldexp(b.imag, p.kb)
        pairs.append(p)
    # Ops visit every pair but the extreme-scale ones: ops must not fail, and
    # those fail while the program squares ||a|| in float64.  They are run
    # once, untimed, by ``workloads.Pairs.probe_extreme_scale`` instead.
    order = rng.permutation(SMALL_PAIRS).astype(np.int64)
    order = order[[pairs[k].cls != EXTREME_SCALE for k in order]]
    return Inputs("pairs-small", seed, spaces, pairs, order=order)


def _trapezoid_spec(rng, n):
    lo = float(rng.uniform(-2.0, 0.0))
    return SpaceSpec("trapezoid", n=n, lo=lo, hi=lo + float(rng.uniform(1.0, 3.0)))


def _trapezoid_weights(spec: SpaceSpec) -> np.ndarray:
    """Trapezoid weights as the program builds them, for pair conditioning."""
    h = (spec.hi - spec.lo) / (spec.n - 1)
    w = np.full(spec.n, h)
    w[0] = w[-1] = h / 2.0
    return w


def space_weights(spec: SpaceSpec) -> np.ndarray:
    return spec.weights if spec.kind == "weighted" else _trapezoid_weights(spec)


def _random_pair(rng, spaces, si, real):
    w = space_weights(spaces[si])
    a, b = _vec(rng, w.size, real), _vec(rng, w.size, real)
    return Pair(si, a, b, real, NORMAL, _sin2(w, a, b))


def _pairs_large(rng, seed):
    spaces = [
        SpaceSpec("weighted", _log_uniform_weights(rng, LARGE_DIM)),
        _trapezoid_spec(rng, LARGE_DIM),
    ]
    pairs = [_random_pair(rng, spaces, si, False) for si in range(2)]
    return Inputs("pairs-large", seed, spaces, pairs)


def _harness(rng, seed):
    spaces = [
        SpaceSpec("weighted", _log_uniform_weights(rng, 16)),
        SpaceSpec("weighted", _log_uniform_weights(rng, 16)),
        _trapezoid_spec(rng, 1024),
    ]
    pairs = [
        _random_pair(rng, spaces, 0, False),
        _random_pair(rng, spaces, 1, True),
        _random_pair(rng, spaces, 2, False),
    ]
    verify_seeds = [int(s) for s in rng.integers(1, 2**31, 64)]
    return Inputs("harness", seed, spaces, pairs, verify_seeds=verify_seeds)


def _cli(rng, seed):
    spaces = [
        SpaceSpec("weighted", _log_uniform_weights(rng, CLI_SMALL_DIM)),
        _trapezoid_spec(rng, CLI_LARGE_DIM),
    ]
    pairs = [_random_pair(rng, spaces, 0, False), _random_pair(rng, spaces, 1, True)]
    return Inputs("cli", seed, spaces, pairs)


_MAKERS = {"pairs-small": _pairs_small, "pairs-large": _pairs_large, "harness": _harness, "cli": _cli}


def generate(workload: str, seed: int) -> Inputs:
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    # the workload name is mixed in so that workloads sharing a seed differ
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _MAKERS[workload](rng, seed)


def instance_doc(inputs: Inputs, pair: Pair) -> dict:
    """The CLI instance file for a pair, as a JSON-ready document."""
    spec = inputs.spaces[pair.space]
    if spec.kind == "weighted":
        space = {"kind": "weighted", "weights": spec.weights.tolist()}
    else:
        nodes = np.linspace(spec.lo, spec.hi, spec.n)
        space = {"kind": "quadrature", "nodes": nodes.tolist(), "weights": _trapezoid_weights(spec).tolist()}
    if pair.real:
        vec = lambda v: v.real.tolist()
    else:
        vec = lambda v: [[z.real, z.imag] for z in v.tolist()]
    return {"space": space, "a": vec(pair.a), "b": vec(pair.b), "mode": "real" if pair.real else "complex"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed).describe()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
