"""Host-speed calibration: a fixed piece of work, timed between ops.

On a shared host the same op runs up to 1.7x slower for seconds at a time,
and CPU time moves with wall time, so neither clock alone separates the
program's speed from the host's.  The benchmark therefore runs a fixed
calibration kernel, which does not touch ``orthobound``, after every stretch
of ops, and scales those ops' latencies by

    scale = NOMINAL_S[kind] / (measured time of one kernel unit)

so a reported time is the time the op would take on a host where one unit
takes its nominal time.  The nominal times are close to what a quiet 2-vCPU
host measures, so scaled and raw times agree there.  A change to the program
moves scaled times as much as raw ones: the kernel's cost does not depend on
it.

Two in-process kernels, matched to the ops they calibrate:

- ``small``: weighted inner products and an axpy on dim 8-32 complex
  arrays, mostly interpreter and numpy-call overhead, like the
  ``pairs-small``, ``harness`` and ``cli`` ops;
- ``stream``: the same on dim 2^18, the ``pairs-large`` op's size: numpy
  passes over arrays far larger than the core's private caches.  Its arrays
  add about 10 MB to the process's peak RSS.  At dim 2^16 the kernel missed
  the op's host-speed swings: the p50 spread over seeds rose from 0.01 to
  0.07.

Set-up is timed in fresh processes, whose cost is mostly starting the
interpreter and loading numpy's shared libraries; the in-process kernels
missed its drift (12% between two sets of runs).  It is calibrated by
``spawn_seconds``, a fresh interpreter that only imports numpy, nominally
SPAWN_NOMINAL_S.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

NOMINAL_S = {"small": 20e-6, "stream": 6e-3}
_DIMS = {"small": tuple(range(8, 33)), "stream": (1 << 18,)}
SPAWN_NOMINAL_S = 0.12
# the kernel's inputs are the same in every run, whatever the seed
_SEED = 20260101


class Calibration:
    def __init__(self, kind: str):
        rng = np.random.default_rng(_SEED)
        self.nominal = NOMINAL_S[kind]
        self.arrays = []
        for d in _DIMS[kind]:
            w = rng.uniform(0.25, 4.0, d)
            a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            self.arrays.append((w, a, b))
        self.k = 0
        self.units = 0

    def unit(self) -> float:
        w, a, b = self.arrays[self.k % len(self.arrays)]
        self.k += 1
        na = float(np.sum(w * (a * np.conj(a))).real)
        iab = complex(np.sum(w * (a * np.conj(b))))
        x = b - (iab / na) * a
        return float(np.sum(w * (x * np.conj(x))).real)

    def scale(self, seconds: float) -> float:
        """Nominal over measured time per unit, running whole units for at
        least ``seconds`` (and at least two units)."""
        n, t0 = 0, time.perf_counter()
        while True:
            self.unit()
            n += 1
            elapsed = time.perf_counter() - t0
            if n >= 2 and elapsed >= seconds:
                break
        self.units += n
        return self.nominal * n / elapsed


def spawn_seconds(cwd) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True)
    return time.perf_counter() - t0
