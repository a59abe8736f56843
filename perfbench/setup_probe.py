"""Set-up as a fresh process pays it: ``import orthobound``, then build spaces.

    python3 perfbench/setup_probe.py SRC_DIR SPEC_JSON

SPEC_JSON lists the spaces a workload builds: ``{"kind": "weighted",
"file": NPY}`` or ``{"kind": "trapezoid", "n": N, "lo": LO, "hi": HI}``.
Prints one JSON line once every space is built; ``load_s`` is the time spent
reading the weight files, which is input loading, not set-up.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
import orthobound  # noqa: E402
import numpy as np  # noqa: E402

t1 = time.perf_counter()
with open(sys.argv[2], encoding="utf-8") as fh:
    spec = json.load(fh)
weights = {k: np.load(s["file"]) for k, s in enumerate(spec) if s["kind"] == "weighted"}
t2 = time.perf_counter()
spaces = [
    orthobound.make_weighted(weights[k]) if s["kind"] == "weighted"
    else orthobound.trapezoid_rule(s["n"], s["lo"], s["hi"])
    for k, s in enumerate(spec)
]
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "build_s": t3 - t2}), flush=True)
