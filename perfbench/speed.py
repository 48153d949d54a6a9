"""Machine-speed probe that scales timings to a quiet machine.

The benchmark runs on a small shared machine whose co-tenants slow it by
up to 2x, in spells from under a second to minutes, so run-level timings
of the same code drift by about 30% between runs. A fixed probe that
does not call the package is timed between short windows of the
measured work. A window's time is multiplied by the window's speed,
``PROBE_REF_S`` over the mean of the probes on either side of it, which
gives the time it would have taken on the quiet machine. On a quiet
machine the scaled and unscaled timings agree; under load the scaled
ones held within about 5% where the unscaled ones moved by 30%.

``PROBE_REF_S`` is the time of one run of each probe's work on a quiet
2-core Intel Xeon x86-64 box (numpy 2 with OpenBLAS), rounded: there

    OPENBLAS_NUM_THREADS=1 python3 perfbench/speed.py

printed lower quartiles of 0.00105 s (small) and 0.0070 s (dense) over
300 single timings. Under load it prints higher figures. The value only
sets the unit of scaled timings, seconds of that machine: any fixed
value gives the same ratios between runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# probe time on the quiet reference machine (see above)
PROBE_REF_S = {"small": 0.001, "dense": 0.007}
# measured work between two probes
WINDOW_S = 0.1


class SpeedProbe:
    """Fixed work timed to estimate the machine's current speed.

    ``small`` mixes dense calls on 2x2 to 8x8 matrices with dict work,
    like the package's per-item work; ``dense`` is one 160-dim hermitian
    eigensolve, like the oracle's diagonalizations.
    """

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.ref = PROBE_REF_S[kind]
        if kind == "dense":
            G = rng.normal(size=(160, 160)) + 1j * rng.normal(size=(160, 160))
            self.big = G + G.conj().T
        else:
            self.mats = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                         for n in (2, 4, 6, 8)]
            self.herm = [A + A.conj().T for A in self.mats]

    def __call__(self) -> float:
        start = time.perf_counter()
        if self.kind == "dense":
            np.linalg.eigh(self.big)
        else:
            for _ in range(4):
                for A, H in zip(self.mats, self.herm):
                    np.linalg.eigh(H)
                    np.linalg.svd(A, compute_uv=False)
                    np.linalg.solve(A, H)
                    np.linalg.qr(A)
                    d = {}
                    for k in range(40):
                        d[(k, "x")] = [k] * 3
        return time.perf_counter() - start


def scaled(probe: SpeedProbe, fn):
    """(seconds fn took scaled to the quiet machine, fn's result)."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    took = time.perf_counter() - start
    return took * 2.0 * probe.ref / (before + probe()), result


def calibrate(repeats=300, warmup=20):
    """{probe kind: (min, lower quartile, median)} of ``repeats`` single timings."""
    out = {}
    for kind in PROBE_REF_S:
        probe = SpeedProbe(kind)
        for _ in range(warmup):
            probe()
        times = [probe() for _ in range(repeats)]
        quartiles = statistics.quantiles(times, n=4)
        out[kind] = (min(times), quartiles[0], quartiles[1])
    return out


if __name__ == "__main__":
    for kind, (low, q1, median) in calibrate().items():
        print(f"{kind}: min {low:.6f} s  lower quartile {q1:.6f} s  median {median:.6f} s  "
              f"(PROBE_REF_S {PROBE_REF_S[kind]} s)")
