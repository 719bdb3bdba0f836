"""Machine-speed calibration and the clock the timed metrics use.

The measuring machine is a shared 2-vCPU VM. Two kinds of interference show
up in wall time there, and neither belongs to the program:

* the hypervisor deschedules the vCPU ("steal"), adding 20-60 ms bursts to
  ops of 30 ms (measured against the steal counter of ``/proc/stat``);
* the CPU itself runs faster or slower by about ±15% over tens of seconds,
  for numpy and plain Python alike.

So every op is timed in CPU seconds of the process and its reaped children
(``cpu_seconds``), which excludes steal. A fixed calibration unit is timed
the same way next to every op: small batched LAPACK calls, an einsum, an
interpreter loop and number formatting, the kinds of work the qnl kernels and
CLI do. Each op time is then scaled by ``REF_S / local calibration time``,
which gives the time at the reference machine speed. Raw wall and CPU times
go into the run record too. The unit is benchmark code, so no change under
``src/`` can move it.
"""

from __future__ import annotations

import resource
import time

import numpy as np

# Median CPU time of one calibration unit on the reference machine (2 vCPUs,
# Python 3.11, numpy 2.4 with scipy-openblas 0.3.31, one BLAS thread).
REF_S = 1.5e-3
# Calibration samples on each side of an op that its speed factor uses.
WINDOW = 2

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((48, 4, 4)) + 1j * _rng.standard_normal((48, 4, 4))
_H = _A @ np.conj(np.swapaxes(_A, -1, -2))
_V = _A.real.ravel()[:160]


def cpu_seconds() -> float:
    """CPU time of this process (all threads) plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def unit() -> float:
    """Run one calibration unit and return its CPU time in seconds."""
    t0 = cpu_seconds()
    np.linalg.eigh(_H)
    np.linalg.svd(_A, compute_uv=False)
    np.einsum("nij,jl,nml->nim", _A, _H[0], np.conj(_A))
    s = 0
    for i in range(3000):
        s += i * i
    "\n".join(",".join(format(x, ".12g") for x in _V[k:k + 4]) for k in range(0, 160, 4))
    return cpu_seconds() - t0


def median_unit(n: int = 21) -> float:
    return float(np.median([unit() for _ in range(n)]))


def scale(latencies: list[float], cal: list[float]) -> list[float]:
    """Scale op i, timed between calibration samples i and i+1, to REF_S.

    Each op's speed is the median of the calibration samples within WINDOW
    of it on either side, so one noisy sample cannot move it.
    """
    cal_arr = np.asarray(cal)
    out = []
    for i, lat in enumerate(latencies):
        lo, hi = max(0, i + 1 - WINDOW), min(len(cal_arr), i + 1 + WINDOW)
        out.append(lat * REF_S / float(np.median(cal_arr[lo:hi])))
    return out
