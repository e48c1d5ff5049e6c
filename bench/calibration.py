"""Host-speed calibration of the per-point timings.

The benchmark runs on a shared virtual machine whose speed drifts by up
to a factor of two over minutes, from load outside the machine: the
same fixed work took 1.0-2.2 s in one ten-minute stretch, and process
CPU time tracks wall time, so the slowdown is not time taken from the
process but every instruction running slower. Ten runs of a set span
several minutes, so no statistic taken inside one run removes that
drift.

So a fixed kernel of the same kind of work as the library's hot path is
timed in short slices between the points: adaptive quadrature
(scipy.integrate.quad) of products of scaled modified Bessel functions,
each called through a 0-d array with domain and overflow checks as the
library's specfun guards do. It runs no code of the package, so no
change to mesoqed can change it. A point's time is reported at the
reference host speed,

    reported = measured * REFERENCE_SLICE_S / median of the slices around it

The guarded 0-d calls matter: a kernel of bare scalar calls sped up
more than the workloads when the host was fast (slope 0.75-0.85 of log
point time on log slice time, against 0.94 with the guards).

The set-up and CLI samples, fresh processes that mostly import, are
not scaled: neither these slices nor a calibration interpreter that
imports numpy and scipy tracked them reliably (scaled, their run-to-run
spread was lower in three sets of ten runs and higher in a fourth).
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter

import numpy as np
from scipy import integrate, special

# A slice of kernel() took 16-31 ms over several hours on the machine of
# the first baseline (2-vCPU shared VM, Intel Xeon 2.0 GHz, Python
# 3.11.7, scipy 1.17.1); this is the middle. It only sets the scale: a
# reported time is the time the work would take on a host that runs one
# slice in this many seconds.
REFERENCE_SLICE_S = 0.022
# slices on each side of a timing that set its factor
WINDOW = 4


def _pair(n: int, x: float) -> tuple:
    """Scaled I_n, K_n through 0-d arrays with domain and overflow guards,
    the pattern of the library's scalar Bessel calls."""
    z = np.asarray(x, dtype=complex)
    if np.any(z.real <= 0.0):
        raise ValueError("calibration kernel left the half-plane Re z > 0")
    i_val, k_val = np.asarray(special.ive(n, z)), np.asarray(special.kve(n, z))
    if not (np.all(np.isfinite(i_val)) and np.all(np.isfinite(k_val))):
        raise ValueError("calibration kernel overflowed")
    return complex(i_val), complex(k_val)


def _integrand(t: float, n: int) -> float:
    i0, k0 = _pair(n, t)
    i1, k1 = _pair(n + 1, t)
    return (i0 * k1 + i1 * k0).real * math.exp(-0.1 * t) * math.cos(t)


def kernel() -> float:
    """About 900 pairs of guarded scalar Bessel calls under adaptive quadrature."""
    return integrate.quad(_integrand, 0.05, 40.0, args=(1,), limit=400,
                          epsabs=1e-13, epsrel=1e-13)[0]


class Calibration:
    """Slices of the kernel, timed in order, and the factors they give."""

    def __init__(self) -> None:
        self.slices: list = []
        kernel()  # warm-up, untimed

    def slice(self) -> int:
        """Time one slice; its index. The collector is off, so the size
        of the program's heap does not reach the slice."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            self.slices.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return len(self.slices) - 1

    def factor(self, i: int) -> float:
        """Reference over local speed around slice i: the median of the
        slices within WINDOW of it."""
        return REFERENCE_SLICE_S / statistics.median(self.slices[max(0, i - WINDOW):i + WINDOW + 1])
