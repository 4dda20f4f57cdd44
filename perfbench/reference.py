"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by up to about 1.5x
within seconds, with CPU time moving with wall time.  A run times a kernel
between solves; a solve's time is then rescaled to what it would have been
on a host where the kernel takes its ``REFERENCE_S``:

    adjusted = seconds * REFERENCE_S / (mean of the kernel times just
                                        before and just after that solve)

The kernels never call gptensor and their inputs never change, so a change
to the program moves the adjusted times and a change of host speed does not.

The ``interp`` kernel is made of many tiny numpy calls and of Python dict
and tuple work, which is where the interpreter-bound solvers spend their
time.  ``interp_memory`` adds in-place passes over a 16 MB array, for the
file workload, which parses text and streams a 1600x1600 SVD through
memory.  The array is made on first use, so only that workload's peak
memory holds it.
Of the parts tried (integer loops, tiny, mid-sized and large numpy arrays,
BLAS and LAPACK calls, dict work), on a host drifting 1.5x these slowed
most nearly in step with the solves of each kind.
"""

from __future__ import annotations

import functools
import time

import numpy as np

_SMALL = np.random.default_rng(0).standard_normal(16)


def _interp() -> None:
    x = _SMALL
    for _ in range(1500):
        x = np.abs(x * 1.0000001) + 0.0
    counts = {}
    for i in range(20000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i


@functools.cache
def _big() -> np.ndarray:
    return np.random.default_rng(1).standard_normal(2_000_000)


def _memory() -> None:
    x = _big()
    for _ in range(3):
        np.multiply(x, 1.0000001, out=x)


KERNELS = {"interp": (_interp,), "interp_memory": (_interp, _memory)}

# About each kernel's median time on a 2-vCPU Intel Xeon VM.  It only sets
# the scale: adjusted times are seconds on a host that runs the kernel in
# this time.
REFERENCE_S = {"interp": 0.012, "interp_memory": 0.020}


def time_kernel(kind: str | None = "interp", clock=time.perf_counter) -> float | None:
    """Seconds of one run of kernel ``kind``; None, without running one, for None."""
    if kind is None:
        return None
    t0 = clock()
    for part in KERNELS[kind]:
        part()
    return clock() - t0


def scales(ref: list, kind: str | None = "interp") -> list[float]:
    """Scale of each solve, given the kernel time right after each one.

    The kernel before solve ``i`` is the one after solve ``i - 1``; the first
    solve uses its own.  Host speed drifts on the scale of a single solve, so
    the two kernels that bracket it follow it better than a wider window.
    Without a kernel every scale is 1: the times stay wall clock.
    """
    if kind is None:
        return [1.0] * len(ref)
    return [2 * REFERENCE_S[kind] / (ref[max(i - 1, 0)] + r) for i, r in enumerate(ref)]
