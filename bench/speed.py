"""Machine-speed normalisation for the benchmark's timings.

The small shared machines this benchmark runs on change speed by up to 1.7x
from one second or minute to the next, and all code slows together: a run
that lands in a slow stretch reads 40% slower than one that lands in a fast
stretch, with the same code and the same inputs.  So each timed piece of
work is bracketed by a short fixed kernel that uses no stomod code, and its
time is scaled by reference / (mean kernel time of the brackets).  The
result reads as seconds at a reference speed, the speed at which the kernel
takes its reference time; a change to stomod moves it, a change of machine
state mostly does not.

There are two kernels, because work in a fresh process does not speed up
as much as warm compute does when the machine speeds up (import reads,
maps and unmarshals files; 1.3x against the compute kernel's 1.75x):

- `warm_kernel`, for in-process ops: interpreter arithmetic, small-array
  ufuncs and a small LAPACK solve, like stomod's own work.
- `fresh_process`, for fresh processes: a Python process that imports a
  few standard-library modules.  Scaled by it, fresh-process set-up times
  spread 9% from sample to sample in a fast-changing stretch where the warm
  kernel left 19%.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Each kernel's time at the reference speed; about its time on a 2 GHz Xeon
# vCPU in a slow stretch.
WARM_REFERENCE_S = 0.010
FRESH_REFERENCE_S = 0.100

# A sample is reused as the first bracket of the next piece of work when no
# more than this has passed since it ended (only bookkeeping ran between).
REUSE_S = 0.05

_ROUNDS = 700
_A = 24.0 * np.eye(24) + np.sin(np.arange(576.0)).reshape(24, 24)
_B = np.cos(np.arange(24.0))
_X = np.linspace(0.0, 1.0, 64)
# -I: no environment or user site, so only the standard library is read;
# -B: write no bytecode.
_FRESH = [sys.executable, "-I", "-B", "-c",
          "import argparse, decimal, email.parser, fractions, json"]


def warm_kernel() -> None:
    acc = 0.0
    for i in range(_ROUNDS):
        acc += math.sin(i * 1e-3) * 0.5
        acc += float(np.sum(_X * i))
        if i % 8 == 0:
            acc += float(np.linalg.solve(_A, _B)[0])


def fresh_process() -> None:
    # No timeout: Popen.wait with one polls with sleeps of up to 50 ms, which
    # quantises the time measured.
    subprocess.run(_FRESH, check=True, stdout=subprocess.DEVNULL)


class Speed:
    """Samples of one kernel taken between pieces of timed work."""

    def __init__(self, kernel, reference_s: float) -> None:
        self.kernel, self.reference_s = kernel, reference_s
        kernel()  # warm first-call paths and the file cache
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> float:
        """Time the kernel once."""
        t0 = perf_counter()
        self.kernel()
        self.ended = perf_counter()
        self.samples.append(self.ended - t0)
        return self.samples[-1]

    def before(self, n: int = 1) -> None:
        """Take samples so that the last `n` are just before the work to come;
        the last one taken counts if it ended less than REUSE_S ago."""
        reused = 1 if perf_counter() - self.ended < REUSE_S else 0
        for _ in range(n - reused):
            self.sample()

    def factor(self, n: int = 1) -> float:
        """Take `n` new samples; the work done since the `n` before them is
        scaled to the reference speed by reference / (mean of the 2n)."""
        before = self.samples[-n:]
        after = [self.sample() for _ in range(n)]
        return self.reference_s / statistics.fmean(before + after)

    def median_factor(self, since: int = 0) -> float:
        """The scale factor of the median sample from index `since` on."""
        return self.reference_s / statistics.median(self.samples[since:])

    def summary(self) -> dict:
        q1, median, q3 = statistics.quantiles(self.samples, n=4)
        return {"reference_ms": 1e3 * self.reference_s, "median_ms": 1e3 * median,
                "quartiles_ms": [1e3 * q1, 1e3 * q3], "samples": len(self.samples)}
