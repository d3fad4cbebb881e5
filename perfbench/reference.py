"""Host-speed reference for the benchmark's timings.

The vCPUs of a shared host change speed by up to about 1.8x, on scales from
a fraction of a second to tens of minutes, while steal time stays near zero.
A wall-clock median over one run then reads the host as much as the program.
So the runner times a fixed reference block, which does not touch wallspde,
before and after every timed stage, and rescales the stage's time by how
much slower or faster the block ran than its nominal time:

    normalised = measured * nominal / mean(reference before, reference after)

A normalised time is the time the stage would take on a host where the
block takes its nominal time.  A change to wallspde moves it as it moves
the wall-clock time; a change in host speed largely cancels out.

The block is made of parts, and each workload names the parts that slow
down with the host the way its own work does:

* ``small``: 33x33 matvecs and clips, the per-step numpy calls at n=32;
* ``python``: an integer loop in the interpreter;
* ``dense``: 1449x1449 float64 matvecs (16 MB), memory-bound like the
  n=2048 propagator.

The n=32 workloads spend their time in interpreter and small-array calls
and slow down with ``small`` and ``python``.  The n=2048 work is dense BLAS
that slows down far less than the interpreter in the host's slow periods,
so it is normalised by ``python`` and ``dense``.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of each part over the runs made while tuning the benchmark on
# the host BENCH_0 was recorded on (2 vCPUs of a 2.1 GHz x86-64 host,
# scipy-openblas 0.3.31 with 1 thread).  Any fixed values work: they only
# set the scale of the normalised times, which then read about as the
# median wall-clock seconds on that host.
NOMINAL_S = {"small": 0.0115, "python": 0.0140, "dense": 0.0173}

_SMALL_CALLS = 2000
_PY_ITERS = 200_000
_DENSE_N, _DENSE_CALLS = 1449, 20


class Reference:
    """The reference block for one set of parts, and every time it measured.

    ``measure`` runs the block ``blocks`` times in a row and returns the mean
    block time: workloads whose operations run for seconds afford a longer,
    less noisy reading of the host speed between them.
    """

    def __init__(self, parts: tuple[str, ...], blocks: int = 1) -> None:
        unknown = set(parts) - set(NOMINAL_S)
        if not parts or unknown:
            raise ValueError(f"reference parts must be a non-empty subset of {sorted(NOMINAL_S)}")
        self.parts = parts
        self.blocks = blocks
        self.nominal_s = sum(NOMINAL_S[p] for p in parts)
        rng = np.random.default_rng(20120628)
        self.small = rng.standard_normal((33, 33))
        self.x = rng.standard_normal(33)
        if "dense" in parts:
            self.dense = rng.standard_normal((_DENSE_N, _DENSE_N))
            self.y = rng.standard_normal(_DENSE_N)
        self.times: list[float] = []

    def measure(self) -> float:
        return sum(self._block() for _ in range(self.blocks)) / self.blocks

    def _block(self) -> float:
        t0 = time.perf_counter()
        if "small" in self.parts:
            for _ in range(_SMALL_CALLS):
                np.clip(self.small @ self.x, -1.0, 1.0)
        if "python" in self.parts:
            acc = 0
            for i in range(_PY_ITERS):
                acc += i * i
        if "dense" in self.parts:
            for _ in range(_DENSE_CALLS):
                self.dense @ self.y
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed

    def normalise(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` rescaled to the host speed at which the block takes its nominal time."""
        return seconds * self.nominal_s / (0.5 * (before + after))
