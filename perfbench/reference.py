"""Host-speed reference for the wgelfand benchmark, run as its own process.

`reference_work` is a fixed computation that does not use the library. The
shared host this benchmark runs on changes speed by up to 40% over minutes,
mostly in memory bandwidth, and `run.py` scales its times by this
computation's speed (see NOTES.md). Its mix was chosen by how well it
followed the library's calls over such swings: tuple composition with dict
lookups, as in closure; table gathers with complex sums, as in the Hecke and
spherical checks; small eigensolves; and streaming adds over arrays far
larger than the L2 cache, which followed the calls best.

It runs in a child process, so that its 96 MB of buffers stay out of the
benchmark's peak RSS, and its buffers are allocated once, so that its speed
does not depend on what it allocated before. For each line read on standard
input it runs once and writes its seconds as one line; it exits at the end
of its input.

    python3 perfbench/reference.py
"""

from __future__ import annotations

import os

# as in run.py: one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

N = 240
TABLE = (np.arange(N)[:, None] * 7 + np.arange(N)[None, :] * 11) % N
VECTOR = np.exp(2j * np.pi * np.arange(N) / N)
MATRIX = np.cos(np.outer(np.arange(64), np.arange(64)) * 0.37) + np.eye(64)
INDEX = np.empty((N, N), dtype=np.intp)
GATHER = np.empty((N, N), dtype=complex)
TOTAL = np.empty((N, N), dtype=complex)
STREAM = 4_000_000
LEFT = np.ones(STREAM)
RIGHT = np.ones(STREAM)
SUM = np.zeros(STREAM)


def reference_work() -> float:
    """Seconds taken by one run of the fixed computation."""
    t0 = time.perf_counter()
    gen = (1, 2, 3, 4, 5, 6, 7, 0)
    seen = {}
    p = tuple(range(8))
    for i in range(20000):
        p = tuple(p[j] for j in gen)
        seen[p] = i
    TOTAL.fill(0)
    for k in range(60):
        # mode="clip": with the default, np.take buffers `out` in a new array
        np.take(TABLE, TABLE[:, k], axis=0, out=INDEX, mode="clip")
        np.take(VECTOR, INDEX, out=GATHER, mode="clip")
        np.add(TOTAL, GATHER, out=TOTAL)
    for _ in range(8):
        np.linalg.eig(MATRIX)
    for _ in range(4):
        np.add(LEFT, RIGHT, out=SUM)
    return time.perf_counter() - t0


def main() -> int:
    for _ in sys.stdin:
        print(repr(reference_work()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
