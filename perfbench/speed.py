"""How fast the machine runs right now, from a fixed reference computation.

On the shared virtual machine this benchmark was built on, the CPU time of
the same pass swings by up to 2x within seconds (frequency and neighbours on
the host, invisible from inside).  The benchmark therefore runs
:func:`reference` right before every task and rescales the task's CPU time
by how long the reference took against :data:`REFERENCE_S`:

    speed factor = (sum of the pass's reference times) / (count * REFERENCE_S)
    reported time = CPU time / speed factor

so a reported second is a CPU second of a machine on which the reference
takes ``REFERENCE_S``.  The reference uses no recurlab code: no change to
the program can move it.  It mixes what recurlab spends its time on: exact
Fraction arithmetic, dict and tuple work in the interpreter, and float64
array arithmetic in numpy.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.01   # CPU seconds of one reference() on this machine at its fast speed


def reference() -> float:
    """CPU seconds of one fixed reference computation."""
    t0 = time.process_time()
    f = Fraction(1)
    for i in range(1, 1500):
        f = (f * 3 + Fraction(i, 7)) % 1000
    counts: dict[int, int] = {}
    for i in range(5000):
        k = i % 977
        counts[k] = counts.get(k, 0) + i * i % 7
    keys = tuple(sorted(counts))
    a = np.arange(12500, dtype=np.float64) + len(keys)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return time.process_time() - t0


def factor(reference_times) -> float:
    """Speed factor of a set of reference timings: > 1 on a slower machine."""
    return sum(reference_times) / (len(reference_times) * REFERENCE_S)
