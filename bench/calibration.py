"""Calibration of call times against a fixed reference computation.

The machines this benchmark runs on share their cores with other work, and
the speed of one core drifts by up to 40% over minutes, so a whole run can be
fast or slow.  Every timed call is therefore bracketed by a fixed computation
in the style of hyperinc's hot paths (exact ``Fraction`` elimination and
``frozenset`` intersections, pure Python), and its wall time is rescaled to
the speed at which that computation takes ``REFERENCE_S`` seconds.  The
reference never touches hyperinc, so no change to the program can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Typical time of reference_seconds() on the reference machine (a shared
# 2-core x86-64 sandbox, Python 3.11); it only fixes the unit.
REFERENCE_S = 0.03


def _lcg_bits(count: int, seed: int) -> list[int]:
    """Fixed pseudo-random bits, independent of the ``random`` module."""
    bits = []
    for _ in range(count):
        seed = (1103515245 * seed + 12345) % 2**31
        bits.append(seed >> 30)
    return bits


_ROWS, _COLS = 16, 20
_MATRIX_BITS = _lcg_bits(_ROWS * _COLS, 12345)
_SET_BITS = _lcg_bits(300 * 200, 54321)


def _reference_work() -> int:
    rows = [[Fraction(b) for b in _MATRIX_BITS[r * _COLS:(r + 1) * _COLS]] for r in range(_ROWS)]
    r = 0
    for c in range(_COLS):
        pivot = next((i for i in range(r, _ROWS) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(_ROWS):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    sets = [
        frozenset(j for j in range(200) if _SET_BITS[k * 200 + j] and j % 25 < 2)
        for k in range(300)
    ]
    return r + sum(len(a & b) for a in sets[:40] for b in sets)


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start
