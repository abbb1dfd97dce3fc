"""The reference slice: a fixed piece of pure-Python work that times the host.

On a shared host the same op takes up to 1.8 times the CPU time while other
tenants load the core, and the load changes within seconds and from minute
to minute.  The benchmark runs this slice between ops and divides each op's
CPU time by that of the slices around it.  On a 2-vCPU x86-64 VM, one op
run 1300 times in 40 s spread by 22% in CPU time (quartile distance over
median), the slice by 24%, and their ratio by 6%; the two correlated at
0.94.  Like the program, the slice is interpreted integer and list code
(Gaussian elimination over GF(16) with log tables).  It imports nothing
from the program, so a change to the program never changes it.

Reported times are ratios scaled by ``SLICE_MS``, the least CPU time the
slice took on that VM with Python 3.11: milliseconds as that host measures
them when no other tenant loads its core.
"""

from __future__ import annotations

import time

SLICE_MS = 1.4

_EXP = [0] * 30
_LOG = [0] * 16
_x = 1
for _i in range(15):
    _EXP[_i] = _EXP[_i + 15] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 16:
        _x ^= 0b10011  # x^4 + x + 1

_N = 14


def _matrix() -> list[list[int]]:
    state, rows = 12345, []
    for _ in range(_N):
        row = []
        for _ in range(_N):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            row.append((state >> 16) & 15)
        rows.append(row)
    return rows


_M0 = _matrix()


def _mul(a: int, b: int) -> int:
    return _EXP[_LOG[a] + _LOG[b]] if a and b else 0


def _rank() -> int:
    m = [row[:] for row in _M0]
    rank = 0
    for c in range(_N):
        p = next((i for i in range(rank, _N) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        inv = _EXP[15 - _LOG[m[rank][c]]]
        pivot = [_mul(inv, v) for v in m[rank]]
        m[rank] = pivot
        for i in range(_N):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a ^ _mul(f, b) for a, b in zip(m[i], pivot)]
        rank += 1
    return rank


RANK = _rank()


def slice_cpu() -> float:
    """CPU seconds the slice takes now."""
    started = time.process_time()
    for _ in range(4):
        if _rank() != RANK:
            raise AssertionError("reference slice changed its answer")
    return time.process_time() - started


def scale(cpu: float, slice_s: float) -> float:
    """cpu, taken while the slice took slice_s, in ms of the reference host."""
    return cpu / slice_s * SLICE_MS
