"""Scan-and-bisect root finding on an interval.

Right-hand sides are opaque callables, so all root location is numerical:
a dense scan picks up sign changes and exact zeros at grid points, then
bisection refines each bracket. The scan calls the function on one block of
``SCAN_BLOCK_POINTS`` grid points at a time, so it must be elementwise: its
value at a point may not depend on the other points of the array it is
given. A scan then holds about one grid's worth of memory, the grid itself.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: residual target for refined roots
ROOT_RESIDUAL = 1e-12
#: two roots closer than this are treated as one
ROOT_SPACING = 1e-8
#: grid points per call of the scanned function
SCAN_BLOCK_POINTS = 4096


def _bisect(fn: Callable[[float], float], lo: float, hi: float) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = fn(mid)
        if abs(fmid) <= 0.01 * ROOT_RESIDUAL:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    # bracket collapsed to float resolution
    return lo if abs(flo) <= abs(fhi) else hi


def scan_zeros(fn: Callable, lo: float, hi: float, n_scan: int = 10_000) -> list[float]:
    """All zeros of ``fn`` on [lo, hi] found by an ``n_scan``-point scan.

    ``fn`` is elementwise and is called on one block of the
    ``np.linspace(lo, hi, n_scan)`` grid at a time, then on single floats
    while bisecting. Exact zeros at grid points are kept; sign changes
    between neighbouring points, across block boundaries too, are refined
    by bisection; roots closer than ``ROOT_SPACING`` are deduplicated.
    Returned sorted ascending.
    """
    grid = np.linspace(lo, hi, n_scan)
    scalar = lambda y: float(fn(float(y)))  # noqa: E731
    zeros: list[float] = []
    bracketed: list[float] = []
    last = grid[:0]  # sign of the point before the block (none for the first)
    for start in range(0, n_scan, SCAN_BLOCK_POINTS):
        block = grid[start:start + SCAN_BLOCK_POINTS]
        vals = np.asarray(fn(block), dtype=float)
        zeros.extend(float(y) for y in block[vals == 0.0])
        sign = np.concatenate((last, np.sign(vals)))
        first = start - last.size  # grid index of sign[0]
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0] + first:
            bracketed.append(_bisect(scalar, float(grid[i]), float(grid[i + 1])))
        last = sign[-1:]

    roots = sorted(zeros + bracketed)
    dedup: list[float] = []
    for r in roots:
        if not dedup or r - dedup[-1] > ROOT_SPACING:
            dedup.append(r)
    return dedup
