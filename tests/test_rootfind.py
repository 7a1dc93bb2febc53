"""The streamed fixed-point scan: block by block it finds exactly the roots
of a scan that calls the function on the whole grid at once, and it holds
about one grid of memory."""

import tracemalloc

import numpy as np
import pytest

from nsfd.analysis import map_fixed_points
from nsfd.problems import get_problem, get_scheme
from nsfd.rootfind import ROOT_SPACING, SCAN_BLOCK_POINTS, _bisect, scan_zeros

#: the stability audits of the benchmark's certify workload, and their steps
CERTIFY_STABILITY = (("logistic", "snsfd1"), ("cubic", "nsfd"), ("sine", "nsfd"), ("monod", "nsfd"))
CERTIFY_H = (0.1, 1.25, 10.0, 100.0)

B = SCAN_BLOCK_POINTS
GRID = np.linspace(0.0, 1.0, 3 * B)


def one_shot_scan(fn, lo, hi, n_scan):
    """Reference: ``fn`` on the whole grid in one call, then the same
    bisection, sort and dedup."""
    grid = np.linspace(lo, hi, n_scan)
    vals = np.asarray(fn(grid), dtype=float)
    roots = [float(y) for y in grid[vals == 0.0]]
    sign = np.sign(vals)
    scalar = lambda y: float(fn(float(y)))  # noqa: E731
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(_bisect(scalar, float(grid[i]), float(grid[i + 1])))
    roots.sort()
    dedup = []
    for r in roots:
        if not dedup or r - dedup[-1] > ROOT_SPACING:
            dedup.append(r)
    return dedup


def _bits(roots):
    return [float(r).hex() for r in roots]


def _assert_same(fn, lo, hi, n_scan):
    streamed = scan_zeros(fn, lo, hi, n_scan)
    assert _bits(streamed) == _bits(one_shot_scan(fn, lo, hi, n_scan))
    return streamed


def _flip_at(i):
    """A root strictly between grid points i and i + 1 of ``GRID``."""
    r = 0.5 * (GRID[i] + GRID[i + 1])
    return lambda y: np.asarray(y, dtype=float) - r


def _zeros_at(*indices):
    """Exact zeros at the given points of ``GRID``, no sign change between."""
    points = [GRID[i] for i in indices]

    def fn(y):
        y = np.asarray(y, dtype=float)
        out = np.ones_like(y)
        for p in points:
            out = out * (y - p) ** 2
        return out
    return fn


def _nan_at(i, root):
    """``_flip_at(root)`` with a nan at grid point i."""
    flip = _flip_at(root)
    return lambda y: np.where(np.asarray(y) == GRID[i], np.nan, flip(y))


class TestBlockBoundaries:
    def test_flip_across_a_boundary(self):
        roots = _assert_same(_flip_at(B - 1), 0.0, 1.0, GRID.size)
        assert len(roots) == 1 and GRID[B - 1] < roots[0] < GRID[B]

    @pytest.mark.parametrize("i", [0, B - 1, B, 2 * B - 1, 3 * B - 1])
    def test_exact_zero_at_a_block_end(self, i):
        assert _assert_same(_zeros_at(i), 0.0, 1.0, GRID.size) == [GRID[i]]

    def test_exact_zeros_at_first_and_last_point_of_a_block(self):
        assert _assert_same(_zeros_at(B, 2 * B - 1), 0.0, 1.0, GRID.size) == [GRID[B], GRID[2 * B - 1]]

    @pytest.mark.parametrize("nan, root", [(B - 1, B - 1), (B, B - 1), (B, B), (B - 1, B - 2),
                                           (B + 1, B - 1)])
    def test_nan_next_to_a_boundary(self, nan, root):
        _assert_same(_nan_at(nan, root), 0.0, 1.0, GRID.size)

    @pytest.mark.parametrize("n_scan", [0, 1, 2, B - 1, B, B + 1])
    @pytest.mark.parametrize("fn", [np.sin, np.cos, lambda y: np.sin(40.0 * np.asarray(y))],
                             ids=["sin", "cos", "fast-sin"])
    def test_grid_sizes(self, fn, n_scan):
        _assert_same(fn, -1.0, 7.0, n_scan)

    @pytest.mark.parametrize("pname, label, hs", [*((p, s, CERTIFY_H) for p, s in CERTIFY_STABILITY),
                                                  ("logistic", "rk2", (1.25,))])
    def test_certify_fixed_points(self, pname, label, hs):
        update = get_scheme(pname, label).step.update
        lo, hi = get_problem(pname).domain_hint
        for h in hs:
            streamed = map_fixed_points(update, max(lo, 0.0), hi, h)
            reference = one_shot_scan(
                lambda y: np.asarray(update(y, h), dtype=float) - np.asarray(y, dtype=float),
                max(lo, 0.0), hi, 100_000)
            assert _bits(streamed) == _bits(reference)


def test_scan_memory_is_about_one_grid():
    update = get_scheme("logistic", "snsfd1").step.update
    n_scan = 1_000_000
    map_fixed_points(update, 0.0, 10.0, 1.25, 1000)  # caches and lazy set-up
    tracemalloc.start()
    try:
        roots = map_fixed_points(update, 0.0, 10.0, 1.25, n_scan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(roots) == 2
    assert peak < 2 * n_scan * np.dtype(float).itemsize
