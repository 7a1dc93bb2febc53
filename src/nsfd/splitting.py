"""Construction and validation of signed splittings of a right-hand side.

There is one construction, the paper's. Lemma 1 (:func:`lemma1_split`)
splits a function additively as f_plus + f_minus with f_plus >= 0 >= f_minus
on a window: by the constant g = M = max(|min f|, |max f|) on [0, y_m]
(y_m the largest zero), added on the side opposite the sign of f beyond
y_m, or by g = 0 when f has no zero there. Theorem 1 (:func:`theorem1_split`)
applies Lemma 1 to the guarded quotient f(y)/y and reassembles
f = f_plus + y * f_minus, the form the positive schemes are built on.

Splittings are not unique; g = M is the smallest constant member of the
admissible class, which distorts f_plus the least. Hand-picked splittings
can always be supplied instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AmbiguousTail, NegativeAtZero
from .model import Representation, ScalarProblem
from .rootfind import scan_zeros

#: |f(0)| at or below this is treated as f(0) = 0 for the quotient step
ZERO_TOL = 1e-14
#: guard width for the removable singularity of f(y)/y
QUOTIENT_GUARD = 1e-8
#: a representation passes when every sign violation and the relative
#: reconstruction residual are at or below this
SPLIT_TOL = 1e-10

N_SAMPLES = 10_000


@dataclass(frozen=True)
class SplitBounds:
    """Extremes of f on [0, y_m] plus the sign of f beyond y_m."""

    l: float
    L: float
    M: float
    tail_sign: str  # "positive" | "negative"


def _refine_extremum(fn: Callable, lo: float, hi: float, sign: float) -> float:
    """Local refinement of min (sign=+1) or max (sign=-1) of sign*fn: the
    smallest of N_SAMPLES samples of sign*fn on [lo, hi]."""
    values = np.asarray(fn(np.linspace(lo, hi, N_SAMPLES)), dtype=float)
    return float(np.min(sign * values))


def compute_bounds(fn: Callable, zeros: list[float]) -> SplitBounds:
    """Extremes of ``fn`` on [0, y_m], y_m the last of ``zeros``, by dense
    sampling plus local refinement, and the confirmed sign of ``fn`` beyond
    y_m. Raises :class:`AmbiguousTail` if sampled tail signs disagree."""
    if not zeros:
        raise ValueError("bounds are undefined without zeros: f has constant sign")
    y_m = zeros[-1]

    grid = np.linspace(0.0, y_m, N_SAMPLES) if y_m > 0 else np.array([0.0])
    vals = np.asarray(fn(grid), dtype=float)
    i_min, i_max = int(np.argmin(vals)), int(np.argmax(vals))

    # Extremes at grid endpoints are exact; interior ones are refined and then
    # padded outward so l and L certifiably cover the true range (the sign of
    # the resulting split must not hinge on refinement error).
    span = max(y_m / 100.0, 1e-12)
    l = float(vals[i_min])
    if 0 < i_min < len(grid) - 1:
        refined = _refine_extremum(
            fn, max(0.0, grid[i_min] - span), min(y_m, grid[i_min] + span), +1.0)
        l = min(l, refined) - 1e-8 * (1.0 + abs(refined))
    L = float(vals[i_max])
    if 0 < i_max < len(grid) - 1:
        refined = -_refine_extremum(
            fn, max(0.0, grid[i_max] - span), min(y_m, grid[i_max] + span), -1.0)
        L = max(L, refined) + 1e-8 * (1.0 + abs(refined))

    delta = 1e-3 * (1.0 + y_m)
    probes = y_m + delta * np.arange(1, 12)
    tail_vals = np.asarray(fn(probes), dtype=float)
    if np.all(tail_vals > 0.0):
        tail = "positive"
    elif np.all(tail_vals < 0.0):
        tail = "negative"
    else:
        raise AmbiguousTail(f"sampled signs beyond y_m = {y_m:.6g} disagree: {tail_vals}")

    return SplitBounds(l=l, L=L, M=max(abs(l), abs(L)), tail_sign=tail)


def lemma1_split(fn: Callable, lo: float, hi: float) -> tuple[Callable, Callable]:
    """Lemma 1: ``fn = f_plus + f_minus`` with f_plus >= 0 >= f_minus, from
    the sign structure of ``fn`` on [lo, hi].

    With zeros, the constant g = M of :func:`compute_bounds` is added to
    ``fn`` for f_plus when ``fn`` is positive beyond its last zero, and taken
    as f_plus otherwise. Without zeros ``fn`` keeps one sign and is its own
    split, with g = 0.
    """
    zeros = scan_zeros(fn, lo, hi)
    if not zeros:
        zero = lambda y: np.zeros_like(np.asarray(y, dtype=float))  # noqa: E731
        return (fn, zero) if float(fn(lo)) >= 0.0 else (zero, fn)
    bounds = compute_bounds(fn, zeros)
    M = bounds.M
    g = lambda y: M * np.ones_like(np.asarray(y, dtype=float))  # noqa: E731
    if bounds.tail_sign == "positive":
        return (lambda y: fn(y) + g(y)), (lambda y: -g(y))
    return g, (lambda y: fn(y) - g(y))


def _guarded_quotient(fn: Callable, value_at_zero: float) -> Callable:
    """fn(y)/y with the removable singularity patched by ``value_at_zero``."""

    def quotient(y):
        arr = np.asarray(y, dtype=float)
        near = np.abs(arr) < QUOTIENT_GUARD
        safe = np.where(near, 1.0, arr)
        out = np.where(near, value_at_zero, np.asarray(fn(arr), dtype=float) / safe)
        return out if arr.ndim else float(out)

    return quotient


def theorem1_split(problem: ScalarProblem) -> Representation:
    """Multiplicative splitting f = f_plus + y * f_minus.

    The quotient g(y) = (f(y) - f(0))/y (extended by g(0) = f'(0)) is split
    by :func:`lemma1_split` on the nonnegative part of the domain window and
    reassembled as f_plus = f(0) + y * g_plus, f_minus = g_minus. An |f(0)|
    at or below ZERO_TOL is taken as f(0) = 0.
    """
    f0 = float(problem.f(0.0))
    if f0 < -ZERO_TOL:
        raise NegativeAtZero(f"{problem.name}: f(0) = {f0:.6g} < 0")
    if f0 <= ZERO_TOL:
        f0 = 0.0
    lo, hi = problem.domain_hint
    shifted = lambda y: problem.f(y) - f0  # noqa: E731
    g = _guarded_quotient(shifted, float(problem.df(0.0)))
    g_plus, g_minus = lemma1_split(g, max(lo, 0.0), hi)
    f_plus = lambda y: f0 + np.asarray(y, dtype=float) * g_plus(y)  # noqa: E731
    return Representation(f_plus=f_plus, f_minus=g_minus, provenance="auto_theorem1")


@dataclass(frozen=True)
class SplitReport:
    """Sampled sign and reconstruction diagnostics for a representation, and
    the window [lo, hi] the samples cover; signs beyond it are not checked."""

    window: tuple[float, float]
    max_plus_violation: float
    max_minus_violation: float
    max_residual: float

    @property
    def passed(self) -> bool:
        return (
            self.max_plus_violation <= SPLIT_TOL
            and self.max_minus_violation <= SPLIT_TOL
            and self.max_residual <= SPLIT_TOL
        )

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max f_plus violation {self.max_plus_violation:.3e}, "
            f"max f_minus violation {self.max_minus_violation:.3e}, "
            f"max relative residual {self.max_residual:.3e}"
        )


def validate_representation(problem: ScalarProblem, rep: Representation) -> SplitReport:
    """Check sign constraints and reconstruction f_plus + y*f_minus = f on
    ``N_SAMPLES`` points of the nonnegative part of the domain window and at
    the equilibria in it."""
    window = (max(problem.domain_hint[0], 0.0), problem.domain_hint[1])
    lo, hi = window
    ys = np.linspace(lo, hi, N_SAMPLES)
    extra = [e.y_star for e in problem.equilibria if lo <= e.y_star <= hi]
    if extra:
        ys = np.sort(np.concatenate([ys, np.asarray(extra)]))

    fp = np.asarray(rep.f_plus(ys), dtype=float)
    fm = np.asarray(rep.f_minus(ys), dtype=float)
    fv = np.asarray(problem.f(ys), dtype=float)
    residual = np.abs(fp + ys * fm - fv) / (1.0 + np.abs(fv))
    return SplitReport(
        window=window,
        max_plus_violation=float(max(0.0, np.max(-fp))),
        max_minus_violation=float(max(0.0, np.max(fm))),
        max_residual=float(np.max(residual)),
    )
