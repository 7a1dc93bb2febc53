"""Construction and validation of signed splittings of a right-hand side.

Two constructions are provided. The additive one writes f = f_plus + f_minus
with f_plus >= 0 >= f_minus using an auxiliary function g bounded below by
M = max(|min f|, |max f|) on [0, y_m] (y_m the largest zero). The
multiplicative one writes f = f_plus + y * f_minus by splitting the guarded
quotient f(y)/y and reassembling; it is the form the positive schemes are
built on.

Splittings are not unique; the automatic construction here uses the constant
g = M, the smallest constant member of the admissible class, which distorts
f_plus the least. Hand-picked splittings can always be supplied instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AmbiguousTail, GNotInClass, NegativeAtZero, NoSignStructure
from .model import Representation, ScalarProblem
from .rootfind import scan_zeros

#: |f(0)| at or below this is treated as f(0) = 0 for the quotient step
ZERO_TOL = 1e-14
#: guard width for the removable singularity of f(y)/y
QUOTIENT_GUARD = 1e-8

N_SAMPLES = 10_000


@dataclass(frozen=True)
class SplitBounds:
    """Extremes of f on [0, y_m] plus the sign of f beyond y_m."""

    zeros: tuple[float, ...]
    l: float
    L: float
    M: float
    tail_sign: str  # "positive" | "negative"

    @property
    def y_m(self) -> float:
        return self.zeros[-1]


def find_zeros(problem: ScalarProblem, n_scan: int = N_SAMPLES) -> list[float]:
    """Sorted zeros of f on the problem's domain window.

    An empty list is a valid result when f never changes sign; it is
    flagged with a :class:`NoSignStructure` warning.
    """
    lo, hi = problem.domain_hint
    roots = scan_zeros(problem.f, lo, hi, n_scan)
    if not roots:
        warnings.warn(
            f"{problem.name}: no zeros on [{lo:.6g}, {hi:.6g}]; f has constant sign",
            NoSignStructure,
            stacklevel=2,
        )
    return roots


def _refine_extremum(fn: Callable, lo: float, hi: float, sign: float) -> float:
    """Local refinement of min (sign=+1) or max (sign=-1) of sign*fn: the
    smallest of N_SAMPLES samples of sign*fn on [lo, hi]."""
    values = np.asarray(fn(np.linspace(lo, hi, N_SAMPLES)), dtype=float)
    return float(np.min(sign * values))


def _bounds_of(fn: Callable, zeros: list[float]) -> SplitBounds:
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

    return SplitBounds(zeros=tuple(zeros), l=l, L=L, M=max(abs(l), abs(L)), tail_sign=tail)


def compute_bounds(problem: ScalarProblem, zeros: list[float]) -> SplitBounds:
    """Extremes of f on [0, y_m] by dense sampling plus local refinement,
    and the confirmed sign of f beyond y_m."""
    return _bounds_of(problem.f, list(zeros))


def _lemma1_pair(fn: Callable, bounds: SplitBounds, g: Callable) -> tuple[Callable, Callable]:
    if bounds.tail_sign == "positive":
        f_plus = lambda y: fn(y) + g(y)  # noqa: E731
        f_minus = lambda y: -g(y)  # noqa: E731
    else:
        f_plus = g
        f_minus = lambda y: fn(y) - g(y)  # noqa: E731
    return f_plus, f_minus


def lemma1_split(
    problem: ScalarProblem,
    bounds: SplitBounds,
    g_choice: Optional[Callable] = None,
) -> tuple[Callable, Callable]:
    """Additive splitting f = f_plus + f_minus from the sign structure in
    ``bounds``. The default auxiliary function is the constant M.

    Raises :class:`GNotInClass` if ``g_choice`` dips below M on samples.
    """
    M = bounds.M
    if g_choice is None:
        g_choice = lambda y: M * np.ones_like(np.asarray(y, dtype=float))  # noqa: E731
    lo, hi = problem.domain_hint
    samples = np.linspace(max(lo, 0.0), hi, N_SAMPLES)
    gv = np.asarray(g_choice(samples), dtype=float)
    # slack matches the outward padding of M in the bounds computation, so a
    # g sitting exactly on the true extremum is not rejected
    if np.any(gv < M - 1e-7 * (1.0 + abs(M))):
        i = int(np.argmin(gv))
        raise GNotInClass(f"g({samples[i]:.6g}) = {gv[i]:.6g} < M = {M:.6g}")
    return _lemma1_pair(problem.f, bounds, g_choice)


def _split_additive(fn: Callable, lo: float, hi: float) -> tuple[Callable, Callable]:
    """f_plus + f_minus decomposition of a callable on [lo, hi], handling the
    sign-constant (zero-free) case with g = 0."""
    zeros = scan_zeros(fn, lo, hi)
    if not zeros:
        if float(fn(lo)) >= 0.0:
            return fn, (lambda y: np.zeros_like(np.asarray(y, dtype=float)))
        return (lambda y: np.zeros_like(np.asarray(y, dtype=float))), fn
    bounds = _bounds_of(fn, zeros)
    M = bounds.M
    g = lambda y: M * np.ones_like(np.asarray(y, dtype=float))  # noqa: E731
    return _lemma1_pair(fn, bounds, g)


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
    additively and reassembled as f_plus = f(0) + y * g_plus, f_minus =
    g_minus. An |f(0)| at or below ZERO_TOL is taken as f(0) = 0.
    """
    f0 = float(problem.f(0.0))
    if f0 < -ZERO_TOL:
        raise NegativeAtZero(f"{problem.name}: f(0) = {f0:.6g} < 0")
    if f0 <= ZERO_TOL:
        f0 = 0.0
    lo, hi = problem.domain_hint
    shifted = lambda y: problem.f(y) - f0  # noqa: E731
    g = _guarded_quotient(shifted, float(problem.df(0.0)))
    g_plus, g_minus = _split_additive(g, max(lo, 0.0), hi)
    f_plus = lambda y: f0 + np.asarray(y, dtype=float) * g_plus(y)  # noqa: E731
    return Representation(f_plus=f_plus, f_minus=g_minus, provenance="auto_theorem1")


@dataclass(frozen=True)
class SplitReport:
    """Sampled sign and reconstruction diagnostics for a representation."""

    max_plus_violation: float
    max_minus_violation: float
    max_residual: float
    tolerance: float = 1e-10

    @property
    def passed(self) -> bool:
        return (
            self.max_plus_violation <= self.tolerance
            and self.max_minus_violation <= self.tolerance
            and self.max_residual <= self.tolerance
        )

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: max f_plus violation {self.max_plus_violation:.3e}, "
            f"max f_minus violation {self.max_minus_violation:.3e}, "
            f"max relative residual {self.max_residual:.3e}"
        )


def validate_representation(
    problem: ScalarProblem, rep: Representation, n_samples: int = N_SAMPLES
) -> SplitReport:
    """Check sign constraints and reconstruction f_plus + y*f_minus = f on a
    dense sample of the nonnegative part of the domain window."""
    lo, hi = problem.domain_hint
    ys = np.linspace(max(lo, 0.0), hi, n_samples)
    extra = [e.y_star for e in problem.equilibria if lo <= e.y_star <= hi]
    if extra:
        ys = np.sort(np.concatenate([ys, np.asarray(extra)]))

    fp = np.asarray(rep.f_plus(ys), dtype=float)
    fm = np.asarray(rep.f_minus(ys), dtype=float)
    fv = np.asarray(problem.f(ys), dtype=float)
    residual = np.abs(fp + ys * fm - fv) / (1.0 + np.abs(fv))
    return SplitReport(
        max_plus_violation=float(max(0.0, np.max(-fp))),
        max_minus_violation=float(max(0.0, np.max(fm))),
        max_residual=float(np.max(residual)),
    )
