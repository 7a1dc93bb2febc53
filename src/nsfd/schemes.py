"""Step maps and fixed-step integration for scalar problems.

The positive scheme advances by

    y1 = (y + phi*f_plus(y) + phi*alpha*y*f_minus(y)) / (1 - phi*beta*f_minus(y))

with phi = phi(spec, h, y). Every term in the numerator is nonnegative and
the denominator is at least 1, so iterates from y >= 0 stay nonnegative in
floating point, not just in exact arithmetic. Points with f(y) = 0 are fixed
exactly.

Baselines from the comparison experiments live here too: explicit Euler,
Heun's method (the RK2 variant used throughout), the branching
positivity-preserving logistic scheme it is measured against, and the
first-order nonstandard schemes for the cubic, Monod and sine equations.

All step updates accept scalar or array states, so property audits can run
batched. A state and step size that arrive as Python floats take a float
path that skips numpy's per-call overhead; arrays stay batched. Both paths
evaluate one shared formula per scheme and agree bit for bit: where float
arithmetic raises (x/0, overflow in ``**``) and numpy returns inf or nan
instead, the step reruns on the array path. On the float path the
right-hand-side callables receive Python floats, so they must compute the
same value for a float as for a one-element array: arithmetic and numpy
ufuncs do, while Python's ``**`` on floats rounds differently from
``np.power`` (write ``y * y`` or ``np.power(y, m)``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .denominator import DenominatorSpec, check_step, phi, phim
from .errors import (
    BadHorizon,
    NegativeState,
    OracleSelfCheckFailed,
    ParameterOutOfRange,
    StepCountOverflow,
    ZeroStepCount,
)
from .model import Representation, ScalarProblem, SchemeConfig, Trajectory

MAX_STEPS = 100_000_000

#: ``integrate`` stores a carried float or tuple state in blocks of about
#: this many floats: one array built per block, where numpy would parse
#: every row
FOLD_BLOCK_FLOATS = 4096


@dataclass(frozen=True)
class StepMap:
    """A one-step update rule y_{n+1} = update(y_n, h).

    ``update`` must be deterministic and vectorized over the state argument,
    lane by lane: for a batch of states (scalars, or system states along the
    last axis) with one step size each, lane i of ``update(y, h)`` depends
    only on ``(y[i], h[i])``, bit for bit, whatever the other lanes are.
    """

    label: str
    update: Callable


def _check_nonnegative(y_n, scheme: str) -> None:
    # fmin skips nan as the comparison y < 0 does, so a nan lane neither
    # raises nor hides a negative one; the message names the lowest state
    low = y_n if isinstance(y_n, float) else np.fmin.reduce(
        np.asarray(y_n, dtype=float), axis=None, initial=np.inf)
    if low < 0.0:
        raise NegativeState(f"{scheme} needs y_n >= 0, got min {float(low):.6g}")


def weighted_update(y, ph, fp, fm, alpha: float, beta: float):
    """y1 = (y + ph*fp + ph*alpha*y*fm) / (1 - ph*beta*fm), on floats or arrays."""
    return (y + ph * fp + ph * (alpha * y * fm)) / (1.0 - ph * beta * fm)


def nsfd_step(
    problem: ScalarProblem,
    rep: Representation,
    config: SchemeConfig,
    spec: DenominatorSpec,
    y_n,
    h: float,
):
    """One step of the positive nonstandard scheme. Requires y_n >= 0 and a
    finite h > 0; states with f(y_n) = 0 are returned exactly."""
    if isinstance(y_n, float) and isinstance(h, float):
        if y_n < 0.0:
            _check_nonnegative(y_n, "nsfd_step")  # raises NegativeState
        y = float(y_n)
        try:
            # phi first, so that a bad h raises at an equilibrium too
            ph = phi(spec, float(h), y)
            if float(problem.f(y)) == 0.0:
                return y
            return weighted_update(y, ph, float(rep.f_plus(y)), float(rep.f_minus(y)),
                                   config.alpha, config.beta)
        except (OverflowError, ZeroDivisionError):
            pass  # numpy returns inf/nan here: rerun on the array path
    else:
        _check_nonnegative(y_n, "nsfd_step")
    y = np.asarray(y_n, dtype=float)
    fy = np.asarray(problem.f(y), dtype=float)
    ph = np.asarray(phi(spec, h, y), dtype=float)
    fp = np.asarray(rep.f_plus(y), dtype=float)
    fm = np.asarray(rep.f_minus(y), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = weighted_update(y, ph, fp, fm, config.alpha, config.beta)
    if not fy.all():  # some lane has f = 0 (nan counts as nonzero): fix it exactly
        out = np.where(fy == 0.0, y, out)
    return float(out) if np.ndim(y_n) == 0 else out


def nsfd_step_map(
    problem: ScalarProblem,
    rep: Representation,
    config: SchemeConfig,
    spec: DenominatorSpec,
    label: str = "",
) -> StepMap:
    return StepMap(label=label or config.label or "nsfd",
                   update=partial(nsfd_step, problem, rep, config, spec))


def euler_step(problem: ScalarProblem, y_n, h: float):
    """Explicit Euler: y + h*f(y); h must be finite and > 0."""
    check_step(h)
    return _baseline_update(lambda y, h: y + h * problem.f(y), y_n, h)


def euler_map(problem: ScalarProblem) -> StepMap:
    return StepMap(label="euler", update=lambda y, h: euler_step(problem, y, h))


def rk2_step(problem: ScalarProblem, y_n, h: float):
    """Heun's method: y + (h/2)*(f(y) + f(y + h*f(y))); h must be finite
    and > 0."""
    check_step(h)

    def update(y, h):
        k1 = problem.f(y)
        k2 = problem.f(y + h * k1)
        return y + 0.5 * h * (k1 + k2)

    return _baseline_update(update, y_n, h)


def rk2_map(problem: ScalarProblem) -> StepMap:
    return StepMap(label="rk2", update=lambda y, h: rk2_step(problem, y, h))


def _baseline_update(update: Callable, y_n, ph):
    """``update(y, ph)`` on Python floats when ``y_n`` and ``ph`` (a
    denominator or a step size) are floats, on a float array otherwise (a
    float result for a 0-d state). Float inputs whose arithmetic raises rerun
    on the array path, which returns numpy's inf/nan instead."""
    if isinstance(y_n, float) and isinstance(ph, float):
        try:
            return float(update(float(y_n), float(ph)))
        except (OverflowError, ZeroDivisionError):
            pass
    out = update(np.asarray(y_n, dtype=float), ph)
    return float(out) if np.ndim(y_n) == 0 else out


def wood_kojouharov_step(y_n, h: float):
    """Branching positive scheme for the logistic equation, phi = 1 - e^{-h}.

    The branch follows the sign of f(y) = 2y - y^2; both branches keep
    nonnegative states nonnegative.
    """
    if isinstance(y_n, float) and isinstance(h, float):
        if not 0.0 < h < math.inf:
            check_step(h)  # raises NonPositiveStep
        y, ph = float(y_n), -float(np.expm1(-h))
        fy = 2.0 * y - y * y
        try:
            return y + ph * fy if fy >= 0.0 else y * y / (y - ph * fy)
        except ZeroDivisionError:
            pass  # numpy returns inf/nan here: rerun on the array path
    else:
        check_step(h)
    y = np.asarray(y_n, dtype=float)
    ph = -np.expm1(-h)
    fy = 2.0 * y - y * y
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(fy >= 0.0, y + ph * fy, y * y / (y - ph * fy))
    return float(out) if np.ndim(y_n) == 0 else out


def wood_map() -> StepMap:
    return StepMap(label="wood", update=wood_kojouharov_step)


def mickens_cubic_step(y_n, h: float):
    """First-order nonstandard scheme for y' = y(1 - y^2) with maximum
    symmetry in the cubic term; phi = (1 - e^{-2h})/2."""
    check_step(h)
    return _baseline_update(
        lambda y, ph: y * ((2.0 + ph) + ph * y * y) / ((2.0 - ph) + 3.0 * ph * y * y),
        y_n, 0.5 * (-np.expm1(-2.0 * h)),
    )


def mickens_monod_step(y_n, h: float, mu: float):
    """First-order nonstandard scheme for the modified Monod equation;
    phi = (1 - e^{-Rh})/R with R = mu - 1. Requires mu > 1."""
    if mu <= 1.0:
        raise ParameterOutOfRange(f"Monod parameter must exceed 1, got {mu}")
    check_step(h)
    R = mu - 1.0

    def update(y, ph):
        ratio = y / (1.0 + y)
        return (y + ph * (mu - 1.0) * ratio) / (1.0 + ph * (mu + 1.0) * ratio)

    return _baseline_update(update, y_n, h * phim(R * h))


def mickens_sine_step(y_n, h: float):
    """First-order nonstandard scheme for y' = sin(pi*y);
    phi = (1 - e^{-pi*h})/pi < 1/pi keeps iterates inside [0, inf)."""
    check_step(h)
    return _baseline_update(lambda y, ph: y + ph * np.sin(np.pi * y), y_n, h * phim(np.pi * h))


def powerlaw_nsfd_step(a: float, b: float, m: int, y_n, h: float):
    """Positive scheme for y' = a*y - b*y^m solved from the one-sided form

        (y1 - y)/phi = a*y - b*(1 - m/2)*y^m - b*(m/2)*y^{m-1}*y1

    with phi = (1 - e^{-ah})/a as printed in the source scheme. Note this
    constant-rate phi satisfies the negated order-2 condition; the derived
    variant uses rate -a instead (see the errata report).
    """
    if a <= 0.0 or b <= 0.0:
        raise ParameterOutOfRange(f"need a, b > 0, got a = {a}, b = {b}")
    if m < 2 or int(m) != m:
        raise ParameterOutOfRange(f"need integer m >= 2, got {m}")
    _check_nonnegative(y_n, "powerlaw scheme")
    check_step(h)

    def update(y, ph):
        num = y + ph * (a * y - b * (1.0 - m / 2.0) * np.power(y, m))
        return num / (1.0 + ph * b * (m / 2.0) * np.power(y, m - 1))

    return _baseline_update(update, y_n, h * phim(a * h))


def integrate(
    step: StepMap,
    y0,
    h: float,
    t_end: float,
    problem_name: str = "",
) -> Trajectory:
    """Fold a step map from t = 0 to t_end at fixed step h.

    h must be finite and > 0 (NonPositiveStep otherwise) and t_end finite
    and >= 0 (BadHorizon otherwise). t_end is rounded to a whole number of
    steps (with a warning when the rounding is not exact); a t_end > 0 that
    rounds to no step at all raises ZeroStepCount, and t_end = 0 gives the
    one-point trajectory.

    The state is carried in the type it starts in: a float start as a
    Python float, a flat tuple start (one system state) as a tuple of
    Python floats, anything else as a float array. So a step map with a
    float path runs every step on it without converting the state. A
    carried state is stored a block of rows at a time, about
    ``FOLD_BLOCK_FLOATS`` floats each: the rows are collected in one flat
    list and written as one array, so numpy does not parse a row per step.
    """
    check_step(h)
    if not 0.0 <= t_end < math.inf:
        raise BadHorizon(f"t_end = {t_end!r} must be finite and >= 0")
    steps = t_end / h
    # rounds above MAX_STEPS; also catches a quotient that overflows to inf
    if not steps <= MAX_STEPS + 0.5:
        raise StepCountOverflow(f"{t_end}/{h} needs {steps:.6g} steps (limit {MAX_STEPS})")
    n = int(round(steps))
    if n == 0 and t_end > 0.0:
        raise ZeroStepCount(f"t_end = {t_end} rounds to zero steps of h = {h}")
    if abs(n * h - t_end) > 1e-9 * max(1.0, abs(t_end)):
        warnings.warn(
            f"t_end = {t_end} is not a multiple of h = {h}; integrating to {n * h}",
            stacklevel=2,
        )
    start = np.asarray(y0, dtype=float)
    states = np.empty((n + 1,) + start.shape, dtype=float)
    states[0] = start
    if start.ndim == 0 or (start.ndim == 1 and isinstance(y0, tuple)):
        y = float(start) if start.ndim == 0 else tuple(start.tolist())
        flat: list = []
        store = flat.append if start.ndim == 0 else flat.extend
        rows = max(1, FOLD_BLOCK_FLOATS // max(1, start.size))
        for first in range(1, n + 1, rows):
            last = min(first + rows, n + 1)
            for _ in range(first, last):
                y = step.update(y, h)
                store(y)
            states[first:last] = np.array(flat, dtype=float).reshape((last - first,) + start.shape)
            flat.clear()
    else:
        y = start
        for k in range(n):
            y = step.update(y, h)
            states[k + 1] = y
    return Trajectory(
        times=np.arange(n + 1, dtype=float) * h,
        states=states,
        scheme_label=step.label,
        problem_name=problem_name,
        h=h,
    )


def rk4(F: Callable, y0: tuple, t_end: float, n: int) -> tuple:
    """n classical fourth-order steps of y' = F(y) from y0 over [0, t_end],
    on Python floats: the state and the values of F are tuples of floats."""
    y = y0
    h = t_end / n
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(n):
        k1 = F(y)
        k2 = F(tuple([v + half * k for v, k in zip(y, k1)]))
        k3 = F(tuple([v + half * k for v, k in zip(y, k2)]))
        k4 = F(tuple([v + h * k for v, k in zip(y, k3)]))
        y = tuple([v + sixth * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
    return y


def reference_solution(
    problem: ScalarProblem,
    y0: float,
    h_out: float,
    t_end: float,
    substeps: int = 1000,
) -> Trajectory:
    """Ground-truth trajectory on the output grid from a classical
    fourth-order one-step method run at internal step h_out/substeps.

    The output grid is ``integrate``'s, with its contracts on h_out and
    t_end and its warning when t_end is not a multiple of h_out. When the
    problem carries an exact solution the oracle is checked against it to
    1e-10 and the run aborts on disagreement.
    """
    fn = lambda y: (float(problem.f(y[0])),)  # noqa: E731
    update = lambda y, h: rk4(fn, (y,), h, substeps)[0]  # noqa: E731
    traj = integrate(StepMap("reference", update), y0, h_out, t_end, problem_name=problem.name)

    if problem.exact_solution is not None:
        exact = np.asarray(problem.exact_solution(traj.times, y0), dtype=float)
        gap = float(np.max(np.abs(exact - traj.states)))
        if gap > 1e-10:
            raise OracleSelfCheckFailed(
                f"{problem.name}: reference integrator differs from the exact "
                f"solution by {gap:.3e}"
            )
        traj = replace(traj, states=exact)  # prefer the closed form once it is validated
    return traj


def reference_value(problem: ScalarProblem, y0: float, t_end: float) -> float:
    """Reference state at a single final time (cached closed form when
    available, otherwise the fourth-order oracle over the whole span)."""
    if problem.exact_solution is not None:
        return float(problem.exact_solution(t_end, y0))
    # keyed by the record, not its name: a re-parameterised problem keeps
    # its name but has its own flow
    key = (problem, float(y0), float(t_end))
    if key not in _REFERENCE_CACHE:
        traj = reference_solution(problem, y0, h_out=t_end, t_end=t_end, substeps=4000)
        _REFERENCE_CACHE[key] = float(traj.states[-1])
    return _REFERENCE_CACHE[key]


_REFERENCE_CACHE: dict = {}

