"""Step maps and fixed-step integration for scalar problems.

The positive scheme advances by

    y1 = (y + phi*f_plus(y) + phi*alpha*y*f_minus(y)) / (1 - phi*beta*f_minus(y))

with phi = h * phim(h * lam(y)). Every term in the numerator is nonnegative
and the denominator is at least 1, so iterates from y >= 0 stay nonnegative
in floating point, not just in exact arithmetic. Every weighted step ends
in ``weighted_step`` on floats or ``weighted_step_array`` on arrays, which
keep a point with f(y) = 0 exactly and apply ``weighted_update``, the one
place the formula is written, elsewhere.

Baselines from the comparison experiments live here too: explicit Euler,
Heun's method (the RK2 variant used throughout), the branching
positivity-preserving logistic scheme it is measured against, and the
first-order nonstandard schemes for the cubic and sine equations. (Monod's
first-order scheme is the weighted update with a constant rate, built in
``nsfd.problems`` as ``monod/mickens``.) Every scheme is stepped through
its ``StepMap``: the named ones come from the registry
(``get_scheme(problem, label).step``), a problem of one's own goes through
``nsfd_step_map``.

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

Each step map is bound once. ``nsfd_step_map`` returns one closure holding
the model callables, the weights and the rate; with a rate derived from the
step's own problem and representation, a step evaluates f, f', f_plus and
f_minus once each.
The Wood-Kojouharov and Mickens cubic and sine maps keep their phi, which
depends on h alone, in a one-entry memo per map (``_h_memo``): only an h
that passed ``check_step`` is stored, an array h never is, and the entry is
one ``(h, phi)`` tuple replaced whole, so threads sharing a map never pair
one h with another h's phi. ``np.expm1`` stays, since ``math.expm1``
differs from it in the last bit.

The fourth-order oracle behind ``reference_solution`` and the systems'
reference (``rk4``) is a loop written out component by component,
generated and compiled once per state dimension (``_rk4_loop``); the
scalar oracle is its dim-1 case. It evaluates the classical method's
expressions in their usual order, F four times per substep.
"""

from __future__ import annotations

import linecache
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .denominator import DenominatorSpec, check_step, derived_from, derived_rate, phim
from .errors import (
    BadHorizon,
    NegativeState,
    OracleSelfCheckFailed,
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


def weighted_step(x, F, ph, fp, fm, alpha: float, beta: float):
    """x where F = f(x) is zero, ``weighted_update`` elsewhere, on floats."""
    return x if F == 0.0 else weighted_update(x, ph, fp, fm, alpha, beta)


def weighted_step_array(x, F, ph, fp, fm, alpha, beta):
    """``weighted_step`` lane by lane, silent where numpy returns inf or nan."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = weighted_update(x, ph, fp, fm, alpha, beta)
    return out if F.all() else np.where(F == 0.0, x, out)  # nan counts as nonzero


def nsfd_step_map(
    problem: ScalarProblem,
    rep: Representation,
    config: SchemeConfig,
    spec: DenominatorSpec,
    label: str = "",
) -> StepMap:
    """The positive nonstandard scheme as a step map, bound once.

    ``update(y_n, h)`` requires y_n >= 0 (NegativeState, checked first) and
    a finite h > 0 (NonPositiveStep); states with f(y_n) = 0 are returned
    exactly. When the rate of ``spec`` was derived from this very
    ``problem`` and ``rep`` (``derived_from``, compared by identity), the
    float step hands its f_minus value to ``derived_rate``; any other rate
    goes through ``spec.lambda_fn``.
    """
    f, f_plus, f_minus, df = problem.f, rep.f_plus, rep.f_minus, problem.df
    alpha, beta = config.alpha, config.beta
    rate = spec.lambda_fn
    source = derived_from(rate)
    shared = source is not None and source[0] is problem and source[1] is rep
    rate_beta = source[2] if shared else None
    name = label or config.label or "nsfd"

    def update(y_n, h):
        if isinstance(y_n, float) and isinstance(h, float):
            y, h = float(y_n), float(h)  # numpy float scalars are floats too
            if y < 0.0:
                _check_nonnegative(y, name)  # raises NegativeState
            if not 0.0 < h < math.inf:
                check_step(h)  # raises NonPositiveStep, at an equilibrium too
            try:
                fm = float(f_minus(y))
                lam = derived_rate(float(df(y)), fm, rate_beta) if shared else float(rate(y))
                ph = h * phim(h * lam)
                return weighted_step(y, float(f(y)), ph, float(f_plus(y)), fm, alpha, beta)
            except (OverflowError, ZeroDivisionError):
                pass  # numpy returns inf/nan here: rerun on the array path
        _check_nonnegative(y_n, name)
        check_step(h)
        y = np.asarray(y_n, dtype=float)
        fm = np.asarray(f_minus(y), dtype=float)
        # the rate array is not bound: it is freed before f and f_plus exist
        ph = h * phim(h * (derived_rate(np.asarray(df(y), dtype=float), fm, rate_beta) if shared
                           else np.asarray(rate(y), dtype=float)))
        out = weighted_step_array(y, np.asarray(f(y), dtype=float), ph,
                                  np.asarray(f_plus(y), dtype=float), fm, alpha, beta)
        return float(out) if np.ndim(y_n) == 0 else out

    return StepMap(label=name, update=update)


def euler_map(problem: ScalarProblem) -> StepMap:
    """Explicit Euler: y + h*f(y); h must be finite and > 0."""
    f = problem.f

    def euler(y, h):
        return y + h * f(y)

    def update(y_n, h):
        check_step(h)
        return _baseline_update(euler, y_n, h)

    return StepMap(label="euler", update=update)


def rk2_map(problem: ScalarProblem) -> StepMap:
    """Heun's method: y + (h/2)*(f(y) + f(y + h*f(y))); h must be finite
    and > 0."""
    f = problem.f

    def heun(y, h):
        k1 = f(y)
        k2 = f(y + h * k1)
        return y + 0.5 * h * (k1 + k2)

    def update(y_n, h):
        check_step(h)
        return _baseline_update(heun, y_n, h)

    return StepMap(label="rk2", update=update)


def _baseline_update(update: Callable, y_n, ph):
    """``update(y, ph)`` on Python floats when ``y_n`` and ``ph`` (a
    denominator or a step size) are floats, on a float array otherwise (a
    float result for a 0-d state). Float inputs whose arithmetic raises rerun
    on the array path, which returns numpy's inf/nan instead, silently like
    the float path."""
    if isinstance(y_n, float) and isinstance(ph, float):
        try:
            return float(update(float(y_n), float(ph)))
        except (OverflowError, ZeroDivisionError):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return float(update(np.asarray(y_n, dtype=float), ph))
    out = update(np.asarray(y_n, dtype=float), ph)
    return float(out) if np.ndim(y_n) == 0 else out


def _h_memo(of_h: Callable) -> Callable:
    """``of_h(h)`` after ``check_step(h)``, with a one-entry memo for a float
    h: a fold steps at one h. Only an h that passed the check is stored, so
    a hit needs no check, and an array h is never stored. The entry is read
    and replaced as one ``(h, value)`` tuple, so a thread never sees a torn
    pair; threads that miss together each compute the value."""
    entry = (math.nan, math.nan)  # nan equals no h

    def at(h):
        nonlocal entry
        if not isinstance(h, float):
            check_step(h)
            return of_h(h)
        key, value = entry
        if key != h:
            check_step(h)
            value = of_h(h)
            entry = (h, value)
        return value

    return at


def wood_map() -> StepMap:
    """Branching positive scheme for the logistic equation, phi = 1 - e^{-h}.

    The branch follows the sign of f(y) = 2y - y^2; both branches keep
    nonnegative states nonnegative.
    """
    phi_at = _h_memo(lambda h: -float(np.expm1(-h)))

    def update(y_n, h):
        if isinstance(y_n, float) and isinstance(h, float):
            y, ph = float(y_n), phi_at(h)  # checks h unless memoised
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

    return StepMap(label="wood", update=update)


def mickens_cubic_map() -> StepMap:
    """First-order nonstandard scheme for y' = y(1 - y^2) with maximum
    symmetry in the cubic term; phi = (1 - e^{-2h})/2."""
    phi_at = _h_memo(lambda h: 0.5 * (-np.expm1(-2.0 * h)))

    def update(y, ph):
        return y * ((2.0 + ph) + ph * y * y) / ((2.0 - ph) + 3.0 * ph * y * y)

    return StepMap(label="mickens", update=lambda y_n, h: _baseline_update(update, y_n, phi_at(h)))


def mickens_sine_map() -> StepMap:
    """First-order nonstandard scheme for y' = sin(pi*y);
    phi = (1 - e^{-pi*h})/pi < 1/pi keeps iterates inside [0, inf)."""
    phi_at = _h_memo(lambda h: h * phim(np.pi * h))
    update = lambda y, ph: y + ph * np.sin(np.pi * y)  # noqa: E731
    return StepMap(label="mickens", update=lambda y_n, h: _baseline_update(update, y_n, phi_at(h)))


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
    on Python floats: the state and the values of F are tuples of floats.

    The loop is ``_rk4_loop(len(y0))``, written out per component; an F
    that returns a different number of components fails to unpack, and
    the ValueError names the expected count."""
    return _rk4_loop(len(y0))(F, y0, t_end, n)


@lru_cache(maxsize=None)
def _rk4_loop(dim: int) -> Callable:
    """The ``rk4`` loop for states of ``dim`` components, generated once per
    dim. Every component is a local and every stage is written out
    component by component, so no tuple is zipped or rebuilt per stage; the
    expressions and their order are the classical method's, as in

        y_i + half * k1_i,   y_i + h * k3_i,
        y_i + sixth * (k1_i + 2.0 * k2_i + 2.0 * k3_i + k4_i).

    The code is compiled under the file name ``<nsfd.schemes rk4, dim=N>``
    in a scope named ``nsfd.schemes``, with its source in ``linecache``, so
    tracebacks show its lines and warning filters on the package apply."""

    def each(term: str) -> str:  # dim terms, comma-terminated: a tuple for any dim
        return ", ".join(term.format(i=i) for i in range(dim)) + ","

    y = each("y{i}")
    source = f"""\
def rk4(F, y, t_end, n):
    {y} = y
    h = t_end / n
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(n):
        {each("a{i}")} = F(({y}))
        {each("b{i}")} = F(({each("y{i} + half * a{i}")}))
        {each("c{i}")} = F(({each("y{i} + half * b{i}")}))
        {each("d{i}")} = F(({each("y{i} + h * c{i}")}))
        {y} = {each("y{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})")}
    return ({y})
"""
    filename = f"<nsfd.schemes rk4, dim={dim}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope = {"__name__": __name__}
    exec(compile(source, filename, "exec"), scope)
    return scope["rk4"]


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

