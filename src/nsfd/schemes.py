"""Step maps and fixed-step integration for scalar problems.

The positive scheme advances by

    y1 = (y + phi*f_plus(y) + phi*alpha*y*f_minus(y)) / (1 - phi*beta*f_minus(y))

with phi = h * phim(h * lam(y)). Every term in the numerator is nonnegative
and the denominator is at least 1, so iterates from y >= 0 stay nonnegative
in floating point, not just in exact arithmetic. As a lemma of IEEE
arithmetic: with y >= 0, ph > 0, f_plus >= 0, f_minus <= 0 and
alpha <= 0 <= beta, signed zeros, subnormals and infinities included,
``weighted_update`` returns a result >= 0 or nan. Each term of the numerator
is a product of factors of known sign, so it is >= 0 or nan (inf * 0); a sum
of such terms is too, and the denominator 1 - ph*beta*f_minus is >= 1 or
nan. Rounding never flips a sign. A weighted step keeps a point with
f(y) = 0 exactly and applies ``weighted_update`` elsewhere: on floats in
``weighted_step``, on arrays in ``weighted_step_array``, and in the weighted
map's float loop, whose template writes the same expression (below).

Baselines from the comparison experiments live here too: explicit Euler,
Heun's method (the RK2 variant used throughout), the branching
positivity-preserving logistic scheme it is measured against, and the
first-order nonstandard schemes for the cubic and sine equations. (Monod's
first-order scheme is the weighted update with a constant rate, built in
``nsfd.problems`` as ``monod/mickens``.) Every scheme is stepped through
its ``StepMap``: the named ones come from the registry
(``get_scheme(problem, label).step``), a problem of one's own goes through
``nsfd_step_map``.

Every step map, scalar or system, is one ``checked_map``, where the step
contract is written once; a map supplies only its float and array kernels,
whether its states must be nonnegative, and (systems) its state adapter.
A positive map refuses a state with a component below zero, -inf included,
with NegativeState (nan passes); Euler and RK2 check no state. An h that is
not finite and > 0 raises NonPositiveStep. A Python-float state (a tuple of
Python floats for a system) with a Python-float h, by exact type, takes the
float kernel, which skips numpy's per-call overhead; ``integrate`` makes a
numpy-scalar h a Python float once. Where float arithmetic raises (x/0,
overflow in ``**``) and numpy returns inf or nan instead, the step reruns on
the array path, which runs under one ``np.errstate``, model calls included,
silent as float arithmetic is. A 0-d state comes back as a float, a tuple
as a tuple, anything else as an array. Both paths evaluate one formula per
scheme and agree bit for bit, so the right-hand-side callables must compute
the same value for a float as for a one-element array: arithmetic and numpy
ufuncs do, while Python's ``**`` on floats rounds differently from
``np.power`` (write ``y * y`` or ``np.power(y, m)``).

Beside ``update``, each map has a block loop, ``advance(state, h, n,
store)``: n steps, each state passed to ``store``, the last one returned.
It hangs on the ``update`` it was built with, as ``update.advance``, and
``integrate`` calls it once per block of about ``FOLD_BLOCK_FLOATS`` floats.
Once per block it checks that h is a finite Python float > 0 and that the
state is in the float kernel's form (a Python float, or a tuple of them for
a system); otherwise it calls ``update`` step by step. Within the block it
trusts the kernel, which returns its state in that form. A map whose
``update`` was replaced (``dataclasses.replace``; a ``functools.wraps``
wrapper, which copies the attribute, too) or that was built from a bare
``update`` (the RK4 references) has no block loop of its own: ``integrate``
folds it one ``update`` call per step.

``update``'s float path and the block loop are generated from one source
template (``_LOOP`` around ``_STEP``) and compiled once per kernel kind,
never per map. The template holds the per-step contract: the sign rule of
a positive map, the float kernel and the rerun on the array path of a step
whose float arithmetic raises (the next step runs on floats again), the
same for a float and a tuple, so every step takes the path ``update``
would give it and returns its bits. A kernel is either called per step
(Python-float or tuple states) or, for the weighted scalar map, written
into the template (``_WEIGHTED``), as the RK4 loop's formula is written
into its own: f_minus, the rate (derived from the step's own f' and
f_minus, or the rate function's value), ``h * phim(h * lam)``, f, f_plus,
the f = 0 rule and the update. Its callables and operations run in the
order ``derived_rate``, ``phim``'s float branch and ``weighted_step`` run
them, so the bits are theirs; the tests hold the loop to that composition
bit for bit, as they hold the RK4 loop to an independent one. The code is
compiled under a file name ``<nsfd.schemes float loop, kernel=weighted>``
(``call``, ``tuple loop``) in a scope named ``nsfd.schemes``, with its
source in ``linecache``, as the RK4 loop is. The positivity lemma above
would let a weighted map check the sign of a block's start only; every
step still checks it, as every map's ``update`` does.

Each step map is bound once. ``nsfd_step_map`` binds the model callables,
the weights and the rate function; with a rate derived from the step's own
problem and representation, a step evaluates f, f', f_plus and f_minus
once each.
The Wood-Kojouharov and Mickens cubic and sine maps keep their phi, which
depends on h alone, in a one-entry memo per map (``_HMemo``) on the float
path, where h has passed the check; the entry is one ``(h, phi)`` tuple
replaced whole, so threads sharing a map never pair one h with another h's
phi. ``np.expm1`` stays, since ``math.expm1`` differs from it in the last
bit.

The fourth-order oracle behind ``reference_solution`` and the systems'
reference (``rk4``) is a loop written out component by component,
generated and compiled once per state dimension (``_rk4_loop``); the
scalar oracle is its dim-1 case. It evaluates the classical method's
expressions in their usual order, F four times per substep.
"""

from __future__ import annotations

import linecache
import math
import re
import textwrap
import warnings
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable

import numpy as np

from .denominator import ARG_FLOOR, SERIES_CUTOFF, check_step, derived_from, derived_rate, phim
from .errors import (
    BadHorizon,
    NegativeState,
    OracleSelfCheckFailed,
    StepCountOverflow,
    ZeroStepCount,
)
from .model import Representation, ScalarProblem, SchemeConfig, Trajectory

MAX_STEPS = 100_000_000

#: ``integrate`` stores the carried states in blocks of about this many
#: floats: one array built per block, where numpy would parse every row
FOLD_BLOCK_FLOATS = 4096


@dataclass(frozen=True)
class StepMap:
    """A one-step update rule y_{n+1} = update(y_n, h).

    ``update`` must be deterministic and vectorized over the state argument,
    lane by lane: for a batch of states (scalars, or system states along the
    last axis) with one step size each, lane i of ``update(y, h)`` depends
    only on ``(y[i], h[i])``, bit for bit, whatever the other lanes are. It
    returns a new state and leaves its argument unchanged: ``integrate``
    keeps the states it returns until it writes them a block at a time.
    """

    label: str
    update: Callable


def _check_sign(state, label: str) -> None:
    """The sign rule of a positive map: a component below zero, -inf
    included, raises NegativeState; nan passes, and ``np.fmin`` skips it, so
    a nan lane neither raises nor hides a negative one."""
    low = np.fmin.reduce(np.asarray(state, dtype=float), axis=None, initial=np.inf)
    if low < 0.0:
        raise NegativeState(f"{label} needs y_n >= 0, got min {float(low):.6g}")


def checked_map(label: str, float_step: Callable, array_step: Callable, positive: bool,
                floats: Callable | None = None,
                lanes: Callable = partial(np.asarray, dtype=float)) -> StepMap:
    """The step map of ``float_step(x, h)``, one step on Python floats that
    raises where float arithmetic does, and ``array_step(s, h)``, the same
    step on a float array, under the contract of the module docstring;
    ``positive`` says whether states must be nonnegative. The state adapter
    gives each path its form of a state: without ``floats``, a Python float
    is the float kernel's state and any other state takes the array path;
    ``floats(state)`` gives it for any state (a system's), or None for the
    array path, and ``lanes(state)`` gives the array kernel's; either
    raises on a state it refuses. A float-path state that ``floats`` built
    (from a system's (dim,) array) comes back as an array. The float kernel
    returns its state in its own form, a Python float or a tuple of them,
    and the block loop trusts it. ``update``'s float path and its block
    loop ``update.advance`` are the generated loop of the module docstring,
    calling ``float_step``.
    """
    return _checked(label, array_step, positive, floats, lanes, "call", float_step=float_step)


def _checked(label: str, array_step: Callable, positive: bool, floats: Callable | None,
             lanes: Callable, kernel: str, **bound) -> StepMap:
    """``checked_map`` whose float path is the loop of ``kernel``
    (``_float_loop``) bound to ``bound``."""

    # one errstate over the whole path; a decorator costs half a ``with``
    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def on_arrays(state, h):
        s = lanes(state)
        if positive:
            _check_sign(s, label)
        check_step(h)
        out = array_step(s, h)
        if out.ndim == 0:
            return float(out)
        return tuple(out.tolist()) if isinstance(state, tuple) and out.ndim == 1 else out

    bind = _float_loop(kernel, floats is None)
    return StepMap(label=label, update=bind(label, positive, floats, on_arrays, **bound))


def _fold(update: Callable, state, h, n: int, store: Callable):
    """n steps of ``update`` from ``state``, each passed to ``store``; the last state."""
    for _ in range(n):
        state = update(state, h)
        store(state)
    return state


#: one step on the float path from x, a state in the float kernel's form,
#: to x1: the sign rule of a positive map, then the kernel, whose step
#: reruns on the array path where float arithmetic raises
_STEP = """\
if positive and not {low} >= 0.0:  # a nan fails it too, and passes the sign rule
    _check_sign(x, label)
try:
    {kernel}
except (OverflowError, ZeroDivisionError):
    x1 = on_arrays(x, h)  # numpy returns inf/nan here"""

#: ``update`` and its block loop ``advance`` around ``_STEP``; ``{form}``
#: gives the state in the float kernel's form, or None for the array path,
#: and a block loop step checks no form, as the kernel returns its state in
#: that form
_LOOP = """\
def bind(label, positive, floats, on_arrays, {names}):
    def update(state, h):
        x = {form}
        if x is None or type(h) is not float or not 0.0 < h < inf:
            return on_arrays(state, h)  # for a bad h: the sign rule, then NonPositiveStep
        {step}
        return x1 if x is state else array(x1)

    def advance(state, h, n, store):
        x = {form}
        if x is not state or type(h) is not float or not 0.0 < h < inf:
            return _fold(update, state, h, n, store)
        for _ in range(n):
            {step}
            store(x1)
            x = x1
        return x

    update.advance = advance
    advance.update = update
    return update
"""

#: ``nsfd_step_map``'s float kernel, from x and h to x1: f_minus, the rate
#: (``derived_rate`` on the step's own f' and f_minus, or the rate
#: function's value), ``h * phim(h * lam)`` (``phim``'s float branch), f,
#: f_plus, and ``weighted_step`` with ``weighted_update``; the callables and
#: operations in the order those functions run them
_WEIGHTED = """\
fm = float(f_minus(x))
if shared:
    lam = -float(df(x)) + 2.0 * rate_beta * fm
else:
    lam = float(spec(x))
F = f(x)  # only compared with zero, so it need not be a Python float
arg = h * lam
if -SERIES_CUTOFF < arg < SERIES_CUTOFF:
    p = 1.0 - arg / 2.0 + arg * arg / 6.0 - arg * arg * arg / 24.0
else:
    if arg < ARG_FLOOR:
        arg = ARG_FLOOR
    p = -float(_expm1(-arg)) / arg
ph = h * p
fp = float(f_plus(x))
x1 = x if F == 0.0 else (x + ph * fp + ph * (alpha * x * fm)) / (1.0 - ph * beta * fm)"""

#: a field of a template: alone on its line (a block, indented as the
#: field is), or inline
_FIELD = re.compile(r"^( *)\{(\w+)\}$|\{(\w+)\}", re.M)


def _fill(template: str, **fields: str) -> str:
    """``template`` with its fields replaced by ``fields``."""
    return _FIELD.sub(lambda m: textwrap.indent(fields[m[2]], m[1]) if m[2] else fields[m[3]],
                      template)


@cache
def _float_loop(kernel: str, scalar: bool) -> Callable:
    """``bind(label, positive, floats, on_arrays, **bound)``, which
    gives a map's ``update`` with its block loop ``update.advance``:
    ``_LOOP`` around ``_STEP`` for Python-float states (``scalar``) or
    tuples of them, with the float kernel ``kernel``. "call" calls the
    map's ``float_step``; "weighted" is ``_WEIGHTED`` on the model
    callables and weights of ``nsfd_step_map``. Generated and compiled once
    per kind, like ``_rk4_loop``, from the templates alone: no source file
    of the package is read."""
    scope = {"inf": math.inf, "array": np.array, "_check_sign": _check_sign, "_fold": _fold,
             "SERIES_CUTOFF": SERIES_CUTOFF, "ARG_FLOOR": ARG_FLOOR, "_expm1": np.expm1}
    if kernel == "weighted":
        names, text = "f, df, f_plus, f_minus, spec, shared, rate_beta, alpha, beta", _WEIGHTED
    else:
        names, text = "float_step", "x1 = float_step(x, h)"
    step = _fill(_STEP, low="x" if scalar else "min(x)", kernel=text)
    form = "state if type(state) is float else None" if scalar else "floats(state)"
    source = _fill(_LOOP, names=names, form=form, step=step)
    state = "float" if scalar else "tuple"
    return _compiled(source, f"<nsfd.schemes {state} loop, kernel={kernel}>", "bind", scope)


def _compiled(source: str, filename: str, name: str, scope: dict) -> Callable:
    """``name`` as ``source`` defines it, compiled under ``filename`` in
    ``scope``, named ``nsfd.schemes``, with the source in ``linecache``, so
    tracebacks show its lines and warning filters on the package apply."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope["__name__"] = __name__
    exec(compile(source, filename, "exec"), scope)
    return scope[name]


def weighted_update(y, ph, fp, fm, alpha: float, beta: float):
    """y1 = (y + ph*fp + ph*alpha*y*fm) / (1 - ph*beta*fm), on floats or arrays."""
    return (y + ph * fp + ph * (alpha * y * fm)) / (1.0 - ph * beta * fm)


def weighted_step(x, F, ph, fp, fm, alpha: float, beta: float):
    """x where F = f(x) is zero, ``weighted_update`` elsewhere, on floats
    (written out, with ``weighted_update``, in ``_WEIGHTED`` too)."""
    return x if F == 0.0 else weighted_update(x, ph, fp, fm, alpha, beta)


def weighted_step_array(x, F, ph, fp, fm, alpha, beta):
    """``weighted_step`` lane by lane. It enters no ``np.errstate`` of its
    own: both of its callers run it on the array path of a step map, under
    that path's one ``errstate``, silent where numpy returns inf or nan."""
    out = weighted_update(x, ph, fp, fm, alpha, beta)
    return out if F.all() else np.where(F == 0.0, x, out)  # nan counts as nonzero


def nsfd_step_map(
    problem: ScalarProblem,
    rep: Representation,
    config: SchemeConfig,
    spec: Callable,
) -> StepMap:
    """The positive nonstandard scheme as a step map, bound once, with
    denominator h * phim(h * lam(y)) for the rate function ``spec`` (lam).

    ``update(y_n, h)`` requires y_n >= 0 (NegativeState, checked first) and
    a finite h > 0 (NonPositiveStep); states with f(y_n) = 0 are returned
    exactly. When ``spec`` was derived from this very ``problem`` and
    ``rep`` (``derived_from``, compared by identity), the step hands its
    f_minus value to ``derived_rate``; any other rate is called. The map's
    label is ``config.label``, or "nsfd" for an unlabelled config.
    """
    f, f_plus, f_minus, df = problem.f, rep.f_plus, rep.f_minus, problem.df
    alpha, beta = config.alpha, config.beta
    source = derived_from(spec)
    shared = source is not None and source[0] is problem and source[1] is rep
    # a Python float, so that the float kernel's rate is one
    rate_beta = float(source[2]) if shared else None

    def on_arrays(y, h):
        fm = np.asarray(f_minus(y), dtype=float)
        # the rate array is not bound: it is freed before f and f_plus exist
        ph = h * phim(h * (derived_rate(np.asarray(df(y), dtype=float), fm, rate_beta) if shared
                           else np.asarray(spec(y), dtype=float)))
        return weighted_step_array(y, np.asarray(f(y), dtype=float), ph,
                                   np.asarray(f_plus(y), dtype=float), fm, alpha, beta)

    return _checked(config.label or "nsfd", on_arrays, True, None, partial(np.asarray, dtype=float),
                    "weighted", f=f, df=df, f_plus=f_plus, f_minus=f_minus, spec=spec,
                    shared=shared, rate_beta=rate_beta, alpha=alpha, beta=beta)


def euler_map(problem: ScalarProblem) -> StepMap:
    """Explicit Euler: y + h*f(y); h must be finite and > 0."""
    f = problem.f

    def euler(y, h):
        return y + h * f(y)

    return checked_map("euler", lambda y, h: float(euler(y, h)), euler, positive=False)


def rk2_map(problem: ScalarProblem) -> StepMap:
    """Heun's method: y + (h/2)*(f(y) + f(y + h*f(y))); h must be finite
    and > 0."""
    f = problem.f

    def heun(y, h):
        k1 = f(y)
        k2 = f(y + h * k1)
        return y + 0.5 * h * (k1 + k2)

    return checked_map("rk2", lambda y, h: float(heun(y, h)), heun, positive=False)


class _HMemo(dict):
    """``float(of_h(h))`` by a checked float h, for the one h a fold steps at:
    a miss clears the dict, and no thread pairs one h with another's value."""

    def __init__(self, of_h: Callable):
        super().__init__()
        self.of_h = of_h

    def __missing__(self, h):
        self.clear()
        value = self[h] = float(self.of_h(h))
        return value


def wood_map() -> StepMap:
    """Branching positive scheme for the logistic equation, phi = 1 - e^{-h}.

    The branch follows the sign of f(y) = 2y - y^2; both branches keep
    nonnegative states nonnegative.
    """
    of_h = lambda h: -np.expm1(-h)  # noqa: E731
    phi_at = _HMemo(of_h).__getitem__

    def on_floats(y, h):
        ph = phi_at(h)
        fy = 2.0 * y - y * y
        return y + ph * fy if fy >= 0.0 else y * y / (y - ph * fy)

    def on_arrays(y, h):
        ph = of_h(h)
        fy = 2.0 * y - y * y
        return np.where(fy >= 0.0, y + ph * fy, y * y / (y - ph * fy))

    return checked_map("wood", on_floats, on_arrays, positive=True)


def _mickens_map(update: Callable, of_h: Callable) -> StepMap:
    """A Mickens scheme ``update(y, phi)``, phi = ``of_h(h)`` (memoised on floats)."""
    phi_at = _HMemo(of_h).__getitem__
    return checked_map("mickens", lambda y, h: float(update(y, phi_at(h))),
                       lambda y, h: update(y, of_h(h)), positive=True)


def mickens_cubic_map() -> StepMap:
    """First-order nonstandard scheme for y' = y(1 - y^2) with maximum
    symmetry in the cubic term; phi = (1 - e^{-2h})/2."""
    return _mickens_map(
        lambda y, ph: y * ((2.0 + ph) + ph * y * y) / ((2.0 - ph) + 3.0 * ph * y * y),
        lambda h: 0.5 * (-np.expm1(-2.0 * h)))


def mickens_sine_map() -> StepMap:
    """First-order nonstandard scheme for y' = sin(pi*y);
    phi = (1 - e^{-pi*h})/pi < 1/pi keeps iterates inside [0, inf)."""
    return _mickens_map(lambda y, ph: y + ph * np.sin(np.pi * y), lambda h: h * phim(np.pi * h))


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
    Python floats, anything else (lanes, or one system state as an array)
    as a float array. So a step map with a float path runs every step on it
    without converting the state. Every carried state is stored a block of
    rows at a time, about ``FOLD_BLOCK_FLOATS`` floats each: the rows are
    collected in one list (a tuple's components flat) and written as one
    array, so numpy does not parse a row per step. Each block is one call of
    the map's block loop (``update.advance``, see the module docstring), or
    of ``update`` once per step for a map without one of its own. The
    trajectory is its step size and its states; its times are the grid
    t_k = k*h.
    """
    check_step(h)
    h = float(h)  # a numpy-scalar h once, so that every step can take a float path
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
    update = step.update
    advance = getattr(update, "advance", None)
    if getattr(advance, "update", None) is not update:  # a bare update, or a wrapper of one
        advance = partial(_fold, update)
    start = np.asarray(y0, dtype=float)
    states = np.empty((n + 1,) + start.shape, dtype=float)
    states[0] = start
    y = start
    if start.ndim == 0:
        y = float(start)
    elif start.ndim == 1 and isinstance(y0, tuple):
        y = tuple(start.tolist())
    flat: list = []
    store = flat.extend if type(y) is tuple else flat.append
    rows = max(1, FOLD_BLOCK_FLOATS // max(1, start.size))
    for first in range(1, n + 1, rows):
        last = min(first + rows, n + 1)
        y = advance(y, h, last - first, store)
        states[first:last] = np.array(flat, dtype=float).reshape((last - first,) + start.shape)
        flat.clear()
    return Trajectory(states=states, scheme_label=step.label, problem_name=problem_name, h=h)


def rk4(F: Callable, y0: tuple, t_end: float, n: int) -> tuple:
    """n classical fourth-order steps of y' = F(y) from y0 over [0, t_end],
    on Python floats: the state and the values of F are tuples of floats.

    The loop is ``_rk4_loop(len(y0))``, written out per component; an F
    that returns a different number of components fails to unpack, and
    the ValueError names the expected count. An n below 1 raises
    ValueError."""
    if n < 1:
        raise ValueError(f"rk4 needs n >= 1 substeps, got {n}")
    return _rk4_loop(len(y0))(F, y0, t_end, n)


@cache
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
    return _compiled(source, f"<nsfd.schemes rk4, dim={dim}>", "rk4", {})


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
    """Reference state at a single final time (the closed form when
    available, otherwise the cached fourth-order oracle over the whole span)."""
    if problem.exact_solution is not None:
        return float(problem.exact_solution(t_end, y0))
    return _oracle_value(problem, float(y0), float(t_end))


@cache
def _oracle_value(problem: ScalarProblem, y0: float, t_end: float) -> float:
    # keyed by the record, not its name: a re-parameterised problem keeps
    # its name but has its own flow
    return float(reference_solution(problem, y0, h_out=t_end, t_end=t_end,
                                    substeps=4000).states[-1])

