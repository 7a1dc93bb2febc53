"""Denominator functions phi(h, y) and the conditions they must satisfy.

The workhorse is the kernel phim(x) = (1 - exp(-x))/x. Every denominator is
built one way, from a rate function lam(y):

    phi(h, y) = h * phim(h * lam(y))

Built this way, phi is positive for every h > 0 whatever the sign of lam,
equals h + O(h^2) as h -> 0, and its second h-derivative at 0 is exactly
-lam(y). The derived rate lam(y) = -f'(y) + 2*beta*f_minus(y) therefore
meets the second-order accuracy condition (H3), d2phi/dh2(0, y) =
f'(y) - 2*beta*f_minus(y). ``check_H_conditions`` checks (H1)-(H3) in
closed form for every h, from lam alone: H1 holds where lam is finite, H2
compares the stability bracket with 2*lam, since phi = (1 - exp(-h*lam))/lam
increases in h towards 1/lam (lam > 0) or without bound, and H3 compares -lam
with its target. A state-independent denominator is a constant rate
(``constant_rate``).

Several of the denominators printed in the source material use rates that
satisfy the negated condition d2phi/dh2(0, y) = -(f' - 2*beta*f_minus)
instead; those variants are kept available (they are what the errata report
measures), and ``derived_from`` tells a derived rate from any other.

The rate functions of ``lambda_from_scheme`` take a bit-identical float
path for a Python-float state. ``phi`` runs vectorised only: it serves the
stability audit, while every step forms h * phim(h * lam) from the rate it
has evaluated itself.

A derived rate records what it was derived from: ``lambda_from_scheme``
returns a partial holding ``(problem, rep, beta)``, and ``derived_from``
reads them back. The expression -f' + 2*beta*f_minus is written once, in
``derived_rate``, which takes the values of f' and f_minus. The weighted
step (``schemes.nsfd_step_map``) calls it with its own f_minus value when
the rate was derived from the step's own problem and representation, so a
step evaluates f_minus once for the rate and the update together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import NonPositiveStep
from .model import Representation, ScalarProblem, SchemeConfig

#: below this |x| the kernel is evaluated by truncated series: truncation
#: error <= 1e-21 while the expm1 route starts losing digits to cancellation
SERIES_CUTOFF = 1e-5

#: kernel argument floor: exp(-x) overflows float64 below roughly -709, so
#: the kernel saturates there (the true value is not representable anyway)
ARG_FLOOR = -700.0

#: relative tolerance of the closed-form H3 identity: a rate written
#: differently from the derived one may differ from it by rounding only
H3_RTOL = 1e-12

#: states sampled over the domain window for H1 and H3
H_SAMPLES = 100


def phim(x):
    """The kernel (1 - exp(-x))/x with its removable singularity filled.

    Accepts scalars or arrays. Always positive; phim(0) = 1. Evaluated by a
    truncated series below ``SERIES_CUTOFF`` and through expm1 elsewhere to
    avoid cancellation; saturates at ``ARG_FLOOR`` to stay finite. The two
    branches agree bit for bit element by element.

    The array branch runs expm1 on every element and then writes the series
    over the lanes with |x| < ``SERIES_CUTOFF`` only, when there are any. It
    needs no errstate: the series never sees a huge argument, expm1 of an
    argument >= ``ARG_FLOOR`` (or of +-inf) does not overflow, and nan passes
    through without a warning.
    """
    if type(x) is float or np.ndim(x) == 0:
        x = float(x)
        if -SERIES_CUTOFF < x < SERIES_CUTOFF:
            return 1.0 - x / 2.0 + x * x / 6.0 - x * x * x / 24.0
        if x < ARG_FLOOR:
            x = ARG_FLOOR
        # np.expm1, not math.expm1: the two differ in the last bit for some
        # arguments, and the array branch below uses numpy's
        return -float(np.expm1(-x)) / x
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < SERIES_CUTOFF
    safe = np.maximum(arr, ARG_FLOOR)
    if not small.any():
        return -np.expm1(-safe) / safe
    safe[small] = 1.0
    out = -np.expm1(-safe) / safe
    s = arr[small]
    out[small] = 1.0 - s / 2.0 + s * s / 6.0 - s * s * s / 24.0
    return out


@dataclass(frozen=True)
class DenominatorSpec:
    """The denominator h * phim(h * lambda_fn(y)) of a rate function.

    ``lambda_fn`` may return a negative rate (e.g. the exact logistic
    denominator (exp(2h) - 1)/2 has rate -2).
    """

    lambda_fn: Callable
    label: str = ""


def _as_float_array(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def check_step(h) -> None:
    """Raise NonPositiveStep unless every step size in ``h`` is finite and > 0."""
    if isinstance(h, float):
        ok = 0.0 < h < math.inf
    else:
        hs = np.asarray(h, dtype=float)
        # min/max propagate nan, so any nan fails; no lanes is vacuously fine
        ok = hs.size == 0 or bool(hs.min() > 0.0 and hs.max() < np.inf)
    if not ok:
        raise NonPositiveStep(f"h = {h!r} must be finite and > 0")


def derived_rate(df, fm, beta: float):
    """The derived rate -f'(y) + 2*beta*f_minus(y) from the values df = f'(y)
    and fm = f_minus(y); the one place this expression is written."""
    return -df + 2.0 * beta * fm


def _derived_lambda(problem: ScalarProblem, rep: Representation, beta: float, y):
    values = float if isinstance(y, float) else _as_float_array
    return derived_rate(values(problem.df(y)), values(rep.f_minus(y)), beta)


def lambda_from_scheme(problem: ScalarProblem, rep: Representation, beta: float) -> Callable:
    """The rate function lam(y) = -f'(y) + 2*beta*f_minus(y); a Python float
    for a float state. It is a ``functools.partial`` holding ``(problem,
    rep, beta)``, which ``derived_from`` reads back."""
    return partial(_derived_lambda, problem, rep, beta)


def derived_from(rate: Callable) -> Optional[tuple]:
    """``(problem, rep, beta)`` of a rate function made by
    ``lambda_from_scheme``; None for any other rate function."""
    if isinstance(rate, partial) and rate.func is _derived_lambda:
        return rate.args
    return None


def derived_denominator(
    problem: ScalarProblem, rep: Representation, beta: float, label: str = ""
) -> DenominatorSpec:
    """The order-2 denominator induced by a representation and weight beta."""
    return DenominatorSpec(
        lambda_fn=lambda_from_scheme(problem, rep, beta),
        label=label or f"derived(beta={beta:g})",
    )


def constant_rate(rate: float, label: str = "") -> DenominatorSpec:
    """The state-independent denominator h * phim(h * rate)."""
    return DenominatorSpec(lambda_fn=lambda y: rate, label=label or f"rate({rate:g})")


def phi(spec: DenominatorSpec, h, y):
    """Evaluate the denominator at step size h > 0 and state y.

    ``h`` may be an array broadcastable against ``y`` (used by batched
    property audits where every trajectory carries its own step size). The
    result broadcasts against ``y``: a constant rate with a scalar ``h``
    gives one value for every ``y``. Raises NonPositiveStep unless every h
    is finite and > 0. No step calls it.
    """
    check_step(h)
    return h * phim(h * _as_float_array(spec.lambda_fn(y)))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the (H1)-(H4) checks: a witness string per failure, and
    a note per stable equilibrium where H2 holds vacuously."""

    h1: bool
    h2: bool
    h3: bool
    h4: bool
    witnesses: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.h1 and self.h2 and self.h3 and self.h4

    def __str__(self) -> str:
        lines = [
            f"H1 (positivity, phi = h + O(h^2)): {'pass' if self.h1 else 'FAIL'}",
            f"H2 (stability bound at stable equilibria): {'pass' if self.h2 else 'FAIL'}",
            f"H3 (order-2 condition on d2phi/dh2): {'pass' if self.h3 else 'FAIL'}",
            f"H4 (weights alpha + beta = 1, alpha <= 0 <= beta): {'pass' if self.h4 else 'FAIL'}",
        ]
        lines += [f"  note: {w}" for w in self.witnesses]
        return "\n".join(lines)


def check_H_conditions(
    problem: ScalarProblem,
    rep: Representation,
    config: SchemeConfig,
    spec: DenominatorSpec,
) -> ConditionReport:
    """Audit the four conditions (H1)-(H4) under which the weighted scheme
    is positive, elementary stable and second-order accurate, each for
    every h > 0 at once.

    H1 and H3 read lam once, at ``H_SAMPLES`` states of the domain window.
    H1 (phi > 0, phi/h - 1 = -h*lam/2 + O(h^2)) holds iff lam is finite
    there, as phim is positive and finite for every finite argument. In
    floats phi rounds to 0 only where h*lam overflows to +inf, and to +inf
    only where h*phim(``ARG_FLOOR``) does (h above about 1.2e7). H3 is the
    identity -lam = f' - 2*beta*f_minus to ``H3_RTOL``. H2, phi(h, y*) *
    bracket < 2 with bracket = 2*beta*f_minus(y*) - f'(y*), holds at a
    stable equilibrium iff bracket <= 0 (noted as vacuous) or lam(y*) > 0
    and bracket <= 2*lam(y*); a failure names the smallest failing step
    h* = -log1p(-2*lam/bracket)/lam, or 2/bracket for lam = 0. H4 is exact
    arithmetic on the weights.
    """
    lo, hi = problem.domain_hint
    ys = np.linspace(max(lo, 0.0), hi, H_SAMPLES)
    lam = np.broadcast_to(_as_float_array(spec.lambda_fn(ys)), ys.shape)
    notes: list[str] = []

    # H1: phi is positive and finite wherever lam is finite
    finite = np.isfinite(lam)
    h1 = bool(finite.all())
    if not h1:
        bad = int(np.argmin(finite))
        notes.append(f"H1: lam(y) = {lam[bad]:g} is not finite at y = {ys[bad]:.6g}")

    # H2: phi increases in h towards 1/lam (lam > 0) or without bound
    h2 = True
    for eq in problem.stable_equilibria:
        bracket = 2.0 * config.beta * float(rep.f_minus(eq.y_star)) - eq.derivative_at
        if bracket <= 0.0:
            notes.append(f"H2: vacuous at y* = {eq.y_star:.6g} (2*beta*f_minus - f' = {bracket:.6g} <= 0)")
            continue
        lam_star = float(spec.lambda_fn(eq.y_star))
        if lam_star > 0.0 and bracket <= 2.0 * lam_star:
            continue
        h2 = False
        h_star = -math.log1p(-2.0 * lam_star / bracket) / lam_star if lam_star else 2.0 / bracket
        notes.append(
            f"H2: fails at y* = {eq.y_star:.6g} for h >= {h_star:.6g} "
            f"(2*beta*f_minus - f' = {bracket!r}, lam = {lam_star!r})"
        )

    # H3: d2phi/dh2(0, y) = -lam(y) exactly, so H3 is the identity
    # -lam(y) = f'(y) - 2*beta*f_minus(y), checked on the samples
    target = _as_float_array(problem.df(ys)) - 2.0 * config.beta * _as_float_array(rep.f_minus(ys))
    err = np.abs(-lam - target) / (1.0 + np.abs(target))
    worst = int(np.argmax(err))
    h3 = bool(err[worst] <= H3_RTOL)
    if not h3:
        notes.append(f"H3: d2phi/dh2(0, y) mismatch, relative error {err[worst]:.3e} at y = {ys[worst]:.6g}")

    # H4: exact arithmetic on the weights
    h4 = config.weights_admissible
    if not h4:
        notes.append(f"H4: weights (alpha, beta) = ({config.alpha}, {config.beta}) inadmissible")

    return ConditionReport(h1=h1, h2=h2, h3=h3, h4=h4, witnesses=tuple(notes))
