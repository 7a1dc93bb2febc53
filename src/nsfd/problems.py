"""Registry of the benchmark scalar problems and their named schemes.

Problems: logistic, cubic, sine, monod (mu = ``MONOD_MU`` = 2), powerlaw
(``POWERLAW_PARAMS``: a = 1, b = 1, m = 4). Each carries a hand-written
representation f = f_plus + y*f_minus; the automatic splitter can reproduce
or replace these but the registry pins the forms the named schemes are
defined with.

Scheme labels follow the comparison experiments: the "*-printed" variants
carry the denominators as printed in the source displays (they satisfy the
negated order-2 condition and integrate at first order); the plain variants
use derived denominators and integrate at second order. A weighted scheme
carries its denominator as a rate function (``SchemeBundle.spec``): the
derived rate unless a printed or constant rate is given. Baselines "euler"
and "rk2" make no positivity or stability claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional

import numpy as np

from .denominator import constant_rate, derived_denominator
from .model import (
    Representation,
    ScalarProblem,
    SchemeConfig,
    register_problem,
    with_equilibria,
)
from .schemes import (
    StepMap,
    euler_map,
    mickens_cubic_map,
    mickens_sine_map,
    nsfd_step_map,
    rk2_map,
    wood_map,
)

MONOD_MU = 2.0
POWERLAW_PARAMS = dict(a=1.0, b=1.0, m=4)


def _logistic() -> ScalarProblem:
    def exact(t, y0):
        t = np.asarray(t, dtype=float)
        return 2.0 * y0 / (y0 + (2.0 - y0) * np.exp(-2.0 * t))

    return with_equilibria(register_problem(ScalarProblem(
        name="logistic",
        f=lambda y: 2.0 * y - y * y,
        df=lambda y: 2.0 - 2.0 * y,
        domain_hint=(0.0, 10.0),
        exact_solution=exact,
    )))


def _cubic() -> ScalarProblem:
    def exact(t, y0):
        t = np.asarray(t, dtype=float)
        em = np.exp(-2.0 * t)
        return y0 / np.sqrt(em + y0 * y0 * (1.0 - em))

    return with_equilibria(register_problem(ScalarProblem(
        name="cubic",
        f=lambda y: y * (1.0 - y * y),
        df=lambda y: 1.0 - 3.0 * y * y,
        domain_hint=(0.0, 10.0),
        exact_solution=exact,
    )))


def _sine() -> ScalarProblem:
    return with_equilibria(register_problem(ScalarProblem(
        name="sine",
        f=lambda y: np.sin(np.pi * y),
        df=lambda y: np.pi * np.cos(np.pi * y),
        domain_hint=(0.0, 3.5),
    )))


def _monod(mu: float = MONOD_MU) -> ScalarProblem:
    return with_equilibria(register_problem(ScalarProblem(
        name="monod",
        f=lambda y: ((mu - 1.0) * y - (mu + 1.0) * y * y) / (1.0 + y),
        # a product, not ** 2: the float step path hands df Python floats,
        # whose ** rounds differently from numpy's square
        df=lambda y: (((mu - 1.0) - 2.0 * (mu + 1.0) * y - (mu + 1.0) * y * y)
                      / ((1.0 + y) * (1.0 + y))),
        domain_hint=(0.0, 10.0),
    )))


def _powerlaw(a: float, b: float, m: int) -> ScalarProblem:
    def exact(t, y0):
        # Bernoulli substitution u = y^{1-m}: u' = (1-m)(a u - b)
        t = np.asarray(t, dtype=float)
        if y0 == 0.0:
            return np.zeros_like(t)
        u0 = y0 ** (1 - m)
        u = b / a + (u0 - b / a) * np.exp(-(m - 1) * a * t)
        return u ** (1.0 / (1 - m))

    return with_equilibria(register_problem(ScalarProblem(
        name="powerlaw",
        f=lambda y: a * y - b * y**m,
        # np.power, as in the array path: the float step path hands df Python
        # floats, whose ** rounds differently. f keeps **: the weighted
        # scheme only tests it for zero, and the Euler/RK2 float results (so
        # the `nsfd run` CSVs) are those of Python's **.
        df=lambda y: a - b * m * np.power(y, m - 1),
        domain_hint=(0.0, 10.0),
        exact_solution=exact,
    )))


_PROBLEM_FACTORIES = {
    "logistic": _logistic,
    "cubic": _cubic,
    "sine": _sine,
    "monod": _monod,
    "powerlaw": partial(_powerlaw, **POWERLAW_PARAMS),
}


@cache
def get_problem(name: str) -> ScalarProblem:
    """The registry problem ``name``, built once: every call returns the
    same record."""
    if name not in _PROBLEM_FACTORIES:
        raise KeyError(f"unknown problem {name!r}; choose from {sorted(_PROBLEM_FACTORIES)}")
    return _PROBLEM_FACTORIES[name]()


def problem_names() -> list[str]:
    return sorted(_PROBLEM_FACTORIES)


@dataclass(frozen=True)
class SchemeBundle:
    """A named scheme for one problem, with whatever structure it exposes;
    its name is its registry key, and ``step.label``.

    ``rep``/``config``/``spec`` are populated for schemes in the non-local
    weighted family (enabling the condition checks), ``spec`` being the
    rate function lam of the denominator h * phim(h * lam(y)); step-only
    baselines leave them None. ``positive``/``elementary_stable`` mark
    which audits the scheme is claimed to pass.
    """

    step: StepMap
    rep: Optional[Representation] = None
    config: Optional[SchemeConfig] = None
    spec: Optional[Callable] = None
    positive: bool = False
    elementary_stable: bool = False


def _family_bundle(
    problem: ScalarProblem,
    label: str,
    rep: Representation,
    beta: float,
    spec: Optional[Callable] = None,
) -> SchemeBundle:
    """A weighted scheme with rate function ``spec``, by default the rate
    derived from ``problem``, ``rep`` and ``beta``."""
    config = SchemeConfig(alpha=1.0 - beta, beta=beta, label=label)
    spec = derived_denominator(problem, rep, beta) if spec is None else spec
    return SchemeBundle(
        step=nsfd_step_map(problem, rep, config, spec),
        rep=rep,
        config=config,
        spec=spec,
        positive=True,
        elementary_stable=True,
    )


def _logistic_bundles(p: ScalarProblem) -> dict[str, SchemeBundle]:
    rep_linear = Representation(f_plus=lambda y: 2.0 * y, f_minus=lambda y: -y)
    rep_quad = Representation(f_plus=lambda y: 2.0 * y + y * y, f_minus=lambda y: -2.0 * y)
    out = {
        "snsfd1": _family_bundle(p, "snsfd1", rep_linear, beta=1.25),
        "snsfd2": _family_bundle(p, "snsfd2", rep_quad, beta=1.25),
        # beta = 1: the derived denominator is the constant (e^{2h} - 1)/2,
        # and the scheme reproduces the exact flow
        "snsfd3": _family_bundle(p, "snsfd3", rep_linear, beta=1.0),
        "snsfd3-printed": _family_bundle(
            p, "snsfd3-printed", rep_linear, beta=1.0, spec=constant_rate(2.0)),
        # branching, first order
        "wood": SchemeBundle(
            step=wood_map(),
            rep=rep_linear,
            config=SchemeConfig(alpha=1.0, beta=0.0, label="wood", validate=False),
            spec=constant_rate(1.0),
            positive=True,
            elementary_stable=True,
        ),
    }
    return out


def _cubic_bundles(p: ScalarProblem) -> dict[str, SchemeBundle]:
    rep = Representation(f_plus=lambda y: y, f_minus=lambda y: -(y * y))
    return {
        # derived phi = e^h - 1
        "nsfd": _family_bundle(p, "nsfd", rep, beta=1.5),
        "nsfd-printed": _family_bundle(p, "nsfd-printed", rep, beta=1.5, spec=constant_rate(1.0)),
        "mickens": SchemeBundle(step=mickens_cubic_map(), positive=True, elementary_stable=True),
    }


def _sine_bundles(p: ScalarProblem) -> dict[str, SchemeBundle]:
    rep = Representation(
        f_plus=lambda y: np.sin(np.pi * y) + np.pi * y,
        f_minus=lambda y: np.full_like(y, -np.pi, dtype=float),
    )
    printed_lambda = lambda y: np.pi * np.cos(np.pi * y) - 2.0 * np.pi  # noqa: E731
    return {
        "nsfd": _family_bundle(p, "nsfd", rep, beta=1.0),
        "nsfd-printed": _family_bundle(p, "nsfd-printed", rep, beta=1.0, spec=printed_lambda),
        "mickens": SchemeBundle(step=mickens_sine_map(), positive=True, elementary_stable=True),
    }


def _monod_bundles(p: ScalarProblem) -> dict[str, SchemeBundle]:
    mu = MONOD_MU
    rep = Representation(
        f_plus=lambda y: (mu - 1.0) * y / (1.0 + y),
        f_minus=lambda y: -(mu + 1.0) * y / (1.0 + y),
    )
    printed_rate = lambda y: (mu + 1.0) * (1.0 + 3.0 * y) / (1.0 + y)  # noqa: E731
    return {
        "nsfd": _family_bundle(p, "nsfd", rep, beta=1.0),
        "nsfd-printed": _family_bundle(p, "nsfd-printed", rep, beta=1.0, spec=printed_rate),
        # Mickens' first-order Monod scheme is this weighted update with a
        # constant rate
        "mickens": _family_bundle(p, "mickens", rep, beta=1.0, spec=constant_rate(mu - 1.0)),
    }


def _powerlaw_bundles(p: ScalarProblem) -> dict[str, SchemeBundle]:
    a, b, m = POWERLAW_PARAMS["a"], POWERLAW_PARAMS["b"], POWERLAW_PARAMS["m"]
    # at beta = 1 the update solves the one-sided form
    # (y1 - y)/phi = a*y - b*(1 - m/2)*y^m - b*(m/2)*y^{m-1}*y1
    rep = Representation(
        f_plus=lambda y: a * y - b * (1.0 - m / 2.0) * np.power(y, m),
        f_minus=lambda y: -b * (m / 2.0) * np.power(y, m - 1),
    )
    return {
        "nsfd": _family_bundle(p, "nsfd", rep, beta=1.0),
        "nsfd-printed": _family_bundle(p, "nsfd-printed", rep, beta=1.0, spec=constant_rate(a)),
    }


_BUNDLE_FACTORIES = {
    "logistic": _logistic_bundles,
    "cubic": _cubic_bundles,
    "sine": _sine_bundles,
    "monod": _monod_bundles,
    "powerlaw": _powerlaw_bundles,
}


@cache
def scheme_bundles(problem_name: str) -> dict[str, SchemeBundle]:
    """All named schemes for a problem, baselines included, built once."""
    p = get_problem(problem_name)
    bundles = _BUNDLE_FACTORIES[problem_name](p)
    bundles["euler"] = SchemeBundle(step=euler_map(p))
    bundles["rk2"] = SchemeBundle(step=rk2_map(p))
    return bundles


def get_scheme(problem_name: str, label: str) -> SchemeBundle:
    bundles = scheme_bundles(problem_name)
    if label not in bundles:
        raise KeyError(
            f"unknown scheme {label!r} for {problem_name!r}; choose from {sorted(bundles)}"
        )
    return bundles[label]
