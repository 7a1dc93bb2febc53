"""Core domain records: problems, equilibria, representations, scheme
configurations and trajectories.

Everything here is immutable after construction and safe to share across
threads. Right-hand sides must be vectorized callables (numpy ufunc
arithmetic), evaluated on nonnegative states.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DerivativeMismatch, NegativeAtZero, NonHyperbolicWarning
from .rootfind import scan_zeros

#: hyperbolicity tolerance: |f'(y*)| at or below this is treated as zero
TOL_HYP = 1e-10

#: ``register_problem`` compares df with a central difference of f of this
#: half-width at this many states of the domain window
DERIVATIVE_EPS = 1e-6
DERIVATIVE_SAMPLES = 1000


@dataclass(frozen=True)
class Equilibrium:
    """A root y* of f with its linearization f'(y*) and stability type."""

    y_star: float
    derivative_at: float
    classification: str = field(init=False)

    def __post_init__(self):
        if self.derivative_at < -TOL_HYP:
            cls = "stable"
        elif self.derivative_at > TOL_HYP:
            cls = "unstable"
        else:
            cls = "non_hyperbolic"
        object.__setattr__(self, "classification", cls)

    @property
    def is_stable(self) -> bool:
        return self.classification == "stable"

    @property
    def is_hyperbolic(self) -> bool:
        return self.classification != "non_hyperbolic"


@dataclass(frozen=True)
class ScalarProblem:
    """An autonomous scalar ODE y' = f(y) on a finite sampling window.

    ``domain_hint`` is mandatory: the theory lives on all of R+, but
    sampling, root search and audits need a finite window that contains
    every equilibrium and the sign structure around it.
    """

    name: str
    f: Callable
    df: Callable
    domain_hint: tuple[float, float]
    equilibria: tuple[Equilibrium, ...] = ()
    exact_solution: Optional[Callable] = None
    f0_nonneg: bool = True

    @property
    def stable_equilibria(self) -> tuple[Equilibrium, ...]:
        return tuple(e for e in self.equilibria if e.is_stable)


def _check_derivative(problem: ScalarProblem) -> None:
    lo, hi = problem.domain_hint
    ys = np.linspace(lo, hi, DERIVATIVE_SAMPLES)
    claimed = np.asarray(problem.df(ys), dtype=float)
    fd = (np.asarray(problem.f(ys + DERIVATIVE_EPS), dtype=float)
          - np.asarray(problem.f(ys - DERIVATIVE_EPS), dtype=float)) / (2.0 * DERIVATIVE_EPS)
    bad = np.abs(claimed - fd) > 1e-6 * (1.0 + np.abs(claimed))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DerivativeMismatch(
            f"{problem.name}: df({ys[i]:.6g}) = {claimed[i]:.6g} but central "
            f"difference gives {fd[i]:.6g}"
        )


def register_problem(spec: ScalarProblem) -> ScalarProblem:
    """Validate a problem record and return it.

    Checks that df matches a central-difference probe of f on the domain
    and, when ``f0_nonneg`` is asserted, that f(0) >= 0. Registration is
    idempotent: the same spec always yields an equal record.
    """
    lo, hi = spec.domain_hint
    if not hi > lo:
        raise ValueError(f"{spec.name}: empty domain_hint {spec.domain_hint}")
    if spec.f0_nonneg and float(spec.f(0.0)) < 0.0:
        raise NegativeAtZero(f"{spec.name}: f(0) = {float(spec.f(0.0)):.6g} < 0")
    _check_derivative(spec)
    return spec


def classify_equilibria(problem: ScalarProblem) -> list[Equilibrium]:
    """Locate every root of f in the domain window and classify it by the
    sign of f'(y*). Non-hyperbolic points are flagged with a warning but
    still returned.
    """
    lo, hi = problem.domain_hint
    out = []
    for root in scan_zeros(problem.f, lo, hi):
        eq = Equilibrium(y_star=root, derivative_at=float(problem.df(root)))
        if not eq.is_hyperbolic:
            warnings.warn(
                f"{problem.name}: equilibrium y* = {root:.6g} is non-hyperbolic "
                f"(f'(y*) = {eq.derivative_at:.3g})",
                NonHyperbolicWarning,
                stacklevel=2,
            )
        out.append(eq)
    return out


def with_equilibria(problem: ScalarProblem) -> ScalarProblem:
    """Problem record with its equilibria computed and attached."""
    return replace(problem, equilibria=tuple(classify_equilibria(problem)))


@dataclass(frozen=True)
class Representation:
    """A splitting f(y) = f_plus(y) + y * f_minus(y) with f_plus >= 0 and
    f_minus <= 0 on nonnegative states.

    The callables take y, or for a system a tuple of components and return
    one, so that F(x) = f_plus(x) + x * f_minus(x) componentwise.
    """

    f_plus: Callable
    f_minus: Callable
    provenance: str = "manual"  # manual | auto_theorem1


@dataclass(frozen=True)
class SchemeConfig:
    """Non-local weighting (alpha, beta); the denominator spec is passed
    alongside it.

    Construction enforces alpha + beta = 1, alpha <= 0, beta >= 0 in exact
    arithmetic. Pass ``validate=False`` only to build deliberately broken
    configurations for audit exercises.
    """

    alpha: float
    beta: float
    label: str = ""
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if validate:
            if self.alpha + self.beta != 1.0:
                raise ValueError(f"alpha + beta = {self.alpha + self.beta!r}, must be exactly 1")
            if self.alpha > 0.0 or self.beta < 0.0:
                raise ValueError(f"need alpha <= 0 <= beta, got ({self.alpha}, {self.beta})")

    @property
    def weights_admissible(self) -> bool:
        return self.alpha + self.beta == 1.0 and self.alpha <= 0.0 and self.beta >= 0.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Numerical solution on the uniform grid t_k = k*h, with provenance
    metadata: row k of ``states`` is the state at t_k.

    ``states`` has shape (n,) for scalar problems or (n, dim) for systems.
    """

    states: np.ndarray
    scheme_label: str
    problem_name: str
    h: float

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states, float))

    @property
    def times(self) -> np.ndarray:
        """The grid t_k = k*h, one time per state, built on each call."""
        return np.arange(len(self.states), dtype=float) * self.h

    @property
    def final_time(self) -> float:
        return float(len(self.states) - 1) * self.h

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def min_state(self) -> float:
        return float(np.min(self.states))

    @property
    def negative_count(self) -> int:
        """Number of grid entries that violate nonnegativity."""
        return int(np.sum(self.states < 0.0))
