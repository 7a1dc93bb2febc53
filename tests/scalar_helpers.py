"""The weighted scalar step composed from the library's functions, the
reference that the generated float loop of ``nsfd_step_map`` is checked
against, as ``system_helpers.rk4_reference`` is for the generated RK4 loop.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from nsfd.denominator import phim
from nsfd.model import Representation, ScalarProblem, SchemeConfig
from nsfd.schemes import weighted_step


def weighted_reference(problem: ScalarProblem, rep: Representation, config: SchemeConfig,
                       spec: Callable, rerun: Callable) -> Callable:
    """One step ``step(y, h)`` of the weighted scheme on Python floats, as
    the composition ``weighted_step(y, f(y), h * phim(h * lam),
    float(f_plus(y)), fm, alpha, beta)`` with fm = float(f_minus(y)) and
    lam = float(spec(y)). A step whose float arithmetic raises returns
    ``rerun(y, h)``. It checks no sign: give it states >= 0 or nan."""
    f, f_plus, f_minus = problem.f, rep.f_plus, rep.f_minus

    def step(y: float, h: float) -> float:
        try:
            fm = float(f_minus(y))
            lam = float(spec(y))
            return weighted_step(y, f(y), h * phim(h * lam), float(f_plus(y)), fm,
                                 config.alpha, config.beta)
        except (OverflowError, ZeroDivisionError):
            return rerun(y, h)

    return step


def reference_states(step: Callable, y0: float, h: float, n: int) -> np.ndarray:
    """The states of n calls of ``step`` from y0, y0 first."""
    y, rows = y0, [y0]
    for _ in range(n):
        y = step(y, h)
        rows.append(y)
    return np.array(rows, dtype=float)
