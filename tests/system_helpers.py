"""Controls and probes for the systems tests: model callables on (..., dim)
lane arrays, the explicit Euler control, the step-map spectral radius at an
equilibrium, and the RK4 loop over zipped tuples that the generated oracle
loop is checked against.

The spectral radius rests on a central-difference (secant) Jacobian of the
one-step map, which is not differentiable at its equilibria (the order-2
rate's limit there depends on the direction), so it is a probe for tests,
not a library claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from nsfd.denominator import check_step
from nsfd.schemes import StepMap
from nsfd.systems import SystemProblem, SystemSchemeConfig, system_nsfd_step


def on_lanes(fn: Callable, *arrays) -> np.ndarray:
    """A model callable on (..., dim) arrays (the state, and v for a
    jacobian), called with their component lanes as the model contract
    asks; its component values come back stacked along the last axis."""
    values = fn(*(tuple(np.moveaxis(np.asarray(a, dtype=float), -1, 0)) for a in arrays))
    return np.stack(np.broadcast_arrays(*values), axis=-1)


def euler_system_map(sys: SystemProblem) -> StepMap:
    """Explicit Euler control; like ``system_nsfd_step`` it takes one step
    size for all states or one per state (``h`` of shape (...,)), each
    finite and > 0 (NonPositiveStep otherwise)."""

    def update(s, h):
        check_step(h)
        if np.ndim(h):
            h = np.asarray(h, dtype=float)[..., None]
        return np.asarray(s, float) + h * on_lanes(sys.F, s)

    return StepMap(label="euler", update=update)


def rk4_reference(F: Callable, y0: tuple, t_end: float, n: int) -> tuple:
    """``nsfd.schemes.rk4`` as one loop for every dimension: each stage
    zips the state with the previous stage's values into a new tuple. (zip
    stops at the shorter tuple, so an F with too few values goes unnoticed
    here.)"""
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


def step_map_jacobian(sys: SystemProblem, cfg: SystemSchemeConfig, state, h: float,
                      eps: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of the one-step map at ``state``."""
    s = np.asarray(state, dtype=float)
    J = np.empty((sys.dim, sys.dim))
    for j in range(sys.dim):
        e = np.zeros(sys.dim)
        e[j] = eps * max(1.0, abs(s[j]))
        J[:, j] = (system_nsfd_step(sys, cfg, s + e, h) - system_nsfd_step(sys, cfg, s - e, h)) / (2 * e[j])
    return J


@dataclass(frozen=True)
class StabilityThresholdRow:
    h: float
    rho_full: float
    rho_transverse: float


def stability_thresholds(
    sys: SystemProblem,
    cfg: SystemSchemeConfig,
    equilibrium,
    h_grid,
    fixed_line_tangent=None,
) -> list[StabilityThresholdRow]:
    """Spectral radius of the step-map Jacobian at an equilibrium over a
    step grid.

    When the equilibrium sits on a line of equilibria (``fixed_line_tangent``
    given), the map fixes the whole line, so one eigenvalue equals 1
    structurally; ``rho_transverse`` excludes the eigenvalue whose
    eigenvector aligns best with the tangent.
    """
    rows = []
    for h in h_grid:
        J = step_map_jacobian(sys, cfg, equilibrium, float(h))
        vals, vecs = np.linalg.eig(J)
        rho_full = float(np.max(np.abs(vals)))
        if fixed_line_tangent is None:
            rho_t = rho_full
        else:
            t = np.asarray(fixed_line_tangent, float)
            t = t / np.linalg.norm(t)
            align = [abs(np.vdot(t, vecs[:, k] / np.linalg.norm(vecs[:, k]))) for k in range(sys.dim)]
            drop = int(np.argmax(align))
            keep = [k for k in range(sys.dim) if k != drop]
            rho_t = float(np.max(np.abs(vals[keep])))
        rows.append(StabilityThresholdRow(h=float(h), rho_full=rho_full, rho_transverse=rho_t))
    return rows
