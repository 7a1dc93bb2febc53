"""Controls and probes for the systems tests: the explicit Euler control and
the step-map spectral radius at an equilibrium.

The spectral radius rests on a central-difference (secant) Jacobian of the
one-step map, which is not differentiable at its equilibria (the order-2
rate's limit there depends on the direction), so it is a probe for tests,
not a library claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nsfd.denominator import check_step
from nsfd.schemes import StepMap
from nsfd.systems import SystemProblem, SystemSchemeConfig, system_nsfd_step


def euler_system_map(sys: SystemProblem) -> StepMap:
    """Explicit Euler control; like ``system_nsfd_step`` it takes one step
    size for all states or one per state (``h`` of shape (...,)), each
    finite and > 0 (NonPositiveStep otherwise)."""

    def update(s, h):
        check_step(h)
        if np.ndim(h):
            h = np.asarray(h, dtype=float)[..., None]
        return np.asarray(s, float) + h * np.asarray(sys.F(s), float)

    return StepMap(label="euler", update=update)


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
