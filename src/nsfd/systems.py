"""Componentwise positive schemes for systems of ODEs.

A system carries one splitting of its right-hand side, the scalar
``Representation`` with the state in place of y:

    F(x) = f_plus(x) + x * f_minus(x),   f_plus >= 0 >= f_minus,

componentwise, with f_plus and f_minus vectors packed like the state. Each
component is discretized the same way as the scalar method.

A step evaluates F, f_plus, f_minus and, at order 2, the Jacobian once
each at the old state, and updates all components at once with the scalar
weighted update, so the update is fully explicit and each component has a
nonnegative numerator over a denominator >= 1: componentwise nonnegativity
holds for every step size.

The denominators are phi_i = h * phim(h * lambda_i), as in the scalar
method. A plain config has lambda_i = 0, so phi_i = h. The order-2 rates
come from matching the h^2 term of the component map against the chain
rule:

    lambda_i(x) = 2*beta_i*f_minus_i(x) - (grad f_i . F)(x) / f_i(x)

computed for all components together where |f_i| exceeds the constant
NEAR_EQUILIBRIUM_EPS, and zero elsewhere (at points where f_i vanishes both
h^2 coefficients vanish with it). The kernel argument h*lambda_i is clamped
to the constant trust region KERNEL_ARG_CLAMP: lambda_i grows like 1/f_i
near a nullcline crossing, and an unclamped kernel there turns the
denominator into an O(1) amplifier that costs a full order of measured
convergence along orbits that cross nullclines.

A single state of shape (dim,) with a Python-float step size takes a float
path: its components become a tuple of Python floats, the step runs on them
and the result comes back as an array. Lane batches and per-lane step sizes
stay vectorised. Both paths evaluate the same expressions in the same order
(the product J.F comes from one einsum on both), so they agree bit for bit;
where float arithmetic raises (x/0) and numpy returns inf or nan instead,
the step reruns on the array path. So every model callable (F, the
jacobian, the splitting's f_plus and f_minus) is written once for both
inputs: it takes a tuple of floats or a (..., dim) array, unpacks the
components with ``state_parts`` and packs a vector result with ``pack``. It
sticks to arithmetic and numpy ufuncs and never uses Python's ``**``, which
rounds differently from numpy's power on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .denominator import check_step, phim
from .errors import JacobianMissing, NegativeState
from .model import Representation, Trajectory
from .schemes import StepMap, integrate, rk4, weighted_update

#: |f_i| at or below this switches the component rate to zero (phi_i = h)
NEAR_EQUILIBRIUM_EPS = 1e-10

#: trust region for the kernel argument h*lambda_i
KERNEL_ARG_CLAMP = 4.0


def state_parts(state):
    """The components of a state: a tuple of floats as it is, otherwise the
    last-axis slices of the (..., dim) float array."""
    if isinstance(state, tuple):
        return state
    s = np.asarray(state, dtype=float)
    return [s[..., i] for i in range(s.shape[-1])]


def pack(state, values):
    """Component values laid out like ``state``: a tuple for a tuple state,
    otherwise a (..., len(values)) array (constants broadcast). Packing
    packed rows gives a matrix, J[i][j] or J[..., i, j]."""
    if isinstance(state, tuple):
        return tuple(values)
    batch = np.shape(state)[:-1]
    if np.ndim(values[0]) > len(batch):  # packed rows
        return np.stack(values, axis=-2)
    out = np.empty(batch + (len(values),))
    for i, v in enumerate(values):
        out[..., i] = v
    return out


@dataclass(frozen=True)
class SystemProblem:
    name: str
    dim: int
    F: Callable  # state -> dstate/dt
    rep: Representation  # state -> f_plus, f_minus, each packed like the state
    jacobian: Optional[Callable] = None  # state -> (..., dim, dim) matrix, or rows of floats
    conserved: Optional[Callable] = None  # state -> float diagnostic
    equilibria: tuple = ()
    box: tuple[float, float] = (0.0, 10.0)  # sampling box for sign audits


@dataclass(frozen=True)
class SystemSchemeConfig:
    """Per-component weights, alpha_i + beta_i = 1 with alpha_i <= 0 <= beta_i
    (checked on construction), and the denominator choice: phi_i = h, or the
    order-2 denominators when ``second_order`` is set."""

    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    second_order: bool = False
    label: str = ""

    def __post_init__(self):
        for a, b in zip(self.alphas, self.betas):
            if a + b != 1.0 or a > 0.0 or b < 0.0:
                raise ValueError(f"inadmissible component weights ({a}, {b})")
        if len(self.alphas) != len(self.betas):
            raise ValueError("alphas/betas length mismatch")


def validate_components(sys: SystemProblem, n_samples: int = 10_000) -> float:
    """Largest violation of f_plus >= 0 >= f_minus over seeded random states
    in the system's sampling box (0 when the signs hold)."""
    lo, hi = sys.box
    states = np.random.default_rng(0).uniform(lo, hi, size=(n_samples, sys.dim))
    fp = np.asarray(sys.rep.f_plus(states), dtype=float)
    fm = np.asarray(sys.rep.f_minus(states), dtype=float)
    return max(float(np.max(-fp, initial=0.0)), float(np.max(fm, initial=0.0)))


def plain_config(sys: SystemProblem, betas: Optional[tuple] = None, label: str = "plain") -> SystemSchemeConfig:
    """Config with phi_i = h (first-order positive scheme)."""
    betas = betas or tuple(1.0 for _ in range(sys.dim))
    return SystemSchemeConfig(alphas=tuple(1.0 - b for b in betas), betas=tuple(betas), label=label)


def second_order_config(sys: SystemProblem, betas: Optional[tuple] = None,
                        label: str = "nsfd2") -> SystemSchemeConfig:
    """Config with the denominators meeting the componentwise order-2
    matching condition; they need the system's jacobian."""
    if sys.jacobian is None:
        raise JacobianMissing(f"{sys.name}: order-2 denominators need a jacobian")
    return replace(plain_config(sys, betas, label=label), second_order=True)


def second_order_rates(F, J, f_minus, betas):
    """The order-2 rates lambda_i = 2*beta_i*f_minus_i - (J F)_i / F_i of
    every component, zero where |F_i| <= NEAR_EQUILIBRIUM_EPS.

    ``F`` and ``f_minus`` have the state's shape (..., dim) and
    ``J`` has shape (..., dim, dim); or ``F`` is a tuple of floats, ``J`` a
    tuple of rows and the rates come back as a tuple of floats.
    """
    # the float path takes J.F from the same einsum: einsum adds the terms
    # pairwise in SIMD lanes, not left to right, so a float loop would not
    # reproduce its bits
    jf = np.einsum("...ij,...j->...i", J, F)
    if isinstance(F, tuple):
        return tuple(0.0 if abs(F_i) <= NEAR_EQUILIBRIUM_EPS else 2.0 * b * fm_i - jf_i / F_i
                     for F_i, jf_i, fm_i, b in zip(F, jf.tolist(), f_minus, betas))
    with np.errstate(divide="ignore", invalid="ignore"):
        full = 2.0 * np.asarray(betas) * f_minus - jf / F
    return np.where(np.abs(F) <= NEAR_EQUILIBRIUM_EPS, 0.0, full)


def system_nsfd_step(sys: SystemProblem, cfg: SystemSchemeConfig, state, h):
    """One explicit componentwise step; state must be componentwise >= 0 and
    h finite and > 0 (NonPositiveStep otherwise). Components with f_i = 0
    are returned exactly.

    Batched states of shape (..., dim) are supported, with one step size for
    all of them or one per state (``h`` of shape (...,)). A single state of
    shape (dim,) with a float ``h`` takes the float path.
    """
    if isinstance(h, float) and np.shape(state) == (sys.dim,):
        x = tuple(np.asarray(state, dtype=float).tolist())
        if any(-math.inf < v < 0.0 for v in x):  # finite negatives, as below
            raise NegativeState("system state must be componentwise nonnegative")
        check_step(h)
        try:
            return np.array(_float_step(sys, cfg, x, h))
        except (OverflowError, ZeroDivisionError):
            pass  # numpy returns inf/nan here: rerun on the array path
    s = np.asarray(state, dtype=float)
    if np.any(s[np.isfinite(s)] < 0.0):
        raise NegativeState("system state must be componentwise nonnegative")
    check_step(h)
    if np.ndim(h):
        h = np.asarray(h, dtype=float)[..., None]  # one step size per state
    Fv = np.asarray(sys.F(s), dtype=float)
    fp, fm = sys.rep.f_plus(s), sys.rep.f_minus(s)
    lam = 0.0
    if cfg.second_order:
        lam = second_order_rates(Fv, np.asarray(sys.jacobian(s), dtype=float), fm, cfg.betas)
    ph = h * phim(np.clip(h * lam, -KERNEL_ARG_CLAMP, KERNEL_ARG_CLAMP))
    with np.errstate(over="ignore", invalid="ignore"):
        update = weighted_update(s, ph, fp, fm, np.asarray(cfg.alphas), np.asarray(cfg.betas))
        return np.where(Fv == 0.0, s, update)


def _float_step(sys: SystemProblem, cfg: SystemSchemeConfig, x: tuple, h: float) -> list:
    """The array path of ``system_nsfd_step`` component by component on a
    tuple of floats."""
    F = sys.F(x)
    fp, fm = sys.rep.f_plus(x), sys.rep.f_minus(x)
    lams = (0.0,) * sys.dim
    if cfg.second_order:
        lams = second_order_rates(F, sys.jacobian(x), fm, cfg.betas)
    out = []
    for x_i, F_i, fp_i, fm_i, lam, a, b in zip(x, F, fp, fm, lams, cfg.alphas, cfg.betas):
        if F_i == 0.0:
            out.append(x_i)
            continue
        # clip as np.clip does, letting nan through
        arg = min(max(h * lam, -KERNEL_ARG_CLAMP), KERNEL_ARG_CLAMP)
        out.append(weighted_update(x_i, h * phim(arg), fp_i, fm_i, a, b))
    return out


def system_step_map(sys: SystemProblem, cfg: SystemSchemeConfig) -> StepMap:
    return StepMap(label=cfg.label or "system-nsfd",
                   update=lambda s, h: system_nsfd_step(sys, cfg, s, h))


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


def integrate_system(
    sys: SystemProblem,
    cfg: SystemSchemeConfig,
    state0,
    h: float,
    t_end: float,
) -> Trajectory:
    """Fold the componentwise step from t = 0 to t_end at fixed step h."""
    return integrate(system_step_map(sys, cfg), state0, h, t_end, problem_name=sys.name)


def conserved_series(sys: SystemProblem, traj: Trajectory):
    """Per-step values of the system's conserved diagnostic, if any."""
    if sys.conserved is None:
        return None
    return np.asarray(sys.conserved(traj.states), dtype=float)


def reference_system_solution(sys: SystemProblem, state0, h_out: float, t_end: float,
                              substeps: int = 1000) -> Trajectory:
    """Classical fourth-order reference on the output grid (internal step
    h_out/substeps), run on floats: ``sys.F`` receives tuples. The output
    grid is ``integrate``'s, with its contracts on h_out and t_end and its
    warning when t_end is not a multiple of h_out."""
    update = lambda s, h: rk4(sys.F, tuple(map(float, s)), h, substeps)  # noqa: E731
    return integrate(StepMap("reference", update), state0, h_out, t_end, problem_name=sys.name)


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


# ---------------------------------------------------------------------------
# model registry


def lotka_volterra(a: float = 1.0, b: float = 1.0, c: float = 1.0, e: float = 1.0) -> SystemProblem:
    """Predator-prey system x' = ax - bxy, y' = -cy + exy, split as
    f_plus = (ax, exy) and f_minus = (-by, -c)."""

    def F(s):
        x, y = state_parts(s)
        return pack(s, [a * x - b * x * y, -c * y + e * x * y])

    def jac(s):
        x, y = state_parts(s)
        return pack(s, [pack(s, [a - b * y, -b * x]), pack(s, [e * y, e * x - c])])

    def f_plus(s):
        x, y = state_parts(s)
        return pack(s, [a * x, e * x * y])

    def f_minus(s):
        _, y = state_parts(s)
        return pack(s, [-(b * y), -c])

    def conserved(s):
        x, y = state_parts(s)
        with np.errstate(divide="ignore"):
            return e * x - c * np.log(x) + b * y - a * np.log(y)

    return SystemProblem(
        name="lv",
        dim=2,
        F=F,
        rep=Representation(f_plus=f_plus, f_minus=f_minus),
        jacobian=jac,
        conserved=conserved,
        equilibria=(np.array([0.0, 0.0]), np.array([c / e, a / b])),
    )


def sirs(beta: float = 0.3, gamma: float = 0.1, mu: float = 0.05, N: float = 1.0) -> SystemProblem:
    """SIRS compartment model, split as

        S' = mu*R   + S*(-beta*I/N)
        I' = beta*S*I/N + I*(-gamma)
        R' = gamma*I    + R*(-mu)

    Total population is conserved, so equilibria come in lines; the endemic
    point for total N is (gamma*N/beta, I*, gamma*I*/mu) with
    I* = N*(1 - gamma/beta)/(1 + gamma/mu).
    """
    bN = beta / N

    def F(s):
        S, I, R = state_parts(s)
        return pack(s, [mu * R - bN * S * I, bN * S * I - gamma * I, gamma * I - mu * R])

    def jac(s):
        S, I, _ = state_parts(s)
        return pack(s, [pack(s, [-bN * I, -bN * S, mu]),
                        pack(s, [bN * I, bN * S - gamma, 0.0]),
                        pack(s, [0.0, gamma, -mu])])

    def f_plus(s):
        S, I, R = state_parts(s)
        return pack(s, [mu * R, bN * S * I, gamma * I])

    def f_minus(s):
        _, I, _ = state_parts(s)
        return pack(s, [-bN * I, -gamma, -mu])

    def conserved(s):
        S, I, R = state_parts(s)
        return S + I + R

    i_star = N * (1.0 - gamma / beta) / (1.0 + gamma / mu)
    endemic = np.array([gamma * N / beta, i_star, gamma * i_star / mu])

    return SystemProblem(
        name="sirs",
        dim=3,
        F=F,
        rep=Representation(f_plus=f_plus, f_minus=f_minus),
        jacobian=jac,
        conserved=conserved,
        equilibria=(endemic,),
    )


_SYSTEM_FACTORIES = {"lv": lotka_volterra, "sirs": sirs}


def get_system(name: str, **params) -> SystemProblem:
    if name not in _SYSTEM_FACTORIES:
        raise KeyError(f"unknown system {name!r}; choose from {sorted(_SYSTEM_FACTORIES)}")
    return _SYSTEM_FACTORIES[name](**params)


def system_names() -> list[str]:
    return sorted(_SYSTEM_FACTORIES)


#: default start states for the benchmark runs
DEFAULT_STARTS = {"lv": (2.0, 0.5), "sirs": (0.9, 0.1, 0.0)}
