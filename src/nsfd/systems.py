"""Componentwise positive schemes for systems of ODEs.

A system carries one splitting of its right-hand side, the scalar
``Representation`` with the state in place of y:

    F(x) = f_plus(x) + x * f_minus(x),   f_plus >= 0 >= f_minus,

componentwise. Each component is discretized the same way as the scalar
method.

A step evaluates F, f_plus, f_minus and, at order 2, the product J.F of
the Jacobian with F once each at the old state, and updates all components
at once with the scalar step ``schemes.weighted_step``, so the update is
fully explicit and each component has a nonnegative numerator over a
denominator >= 1: componentwise nonnegativity holds for every step size.

The denominators are phi_i = h * phim(h * lambda_i), as in the scalar
method. A plain config has lambda_i = 0, so phi_i = h. The order-2 rates
come from matching the h^2 term of the component map against the chain
rule:

    lambda_i(x) = 2*beta_i*f_minus_i(x) - (J(x) F(x))_i / F_i(x)

computed for all components together where |F_i| exceeds the constant
NEAR_EQUILIBRIUM_EPS, and zero elsewhere (at points where F_i vanishes both
h^2 coefficients vanish with it). Only the product J.F enters, so a system
supplies its Jacobian as a linear map, ``jacobian(state, v) -> J(state).v``,
and never builds the matrix. The model writes out the terms of each row and
the order in which they are added, so the bits of the product are plain
IEEE arithmetic, the same on every numpy build. The kernel argument
h*lambda_i is clamped to the constant trust region KERNEL_ARG_CLAMP:
lambda_i grows like 1/F_i near a nullcline crossing, and an unclamped
kernel there turns the denominator into an O(1) amplifier that costs a
full order of measured convergence along orbits that cross nullclines.

The model contract is component tuples: every model callable (F, the
splitting's f_plus and f_minus, ``jacobian(x, v)`` and ``conserved``) takes
the state as a tuple of components and returns a tuple of components (a
float for ``conserved``). A component is a Python float for one state and a
lane array for a batch; a constant may stay a float. A model is written
once for both, e.g. ``x, y = s; return (a * x - b * x * y, ...)``, with
arithmetic and numpy ufuncs only: Python's ``**`` rounds differently from
numpy's power on floats.

``system_step_map`` binds a system and config once. A single state with a
Python-float step size takes the float path, one pass over the components
with the rate of ``second_order_rates`` and the clamp written as two
comparisons (nan passes, signed zeros keep their sign, as with the array
path's maximum and minimum): a tuple of floats comes back as a tuple, an
array of shape (dim,) as an array. Where float arithmetic raises (x/0), the
step reruns on the array path, which returns numpy's inf or nan. The array
path hands the models the component lanes of a (..., dim) state and runs
the rates, kernel and weighted step on the (dim, ...) stack of their
values. Both paths agree bit for bit, except that the sign of a float-path
nan is not reproducible, so bit comparisons treat any nan as nan. A state
without ``dim`` components raises ``DimensionMismatch``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .denominator import check_step, phim
from .errors import DimensionMismatch, JacobianMissing, NegativeState
from .model import Representation, Trajectory
from .schemes import StepMap, integrate, rk4, weighted_step, weighted_step_array

#: |f_i| at or below this switches the component rate to zero (phi_i = h)
NEAR_EQUILIBRIUM_EPS = 1e-10

#: trust region for the kernel argument h*lambda_i
KERNEL_ARG_CLAMP = 4.0


@dataclass(frozen=True)
class SystemProblem:
    name: str
    dim: int
    # every callable takes and returns component tuples (see the module docstring)
    F: Callable  # state -> dstate/dt
    rep: Representation  # state -> f_plus, f_minus
    jacobian: Optional[Callable] = None  # (state, v) -> J(state).v: the Jacobian as a linear map
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


def plain_config(sys: SystemProblem, betas: Optional[tuple] = None, label: str = "plain") -> SystemSchemeConfig:
    """Config with phi_i = h (first-order positive scheme)."""
    betas = betas or tuple(1.0 for _ in range(sys.dim))
    return SystemSchemeConfig(alphas=tuple(1.0 - b for b in betas), betas=tuple(betas), label=label)


def second_order_config(sys: SystemProblem, betas: Optional[tuple] = None,
                        label: str = "nsfd2") -> SystemSchemeConfig:
    """Config with the denominators meeting the componentwise order-2
    matching condition; they need the system's jacobian, called as
    ``jacobian(state, v)`` (JacobianMissing when it is absent or cannot take
    two positional arguments, such as a matrix-valued ``jacobian(state)``)."""
    try:
        inspect.signature(sys.jacobian).bind(None, None)
    except TypeError:  # no jacobian, or one that takes the state alone
        raise JacobianMissing(f"{sys.name}: order-2 denominators need "
                              "jacobian(state, v) -> J(state).v") from None
    return replace(plain_config(sys, betas, label=label), second_order=True)


def second_order_rates(F, JF, f_minus, betas):
    """The order-2 rates lambda_i = 2*beta_i*f_minus_i - (J F)_i / F_i of
    every component, zero where |F_i| <= NEAR_EQUILIBRIUM_EPS, as an array.

    ``F``, the product ``JF`` = J.F and ``f_minus`` are tuples of components
    or arrays of shape (dim, ...), like the result. The float path writes the
    same rate per component in ``system_step_map``.
    """
    F = np.asarray(F, dtype=float)
    column = np.reshape(betas, (-1,) + (1,) * (F.ndim - 1))  # beta_i along the lanes
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        full = 2.0 * column * f_minus - np.divide(JF, F)
    return np.where(np.abs(F) <= NEAR_EQUILIBRIUM_EPS, 0.0, full)


def _stacked(components, lanes: tuple) -> np.ndarray:
    """A tuple of components as one (dim,) + lanes array (a float component
    is broadcast over the lanes)."""
    out = np.empty((len(components),) + lanes)
    for i, v in enumerate(components):
        out[i] = v
    return out


def _dimension_mismatch(sys: SystemProblem, shape: tuple) -> DimensionMismatch:
    return DimensionMismatch(f"{sys.name} has dim = {sys.dim}: got a state of shape {shape}")


def system_nsfd_step(sys: SystemProblem, cfg: SystemSchemeConfig, state, h):
    """One explicit componentwise step: ``system_step_map(sys, cfg).update``."""
    return system_step_map(sys, cfg).update(state, h)


def system_step_map(sys: SystemProblem, cfg: SystemSchemeConfig) -> StepMap:
    """The componentwise scheme as a step map, bound once: the model
    callables, the (alpha_i, beta_i) pairs and the order flag.

    ``update(state, h)`` needs ``sys.dim`` components along the state's last
    axis (DimensionMismatch), components >= 0 (NegativeState for a finite
    negative one) and h finite and > 0 (NonPositiveStep). Components with
    F_i = 0 are returned exactly. A batch of shape (..., dim) takes one step
    size or one per state (``h`` of shape (...,), broadcast over the lane
    axes only).
    """
    F, f_plus, f_minus, jvp = sys.F, sys.rep.f_plus, sys.rep.f_minus, sys.jacobian
    dim, second_order = sys.dim, cfg.second_order
    pairs = tuple(zip(cfg.alphas, cfg.betas))
    alphas, betas = np.array(cfg.alphas), np.array(cfg.betas)
    eps, clamp = NEAR_EQUILIBRIUM_EPS, KERNEL_ARG_CLAMP

    def update(state, h):
        if isinstance(h, float):
            h = float(h)  # numpy float scalars are floats too
            x = None
            if isinstance(state, tuple):
                if len(state) != dim:
                    raise _dimension_mismatch(sys, np.shape(state))
                if isinstance(state[0], float):
                    x = state
            elif np.shape(state) == (dim,):
                x = tuple(np.asarray(state, dtype=float).tolist())
            if x is not None:
                # finite negatives only, as below; a min >= 0 rules them out
                # in one call (a nan met first fails it and the scan decides)
                if not min(x) >= 0.0 and any(-math.inf < v < 0.0 for v in x):
                    raise NegativeState("system state must be componentwise nonnegative")
                if not 0.0 < h < math.inf:
                    check_step(h)  # raises NonPositiveStep
                try:
                    Fx, fp, fm = F(x), f_plus(x), f_minus(x)
                    jf = jvp(x, Fx) if second_order else Fx
                    out = []
                    for x_i, F_i, fp_i, fm_i, jf_i, (a, b) in zip(x, Fx, fp, fm, jf, pairs):
                        arg = 0.0
                        if second_order and not -eps <= F_i <= eps:
                            arg = h * (2.0 * b * fm_i - jf_i / F_i)
                            if arg > clamp:
                                arg = clamp
                            elif arg < -clamp:
                                arg = -clamp
                        out.append(weighted_step(x_i, F_i, h * phim(arg), fp_i, fm_i, a, b))
                    return tuple(out) if x is state else np.array(out)
                except (OverflowError, ZeroDivisionError):
                    pass  # numpy returns inf/nan here: rerun on the array path
        s = np.asarray(state, dtype=float)
        if s.ndim == 0 or s.shape[-1] != dim:
            raise _dimension_mismatch(sys, s.shape)
        # finite negatives only; the lowest component (fmin skips nan) rules
        # out the common case in one reduction
        if (np.fmin.reduce(s, axis=None, initial=np.inf) < 0.0
                and np.any(s[np.isfinite(s)] < 0.0)):
            raise NegativeState("system state must be componentwise nonnegative")
        check_step(h)
        lanes = s.shape[:-1]
        if np.ndim(h) and np.shape(h) != lanes:
            # per-lane step sizes pair with the lanes, never with the components
            lanes = np.broadcast_shapes(lanes, np.shape(h))
            s = np.broadcast_to(s, lanes + (dim,))
        x = np.moveaxis(s, -1, 0)  # (dim,) + lanes; x[i] is component i's lanes
        parts = tuple(x)
        Fx, fp, fm = F(parts), f_plus(parts), f_minus(parts)
        jf = jvp(parts, Fx) if second_order else None
        Fv, fp, fm = _stacked(Fx, lanes), _stacked(fp, lanes), _stacked(fm, lanes)
        column = (dim,) + (1,) * len(lanes)  # a weight along the lanes
        # silent where numpy returns inf or nan, as float arithmetic is
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lam = second_order_rates(Fv, _stacked(jf, lanes), fm, betas) if second_order else 0.0
            # np.clip's bounds as np.maximum then np.minimum (nan passes through)
            ph = h * phim(np.minimum(np.maximum(h * lam, -clamp), clamp))
        out = np.moveaxis(weighted_step_array(x, Fv, ph, fp, fm, alphas.reshape(column),
                                              betas.reshape(column)), 0, -1)
        return tuple(out.tolist()) if isinstance(state, tuple) and out.ndim == 1 else out

    return StepMap(label=cfg.label or "system-nsfd", update=update)


def integrate_system(
    sys: SystemProblem,
    cfg: SystemSchemeConfig,
    state0,
    h: float,
    t_end: float,
) -> Trajectory:
    """Fold the componentwise step from t = 0 to t_end at fixed step h. A
    single start state is carried as a tuple of floats, so every step runs
    on the float path without converting the state. A start without
    ``sys.dim`` components along its last axis raises DimensionMismatch."""
    shape = np.shape(state0)
    if shape[-1:] != (sys.dim,):
        raise _dimension_mismatch(sys, shape)
    if shape == (sys.dim,):
        state0 = tuple(np.asarray(state0, dtype=float).tolist())
    return integrate(system_step_map(sys, cfg), state0, h, t_end, problem_name=sys.name)


def conserved_series(sys: SystemProblem, traj: Trajectory):
    """Per-step values of the system's conserved diagnostic, if any."""
    if sys.conserved is None:
        return None
    return np.asarray(sys.conserved(tuple(np.moveaxis(traj.states, -1, 0))), dtype=float)


def reference_system_solution(sys: SystemProblem, state0, h_out: float, t_end: float,
                              substeps: int = 1000) -> Trajectory:
    """Classical fourth-order reference on the output grid (internal step
    h_out/substeps), run on floats: ``sys.F`` receives tuples. The start is
    one state of ``sys.dim`` components (DimensionMismatch otherwise). The
    output grid is ``integrate``'s, with its contracts on h_out and t_end
    and its warning when t_end is not a multiple of h_out."""
    if np.shape(state0) != (sys.dim,):
        raise _dimension_mismatch(sys, np.shape(state0))
    start = tuple(np.asarray(state0, dtype=float).tolist())  # integrate carries it as a tuple
    update = lambda s, h: rk4(sys.F, s, h, substeps)  # noqa: E731
    return integrate(StepMap("reference", update), start, h_out, t_end, problem_name=sys.name)


# ---------------------------------------------------------------------------
# model registry


def lotka_volterra(a: float = 1.0, b: float = 1.0, c: float = 1.0, e: float = 1.0) -> SystemProblem:
    """Predator-prey system x' = ax - bxy, y' = -cy + exy, split as
    f_plus = (ax, exy) and f_minus = (-by, -c)."""

    def F(s):
        x, y = s
        return (a * x - b * x * y, -c * y + e * x * y)

    def jvp(s, v):
        # J = [[a - b*y, -b*x], [e*y, e*x - c]], each row added t0 + t1
        x, y = s
        v0, v1 = v
        return ((a - b * y) * v0 + (-b * x) * v1, (e * y) * v0 + (e * x - c) * v1)

    def f_plus(s):
        x, y = s
        return (a * x, e * x * y)

    def f_minus(s):
        _, y = s
        return (-(b * y), -c)

    def conserved(s):
        x, y = s
        with np.errstate(divide="ignore"):
            return e * x - c * np.log(x) + b * y - a * np.log(y)

    return SystemProblem(
        name="lv",
        dim=2,
        F=F,
        rep=Representation(f_plus=f_plus, f_minus=f_minus),
        jacobian=jvp,
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
        S, I, R = s
        return (mu * R - bN * S * I, bN * S * I - gamma * I, gamma * I - mu * R)

    def jvp(s, v):
        # J = [[-bN*I, -bN*S, mu], [bN*I, bN*S - gamma, 0], [0, gamma, -mu]],
        # each row added (t0 + t2) + t1, the order of the pinned outputs; the
        # structural zeros stay, so inf and nan in v give the same bits
        S, I, _ = s
        v0, v1, v2 = v
        return (((-bN * I) * v0 + mu * v2) + (-bN * S) * v1,
                ((bN * I) * v0 + 0.0 * v2) + (bN * S - gamma) * v1,
                (0.0 * v0 + (-mu) * v2) + gamma * v1)

    def f_plus(s):
        S, I, R = s
        return (mu * R, bN * S * I, gamma * I)

    def f_minus(s):
        _, I, _ = s
        return (-bN * I, -gamma, -mu)

    def conserved(s):
        S, I, R = s
        return S + I + R

    i_star = N * (1.0 - gamma / beta) / (1.0 + gamma / mu)
    endemic = np.array([gamma * N / beta, i_star, gamma * i_star / mu])

    return SystemProblem(
        name="sirs",
        dim=3,
        F=F,
        rep=Representation(f_plus=f_plus, f_minus=f_minus),
        jacobian=jvp,
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


def system_params(name: str) -> tuple[str, ...]:
    """The parameter names ``get_system(name, **params)`` accepts."""
    return tuple(inspect.signature(_SYSTEM_FACTORIES[name]).parameters)


#: default start states for the benchmark runs
DEFAULT_STARTS = {"lv": (2.0, 0.5), "sirs": (0.9, 0.1, 0.0)}
