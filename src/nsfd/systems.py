"""Componentwise positive schemes for systems of ODEs.

A system carries one splitting of its right-hand side, the scalar
``Representation`` with the state in place of y:

    F(x) = f_plus(x) + x * f_minus(x),   f_plus >= 0 >= f_minus,

componentwise, with f_plus and f_minus vectors packed like the state. Each
component is discretized the same way as the scalar method.

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
supplies its Jacobian as a linear map, ``jacobian(state, v) -> J(state).v``
packed like the state, and never builds the matrix. The model writes out
the terms of each row and the order in which they are added, so the bits of
the product are plain IEEE arithmetic, the same on every numpy build. The
kernel argument h*lambda_i is clamped to the constant trust region
KERNEL_ARG_CLAMP: lambda_i grows like 1/F_i near a nullcline crossing, and
an unclamped kernel there turns the denominator into an O(1) amplifier
that costs a full order of measured convergence along orbits that cross
nullclines.

A single state with a Python-float step size takes a float path: a tuple
of Python floats runs as it is and comes back as a tuple, and an array of
shape (dim,) becomes one on the way in and an array again on the way out.
Lane batches and per-lane step sizes stay vectorised. Both paths evaluate
the same expressions in the same order, so they agree bit for bit. The
float step makes one pass over the components, with the rates of
``second_order_rates`` written per component and the clamp written as two
comparisons, which let nan through and keep signed zeros as the array
path's maximum and minimum do. Where float arithmetic raises (x/0) and
numpy returns inf or nan instead, the step reruns on the array path. So
every model callable (F, the jacobian, the splitting's f_plus and f_minus)
is written once for both inputs: it takes a tuple of floats or a
(..., dim) array, unpacks the components with ``state_parts`` and packs a
vector result with ``pack``. It sticks to arithmetic and numpy ufuncs and
never uses Python's ``**``, which rounds differently from numpy's power on
floats.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .denominator import check_step, phim
from .errors import JacobianMissing, NegativeState
from .model import Representation, Trajectory
from .schemes import StepMap, integrate, rk4, weighted_step, weighted_step_array

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
    otherwise a (..., len(values)) array (constants broadcast)."""
    if isinstance(state, tuple):
        return tuple(values)
    out = np.empty(np.shape(state)[:-1] + (len(values),))
    for i, v in enumerate(values):
        out[..., i] = v
    return out


@dataclass(frozen=True)
class SystemProblem:
    name: str
    dim: int
    F: Callable  # state -> dstate/dt
    rep: Representation  # state -> f_plus, f_minus, each packed like the state
    # (state, v) -> J(state).v, packed like the state: the Jacobian as a linear map
    jacobian: Optional[Callable] = None
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
                              "jacobian(state, v) -> J(state).v, packed like the state") from None
    return replace(plain_config(sys, betas, label=label), second_order=True)


@lru_cache(maxsize=8)
def _weights_at(weights: tuple, shape: tuple) -> np.ndarray:
    """Per-component weights laid out at a state shape (..., dim), read-only
    and cached: numpy multiplies by a broadcast (dim,) vector several times
    slower than by an array of the state's shape."""
    out = np.empty(shape)
    out[...] = weights
    out.flags.writeable = False
    return out


def second_order_rates(F, JF, f_minus, betas):
    """The order-2 rates lambda_i = 2*beta_i*f_minus_i - (J F)_i / F_i of
    every component, zero where |F_i| <= NEAR_EQUILIBRIUM_EPS, as an array.

    ``F``, the product ``JF`` = J.F and ``f_minus`` have the state's shape
    (..., dim). The float path writes the same rate per component in
    ``_float_step``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        full = 2.0 * _weights_at(tuple(betas), np.shape(f_minus)) * f_minus - np.divide(JF, F)
    return np.where(np.abs(F) <= NEAR_EQUILIBRIUM_EPS, 0.0, full)


def system_nsfd_step(sys: SystemProblem, cfg: SystemSchemeConfig, state, h):
    """One explicit componentwise step; state must be componentwise >= 0 and
    h finite and > 0 (NonPositiveStep otherwise). Components with f_i = 0
    are returned exactly.

    Batched states of shape (..., dim) are supported, with one step size for
    all of them or one per state (``h`` of shape (...,)). A single state
    with a float ``h`` takes the float path: a tuple of Python floats gives
    a tuple, an array of shape (dim,) an array.

    On the array path, per-state step sizes are repeated along the component
    axis and the weights are laid out at the state's shape, so that no
    multiply broadcasts a length-1 or length-dim axis. The sign guard is one
    reduction (the lowest non-nan component) unless that is negative, and
    the exact fixed points F_i = 0 cost a mask only when some F_i is zero.
    """
    if isinstance(h, float):
        h = float(h)  # numpy float scalars are floats too
        if isinstance(state, tuple) and isinstance(state[0], float):
            x = state
        elif np.shape(state) == (sys.dim,):
            x = tuple(np.asarray(state, dtype=float).tolist())
        else:
            x = None
        if x is not None:
            # finite negatives only, as below; a min >= 0 rules them out in
            # one call (a nan met first fails it and the scan decides)
            if not min(x) >= 0.0 and any(-math.inf < v < 0.0 for v in x):
                raise NegativeState("system state must be componentwise nonnegative")
            if not 0.0 < h < math.inf:
                check_step(h)  # raises NonPositiveStep
            try:
                out = _float_step(sys, cfg, x, h)
                return out if x is state else np.array(out)
            except (OverflowError, ZeroDivisionError):
                pass  # numpy returns inf/nan here: rerun on the array path
    s = np.asarray(state, dtype=float)
    # finite negatives only; the lowest component (fmin skips nan) rules
    # out the common case in one reduction
    if (np.fmin.reduce(s, axis=None, initial=np.inf) < 0.0
            and np.any(s[np.isfinite(s)] < 0.0)):
        raise NegativeState("system state must be componentwise nonnegative")
    check_step(h)
    if np.ndim(h):
        # one step size per state, repeated along the component axis: numpy
        # multiplies by a broadcast (..., 1) column several times slower
        # than by an array of the state's shape
        h = np.asarray(h, dtype=float)
        h = np.repeat(h, s.shape[-1]).reshape(h.shape + s.shape[-1:])
    Fv = np.asarray(sys.F(s), dtype=float)
    fp, fm = sys.rep.f_plus(s), sys.rep.f_minus(s)
    lam = 0.0
    if cfg.second_order:
        lam = second_order_rates(Fv, np.asarray(sys.jacobian(s, Fv), dtype=float), fm, cfg.betas)
    # np.clip's bounds as np.maximum then np.minimum (nan passes through)
    ph = h * phim(np.minimum(np.maximum(h * lam, -KERNEL_ARG_CLAMP), KERNEL_ARG_CLAMP))
    update = weighted_step_array(s, Fv, ph, fp, fm, _weights_at(tuple(cfg.alphas), s.shape),
                                 _weights_at(tuple(cfg.betas), s.shape))
    return tuple(update.tolist()) if isinstance(state, tuple) and update.ndim == 1 else update


def _float_step(sys: SystemProblem, cfg: SystemSchemeConfig, x: tuple, h: float) -> tuple:
    """The array path of ``system_nsfd_step`` in one pass over the
    components of a tuple of floats: the rate of ``second_order_rates``, the
    clamp, the kernel and ``weighted_step``. The result is a tuple."""
    F = sys.F(x)
    fp, fm = sys.rep.f_plus(x), sys.rep.f_minus(x)
    jf = sys.jacobian(x, F) if cfg.second_order else (None,) * sys.dim
    out = []
    for x_i, F_i, fp_i, fm_i, jf_i, a, b in zip(x, F, fp, fm, jf, cfg.alphas, cfg.betas):
        lam = 0.0
        if jf_i is not None and not -NEAR_EQUILIBRIUM_EPS <= F_i <= NEAR_EQUILIBRIUM_EPS:
            lam = 2.0 * b * fm_i - jf_i / F_i
        # the array path's maximum then minimum, as comparisons: nan passes
        # through and a signed zero keeps its sign
        arg = h * lam
        if arg > KERNEL_ARG_CLAMP:
            arg = KERNEL_ARG_CLAMP
        elif arg < -KERNEL_ARG_CLAMP:
            arg = -KERNEL_ARG_CLAMP
        out.append(weighted_step(x_i, F_i, h * phim(arg), fp_i, fm_i, a, b))
    return tuple(out)


def system_step_map(sys: SystemProblem, cfg: SystemSchemeConfig) -> StepMap:
    return StepMap(label=cfg.label or "system-nsfd", update=partial(system_nsfd_step, sys, cfg))


def integrate_system(
    sys: SystemProblem,
    cfg: SystemSchemeConfig,
    state0,
    h: float,
    t_end: float,
) -> Trajectory:
    """Fold the componentwise step from t = 0 to t_end at fixed step h. A
    single start state is carried as a tuple of floats, so every step runs
    on the float path without converting the state."""
    if np.shape(state0) == (sys.dim,):
        state0 = tuple(np.asarray(state0, dtype=float).tolist())
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
    start = tuple(np.asarray(state0, dtype=float).tolist())  # integrate carries it as a tuple
    update = lambda s, h: rk4(sys.F, s, h, substeps)  # noqa: E731
    return integrate(StepMap("reference", update), start, h_out, t_end, problem_name=sys.name)


# ---------------------------------------------------------------------------
# model registry


def lotka_volterra(a: float = 1.0, b: float = 1.0, c: float = 1.0, e: float = 1.0) -> SystemProblem:
    """Predator-prey system x' = ax - bxy, y' = -cy + exy, split as
    f_plus = (ax, exy) and f_minus = (-by, -c)."""

    def F(s):
        x, y = state_parts(s)
        return pack(s, [a * x - b * x * y, -c * y + e * x * y])

    def jvp(s, v):
        # J = [[a - b*y, -b*x], [e*y, e*x - c]], each row added t0 + t1
        x, y = state_parts(s)
        v0, v1 = state_parts(v)
        return pack(s, [(a - b * y) * v0 + (-b * x) * v1, (e * y) * v0 + (e * x - c) * v1])

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
        S, I, R = state_parts(s)
        return pack(s, [mu * R - bN * S * I, bN * S * I - gamma * I, gamma * I - mu * R])

    def jvp(s, v):
        # J = [[-bN*I, -bN*S, mu], [bN*I, bN*S - gamma, 0], [0, gamma, -mu]],
        # each row added (t0 + t2) + t1, the order of the pinned outputs; the
        # structural zeros stay, so inf and nan in v give the same bits
        S, I, _ = state_parts(s)
        v0, v1, v2 = state_parts(v)
        return pack(s, [((-bN * I) * v0 + mu * v2) + (-bN * S) * v1,
                        ((bN * I) * v0 + 0.0 * v2) + (bN * S - gamma) * v1,
                        (0.0 * v0 + (-mu) * v2) + gamma * v1])

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
