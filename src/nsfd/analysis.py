"""Errors, convergence-rate tables, and positivity and stability audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .denominator import DenominatorSpec, phi
from .errors import GridMismatch, NegativeState, SampleMismatch
from .model import Representation, ScalarProblem, SchemeConfig, Trajectory
from .rootfind import scan_zeros
from .schemes import StepMap, integrate, nsfd_step_map, reference_value

#: errors below this are reported as exact to machine precision and excluded
#: from rate fits (the log-rate of rounding noise is meaningless)
EXACT_FLOOR = 1e-13


def error_at_final(traj: Trajectory, reference) -> float:
    """Absolute error at the final time against a reference.

    ``reference`` may be another Trajectory on the same grid, a callable
    y(t), or a number (the reference state at the final time).
    """
    if isinstance(reference, Trajectory):
        if len(reference.times) != len(traj.times) or not np.allclose(
            reference.times, traj.times, rtol=0.0, atol=1e-12 * (1.0 + abs(traj.final_time))
        ):
            raise GridMismatch(
                f"reference grid ({len(reference.times)} pts, T = {reference.final_time}) "
                f"does not match trajectory grid ({len(traj.times)} pts, T = {traj.final_time})"
            )
        ref_val = reference.states[-1]
    elif callable(reference):
        ref_val = reference(traj.final_time)
    else:
        ref_val = reference
    return float(np.max(np.abs(np.asarray(traj.final_state) - np.asarray(ref_val))))


@dataclass(frozen=True)
class RateRow:
    h: float
    error: float
    rate: Optional[float]  # None on the first row and after exact rows
    note: str = ""


@dataclass(frozen=True)
class RateTable:
    problem_name: str
    scheme_label: str
    T: float
    rows: tuple[RateRow, ...]

    @property
    def fitted_order(self) -> float:
        """Least-squares slope of log error against log h over usable rows."""
        hs = [r.h for r in self.rows if r.error > EXACT_FLOOR]
        es = [r.error for r in self.rows if r.error > EXACT_FLOOR]
        if len(hs) < 2:
            return float("nan")
        return float(np.polyfit(np.log(hs), np.log(es), 1)[0])

    @property
    def is_exact_candidate(self) -> bool:
        return any(r.note == "exact" for r in self.rows)

    def __str__(self) -> str:
        lines = [f"{self.problem_name} / {self.scheme_label} (T = {self.T:g})"]
        lines.append(f"{'h':>10}  {'error':>12}  {'rate':>8}")
        for r in self.rows:
            rate = f"{r.rate:.4f}" if r.rate is not None else "-"
            note = f"  [{r.note}]" if r.note else ""
            lines.append(f"{r.h:>10.0e}  {r.error:>12.4e}  {rate:>8}{note}")
        return "\n".join(lines)


def rate_between(h1: float, e1: float, h2: float, e2: float) -> float:
    """Observed order between two grids: log_{h1/h2}(e1/e2)."""
    return float(np.log(e1 / e2) / np.log(h1 / h2))


def convergence_rates(
    problem: ScalarProblem,
    step: StepMap,
    h_list: Sequence[float],
    T: float,
    y0: float,
) -> RateTable:
    """Errors at t = T and observed orders over a decreasing step list."""
    h_list = list(h_list)
    if len(h_list) < 2 or any(h_list[i] <= h_list[i + 1] for i in range(len(h_list) - 1)):
        raise ValueError(f"h_list must be strictly decreasing with >= 2 entries: {h_list}")
    ref = reference_value(problem, y0, T)
    rows: list[RateRow] = []
    prev: Optional[RateRow] = None
    for h in h_list:
        traj = integrate(step, y0, h, T, problem_name=problem.name)
        err = error_at_final(traj, ref)
        if err <= EXACT_FLOOR:
            rows.append(RateRow(h=h, error=err, rate=None, note="exact"))
            prev = None
            continue
        rate = None if prev is None else rate_between(prev.h, prev.error, h, err)
        row = RateRow(h=h, error=err, rate=rate)
        rows.append(row)
        prev = row
    return RateTable(problem_name=problem.name, scheme_label=step.label, T=T, rows=tuple(rows))


@dataclass(frozen=True)
class PositivityReport:
    scheme_label: str
    n_trajectories: int
    n_steps: int
    min_state: float
    negative_count: int
    diverged_count: int  # trajectories that left float range (counted, masked)

    @property
    def passed(self) -> bool:
        return self.negative_count == 0

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f", {self.diverged_count} diverged" if self.diverged_count else ""
        return (
            f"{status}: {self.scheme_label}: min state {self.min_state:.3e} over "
            f"{self.n_trajectories} trajectories x {self.n_steps} steps"
            f" ({self.negative_count} negative{extra})"
        )


def positivity_audit(
    step: StepMap,
    y0_samples,
    h_samples,
    n_steps: int,
    paired: bool = False,
) -> PositivityReport:
    """Batched positivity check, all trajectories in one batch.

    With ``paired=False`` every (y0, h) combination is run; with
    ``paired=True`` the i-th start is advanced with the i-th step size
    (SampleMismatch unless there is exactly one step size per start).
    Either way each lane carries its own step size, and a step must return
    lanes of the shape it was given (SampleMismatch otherwise: system starts
    go in as (n, dim)). Trajectories that leave the float range (genuinely
    divergent dynamics) are frozen at their last finite state and counted;
    each iterate of a lane counts as negative at most once, and only while
    the lane is finite.

    Once a lane has frozen, every later step first pins the frozen lanes to
    their last state. Two reductions over all lanes, the minimum and the
    maximum, then decide the common case: a minimum >= 0 and a maximum below
    inf mean every lane is finite and nonnegative, and the minimum updates
    the lowest state seen. Any other step takes the lane-by-lane count.
    """
    y0s = np.atleast_1d(np.asarray(y0_samples, dtype=float))
    hs = np.atleast_1d(np.asarray(h_samples, dtype=float))
    if paired and hs.shape != y0s.shape[:1]:
        raise SampleMismatch(f"paired mode needs one step size per start: got step sizes "
                             f"of shape {hs.shape} for {y0s.shape[0]} starts")
    if not paired:
        # the cross product as lanes, step sizes outermost
        starts = np.tile(np.arange(y0s.shape[0]), hs.size)
        hs = np.repeat(hs, y0s.shape[0])
        y0s = y0s[starts]
    min_state = float(np.min(y0s)) if y0s.size else 0.0
    negative = 0
    y = y0s
    alive = np.ones(y.shape[0], dtype=bool)
    keep = None  # alive laid out like the lanes, once a lane has frozen
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            try:
                y_next = np.asarray(step.update(y, hs), dtype=float)
            except NegativeState:
                # a previous iterate already left the nonnegative orthant
                negative = max(negative, 1)
                break
            if y_next.shape != y.shape:
                # e.g. one system start of shape (dim,) read as dim scalar lanes
                raise SampleMismatch(f"the step returned lanes of shape {y_next.shape} for "
                                     f"lanes of shape {y.shape}; pass system starts as (n, dim)")
            if keep is not None:
                y_next = np.where(keep, y_next, y)
            # every lane finite and nonnegative: nothing froze or went
            # negative, and as the pinned lanes hold states already seen, the
            # minimum over all lanes moves min_state as the live one does
            # (max, not a sum: a sum of finite lanes can overflow)
            low = y_next.min() if y_next.size else -np.inf
            if low >= 0.0 and y_next.max() < np.inf:
                min_state = min(min_state, float(low))
            else:
                bad = ~np.isfinite(y_next)
                if bad.ndim > 1:
                    bad = bad.any(axis=-1)
                if np.any(bad):
                    alive &= ~bad
                    keep = alive[:, None] if y.ndim > 1 else alive
                    y_next = np.where(keep, y_next, y)
                live = y_next[alive]
                if live.size:
                    min_state = min(min_state, float(np.min(live)))
                    negative += int(np.count_nonzero(live < 0.0))
                if not np.any(alive):
                    break
            y = y_next
    return PositivityReport(
        scheme_label=step.label,
        n_trajectories=int(y.shape[0]),
        n_steps=n_steps,
        min_state=min_state,
        negative_count=negative,
        diverged_count=int(np.count_nonzero(~alive)),
    )


def map_fixed_points(update: Callable, lo: float, hi: float, h: float,
                     n_scan: int = 100_000) -> list[float]:
    """Fixed points of a one-step map on [lo, hi]: sign-change refinement of
    the displacement update(y, h) - y, scanned by ``scan_zeros`` one block
    of lanes at a time (each lane is stepped on its own)."""
    return scan_zeros(lambda y: np.asarray(update(y, h), dtype=float) - np.asarray(y, dtype=float),
                      lo, hi, n_scan)


@dataclass(frozen=True)
class StabilityRow:
    y_star: float
    classification: str
    h: float
    jacobian: float
    consistent: Optional[bool]  # None when the equilibrium is non-hyperbolic


@dataclass(frozen=True)
class StabilityReport:
    scheme_label: str
    rows: tuple[StabilityRow, ...]
    spurious: tuple[float, ...]  # map fixed points matching no equilibrium
    skipped: tuple[float, ...]  # non-hyperbolic equilibria (not audited)

    @property
    def passed(self) -> bool:
        return not self.spurious and all(r.consistent for r in self.rows if r.consistent is not None)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status}: {self.scheme_label}: |J| vs stability type at each equilibrium"]
        for r in self.rows:
            ok = "-" if r.consistent is None else ("ok" if r.consistent else "INCONSISTENT")
            lines.append(
                f"  y* = {r.y_star:.6g} ({r.classification}), h = {r.h:g}: J = {r.jacobian:.6g} [{ok}]"
            )
        if self.spurious:
            lines.append(f"  spurious fixed points: {[f'{s:.6g}' for s in self.spurious]}")
        if self.skipped:
            lines.append(f"  skipped non-hyperbolic equilibria: {list(self.skipped)}")
        return "\n".join(lines)


def _map_derivative(update: Callable, y: float, h: float, eps: float = 1e-6) -> float:
    lo = max(0.0, y - eps)
    return float(
        (np.asarray(update(y + eps, h), float) - np.asarray(update(lo, h), float)) / (y + eps - lo)
    )


def elementary_stability_audit(
    problem: ScalarProblem,
    h_samples,
    rep: Optional[Representation] = None,
    config: Optional[SchemeConfig] = None,
    spec: Optional[DenominatorSpec] = None,
    step_map: Optional[StepMap] = None,
    scan_points: int = 100_000,
) -> StabilityReport:
    """Check that the scheme's fixed points are exactly the equilibria with
    matching stability type at every sampled step size.

    For schemes in the weighted family (rep/config/spec given) the fixed
    point Jacobian is the closed form J = 1 + phi*f'/(1 - phi*beta*f_minus).
    As 1 - phi*beta*f_minus >= 1, J > 1 at an unstable equilibrium for every
    h, and |J| < 1 at a stable one iff phi*(2*beta*f_minus - f') < 2, which
    is H2 (``check_H_conditions`` decides it for every h). For arbitrary
    step maps J is estimated by differencing the map. Non-hyperbolic
    equilibria are skipped and reported.
    """
    family = rep is not None and config is not None and spec is not None
    if not family and step_map is None:
        raise ValueError("need either (rep, config, spec) or step_map")
    update = (step_map if step_map is not None
              else nsfd_step_map(problem, rep, config, spec)).update
    label = step_map.label if step_map is not None else config.label

    rows: list[StabilityRow] = []
    skipped: list[float] = []
    for eq in problem.equilibria:
        if not eq.is_hyperbolic:
            skipped.append(eq.y_star)
            continue
        for h in h_samples:
            if family:
                ph = float(phi(spec, float(h), eq.y_star))
                J = 1.0 + ph * eq.derivative_at / (1.0 - ph * config.beta * float(rep.f_minus(eq.y_star)))
            else:
                J = _map_derivative(update, eq.y_star, float(h))
            consistent = (abs(J) < 1.0) == (eq.derivative_at < 0.0)
            rows.append(StabilityRow(
                y_star=eq.y_star, classification=eq.classification,
                h=float(h), jacobian=J, consistent=consistent,
            ))

    lo, hi = problem.domain_hint
    known = np.asarray([eq.y_star for eq in problem.equilibria])
    spurious: list[float] = []
    for h in h_samples:
        for fp in map_fixed_points(update, max(lo, 0.0), hi, float(h), scan_points):
            if known.size == 0 or np.min(np.abs(known - fp)) > 1e-6 * (1.0 + abs(fp)):
                if not any(abs(fp - s) <= 1e-8 * (1.0 + abs(fp)) for s in spurious):
                    spurious.append(fp)
    return StabilityReport(
        scheme_label=label, rows=tuple(rows), spurious=tuple(spurious), skipped=tuple(skipped)
    )
