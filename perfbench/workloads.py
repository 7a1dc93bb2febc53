"""The three benchmark workloads, their correctness checks, and the layer
replays of the traced run.

Each body takes a :class:`Context` and returns the state steps it advanced
together with the wall time of the calls that advanced them. Bodies only
call public functions of the package. With a tracer attached they also
record spans around those calls and wrap the callables they pass in
(``StepMap.update`` through ``dataclasses.replace``, and right-hand sides of
``ScalarProblem``, ``Representation`` and ``SystemProblem`` records). Nothing
inside ``nsfd`` is patched.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

from nsfd import cli
from nsfd.analysis import convergence_rates, elementary_stability_audit, positivity_audit
from nsfd.denominator import check_H_conditions, derived_denominator, phi, phim
from nsfd.problems import get_problem, get_scheme, problem_names, scheme_bundles
from nsfd.schemes import integrate, nsfd_step_map, reference_solution
from nsfd.splitting import theorem1_split, validate_representation
from nsfd.systems import (
    get_system,
    integrate_system,
    reference_system_solution,
    second_order_config,
    system_step_map,
)

from spans import Tracer

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# -- rates ------------------------------------------------------------------

TABLE2_SCHEMES = ("snsfd1", "snsfd2", "wood")
TABLE2_H = (1e-1, 1e-2, 1e-3, 1e-4)  # `table2`; smoke runs use it
TABLE2_H_FULL = TABLE2_H + (1e-5,)  # `table2 --full`
#: printed Table-2 values, (error, rate) per h = 1e-1 .. 1e-4
TABLE2_PRINTED = {
    "snsfd1": [(0.0014, None), (1.4678e-5, 1.9795), (1.4749e-7, 1.9979), (1.4756e-9, 1.9998)],
    "snsfd2": [(0.0127, None), (1.3823e-4, 1.9632), (1.3910e-6, 1.9973), (1.3918e-8, 1.9998)],
    "wood": [(0.0470, None), (0.0045, 1.0189), (4.4841e-4, 1.0015), (4.4820e-5, 1.0002)],
}

# -- certify ----------------------------------------------------------------

STABILITY_SCHEMES = (("logistic", "snsfd1"), ("cubic", "nsfd"), ("sine", "nsfd"), ("monod", "nsfd"))
STABILITY_H = (0.1, 1.25, 10.0, 100.0)
DERIVED_SCHEMES = (("logistic", "snsfd1"), ("logistic", "snsfd2"), ("cubic", "nsfd"),
                   ("sine", "nsfd"), ("monod", "nsfd"), ("logistic", "snsfd3"),
                   ("powerlaw", "nsfd"))

# -- systems ----------------------------------------------------------------

#: name -> (start, t_end, step grid, smoke step grid). lv runs to t = 2 so
#: that its grid can reach h = 1e-4, where the fitted order settles; sirs is
#: the criterion-7 run on [0, 10].
SYSTEMS_PLAN = {
    "lv": ((2.0, 0.5), 2.0, (1e-1, 1e-2, 1e-3, 1e-4), (1e-1, 1e-2, 1e-3)),
    "sirs": ((0.9, 0.1, 0.0), 10.0, (1e-1, 1e-2, 1e-3), (1e-1, 1e-2)),
}
#: internal step of the RK4 oracle: criterion 7's 40 000 substeps on [0, 10]
ORACLE_STEP, ORACLE_STEP_SMOKE = 2.5e-4, 2.5e-3
ORDER_RANGE = (1.9, 2.1)
#: (system, h) of the traced replay through the generic fold
SYSTEM_REPLAY_H = {"lv": 1e-3, "sirs": 1e-2}


class Work(NamedTuple):
    state_steps: int  # lanes x steps advanced
    seconds: float  # wall time of the calls that advanced them


@dataclass
class Context:
    seed: int
    smoke: bool
    outdir: Path
    tracer: Optional[Tracer] = None
    checks: list = field(default_factory=list)  # [name, passed]
    data: dict = field(default_factory=dict)  # handed from bodies to the replays

    def check(self, name: str, passed) -> None:
        self.checks.append([name, bool(passed)])

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def count(self, name: str) -> int:
        return 0 if self.tracer is None else self.tracer.counts[name]

    def counted_map(self, step, name: str):
        if self.tracer is None:
            return step
        return replace(step, update=self.tracer.counted(name, step.update))

    def lane_map(self, step, name: str):
        """Step map whose update records a span per call plus lane counts:
        lanes computed and lanes still unfrozen (all finite so far), the way
        ``positivity_audit`` freezes them."""
        if self.tracer is None:
            return step
        timed = self.tracer.timed(name, step.update)
        counts = self.tracer.counts
        alive = None

        def update(y, h):
            nonlocal alive
            out = timed(y, h)
            bad = ~np.isfinite(out)
            if bad.ndim > 1:
                bad = bad.any(axis=-1)
            if alive is None:
                alive = np.ones(bad.shape, dtype=bool)
            counts[name + ".lanes"] += alive.size
            counts["positivity.lane_steps"] += alive.size
            counts["positivity.live_lane_steps"] += int(alive.sum())
            alive &= ~bad
            return out

        return replace(step, update=update)

    def system(self, name: str):
        system = get_system(name)
        if self.tracer is None:
            return system
        return replace(system,
                       F=self.tracer.counted(f"systems.F.{name}", system.F),
                       jacobian=self.tracer.counted(f"systems.J.{name}", system.jacobian))


# ---------------------------------------------------------------------------
# workload bodies


def _table2_matches_printed(text: str) -> bool:
    """Criterion-1 tolerances: errors within 1 % of the printed values, rates
    within 0.02, the branching scheme's limiting rate within 0.005 of 1."""
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        for label, printed in TABLE2_PRINTED.items():
            for row, (err_p, rate_p) in zip(rows, printed):
                if abs(float(row[f"{label}_error"]) - err_p) > 0.01 * err_p:
                    return False
                if rate_p is not None and abs(float(row[f"{label}_rate"]) - rate_p) > 0.02:
                    return False
        return abs(float(rows[3]["wood_rate"]) - 1.0) <= 0.005
    except (KeyError, IndexError, ValueError):
        return False


def rates(ctx: Context) -> Work:
    """`nsfd table2 --full` then `nsfd errata`, in-process. Each repetition
    runs in a fresh process, so the oracle cache starts cold as for a CLI
    user."""
    csv_path, txt_path = ctx.outdir / "table2.csv", ctx.outdir / "errata.txt"
    args = ["table2", "--out", str(csv_path)] + ([] if ctx.smoke else ["--full"])
    with redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        with ctx.span("cli.table2"):
            rc_table = cli.main(args)
        seconds = perf_counter() - t0
        with ctx.span("cli.errata"):
            rc_errata = cli.main(["errata", "--out", str(txt_path)])

    golden = (GOLDEN_DIR / "table2_full.csv").read_bytes()
    if ctx.smoke:  # the rows of `table2` are the first rows of `table2 --full`
        golden = b"".join(golden.splitlines(keepends=True)[:1 + len(TABLE2_H)])
    table = csv_path.read_bytes()
    ctx.check("rates.table2.exit_code", rc_table == 0)
    ctx.check("rates.table2.bytes", table == golden)
    ctx.check("rates.table2.printed_tolerances", _table2_matches_printed(table.decode()))
    ctx.check("rates.errata.exit_code", rc_errata == 0)
    ctx.check("rates.errata.bytes", txt_path.read_bytes() == (GOLDEN_DIR / "errata.txt").read_bytes())

    grid = TABLE2_H if ctx.smoke else TABLE2_H_FULL
    return Work(len(TABLE2_SCHEMES) * sum(round(1.0 / h) for h in grid), seconds)


def _stability_consistent(report) -> bool:
    """Criterion 5: |J| < 1 at stable equilibria, J > 1 at unstable ones, and
    no spurious fixed points."""
    rows_ok = all(abs(r.jacobian) < 1.0 if r.classification == "stable" else r.jacobian > 1.0
                  for r in report.rows)
    return rows_ok and not report.spurious


def certify(ctx: Context) -> Work:
    """Criteria 4-6 plus the splitting round trip, with lanes from the seed."""
    rng = np.random.default_rng(ctx.seed)
    n_lanes, n_steps, scan = (64, 50, 10_000) if ctx.smoke else (1000, 1000, 100_000)
    y0s = rng.uniform(0.0, 10.0, n_lanes)
    hs = rng.uniform(1e-6, 100.0, n_lanes)
    lane_steps, seconds = 0, 0.0

    def audit(step, starts, h, n, paired=True):
        nonlocal lane_steps, seconds
        t0 = perf_counter()
        with ctx.span("analysis.positivity_audit"):
            report = positivity_audit(step, starts, h, n_steps=n, paired=paired)
        seconds += perf_counter() - t0
        lane_steps += report.n_trajectories * report.n_steps
        return report

    for pname in problem_names():
        for label, bundle in sorted(scheme_bundles(pname).items()):
            if bundle.positive:
                report = audit(ctx.lane_map(bundle.step, "schemes.lane_update"), y0s, hs, n_steps)
                ctx.check(f"certify.positivity.{pname}/{label}", report.passed)
    for name in SYSTEMS_PLAN:
        system = get_system(name)
        starts = rng.uniform(0.0, 10.0, size=(n_lanes, system.dim))
        step = ctx.lane_map(system_step_map(system, second_order_config(system)),
                            f"systems.lane_update.{name}")
        ctx.check(f"certify.positivity.{name}", audit(step, starts, hs, n_steps).passed)
    euler = audit(get_scheme("logistic", "euler").step, [4.0], [1.0], 10, paired=False)
    ctx.check("certify.positivity.euler_control_fails", not euler.passed)

    for pname, label in STABILITY_SCHEMES:
        bundle = get_scheme(pname, label)
        with ctx.span("analysis.elementary_stability_audit"):
            report = elementary_stability_audit(
                get_problem(pname), STABILITY_H, rep=bundle.rep, config=bundle.config,
                spec=bundle.spec, step_map=ctx.counted_map(bundle.step, "stability.update_calls"),
                scan_points=scan)
        ctx.check(f"certify.stability.{pname}/{label}", _stability_consistent(report))
    rk2 = ctx.counted_map(get_scheme("logistic", "rk2").step, "stability.update_calls")
    with ctx.span("analysis.elementary_stability_audit"):
        report = elementary_stability_audit(get_problem("logistic"), [1.25], step_map=rk2,
                                            scan_points=scan)
    ctx.check("certify.stability.rk2_control_spurious", not report.passed and report.spurious)

    for pname, label in DERIVED_SCHEMES + (("logistic", "wood"),):
        bundle = get_scheme(pname, label)
        with ctx.span("denominator.check_H_conditions"):
            report = check_H_conditions(get_problem(pname), bundle.rep, bundle.config, bundle.spec)
        if label == "wood":
            ctx.check("certify.conditions.wood_fails_H3", not report.h3)
        else:
            ctx.check(f"certify.conditions.{pname}/{label}", report.passed)

    for pname in problem_names():
        problem = get_problem(pname)
        with ctx.span("splitting.theorem1_split"):
            rep = theorem1_split(problem)
        with ctx.span("splitting.validate_representation"):
            report = validate_representation(problem, rep)
        ctx.check(f"certify.split.{pname}", report.passed)

    ctx.data["lanes"] = (y0s, hs)
    return Work(lane_steps, seconds)


def _hex_state(state) -> list[str]:
    return [float(v).hex() for v in np.asarray(state, dtype=float).ravel()]


def systems(ctx: Context) -> Work:
    """Criterion 7 on one lane: final states bit for bit against the goldens
    and the fitted order against the fourth-order oracle."""
    golden = json.loads((GOLDEN_DIR / "systems.json").read_text())
    oracle_step = ORACLE_STEP_SMOKE if ctx.smoke else ORACLE_STEP
    state_steps, seconds = 0, 0.0
    for name, (start, t_end, grid, smoke_grid) in SYSTEMS_PLAN.items():
        grid = smoke_grid if ctx.smoke else grid
        system = ctx.system(name)
        cfg = second_order_config(system)
        f_before = ctx.count(f"systems.F.{name}")
        with ctx.span(f"systems.reference_system_solution.{name}"):
            ref = reference_system_solution(system, start, h_out=t_end, t_end=t_end,
                                            substeps=round(t_end / oracle_step)).final_state
        f_oracle = ctx.count(f"systems.F.{name}") - f_before
        f_before, j_before = ctx.count(f"systems.F.{name}"), ctx.count(f"systems.J.{name}")
        errs, steps = [], 0
        for h in grid:
            t0 = perf_counter()
            with ctx.span(f"systems.integrate_system.{name}"):
                traj = integrate_system(system, cfg, start, h, t_end)
            seconds += perf_counter() - t0
            steps += len(traj.times) - 1
            ctx.check(f"systems.{name}.h={h!r}.bits", _hex_state(traj.final_state)
                      == golden[name][repr(h)])
            ctx.check(f"systems.{name}.h={h!r}.nonnegative", traj.negative_count == 0)
            errs.append(float(np.max(np.abs(traj.final_state - ref))))
        fitted = float(np.polyfit(np.log(grid), np.log(errs), 1)[0])
        ctx.check(f"systems.{name}.order", ORDER_RANGE[0] <= fitted <= ORDER_RANGE[1])
        state_steps += steps
        ctx.data[f"systems.{name}"] = {
            "steps": steps, "oracle_F": f_oracle,
            "F": ctx.count(f"systems.F.{name}") - f_before,
            "J": ctx.count(f"systems.J.{name}") - j_before,
        }
    return Work(state_steps, seconds)


BODIES = {"rates": rates, "certify": certify, "systems": systems}


# ---------------------------------------------------------------------------
# layer replays and per-layer metrics (traced run only)


def _per_call_s(fn, args, repeats: int) -> float:
    """Median over ``repeats`` passes of one pass's time per call."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for a in args:
            fn(a)
        samples.append(perf_counter() - t0)
    return median(samples) / len(args)


def _replay_rates(ctx: Context) -> dict:
    tracer = ctx.tracer
    problem = get_problem("logistic")
    bundle = get_scheme("logistic", "snsfd1")
    grid = TABLE2_H if ctx.smoke else TABLE2_H_FULL

    # the Table-2 snsfd1 column through the fold, one span per step
    step = replace(bundle.step, update=tracer.timed("schemes.update", bundle.step.update))
    h = 1e-3  # the denominator replays below use the states of this run
    for h_run in grid:
        with tracer.span("schemes.integrate"):
            traj = integrate(step, 0.5, h_run, 1.0, problem_name=problem.name)
        if h_run == h:
            ys = [float(y) for y in traj.states]
    with tracer.span("analysis.convergence_rates"):
        convergence_rates(problem, bundle.step, TABLE2_H, 1.0, 0.5)

    # the two errata oracles without a closed form, uncached
    for pname in ("sine", "monod"):
        with tracer.span("schemes.reference_solution"):
            reference_solution(get_problem(pname), 0.5, h_out=1.0, t_end=1.0, substeps=4000)

    # right-hand-side evaluations per snsfd1 step, through replaced records
    p_counted = replace(problem, f=tracer.counted("schemes.rhs", problem.f),
                        df=tracer.counted("schemes.rhs", problem.df))
    rep_counted = replace(bundle.rep, f_plus=tracer.counted("schemes.rhs", bundle.rep.f_plus),
                          f_minus=tracer.counted("schemes.rhs", bundle.rep.f_minus))
    counted_step = nsfd_step_map(p_counted, rep_counted, bundle.config,
                                 derived_denominator(p_counted, rep_counted, bundle.config.beta))
    before = tracer.counts["schemes.rhs"]
    n = len(integrate(counted_step, 0.5, 1e-3, 1.0).times) - 1
    rhs_per_step = (tracer.counts["schemes.rhs"] - before) / n

    # the denominator on the states the h = 1e-3 run visited, and on lanes
    beta = bundle.config.beta
    xs = [h * float(-problem.df(y) + 2.0 * beta * bundle.rep.f_minus(y)) for y in ys]
    y0s, hs = ctx.data["lanes"]
    x_lanes = hs * (-np.asarray(problem.df(y0s)) + 2.0 * beta * np.asarray(bundle.rep.f_minus(y0s)))

    step_ns = tracer.durations_ns("schemes.update")
    return {
        "analysis.convergence_rates_s": (tracer.total_s("analysis.convergence_rates"), "s"),
        "schemes.step_us.p50": (float(np.percentile(step_ns, 50)) * 1e-3, "us"),
        "schemes.step_us.p99": (float(np.percentile(step_ns, 99)) * 1e-3, "us"),
        "schemes.integrate_self_s": (tracer.self_s("schemes.integrate"), "s"),
        "schemes.rhs_calls_per_step": (rhs_per_step, "count"),
        "schemes.reference_s": (tracer.total_s("schemes.reference_solution"), "s"),
        "denominator.phim_scalar_ns": (_per_call_s(phim, xs, 15) * 1e9, "ns"),
        "denominator.phi_scalar_us": (_per_call_s(partial(phi, bundle.spec, h), ys, 5) * 1e6, "us"),
        "denominator.phim_array_ns_per_elem": (
            _per_call_s(phim, [x_lanes] * 100, 5) / x_lanes.size * 1e9, "ns"),
    }


def _replay_systems(ctx: Context) -> dict:
    """Single-lane system steps through the generic fold, one span per step;
    the final state must equal the golden of the same (system, h)."""
    tracer = ctx.tracer
    golden = json.loads((GOLDEN_DIR / "systems.json").read_text())
    out = {}
    for name, h in SYSTEM_REPLAY_H.items():
        start, t_end = SYSTEMS_PLAN[name][:2]
        system = get_system(name)
        base = system_step_map(system, second_order_config(system))
        step = replace(base, update=tracer.timed(f"systems.update.{name}", base.update))
        with tracer.span("systems.fold"):
            traj = integrate(step, start, h, t_end)
        ctx.check(f"systems.{name}.replay_h={h!r}.bits", _hex_state(traj.final_state)
                  == golden[name][repr(h)])
        out[f"systems.step_us.{name}"] = (
            float(np.median(tracer.durations_ns(f"systems.update.{name}"))) * 1e-3, "us")
    out["systems.integrate_self_s"] = (tracer.self_s("systems.fold"), "s")
    return out


def layer_metrics(ctx: Context) -> dict:
    """Per-layer metrics, name -> (value, unit), after all three bodies ran
    traced on ``ctx``."""
    tracer, counts = ctx.tracer, ctx.tracer.counts
    m = {
        "cli.table2_s": (tracer.total_s("cli.table2"), "s"),
        "cli.errata_s": (tracer.total_s("cli.errata"), "s"),
        "analysis.positivity_audit_s": (tracer.total_s("analysis.positivity_audit"), "s"),
        "analysis.positivity.live_lane_frac": (
            counts["positivity.live_lane_steps"] / counts["positivity.lane_steps"], "ratio"),
        "analysis.stability_audit_s": (tracer.total_s("analysis.elementary_stability_audit"), "s"),
        "analysis.stability.update_calls": (counts["stability.update_calls"], "count"),
        "schemes.lane_step_ns": (tracer.total_s("schemes.lane_update") * 1e9
                                 / counts["schemes.lane_update.lanes"], "ns"),
        "denominator.check_H_s": (tracer.total_s("denominator.check_H_conditions"), "s"),
        "splitting.split_validate_s": (tracer.total_s("splitting.theorem1_split")
                                       + tracer.total_s("splitting.validate_representation"), "s"),
    }
    reference_s, reference_f = 0.0, 0
    for name in SYSTEMS_PLAN:
        d = ctx.data[f"systems.{name}"]
        m[f"systems.lane_step_ns.{name}"] = (
            tracer.total_s(f"systems.lane_update.{name}") * 1e9
            / counts[f"systems.lane_update.{name}.lanes"], "ns")
        m[f"systems.F_calls_per_step.{name}"] = (d["F"] / d["steps"], "count")
        m[f"systems.J_calls_per_step.{name}"] = (d["J"] / d["steps"], "count")
        reference_s += tracer.total_s(f"systems.reference_system_solution.{name}")
        reference_f += d["oracle_F"]
    m["systems.reference_s"] = (reference_s, "s")
    m["systems.reference.F_calls"] = (reference_f, "count")
    m.update(_replay_rates(ctx))
    m.update(_replay_systems(ctx))
    return m
