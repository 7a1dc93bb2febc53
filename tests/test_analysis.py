import math

import mpmath as mp
import numpy as np
import pytest

from nsfd.analysis import (
    EXACT_FLOOR,
    convergence_rates,
    elementary_stability_audit,
    error_at_final,
    map_fixed_points,
    positivity_audit,
    rate_between,
)
from nsfd.errata import errata_entries
from nsfd.errors import GridMismatch, SampleMismatch
from nsfd.model import Trajectory
from nsfd.problems import get_problem, get_scheme
from nsfd.schemes import StepMap
from nsfd.systems import get_system, second_order_config, system_step_map
from system_helpers import euler_system_map

mp.mp.dps = 50


def _traj(states, h=1.0):
    states = np.asarray(states, dtype=float)
    return Trajectory(states=states, scheme_label="t", problem_name="p", h=h)


class TestErrorAtFinal:
    def test_identical_trajectories(self):
        t = _traj([1.0, 2.0, 3.0])
        assert error_at_final(t, t) == 0.0

    def test_scalar_reference(self):
        t = _traj([1.0, 2.0, 3.5])
        assert error_at_final(t, 3.0) == 0.5

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            error_at_final(_traj([1.0, 2.0, 3.0]), _traj([1.0, 2.0]))
        with pytest.raises(GridMismatch):
            error_at_final(_traj([1.0, 2.0], h=1.0), _traj([1.0, 2.0], h=0.5))


class TestConvergenceRates:
    def test_rate_formula(self):
        # rate = log_{h1/h2}(e1/e2)
        assert rate_between(1e-1, 1e-2, 1e-2, 1e-4) == pytest.approx(2.0)
        assert rate_between(0.2, 0.04, 0.1, 0.01) == pytest.approx(2.0)

    def test_h_list_validation(self):
        b = get_scheme("logistic", "snsfd1")
        p = get_problem("logistic")
        with pytest.raises(ValueError):
            convergence_rates(p, b.step, [0.1], 1.0, 0.5)
        with pytest.raises(ValueError):
            convergence_rates(p, b.step, [0.01, 0.1], 1.0, 0.5)

    def test_snsfd1_two_rows(self):
        p = get_problem("logistic")
        b = get_scheme("logistic", "snsfd1")
        table = convergence_rates(p, b.step, [1e-1, 1e-2], 1.0, 0.5)
        assert table.rows[0].rate is None
        assert table.rows[0].error == pytest.approx(0.0014, rel=0.01)
        assert table.rows[1].error == pytest.approx(1.4678e-5, rel=0.01)
        assert table.rows[1].rate == pytest.approx(1.9795, abs=0.02)

    def test_euler_error_is_first_order(self):
        p = get_problem("logistic")
        b = get_scheme("logistic", "euler")
        table = convergence_rates(p, b.step, [1e-1, 1e-2, 1e-3], 1.0, 0.5)
        assert all(r.error > 0 for r in table.rows)
        assert table.fitted_order == pytest.approx(1.0, abs=0.1)

    def test_exact_scheme_rows_flagged(self):
        p = get_problem("logistic")
        b = get_scheme("logistic", "snsfd3")
        table = convergence_rates(p, b.step, [0.5, 0.25], 10.0, 0.5)
        assert table.is_exact_candidate
        assert all(r.error <= EXACT_FLOOR for r in table.rows)
        assert all(r.rate is None for r in table.rows)
        assert np.isnan(table.fitted_order)


class TestPositivityAudit:
    def test_grid_pass_for_positive_scheme(self):
        b = get_scheme("logistic", "snsfd1")
        report = positivity_audit(b.step, np.arange(0.0, 10.01, 0.5), [0.1, 1.0, 10.0, 100.0],
                                  n_steps=500)
        assert report.passed
        assert report.min_state >= 0.0

    def test_zero_start_reports_zero_min(self):
        b = get_scheme("logistic", "snsfd1")
        report = positivity_audit(b.step, [0.0], [1.0], n_steps=50)
        assert report.passed
        assert report.min_state == 0.0

    def test_euler_failure_case(self):
        # y0 = 4, h = 1: first step lands at 4 + (8 - 16) = -4
        b = get_scheme("logistic", "euler")
        report = positivity_audit(b.step, [4.0], [1.0], n_steps=5)
        assert not report.passed
        assert report.min_state < 0.0

    @pytest.mark.parametrize("case", ["logistic-snsfd1", "lv-nsfd2", "logistic-euler", "lv-euler"])
    def test_unpaired_is_paired_on_the_cross_product(self, case):
        if case.startswith("lv"):
            lv = get_system("lv")
            step = (euler_system_map(lv) if case == "lv-euler"
                    else system_step_map(lv, second_order_config(lv)))
            y0s = np.array([[2.0, 0.5], [1.0, 3.0], [0.0, 4.0]])
        else:
            step = get_scheme("logistic", case.split("-")[1]).step
            y0s = np.array([0.0, 0.5, 4.0, 9.0])
        hs = np.array([0.1, 0.9, 10.0])
        unpaired = positivity_audit(step, y0s, hs, n_steps=60)
        cross_y0s = np.concatenate([y0s] * hs.size)
        cross_hs = np.repeat(hs, len(y0s))
        assert unpaired == positivity_audit(step, cross_y0s, cross_hs, n_steps=60, paired=True)
        assert unpaired.n_trajectories == len(y0s) * hs.size
        assert unpaired.passed == (not case.endswith("euler"))
        # every finite iterate counted once, lane by lane, until the lane diverges
        negative = 0
        for h in hs:
            for y0 in y0s:
                y = y0
                for _ in range(60):
                    with np.errstate(over="ignore", invalid="ignore"):
                        y = np.asarray(step.update(y, float(h)), dtype=float)
                    if not np.all(np.isfinite(y)):
                        break
                    negative += int(np.count_nonzero(y < 0.0))
        assert unpaired.negative_count == negative

    def test_paired_mode_counts_lanes(self):
        b = get_scheme("logistic", "snsfd1")
        report = positivity_audit(b.step, np.array([0.5, 4.0, 9.0]),
                                  np.array([0.1, 1.0, 10.0]), n_steps=50, paired=True)
        assert report.n_trajectories == 3
        assert report.passed

    @pytest.mark.parametrize("hs", [[0.1, 1.0], [0.1, 1.0, 10.0, 100.0], [0.1], 0.1,
                                    [[0.1, 1.0, 10.0]]])
    def test_paired_mode_needs_one_step_size_per_start(self, hs):
        step = get_scheme("logistic", "snsfd1").step
        with pytest.raises(SampleMismatch):
            positivity_audit(step, [0.5, 1.0, 2.0], hs, n_steps=3, paired=True)

    def test_paired_mode_lanes_of_a_system(self):
        lv = get_system("lv")
        step = system_step_map(lv, second_order_config(lv))
        starts = np.array([[2.0, 0.5], [1.0, 3.0]])
        assert positivity_audit(step, starts, [0.1, 10.0], n_steps=5, paired=True).passed
        with pytest.raises(SampleMismatch):
            positivity_audit(step, starts, [0.1], n_steps=5, paired=True)

    @pytest.mark.parametrize("hs, paired", [([0.1, 0.1], True), ([0.1], False)])
    def test_system_start_without_lane_axis_refused(self, hs, paired):
        # a (dim,) start would be read as dim scalar lanes; the step returns (2, 2)
        lv = get_system("lv")
        step = system_step_map(lv, second_order_config(lv))
        with pytest.raises(SampleMismatch):
            positivity_audit(step, [2.0, 0.5], hs, n_steps=3, paired=paired)
        report = positivity_audit(step, [[2.0, 0.5]], [0.1], n_steps=3, paired=paired)
        assert report.passed and report.n_trajectories == 1


def _scripted(rows) -> StepMap:
    """A step map that ignores its input and returns the next of ``rows``."""
    it = iter(np.asarray(rows, dtype=float))
    return StepMap("scripted", lambda y, h: next(it).copy())


def _lane_by_lane(y0s, rows):
    """(min_state, negative_count, diverged_count) of ``rows`` as iterates,
    lane by lane in plain Python: a lane counts until its first non-finite
    iterate and is ignored after it."""
    low, negative, diverged = float(np.min(y0s)), 0, 0
    for lane in range(len(y0s)):
        for row in rows:
            values = np.atleast_1d(np.asarray(row[lane], dtype=float)).tolist()
            if not all(math.isfinite(v) for v in values):
                diverged += 1
                break
            low = min([low] + values)
            negative += sum(v < 0.0 for v in values)
    return low, negative, diverged


#: four lanes over five steps: they turn +inf, -inf and nan mid-run and come
#: back finite (negative, even) after freezing, which must not count
NON_FINITE_ROWS = [
    [1.0, 0.5, 3.0, 4.0],
    [2.0, -1.0, np.nan, 0.25],
    [np.inf, -np.inf, -2.0, 5.0],
    [-5.0, 7.0, -3.0, 6.0],
    [3.0, 8.0, -4.0, -0.5],
]


class TestPositivityAuditLanes:
    """The audit's bookkeeping against a lane-by-lane count, on scripted
    iterates."""

    def _check(self, y0s, rows):
        report = positivity_audit(_scripted(rows), y0s, np.ones(len(y0s)), n_steps=len(rows),
                                  paired=True)
        low, negative, diverged = _lane_by_lane(y0s, rows)
        assert (report.min_state, report.negative_count, report.diverged_count) == (
            low, negative, diverged)
        assert report.n_trajectories == len(y0s) and report.n_steps == len(rows)
        return report

    def test_lanes_turning_non_finite_mid_run(self):
        report = self._check([1.0, 1.0, 1.0, 1.0], NON_FINITE_ROWS)
        assert (report.min_state, report.negative_count, report.diverged_count) == (-1.0, 2, 3)

    def test_frozen_lanes_of_a_system(self):
        # one non-finite component freezes the whole lane
        rows = [[[2.0, 1.0], [1.0, 1.0]],
                [[np.nan, 1.0], [0.5, 2.0]],
                [[-1.0, -1.0], [0.75, np.inf]],
                [[-1.0, -1.0], [-1.0, -1.0]]]
        report = self._check(np.ones((2, 2)), rows)
        assert (report.min_state, report.negative_count, report.diverged_count) == (0.5, 0, 2)

    def test_only_nonnegative_lanes_after_a_freeze(self):
        # the frozen lane holds the lowest state seen; later minima are higher
        rows = [[0.125, 5.0, 6.0], [np.inf, 4.0, 3.0], [1.0, 2.0, 1.0], [0.0, 3.0, 0.5]]
        report = self._check([1.0, 9.0, 9.0], rows)
        assert (report.min_state, report.negative_count, report.diverged_count) == (0.125, 0, 1)

    def test_finite_lanes_whose_sum_overflows(self):
        big = np.finfo(float).max
        rows = [[big, big, 1.0], [big, 0.5 * big, 2.0], [big, big, -1.0]]
        report = self._check([big, big, 1.0], rows)
        assert (report.min_state, report.negative_count, report.diverged_count) == (-1.0, 1, 0)

    def test_euler_control(self):
        # the certify control: y0 = 4, h = 1 overshoots to -4 and then diverges
        report = positivity_audit(get_scheme("logistic", "euler").step, [4.0], [1.0], 10)
        assert not report.passed
        assert (report.n_trajectories, report.n_steps, report.min_state, report.negative_count,
                report.diverged_count) == (1, 10, -1.2978955371099575e+188, 9, 1)

    def test_lv_certify_audit_pinned(self):
        # the certify lanes at seed 1: three lanes leave float range near
        # 8.6e307 at step 365 and are frozen there
        rng = np.random.default_rng(1)
        rng.uniform(0.0, 10.0, 1000)  # the scalar starts drawn before
        hs = rng.uniform(1e-6, 100.0, 1000)
        starts = rng.uniform(0.0, 10.0, size=(1000, 2))
        lv = get_system("lv")
        report = positivity_audit(system_step_map(lv, second_order_config(lv)), starts, hs,
                                  n_steps=1000, paired=True)
        assert report.passed
        assert (report.n_trajectories, report.n_steps, report.min_state, report.negative_count,
                report.diverged_count) == (1000, 1000, 0.0, 0, 3)


class TestStabilityAudit:
    def test_snsfd1_jacobian_value(self):
        # J(2) at h = 1.25: phi = (e^{3.75} - 1)/3, J = 1 - 2 phi/(1 + 2.5 phi)
        ph = (mp.e**mp.mpf(3.75) - 1) / 3
        expected = float(1 - 2 * ph / (1 + mp.mpf(2.5) * ph))
        assert expected == pytest.approx(0.2224713409645, rel=1e-10)
        p = get_problem("logistic")
        b = get_scheme("logistic", "snsfd1")
        report = elementary_stability_audit(p, [1.25], rep=b.rep, config=b.config, spec=b.spec,
                                            scan_points=20000)
        assert report.passed
        rows = {r.y_star: r for r in report.rows}
        assert rows[2.000000000000003].jacobian == pytest.approx(expected, rel=1e-9)
        assert rows[0.0].jacobian > 1.0  # unstable equilibrium stays unstable

    def test_rk2_control_detects_spurious_point(self):
        p = get_problem("logistic")
        b = get_scheme("logistic", "rk2")
        report = elementary_stability_audit(p, [1.25], step_map=b.step, scan_points=100_000)
        assert not report.passed
        assert any(abs(s - 1.2) < 1e-6 for s in report.spurious)

    def test_needs_the_family_or_a_step_map(self):
        p, b = get_problem("logistic"), get_scheme("logistic", "snsfd1")
        # none of the weighted family's three, or only some of them, and no map
        for given in ({}, dict(rep=b.rep, config=b.config), dict(config=b.config, spec=b.spec)):
            with pytest.raises(ValueError, match=r"need either \(rep, config, spec\) or step_map"):
                elementary_stability_audit(p, [1.25], scan_points=2000, **given)

    def test_exact_flow_map_always_passes(self):
        # sanity anchor: the exact one-step flow is elementary stable
        p = get_problem("logistic")
        flow = StepMap(label="exact-flow",
                       update=lambda y, h: np.asarray(p.exact_solution(h, y), dtype=float))
        report = elementary_stability_audit(p, [0.1, 1.25, 10.0], step_map=flow,
                                            scan_points=20000)
        assert report.passed

    def test_non_hyperbolic_equilibria_skipped(self):
        import warnings

        from nsfd.model import ScalarProblem, register_problem, with_equilibria

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = with_equilibria(register_problem(ScalarProblem(
                name="sq", f=lambda y: np.asarray(y, float) ** 2,
                df=lambda y: 2.0 * np.asarray(y, float), domain_hint=(0.0, 10.0),
            )))
        step = StepMap(label="euler-sq", update=lambda y, h: y + h * np.asarray(p.f(y)))
        report = elementary_stability_audit(p, [0.1], step_map=step, scan_points=5000)
        assert report.skipped == (0.0,)
        assert report.rows == ()


class TestMapFixedPoints:
    def test_finds_true_equilibria(self):
        b = get_scheme("logistic", "snsfd1")
        pts = map_fixed_points(b.step.update, 0.0, 10.0, 1.25, n_scan=20000)
        assert len(pts) == 2
        assert pts[0] == pytest.approx(0.0, abs=1e-9)
        assert pts[1] == pytest.approx(2.0, abs=1e-6)


class TestErrata:
    def test_entries_cover_key_discrepancies(self):
        entries = {e.scheme: e for e in errata_entries()}
        exact_row = entries["logistic / snsfd3 (exact-candidate row)"]
        assert exact_row.derived_order == "exact to machine precision"
        assert float(exact_row.printed_order) == pytest.approx(1.0, abs=0.1)
        sine_row = entries["sine / weighted scheme (beta = 1)"]
        assert float(sine_row.printed_order) == pytest.approx(1.0, abs=0.15)
        assert float(sine_row.derived_order) == pytest.approx(2.0, abs=0.15)
        snsfd1 = entries["logistic / snsfd1"]
        assert "not integrable" in snsfd1.printed_order
        mickens_cubic = entries["cubic / maximum-symmetry scheme"]
        assert float(mickens_cubic.printed_order) == pytest.approx(1.0, abs=0.1)
