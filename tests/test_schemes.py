import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd.denominator import DenominatorSpec, derived_denominator, derived_from
from nsfd.errors import (
    BadHorizon,
    NegativeState,
    NonPositiveStep,
    OracleSelfCheckFailed,
    ParameterOutOfRange,
    StepCountOverflow,
    ZeroStepCount,
)
from nsfd.model import Representation, ScalarProblem, SchemeConfig, register_problem
from nsfd.problems import _monod, get_problem, get_scheme, problem_names, scheme_bundles
from nsfd.schemes import (
    FOLD_BLOCK_FLOATS,
    euler_step,
    integrate,
    mickens_cubic_map,
    mickens_cubic_step,
    mickens_monod_step,
    mickens_sine_map,
    mickens_sine_step,
    nsfd_step,
    nsfd_step_map,
    powerlaw_nsfd_step,
    reference_solution,
    reference_value,
    rk2_step,
    wood_kojouharov_step,
    wood_map,
)
from nsfd.systems import get_system, plain_config, second_order_config, system_step_map

mp.mp.dps = 50


def snsfd1_step_reference(y: float, h: float) -> float:
    """Closed-form one step of the beta = 1.25 logistic scheme, evaluated in
    extended precision: lambda = -2 - y/2, phi = (1 - e^{-h*lambda})/lambda."""
    ym, hm = mp.mpf(y), mp.mpf(h)
    lam = -2 - ym / 2
    ph = -mp.expm1(-hm * lam) / lam
    num = ym + ph * 2 * ym + ph * (mp.mpf(-0.25) * ym * (-ym))
    den = 1 - ph * mp.mpf(1.25) * (-ym)
    return float(num / den)


class TestNsfdStep:
    def setup_method(self):
        self.p = get_problem("logistic")
        self.b = get_scheme("logistic", "snsfd1")

    def step(self, y, h):
        return nsfd_step(self.p, self.b.rep, self.b.config, self.b.spec, y, h)

    @pytest.mark.parametrize("h", [0.01, 0.1, 1.25, 10.0, 100.0])
    def test_equilibria_are_exact_fixed_points(self, h):
        assert self.step(2.0, h) == 2.0
        assert self.step(0.0, h) == 0.0

    def test_equilibria_are_exact_fixed_points_among_lanes(self):
        # lanes at an equilibrium beside lanes that move, per-lane step sizes
        ys = np.array([2.0, 0.5, 0.0, 2.0, 3.0])
        hs = np.array([0.1, 0.1, 1.25, 100.0, 0.1])
        got = self.step(ys, hs)
        assert got[[0, 2, 3]].tolist() == [2.0, 0.0, 2.0]
        assert got[[1, 4]].tolist() == [self.step(0.5, 0.1), self.step(3.0, 0.1)]

    def test_one_step_value(self):
        got = self.step(0.5, 0.1)
        assert got == pytest.approx(snsfd1_step_reference(0.5, 0.1), rel=1e-14)
        # one step stays within O(h^3) of the exact flow
        exact = float(self.p.exact_solution(0.1, 0.5))
        assert abs(got - exact) < 1e-4

    def test_negative_state_rejected(self):
        with pytest.raises(NegativeState):
            self.step(-0.1, 0.1)

    def test_negative_lane_reported_beside_nan(self):
        # a nan lane neither raises nor hides the negative one in the message
        with pytest.raises(NegativeState, match="got min -0.25$"):
            self.step(np.array([np.nan, 2.0, -0.25, 1.0]), 0.1)
        assert np.isnan(self.step(np.array([np.nan, 2.0]), 0.1)[0])

    def test_zero_minus_part_reduces_to_nonstandard_euler(self):
        # with f_minus = 0 the update is y + phi*f_plus; for f(y) = y the
        # derived rate is -1, phi = e^h - 1, and the step equals the flow y*e^h
        p = register_problem(ScalarProblem(
            name="growth", f=lambda y: np.asarray(y, float),
            df=lambda y: np.ones_like(np.asarray(y, float)), domain_hint=(0.0, 10.0),
        ))
        rep = Representation(f_plus=lambda y: np.asarray(y, float),
                             f_minus=lambda y: np.zeros_like(np.asarray(y, float)))
        cfg = SchemeConfig(alpha=0.0, beta=1.0, label="growth")
        spec = derived_denominator(p, rep, 1.0)
        for y, h in [(0.5, 0.3), (2.0, 1.0)]:
            assert nsfd_step(p, rep, cfg, spec, y, h) == pytest.approx(y * np.exp(h), rel=1e-14)

    def test_update_is_deterministic(self):
        a = self.step(1.234, 0.77)
        b = self.step(1.234, 0.77)
        assert a == b

    def test_array_input_matches_scalar(self):
        ys = np.array([0.0, 0.5, 2.0, 7.0])
        got = self.step(ys, 0.3)
        np.testing.assert_allclose(got, [self.step(float(y), 0.3) for y in ys], rtol=1e-15)


def _bits(x) -> int:
    return int(np.array([x], dtype=float).view(np.int64)[0])


def _counted(calls: Counter, name: str, fn):
    def counted(*args):
        calls[name] += 1
        return fn(*args)

    return counted


def _counted_records(problem, rep, calls: Counter):
    """The problem and representation records, replaced with callables that
    count their calls, as the benchmark's traced replay builds them."""
    return (replace(problem, f=_counted(calls, "f", problem.f), df=_counted(calls, "df", problem.df)),
            replace(rep, f_plus=_counted(calls, "f_plus", rep.f_plus),
                    f_minus=_counted(calls, "f_minus", rep.f_minus)))


#: registry bundles whose denominator is derived from their own records
DERIVED_BUNDLES = sorted(f"{p}/{label}" for p in problem_names()
                         for label, b in scheme_bundles(p).items()
                         if b.spec is not None and derived_from(b.spec.lambda_fn) is not None)


@pytest.mark.parametrize("name", DERIVED_BUNDLES)
def test_derived_float_step_calls_each_callable_once(name):
    # the rate shares the update's f_minus value: one call of each callable
    pname, label = name.split("/")
    problem, b = get_problem(pname), get_scheme(pname, label)
    source = derived_from(b.spec.lambda_fn)
    assert source[0] is problem and source[1] is b.rep and source[2] == b.config.beta
    calls = Counter()
    p, rep = _counted_records(problem, b.rep, calls)
    step = nsfd_step_map(p, rep, b.config, derived_denominator(p, rep, b.config.beta))
    for y, h in [(0.5, 0.1), (0.25, 1e-3), (3.5, 1.25)]:
        calls.clear()
        assert _bits(step.update(y, h)) == _bits(b.step.update(y, h))
        assert calls == {"f": 1, "df": 1, "f_plus": 1, "f_minus": 1}, (y, h)


def test_other_rates_go_through_lambda_fn():
    # a rate derived from another record, or written by hand, is called as
    # it is; the update then evaluates f_minus itself
    problem, b = get_problem("logistic"), get_scheme("logistic", "snsfd1")
    calls = Counter()
    p, rep = _counted_records(problem, b.rep, calls)
    derived = derived_denominator(p, rep, 1.25).lambda_fn
    specs = {
        "another rep": derived_denominator(p, replace(rep), 1.25),
        "another problem": derived_denominator(replace(p), rep, 1.25),
        "hand-written": DenominatorSpec(lambda_fn=_counted(calls, "lambda_fn", derived)),
    }
    for name, spec in specs.items():
        step = nsfd_step_map(p, rep, b.config, spec)
        calls.clear()
        assert _bits(step.update(0.5, 0.1)) == _bits(b.step.update(0.5, 0.1)), name
        assert calls["f_minus"] == 2 and calls["f"] == calls["df"] == calls["f_plus"] == 1, name
    assert calls["lambda_fn"] == 1


class TestBaselines:
    def test_euler_value(self):
        p = get_problem("logistic")
        assert euler_step(p, 0.5, 0.1) == pytest.approx(0.575, rel=1e-15)
        assert euler_step(p, 2.0, 0.4) == 2.0
        assert euler_step(p, 0.5, 1.25) == pytest.approx(1.4375, rel=1e-15)

    def test_euler_oscillates_at_large_step(self):
        p = get_problem("logistic")
        y = 0.5
        tail = []
        for k in range(60):
            y = euler_step(p, y, 1.25)
            if k >= 40:
                tail.append(y - 2.0)
        signs = np.sign(tail)
        assert np.sum(signs[:-1] * signs[1:] < 0) >= 10  # alternates around 2

    def test_rk2_heun_value_exact_fraction(self):
        # oracle: Heun arithmetic in exact rationals
        y, h = Fraction(1, 2), Fraction(1, 10)
        f = lambda v: 2 * v - v * v  # noqa: E731
        k1 = f(y)
        expected = y + h / 2 * (k1 + f(y + h * k1))
        assert expected == Fraction(18511, 32000)
        p = get_problem("logistic")
        assert rk2_step(p, 0.5, 0.1) == pytest.approx(float(expected), rel=1e-15)

    def test_rk2_fixed_at_equilibrium(self):
        p = get_problem("logistic")
        assert rk2_step(p, 2.0, 0.7) == 2.0

    def test_rk2_converges_to_spurious_point_at_large_step(self):
        p = get_problem("logistic")
        y = 0.5
        for _ in range(400):
            y = rk2_step(p, y, 1.25)
        assert abs(y - 2.0) > 0.5  # not the true equilibrium
        assert abs(rk2_step(p, y, 1.25) - y) < 1e-12  # but fixed for the map
        assert abs(float(p.f(y))) > 0.5  # and not a root of f
        assert y == pytest.approx(1.2, abs=1e-9)

    def test_wood_first_branch(self):
        expected = float(mp.mpf(0.5) + (1 - mp.e**mp.mpf(-0.1)) * mp.mpf(0.75))
        assert expected == pytest.approx(0.5713719364730303, rel=1e-12)
        assert wood_kojouharov_step(0.5, 0.1) == pytest.approx(expected, rel=1e-14)

    def test_wood_second_branch(self):
        # y = 3 puts f(y) = -3 < 0; oracle evaluated in extended precision
        ph = 1 - mp.e**mp.mpf(-0.1)
        expected = float(9 / (3 - ph * (-3)))
        assert expected == pytest.approx(2.739319302363185, rel=1e-12)
        assert wood_kojouharov_step(3.0, 0.1) == pytest.approx(expected, rel=1e-14)

    def test_wood_fixed_point(self):
        assert wood_kojouharov_step(2.0, 0.6) == 2.0


class TestMickensSteps:
    @pytest.mark.parametrize("h", [0.1, 1.0, 25.0])
    def test_cubic_fixed_point(self, h):
        assert mickens_cubic_step(1.0, h) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("h", [0.1, 1.0, 25.0])
    def test_sine_fixed_point(self, h):
        assert mickens_sine_step(1.0, h) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("h", [0.1, 1.0, 25.0])
    def test_monod_fixed_point(self, h):
        # equilibrium (mu - 1)/(mu + 1) = 1/3 at mu = 2
        assert mickens_monod_step(1.0 / 3.0, h, mu=2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_monod_parameter_range(self):
        with pytest.raises(ParameterOutOfRange):
            mickens_monod_step(0.5, 0.1, mu=1.0)

    def test_monod_family_form_matches_display(self):
        # the registry builds the Monod scheme through the weighted family;
        # it must agree with the verbatim display update
        p = get_problem("monod")
        b = get_scheme("monod", "mickens")
        for y in (0.1, 1.0 / 3.0, 2.0, 7.5):
            for h in (0.05, 0.8, 12.0):
                family = nsfd_step(p, b.rep, b.config, b.spec, y, h)
                assert family == pytest.approx(mickens_monod_step(y, h, mu=2.0), rel=1e-13)


#: the steps whose float path takes phi from a one-entry memo of h
MEMO_MAPS = {"logistic/wood": wood_map, "cubic/mickens": mickens_cubic_map,
             "sine/mickens": mickens_sine_map}


@pytest.mark.parametrize("name", sorted(MEMO_MAPS))
def test_memoised_phi_gives_the_bits_of_a_fresh_array_step(name):
    # alternating step sizes, two maps interleaved at different step sizes
    make = MEMO_MAPS[name]
    first, second = make(), make()
    y1 = y2 = 0.5
    for k in range(40):
        h1, h2 = (1e-1, 1e-3)[k % 2], (1e-3, 1e-1, 0.37)[k % 3]
        want1, want2 = make().update(np.array([y1]), h1)[0], make().update(np.array([y2]), h2)[0]
        y1, y2 = first.update(y1, h1), second.update(y2, h2)
        assert type(y1) is float and _bits(y1) == _bits(want1), k
        assert type(y2) is float and _bits(y2) == _bits(want2), k


@pytest.mark.parametrize("name", sorted(MEMO_MAPS))
def test_memo_never_keeps_a_bad_step(name):
    make = MEMO_MAPS[name]
    step = make()
    step.update(0.5, 0.1)
    for bad in (math.nan, math.nan, 0.0, 0.0, -0.1, -0.1, math.inf, math.inf):
        with pytest.raises(NonPositiveStep):
            step.update(0.5, bad)
        for h in (0.1, 0.2):  # the memoised h, then a new one
            assert _bits(step.update(0.5, h)) == _bits(make().update(np.array([0.5]), h)[0])


class TestPowerlaw:
    def test_spec_formula(self):
        a, b, m = 1.0, 1.0, 4
        y, h = 0.7, 0.3
        ph = float((1 - mp.e**(-mp.mpf(a) * mp.mpf(h))) / a)
        expected = (y + ph * (a * y - b * (1 - m / 2) * y**m)) / (1 + ph * b * (m / 2) * y ** (m - 1))
        assert powerlaw_nsfd_step(a, b, m, y, h) == pytest.approx(expected, rel=1e-13)

    def test_m2_reduces_to_logistic_scheme(self):
        # a=2, b=1, m=2 is the logistic equation with the printed beta = 1 phi
        p = get_problem("logistic")
        bundle = get_scheme("logistic", "snsfd3-printed")
        for y in (0.0, 0.5, 2.0, 5.0):
            for h in (0.1, 1.0, 10.0):
                mine = powerlaw_nsfd_step(2.0, 1.0, 2, y, h)
                family = nsfd_step(p, bundle.rep, bundle.config, bundle.spec, y, h)
                assert mine == pytest.approx(family, rel=1e-13)

    @pytest.mark.parametrize("a,b,m", [(1.0, 1.0, 4), (2.0, 0.5, 3), (0.7, 2.0, 2)])
    def test_equilibrium_fixed(self, a, b, m):
        y_star = (a / b) ** (1.0 / (m - 1))
        for h in (0.1, 2.0, 50.0):
            assert powerlaw_nsfd_step(a, b, m, y_star, h) == pytest.approx(y_star, rel=1e-12)

    def test_m3_matches_corrected_cubic_display(self):
        # solving the one-sided form for m=3, a=b=1 gives
        # ((2 + 2*phi)y + phi*y^3)/(2 + 3*phi*y^2); the printed display's
        # (2 + phi) numerator factor does not even fix y* = 1
        for y in (0.2, 1.0, 1.7):
            for h in (0.1, 1.0):
                ph = -np.expm1(-h)
                corrected = ((2 + 2 * ph) * y + ph * y**3) / (2 + 3 * ph * y * y)
                assert powerlaw_nsfd_step(1.0, 1.0, 3, y, h) == pytest.approx(corrected, rel=1e-13)

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            powerlaw_nsfd_step(-1.0, 1.0, 2, 0.5, 0.1)
        with pytest.raises(ParameterOutOfRange):
            powerlaw_nsfd_step(1.0, 1.0, 1, 0.5, 0.1)
        with pytest.raises(NegativeState):
            powerlaw_nsfd_step(1.0, 1.0, 2, -0.5, 0.1)


class TestIntegrate:
    def test_grid_and_final_value(self):
        b = get_scheme("logistic", "snsfd1")
        traj = integrate(b.step, 0.5, 0.1, 1.0, problem_name="logistic")
        assert len(traj.times) == 11
        exact = float(get_problem("logistic").exact_solution(1.0, 0.5))
        assert exact == pytest.approx(1.4224691884551879, rel=1e-12)
        assert abs(traj.final_state - exact) < 2e-3

    def test_large_step_monotone_approach(self):
        b = get_scheme("logistic", "snsfd1")
        traj = integrate(b.step, 0.5, 1.25, 50.0, problem_name="logistic")
        assert len(traj.states) == 41
        assert np.all(np.diff(traj.states) >= -1e-14)
        assert np.all(traj.states <= 2.0 + 1e-12)
        assert traj.states[-1] == pytest.approx(2.0, abs=1e-6)

    def test_zero_start_stays_zero(self):
        b = get_scheme("logistic", "snsfd1")
        traj = integrate(b.step, 0.0, 0.1, 5.0)
        assert np.all(traj.states == 0.0)

    def test_rounding_warning(self):
        b = get_scheme("logistic", "snsfd1")
        with pytest.warns(UserWarning, match="not a multiple"):
            integrate(b.step, 0.5, 0.3, 1.0)

    def test_step_count_overflow(self):
        b = get_scheme("logistic", "snsfd1")
        with pytest.raises(StepCountOverflow):
            integrate(b.step, 0.5, 1e-9, 1e3)

    @pytest.mark.parametrize("h", [0.0, -0.1, float("nan"), float("inf"), float("-inf")])
    def test_non_finite_or_nonpositive_step_rejected(self, h):
        # before: nan died inside int(round(nan)), inf gave a one-point trajectory
        with pytest.raises(NonPositiveStep):
            integrate(get_scheme("logistic", "snsfd1").step, 0.5, h, 1.0)

    def test_horizon_rounding_to_no_step_rejected(self):
        step = get_scheme("logistic", "snsfd1").step
        with pytest.raises(ZeroStepCount):
            integrate(step, 0.5, 1.0, 0.3)
        assert len(integrate(step, 0.5, 1.0, 0.0).times) == 1  # t_end = 0 asks for no step

    @settings(max_examples=200, deadline=None)
    @given(t_end=st.one_of(st.floats(max_value=-0.0, exclude_max=True),
                           st.sampled_from([math.nan, math.inf, -math.inf, -0.04, -0.3])),
           h=st.floats(1e-300, 1e300))
    def test_bad_horizon_rejected(self, t_end, h):
        # before: nan and inf died in int(round(.)), -0.3 in np.empty, -0.04 gave one point
        with pytest.raises(BadHorizon):
            integrate(get_scheme("logistic", "snsfd1").step, 0.5, h, t_end)

    @settings(max_examples=100, deadline=None)
    @given(t_end=st.floats(1e9, 1.7e308), h=st.floats(1e-300, 1.0))
    def test_huge_horizon_overflows_step_count(self, t_end, h):
        # t_end / h may itself overflow to inf
        with pytest.raises(StepCountOverflow):
            integrate(get_scheme("logistic", "snsfd1").step, 0.5, h, t_end)

    @settings(max_examples=50, deadline=None)
    @given(h=st.floats(1e-300, 1e300))
    def test_zero_horizon_is_one_point(self, h):
        for t_end in (0.0, -0.0):
            traj = integrate(get_scheme("logistic", "snsfd1").step, 0.5, h, t_end)
            assert traj.states.tolist() == [0.5]

    def test_float_rows_stored_in_blocks(self):
        # the rows integrate writes a block at a time are the carried floats,
        # on both sides of a block boundary
        step = get_scheme("logistic", "snsfd1").step
        for n in (0, 1, FOLD_BLOCK_FLOATS - 1, FOLD_BLOCK_FLOATS, FOLD_BLOCK_FLOATS + 1):
            y, rows = 0.5, [0.5]
            for _ in range(n):
                y = step.update(y, 1e-3)
                rows.append(y)
            traj = integrate(step, 0.5, 1e-3, n * 1e-3)
            assert traj.states.tobytes() == np.array(rows).tobytes(), n

    def test_determinism(self):
        b = get_scheme("logistic", "snsfd2")
        t1 = integrate(b.step, 0.5, 0.01, 1.0)
        t2 = integrate(b.step, 0.5, 0.01, 1.0)
        assert np.array_equal(t1.states, t2.states)


class TestReferenceSolution:
    def test_self_check_against_exact(self):
        p = get_problem("logistic")
        traj = reference_solution(p, 0.5, h_out=0.1, t_end=1.0)
        exact = np.asarray(p.exact_solution(traj.times, 0.5), dtype=float)
        assert np.max(np.abs(traj.states - exact)) <= 1e-10

    def test_equilibrium_start_is_constant(self):
        p = get_problem("logistic")
        traj = reference_solution(p, 2.0, h_out=0.5, t_end=5.0)
        np.testing.assert_allclose(traj.states, 2.0, rtol=1e-12)

    def test_wrong_exact_solution_aborts(self):
        base = get_problem("logistic")
        p = register_problem(ScalarProblem(
            name="liar", f=base.f, df=base.df, domain_hint=base.domain_hint,
            exact_solution=lambda t, y0: np.asarray(base.exact_solution(t, y0)) + 1e-6,
        ))
        with pytest.raises(OracleSelfCheckFailed):
            reference_solution(p, 0.5, h_out=0.5, t_end=1.0)

    def test_reference_value_cache_is_keyed_by_record(self):
        # same name, new parameter: y = 0.5 is an equilibrium for mu = 3
        assert reference_value(_monod(), 0.5, 1.0) == pytest.approx(0.399919, abs=1e-6)
        assert reference_value(_monod(mu=3.0), 0.5, 1.0) == 0.5

    @pytest.mark.parametrize("name, bits", [("sine", "0x1.f1ec578a30ca8p-1"),
                                            ("monod", "0x1.99844e09daccbp-2")])
    def test_errata_oracles_pinned(self, name, bits):
        # the two errata oracles without a closed form, recorded with the
        # scalar RK4 loop that the shared float RK4 replaced
        traj = reference_solution(get_problem(name), 0.5, h_out=1.0, t_end=1.0, substeps=4000)
        assert float(traj.states[-1]).hex() == bits


def local_error_slope(problem, step, y, h_list=(1e-1, 1e-2, 1e-3, 1e-4)) -> float:
    """Fitted slope of log one-step error versus log h against the flow."""
    errs = []
    for h in h_list:
        flow = reference_value(problem, y, h)
        errs.append(abs(float(step.update(y, h)) - flow))
    errs = np.asarray(errs)
    keep = errs > 1e-15
    return float(np.polyfit(np.log(np.asarray(h_list)[keep]), np.log(errs[keep]), 1)[0])


class TestLocalOrder:
    @pytest.mark.parametrize("problem,label", [("logistic", "snsfd1"), ("cubic", "nsfd")])
    def test_one_step_error_slope_is_cubic(self, problem, label):
        p = get_problem(problem)
        b = get_scheme(problem, label)
        slope = local_error_slope(p, b.step, 0.5)
        assert 2.8 <= slope <= 3.2

    @pytest.mark.parametrize(
        "problem,label",
        [("logistic", "snsfd1"), ("logistic", "snsfd3-printed"),
         ("sine", "nsfd"), ("monod", "mickens")],
    )
    def test_one_step_consistency_is_at_least_first_order(self, problem, label):
        # |step(y, h) - y - h f(y)| <= C h^2 for small h, second order or not
        p = get_problem(problem)
        b = get_scheme(problem, label)
        for y in (0.4, 1.3):
            ratios = []
            for h in (1e-2, 1e-3, 1e-4):
                resid = abs(float(b.step.update(y, h)) - y - h * float(p.f(y)))
                ratios.append(resid / h**2)
            assert max(ratios) <= 2.0 * min(ratios) + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    y0=st.floats(0.0, 10.0),
    h=st.floats(1e-6, 100.0),
    label=st.sampled_from(["snsfd1", "snsfd2", "snsfd3"]),
)
def test_positivity_property_randomized(y0, h, label):
    """Any admissible start and step keeps every iterate nonnegative."""
    b = get_scheme("logistic", label)
    y = y0
    for _ in range(200):
        y = b.step.update(y, h)
        assert y >= 0.0


def test_fixed_point_equivalence_scan():
    # fixed points of the step map coincide with roots of f on a dense scan
    p = get_problem("logistic")
    b = get_scheme("logistic", "snsfd1")
    ys = np.linspace(0.0, 10.0, 20_001)
    for h in (0.1, 1.25, 10.0):
        disp = np.abs(np.asarray(b.step.update(ys, h)) - ys)
        fvals = np.abs(np.asarray(p.f(ys)))
        assert not np.any((disp < 1e-12) & (fvals > 1e-6))


#: every registry step map: the scalar schemes, and lv and sirs under the
#: plain and the order-2 config
REGISTRY_MAPS = {f"{p}/{label}": b.step for p in problem_names()
                 for label, b in scheme_bundles(p).items()}
for _system in (get_system("lv"), get_system("sirs")):
    for _cfg in (plain_config(_system), second_order_config(_system)):
        REGISTRY_MAPS[f"{_system.name}/{_cfg.label}"] = system_step_map(_system, _cfg)

LANES, LANE_STEPS = 64, 20


def _lanes(name, rng):
    """Seeded lane states over the model's box, every eighth at an
    equilibrium, and one step size per lane from 1e-7 (where the kernel
    takes its series) to 10."""
    model = name.split("/")[0]
    if model in ("lv", "sirs"):
        system = get_system(model)
        y = rng.uniform(*system.box, size=(LANES, system.dim))
        y[::8] = np.resize(np.array(system.equilibria), (LANES // 8, system.dim))
    else:
        problem = get_problem(model)
        y = rng.uniform(*problem.domain_hint, size=LANES)
        y[::8] = np.resize([e.y_star for e in problem.equilibria], LANES // 8)
    return y, 10.0 ** rng.uniform(-7.0, 1.0, LANES)


@pytest.mark.parametrize("name", sorted(REGISTRY_MAPS))
def test_lane_depends_only_on_its_state_and_step(name):
    # the StepMap lane contract: a lane run alone, in a batch and in a
    # permuted batch gives the same bits at every step
    step = REGISTRY_MAPS[name]
    rng = np.random.default_rng(3)
    y0, h = _lanes(name, rng)
    perm = rng.permutation(LANES)

    def run(y, h):
        rows = []
        for _ in range(LANE_STEPS):
            y = step.update(y, h)
            rows.append(np.array(y, dtype=float))
        return np.stack(rows, axis=1)  # (lanes, steps) or (lanes, steps, dim)

    with np.errstate(all="ignore"):
        batch = run(y0, h)
        permuted = run(y0[perm], h[perm])
        alone = np.concatenate([run(y0[i:i + 1], h[i:i + 1]) for i in range(LANES)])
    assert np.array_equal(permuted.view(np.int64), batch[perm].view(np.int64))
    assert np.array_equal(alone.view(np.int64), batch.view(np.int64))
