import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd.analysis import positivity_audit
from nsfd.errors import JacobianMissing, NegativeState, NonPositiveStep
from nsfd.model import Representation
from nsfd.problems import get_problem, get_scheme
from nsfd.systems import (
    DEFAULT_STARTS,
    NEAR_EQUILIBRIUM_EPS,
    validate_components,
    SystemProblem,
    SystemSchemeConfig,
    conserved_series,
    euler_system_map,
    get_system,
    integrate_system,
    lotka_volterra,
    pack,
    plain_config,
    reference_system_solution,
    second_order_config,
    second_order_rates,
    sirs,
    stability_thresholds,
    system_nsfd_step,
    system_step_map,
)


class TestSystemStep:
    def test_lv_plain_step_hand_arithmetic(self):
        # (2, 0.5) with h = 1/2, phi = h, beta = 1:
        #   x1 = (2 + 0.5*2*1)/(1 + 0.5*0.5) = 2.4
        #   y1 = (0.5 + 0.5*0.5*2)/(1 + 0.5*1) = 2/3
        lv = get_system("lv")
        out = system_nsfd_step(lv, plain_config(lv), np.array([2.0, 0.5]), 0.5)
        assert out[0] == pytest.approx(2.4, rel=1e-15)
        assert out[1] == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("h", [0.1, 1.0, 50.0])
    def test_lv_coexistence_fixed(self, h):
        lv = get_system("lv")
        out = system_nsfd_step(lv, second_order_config(lv), np.array([1.0, 1.0]), h)
        np.testing.assert_array_equal(out, [1.0, 1.0])

    @pytest.mark.parametrize("h", [0.1, 2.0, 40.0])
    def test_sirs_disease_free_state_fixed(self, h):
        s = get_system("sirs")
        out = system_nsfd_step(s, second_order_config(s), np.array([0.7, 0.0, 0.0]), h)
        np.testing.assert_array_equal(out, [0.7, 0.0, 0.0])

    def test_negative_state_rejected(self):
        lv = get_system("lv")
        with pytest.raises(NegativeState):
            system_nsfd_step(lv, plain_config(lv), np.array([1.0, -0.1]), 0.5)

    def test_zero_start_stays_zero(self):
        lv = get_system("lv")
        traj = integrate_system(lv, second_order_config(lv), (0.0, 0.0), 0.5, 20.0)
        assert np.all(traj.states == 0.0)

    def test_batched_states_match_scalar(self):
        lv = get_system("lv")
        cfg = second_order_config(lv)
        batch = np.array([[2.0, 0.5], [1.0, 1.0], [0.3, 4.0]])
        out = system_nsfd_step(lv, cfg, batch, 0.7)
        for i, s in enumerate(batch):
            np.testing.assert_allclose(out[i], system_nsfd_step(lv, cfg, s, 0.7), rtol=1e-15)


def _config(system, order2):
    return second_order_config(system) if order2 else plain_config(system)


bad_steps = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(max_value=0.0, allow_nan=False),
)


class TestStepContract:
    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(["lv", "sirs"]), order2=st.booleans(), h=bad_steps,
           at_equilibrium=st.booleans(), n_lanes=st.integers(1, 8), data=st.data())
    def test_non_finite_or_nonpositive_step_rejected(self, name, order2, h, at_equilibrium,
                                                     n_lanes, data):
        # at an equilibrium too, where the step would otherwise return the state
        system = get_system(name)
        cfg = _config(system, order2)
        state = system.equilibria[-1] if at_equilibrium else np.array(DEFAULT_STARTS[name])
        with pytest.raises(NonPositiveStep):
            system_nsfd_step(system, cfg, state, h)
        # lanes with per-lane step sizes, one of them bad
        hs = np.full(n_lanes, 0.1)
        hs[data.draw(st.integers(0, n_lanes - 1))] = h
        with pytest.raises(NonPositiveStep):
            system_nsfd_step(system, cfg, np.tile(state, (n_lanes, 1)), hs)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(["lv", "sirs"]), h=bad_steps, n_lanes=st.integers(1, 8),
           data=st.data())
    def test_euler_control_rejects_bad_steps(self, name, h, n_lanes, data):
        update = euler_system_map(get_system(name)).update
        state = np.array(DEFAULT_STARTS[name])
        with pytest.raises(NonPositiveStep):
            update(state, h)
        hs = np.full(n_lanes, 0.1)
        hs[data.draw(st.integers(0, n_lanes - 1))] = h
        with pytest.raises(NonPositiveStep):
            update(np.tile(state, (n_lanes, 1)), hs)

    @pytest.mark.parametrize("order2", [True, False])
    def test_per_lane_steps_match_single_states(self, order2):
        lv = get_system("lv")
        cfg = _config(lv, order2)
        batch = np.array([[2.0, 0.5], [1.0, 1.0], [0.3, 4.0]])
        hs = np.array([0.05, 0.7, 30.0])
        out = system_nsfd_step(lv, cfg, batch, hs)
        for s, h, row in zip(batch, hs, out):
            np.testing.assert_array_equal(row, system_nsfd_step(lv, cfg, s, h))

    @pytest.mark.parametrize("name", ["lv", "sirs"])
    @pytest.mark.parametrize("order2", [True, False])
    def test_F_and_J_evaluated_once_per_step(self, name, order2):
        base = get_system(name)
        calls = {"F": 0, "J": 0, "f_plus": 0, "f_minus": 0}

        def counted(key, fn):
            def wrapped(s):
                calls[key] += 1
                return fn(s)
            return wrapped

        rep = Representation(f_plus=counted("f_plus", base.rep.f_plus),
                             f_minus=counted("f_minus", base.rep.f_minus))
        system = replace(base, F=counted("F", base.F), jacobian=counted("J", base.jacobian),
                         rep=rep)
        cfg = _config(system, order2)
        integrate_system(system, cfg, DEFAULT_STARTS[name], 0.1, 1.0)
        system_nsfd_step(system, cfg, np.tile(DEFAULT_STARTS[name], (5, 1)), 0.1)
        assert calls == {"F": 11, "J": 11 if order2 else 0, "f_plus": 11, "f_minus": 11}


def _bits(state) -> list[str]:
    return [float(v).hex() for v in np.asarray(state, dtype=float).ravel()]


def _near(state, rel):
    """``state`` scaled componentwise by 1 + rel (|rel| ~ 1e-11), so that
    0 < |F_i| <= NEAR_EQUILIBRIUM_EPS at an equilibrium."""
    return np.asarray(state, dtype=float) * (1.0 + np.asarray(rel))


component_values = st.one_of(
    st.just(0.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 1e6),
    st.floats(1e-300, 1e-6),
)


@st.composite
def system_states(draw):
    """(system name, state): equilibria and states a few ulps off them
    (|F_i| at or below NEAR_EQUILIBRIUM_EPS), random states up to 1e6, and
    any of them with some components zeroed."""
    name = draw(st.sampled_from(["lv", "sirs"]))
    system = get_system(name)
    kind = draw(st.sampled_from(["equilibrium", "near", "random"]))
    if kind == "random":
        state = np.array(draw(st.lists(component_values, min_size=system.dim,
                                       max_size=system.dim)))
    else:
        state = np.array(draw(st.sampled_from(system.equilibria)), dtype=float)
        if kind == "near":
            state = _near(state, draw(st.lists(st.floats(-1e-11, 1e-11), min_size=system.dim,
                                               max_size=system.dim)))
    zeros = draw(st.lists(st.booleans(), min_size=system.dim, max_size=system.dim))
    return name, np.where(zeros, 0.0, state)


step_sizes = st.one_of(st.floats(1e-8, 1e-2), st.floats(1e-2, 10.0), st.floats(10.0, 1e6))


class TestFloatPath:
    @settings(max_examples=600, deadline=None)
    @given(case=system_states(), order2=st.booleans(), h=step_sizes)
    def test_float_path_is_bit_identical_to_one_lane_array_path(self, case, order2, h):
        name, state = case
        system = get_system(name)
        cfg = _config(system, order2)
        out = system_nsfd_step(system, cfg, state, h)
        lane = system_nsfd_step(system, cfg, state[None, :], h)[0]
        assert isinstance(out, np.ndarray) and out.shape == (system.dim,)
        assert _bits(out) == _bits(lane)

    @pytest.mark.parametrize("name", ["lv", "sirs"])
    @pytest.mark.parametrize("order2", [True, False])
    def test_trajectories_match_one_lane_runs(self, name, order2):
        # whole runs, where a last-bit difference in a rate would show
        system = get_system(name)
        cfg = _config(system, order2)
        for h in (0.05, 0.7, 1.0, 5.0):
            traj = integrate_system(system, cfg, DEFAULT_STARTS[name], h, 200 * h)
            lane = np.array([DEFAULT_STARTS[name]], dtype=float)
            for state in traj.states[1:]:
                lane = system_nsfd_step(system, cfg, lane, h)
                assert _bits(state) == _bits(lane[0]), h

    def test_cases_reach_the_delicate_branches(self):
        # the property above covers the near-equilibrium switch and the clamp
        for name in ("lv", "sirs"):
            system = get_system(name)
            cfg = second_order_config(system)
            near = tuple(_near(system.equilibria[-1], [1e-11, -3e-12, 2e-12][:system.dim]).tolist())
            F = system.F(near)
            assert any(0.0 < abs(F_i) <= NEAR_EQUILIBRIUM_EPS for F_i in F)
            x = tuple(float(v) for v in DEFAULT_STARTS[name])
            lams = second_order_rates(system.F(x), system.jacobian(x), system.rep.f_minus(x),
                                      cfg.betas)
            assert max(abs(1e3 * lam) for lam in lams) > 4.0  # KERNEL_ARG_CLAMP at h = 1e3

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(["lv", "sirs"]), order2=st.booleans(),
           h=st.one_of(bad_steps, st.floats(1e-3, 10.0)),
           odd=st.one_of(st.none(), st.floats(-1e6, -1e-300),
                         st.sampled_from([-math.inf, math.inf, math.nan])),
           data=st.data())
    def test_both_paths_raise_alike(self, name, order2, h, odd, data):
        # a finite negative component raises NegativeState; non-finite ones
        # pass the guard on both paths and give the same inf/nan bits
        system = get_system(name)
        cfg = _config(system, order2)
        state = np.array(DEFAULT_STARTS[name], dtype=float)
        if odd is not None:
            state[data.draw(st.integers(0, system.dim - 1))] = odd

        def outcome(x):
            try:
                with np.errstate(all="ignore"):
                    return _bits(system_nsfd_step(system, cfg, x, h))
            except (NegativeState, NonPositiveStep) as exc:
                return type(exc)

        single, lane = outcome(state), outcome(state[None, :])
        if odd is not None and math.isfinite(odd):
            assert single is NegativeState
        elif not 0.0 < h < math.inf:
            assert single is NonPositiveStep
        assert single == lane

    @pytest.mark.parametrize("name", ["lv", "sirs"])
    @pytest.mark.parametrize("order2", [True, False])
    def test_one_F_and_one_J_call_on_floats(self, name, order2):
        base = get_system(name)
        seen = []

        def logged(key, fn):
            def wrapped(s):
                seen.append((key, type(s)))
                return fn(s)
            return wrapped

        rep = Representation(f_plus=logged("f_plus", base.rep.f_plus),
                             f_minus=logged("f_minus", base.rep.f_minus))
        system = replace(base, F=logged("F", base.F), jacobian=logged("J", base.jacobian),
                         rep=rep)
        system_nsfd_step(system, _config(system, order2), np.array(DEFAULT_STARTS[name]), 0.1)
        assert seen == ([("F", tuple), ("f_plus", tuple), ("f_minus", tuple)]
                        + ([("J", tuple)] if order2 else []))

    def test_float_arithmetic_errors_rerun_on_the_array_path(self):
        # a component with the wrong sign of f_minus makes the denominator
        # 1 - h*beta*f_minus exactly 0 at h = 1: floats raise, numpy gives inf
        bad = SystemProblem(
            name="bad-sign", dim=1,
            F=lambda s: s,
            rep=Representation(f_plus=lambda s: pack(s, [0.0]),
                               f_minus=lambda s: pack(s, [1.0])),
        )
        cfg = plain_config(bad)
        with np.errstate(divide="ignore"):
            out = system_nsfd_step(bad, cfg, np.array([2.0]), 1.0)
            lane = system_nsfd_step(bad, cfg, np.array([[2.0]]), 1.0)[0]
        assert _bits(out) == _bits(lane) == [math.inf.hex()]


class TestReferenceSystemSolution:
    @pytest.mark.parametrize("name, bits", [
        ("lv", ["0x1.35c502666f2e9p-2", "0x1.0fe0e0627556ap+0"]),
        ("sirs", ["0x1.05e841214c348p-1", "0x1.4507e30b03144p-2", "0x1.5e4f3564c8f69p-3"]),
    ])
    def test_criterion_7_oracle_final_states_pinned(self, name, bits):
        # recorded with the array-based RK4 loop this oracle replaced
        ref = reference_system_solution(get_system(name), DEFAULT_STARTS[name], h_out=10.0,
                                        t_end=10.0, substeps=40_000)
        assert _bits(ref.final_state) == bits


class TestConfigs:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            SystemSchemeConfig(alphas=(0.5,), betas=(0.5,))
        with pytest.raises(ValueError):
            SystemSchemeConfig(alphas=(0.0, 0.0), betas=(1.0,))

    def test_jacobian_missing(self):
        lv = get_system("lv")
        bare = SystemProblem(name="bare", dim=2, F=lv.F, rep=lv.rep)
        with pytest.raises(JacobianMissing):
            second_order_config(bare)


class TestSecondOrderDenominators:
    def test_one_dimensional_reduction_matches_scalar_rate(self):
        # a dim-1 system wrapping the logistic equation must reproduce the
        # scalar rate lambda = -f' + 2*beta*f_minus wherever f != 0
        p = get_problem("logistic")
        b = get_scheme("logistic", "snsfd3")  # beta = 1 rep (2y, -y)
        sys1 = SystemProblem(
            name="logistic1d", dim=1,
            F=lambda s: np.stack([2.0 * np.asarray(s, float)[..., 0]
                                  - np.asarray(s, float)[..., 0] ** 2], axis=-1),
            rep=Representation(f_plus=lambda s: 2.0 * np.asarray(s, float),
                               f_minus=lambda s: -np.asarray(s, float)),
            jacobian=lambda s: np.stack(
                [np.stack([2.0 - 2.0 * np.asarray(s, float)[..., 0]], axis=-1)], axis=-2),
        )
        betas = second_order_config(sys1).betas
        scalar_lam = b.spec.lambda_fn
        for y in (0.1, 0.5, 1.5, 3.0, 9.0):
            s = np.array([y])
            got = float(second_order_rates(sys1.F(s), sys1.jacobian(s), sys1.rep.f_minus(s),
                                           betas)[0])
            assert got == pytest.approx(float(scalar_lam(y)), rel=1e-12)

    def test_rate_zero_where_f_vanishes(self):
        lv = get_system("lv")
        s = np.array([1.0, 1.0])
        rates = second_order_rates(lv.F(s), lv.jacobian(s), lv.rep.f_minus(s),
                                   second_order_config(lv).betas)
        assert float(rates[0]) == 0.0

    def test_sirs_quick_rate_estimate(self):
        # cheap two-grid order probe; the full fit lives in the acceptance suite
        s = get_system("sirs")
        cfg = second_order_config(s)
        ref = reference_system_solution(s, DEFAULT_STARTS["sirs"], h_out=10.0, t_end=10.0,
                                        substeps=4000).final_state
        errs = []
        for h in (0.1, 0.01):
            traj = integrate_system(s, cfg, DEFAULT_STARTS["sirs"], h, 10.0)
            errs.append(float(np.max(np.abs(traj.final_state - ref))))
        rate = np.log(errs[0] / errs[1]) / np.log(10.0)
        assert 1.9 <= rate <= 2.1


class TestPositivityContrast:
    def test_euler_per_lane_step_sizes_match_single_states(self):
        lv = get_system("lv")
        update = euler_system_map(lv).update
        lanes = np.array([[2.0, 0.5], [1.0, 3.0], [0.3, 7.0]])
        hs = np.array([0.1, 0.9, 2.5])
        batched = update(lanes, hs)
        singles = np.array([update(lane, float(h)) for lane, h in zip(lanes, hs)])
        assert np.array_equal(batched, singles)
        assert batched[1, 0] == -0.8  # the control's negative iterate shows

    def test_lv_nsfd_nonnegative_where_euler_fails(self):
        lv = get_system("lv")
        euler = positivity_audit(euler_system_map(lv), np.array([[2.0, 0.5]]), [0.9], n_steps=50)
        assert not euler.passed
        nsfd = positivity_audit(system_step_map(lv, second_order_config(lv)),
                                np.array([[2.0, 0.5]]), [0.9], n_steps=2000)
        assert nsfd.passed

    def test_sirs_positivity_over_step_grid(self):
        s = get_system("sirs")
        step = system_step_map(s, second_order_config(s))
        starts = np.array([[0.9, 0.1, 0.0], [5.0, 3.0, 2.0], [0.0, 1.0, 0.0]])
        report = positivity_audit(step, starts, [0.1, 1.0, 10.0, 100.0], n_steps=2000)
        assert report.passed


class TestIntegrateSystem:
    def test_grid_shape_and_metadata(self):
        lv = get_system("lv")
        traj = integrate_system(lv, second_order_config(lv), (2.0, 0.5), 0.1, 2.0)
        assert traj.states.shape == (21, 2)
        assert traj.problem_name == "lv"

    def test_conserved_series(self):
        s = get_system("sirs")
        traj = integrate_system(s, second_order_config(s), DEFAULT_STARTS["sirs"], 0.1, 1.0)
        cons = conserved_series(s, traj)
        assert cons.shape == (11,)
        assert cons[0] == pytest.approx(1.0, rel=1e-15)
        # population total drifts only at the truncation level
        assert np.max(np.abs(cons - 1.0)) < 1e-3

    def test_lv_conserved_diagnostic_available(self):
        lv = get_system("lv")
        traj = integrate_system(lv, second_order_config(lv), (2.0, 0.5), 0.01, 1.0)
        cons = conserved_series(lv, traj)
        assert np.max(np.abs(cons - cons[0])) < 1e-3


class TestStabilityThresholds:
    def test_sirs_endemic_transverse_stability(self):
        # the endemic point sits on a line of equilibria (total population is
        # conserved), so one unit eigenvalue is structural; the transverse
        # modes must contract for every sampled step
        s = get_system("sirs")
        cfg = second_order_config(s)
        eq = s.equilibria[0]
        np.testing.assert_allclose(np.asarray(s.F(eq)), 0.0, atol=1e-15)
        tangent = [0.0, 1.0, 0.1 / 0.05]  # d/dI of (S*, I, gamma*I/mu)
        rows = stability_thresholds(s, cfg, eq, [0.1, 1.0, 10.0, 100.0],
                                    fixed_line_tangent=tangent)
        for row in rows:
            assert row.rho_full == pytest.approx(1.0, abs=1e-6)
            assert row.rho_transverse < 1.0

    def test_without_tangent_reports_full_radius(self):
        s = get_system("sirs")
        rows = stability_thresholds(s, second_order_config(s), s.equilibria[0], [1.0])
        assert rows[0].rho_transverse == rows[0].rho_full


class TestModelRegistry:
    def test_lv_parameterization(self):
        lv = lotka_volterra(a=0.67, b=1.33, c=1.0, e=1.0)
        eq = lv.equilibria[1]
        np.testing.assert_allclose(eq, [1.0, 0.67 / 1.33])
        np.testing.assert_allclose(np.asarray(lv.F(eq)), 0.0, atol=1e-15)

    def test_sirs_endemic_point(self):
        s = sirs(beta=0.3, gamma=0.1, mu=0.05, N=1.0)
        np.testing.assert_allclose(s.equilibria[0], [1.0 / 3.0, 2.0 / 9.0, 4.0 / 9.0], rtol=1e-14)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_system("rossler")


class TestComponentSigns:
    @pytest.mark.parametrize("name", ["lv", "sirs"])
    def test_registry_components_satisfy_sign_conditions(self, name):
        assert validate_components(get_system(name)) == 0.0

    def test_violation_reported(self):
        lv = get_system("lv")
        bad = SystemProblem(
            name="bad", dim=2, F=lv.F,
            rep=Representation(f_plus=lambda s: -np.ones_like(np.asarray(s, float)),
                               f_minus=lv.rep.f_minus),
        )
        assert validate_components(bad, n_samples=500) >= 1.0

    @pytest.mark.parametrize("name", ["lv", "sirs"])
    def test_registry_splittings_rebuild_F(self, name):
        # f_plus + x*f_minus == F with f_plus >= 0 >= f_minus, on lanes and on floats
        system = get_system(name)
        lo, hi = system.box
        rng = np.random.default_rng(1)
        lanes = rng.uniform(lo, hi, size=(10_000, system.dim))
        fp, fm = system.rep.f_plus(lanes), system.rep.f_minus(lanes)
        F = system.F(lanes)
        assert np.all(np.abs(fp + lanes * fm - F) <= 1e-14 * (1.0 + np.abs(F)))
        assert np.all(fp >= 0.0) and np.all(fm <= 0.0)
        for row in lanes[:100]:
            x = tuple(row.tolist())
            fp, fm, F = system.rep.f_plus(x), system.rep.f_minus(x), system.F(x)
            assert isinstance(fp, tuple) and isinstance(fm, tuple)
            for x_i, fp_i, fm_i, F_i in zip(x, fp, fm, F):
                assert abs(fp_i + x_i * fm_i - F_i) <= 1e-14 * (1.0 + abs(F_i))
                assert fp_i >= 0.0 >= fm_i
