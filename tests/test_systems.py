import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd.analysis import positivity_audit
from nsfd.errors import DimensionMismatch, JacobianMissing, NegativeState, NonPositiveStep
from nsfd.model import Representation
from nsfd.problems import get_problem, get_scheme
from nsfd.schemes import FOLD_BLOCK_FLOATS, StepMap, integrate, rk4, weighted_step
from nsfd.systems import (
    DEFAULT_STARTS,
    NEAR_EQUILIBRIUM_EPS,
    SystemProblem,
    SystemSchemeConfig,
    conserved_series,
    get_system,
    integrate_system,
    lotka_volterra,
    plain_config,
    reference_system_solution,
    second_order_config,
    second_order_rates,
    sirs,
    system_nsfd_step,
    system_step_map,
)
from system_helpers import euler_system_map, on_lanes, rk4_reference, stability_thresholds


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
            def wrapped(s, *rest):
                calls[key] += 1
                return fn(s, *rest)
            return wrapped

        rep = Representation(f_plus=counted("f_plus", base.rep.f_plus),
                             f_minus=counted("f_minus", base.rep.f_minus))
        system = replace(base, F=counted("F", base.F), jacobian=counted("J", base.jacobian),
                         rep=rep)
        cfg = _config(system, order2)
        integrate_system(system, cfg, DEFAULT_STARTS[name], 0.1, 1.0)
        system_nsfd_step(system, cfg, np.tile(DEFAULT_STARTS[name], (5, 1)), 0.1)
        assert calls == {"F": 11, "J": 11 if order2 else 0, "f_plus": 11, "f_minus": 11}


#: lv states without two components along the last axis
WRONG_DIM_STATES = [(1.0, 2.0, 3.0), (1.0,), np.array([1.0, 2.0, 3.0]), np.ones((4, 3)),
                    np.ones((4, 1)), np.array(1.0)]


class TestDimensionMismatch:
    @pytest.mark.parametrize("state", WRONG_DIM_STATES)
    @pytest.mark.parametrize("order2", [True, False])
    def test_step_names_the_dimension(self, state, order2):
        lv = get_system("lv")
        cfg = _config(lv, order2)
        with pytest.raises(DimensionMismatch, match="lv has dim = 2"):
            system_nsfd_step(lv, cfg, state, 0.1)
        # per-lane step sizes, one per lane the state would have
        with pytest.raises(DimensionMismatch, match="lv has dim = 2"):
            system_step_map(lv, cfg).update(state, np.full(np.shape(state)[:-1], 0.1))

    @pytest.mark.parametrize("state", WRONG_DIM_STATES)
    def test_integrate_system_names_the_dimension(self, state):
        lv = get_system("lv")
        with pytest.raises(DimensionMismatch, match="lv has dim = 2"):
            integrate_system(lv, second_order_config(lv), state, 0.1, 1.0)

    @pytest.mark.parametrize("state", WRONG_DIM_STATES + [np.ones((4, 2))])
    def test_reference_needs_one_state(self, state):
        lv = get_system("lv")
        with pytest.raises(DimensionMismatch, match="lv has dim = 2"):
            reference_system_solution(lv, state, h_out=0.5, t_end=1.0, substeps=10)


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
            lams = second_order_rates(system.F(x), system.jacobian(x, system.F(x)),
                                      system.rep.f_minus(x), cfg.betas)
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

    @pytest.mark.parametrize("order2", [True, False])
    def test_nan_lane_does_not_hide_a_negative_one(self, order2):
        lv = get_system("lv")
        cfg = _config(lv, order2)
        lanes = np.array([[np.nan, 1.0], [2.0, 0.5], [1.0, -0.25]])
        with pytest.raises(NegativeState):
            system_nsfd_step(lv, cfg, lanes, np.array([0.1, 0.2, 0.3]))
        lanes[2, 1] = -math.inf  # a non-finite negative passes the guard
        with np.errstate(all="ignore"):
            out = system_nsfd_step(lv, cfg, lanes, np.array([0.1, 0.2, 0.3]))
        assert np.all(np.isfinite(out[1]))

    @pytest.mark.parametrize("name", ["lv", "sirs"])
    @pytest.mark.parametrize("order2", [True, False])
    def test_one_F_and_one_J_call_on_floats(self, name, order2):
        base = get_system(name)
        seen = []

        def logged(key, fn):
            def wrapped(s, *rest):
                seen.append((key, type(s)))
                return fn(s, *rest)
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
            rep=Representation(f_plus=lambda s: (0.0,), f_minus=lambda s: (1.0,)),
        )
        cfg = plain_config(bad)
        out = system_nsfd_step(bad, cfg, np.array([2.0]), 1.0)
        lane = system_nsfd_step(bad, cfg, np.array([[2.0]]), 1.0)[0]
        assert _bits(out) == _bits(lane) == [math.inf.hex()]

    @pytest.mark.parametrize("name, state, h", [
        ("sirs", (0.0, 1.0, 1e-320), 2.0**-7),  # J.F / F overflows in the rate
        ("lv", (1e-5, 1e100), 1e300),  # h * lambda overflows in the clamp
    ])
    def test_one_lane_array_is_silent_where_the_float_path_is(self, name, state, h):
        system = get_system(name)
        cfg = second_order_config(system)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lane = system_nsfd_step(system, cfg, np.array([state]), h)[0]
            single = system_nsfd_step(system, cfg, state, h)
        assert _bits(lane) == _bits(single)


class TestTupleState:
    @settings(max_examples=300, deadline=None)
    @given(case=system_states(), order2=st.booleans(), h=step_sizes)
    def test_tuple_state_gives_a_tuple_with_the_array_bits(self, case, order2, h):
        name, state = case
        system = get_system(name)
        cfg = _config(system, order2)
        out = system_nsfd_step(system, cfg, tuple(state.tolist()), h)
        assert type(out) is tuple and all(type(v) is float for v in out)
        assert _bits(out) == _bits(system_nsfd_step(system, cfg, state, h))

    @pytest.mark.parametrize("name, params, state", [
        ("lv", {"c": -1.0}, (0.0, 1e-11)),
        ("sirs", {"gamma": -1.0}, (0.0, 1e-11, 0.0)),
    ])
    @pytest.mark.parametrize("order2", [True, False])
    def test_rerun_on_the_array_path_gives_a_tuple(self, name, params, state, order2):
        # a positive f_minus (c or gamma < 0) with |F_i| under the cutoff
        # gives phi_i = h and the denominator 1 - h*f_minus_i = 0 at h = 1
        system = get_system(name, **params)
        cfg = _config(system, order2)
        # the float step's arithmetic for component 1 (its rate is zero)
        with pytest.raises(ZeroDivisionError):
            weighted_step(state[1], system.F(state)[1], 1.0, system.rep.f_plus(state)[1],
                          system.rep.f_minus(state)[1], cfg.alphas[1], cfg.betas[1])
        out = system_nsfd_step(system, cfg, state, 1.0)
        array = system_nsfd_step(system, cfg, np.array(state), 1.0)
        assert type(out) is tuple and isinstance(array, np.ndarray)
        assert _bits(out) == _bits(array) and math.inf in out

    @pytest.mark.parametrize("name, params, state", [
        ("lv", {}, (2.0, 0.5)),
        ("sirs", {}, (0.9, 0.1, 0.0)),
        # the states of test_rerun_on_the_array_path_gives_a_tuple: at h = 1
        # the float step divides by zero and reruns on the array path
        ("lv", {"c": -1.0}, (0.0, 1e-11)),
        ("sirs", {"gamma": -1.0}, (0.0, 1e-11, 0.0)),
    ])
    @pytest.mark.parametrize("order2", [True, False])
    @pytest.mark.parametrize("h", [1e-3, 0.7, 1.0])
    def test_numpy_float_step_size_runs_on_python_floats(self, name, params, state, order2, h):
        # np.float64 is a float: the step takes it as a Python float, so no
        # component is computed in numpy scalar arithmetic
        system = get_system(name, **params)
        cfg = _config(system, order2)
        # no errstate here: the array-path rerun is silent, and the suite
        # turns a RuntimeWarning from the package into an error
        expected = system_nsfd_step(system, cfg, state, h)
        out = system_nsfd_step(system, cfg, state, np.float64(h))
        assert type(out) is tuple and all(type(v) is float for v in out)
        assert _bits(out) == _bits(expected)

    @pytest.mark.parametrize("name", ["lv", "sirs"])
    @pytest.mark.parametrize("order2", [True, False])
    def test_integrate_carries_a_tuple_start(self, name, order2):
        system = get_system(name)
        base = system_step_map(system, _config(system, order2))
        seen = set()
        step = replace(base, update=lambda s, h: seen.add(type(s)) or base.update(s, h))
        start = tuple(float(v) for v in DEFAULT_STARTS[name])
        from_tuple = integrate(step, start, 0.7, 70.0)
        assert seen == {tuple}
        seen.clear()
        from_array = integrate(step, np.array(start), 0.7, 70.0)
        assert seen == {np.ndarray}
        assert from_tuple.states.tobytes() == from_array.states.tobytes()

    @pytest.mark.parametrize("name", ["lv", "sirs"])
    def test_integrate_stores_tuple_rows_in_blocks(self, name):
        # the rows integrate writes a block at a time are the carried states,
        # on both sides of a block boundary
        system = get_system(name)
        step = system_step_map(system, second_order_config(system))
        start = tuple(float(v) for v in DEFAULT_STARTS[name])
        block = FOLD_BLOCK_FLOATS // system.dim
        for n in (0, 1, block - 1, block, block + 1):
            y, rows = start, [start]
            for _ in range(n):
                y = step.update(y, 1e-3)
                rows.append(y)
            traj = integrate(step, start, 1e-3, n * 1e-3)
            assert traj.states.shape == (n + 1, system.dim)
            assert traj.states.tobytes() == np.array(rows).tobytes(), n

    def test_integrate_stores_a_row_rerun_on_the_array_path(self):
        # the bad-sign system of test_float_arithmetic_errors_rerun_on_the_array_path:
        # the fifth step, at h = 1, reruns on the array path and gives inf,
        # and the fold stores that row like every other
        bad = SystemProblem(
            name="bad-sign", dim=1,
            F=lambda s: s,
            rep=Representation(f_plus=lambda s: (0.0,), f_minus=lambda s: (1.0,)),
        )
        cfg = plain_config(bad)
        rows = [(2.0,)]

        def update(s, h):
            rows.append(system_nsfd_step(bad, cfg, s, 1.0 if len(rows) == 5 else h))
            return rows[-1]

        traj = integrate(StepMap("bad-sign", update), rows[0], 0.25, 2.0)
        assert all(type(row) is tuple for row in rows)
        assert traj.states[5, 0] == math.inf
        assert traj.states.tobytes() == np.array(rows).tobytes()


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


def _logistic_F(y):
    (v,) = y
    return (v * (2.0 - v),)


#: (F, dim): the registry systems, the ring of every dim from 1 to 9 and a
#: scalar right-hand side, each on tuples of floats
RK4_CASES = st.one_of(
    st.sampled_from(["lv", "sirs"]).map(lambda name: (get_system(name).F, get_system(name).dim)),
    st.integers(1, 9).map(lambda dim: (ring(dim).F, dim)),
    st.just((_logistic_F, 1)),
)


class TestRk4Loop:
    """The generated per-dimension loop of ``rk4`` against the zipped loop."""

    @settings(max_examples=300, deadline=None)
    @given(case=RK4_CASES, data=st.data(), t_end=st.floats(1e-6, 20.0),
           n=st.one_of(st.just(1), st.integers(1, 60)))
    def test_matches_the_zipped_loop_bit_for_bit(self, case, data, t_end, n):
        F, dim = case
        y0 = tuple(data.draw(st.lists(st.floats(0.0, 3.0), min_size=dim, max_size=dim)))
        out = rk4(F, y0, t_end, n)
        assert type(out) is tuple and all(type(v) is float for v in out)
        assert _bits(out) == _bits(rk4_reference(F, y0, t_end, n))

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_F_is_called_four_times_per_substep(self, n):
        calls = []
        F = get_system("sirs").F
        rk4(lambda y: calls.append(y) or F(y), DEFAULT_STARTS["sirs"], 1.0, n)
        assert len(calls) == 4 * n
        assert all(type(y) is tuple and len(y) == 3 for y in calls)

    @pytest.mark.parametrize("values", [1, 2, 4])
    def test_F_with_the_wrong_number_of_values_names_the_dimension(self, values):
        F = lambda y: (0.0,) * values  # noqa: E731
        with pytest.raises(ValueError, match="expected 3"):
            rk4(F, (0.5, 0.5, 0.5), 1.0, 3)
        if values < 3:  # the zipped loop stops at the shorter tuple
            assert len(rk4_reference(F, (0.5, 0.5, 0.5), 1.0, 3)) == values

    def test_tracebacks_and_warnings_name_the_library(self):
        def F(y):
            raise KeyError("in F")

        with pytest.raises(KeyError) as info:
            rk4(F, (0.5, 0.5), 1.0, 2)
        frame = info.traceback[-2]
        assert str(frame.path) == "<nsfd.schemes rk4, dim=2>"
        assert "F((y0, y1,))" in str(frame.statement)
        assert frame.frame.f_globals["__name__"] == "nsfd.schemes"
        # a RuntimeWarning raised in the loop itself (numpy scalars
        # overflowing there) is the package's for a filter on "nsfd"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            warnings.filterwarnings("error", category=RuntimeWarning, module="nsfd")
            with pytest.raises(RuntimeWarning, match="overflow"):
                rk4(lambda y: (np.float64(1e308),), (np.float64(1e308),), 1.0, 1)


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

    def test_matrix_style_jacobian_refused(self):
        # a jacobian(state) returning the matrix cannot bind (state, v): it is
        # refused when the config is made, not with a TypeError in a step
        lv = get_system("lv")
        matrix = replace(lv, jacobian=lambda s: np.eye(2))
        with pytest.raises(JacobianMissing, match=r"jacobian\(state, v\)"):
            second_order_config(matrix)

    def test_variadic_jacobian_wrapper_accepted(self):
        # wrappers that forward *args, such as call counters, pass the check
        lv = get_system("lv")
        wrapped = replace(lv, jacobian=lambda *args, **kwargs: lv.jacobian(*args, **kwargs))
        cfg = second_order_config(wrapped)
        assert cfg.second_order
        ref = integrate_system(lv, second_order_config(lv), DEFAULT_STARTS["lv"], 0.5, 20.0)
        got = integrate_system(wrapped, cfg, DEFAULT_STARTS["lv"], 0.5, 20.0)
        assert got.states.tobytes() == ref.states.tobytes()


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
            jacobian=lambda s, v: (2.0 - 2.0 * np.asarray(s, float)) * np.asarray(v, float),
        )
        betas = second_order_config(sys1).betas
        scalar_lam = b.spec.lambda_fn
        for y in (0.1, 0.5, 1.5, 3.0, 9.0):
            s = np.array([y])
            got = float(second_order_rates(sys1.F(s), sys1.jacobian(s, sys1.F(s)),
                                           sys1.rep.f_minus(s), betas)[0])
            assert got == pytest.approx(float(scalar_lam(y)), rel=1e-12)

    def test_rate_zero_where_f_vanishes(self):
        lv = get_system("lv")
        s = np.array([1.0, 1.0])
        rates = second_order_rates(lv.F(s), lv.jacobian(s, lv.F(s)), lv.rep.f_minus(s),
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


def _lv_matrix(x, y, a=1.0, b=1.0, c=1.0, e=1.0):
    """The Lotka-Volterra Jacobian, rows of entries (floats or arrays)."""
    return [[a - b * y, -b * x], [e * y, e * x - c]]


def _sirs_matrix(S, I, R, beta=0.3, gamma=0.1, mu=0.05, N=1.0):
    """The SIRS Jacobian, rows of entries (floats or arrays)."""
    bN = beta / N
    return [[-bN * I, -bN * S, mu], [bN * I, bN * S - gamma, 0.0], [0.0, gamma, -mu]]


MATRICES = {"lv": _lv_matrix, "sirs": _sirs_matrix}


def _box_states(system, n, seed):
    lo, hi = system.box
    return np.random.default_rng(seed).uniform(lo, hi, size=(n, system.dim))


def ring(dim: int = 9, c: float = 0.7, d: float = 0.4) -> SystemProblem:
    """A user system of any dim, written to the model contract:
    x_i' = c*x_{i-1} - x_i*(d + x_{i+1}) around a ring, with its J.v."""

    def F(x):
        return tuple([c * x[i - 1] - x[i] * (d + x[(i + 1) % dim]) for i in range(dim)])

    def jvp(x, w):
        return tuple([c * w[i - 1] - (d + x[(i + 1) % dim]) * w[i] - x[i] * w[(i + 1) % dim]
                      for i in range(dim)])

    def f_plus(x):
        return tuple([c * x[i - 1] for i in range(dim)])

    def f_minus(x):
        return tuple([-(d + x[(i + 1) % dim]) for i in range(dim)])

    return SystemProblem(name=f"ring{dim}", dim=dim, F=F,
                         rep=Representation(f_plus=f_plus, f_minus=f_minus), jacobian=jvp)


class TestJacobianVectorProduct:
    @pytest.mark.parametrize("name", ["lv", "sirs"])
    def test_unit_vectors_give_the_matrix_columns(self, name):
        # J.e_j is column j of the matrix the models used to build, bit for
        # bit, on single states and on a batch
        system = get_system(name)
        lanes = _box_states(system, 200, seed=3)
        for j in range(system.dim):
            e = tuple(1.0 if k == j else 0.0 for k in range(system.dim))
            for row in lanes[:50]:
                x = tuple(row.tolist())
                column = [entries[j] for entries in MATRICES[name](*x)]
                got = system.jacobian(x, e)
                assert type(got) is tuple
                assert _bits(got) == _bits(column)
            got = on_lanes(system.jacobian, lanes, np.tile(e, (len(lanes), 1)))
            assert got.shape == lanes.shape
            columns = MATRICES[name](*lanes.T)
            for i in range(system.dim):
                expected = np.broadcast_to(columns[i][j], (len(lanes),))
                assert _bits(got[:, i]) == _bits(expected)

    @pytest.mark.parametrize("name", ["lv", "sirs"])
    def test_rows_add_in_the_pinned_order(self, name):
        # each row adds its terms in the order the pinned outputs were made
        # with (lv t0 + t1, sirs (t0 + t2) + t1), structural zeros included,
        # so states and vectors with zeros, inf and nan keep their bits
        system = get_system(name)
        order = {"lv": (0, 1), "sirs": (0, 2, 1)}[name]
        states = [0.0, 1e-300, 0.5, 3.0, 1e200, math.inf, math.nan]
        vectors = states + [-0.0, -0.5, -1e200, -math.inf]
        rng = np.random.default_rng(9)
        for _ in range(2000):
            x = tuple(float(v) for v in rng.choice(states, size=system.dim))
            v = tuple(float(w) for w in rng.choice(vectors, size=system.dim))
            expected = []
            for row in MATRICES[name](*x):
                total = row[order[0]] * v[order[0]]
                for k in order[1:]:
                    total = total + row[k] * v[k]
                expected.append(total)
            assert _bits(system.jacobian(x, v)) == _bits(expected), (x, v)
            with np.errstate(all="ignore"):
                lane = on_lanes(system.jacobian, np.array([x]), np.array([v]))[0]
            assert _bits(lane) == _bits(expected), (x, v)

    @pytest.mark.parametrize("name", ["lv", "sirs"])
    def test_agrees_with_a_central_difference_of_F(self, name):
        system = get_system(name)
        lanes = _box_states(system, 500, seed=4)
        v = np.random.default_rng(5).standard_normal(lanes.shape)
        eps = 1e-5
        diff = ((on_lanes(system.F, lanes + eps * v) - on_lanes(system.F, lanes - eps * v))
                / (2.0 * eps))
        jv = on_lanes(system.jacobian, lanes, v)
        # F is quadratic, so the central difference is exact up to rounding
        np.testing.assert_allclose(jv, diff, rtol=1e-7, atol=1e-7)
        for x, w, expected in zip(lanes[:50], v[:50], jv[:50]):
            assert _bits(system.jacobian(tuple(x.tolist()), tuple(w.tolist()))) == _bits(expected)

    def test_user_system_of_dim_9_same_bits_on_floats_and_lanes(self):
        system = ring(9)
        lanes = _box_states(system, 200, seed=6)
        v = np.random.default_rng(7).standard_normal(lanes.shape)
        eps = 1e-5
        np.testing.assert_allclose(on_lanes(system.jacobian, lanes, v),
                                   (on_lanes(system.F, lanes + eps * v)
                                    - on_lanes(system.F, lanes - eps * v))
                                   / (2.0 * eps), rtol=1e-7, atol=1e-7)
        cfg = second_order_config(system)
        hs = 10.0 ** np.random.default_rng(8).uniform(-3.0, 2.0, len(lanes))
        batch = system_nsfd_step(system, cfg, lanes, hs)
        for x, h, row in zip(lanes, hs, batch):
            out = system_nsfd_step(system, cfg, tuple(x.tolist()), float(h))
            assert type(out) is tuple
            assert _bits(out) == _bits(row) == _bits(system_nsfd_step(system, cfg, x[None], h)[0])
        for h in (0.05, 1.0):
            traj = integrate_system(system, cfg, tuple(lanes[0].tolist()), h, 100 * h)
            lane = lanes[:1]
            for state in traj.states[1:]:
                lane = system_nsfd_step(system, cfg, lane, h)
                assert _bits(state) == _bits(lane[0]), h


#: the components of the contract property: zero, the smallest subnormal,
#: tiny and huge values, inf and nan
CONTRACT_VALUES = [0.0, 5e-324, 1e-300, 1e200, math.inf, math.nan]

CONTRACT_SYSTEMS = st.one_of(st.sampled_from(["lv", "sirs"]).map(get_system),
                             st.integers(1, 9).map(ring))


def _nan_bits(values) -> list[str]:
    """``_bits`` with every nan read as nan, whatever its sign: the sign of a
    float-path nan is not reproducible."""
    return ["nan" if math.isnan(v) else v.hex()
            for v in np.asarray(values, dtype=float).ravel().tolist()]


class TestModelContract:
    """Every model callable and one order-2 step give the same bits on a
    tuple of floats, on a one-lane batch and on a 200-lane batch."""

    @settings(max_examples=60, deadline=None)
    @given(system=CONTRACT_SYSTEMS, seed=st.integers(0, 2**32 - 1),
           h=st.sampled_from([2.0**-7, 0.7, 1e3]))
    def test_floats_one_lane_and_many_lanes_agree(self, system, seed, h):
        rng = np.random.default_rng(seed)
        lanes = rng.choice(CONTRACT_VALUES, size=(200, system.dim))
        signs = rng.choice([1.0, -1.0], size=lanes.shape)
        vs = rng.choice(CONTRACT_VALUES, size=lanes.shape) * signs
        update = system_step_map(system, second_order_config(system)).update
        callables = [system.F, system.rep.f_plus, system.rep.f_minus]
        with np.errstate(all="ignore"):
            many = [on_lanes(fn, lanes) for fn in callables]
            many.append(on_lanes(system.jacobian, lanes, vs))
            many.append(update(lanes, h))
            for i, (x, v) in enumerate(zip(lanes, vs)):
                floats, w = tuple(x.tolist()), tuple(v.tolist())
                single = [fn(floats) for fn in callables]
                single += [system.jacobian(floats, w), update(floats, h)]
                assert all(type(out) is tuple for out in single)
                for got, batch in zip(single, many):
                    assert _nan_bits(got) == _nan_bits(batch[i]), (x, v)
                if i < 8:
                    one = [on_lanes(fn, x[None]) for fn in callables]
                    one += [on_lanes(system.jacobian, x[None], v[None]), update(x[None], h)]
                    for got, lane in zip(single, one):
                        assert _nan_bits(got) == _nan_bits(lane[0]), (x, v)


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

    def test_sirs_drift_at_large_steps_is_a_known_limitation(self):
        # Known limitation, pinned so that it cannot hide: the componentwise
        # scheme does not conserve S + I + R. At h = 20 the total drifts by
        # about 0.45 and the run settles on the endemic point of a smaller
        # population (I about 0.073 against I* = 2/9); at h = 0.1 the drift
        # stays at the truncation level. A conservative scheme must change
        # this test on purpose.
        s = get_system("sirs")
        cfg = second_order_config(s)
        coarse = integrate_system(s, cfg, DEFAULT_STARTS["sirs"], 20.0, 2000.0)
        drift = np.max(np.abs(conserved_series(s, coarse) - 1.0))
        assert drift > 0.1
        assert coarse.final_state[1] < 0.1 < s.equilibria[0][1]
        fine = integrate_system(s, cfg, DEFAULT_STARTS["sirs"], 0.1, 2000.0)
        assert np.max(np.abs(conserved_series(s, fine) - 1.0)) < 1e-4

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


def validate_components(sys: SystemProblem, n_samples: int = 10_000) -> float:
    """Largest violation of f_plus >= 0 >= f_minus over seeded random states
    in the system's sampling box (0 when the signs hold)."""
    lo, hi = sys.box
    states = np.random.default_rng(0).uniform(lo, hi, size=(n_samples, sys.dim))
    fp = on_lanes(sys.rep.f_plus, states)
    fm = on_lanes(sys.rep.f_minus, states)
    return max(float(np.max(-fp, initial=0.0)), float(np.max(fm, initial=0.0)))


class TestComponentSigns:
    @pytest.mark.parametrize("name", ["lv", "sirs"])
    def test_registry_components_satisfy_sign_conditions(self, name):
        assert validate_components(get_system(name)) == 0.0

    def test_violation_reported(self):
        lv = get_system("lv")
        bad = SystemProblem(
            name="bad", dim=2, F=lv.F,
            rep=Representation(f_plus=lambda s: tuple(-np.ones_like(v) for v in s),
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
        fp, fm = on_lanes(system.rep.f_plus, lanes), on_lanes(system.rep.f_minus, lanes)
        F = on_lanes(system.F, lanes)
        assert np.all(np.abs(fp + lanes * fm - F) <= 1e-14 * (1.0 + np.abs(F)))
        assert np.all(fp >= 0.0) and np.all(fm <= 0.0)
        for row in lanes[:100]:
            x = tuple(row.tolist())
            fp, fm, F = system.rep.f_plus(x), system.rep.f_minus(x), system.F(x)
            assert isinstance(fp, tuple) and isinstance(fm, tuple)
            for x_i, fp_i, fm_i, F_i in zip(x, fp, fm, F):
                assert abs(fp_i + x_i * fm_i - F_i) <= 1e-14 * (1.0 + abs(F_i))
                assert fp_i >= 0.0 >= fm_i
