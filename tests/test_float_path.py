"""The float path of the scalar steps against the array path.

A state and step size that arrive as Python floats skip numpy; every other
input runs vectorised. The two paths must agree bit for bit, raise the same
errors, and reject the same step sizes.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsfd.denominator import ARG_FLOOR, SERIES_CUTOFF, derived_from, phi
from nsfd.errors import NegativeState, NonPositiveStep, NsfdError
from nsfd.problems import get_problem, problem_names, scheme_bundles
from nsfd.schemes import nsfd_step_map

#: every registry scheme with a float path (the weighted family bundles,
#: wood and the Mickens schemes)
CASES = {
    f"{pname}/{label}": bundle.step.update
    for pname in problem_names()
    for label, bundle in scheme_bundles(pname).items()
    if label not in ("euler", "rk2")
}

#: the Euler and RK2 baselines, which make no claim on the state but reject
#: a bad step size like every other step. Power-law f computes y**m, which on
#: Python floats rounds differently from numpy's power, so its baselines are
#: checked for bit identity on their own below.
BASELINES = {
    f"{pname}/{label}": scheme_bundles(pname)[label].step.update
    for pname in problem_names()
    for label in ("euler", "rk2")
    if pname != "powerlaw"
}
BIT_IDENTICAL = CASES | BASELINES

EQUILIBRIA = sorted({e.y_star for p in problem_names() for e in get_problem(p).equilibria})

states = st.one_of(
    st.sampled_from(EQUILIBRIA),
    st.floats(0.0, 10.0),
    st.floats(0.0, 1e200),  # far enough out for f to overflow
)
steps = st.one_of(
    st.floats(1e-9, 1e-6),  # |h*lam| < SERIES_CUTOFF: the kernel's series branch
    st.floats(1e-6, 100.0),  # up to h*lam < ARG_FLOOR: the saturated kernel
)


def outcome(update, y, h):
    """The step's value, or the type of the package error it raised."""
    try:
        with np.errstate(all="ignore"):
            return update(y, h)
    except NsfdError as exc:
        return type(exc)


def same(float_result, array_result) -> bool:
    if isinstance(float_result, type) or isinstance(array_result, type):
        return float_result is array_result
    bits = np.array([float_result, array_result[0]], dtype=float).view(np.int64)
    return type(float_result) is float and bits[0] == bits[1]


#: (y, h) where logistic snsfd1 evaluates the kernel by its series and
#: where the kernel saturates at ARG_FLOOR
SERIES_POINT, FLOOR_POINT = (0.5, 1e-7), (1e3, 100.0)


def test_examples_reach_kernel_branches():
    lam = scheme_bundles("logistic")["snsfd1"].spec
    assert abs(SERIES_POINT[1] * lam(SERIES_POINT[0])) < SERIES_CUTOFF
    assert FLOOR_POINT[1] * lam(FLOOR_POINT[0]) < ARG_FLOOR


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(BIT_IDENTICAL)), y=states, h=steps)
@example(name="powerlaw/nsfd", y=1e100, h=0.1)  # f computes y**4, which overflows floats
@example(name="monod/euler", y=-1.0, h=0.1)  # f divides by 1 + y = 0
@example(name="logistic/wood", y=1e200, h=1.0)
@example(name="logistic/snsfd1", y=SERIES_POINT[0], h=SERIES_POINT[1])
@example(name="logistic/snsfd1", y=FLOOR_POINT[0], h=FLOOR_POINT[1])
@example(name="monod/rk2", y=1e200, h=1.0)
def test_float_path_is_bit_identical_to_array_path(name, y, h):
    update = BIT_IDENTICAL[name]
    assert same(outcome(update, y, h), outcome(update, np.array([y]), h))


def _seeded_points(n=2000, seed=0):
    """Fixed (y, h) pairs: each pair has its own h, so a last-bit difference
    in the h-dependent factors of any scheme shows on some pair."""
    rng = np.random.default_rng(seed)
    ys = np.concatenate([rng.uniform(0.0, 10.0, n // 2), 10.0 ** rng.uniform(-300, 200, n // 2)])
    ys[::50] = np.resize(EQUILIBRIA, ys[::50].size)
    return [(float(y), float(h)) for y, h in zip(ys, 10.0 ** rng.uniform(-9, 2, n))]


@pytest.mark.parametrize("name", sorted(BIT_IDENTICAL))
def test_float_path_matches_array_path_on_seeded_points(name):
    update = BIT_IDENTICAL[name]
    for y, h in _seeded_points():
        assert same(outcome(update, y, h), outcome(update, np.array([y]), h)), (y, h)


def _powerlaw_baseline_on_floats(label, y, h):
    """The power-law Euler or RK2 step in Python float arithmetic."""
    f = get_problem("powerlaw").f
    if label == "euler":
        return y + h * f(y)
    k1 = f(y)
    return y + 0.5 * h * (k1 + f(y + h * k1))


@settings(max_examples=400, deadline=None)
@given(label=st.sampled_from(["euler", "rk2"]), y=states, h=steps)
@example(label="euler", y=1e100, h=0.1)  # y**4 overflows floats
@example(label="rk2", y=1e100, h=0.1)
def test_powerlaw_baselines_keep_float_results_and_survive_overflow(label, y, h):
    # float results are those of Python float arithmetic; where y**m raises
    # OverflowError on floats the step returns the array path's inf/nan
    update = scheme_bundles("powerlaw")[label].step.update
    try:
        expected = _powerlaw_baseline_on_floats(label, y, h)
    except OverflowError:
        expected = outcome(update, np.array([y]), h)[0]
        assert not math.isfinite(expected)
    got = outcome(update, y, h)
    assert type(got) is float
    assert np.array([got]).view(np.int64)[0] == np.array([expected]).view(np.int64)[0]


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(CASES)), y=st.floats(-10.0, -1e-300), h=steps)
def test_negative_states_fail_alike(name, y, h):
    update = CASES[name]
    assert same(outcome(update, y, h), outcome(update, np.array([y]), h))


@pytest.mark.parametrize("name", sorted(CASES))
def test_positive_maps_refuse_negative_states(name):
    # every map here is claimed positive: the branching and Mickens maps
    # refuse a negative state like the weighted ones, -inf included
    problem, label = name.split("/")
    assert scheme_bundles(problem)[label].positive
    for y in (-0.5, -math.inf):
        assert outcome(CASES[name], y, 0.1) is NegativeState
        assert outcome(CASES[name], np.array([y]), 0.1) is NegativeState


bad_steps = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(max_value=0.0, allow_nan=False),
)


#: the weighted steps with a derived rate, rebuilt with the rate wrapped so
#: that the float step calls it instead of sharing its f_minus value
VIA_LAMBDA_FN = {
    f"{pname}/{label} via lambda_fn": nsfd_step_map(
        get_problem(pname), b.rep, b.config,
        lambda y, lam=b.spec: lam(y)).update
    for pname in problem_names()
    for label, b in scheme_bundles(pname).items()
    if b.spec is not None and derived_from(b.spec) is not None
}

#: every scalar step: the float-path cases, all Euler/RK2 baselines, and the
#: weighted steps that go through lambda_fn
ALL_STEPS = BIT_IDENTICAL | VIA_LAMBDA_FN | {
    f"powerlaw/{label}": scheme_bundles("powerlaw")[label].step.update for label in ("euler", "rk2")
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(ALL_STEPS)),
       y=st.one_of(st.sampled_from(EQUILIBRIA), st.floats(0.0, 10.0)), h=bad_steps)
@example(name="logistic/euler", y=0.5, h=math.nan)
@example(name="logistic/euler", y=0.5, h=-0.1)
@example(name="powerlaw/rk2", y=0.5, h=0.0)
def test_non_finite_or_nonpositive_step_rejected(name, y, h):
    # at an equilibrium too, where the step would otherwise return y
    update = ALL_STEPS[name]
    assert outcome(update, y, h) is NonPositiveStep
    assert outcome(update, np.array([y]), h) is NonPositiveStep


SPECIAL_STATES = (math.nan, math.inf, -math.inf, -0.0, -1.0, 1e300, 0.0)
SPECIAL_STEPS = (0.1, 1e3, math.nan, -1.0)


def same_up_to_nan(float_result, array_result) -> bool:
    """``same``, except that any nan equals any nan (numpy and Python
    arithmetic may give nan different signs)."""
    if not isinstance(float_result, type) and not isinstance(array_result, type):
        if type(float_result) is float and math.isnan(float_result):
            return math.isnan(array_result[0])
    return same(float_result, array_result)


@pytest.mark.parametrize("name", sorted(ALL_STEPS))
def test_special_inputs_end_alike_on_both_paths(name):
    # every non-finite, signed-zero, negative and huge state against good and
    # bad step sizes: the same named error, or the same value
    update = ALL_STEPS[name]
    for y, h in itertools.product(SPECIAL_STATES, SPECIAL_STEPS):
        assert same_up_to_nan(outcome(update, y, h), outcome(update, np.array([y]), h)), (y, h)


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_phi_rejects_non_finite_step(h):
    spec = scheme_bundles("logistic")["snsfd1"].spec
    with pytest.raises(NonPositiveStep):
        phi(spec, h, 0.5)
    with pytest.raises(NonPositiveStep):
        phi(spec, np.array([0.1, h]), np.array([0.5, 0.5]))
