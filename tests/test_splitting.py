import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nsfd
from nsfd.errors import AmbiguousTail, NegativeAtZero
from nsfd.model import Representation, ScalarProblem, register_problem, with_equilibria
from nsfd.problems import get_problem, problem_names
from nsfd.rootfind import scan_zeros
from nsfd.splitting import compute_bounds, lemma1_split, theorem1_split, validate_representation


def _problem(name, f, df, domain=(0.0, 10.0), f0_nonneg=True):
    return register_problem(ScalarProblem(name=name, f=f, df=df, domain_hint=domain,
                                          f0_nonneg=f0_nonneg))


_MONOD_ARGMAX = (2.0 * np.sqrt(3.0) - 3.0) / 3.0  # root of 1 - 6y - 3y^2 (mu = 2)
_POWERLAW_ARGMAX = 4.0 ** (-1.0 / 3.0)  # root of 1 - 4y^3

#: (min, max) of f on [0, y_m] for every registry problem, in closed form
ANALYTIC_EXTREMES = {
    "logistic": (0.0, 1.0),
    "cubic": (0.0, 2.0 / (3.0 * np.sqrt(3.0))),
    "sine": (-1.0, 1.0),
    "monod": (0.0, _MONOD_ARGMAX * (1.0 - 3.0 * _MONOD_ARGMAX) / (1.0 + _MONOD_ARGMAX)),
    "powerlaw": (0.0, _POWERLAW_ARGMAX - _POWERLAW_ARGMAX**4),
}


def _zeros(p):
    return scan_zeros(p.f, *p.domain_hint)


class TestFindZeros:
    def test_logistic(self):
        p = get_problem("logistic")
        roots = _zeros(p)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.0, abs=1e-12)
        assert roots[1] == pytest.approx(2.0, abs=1e-9)
        assert all(abs(float(p.f(r))) <= 1e-12 for r in roots)

    def test_sine(self):
        roots = _zeros(get_problem("sine"))
        assert np.allclose(roots, [0.0, 1.0, 2.0, 3.0], atol=1e-9)


class TestComputeBounds:
    def test_logistic(self):
        p = get_problem("logistic")
        b = compute_bounds(p.f, _zeros(p))
        assert b.l == pytest.approx(0.0, abs=1e-12)
        assert b.L == pytest.approx(1.0, rel=1e-6)
        assert b.M == pytest.approx(1.0, rel=1e-6)
        assert b.M >= 1.0  # certified cover, not an estimate
        assert b.tail_sign == "negative"

    def test_cubic(self):
        p = get_problem("cubic")
        b = compute_bounds(p.f, _zeros(p))
        peak = 2.0 / (3.0 * np.sqrt(3.0))
        assert b.l == pytest.approx(0.0, abs=1e-12)
        assert b.L == pytest.approx(peak, rel=1e-6)
        assert b.L >= peak
        assert b.M == pytest.approx(peak, rel=1e-6)
        assert b.tail_sign == "negative"

    @pytest.mark.parametrize("name", ["logistic", "cubic", "sine", "monod", "powerlaw"])
    def test_bounds_ordering_invariants(self, name):
        # f attains 0 on [0, y_m], so l <= 0 <= L, and M covers both
        p = get_problem(name)
        b = compute_bounds(p.f, _zeros(p))
        assert b.l <= 0.0 <= b.L
        assert b.M >= abs(b.l) and b.M >= abs(b.L)
        # l and L cover the analytic extremes, padded outward by no more
        # than the refinement's certified margin
        low, high = ANALYTIC_EXTREMES[name]
        assert low - 3e-8 * (1.0 + abs(low)) <= b.l <= low
        assert high <= b.L <= high + 3e-8 * (1.0 + high)

    def test_empty_zeros_rejected(self):
        with pytest.raises(ValueError):
            compute_bounds(get_problem("logistic").f, [])

    def test_ambiguous_tail(self):
        # f oscillates within the probe window beyond the claimed last zero
        p = _problem("osc", lambda y: np.sin(500.0 * np.asarray(y)),
                     lambda y: 500.0 * np.cos(500.0 * np.asarray(y)), domain=(0.0, 1.0))
        with pytest.raises(AmbiguousTail):
            compute_bounds(p.f, [0.0])


class TestLemma1Split:
    def test_case2_logistic_constant_g(self):
        p = get_problem("logistic")
        bounds = compute_bounds(p.f, _zeros(p))
        f_plus, f_minus = lemma1_split(p.f, *p.domain_hint)
        ys = np.linspace(0.0, 10.0, 500)
        assert np.array_equal(f_plus(ys), np.full_like(ys, bounds.M))
        assert np.array_equal(f_minus(ys), p.f(ys) - bounds.M)
        assert np.all(np.asarray(f_minus(ys)) <= 1e-12)
        assert np.allclose(f_plus(ys) + f_minus(ys), p.f(ys))

    def test_case1_shifted_line(self):
        p = _problem("line", lambda y: np.asarray(y, float) - 1.0,
                     lambda y: np.ones_like(np.asarray(y, float)), f0_nonneg=False)
        bounds = compute_bounds(p.f, _zeros(p))
        assert bounds.tail_sign == "positive"
        assert bounds.l == pytest.approx(-1.0)
        assert bounds.M == pytest.approx(1.0)
        f_plus, f_minus = lemma1_split(p.f, *p.domain_hint)
        ys = np.linspace(0.0, 10.0, 200)
        assert np.allclose(f_plus(ys), ys)
        assert np.allclose(f_minus(ys), -1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_free_function_is_its_own_split(self, sign):
        # a function of one sign on the window is split with g = 0
        fn = lambda y: sign * (np.asarray(y, float) ** 2 + 1.0)  # noqa: E731
        assert scan_zeros(fn, 0.0, 10.0) == []
        f_plus, f_minus = lemma1_split(fn, 0.0, 10.0)
        split, zero = (f_plus, f_minus) if sign > 0 else (f_minus, f_plus)
        assert split is fn
        ys = np.linspace(0.0, 10.0, 500)
        assert np.array_equal(zero(ys), np.zeros_like(ys))

    def test_reconstruction_is_exact_composition(self):
        p = _problem("line2", lambda y: np.asarray(y, float) - 1.0,
                     lambda y: np.ones_like(np.asarray(y, float)), f0_nonneg=False)
        f_plus, f_minus = lemma1_split(p.f, *p.domain_hint)
        ys = np.linspace(0.0, 10.0, 1000)
        assert np.max(np.abs(f_plus(ys) + f_minus(ys) - p.f(ys))) == 0.0


class TestTheorem1Split:
    def test_logistic_reproduces_hand_representation(self):
        p = get_problem("logistic")
        rep = theorem1_split(p)
        assert rep.provenance == "auto_theorem1"
        ys = np.linspace(0.0, 10.0, 500)
        assert np.max(np.abs(rep.f_plus(ys) - 2.0 * ys)) <= 1e-6
        assert np.max(np.abs(rep.f_minus(ys) + ys)) <= 1e-6

    def test_cubic_reproduces_hand_representation(self):
        p = get_problem("cubic")
        rep = theorem1_split(p)
        ys = np.linspace(0.0, 10.0, 500)
        assert np.max(np.abs(rep.f_plus(ys) - ys)) <= 1e-6 * (1.0 + ys.max())
        assert np.max(np.abs(rep.f_minus(ys) + ys * ys)) <= 1e-6 * (1.0 + (ys * ys).max())

    def test_positive_at_zero_shift(self):
        p = _problem("decayshift", lambda y: 1.0 - np.asarray(y, float),
                     lambda y: -np.ones_like(np.asarray(y, float)))
        rep = theorem1_split(p)
        ys = np.linspace(0.0, 10.0, 300)
        assert np.allclose(rep.f_plus(ys), 1.0, atol=1e-8)
        assert np.allclose(rep.f_minus(ys), -1.0, atol=1e-8)

    def test_pure_decay(self):
        p = _problem("decay", lambda y: -np.asarray(y, float),
                     lambda y: -np.ones_like(np.asarray(y, float)))
        rep = theorem1_split(p)
        ys = np.linspace(0.0, 10.0, 300)
        assert np.allclose(rep.f_plus(ys), 0.0, atol=1e-12)
        assert np.allclose(rep.f_minus(ys), -1.0, atol=1e-12)

    def test_negative_at_zero(self):
        p = ScalarProblem(name="neg", f=lambda y: -1.0 + 0.0 * np.asarray(y),
                          df=lambda y: 0.0 * np.asarray(y), domain_hint=(0.0, 1.0),
                          f0_nonneg=False)
        with pytest.raises(NegativeAtZero):
            theorem1_split(p)

    @pytest.mark.parametrize("name", problem_names())
    def test_round_trip_and_signs_for_registry(self, name):
        p = get_problem(name)
        report = validate_representation(p, theorem1_split(p))
        assert report.passed, report


def test_splitting_layer_runs_without_scipy():
    # numpy is the only runtime dependency: import, the registry, the
    # automatic splitting and `nsfd split` leave scipy unloaded
    code = textwrap.dedent("""
        import sys
        import nsfd
        from nsfd import cli
        from nsfd.problems import get_problem, problem_names, scheme_bundles
        from nsfd.splitting import theorem1_split
        from nsfd.systems import get_system, system_names
        for name in problem_names():
            scheme_bundles(name)
            theorem1_split(get_problem(name))
            cli.main(["split", "--problem", name])
        for name in system_names():
            get_system(name)
        print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
    """)
    path = [str(Path(nsfd.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines()[-1] == "[]"


class TestValidateRepresentation:
    def test_quadratic_logistic_representation(self):
        p = get_problem("logistic")
        rep = Representation(f_plus=lambda y: 2.0 * np.asarray(y, float) + np.asarray(y, float) ** 2,
                             f_minus=lambda y: -2.0 * np.asarray(y, float))
        assert validate_representation(p, rep).passed

    def test_sine_representation(self):
        p = get_problem("sine")
        rep = Representation(f_plus=lambda y: np.sin(np.pi * np.asarray(y, float)) + np.pi * np.asarray(y, float),
                             f_minus=lambda y: -np.pi * np.ones_like(np.asarray(y, float)))
        assert validate_representation(p, rep).passed

    def test_sign_violation_detected(self):
        p = get_problem("cubic")
        rep = Representation(f_plus=lambda y: np.asarray(y, float),
                             f_minus=lambda y: np.asarray(y, float) ** 2)
        report = validate_representation(p, rep)
        assert not report.passed
        assert report.max_minus_violation > 1.0

    def test_samples_stay_in_the_nonnegative_window(self):
        # the equilibrium at y* = -1/2 lies outside [0, 3], where f_plus =
        # y * g_plus is negative; the report checks only its window
        def f(y):
            y = np.asarray(y, float)
            return y * (1.0 - y) * (y + 0.5)

        p = with_equilibria(ScalarProblem(name="negwin", f=f,
                                          df=lambda y: 0.5 - 3.0 * np.asarray(y, float) ** 2,
                                          domain_hint=(-1.0, 3.0)))
        assert min(e.y_star for e in p.equilibria) < 0.0
        report = validate_representation(p, theorem1_split(p))
        assert report.window == (0.0, 3.0)
        assert report.passed, report


@settings(max_examples=40, deadline=None)
@given(
    c1=st.floats(-3.0, 3.0),
    c2=st.floats(-3.0, 3.0),
    c3=st.floats(-3.0, 3.0),
)
def test_auto_split_property_for_cubic_polynomials(c1, c2, c3):
    """Round-trip and sign constraints hold for the automatic splitting of
    y*(c1 + c2*y + c3*y^2), whatever zero structure the scan encounters."""
    assume(abs(c1) + abs(c2) + abs(c3) > 0.1)

    def f(y):
        y = np.asarray(y, dtype=float)
        return y * (c1 + c2 * y + c3 * y * y)

    def df(y):
        y = np.asarray(y, dtype=float)
        return c1 + 2.0 * c2 * y + 3.0 * c3 * y * y

    p = ScalarProblem(name="poly", f=f, df=df, domain_hint=(0.0, 10.0))
    try:
        rep = theorem1_split(p)
    except AmbiguousTail:
        assume(False)
    ys = np.linspace(0.0, 10.0, 2000)
    fp = np.asarray(rep.f_plus(ys), dtype=float)
    fm = np.asarray(rep.f_minus(ys), dtype=float)
    fv = np.asarray(f(ys), dtype=float)
    assert np.min(fp) >= -1e-12
    assert np.max(fm) <= 1e-12
    assert np.max(np.abs(fp + ys * fm - fv) / (1.0 + np.abs(fv))) <= 1e-10
