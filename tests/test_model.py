import numpy as np
import pytest

from nsfd.errors import DerivativeMismatch, NegativeAtZero, NonHyperbolicWarning
from nsfd.model import (
    Equilibrium,
    ScalarProblem,
    SchemeConfig,
    Trajectory,
    classify_equilibria,
    register_problem,
)
from nsfd.problems import get_problem, get_scheme, problem_names


def test_logistic_accepted():
    p = get_problem("logistic")
    assert float(p.f(0.0)) == 0.0
    assert p.f0_nonneg


def test_negative_at_zero_rejected():
    spec = ScalarProblem(
        name="bad", f=lambda y: -1.0 + 0.0 * np.asarray(y), df=lambda y: 0.0 * np.asarray(y),
        domain_hint=(0.0, 1.0), f0_nonneg=True,
    )
    with pytest.raises(NegativeAtZero):
        register_problem(spec)


def test_sine_derivative_check_passes():
    spec = ScalarProblem(
        name="sine2", f=lambda y: np.sin(np.pi * y), df=lambda y: np.pi * np.cos(np.pi * y),
        domain_hint=(0.0, 3.5),
    )
    register_problem(spec)


def test_wrong_derivative_rejected():
    spec = ScalarProblem(
        name="wrongdf", f=lambda y: np.sin(np.pi * y), df=lambda y: np.cos(np.pi * y),
        domain_hint=(0.0, 3.5),
    )
    with pytest.raises(DerivativeMismatch):
        register_problem(spec)


def test_empty_domain_rejected():
    spec = ScalarProblem(
        name="point", f=lambda y: 2.0 * y - y * y, df=lambda y: 2.0 - 2.0 * y,
        domain_hint=(1.0, 1.0),
    )
    with pytest.raises(ValueError, match=r"point: empty domain_hint \(1.0, 1.0\)"):
        register_problem(spec)


def test_unknown_names_list_the_choices():
    with pytest.raises(KeyError, match="unknown problem 'nope'; choose from .*'logistic'"):
        get_problem("nope")
    with pytest.raises(KeyError, match="unknown scheme 'nope' for 'logistic'; choose from .*'wood'"):
        get_scheme("logistic", "nope")


def test_registration_idempotent():
    spec = ScalarProblem(
        name="twice", f=lambda y: 2.0 * y - y * y, df=lambda y: 2.0 - 2.0 * y,
        domain_hint=(0.0, 10.0),
    )
    assert register_problem(spec) == register_problem(spec)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("logistic", [(0.0, "unstable"), (2.0, "stable")]),
        ("cubic", [(0.0, "unstable"), (1.0, "stable")]),
    ],
)
def test_classify_equilibria(name, expected):
    p = get_problem(name)
    got = [(e.y_star, e.classification) for e in p.equilibria]
    assert len(got) == len(expected)
    for (y, cls), (y_exp, cls_exp) in zip(got, expected):
        assert y == pytest.approx(y_exp, abs=1e-9)
        assert cls == cls_exp


def test_classify_non_hyperbolic_flagged():
    spec = register_problem(ScalarProblem(
        name="square", f=lambda y: np.asarray(y, dtype=float) ** 2,
        df=lambda y: 2.0 * np.asarray(y, dtype=float), domain_hint=(0.0, 10.0),
    ))
    with pytest.warns(NonHyperbolicWarning):
        eqs = classify_equilibria(spec)
    assert [(e.y_star, e.classification) for e in eqs] == [(0.0, "non_hyperbolic")]


def test_equilibrium_residual_invariant():
    for name in problem_names():
        p = get_problem(name)
        for eq in p.equilibria:
            assert abs(float(p.f(eq.y_star))) <= 1e-10 * (1.0 + abs(eq.y_star))


def test_classification_thresholds():
    assert Equilibrium(1.0, -1e-9).classification == "stable"
    assert Equilibrium(1.0, 1e-9).classification == "unstable"
    assert Equilibrium(1.0, 5e-11).classification == "non_hyperbolic"
    assert Equilibrium(1.0, -5e-11).classification == "non_hyperbolic"


def test_exact_solutions_satisfy_ode():
    # central-difference residual of the attached closed forms
    eps = 1e-6
    for name in problem_names():
        p = get_problem(name)
        if p.exact_solution is None:
            continue
        for y0 in (0.3, 0.5, 1.7):
            ts = np.linspace(eps, 5.0, 100)
            y = np.asarray(p.exact_solution(ts, y0), dtype=float)
            dy = (np.asarray(p.exact_solution(ts + eps, y0), dtype=float)
                  - np.asarray(p.exact_solution(ts - eps, y0), dtype=float)) / (2 * eps)
            assert np.max(np.abs(dy - p.f(y))) <= 1e-6, name


class TestSchemeConfig:
    def test_valid(self):
        cfg = SchemeConfig(alpha=-0.25, beta=1.25)
        assert cfg.weights_admissible

    def test_sum_must_be_exactly_one(self):
        with pytest.raises(ValueError):
            SchemeConfig(alpha=-0.25, beta=1.25 + 1e-12)

    def test_sign_constraints(self):
        with pytest.raises(ValueError):
            SchemeConfig(alpha=0.5, beta=0.5)
        with pytest.raises(ValueError):
            SchemeConfig(alpha=2.0, beta=-1.0)

    def test_unchecked_escape_for_audits(self):
        cfg = SchemeConfig(alpha=0.5, beta=0.5, validate=False)
        assert not cfg.weights_admissible


class TestTrajectory:
    def test_negative_count(self):
        t = Trajectory(states=np.array([1.0, -0.5]), scheme_label="x", problem_name="y", h=1.0)
        assert t.negative_count == 1
        assert t.min_state == -0.5
