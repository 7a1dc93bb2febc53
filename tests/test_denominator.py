import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd.denominator import (
    DenominatorSpec,
    check_H_conditions,
    constant_rate,
    derived_denominator,
    lambda_from_scheme,
    phi,
    phim,
)
from nsfd.errors import NonPositiveStep
from nsfd.model import SchemeConfig
from nsfd.problems import get_problem, get_scheme, problem_names, scheme_bundles

mp.mp.dps = 50


def phim_reference(x: float) -> float:
    """Independent high-precision evaluation of (1 - exp(-x))/x."""
    if x == 0.0:
        return 1.0
    xm = mp.mpf(x)
    return float(-mp.expm1(-xm) / xm)


class TestPhim:
    def test_at_zero(self):
        assert phim(0.0) == 1.0

    def test_unit_argument(self):
        assert phim(1.0) == pytest.approx(phim_reference(1.0), rel=1e-15)
        assert phim_reference(1.0) == pytest.approx(0.6321205588285577, rel=1e-12)

    def test_negative_argument(self):
        assert phim(-2.0) == pytest.approx(phim_reference(-2.0), rel=1e-15)
        assert phim_reference(-2.0) == pytest.approx(3.194528049465325, rel=1e-12)

    def test_series_cutoff_is_seamless(self):
        for x in (9.999e-6, 1.0001e-5, -9.999e-6, -1.0001e-5):
            assert phim(x) == pytest.approx(phim_reference(x), rel=1e-14)

    def test_array_matches_scalar(self):
        xs = np.array([-20.0, -1e-7, 0.0, 3e-6, 0.5, 40.0])
        np.testing.assert_allclose(phim(xs), [phim(float(x)) for x in xs], rtol=1e-15)

    def test_always_positive_and_saturating(self):
        xs = np.array([-1e6, -800.0, -700.0, -5.0, 0.0, 5.0, 700.0, 1e6])
        vals = np.asarray(phim(xs))
        assert np.all(vals > 0.0)
        assert np.all(np.isfinite(vals))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-600.0, 600.0))
    def test_matches_extended_precision(self, x):
        assert phim(x) == pytest.approx(phim_reference(x), rel=1e-14)


class TestLambdaFromScheme:
    def test_logistic_beta_125(self):
        b = get_scheme("logistic", "snsfd1")
        lam = lambda_from_scheme(get_problem("logistic"), b.rep, 1.25)
        assert float(lam(0.0)) == pytest.approx(-2.0)
        ys = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(lam(ys), -2.0 - 0.5 * ys, rtol=1e-14)

    def test_logistic_beta_one_is_constant(self):
        b = get_scheme("logistic", "snsfd1")
        lam = lambda_from_scheme(get_problem("logistic"), b.rep, 1.0)
        ys = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(lam(ys), -2.0, rtol=1e-14)

    def test_cubic_is_constant_minus_one(self):
        b = get_scheme("cubic", "nsfd")
        lam = lambda_from_scheme(get_problem("cubic"), b.rep, 1.5)
        ys = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(lam(ys), -1.0, atol=1e-13)


class TestPhi:
    def test_zero_rate_gives_h(self):
        spec = DenominatorSpec(lambda_fn=lambda y: 0.0 * np.asarray(y, float))
        assert float(phi(spec, 0.3, 1.0)) == pytest.approx(0.3, rel=1e-15)

    def test_exact_logistic_denominator(self):
        # beta = 1 rate is constant -2, so phi(h) = (e^{2h} - 1)/2
        spec = get_scheme("logistic", "snsfd3").spec
        for h in (0.1, 0.5, 1.0, 3.0):
            expected = float((mp.e**(2 * mp.mpf(h)) - 1) / 2)
            assert float(phi(spec, h, 7.3)) == pytest.approx(expected, rel=1e-14)

    def test_constant_rate_pi(self):
        # (1 - e^{-0.1 pi})/pi; frozen from the high-precision oracle
        expected = float((1 - mp.e**(-mp.pi / 10)) / mp.pi)
        assert expected == pytest.approx(0.08581548872776188, rel=1e-14)
        assert float(phi(constant_rate(np.pi), 0.1, 0.0)) == pytest.approx(expected, rel=1e-13)

    def test_nonpositive_step_rejected(self):
        spec = constant_rate(1.0)
        with pytest.raises(NonPositiveStep):
            phi(spec, 0.0, 1.0)
        with pytest.raises(NonPositiveStep):
            phi(spec, -0.1, 1.0)

    def test_positive_for_both_rate_signs(self):
        for rate in (-7.0, -2.0, 2.0, 7.0):
            spec = constant_rate(rate)
            for h in np.logspace(-3, 2, 12):
                assert float(phi(spec, float(h), 0.0)) > 0.0

    def test_h_to_zero_consistency(self):
        b = get_scheme("logistic", "snsfd1")
        for y in (0.0, 0.5, 2.0, 9.0):
            ratios = [float(phi(b.spec, h, y)) / h for h in (1e-3, 1e-5, 1e-7)]
            assert abs(ratios[-1] - 1.0) < 1e-6
            assert abs(ratios[0] - 1.0) < 1e-2

    def test_array_step_sizes(self):
        b = get_scheme("logistic", "snsfd1")
        hs = np.array([0.1, 1.0, 10.0])
        ys = np.array([0.5, 1.0, 2.0])
        vals = np.asarray(phi(b.spec, hs, ys))
        expect = [float(phi(b.spec, float(h), float(y))) for h, y in zip(hs, ys)]
        np.testing.assert_allclose(vals, expect, rtol=1e-15)


def second_h_derivative_at_zero(spec, y: float, scale: float) -> float:
    """d2phi/dh2(0, y) by one-sided second differences of ``phi`` with two
    Richardson levels; phi(0, y) = 0, so only positive steps are used."""
    h0 = 1e-3 / (1.0 + abs(scale))

    def d2(h):
        return (float(phi(spec, 2.0 * h, y)) - 2.0 * float(phi(spec, h, y))) / (h * h)

    def r(h):
        return 2.0 * d2(h / 2.0) - d2(h)

    return (4.0 * r(h0 / 2.0) - r(h0)) / 3.0


class TestSecondDerivativeProperty:
    def test_eq17_second_derivative_is_minus_lambda(self):
        # an independent check of the kernel behind the closed-form H3:
        # every registry denominator has d2phi/dh2(0, y) = -lam(y)
        specs = [(p, label, b.spec) for p in problem_names()
                 for label, b in scheme_bundles(p).items() if b.spec is not None]
        assert len(specs) == 14
        for p, label, spec in specs:
            for y in (0.0, 0.5, 2.0, 5.0, 10.0):
                lam = float(spec.lambda_fn(y))
                est = second_h_derivative_at_zero(spec, y, lam)
                assert est == pytest.approx(-lam, rel=1e-4, abs=1e-8), (p, label, y)


class TestCheckHConditions:
    def test_snsfd1_passes_with_vacuous_h2(self):
        b = get_scheme("logistic", "snsfd1")
        report = check_H_conditions(get_problem("logistic"), b.rep, b.config, b.spec)
        assert report.passed
        assert any("vacuous at y* = 2" in w for w in report.witnesses)

    def test_wood_denominator_fails_h3(self):
        b = get_scheme("logistic", "wood")
        report = check_H_conditions(get_problem("logistic"), b.rep, b.config, b.spec)
        assert not report.h3
        assert not report.h4  # alpha = 1 lies outside the admissible weights

    def test_equal_rate_written_differently_passes_h3(self):
        # snsfd1's derived rate -f' + 2*beta*f_minus, written out by hand;
        # the two forms differ by rounding only
        b = get_scheme("logistic", "snsfd1")
        spec = DenominatorSpec(lambda_fn=lambda y: -2.0 - 0.5 * np.asarray(y, float))
        report = check_H_conditions(get_problem("logistic"), b.rep, b.config, spec)
        assert report.h3, str(report)
        off = DenominatorSpec(lambda_fn=lambda y: -2.0 - 0.5 * (1.0 + 1e-9) * np.asarray(y, float))
        assert not check_H_conditions(get_problem("logistic"), b.rep, b.config, off).h3

    def test_half_half_weights_fail_h4(self):
        b = get_scheme("logistic", "snsfd1")
        cfg = SchemeConfig(alpha=0.5, beta=0.5, validate=False)
        report = check_H_conditions(get_problem("logistic"), b.rep, cfg, b.spec)
        assert not report.h4

    @pytest.mark.parametrize(
        "problem,label",
        [("logistic", "snsfd1"), ("logistic", "snsfd2"), ("logistic", "snsfd3"),
         ("cubic", "nsfd"), ("sine", "nsfd"), ("monod", "nsfd"), ("powerlaw", "nsfd")],
    )
    def test_derived_schemes_pass(self, problem, label):
        b = get_scheme(problem, label)
        report = check_H_conditions(get_problem(problem), b.rep, b.config, b.spec)
        assert report.passed, str(report)

    @pytest.mark.parametrize(
        "problem,label",
        [("logistic", "snsfd3-printed"), ("cubic", "nsfd-printed"),
         ("sine", "nsfd-printed"), ("monod", "nsfd-printed"),
         ("powerlaw", "nsfd-printed"), ("monod", "mickens")],
    )
    def test_printed_denominators_fail_h3(self, problem, label):
        b = get_scheme(problem, label)
        report = check_H_conditions(get_problem(problem), b.rep, b.config, b.spec)
        assert not report.h3


def test_derived_denominator_labels():
    spec = derived_denominator(get_problem("logistic"),
                               get_scheme("logistic", "snsfd1").rep, 1.25)
    assert "derived" in spec.label

