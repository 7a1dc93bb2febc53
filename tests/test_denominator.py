import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd.denominator import (
    ARG_FLOOR,
    H_SAMPLES,
    SERIES_CUTOFF,
    check_H_conditions,
    constant_rate,
    derived_denominator,
    phi,
    phim,
)
from nsfd.errors import NonPositiveStep
from nsfd.model import SchemeConfig
from nsfd.problems import get_problem, get_scheme, problem_names, scheme_bundles
from nsfd.splitting import theorem1_split

mp.mp.dps = 50


#: the edges of phim's branches: the series cutoff, the saturation floor and
#: the non-finite arguments
PHIM_EDGES = [0.0, -0.0, SERIES_CUTOFF, -SERIES_CUTOFF, np.nextafter(SERIES_CUTOFF, 0.0),
              -np.nextafter(SERIES_CUTOFF, 0.0), ARG_FLOOR, np.nextafter(ARG_FLOOR, -np.inf),
              np.inf, -np.inf, np.nan]


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
        np.testing.assert_array_equal(phim(xs), [phim(float(x)) for x in xs])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), max_size=40))
    def test_array_matches_scalar_bit_for_bit(self, values):
        # the full float range plus the branch edges, in one array: the series
        # lanes and the expm1 lanes must each equal the float branch
        xs = np.array(values + PHIM_EDGES)
        expect = np.array([phim(float(x)) for x in xs])
        assert phim(xs).tobytes() == expect.tobytes()
        assert phim(xs.reshape(1, -1)).tobytes() == expect.tobytes()

    def test_array_branch_emits_no_warning(self):
        xs = np.array([1e300, -1e300, np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lanes in (xs, np.concatenate([xs, [1e-7, 0.0]])):
                vals = phim(lanes)
                assert vals[:4].tolist() == [phim(float(x)) for x in xs[:4]]
                assert np.all(vals[:4] >= 0.0) and np.isnan(vals[4])

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
        lam = derived_denominator(get_problem("logistic"), b.rep, 1.25)
        assert float(lam(0.0)) == pytest.approx(-2.0)
        ys = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(lam(ys), -2.0 - 0.5 * ys, rtol=1e-14)

    def test_logistic_beta_one_is_constant(self):
        b = get_scheme("logistic", "snsfd1")
        lam = derived_denominator(get_problem("logistic"), b.rep, 1.0)
        ys = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(lam(ys), -2.0, rtol=1e-14)

    def test_cubic_is_constant_minus_one(self):
        b = get_scheme("cubic", "nsfd")
        lam = derived_denominator(get_problem("cubic"), b.rep, 1.5)
        ys = np.linspace(0.0, 10.0, 50)
        np.testing.assert_allclose(lam(ys), -1.0, atol=1e-13)


class TestPhi:
    def test_zero_rate_gives_h(self):
        spec = lambda y: 0.0 * np.asarray(y, float)  # noqa: E731
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
                lam = float(spec(y))
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
        spec = lambda y: -2.0 - 0.5 * np.asarray(y, float)  # noqa: E731
        report = check_H_conditions(get_problem("logistic"), b.rep, b.config, spec)
        assert report.h3, str(report)
        off = lambda y: -2.0 - 0.5 * (1.0 + 1e-9) * np.asarray(y, float)  # noqa: E731
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

    @pytest.mark.parametrize("rate", [1e4, -1e4])
    def test_stiff_constant_rate_passes_h1(self, rate):
        # phi/h - 1 = -h*rate/2 + O(h^2) settles only once h << 1/|rate|;
        # H1 asks for a finite rate, not for that regime inside a fixed grid
        b = get_scheme("logistic", "snsfd1")
        report = check_H_conditions(get_problem("logistic"), b.rep, b.config, constant_rate(rate))
        assert report.h1, str(report)
        assert not any(w.startswith("H1") for w in report.witnesses)

    @pytest.mark.parametrize("beta", [1.0, 1.5])
    def test_automatic_powerlaw_split_passes_h1(self, beta):
        # its derived rate reaches |lam| = 1999 (beta = 1) on the window
        p = get_problem("powerlaw")
        rep = theorem1_split(p)
        spec = derived_denominator(p, rep, beta)
        report = check_H_conditions(p, rep, SchemeConfig(1.0 - beta, beta), spec)
        assert report.passed, str(report)

    def test_non_finite_rate_fails_h1(self):
        b = get_scheme("logistic", "snsfd1")
        spec = lambda y: np.where(np.asarray(y) > 5.0, np.inf, -2.0)  # noqa: E731
        report = check_H_conditions(get_problem("logistic"), b.rep, b.config, spec)
        assert not report.h1
        assert any(w.startswith("H1: lam(y) = inf is not finite at y = 5.05") for w in report.witnesses)

    @pytest.mark.parametrize("rate", [1e-3, 0.0])
    def test_h2_fails_beyond_the_probed_steps(self, rate):
        # bracket = 0.01 > 2*rate: phi*bracket reaches 2 only past h = 100
        b = get_scheme("logistic", "snsfd1")
        cfg = SchemeConfig(alpha=0.5025, beta=0.4975, validate=False)
        report = check_H_conditions(get_problem("logistic"), b.rep, cfg, constant_rate(rate))
        assert not report.h2
        (note,) = [w for w in report.witnesses if w.startswith("H2")]
        h_star = float(re.search(r"h >= (\S+)", note).group(1))
        bracket = 2.0 * cfg.beta * float(b.rep.f_minus(2.0)) - get_problem("logistic").df(2.0)
        assert h_star == pytest.approx(223.144 if rate else 2.0 / bracket, rel=1e-6)


def _spec_bundles():
    return [(p, label, b) for p in problem_names()
            for label, b in sorted(scheme_bundles(p).items()) if b.spec is not None]


#: (H1, H2, H3, H4) of every registry bundle with a denominator
REGISTRY_VERDICTS = {
    ("cubic", "nsfd"): (True, True, True, True),
    ("cubic", "nsfd-printed"): (True, True, False, True),
    ("logistic", "snsfd1"): (True, True, True, True),
    ("logistic", "snsfd2"): (True, True, True, True),
    ("logistic", "snsfd3"): (True, True, True, True),
    ("logistic", "snsfd3-printed"): (True, True, False, True),
    ("logistic", "wood"): (True, False, False, False),
    ("monod", "mickens"): (True, True, False, True),
    ("monod", "nsfd"): (True, True, True, True),
    ("monod", "nsfd-printed"): (True, True, False, True),
    ("powerlaw", "nsfd"): (True, True, True, True),
    ("powerlaw", "nsfd-printed"): (True, True, False, True),
    ("sine", "nsfd"): (True, True, True, True),
    ("sine", "nsfd-printed"): (True, True, False, True),
}


def _h2_cases():
    """The registry bundles and two weights outside the family whose H2
    fails: (problem, rep, config, spec)."""
    cases = [(get_problem(p), b.rep, b.config, b.spec) for p, _, b in _spec_bundles()]
    b = get_scheme("logistic", "snsfd1")
    cfg = SchemeConfig(alpha=0.5025, beta=0.4975, validate=False)
    return cases + [(get_problem("logistic"), b.rep, cfg, constant_rate(r)) for r in (1e-3, 0.0)]


class TestClosedFormsAgainstSampling:
    """The closed-form H1 and H2 against the sampled checks they replaced:
    phi on an 11 x 100 (h, y) grid, and phi*bracket at four step sizes."""

    def test_registry_verdicts(self):
        verdicts = {}
        for p, label, b in _spec_bundles():
            r = check_H_conditions(get_problem(p), b.rep, b.config, b.spec)
            verdicts[(p, label)] = (r.h1, r.h2, r.h3, r.h4)
        assert verdicts == REGISTRY_VERDICTS

    def test_h1_iff_phi_positive_and_finite_on_the_grid(self):
        for p, label, b in _spec_bundles():
            problem = get_problem(p)
            lo, hi = problem.domain_hint
            ys = np.linspace(max(lo, 0.0), hi, H_SAMPLES)
            sampled = all(np.all((v > 0.0) & np.isfinite(v))
                          for v in (np.asarray(phi(b.spec, float(h), ys)) for h in np.logspace(-3, 2, 11)))
            report = check_H_conditions(problem, b.rep, b.config, b.spec)
            assert report.h1 == sampled, (p, label)

    def test_h2_holds_at_the_probed_steps_wherever_it_holds(self):
        for problem, rep, config, spec in _h2_cases():
            if not check_H_conditions(problem, rep, config, spec).h2:
                continue
            for eq in problem.stable_equilibria:
                bracket = 2.0 * config.beta * float(rep.f_minus(eq.y_star)) - eq.derivative_at
                for h in (0.1, 1.0, 10.0, 100.0):
                    assert float(phi(spec, h, eq.y_star)) * bracket < 2.0, (problem.name, h)

    def test_h2_witness_step_reaches_the_bound(self):
        # phi(h*) * bracket = 2 in 50-digit arithmetic at the printed h*
        failing = 0
        for problem, rep, config, spec in _h2_cases():
            report = check_H_conditions(problem, rep, config, spec)
            notes = [w for w in report.witnesses if w.startswith("H2: fails")]
            assert len(notes) == (0 if report.h2 else 1)
            for note in notes:
                failing += 1
                y_star = problem.stable_equilibria[0].y_star
                bracket = 2.0 * config.beta * float(rep.f_minus(y_star)) - problem.df(y_star)
                lam = mp.mpf(float(spec(y_star)))
                h = mp.mpf(re.search(r"h >= (\S+)", note).group(1))
                ph = h if lam == 0 else -mp.expm1(-h * lam) / lam
                assert float(ph * bracket) == pytest.approx(2.0, rel=1e-5), note
        assert failing == 3  # logistic/wood and the two weights above

