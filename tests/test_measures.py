import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest

import chaincast as cc
from chaincast import stieltjes
from chaincast.errors import (
    DivergentMoment,
    DomainError,
    IllConditioned,
    NonMonotoneDispersion,
    ZeroMass,
)
from chaincast.measures import UniformWeight

from oracles import moments, normalize


class TestSpectralDensityFromDispersion:
    def test_identity_dispersion(self):
        sd = cc.sd_from_dispersion(lambda k: k, lambda k: 0.7, 0.0, 1.0)
        assert sd(0.5) == pytest.approx(math.pi * 0.49, rel=1e-12)

    def test_linear_change_of_variable(self):
        kappa = 2.5
        h0 = lambda k: 1.0 + k * k
        sd = cc.sd_from_dispersion(lambda k: kappa * k, h0, 0.0, 1.0)
        w = 1.2
        assert sd(w) == pytest.approx(math.pi * h0(w / kappa) ** 2 / kappa, rel=1e-9)

    def test_quadratic_dispersion(self):
        # g(k)=k^2, h(k)=k on [0,1]: J = pi*sqrt(w)/2, by differentiating
        # g^-1(w)=sqrt(w) symbolically.
        sd = cc.sd_from_dispersion(lambda k: k * k, lambda k: k, 0.0, 1.0)
        for w in (0.1, 0.25, 0.81):
            assert sd(w) == pytest.approx(math.pi * math.sqrt(w) / 2, rel=1e-8)

    def test_non_monotone_rejected(self):
        with pytest.raises(NonMonotoneDispersion):
            cc.sd_from_dispersion(lambda k: (k - 0.5) ** 2, lambda k: k, 0.0, 1.0)

    def test_zero_outside_support(self, ohmic_sd):
        assert ohmic_sd(1.5) == 0.0
        assert ohmic_sd(-0.2) == 0.0

    def test_coupling_integral_matches_h_squared(self):
        # int J/pi dw == int h^2 dk after the q=0 measure construction.
        h = lambda k: np.cos(k)
        sd = cc.sd_from_dispersion(lambda k: k * k, h, 0.2, 1.0)
        m = cc.measure_from_sd(sd, 0.0)
        got = m.integrate(np.ones_like)
        want, _ = cc.quadrature.integrate(lambda k: np.cos(k) ** 2, 0.2, 1.0)
        assert got == pytest.approx(want, abs=1e-10)


class TestMoments:
    def test_semicircle(self, semicircle):
        vals = moments(semicircle, 2)
        assert vals == pytest.approx([1.0, 0.0, 0.25], abs=1e-13)

    def test_weight_x(self, weight_x):
        vals = moments(weight_x, 2)
        assert vals == pytest.approx([0.5, 1 / 3, 0.25], rel=1e-13)

    def test_laguerre_gamma_values(self):
        m = cc.power_law_exp_measure(1.0, 1.0)
        vals = moments(m, 2)
        assert vals == pytest.approx([1.0, 2.0, 6.0], rel=1e-12)

    # c = scale = 1 leaves only the error of Gamma(s + 1); a general
    # prefactor c * scale**(s + 1) adds up to three roundings of its own.
    @pytest.mark.parametrize("c, scale, max_ulps", [(1.0, 1.0, 4), (0.3, 1.7, 6)])
    def test_laguerre_beta0_matches_mpmath(self, c, scale, max_ulps):
        for s in np.arange(0.0, 60.25, 0.25):
            got = cc.PowerLawExpWeight(c, s, scale).recurrence(1)[1][0]
            with mpmath.workdps(50):
                exact = (mpmath.mpf(c) * mpmath.mpf(scale) ** (s + 1)
                         * mpmath.gamma(mpmath.mpf(s) + 1))
                ulps = abs(mpmath.mpf(got) - exact) / math.ulp(float(exact))
            assert ulps <= max_ulps, (s, float(ulps))

    def test_unbounded_without_tail_raises(self):
        m = cc.Measure(lambda x: np.exp(-x), ((0.0, math.inf),))
        with pytest.raises(DivergentMoment):
            moments(m, 2)

    @pytest.mark.parametrize("name", ["semicircle", "weight_x", "weight_2x",
                                      "uniform_sym", "sqrt", "laguerre_s1"])
    def test_hankel_positivity(self, measure_suite, name):
        # Every leading Hankel block [C_{i+j}] is positive definite.
        c = moments(measure_suite[name], 16)
        for n in range(1, 10):
            h = c[np.add.outer(np.arange(n), np.arange(n))]
            assert np.linalg.eigvalsh(h).min() >= -1e-10 * max(1.0, np.abs(h).max()), n


class TestRescaleNormalize:
    def test_normalize_weight_x(self, weight_x):
        n = normalize(weight_x)
        assert float(n.weight(np.asarray(0.5))) == pytest.approx(1.0, rel=1e-12)
        assert n.integrate(np.ones_like) == pytest.approx(1.0, rel=1e-12)

    def test_normalize_idempotent_on_semicircle(self, semicircle):
        n = normalize(semicircle)
        xs = np.linspace(-0.99, 0.99, 101)
        np.testing.assert_allclose(n.weight(xs), semicircle.weight(xs),
                                   rtol=1e-12)

    def test_normalize_gamma_family(self):
        # x^s e^-x with s=1 has C_0 = Gamma(2) = 1 already.
        m = cc.power_law_exp_measure(1.0, 1.0)
        n = normalize(m)
        xs = np.linspace(0.1, 5.0, 41)
        np.testing.assert_allclose(n.weight(xs), m.weight(xs), rtol=1e-11)

    def test_zero_mass(self):
        m = cc.Measure(lambda x: np.zeros_like(x), ((0.0, 1.0),))
        with pytest.raises(ZeroMass):
            normalize(m)


class TestStructure:
    def test_gap_classification(self, gapped_sd):
        assert not gapped_sd.gapless
        m = cc.measure_from_sd(gapped_sd, 0.0)
        assert not m.gapless
        assert m.hull == (0.0, 3.0)

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            cc.Measure(lambda x: x, ((0.0, 1.0), (0.5, 2.0)))
        with pytest.raises(DomainError):
            cc.Measure(lambda x: x, ((1.0, 1.0),))

    def test_sd_requires_nonnegative_frequencies(self):
        with pytest.raises(DomainError):
            cc.custom_sd(lambda w: np.ones_like(w), ((-1.0, 1.0),))

    def test_power_law_parameter_validation(self):
        with pytest.raises(DomainError):
            cc.power_law_sd(-1.5, 0.1)
        with pytest.raises(DomainError):
            cc.power_law_sd(1.0, -0.1)

    @pytest.mark.parametrize("maker", [cc.power_law_sd, cc.power_law_exp_sd])
    @pytest.mark.parametrize("s, alpha, omega_c", [
        (1.0, 0.1, 0.0), (2.0, 0.1, 0.0), (1.0, 0.1, -1.0),
        (2.0, 0.1, 1e-320),    # omega_c**(1-s) overflows
        (-0.5, 0.1, 1e300),    # omega_c**(1-s) overflows
        (0.0, 1e308, 1.0),     # 2*pi*alpha overflows to inf
        (math.inf, 0.1, 1.0), (1.0, math.inf, 1.0), (1.0, 0.1, math.inf),
        (0.0, 0.1, 1e-200),    # omega_c**2 underflows to 0
        (1.0, 1e-320, 1.0),    # alpha is subnormal
        (0.5, 0.1, 1e-160),    # omega_c**2 is subnormal
        (1.0, 0.1, 1e-160),    # omega_c**2 is subnormal
    ])
    def test_power_law_cutoff_and_constants_validation(self, maker, s, alpha,
                                                        omega_c):
        with pytest.raises(DomainError):
            maker(s, alpha, omega_c)

    def test_power_law_cutoff_squared_must_be_finite(self):
        # omega_c**2 is the power law's q = 1 support end, and the scale of
        # beta_n (n >= 1) in both families.
        for maker in (cc.power_law_sd, cc.power_law_exp_sd):
            with pytest.raises(DomainError):
                maker(0.0, 0.1, 1e200)

    @pytest.mark.parametrize("maker, s, omega_c", [
        (cc.power_law_sd, 1.0, 1e-110),     # q = 1 mass 4*alpha*omega_c**3/3 underflows
        (cc.power_law_exp_sd, 200.0, 1.0),  # Gamma(s + 1) overflows
    ])
    def test_power_law_chain_masses_must_be_normal(self, maker, s, omega_c):
        with pytest.raises(DomainError, match="mass beta_0"):
            maker(s, 0.1, omega_c)

    def test_tabulated_validation(self):
        with pytest.raises(DomainError):
            cc.tabulated_sd([0.0, 0.5, 0.4], [1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            cc.tabulated_sd([0.0, 0.5, 1.0], [1.0, -1.0, 1.0])

    @pytest.mark.parametrize("make, named", [
        (lambda: cc.piecewise_uniform_sd([(0.0, 1.0, 1e-310)]),
         "piecewise height 1e-310"),
        (lambda: cc.piecewise_uniform_sd([(0.0, 1.0, 1.0), (2.0, 3.0, 5e-324)]),
         "piecewise height 5e-324"),
        (lambda: cc.tabulated_sd([0.0, 1.0], [1e-310, 2e-310]),
         "tabulated sample 1e-310"),
        (lambda: cc.tabulated_sd([0.0, 0.5, 1.0], [0.0, 1.0, 2e-310]),
         "tabulated sample 2e-310"),
    ], ids=["flat", "second-piece", "tabulated", "tabulated-last"])
    def test_subnormal_heights_rejected(self, make, named):
        # a subnormal J has a chain measure whose mass does not fit in a
        # double; the constructor names the value, as for the power laws
        with pytest.raises(DomainError, match=named):
            make()

    @pytest.mark.parametrize("make, named", [
        (lambda: cc.piecewise_uniform_sd([(0.0, 1.0, math.nan)]),
         "piecewise height nan"),
        (lambda: cc.piecewise_uniform_sd([(0.0, 1.0, 1.0), (2.0, 3.0, math.inf)]),
         "piecewise height inf"),
        (lambda: cc.tabulated_sd([0.0, 0.5, 1.0], [1.0, math.nan, 1.0]),
         "tabulated sample nan"),
        (lambda: cc.tabulated_sd([0.0, 0.5, 1.0], [1.0, 1.0, math.inf]),
         "tabulated sample inf"),
    ], ids=["flat-nan", "second-piece-inf", "tabulated-nan", "tabulated-inf"])
    def test_non_finite_heights_rejected(self, make, named):
        # a nan or inf height used to give a chain of nan or inf, or fail
        # late in the recurrence; the constructor names the value
        with pytest.raises(DomainError, match=named):
            make()

    @pytest.mark.parametrize("make, named", [
        (lambda: cc.piecewise_uniform_sd([(0.0, math.inf, 1.0)]),
         r"piecewise piece \(0.0, inf, 1.0\)"),
        (lambda: cc.piecewise_uniform_sd([(0.0, 1.0, 1.0), (2.0, math.inf, 0.5)]),
         r"piecewise piece \(2.0, inf, 0.5\)"),
        (lambda: cc.tabulated_sd([0.0, 1.0, math.inf], [1.0, 1.0, 1.0]),
         "tabulated frequency inf"),
    ], ids=["flat", "second-piece", "tabulated"])
    def test_infinite_ends_rejected(self, make, named):
        # an infinite flat piece gave a chain of inf without raising, and an
        # infinite tabulated frequency failed late, in the recurrence; only
        # a J with a tail bound (the exponential cutoff) may be unbounded
        with pytest.raises(DomainError, match=named):
            make()

    def test_zero_and_smallest_normal_heights_accepted(self):
        tiny = sys.float_info.min
        cc.piecewise_uniform_sd([(0.0, 1.0, 0.0), (2.0, 3.0, tiny)])
        cc.tabulated_sd([0.0, 0.5, 1.0], [0.0, tiny, 1.0])


class TestTailCutoff:
    @pytest.mark.parametrize("stretch", [1.0, 0.5])
    def test_floored_at_the_polynomial_degree(self, stretch):
        # (3 poly_degree / rate) ** (1 / stretch): 6N / rate for the moments
        # of degree 2N at stretch 1, past the largest Laguerre zero (~4N)
        bound = cc.TailBound(rate=2.0, power=1.0, stretch=stretch)
        assert bound.cutoff(400) == (3.0 * 400 / 2.0) ** (1.0 / stretch)
        # at degree 0 no floor applies: the doubling search stops at the
        # first T where the bound x exp(-2 x**stretch) is below 1e-16 of
        # its peak
        t = bound.cutoff(0)

        def log_bound(x):
            return math.log(x) - 2.0 * x**stretch

        peak = max(map(log_bound, np.geomspace(1e-3, t, 4001)))
        assert log_bound(t) <= peak + math.log(1e-16) < log_bound(t / 2.0)

    @pytest.mark.parametrize("rate, degree, stretch", [
        (2.857e-306, 200, 1.0),  # 3 * degree / rate is inf
        (8.7e-152, 400, 0.5),    # its square overflows
    ])
    def test_floor_that_overflows_raises(self, rate, degree, stretch):
        # the bound's own cutoff is finite, about 1.4e308 and 1.7e308
        bound = cc.TailBound(rate=rate, stretch=stretch)
        assert math.isfinite(cc.TailBound(rate, degree, stretch).cutoff(0))
        with pytest.raises(DivergentMoment, match="floor"):
            bound.cutoff(degree)


class TestTruncatedHull:
    """``truncated_hull``: the one place an unbounded support is cut."""

    def test_unbounded_without_a_tail_raises(self):
        sd = cc.custom_sd(lambda w: np.exp(-np.asarray(w, float)), ((0.0, math.inf),))
        for supported in (sd, cc.measure_from_sd(sd, 0.0)):
            with pytest.raises(DivergentMoment, match="without a tail bound"):
                supported.truncated_hull()

    @pytest.mark.parametrize("degree", [0, 40, 400])
    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_ends_where_the_quadrature_does(self, q, degree):
        m = cc.measure_from_sd(cc.power_law_exp_sd(1.0, 0.1, 0.7), q)
        lo, hi = m.truncated_hull(degree)
        assert lo == m.hull[0] and math.isfinite(hi)
        assert hi == m._effective_intervals(degree)[-1][1]

    def test_bounded_hull_is_kept(self):
        sd = cc.power_law_sd(0.5, 0.1, 2.0)
        assert sd.truncated_hull(400) == sd.hull == (0.0, 2.0)

    def test_unbounded_span_without_a_tail(self):
        # the guard span falls back to 1.0, so the reducer, not the
        # truncation, is what rejects such a measure
        m = cc.Measure(lambda x: np.exp(-np.asarray(x, float)), ((0.0, math.inf),))
        assert stieltjes._span(m) == 1.0
        with pytest.raises(cc.UnsupportedMeasure):
            cc.reducer(m, 1.0)


def _random_flats(count, seed):
    rng = np.random.default_rng(seed)
    for i in range(count):
        lo = 0.0 if i % 4 == 0 else rng.uniform(0.0, 0.5)
        yield lo, lo + rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)


class TestUniformWeight:
    """A one-piece piecewise J is flat: its chain measures at q = 0 and 1
    are UniformWeight families with closed-form recurrence and reducer."""

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_families_keep_the_mapped_support(self, q):
        for lo, hi, h in _random_flats(20, 1):
            m = cc.measure_from_sd(cc.piecewise_uniform_sd([(lo, hi, h)]), q)
            assert isinstance(m.family, UniformWeight)
            kernel = cc.mapping_kernel(q)
            assert m.hull == (kernel.G(lo), kernel.G(hi))
            assert m.family.c == h / math.pi

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_reducer_is_the_lipschitz_route_bit_for_bit(self, q):
        # The twin has the same evaluator and no family, so it takes the
        # Lipschitz route, whose difference quotients all vanish.
        for lo, hi, h in _random_flats(20, 2):
            sd = cc.piecewise_uniform_sd([(lo, hi, h)])
            twin = dataclasses.replace(sd, m0_family=None, m1_family=None)
            m, m_twin = cc.measure_from_sd(sd, q), cc.measure_from_sd(twin, q)
            assert m_twin.family is None and m_twin.hull == m.hull
            xs = np.linspace(*stieltjes.evaluation_band(m), 2048)
            np.testing.assert_array_equal(
                cc.reducer(m, xs), stieltjes._reducer_lipschitz(m_twin, xs))

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_recurrence_matches_the_generic_route(self, q):
        for lo, hi, h in _random_flats(3, 3):
            m = cc.measure_from_sd(cc.piecewise_uniform_sd([(lo, hi, h)]), q)
            closed = cc.recurrence_coefficients(m, 200)
            generic = cc.recurrence_coefficients(m, 200, method="stieltjes")
            a, b = m.hull
            assert np.max(np.abs(closed.alpha - generic.alpha)) <= 1e-14 * (b - a)
            np.testing.assert_allclose(closed.beta, generic.beta, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
    def test_zero_height_is_ill_conditioned(self, q):
        with pytest.raises(IllConditioned):
            cc.chain_coefficients(cc.piecewise_uniform_sd([(0.2, 1.0, 0.0)]), q, 5)

    def test_gapped_pieces_keep_the_generic_route(self):
        sd = cc.piecewise_uniform_sd([(0.0, 1.0, 1.0), (2.0, 3.0, 0.5)])
        assert sd.m0_family is None and sd.m1_family is None
