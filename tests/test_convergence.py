import math

import mpmath
import numpy as np
import pytest

import chaincast as cc
from chaincast import convergence
from chaincast.errors import NotInSzegoClass


class TestSzegoCheck:
    def test_finite_power_law_in_class(self, ohmic_sd):
        for q in (0.0, 0.5, 1.0):
            assert str(cc.szego_check(ohmic_sd, q)) == "in_class"
        for s in (0.5, 2.0):
            assert cc.szego_check(cc.power_law_sd(s, 0.1), 0.0).in_class

    def test_exponential_cutoff_out_unbounded(self, ohmic_exp_sd):
        for q in (0.0, 1.0):
            v = cc.szego_check(ohmic_exp_sd, q)
            assert str(v) == "out_of_class(unbounded)"

    def test_gapped_out(self, gapped_sd):
        assert str(cc.szego_check(gapped_sd, 0.0)) == "out_of_class(gapped)"

    def test_gapless_log_divergence_detected(self):
        # exp(-c/w^0.8) vanishes too fast at the band edge: bounded and
        # gapless, but ln J(w)/sqrt(w) ~ -c w^-1.3 is not integrable.  (c is
        # small so the weight stays representable across the exclusions.)
        j = cc.custom_sd(
            lambda w: np.exp(-0.01 * np.maximum(np.asarray(w, float),
                                                1e-300) ** -0.8),
            ((0.0, 1.0),))
        v = cc.szego_check(j, 0.0)
        assert str(v) == "out_of_class(log_divergence)"

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_zero_height_flat_diverges(self, q):
        # ln 0 is not integrable: the family's height alone decides it
        v = cc.szego_check(cc.piecewise_uniform_sd([(0.0, 1.0, 0.0)]), q)
        assert str(v) == "out_of_class(log_divergence)"
        assert v.integral == -math.inf


def _theta_integral(log_weight, a, b):
    """int_0^pi ln M(x) dtheta with x - a = (b-a) sin^2(theta/2) and
    b - x = (b-a) cos^2(theta/2), at 30 digits; ``log_weight(x, da, db)``
    takes the point and its two endpoint distances."""
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def f(t):
            da = (b - a) * mpmath.sin(t / 2) ** 2
            db = (b - a) * mpmath.cos(t / 2) ** 2
            return log_weight(a + da, da, db)
        return float(mpmath.quad(f, [0, mpmath.pi]))


def _closed_form_cases():
    """(label, J, q, ln M(x, da, db), support of M) for every bounded
    family; ln M is written from J's formula, not from its family."""
    alpha, wc = 0.1, 1.3
    for s in (0.0, 0.5, 1.0, 2.0, 3.0):
        def ln_m(w, s=s):
            return (mpmath.log(2 * alpha * mpmath.mpf(wc) ** (1 - s))
                    + s * mpmath.log(w))
        sd = cc.power_law_sd(s, alpha, wc)
        yield f"power_law_s{s}_q0", sd, 0.0, lambda x, da, db, f=ln_m: f(da), (0.0, wc)
        yield (f"power_law_s{s}_q1", sd, 1.0,
               lambda x, da, db, f=ln_m: f(mpmath.sqrt(da)), (0.0, wc * wc))
    lo, hi, h = 0.2, 1.6, 0.7
    flat = cc.piecewise_uniform_sd([(lo, hi, h)])
    for q, band in ((0.0, (lo, hi)), (1.0, (lo * lo, hi * hi))):
        yield (f"flat_q{q:g}", flat, q,
               lambda x, da, db: mpmath.log(mpmath.mpf(h) / mpmath.pi), band)
    # terminal densities carry the semicircle family: 0.5 sqrt(da db) / pi
    base = cc.power_law_sd(1.0, 0.1, wc)
    for q, band in ((0, (0.0, wc)), (1, (0.0, wc * wc))):
        yield (f"semicircle_q{q}", cc.terminal_sd(base, q), float(q),
               lambda x, da, db: mpmath.log(mpmath.sqrt(da * db) / (2 * mpmath.pi)),
               band)


class TestSzegoClosedForms:
    # Worst agreement seen with the 30-digit theta integral: 2.1e-16
    # relative (one ulp), on power law s = 2 at q = 1.
    @pytest.mark.parametrize("sd, q, log_weight, band",
                             [pytest.param(*case, id=label)
                              for label, *case in _closed_form_cases()])
    def test_integral_matches_mpmath(self, sd, q, log_weight, band):
        v = cc.szego_check(sd, q)
        assert v.in_class
        want = _theta_integral(log_weight, *band)
        assert abs(v.integral - want) <= 5e-16 * abs(want)
        # the family-less twin takes the exclusion route to the same verdict
        twin = cc.custom_sd(sd.evaluator, sd.support)
        assert str(cc.szego_check(twin, q)) == str(v)

    def test_no_quadrature_for_a_family(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("szego_check integrated a family measure")
        monkeypatch.setattr(convergence.quadrature, "integrate", forbidden)
        for sd in (cc.power_law_sd(1.0, 0.1), cc.piecewise_uniform_sd([(0.1, 1.0, 1.0)])):
            for q in (0.0, 1.0):
                assert cc.szego_check(sd, q).in_class


class TestAsymptoticLimits:
    def test_unit_interval_particle(self, ohmic_sd):
        assert cc.asymptotic_limits(ohmic_sd, 0.0) == pytest.approx((0.5, 1 / 16))

    def test_unit_interval_phonon(self, ohmic_sd):
        assert cc.asymptotic_limits(ohmic_sd, 1.0) == pytest.approx((0.5, 1 / 16))

    def test_wider_support_phonon(self):
        j = cc.power_law_sd(1.0, 0.1, 2.0)
        assert cc.asymptotic_limits(j, 1.0) == pytest.approx((2.0, 1.0))

    def test_out_of_class_raises(self, ohmic_exp_sd):
        with pytest.raises(NotInSzegoClass):
            cc.asymptotic_limits(ohmic_exp_sd, 0.0)
        with pytest.raises(NotInSzegoClass):
            cc.terminal_sd(ohmic_exp_sd, 0)


class TestTerminalDensities:
    def test_wigner_midpoint(self, ohmic_sd):
        jt = cc.terminal_sd(ohmic_sd, 0)
        assert jt(0.5) == pytest.approx(0.25, rel=1e-14)

    def test_rubin_value(self, ohmic_sd):
        jt = cc.terminal_sd(ohmic_sd, 1)
        assert jt(1 / math.sqrt(2)) == pytest.approx(0.25, rel=1e-12)

    def test_terminal_is_residual_fixed_point(self, ohmic_sd):
        jt = cc.terminal_sd(ohmic_sd, 0)
        rd = cc.ResidualDensity.build(jt, 0, 3)
        ws = np.linspace(0.02, 0.98, 33)
        for n in (1, 2, 3):
            np.testing.assert_allclose(rd(n, ws), jt(ws), atol=1e-12)

    def test_terminal_fixed_under_secondary_normalize(self, ohmic_sd):
        # One secondary+normalize step leaves the terminal measure unchanged.
        m = cc.normalize(cc.measure_from_sd(cc.terminal_sd(ohmic_sd, 0), 0.0))
        xs = np.linspace(0.05, 0.95, 21)
        rho = cc.secondary_density(m, xs)
        mass = (m.hull[1] - m.hull[0]) ** 2 / 16.0  # beta_1 of a semicircle
        np.testing.assert_allclose(rho / mass, m.weight(xs), atol=1e-8)


class TestConvergenceReport:
    def test_ohmic_alpha20_deviation(self, ohmic_sd):
        rep = cc.convergence_report(ohmic_sd, 0.0, 21, residual_orders=0)
        want = 1.0 / (2 * 41 * 43)
        assert rep.alpha_deviation[20] == pytest.approx(want, rel=1e-10)
        assert rep.alpha_limit == pytest.approx(0.5)
        assert rep.beta_limit == pytest.approx(1 / 16)

    def test_alpha_deviations_shrink(self, ohmic_sd):
        rep = cc.convergence_report(ohmic_sd, 0.0, 30, residual_orders=0)
        dev = rep.alpha_deviation
        assert np.all(np.diff(dev) < 0)
        bdev = rep.beta_deviation
        assert np.all(np.diff(bdev[len(bdev) // 2:]) < 0)

    def test_moment_gaps_shrink_and_land(self, ohmic_sd):
        rep = cc.convergence_report(ohmic_sd, 0.0, 10, residual_orders=4)
        agg = rep.gap_aggregate(4)
        assert len(agg) == 4
        assert np.all(np.diff(agg) < 0)
        assert np.all(rep.terminal_moment_gap[4][:5] < 1e-2)

    def test_weak_convergence_of_normalized_members(self, weight_2x):
        # |C_k(mu_4) - C_k(limit)| < 1e-2 for k <= 4, with mu_4 member 4
        # divided by its mass beta_4 and the limit the normalized
        # semicircle on [0, 1].
        seq = cc.SecondarySequence.build(weight_2x, 4)
        member = seq.member_measure(4)
        limit = cc.semicircle_measure(0.0, 1.0, 1.0)
        got = cc.moments(member, 4) / seq.rc.beta[4]
        want = cc.moments(limit, 4)
        assert np.all(np.abs(got - want) < 1e-2)

    def test_semicircle_terminal_input_flat(self, ohmic_sd):
        jt = cc.terminal_sd(ohmic_sd, 0)
        rep = cc.convergence_report(jt, 0.0, 12, residual_orders=0)
        assert np.all(rep.alpha_deviation < 1e-10)
        assert np.all(rep.beta_deviation < 1e-10)

    def test_out_of_class_report_shape(self, ohmic_exp_sd):
        rep = cc.convergence_report(ohmic_exp_sd, 0.0, 8)
        assert rep.alpha_limit is None and rep.beta_limit is None
        assert rep.alpha_deviation.size == 0
        assert not rep.terminal_moment_gap
        np.testing.assert_allclose(rep.chain.alpha, 2 * np.arange(8.0) + 2,
                                   rtol=1e-11)
        # the footnote observable is still reported
        assert rep.hopping_ratio.size == 8

    @pytest.mark.parametrize("q", [0, 1])
    def test_moments_bit_identical_to_product_loop(self, q):
        # Reference: one product r * x**k per density and moment, the
        # integrand the broadcast replaced; the arithmetic is the same.
        sd = cc.power_law_sd(1.0, 0.1, 1.0)
        rd = cc.ResidualDensity.build(sd, q, 3)
        densities = [cc.terminal_sd(sd, q)] + [lambda w, m=m: rd(m, w)
                                               for m in (1, 2, 3)]
        lo, hi = rd.clipped_range()

        def loop(x):
            rows = [np.asarray(f(x), float) for f in densities]
            return np.array([[r * x**k for k in range(9)] for r in rows])

        want, _ = cc.quadrature.integrate(loop, lo, hi, rel_tol=1e-11)
        got = convergence._density_moments(densities, lo, hi, 8)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("family", ["flat", "power_law"])
    def test_shared_nodes_match_one_integral_per_moment(self, family, q):
        # Oracle: one scalar integral per (order, k), as the moments were
        # computed before they shared a node set.
        sd = (cc.piecewise_uniform_sd([(0.2, 1.4, 0.7)]) if family == "flat"
              else cc.power_law_sd(1.0, 0.1, 1.0))
        orders, k_max = 3, 8
        rep = cc.convergence_report(sd, float(q), 6, residual_orders=orders)
        rd = cc.ResidualDensity.build(sd, q, orders)
        jt = cc.terminal_sd(sd, q)
        lo, hi = rd.clipped_range()

        def moment(f, k):
            val, _ = cc.quadrature.integrate(
                lambda x: np.asarray(f(x), float) * x**k, lo, hi, rel_tol=1e-11)
            return val

        ct = np.array([moment(jt, k) for k in range(k_max + 1)])
        assert sorted(rep.terminal_moment_gap) == list(range(1, orders + 1))
        for m in range(1, orders + 1):
            cm = np.array([moment(lambda w: rd(m, w), k) for k in range(k_max + 1)])
            np.testing.assert_allclose(rep.terminal_moment_gap[m],
                                       np.abs(cm - ct), rtol=1e-12, atol=0)

    def test_szego_check_runs_once(self, monkeypatch):
        sd = cc.power_law_sd(1.0, 0.1, 1.0)
        calls = []
        check = convergence.szego_check

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(convergence, "szego_check", counted)
        rep = cc.convergence_report(sd, 0.0, 8, residual_orders=2)
        assert len(calls) == 1
        monkeypatch.undo()
        # every field as the checked public functions give it, to the bit
        assert rep.szego == cc.szego_check(sd, 0.0)
        a_inf, b_inf = cc.asymptotic_limits(sd, 0.0)
        assert (rep.alpha_limit, rep.beta_limit) == (a_inf, b_inf)
        chain = cc.chain_coefficients(sd, 0.0, 8)
        for name in ("alpha", "beta", "E1", "E2", "E3", "E4"):
            np.testing.assert_array_equal(getattr(rep.chain, name),
                                          getattr(chain, name))
        np.testing.assert_array_equal(rep.chain.rc.alpha, chain.rc.alpha)
        np.testing.assert_array_equal(rep.chain.rc.beta, chain.rc.beta)
        assert (rep.chain.q, rep.chain.E5) == (chain.q, chain.E5)
        np.testing.assert_array_equal(rep.alpha_deviation,
                                      np.abs(chain.alpha - a_inf))
        np.testing.assert_array_equal(rep.beta_deviation,
                                      np.abs(chain.beta[1:] - b_inf))
        np.testing.assert_array_equal(rep.hopping_ratio, chain.alpha / chain.E4)
        rd = cc.ResidualDensity.build(sd, 0, 2)
        assert rep.residual.clipped_range() == rd.clipped_range()
        grid = np.linspace(*rd.clipped_range(), 33)
        for m in (0, 1, 2):
            np.testing.assert_array_equal(rep.residual(m, grid), rd(m, grid))
        c = convergence._density_moments(
            [cc.terminal_sd(sd, 0)] + [lambda w, m=m: rd(m, w) for m in (1, 2)],
            *rd.clipped_range(), 8)
        assert sorted(rep.terminal_moment_gap) == [1, 2]
        for m in (1, 2):
            np.testing.assert_array_equal(rep.terminal_moment_gap[m],
                                          np.abs(c[m] - c[0]))

    def test_gapped_report(self, gapped_sd):
        rep = cc.convergence_report(gapped_sd, 0.0, 6)
        assert str(rep.szego) == "out_of_class(gapped)"
        np.testing.assert_allclose(rep.chain.alpha, 1.5, atol=1e-11)
