import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expi

import chaincast as cc
from chaincast.errors import GappedMeasure, UnsupportedMapping


class TestResidualValues:
    def test_particle_ohmic_first_order(self, ohmic_sd):
        # J_1(w_c/2) = pi/(pi^2 + 4), independent of alpha
        got = cc.residual_sd(ohmic_sd, 0, 1, 0.5)
        assert got == pytest.approx(math.pi / (math.pi**2 + 4), rel=1e-12)

    def test_exp_cutoff_first_order(self, ohmic_exp_sd):
        ei = expi(1.0)
        e = math.e
        want = math.pi * e / (e * e + math.pi**2 - 2 * ei * e + ei * ei)
        assert cc.residual_sd(ohmic_exp_sd, 0, 1, 1.0) == pytest.approx(
            want, rel=1e-12)

    def test_phonon_ohmic_first_order(self, ohmic_sd):
        x = 0.25  # omega = 1/2 enters through omega^2
        r = math.sqrt(x)
        want = math.pi * 2 * r / (3 * (math.pi**2 * x
                                       + (2 - 2 * r * np.arctanh(r)) ** 2))
        assert cc.residual_sd(ohmic_sd, 1, 1, 0.5) == pytest.approx(want,
                                                                    rel=1e-10)

    def test_order_zero_is_input(self, ohmic_sd):
        ws = np.linspace(0.1, 0.9, 7)
        rd = cc.ResidualDensity.build(ohmic_sd, 0, 2)
        np.testing.assert_array_equal(rd(0, ws), ohmic_sd(ws))

    def test_positive_and_bounded_on_interior(self, ohmic_sd):
        for q in (0, 1):
            rd = cc.ResidualDensity.build(ohmic_sd, q, 3)
            lo, hi = rd.clipped_range()
            ws = np.linspace(lo, hi, 201)
            for n in range(1, 4):
                vals = np.asarray(rd(n, ws), float)
                assert np.all(vals >= 0)
                assert np.all(np.isfinite(vals))
                assert vals.max() < 10.0


class TestAlphaIndependence:
    def test_particle_residuals_ignore_coupling_strength(self):
        ws = np.linspace(0.05, 0.95, 21)
        rd_small = cc.ResidualDensity.build(cc.power_law_sd(1.0, 0.05), 0, 2)
        rd_large = cc.ResidualDensity.build(cc.power_law_sd(1.0, 0.5), 0, 2)
        for n in (1, 2):
            np.testing.assert_allclose(rd_small(n, ws), rd_large(n, ws),
                                       atol=1e-10)


class TestFamilyBridge:
    def test_phonon_equals_particle_at_half_exponent(self):
        # J^phonon_n(w; s=1) = J^particle_n(w^2; s=1/2) in w_c = 1 units.
        ws = np.linspace(0.25, 0.95, 15)
        phonon = cc.ResidualDensity.build(cc.power_law_sd(1.0, 0.1), 1, 1)
        particle_half = cc.ResidualDensity.build(cc.power_law_sd(0.5, 0.1), 0, 1)
        np.testing.assert_allclose(phonon(1, ws), particle_half(1, ws**2),
                                   atol=1e-8)


class TestMassIdentity:
    def test_particle_masses_equal_beta(self, ohmic_sd):
        # (1/pi) int J_n = beta_n(d lambda^0): 1/18, 3/50, then beta_3
        rd = cc.ResidualDensity.build(ohmic_sd, 0, 3)
        beta = rd.seq.rc.beta
        for n, want in ((1, 1 / 18), (2, 0.06), (3, beta[3])):
            m = rd.seq.member_measure(n)
            assert m.total_mass() == pytest.approx(want, abs=1e-6), n


class TestConsistency:
    def test_shift_oracle_particle(self, ohmic_sd):
        rep = cc.residual_consistency(ohmic_sd, 0, 1, 3)
        assert rep.max_deviation < 1e-6

    def test_shift_oracle_phonon(self, ohmic_sd):
        rep = cc.residual_consistency(ohmic_sd, 1, 1, 2)
        assert rep.max_deviation < 1e-6

    def test_order_zero_identically_zero(self, ohmic_sd):
        rep = cc.residual_consistency(ohmic_sd, 0, 0, 3)
        assert rep.max_deviation == 0.0

    def test_terminal_input_constant_coefficients(self, ohmic_sd):
        jt = cc.terminal_sd(ohmic_sd, 0)
        rep = cc.residual_consistency(jt, 0, 2, 2)
        assert rep.max_deviation < 1e-6
        rc = cc.recurrence_coefficients(cc.measure_from_sd(jt, 0.0), 6)
        np.testing.assert_allclose(rc.alpha, 0.5, atol=1e-12)
        np.testing.assert_allclose(rc.beta[1:], 1 / 16, rtol=1e-12)


@st.composite
def _spectral_densities(draw):
    """J with a working generic route: power law, flat piecewise, linear
    tabulated (41 samples) or a family-less semicircle, with random
    parameters."""
    kind = draw(st.sampled_from(["power_law", "flat", "tabulated", "semicircle"]))
    if kind == "power_law":
        return cc.power_law_sd(draw(st.floats(0.2, 3.0)), 0.1, 1.0)
    lo = draw(st.floats(0.0, 1.0))
    hi = lo + draw(st.floats(0.3, 2.0))
    if kind == "flat":
        return cc.piecewise_uniform_sd([(lo, hi, draw(st.floats(0.1, 2.0)))])
    if kind == "tabulated":
        ends = draw(st.tuples(st.floats(0.0, 2.0), st.floats(0.1, 2.0)))
        return cc.tabulated_sd(np.linspace(lo, hi, 41), np.linspace(*ends, 41))
    c = draw(st.floats(0.1, 2.0))
    return cc.custom_sd(
        lambda w: c * np.sqrt(np.maximum((w - lo) * (hi - w), 0.0)), ((lo, hi),))


class TestJacobiShiftProperty:
    # The recurrence coefficients of J_n's measure are those of d-lambda^q
    # shifted by n (the paper's central identity), on every J drawn.
    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(J=_spectral_densities(), q=st.sampled_from([0, 1]),
           n=st.integers(1, 4))
    def test_coefficients_shift_by_n(self, J, q, n):
        depth = 4
        rep = cc.residual_consistency(J, q, n, depth)
        lam = cc.measure_from_sd(J, float(q))
        lo, hi = lam.hull
        beta = cc.recurrence_coefficients(lam, n + depth + 1).beta[n:]
        assert np.all(rep.alpha_deviation <= 1e-11 * (hi - lo))
        assert np.all(rep.beta_deviation <= 1e-11 * np.abs(beta))


class TestContinuedFractionProperty:
    # One step of the Stieltjes continued fraction off the support,
    # S_mu(z) = beta_0 / (z - alpha_0 - S_nu1(z)), with nu_1 the first
    # beta-normalized secondary measure (mass beta_1), on every J drawn.
    # Worst relative error seen over 150 draws of this strategy: 2.0e-14,
    # on a linear tabulated J.
    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(J=_spectral_densities(), q=st.sampled_from([0, 1]))
    def test_one_step_of_the_continued_fraction(self, J, q):
        lam = cc.measure_from_sd(J, float(q))
        seq = cc.SecondarySequence.build(lam, 1, mode="beta_normalized")
        nu1 = seq.member_measure(1)
        alpha0, beta0 = seq.rc.alpha[0], seq.rc.beta[0]
        lo, hi = lam.hull
        span = hi - lo
        for z in (hi + 0.3 * span, lo - 0.3 * span,
                  complex(lo + 0.4 * span, 0.2 * span)):
            s = cc.stieltjes_transform(lam, z)
            cf = beta0 / (z - alpha0 - cc.stieltjes_transform(nu1, z))
            assert abs(s - cf) <= 1e-13 * abs(s), z


class TestRejections:
    def test_mid_q_unsupported(self, ohmic_sd):
        with pytest.raises(UnsupportedMapping):
            cc.residual_sd(ohmic_sd, 0.5, 1, 0.5)
        with pytest.raises(UnsupportedMapping):
            cc.ResidualDensity.build(ohmic_sd, 0.5, 1)

    def test_gapped_rejected(self, gapped_sd):
        with pytest.raises(GappedMeasure):
            cc.ResidualDensity.build(gapped_sd, 0, 1)


class TestPhononBandEdge:
    """At q = 1 the clipped range ends are square roots of the evaluation
    band's ends; J_n squares them back, and the rounding used to leave the
    band for about 44% of supports (EndpointEvaluation)."""

    @staticmethod
    def _sample_ends(sd):
        rd = cc.ResidualDensity.build(sd, 1, 1)
        lo, hi = rd.clipped_range()
        vals = rd(1, np.array([lo, hi]))
        assert np.all(np.isfinite(vals) & (vals > 0))
        band_lo, band_hi = cc.stieltjes.evaluation_band(rd.seq.base)
        assert abs(lo - math.sqrt(band_lo)) <= 2 * math.ulp(lo)
        assert abs(hi - math.sqrt(band_hi)) <= 2 * math.ulp(hi)

    def test_piecewise_supports(self):
        rng = np.random.default_rng(20261017)
        for _ in range(2000):
            lo = rng.uniform(0.0, 2.0)
            hi = lo + rng.uniform(0.1, 3.0)
            self._sample_ends(cc.piecewise_uniform_sd([(lo, hi, rng.uniform(0.2, 2.0))]))

    def test_power_law_supports(self):
        # the family builds its q = 1 measure on [0, omega_c ** 2], which
        # rounds differently from the w * w that J_n squares with
        rng = np.random.default_rng(20261018)
        for omega_c in rng.uniform(0.5, 2.5, 400):
            self._sample_ends(cc.power_law_sd(1.0, 0.1, omega_c))
