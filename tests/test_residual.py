import math
import os
import subprocess
import sys
from pathlib import Path

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
def _scalable_spectral_densities(draw):
    """J with a working generic route: power law, flat piecewise, linear
    tabulated (41 samples) or a family-less semicircle, with random
    parameters; drawn as the map t -> t J."""
    kind = draw(st.sampled_from(["power_law", "flat", "tabulated", "semicircle"]))
    if kind == "power_law":
        s = draw(st.floats(0.2, 3.0))
        return lambda t: cc.power_law_sd(s, 0.1 * t, 1.0)
    lo = draw(st.floats(0.0, 1.0))
    hi = lo + draw(st.floats(0.3, 2.0))
    if kind == "flat":
        h = draw(st.floats(0.1, 2.0))
        return lambda t: cc.piecewise_uniform_sd([(lo, hi, h * t)])
    if kind == "tabulated":
        ends = draw(st.tuples(st.floats(0.0, 2.0), st.floats(0.1, 2.0)))
        return lambda t: cc.tabulated_sd(np.linspace(lo, hi, 41),
                                         t * np.linspace(*ends, 41))
    c = draw(st.floats(0.1, 2.0))

    def semicircle(t):
        tc = t * c
        return cc.custom_sd(
            lambda w: tc * np.sqrt(np.maximum((w - lo) * (hi - w), 0.0)),
            ((lo, hi),))
    return semicircle


def _spectral_densities():
    return _scalable_spectral_densities().map(lambda scaled: scaled(1.0))


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
        seq = cc.SecondarySequence.build(lam, 1)
        nu1 = seq.member_measure(1)
        alpha0, beta0 = seq.rc.alpha[0], seq.rc.beta[0]
        lo, hi = lam.hull
        span = hi - lo
        for z in (hi + 0.3 * span, lo - 0.3 * span,
                  complex(lo + 0.4 * span, 0.2 * span)):
            s = cc.stieltjes_transform(seq.base, z)
            cf = beta0 / (z - alpha0 - cc.stieltjes_transform(nu1, z))
            assert abs(s - cf) <= 1e-13 * abs(s), z


class TestMassScale:
    # Only beta_0 depends on the mass of d-lambda^q: beta_n and J_n (n >= 1)
    # do not.  The sequence divides its base by the power of four nearest
    # beta_0, which is exact, so a power of four keeps every bit of J_n.
    # An odd power of two leaves the base a factor 2 off the unscaled one,
    # and P then scales by sqrt(2), rounded: over 113 odd draws of this
    # strategy J_n moved by at most 3.8e-14, relative.
    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(scaled=_scalable_spectral_densities(), q=st.sampled_from([0, 1]),
           k=st.integers(-880, 880))
    def test_power_of_two_scale(self, scaled, q, k):
        ref = cc.ResidualDensity.build(scaled(1.0), q, 3)
        rd = cc.ResidualDensity.build(scaled(math.ldexp(1.0, k)), q, 3)
        assert np.array_equal(rd.seq.rc.beta[1:], ref.seq.rc.beta[1:])
        grid = np.linspace(*ref.clipped_range(), 33)
        for n in (1, 2, 3):
            if k % 2 == 0:
                assert np.array_equal(rd(n, grid), ref(n, grid)), n
            else:
                np.testing.assert_allclose(rd(n, grid), ref(n, grid),
                                           rtol=1e-13, atol=0)

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("kind", ["flat", "tabulated", "semicircle"])
    def test_decimal_scales_keep_j_n(self, kind, q):
        # Without the rescaled base, J_n read 0, inf or nan from about
        # |k| = 160 on (a flat J of height 1e160 gave J_1 = 0).  The spread
        # left is the rounding of the scaled input: 8.9e-14 at worst over
        # every k in -300..300, on the linear tabulated J at q = 0.
        def make(t):
            if kind == "flat":
                return cc.piecewise_uniform_sd([(0.2, 1.4, 0.7 * t)])
            if kind == "tabulated":
                return cc.tabulated_sd(np.linspace(0.1, 1.3, 41),
                                       t * np.linspace(0.3, 1.1, 41))
            return cc.custom_sd(
                lambda w: 0.8 * t * np.sqrt(np.maximum((w - 0.3) * (2.1 - w), 0.0)),
                ((0.3, 2.1),))

        ref = cc.ResidualDensity.build(make(1.0), q, 3)
        grid = np.linspace(*ref.clipped_range(), 17)
        want = [ref(n, grid) for n in (1, 2, 3)]
        for k in range(-300, 301, 5):
            rd = cc.ResidualDensity.build(make(10.0**k), q, 3)
            for n in (1, 2, 3):
                got = rd(n, grid)
                assert np.all(np.isfinite(got) & (got > 0)), (k, n)
                np.testing.assert_allclose(got, want[n - 1], rtol=2e-13,
                                           atol=0, err_msg=f"k={k}, n={n}")


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


_BLAS_CHILD = """
import hashlib
import numpy as np
import chaincast as cc
b, c = 1.3, 0.7
sd = cc.custom_sd(lambda w: c * np.sqrt(np.maximum(w * (b - w), 0.0)),
                  ((0.0, b),), ((0.5, 0.5),))
rd = cc.ResidualDensity.build(sd, 1, 3)
grid = np.linspace(*rd.clipped_range(), 2048)
digest = hashlib.sha256()
for n in (1, 2, 3):
    digest.update(np.asarray(rd(n, grid), float).tobytes())
gaps = cc.convergence_report(sd, 1.0, 6, 3).terminal_moment_gap
assert sorted(gaps) == [1, 2, 3]
for n in (1, 2, 3):
    digest.update(np.asarray(gaps[n], float).tobytes())
print(digest.hexdigest())
"""


class TestBlasThreads:
    """The Lipschitz reducer sums each kernel block with a BLAS gemv; a
    family-less job gives the same bits however many threads OpenBLAS may
    use."""

    def test_familyless_semicircle_bits(self):
        # J_1..J_3 on a 2048-point grid and the report's terminal moment
        # gaps of the family-less semicircle on [0, 1.3] at q = 1, each
        # setting in a fresh interpreter, run side by side
        src = str(Path(cc.__file__).resolve().parents[1])
        children = [
            subprocess.Popen([sys.executable, "-c", _BLAS_CHILD], text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=dict(os.environ, PYTHONPATH=src,
                                      OPENBLAS_NUM_THREADS=threads))
            for threads in ("1", "2")]
        digests = []
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            digests.append(out.split()[-1])
        assert digests[0] == digests[1]
