import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaincast as cc
from chaincast import quadrature
from chaincast.errors import DivergentMoment, DomainError, GappedMeasure
from chaincast.measures import PowerLawWeight


class TestMappingKernel:
    def test_particle_case(self):
        k = cc.mapping_kernel(0.0)
        xs = np.linspace(0, 2, 9)
        np.testing.assert_allclose(k.G(xs), xs)
        np.testing.assert_allclose(k.xi(xs), 1.0)

    def test_phonon_case(self):
        k = cc.mapping_kernel(1.0)
        xs = np.linspace(0.01, 2, 9)
        np.testing.assert_allclose(k.G(xs), xs * xs, rtol=1e-14)
        np.testing.assert_allclose(k.xi(xs), np.sqrt(2 * xs), rtol=1e-14)
        np.testing.assert_allclose(k.G_inv(xs), np.sqrt(xs), rtol=1e-14)

    def test_half_q_closed_values(self):
        k = cc.mapping_kernel(0.5)
        assert k.G(0.0) == pytest.approx(-1 / 24, rel=1e-14)
        assert k.G_inv(-1 / 24) == pytest.approx(0.0, abs=1e-9)

    @settings(deadline=None, max_examples=40)
    @given(q=st.floats(0.0, 1.0), x=st.floats(0.01, 5.0))
    def test_inverse_roundtrip(self, q, x):
        k = cc.mapping_kernel(q)
        assert k.G_inv(k.G(x)) == pytest.approx(x, abs=1e-12 * (1 + x))

    def test_roundtrip_on_grid(self):
        xs = np.linspace(0.01, 4.0, 101)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            k = cc.mapping_kernel(q)
            np.testing.assert_allclose(k.G_inv(k.G(xs)), xs, atol=1e-12)

    def test_branch_point_roundtrip_bounded(self):
        # At x = 0 the inverse sits on its square-root branch point for
        # 0 < q < 1; double precision can only deliver ~sqrt(eps) there.
        for q in (0.3, 0.9):
            k = cc.mapping_kernel(q)
            assert abs(k.G_inv(k.G(0.0))) < 1e-7

    def test_r_is_log_xi(self):
        k = cc.mapping_kernel(0.7)
        xs = np.linspace(0.1, 3.0, 11)
        np.testing.assert_allclose(k.r(xs), np.log(k.xi(xs)), rtol=1e-14)

    @pytest.mark.parametrize("q", [0.25, 0.5, 1.0])
    def test_infinity_maps_to_infinity(self, q):
        # G_q(x) ~ x / sqrt(1 - q^2) for q < 1 and G_1(x) = x^2
        k = cc.mapping_kernel(q)
        with np.errstate(all="raise"):
            assert k.G(math.inf) == math.inf
            np.testing.assert_array_equal(
                k.G(np.array([2.0, math.inf])), [k.G(2.0), math.inf])

    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_xi_and_r_at_infinity(self, q):
        # xi_q -> ((1+q)/(1-q))^(1/4) as x -> inf for q < 1; xi_1 ~ sqrt(2) x.
        k = cc.mapping_kernel(q)
        want = ((1 + q) / (1 - q)) ** 0.25 if q < 1 else math.inf
        assert k.xi(math.inf) == want
        assert k.r(math.inf) == math.log(want)
        np.testing.assert_array_equal(k.xi(np.array([2.0, math.inf])),
                                      [k.xi(2.0), want])
        if q < 1:
            assert k.xi(1e150) == pytest.approx(want, rel=1e-15)

    def test_q_domain(self):
        with pytest.raises(DomainError):
            cc.mapping_kernel(-0.1)
        with pytest.raises(DomainError):
            cc.mapping_kernel(1.1)


class TestMeasureFromSd:
    def test_particle_is_j_over_pi(self, ohmic_sd):
        m = cc.measure_from_sd(ohmic_sd, 0.0)
        xs = np.linspace(0.05, 0.95, 11)
        np.testing.assert_allclose(m.weight(xs), ohmic_sd(xs) / math.pi,
                                   rtol=1e-13)
        np.testing.assert_allclose(m.weight(xs), 2 * 0.1 * xs, rtol=1e-13)
        assert m.hull == (0.0, 1.0)

    def test_phonon_is_j_sqrt_over_pi(self, ohmic_sd):
        m = cc.measure_from_sd(ohmic_sd, 1.0)
        xs = np.linspace(0.05, 0.95, 11)
        np.testing.assert_allclose(m.weight(xs), ohmic_sd(np.sqrt(xs)) / math.pi,
                                   rtol=1e-13)
        assert m.hull == (0.0, 1.0)

    def test_corollary_forms_pointwise_for_custom(self):
        # Untagged J goes through the generic kernel path; it must agree with
        # the q = 0 and q = 1 closed forms.
        j = cc.custom_sd(lambda w: 1.0 + np.cos(w), ((0.2, 2.0),))
        xs = np.linspace(0.25, 1.9, 17)
        m0 = cc.measure_from_sd(j, 0.0)
        np.testing.assert_allclose(m0.weight(xs), j(xs) / math.pi, rtol=1e-12)
        m1 = cc.measure_from_sd(j, 1.0)
        ys = xs**2
        np.testing.assert_allclose(m1.weight(ys), j(xs) / math.pi, rtol=1e-12)
        assert m1.hull == pytest.approx((0.04, 4.0))

    def test_gap_structure_maps_through(self, gapped_sd):
        m1 = cc.measure_from_sd(gapped_sd, 1.0)
        assert m1.support == ((0.0, 1.0), (4.0, 9.0))

    def test_mid_q_support_and_mass(self, ohmic_sd):
        q = 0.5
        k = cc.mapping_kernel(q)
        m = cc.measure_from_sd(ohmic_sd, q)
        assert m.hull[0] == pytest.approx(k.G(0.0))
        assert m.hull[1] == pytest.approx(k.G(1.0))
        # mass: int M^q dx = int (J/pi) xi^2 dG/d... sanity via quadrature only
        assert m.total_mass() > 0


class TestChainCoefficients:
    def test_particle_golden_finite_support(self, ohmic_sd):
        c = cc.chain_coefficients(ohmic_sd, 0.0, 4)
        assert c.E5 == pytest.approx(math.sqrt(0.1), rel=1e-13)
        assert c.E2[0] == pytest.approx(2 / 3, rel=1e-13)
        assert c.E4[0] == pytest.approx(math.sqrt(1 / 18), rel=1e-13)
        np.testing.assert_allclose(c.E1, 0.0)
        np.testing.assert_allclose(c.E3, 0.0)

    def test_phonon_golden_finite_support(self, ohmic_sd):
        c = cc.chain_coefficients(ohmic_sd, 1.0, 4)
        assert c.E5 == pytest.approx(2 * math.sqrt(0.1 / 3), rel=1e-13)
        assert c.E2[0] == pytest.approx(0.6 + 0.25, rel=1e-13)
        np.testing.assert_allclose(c.E3, c.E4)

    def test_exp_cutoff_golden(self, ohmic_exp_sd):
        c = cc.chain_coefficients(ohmic_exp_sd, 0.0, 4)
        assert c.E5 == pytest.approx(math.sqrt(0.2), rel=1e-12)
        assert c.E4[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert c.E2[0] == pytest.approx(2.0, rel=1e-12)

    @staticmethod
    def _phonon_exp_cutoff_oracle(s, alpha, omega_c, n):
        """alpha_k, beta_k (k < n) of d-lambda^1 for the exponential cutoff,
        by the Chebyshev algorithm at 400 digits on its exact moments
        int x^k d-lambda^1 = 2 c Gamma(2k+s+2) omega_c^(2k+s+2), with
        c = 2 alpha omega_c^(1-s)."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(400):
            s, omega_c = mpmath.mpf(s), mpmath.mpf(omega_c)
            c = 2 * mpmath.mpf(alpha) * omega_c ** (1 - s)
            sig = [2 * c * mpmath.gamma(2 * k + s + 2) * omega_c ** (2 * k + s + 2)
                   for k in range(2 * n)]
            prev = [mpmath.mpf(0)] * (2 * n)
            a, b = [sig[1] / sig[0]], [sig[0]]
            for k in range(1, n):
                nxt = [mpmath.mpf(0)] * (2 * n)
                for j in range(k, 2 * n - k):
                    nxt[j] = sig[j + 1] - a[k - 1] * sig[j] - b[k - 1] * prev[j]
                a.append(nxt[k + 1] / nxt[k] - sig[k] / sig[k - 1])
                b.append(nxt[k] / sig[k - 1])
                prev, sig = sig, nxt
            return (np.array([float(v) for v in a]),
                    np.array([float(v) for v in b]))

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_phonon_exp_cutoff_matches_mpmath(self, s):
        # Unbounded support at q = 1: G_1 maps the end inf to inf.
        want_a, want_b = self._phonon_exp_cutoff_oracle(s, 0.1, 1.3, 21)
        sd = cc.power_law_exp_sd(s, 0.1, 1.3)
        for n in (1, 2, 5, 10, 15, 20):
            rc = cc.chain_coefficients(sd, 1.0, n).rc
            np.testing.assert_allclose(rc.alpha, want_a[:n + 1], rtol=1e-11)
            np.testing.assert_allclose(rc.beta, want_b[:n + 1], rtol=1e-11)

    def test_mid_q_exp_cutoff_is_valid(self, ohmic_exp_sd):
        c = cc.chain_coefficients(ohmic_exp_sd, 0.5, 10)
        assert np.all(np.isfinite(c.alpha))
        assert np.all(c.rc.beta > 0)
        np.testing.assert_array_equal(c.E4, np.sqrt(c.rc.beta[1:]))

    def test_phonon_particle_bridge(self, ohmic_sd):
        # alpha_n(1)(s) = alpha_n(0)(s/2), beta_{n+1}(1)(s) = beta_{n+1}(0)(s/2)
        # in omega_c = 1 units; phonon side forced through the generic route.
        rc1 = cc.recurrence_coefficients(cc.measure_from_sd(ohmic_sd, 1.0), 22,
                                         method="stieltjes")
        ref_alpha, ref_beta = PowerLawWeight(1.0, 0.5, 1.0).recurrence(22)
        np.testing.assert_allclose(rc1.alpha, ref_alpha[:22], atol=1e-10)
        np.testing.assert_allclose(rc1.beta[1:], ref_beta[1:22], rtol=1e-10)

    def test_interpolating_q_identities(self, ohmic_sd):
        c = cc.chain_coefficients(ohmic_sd, 0.5, 6)
        np.testing.assert_allclose(c.E1, 0.25 * c.alpha - 0.03125, rtol=1e-14)
        np.testing.assert_allclose(c.E2, c.alpha + 0.125, rtol=1e-14)
        np.testing.assert_allclose(c.E3, 0.5 * c.E4, rtol=1e-14)

    def test_gapped_coefficients_still_compute(self, gapped_sd):
        c = cc.chain_coefficients(gapped_sd, 0.0, 8)
        np.testing.assert_allclose(c.alpha, 1.5, atol=1e-11)
        assert np.all(c.beta > 0)


class TestAssociatedJacobi:
    def test_offset_zero_is_identity(self, weight_x):
        rc = cc.recurrence_coefficients(weight_x, 6)
        view = rc.shifted(0)
        np.testing.assert_array_equal(view.alpha, rc.alpha)
        np.testing.assert_array_equal(view.beta, rc.beta)

    def test_semicircle_translation_invariance(self, semicircle):
        rc = cc.recurrence_coefficients(semicircle, 8)
        view = rc.shifted(1)
        np.testing.assert_allclose(view.alpha, rc.alpha[1:], atol=1e-14)
        np.testing.assert_allclose(view.beta, rc.beta[1:], rtol=1e-14)

    def test_ohmic_offset_view(self, weight_x):
        rc = cc.recurrence_coefficients(weight_x, 6)
        view = rc.shifted(1)
        assert view.alpha[0] == pytest.approx(0.5 * (1 + 1 / 15), rel=1e-13)
        # beta_0 slot of the view carries beta_1 of the parent (member mass)
        assert view.beta[0] == pytest.approx(1 / 18, rel=1e-13)


class TestBassano:
    def test_ohmic_golden_values(self, ohmic_sd):
        d_sq, omega_sq = cc.bassano_coefficients(ohmic_sd, 4)
        assert d_sq[0] == pytest.approx(4 * 0.1 / 3, rel=1e-12)
        assert omega_sq[0] == pytest.approx(0.6, rel=1e-12)

    def test_d0_definition_integral(self, ohmic_sd):
        # D_0^2 = (1/pi) int J(sqrt(u)) du over the squared support
        d_sq, _ = cc.bassano_coefficients(ohmic_sd, 1)
        val, _ = cc.quadrature.integrate(
            lambda u: np.asarray(ohmic_sd(np.sqrt(u)), float) / math.pi,
            0.0, 1.0)
        assert d_sq[0] == pytest.approx(val, rel=1e-10)

    def test_rubin_terminal_constant_frequencies(self, ohmic_sd):
        # The phonon terminal density maps to a semicircle measure, so all
        # Omega^2 are the constant hull midpoint 1/2.
        jt = cc.terminal_sd(ohmic_sd, 1)
        d_sq, omega_sq = cc.bassano_coefficients(jt, 6)
        np.testing.assert_allclose(omega_sq, 0.5, atol=1e-11)
        np.testing.assert_allclose(d_sq[1:], 1 / 16, rtol=1e-11)

    def test_gapped_rejected(self, gapped_sd):
        with pytest.raises(GappedMeasure):
            cc.bassano_coefficients(gapped_sd, 3)

    def test_exp_cutoff(self, ohmic_exp_sd):
        # D_0^2 = 2 c Gamma(3) and Omega_1^2 = Gamma(5) / Gamma(3), c = 0.2
        d_sq, omega_sq = cc.bassano_coefficients(ohmic_exp_sd, 10)
        assert d_sq[0] == pytest.approx(0.8, rel=1e-12)
        assert omega_sq[0] == pytest.approx(12.0, rel=1e-12)

    def test_unconverged_d0_integral_raises(self, ohmic_sd, monkeypatch):
        real = quadrature.integrate
        monkeypatch.setattr(quadrature, "integrate",
                            lambda *a, **k: (real(*a, **k)[0], False))
        with pytest.raises(DivergentMoment):
            cc.bassano_coefficients(ohmic_sd, 5)

    def test_equivalence_with_iterated_integrals(self, ohmic_sd):
        # D_n^2 from direct integrals of the residual densities equals
        # beta_n(d lambda^1) for n <= 3.
        rd = cc.ResidualDensity.build(ohmic_sd, 1, 3)
        d_ref, _ = cc.bassano_coefficients(ohmic_sd, 4)
        for n in range(4):
            if n == 0:
                f = lambda u: np.asarray(ohmic_sd(np.sqrt(u)), float) / math.pi
            else:
                f = lambda u, n=n: np.asarray(rd(n, np.sqrt(u)), float) / math.pi
            got, _ = cc.quadrature.integrate(f, 1e-10, 1.0 - 1e-10,
                                             rel_tol=1e-11)
            assert got == pytest.approx(d_ref[n], abs=1e-6), n
