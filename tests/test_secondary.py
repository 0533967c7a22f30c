import math
import sys

import numpy as np
import pytest

import chaincast as cc
from chaincast import orthopoly, secondary, stieltjes
from chaincast.errors import (
    GappedMeasure,
    IndexOutOfRange,
    InsufficientMoments,
    ZeroMass,
)


class TestSecondaryDensity:
    def test_semicircle_quarter(self, semicircle):
        # rho = mu/4 for the semicircle, so rho(0) = 1/(2 pi)
        assert cc.secondary_density(semicircle, 0.0) == pytest.approx(
            1 / (2 * math.pi), rel=1e-12)
        xs = np.linspace(-0.9, 0.9, 9)
        np.testing.assert_allclose(cc.secondary_density(semicircle, xs),
                                   semicircle.weight(xs) / 4, rtol=1e-12)

    def test_weight_2x_value(self, weight_2x):
        # phi(2x; 1/2) = -4, so rho(1/2) = 1/(4 + pi^2)
        assert cc.secondary_density(weight_2x, 0.5) == pytest.approx(
            1 / (4 + math.pi**2), rel=1e-12)

    def test_secondary_mass_is_c2_minus_c1_squared(self, semicircle):
        # C_0(d rho) = C_2 - C_1^2 = beta_1; quadrature against recurrence.
        lo, hi = stieltjes.evaluation_band(semicircle)
        val, _ = cc.quadrature.integrate(
            lambda x: cc.secondary_density(semicircle, x), lo, hi,
            rel_tol=1e-11)
        assert val == pytest.approx(0.25, abs=1e-7)

    def test_gapped_rejected(self, gapped_sd):
        m = cc.measure_from_sd(gapped_sd, 0.0)
        with pytest.raises(GappedMeasure):
            cc.secondary_density(m, 1.5)


class TestSequenceDensity:
    def test_semicircle_fixed_point(self, semicircle):
        seq = cc.SecondarySequence.build(semicircle, 4)
        xs = np.linspace(-0.95, 0.95, 41)
        base = semicircle.weight(xs)
        # every member is the base at mass beta_n = 1/4
        for n in range(1, 5):
            np.testing.assert_allclose(seq.density(n, xs), base / 4, atol=1e-9)

    def test_ohmic_beta_normalized_goldens(self, weight_x):
        seq = cc.SecondarySequence.build(weight_x, 2)
        # nu_1(1/2) = 1/(pi^2 + 4): the log term vanishes at the midpoint
        assert seq.density(1, 0.5) == pytest.approx(1 / (math.pi**2 + 4),
                                                    rel=1e-12)
        # nu_2(1/2) = 0.5/(pi^2/4 + 4)
        assert seq.density(2, 0.5) == pytest.approx(0.5 / (math.pi**2 / 4 + 4),
                                                    rel=1e-12)

    def test_printed_ohmic_member_profiles(self, weight_x):
        # Secondary members of weight x on [0,1] in closed form.
        seq = cc.SecondarySequence.build(weight_x, 3)
        xs = np.linspace(0.05, 0.95, 19)
        log = np.log((1 - xs) / xs)
        m1 = xs / (2 * (math.pi**2 * xs**2 + (1 + xs * log) ** 2))
        np.testing.assert_allclose(seq.density(1, xs), m1, rtol=1e-11)
        m2 = xs / (4 * math.pi**2 * (2 - 3 * xs) ** 2 * xs**2
                   + (1 - 6 * xs + (4 - 6 * xs) * xs * log) ** 2)
        np.testing.assert_allclose(seq.density(2, xs), m2, rtol=1e-11)
        m3 = 6 * xs / (36 * math.pi**2 * xs**2 * (3 - 12 * xs + 10 * xs**2) ** 2
                       + (30 * xs - 16 + (18 - 72 * xs + 60 * xs**2)
                          * (1 + xs * log)) ** 2)
        np.testing.assert_allclose(seq.density(3, xs), m3, rtol=1e-11)

    def test_member_masses(self, weight_x):
        seq = cc.SecondarySequence.build(weight_x, 2)
        assert seq.member_measure(1).total_mass() == pytest.approx(1 / 18,
                                                                   abs=1e-6)
        assert seq.member_measure(2).total_mass() == pytest.approx(0.06,
                                                                   abs=1e-6)
        assert seq.rc.beta[1] == pytest.approx(1 / 18, rel=1e-12)
        assert seq.rc.beta[2] == pytest.approx(0.06, rel=1e-12)

    def test_jacobi_shift_flagship(self, weight_2x):
        # Coefficients of the evaluated member mu_m equal the base
        # coefficients shifted by m (first m rows/columns crossed out).
        seq = cc.SecondarySequence.build(weight_2x, 3)
        parent = cc.recurrence_coefficients(seq.base, 8)
        for m in (1, 2, 3):
            child = cc.recurrence_coefficients(seq.member_measure(m), 5,
                                               method="stieltjes")
            np.testing.assert_allclose(child.alpha[:4], parent.alpha[m:m + 4],
                                       atol=1e-6)
            np.testing.assert_allclose(child.beta[1:4], parent.beta[m + 1:m + 4],
                                       atol=1e-6)

    def test_fixed_point_uniqueness(self, measure_suite):
        # Of the suite, only the semicircle survives one secondary+normalize
        # step unchanged.
        for name in ("semicircle", "weight_2x", "uniform_sym"):
            m = measure_suite[name]
            xs = np.linspace(m.hull[0] + 0.1, m.hull[1] - 0.1, 31)
            rho = cc.secondary_density(m, xs)
            lo, hi = stieltjes.evaluation_band(m)
            mass, _ = cc.quadrature.integrate(
                lambda t: cc.secondary_density(m, t), lo, hi)
            dev = float(np.max(np.abs(rho / mass - m.weight(xs))))
            if name == "semicircle":
                assert dev < 1e-9
            else:
                assert dev > 1e-3

    def test_gapped_rejected_and_zero_exists(self, gapped_sd):
        m = cc.measure_from_sd(gapped_sd, 0.0)
        with pytest.raises(GappedMeasure):
            cc.SecondarySequence.build(m, 2)
        assert cc.find_gap_zero(m) == pytest.approx(1.5, abs=1e-10)

    def test_subnormal_mass_raises_zero_mass(self):
        # the power of four nearest a subnormal beta_0 may overflow
        m = cc.Measure.from_family(cc.measures.UniformWeight(1e-310, 0.0, 1.0))
        with pytest.raises(ZeroMass, match=r"beta_0 = 1e-310 .*float_info\.min"):
            cc.SecondarySequence.build(m, 2)

    def test_smallest_normal_mass_builds(self):
        # beta_0 = sys.float_info.min builds, on a base scaled by 4**510,
        # and its members keep every bit they have at unit height
        xs = np.linspace(0.1, 0.9, 9)
        tiny, unit = (
            cc.SecondarySequence.build(
                cc.Measure.from_family(cc.measures.UniformWeight(h, 0.0, 1.0)), 2)
            for h in (sys.float_info.min, 1.0))
        assert tiny.rc.beta[0] == 0.25
        for n in (1, 2):
            assert np.array_equal(tiny.density(n, xs), unit.density(n, xs))

    def test_order_bounds(self, weight_x):
        seq = cc.SecondarySequence.build(weight_x, 2)
        with pytest.raises(IndexOutOfRange):
            seq.density(0, 0.5)
        with pytest.raises(IndexOutOfRange):
            seq.density(3, 0.5)
        for n in (0, 3):
            with pytest.raises(IndexOutOfRange):
                seq.member_measure(n)

    def test_reducer_runs_once_per_grid(self, weight_x, monkeypatch):
        plain = cc.Measure(weight_x.weight, weight_x.support)
        seq = cc.SecondarySequence.build(plain, 3)
        calls = []
        real = stieltjes._reducer_lipschitz

        def counting(m, x):
            calls.append(len(x))
            return real(m, x)

        monkeypatch.setattr(stieltjes, "_reducer_lipschitz", counting)
        xs = np.linspace(0.1, 0.9, 17)
        first = [seq.density(n, xs) for n in (1, 2, 3)]
        assert calls == [17]
        assert np.array_equal(seq.density(2, xs.copy()), first[1])
        assert calls == [17]
        # a changed grid, even changed in place, is evaluated afresh
        xs[0] = 0.12
        seq.density(1, xs)
        assert calls == [17, 17]
        fresh = cc.SecondarySequence.build(plain, 3)
        assert np.array_equal(seq.density(3, xs), fresh.density(3, xs))


def _familyless_semicircle_sd(a, b, c):
    return cc.custom_sd(lambda w: c * np.sqrt(np.maximum((w - a) * (b - w), 0.0)),
                        ((a, b),))


_SHARED_TABLE_SDS = {
    "flat": lambda: cc.piecewise_uniform_sd([(0.2, 1.4, 0.7)]),
    "power_law": lambda: cc.power_law_sd(1.0, 0.1, 1.0),
    "familyless_semicircle": lambda: _familyless_semicircle_sd(0.3, 2.1, 0.8),
}


class TestSharedTables:
    """The weight, the reducer and the P and Q tables are evaluated once per
    distinct x array and shared by every member."""

    def test_one_pass_per_grid(self, monkeypatch):
        rd = cc.ResidualDensity.build(cc.piecewise_uniform_sd([(0.2, 1.4, 0.7)]), 0, 3)
        calls = {"reducer": 0, "orthonormal_table": 0, "secondary_table": 0}
        for name in calls:
            real = getattr(secondary, name)

            def counting(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(secondary, name, counting)
        grid = np.linspace(*rd.clipped_range(), 33)
        for n in (1, 2, 3):
            rd(n, grid)
        assert calls == {"reducer": 1, "orthonormal_table": 1, "secondary_table": 1}
        rd(2, grid[1:])
        assert calls == {"reducer": 2, "orthonormal_table": 2, "secondary_table": 2}

    def test_memo_is_read_only(self):
        seq = cc.SecondarySequence.build(cc.power_law_measure(2.0, 1.0), 3)
        xs = np.linspace(0.1, 0.9, 9)
        seq.density(2, xs)
        tables = seq._memo[1]
        assert len(tables) == 4
        for t in tables:
            assert not t.flags.writeable
            with pytest.raises(ValueError):
                t[0] = 0.0
        assert xs.flags.writeable

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("name", sorted(_SHARED_TABLE_SDS))
    @pytest.mark.parametrize("order", [(1, 2, 3), (3, 1, 2), (2, 3, 1)])
    def test_members_bit_identical_to_one_order_alone(self, name, q, order):
        sd = _SHARED_TABLE_SDS[name]()
        rd = cc.ResidualDensity.build(sd, q, 3)
        grid = np.linspace(*rd.clipped_range(), 65)
        got = {n: rd(n, grid) for n in order}
        y = grid if q == 0 else grid * grid
        _, _, p_table, q_table = rd.seq._memo[1]
        for n in order:
            alone = cc.ResidualDensity.build(sd, q, 3)
            assert np.array_equal(got[n], alone(n, grid))
            # a table built only up to row n - 1 has the same bits there
            assert np.array_equal(p_table[n - 1],
                                  orthopoly.orthonormal_table(rd.seq.rc, n - 1, y)[n - 1])
            assert np.array_equal(q_table[n - 1],
                                  orthopoly.secondary_table(rd.seq.rc, n - 1, y)[n - 1])


class TestSecondaryMoments:
    def test_semicircle_first_values(self, semicircle):
        moms = cc.moments(semicircle, 6)
        rho = cc.secondary_moments(moms, 2)
        assert rho[0] == pytest.approx(0.25, abs=1e-12)
        assert rho[1] == pytest.approx(0.0, abs=1e-12)

    def test_weight_2x_mass_equals_beta1(self, weight_2x):
        moms = cc.moments(weight_2x, 4)
        rho = cc.secondary_moments(moms, 1)
        assert rho[0] == pytest.approx(1 / 18, rel=1e-10)

    def test_against_quadrature_of_density(self, weight_2x):
        # The recurrence is the oracle for quadrature of the secondary density.
        moms = cc.moments(weight_2x, 8)
        rho = cc.secondary_moments(moms, 4)
        lo, hi = stieltjes.evaluation_band(weight_2x)
        for k in range(5):
            val, _ = cc.quadrature.integrate(
                lambda x, k=k: cc.secondary_density(weight_2x, x) * x**k,
                lo, hi, rel_tol=1e-11)
            assert val == pytest.approx(rho[k], abs=2e-7), k

    def test_insufficient_moments(self, semicircle):
        moms = cc.moments(semicircle, 3)
        with pytest.raises(InsufficientMoments):
            cc.secondary_moments(moms, 2)
