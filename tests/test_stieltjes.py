import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

import chaincast as cc
from chaincast import quadrature, stieltjes
from chaincast.errors import (
    BracketFailure,
    EndpointEvaluation,
    GappedMeasure,
    PoleTooClose,
    UnsupportedMeasure,
)


def _semicircle_s(z) -> complex:
    """S(z) = 2 (z - sqrt(z - 1) sqrt(z + 1)) of the normalized semicircle,
    at 40 digits; the product of principal roots is the branch that decays
    off [-1, 1] in both half-planes."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        return complex(2 * (z - mpmath.sqrt(z - 1) * mpmath.sqrt(z + 1)))


class TestTransform:
    def test_semicircle_closed_form(self, semicircle):
        # S(z) = 2 (z - sqrt(z^2 - 1)) off the support
        got = cc.stieltjes_transform(semicircle, 2.0)
        assert got.real == pytest.approx(2 * (2 - math.sqrt(3)), rel=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-14)

    def test_large_z_mass_asymptotic(self, measure_suite):
        for name in ("semicircle", "weight_2x", "uniform_sym"):
            m = measure_suite[name]
            z = 1e6
            assert (z * cc.stieltjes_transform(m, z)).real == pytest.approx(
                1.0, rel=1e-5), name

    def test_weight_2x_closed_form(self, weight_2x):
        got = cc.stieltjes_transform(weight_2x, 2.0)
        assert got.real == pytest.approx(2 * (-1 + 2 * math.log(2)), rel=1e-12)

    def test_complex_argument(self, semicircle):
        z = 0.3 + 0.2j
        got = cc.stieltjes_transform(semicircle, z)
        # S(conj z) = conj S(z) for real measures
        mirrored = cc.stieltjes_transform(semicircle, z.conjugate())
        assert mirrored == pytest.approx(got.conjugate(), rel=1e-12)

    def test_pole_guard(self, semicircle):
        with pytest.raises(PoleTooClose):
            cc.stieltjes_transform(semicircle, 0.5)
        with pytest.raises(PoleTooClose):
            cc.stieltjes_transform(semicircle, 1.0 + 1e-12)

    def test_density_positivity_below_axis(self, weight_2x):
        # Im S(x - i eps) > 0 reconstructs a positive density
        for x in (0.2, 0.5, 0.8):
            val = cc.stieltjes_transform(weight_2x, complex(x, -1e-6))
            assert val.imag > 0

    def test_complex_scan_near_the_support(self, semicircle_plain, caplog):
        # Re z ~ U(-1.2, 1.2) and |Im z| = 10^U(-14, 0) in both half-planes:
        # z comes within 1e-14 of the support, inside and past its ends.
        # Forming z - t from node positions gave S(0.3 + 1e-6j) 19x too large.
        rng = np.random.default_rng(10)
        zs = (rng.uniform(-1.2, 1.2, 300)
              + 1j * rng.choice([-1.0, 1.0], 300) * 10 ** rng.uniform(-14, 0, 300))
        errs = []
        with caplog.at_level(logging.WARNING, logger="chaincast"):
            for z in [*zs, 0.3 + 1e-6j]:
                want = _semicircle_s(z)
                errs.append(abs(cc.stieltjes_transform(semicircle_plain, z) - want)
                            / abs(want))
        assert max(errs) <= 1e-13
        assert caplog.records == []


class TestReducer:
    def test_semicircle_is_4x(self, semicircle, semicircle_plain):
        xs = np.linspace(-0.9, 0.9, 11)
        np.testing.assert_allclose(cc.reducer(semicircle, xs), 4 * xs,
                                   atol=1e-12)
        np.testing.assert_allclose(
            cc.reducer(semicircle_plain, xs, method="lipschitz"), 4 * xs,
            atol=1e-9)

    def test_uniform_midpoint_vanishes(self):
        m = cc.Measure(lambda x: np.ones_like(np.asarray(x, float)),
                       ((0.0, 1.0),))
        assert cc.reducer(m, 0.5, method="lipschitz") == pytest.approx(0.0,
                                                                       abs=1e-12)

    def test_weight_x_closed_form(self, weight_x):
        ts = np.array([0.2, 0.5, 0.7])
        want = -2.0 * (1.0 + ts * np.log((1 - ts) / ts))
        np.testing.assert_allclose(cc.reducer(weight_x, ts), want, rtol=1e-12)
        np.testing.assert_allclose(cc.reducer(weight_x, ts, method="lipschitz"),
                                   want, rtol=1e-10)
        assert cc.reducer(weight_x, 0.5) == pytest.approx(-2.0, rel=1e-12)

    def test_methods_agree_on_c1_weights(self, weight_2x):
        # Lipschitz and integrated-by-parts forms agree on C^1 weights.
        xs = np.linspace(0.1, 0.9, 9)
        lips = cc.reducer(weight_2x, xs, method="lipschitz")
        deriv = cc.reducer(weight_2x, xs, method="derivative")
        np.testing.assert_allclose(lips, deriv, atol=1e-8)
        poly = cc.Measure(lambda x: 1.0 + x * (1 - x),
                          ((0.0, 1.0),))
        lips = cc.reducer(poly, xs, method="lipschitz")
        deriv = cc.reducer(poly, xs, method="derivative")
        np.testing.assert_allclose(lips, deriv, atol=1e-8)

    def test_exponential_cutoff_closed_form(self):
        # Laguerre-family reducer via the exponential integral
        from scipy.special import expi
        m = cc.power_law_exp_measure(1.0, 1.0)
        xs = np.array([0.5, 1.0, 2.0])
        want = 2.0 * (xs * np.exp(-xs) * expi(xs) - 1.0)
        np.testing.assert_allclose(cc.reducer(m, xs), want, rtol=1e-12)

    def test_scaling_linearity(self, weight_x, weight_2x):
        xs = np.linspace(0.15, 0.85, 7)
        np.testing.assert_allclose(cc.reducer(weight_2x, xs),
                                   2 * cc.reducer(weight_x, xs), rtol=1e-12)

    def test_gapped_rejected(self, gapped_sd):
        m = cc.measure_from_sd(gapped_sd, 0.0)
        with pytest.raises(GappedMeasure):
            cc.reducer(m, 0.5)

    def test_endpoint_guard(self, weight_x):
        with pytest.raises(EndpointEvaluation):
            cc.reducer(weight_x, 1.0)
        with pytest.raises(EndpointEvaluation):
            cc.reducer(weight_x, 0.0)
        with pytest.raises(EndpointEvaluation):
            cc.reducer(weight_x, 1.0 - 1e-13)


class TestRouteSelection:
    """"auto" takes the family closed form when there is one, else the
    Lipschitz route."""

    @pytest.fixture
    def lipschitz_calls(self, monkeypatch):
        calls = []
        route = stieltjes._reducer_lipschitz

        def counted(m, x):
            calls.append(len(x))
            return route(m, x)

        monkeypatch.setattr(stieltjes, "_reducer_lipschitz", counted)
        return calls

    def test_closed_form_family(self, lipschitz_calls):
        m = cc.power_law_measure(1, 1.0)
        xs = np.linspace(0.05, 0.95, 19)
        np.testing.assert_array_equal(cc.reducer(m, xs), m.family.reducer(xs))
        assert lipschitz_calls == []

    def test_family_without_closed_form(self, lipschitz_calls):
        m = cc.power_law_measure(1, 0.7)
        assert m.family.reducer(np.array([0.5])) is None
        xs = np.linspace(0.05, 0.95, 19)
        auto = cc.reducer(m, xs)
        assert lipschitz_calls == [19]
        np.testing.assert_array_equal(auto, cc.reducer(m, xs, method="lipschitz"))

    def test_familyless_unbounded_rejected(self):
        m = cc.Measure(lambda x: np.exp(-np.asarray(x, float)),
                       ((0.0, math.inf),), tail=cc.TailBound(1.0))
        with pytest.raises(UnsupportedMeasure):
            cc.reducer(m, 1.0)

    def test_unknown_method(self, weight_x):
        with pytest.raises(ValueError, match="bogus"):
            cc.reducer(weight_x, 0.5, method="bogus")


class TestLipschitzRoute:
    def test_bounded_memory_on_a_large_grid(self, caplog):
        # A family-less semicircle: the kernel over 4096 points and the
        # 24787 nodes of the last level would take 0.8 GB in one piece.
        a, b, c = 0.3, 2.1, 0.7
        sd = cc.custom_sd(lambda w: c * np.sqrt(np.maximum((w - a) * (b - w), 0.0)),
                          ((a, b),), ((0.5, 0.5),))
        m = cc.measure_from_sd(sd, 0.0)
        xs = np.linspace(*cc.stieltjes.evaluation_band(m), 4096)
        tracemalloc.start()
        try:
            with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
                phi = cc.reducer(m, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        want = 2.0 * c * (xs - 0.5 * (a + b))
        dist = np.minimum(xs - a, b - xs) / (b - a)
        # In the PV band the quotient is replaced by mu' at the midpoint,
        # within O(mu''' delta^2) of it, and the band narrows with the
        # distance to the nearer end: the error is about 2e-12 at the ends
        # of the evaluation band and 1e-13 elsewhere.
        err = np.abs(phi - want)
        assert err.max() < 1e-10
        assert err[dist > 1e-4].max() < 1e-11
        # rows next to the endpoints never settle: one warning, no raise
        records = [r for r in caplog.records if r.name == "chaincast.stieltjes"]
        assert len(records) == 1
        assert "required < 1e-13" in records[0].getMessage()

    def test_converged_route_logs_nothing(self, weight_x, caplog):
        with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
            cc.reducer(weight_x, np.linspace(0.1, 0.9, 9), method="lipschitz")
        assert not caplog.records

    def test_familyless_semicircle_is_its_own_residual(self):
        # The semicircle is the fixed point of the residual map: J_1..J_3
        # equal the terminal density on every grid the CLI would sample.
        sd = _familyless_semicircle(0.3, 2.1, 0.7)
        rd = cc.ResidualDensity.build(sd, 0, 3)
        jt = cc.terminal_sd(sd, 0)
        for points in (512, 2048):
            grid = np.linspace(*rd.clipped_range(), points)
            want = jt(grid)
            for n in (1, 2, 3):
                err = np.abs(rd(n, grid) - want).max() / want.max()
                assert err < 1e-12, (points, n, err)

    def test_familyless_semicircle_moment_gaps(self):
        report = cc.convergence_report(_familyless_semicircle(0.3, 2.1, 0.7),
                                       0.0, 6, residual_orders=3)
        assert sorted(report.terminal_moment_gap) == [1, 2, 3]
        assert report.gap_aggregate(8).max() < 1e-12

    def test_phonon_report_moments_converge(self, caplog):
        sd = _familyless_semicircle(0.0, 2.1, 0.7)
        with caplog.at_level(logging.WARNING, logger="chaincast"):
            cc.convergence_report(sd, 1.0, 6, residual_orders=3)
        assert not [r for r in caplog.records
                    if "moment quadrature not converged" in r.getMessage()]

    @pytest.mark.parametrize("lo, hi", [(3e-5, 1.0), (1e-4, 2.0), (2.79e-4, 1.3),
                                        (5e-4, 1.3)])
    def test_flat_phonon_measure_near_zero(self, lo, hi):
        # A flat J at q = 1 maps to a flat measure on [lo^2, hi^2], whose
        # reducer is 2 mu ln((y - a)/(b - y)); finite differences of the
        # piecewise weight must not sample across an endpoint.
        m = cc.measure_from_sd(cc.piecewise_uniform_sd([(lo, hi, 0.8)]), 1.0)
        a, b = m.hull
        ys = np.linspace(*stieltjes.evaluation_band(m), 2048)
        want = 2.0 * (0.8 / math.pi) * np.log((ys - a) / (b - ys))
        np.testing.assert_allclose(cc.reducer(m, ys), want, rtol=1e-12, atol=0)

    def test_power_law_matches_mpmath(self):
        # mu = c x**0.7 on [0, 1] has a family derivative but no closed-form
        # reducer; the rows run from the start of the evaluation band, where
        # mu' diverges, to its end.
        mp = pytest.importorskip("mpmath")
        m = cc.measure_from_sd(cc.power_law_sd(0.7, 0.1, 1.0), 0.0)
        fam = m.family
        lo, hi = stieltjes.evaluation_band(m)
        xs = np.array([lo, 1e-7, 0.3, 0.77, hi])
        got = cc.reducer(m, xs)
        mp.mp.dps = 30
        s, c, cut = mp.mpf(fam.s), mp.mpf(fam.c), mp.mpf(fam.cut)
        for x, g in zip(xs, got):
            x = mp.mpf(x)

            def quot(t, x=x):
                return (t**s - x**s) / (t - x) if t != x else s * x ** (s - 1)

            want = 2 * c * (x**s * mp.log(x / (cut - x)) - mp.quad(quot, [0, x, cut]))
            assert abs(g - float(want)) < 1e-12 * max(1.0, abs(float(want))), x


class TestRowRefinement:
    """Each row of the Lipschitz reducer refines on its own: a converged row
    keeps its level's value and leaves the kernel."""

    @pytest.fixture
    def pv_rows(self, monkeypatch):
        rows = []
        kernel = stieltjes._pv_sums

        def counted(m, x, *args):
            rows.append(len(x))
            return kernel(m, x, *args)

        monkeypatch.setattr(stieltjes, "_pv_sums", counted)
        return rows

    def test_rows_are_independent(self, caplog):
        m = cc.measure_from_sd(_familyless_semicircle(0.3, 2.1, 0.7), 0.0)
        xs = np.linspace(*stieltjes.evaluation_band(m), 300)
        with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
            stacked = cc.reducer(m, xs)
            # the two band-end rows run to the last level; the others must
            # not notice whether they are there
            inner = cc.reducer(m, xs[1:-1])
            single = np.array([cc.reducer(m, x) for x in xs])
        # relative to |phi| + |mu(x)|, the scale of the route's own
        # convergence test, since phi crosses zero mid-span
        scale = np.abs(stacked) + np.asarray(m.weight(xs), float)
        assert np.all(np.abs(stacked[1:-1] - inner) <= 1e-15 * scale[1:-1])
        assert np.all(np.abs(stacked - single) <= 1e-15 * scale)

    def test_flat_measure_converges_at_the_first_comparison(self, pv_rows):
        m = cc.measure_from_sd(cc.piecewise_uniform_sd([(0.1, 1.7, 0.8)]), 0.0)
        cc.reducer(m, np.linspace(*stieltjes.evaluation_band(m), 2048))
        assert pv_rows == [2048, 2048]

    def test_only_unconverged_rows_refine(self, pv_rows, caplog):
        m = cc.measure_from_sd(_familyless_semicircle(0.3, 2.1, 0.7), 0.0)
        xs = np.linspace(*stieltjes.evaluation_band(m), 4096)
        with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
            cc.reducer(m, xs)
        assert len(pv_rows) == quadrature.MAX_LEVEL - quadrature.MIN_LEVEL + 1
        assert pv_rows[:2] == [4096, 4096]
        assert pv_rows[2] < 64
        assert pv_rows[2:] == sorted(pv_rows[2:], reverse=True)
        assert 0 < pv_rows[-1] <= 8
        records = [r for r in caplog.records if r.name == "chaincast.stieltjes"]
        assert len(records) == 1
        # the rows still open after the last level are among those it ran
        missed = re.search(r"on (\d+) of 4096 points", records[0].getMessage())
        assert 0 < int(missed.group(1)) <= pv_rows[-1]


def _familyless_semicircle(a, b, c):
    return cc.custom_sd(lambda w: c * np.sqrt(np.maximum((w - a) * (b - w), 0.0)),
                        ((a, b),), ((0.5, 0.5),))


def _pv_sums_dense(m, x, mu_x, delta, t, mu_t, w):
    """The band rule of ``stieltjes._pv_sums`` with dense masks: mu' at the
    midpoint is formed for every cell and selected by |t - x| < delta, in
    the same row blocks."""
    out = np.empty(len(x))
    rows = max(1, stieltjes.PV_BLOCK_CELLS // len(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, len(x), rows):
            blk = slice(i, i + rows)
            diff = t[None, :] - x[blk, None]
            quot = (mu_t[None, :] - mu_x[blk, None]) / diff
            mid = 0.5 * (x[blk, None] + t[None, :])
            step = 0.5 * delta[blk, None]
            if m.family is not None:
                slope = m.family.derivative(mid)
            else:
                slope = (m.weight(mid + step) - m.weight(mid - step)) / (2.0 * step)
            band = np.abs(diff) < delta[blk, None]
            out[blk] = np.where(band, slope, quot) @ w
    return out


class TestPvKernel:
    """``_pv_sums`` finds its band cells by binary search and must give,
    bit for bit, what dense masks give, on the node sets the reducer
    passes it."""

    MEASURES = {
        "semicircle_q0": lambda: cc.measure_from_sd(
            _familyless_semicircle(0.3, 2.1, 0.7), 0.0),
        "semicircle_q1": lambda: cc.measure_from_sd(
            _familyless_semicircle(0.0, 1.3, 0.7), 1.0),
        "power_law_family": lambda: cc.power_law_measure(0.2, 0.7, 1.69),
    }

    @staticmethod
    def _rows(m, t):
        a, b = m.hull
        lo, hi = stieltjes.evaluation_band(m)
        span = b - a
        lin = np.linspace(lo, hi, 97)
        # node 0 of every level: t - x is exactly 0 there in the first level
        mid_node = quadrature.map_nodes(quadrature.MIN_LEVEL, a, b)[0]
        mid_node = mid_node[len(mid_node) // 2]
        inner = t[(t >= lo) & (t <= hi)]
        sub = inner[len(inner) // 7::max(1, len(inner) // 20)]
        near_end = span * np.array([1.5e-12, 4e-12])
        return {
            "linspace": lin,
            "shuffled": np.random.default_rng(5).permutation(lin),
            "nodes": np.append(inner[::max(1, len(inner) // 40)], mid_node),
            "ends": np.concatenate([[lo], a + near_end, b - near_end, [hi]]),
            # inside the band, and outside it but inside the 2 delta window
            # of candidates
            "near_nodes": np.concatenate([
                sub + f * stieltjes.PV_BAND_FRACTION * np.minimum(sub - a, b - sub)
                for f in (0.4, -0.7, 1.5, -1.9)]),
        }

    @pytest.mark.parametrize("level", range(quadrature.MIN_LEVEL,
                                            quadrature.MAX_LEVEL + 1))
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_matches_dense_masks(self, name, level):
        m = self.MEASURES[name]()
        a, b = m.hull
        t, _, _, w = quadrature.map_nodes(level, a, b)
        if level > quadrature.MIN_LEVEL:
            new = quadrature.refinement(level)[2]
            t, w = t[new], w[new]
        mu_t = np.asarray(m.weight(t), float)
        for kind, x in self._rows(m, t).items():
            delta = stieltjes.PV_BAND_FRACTION * np.minimum(x - a, b - x)
            mu_x = np.asarray(m.weight(x), float)
            got = stieltjes._pv_sums(m, x, mu_x, delta, t, mu_t, w)
            want = _pv_sums_dense(m, x, mu_x, delta, t, mu_t, w)
            assert np.all(np.isfinite(got)), kind
            assert np.array_equal(got, want), kind


class TestPerronInversion:
    def test_semicircle_center(self, semicircle):
        limit = 2 / math.pi
        got = cc.perron_invert(semicircle, 0.0, 1e-4)
        assert got == pytest.approx(limit, abs=1e-3)

    def test_outside_support(self, semicircle):
        assert cc.perron_invert(semicircle, 3.0, 1e-7) == pytest.approx(0.0,
                                                                        abs=1e-5)

    def test_recovers_weight_with_shrinking_eps(self, weight_2x):
        errs = [abs(cc.perron_invert(weight_2x, 0.5, eps) - 1.0)
                for eps in (1e-2, 1e-3, 1e-4)]
        assert errs[2] < errs[0]
        assert errs[2] < 1e-3

    def test_small_eps_scan_matches_closed_form(self, semicircle_plain):
        # (1/pi) Im S(x - i eps) of the normalized semicircle, exactly
        rng = np.random.default_rng(11)
        xs = rng.uniform(-1.1, 1.1, 200)
        epss = 10 ** rng.uniform(-12, 0, 200)
        errs = []
        for x, eps in zip(xs, epss):
            want = _semicircle_s(complex(x, -eps)).imag / math.pi
            got = cc.perron_invert(semicircle_plain, x, eps)
            errs.append(abs(got - want) / abs(want))
        assert max(errs) <= 1e-14

    def test_error_scaling_eps_log_eps(self, semicircle):
        # error < K eps |ln eps| empirically on interior Lipschitz points
        x = 0.3
        w = float(semicircle.weight(np.asarray(x)))
        for eps in (1e-3, 1e-4, 1e-5):
            err = abs(cc.perron_invert(semicircle, x, eps) - w)
            assert err < 10.0 * eps * abs(math.log(eps))


class TestGapZero:
    def test_symmetric_gap(self, gapped_sd):
        m = cc.measure_from_sd(gapped_sd, 0.0)
        z0 = cc.find_gap_zero(m)
        assert z0 == pytest.approx(1.5, abs=1e-10)

    def test_gapless_returns_none(self, semicircle):
        assert cc.find_gap_zero(semicircle) is None

    def test_asymmetric_gap_zero_is_a_zero(self):
        m = cc.measure_from_sd(
            cc.piecewise_uniform_sd([(0, 1, 1.0), (2, 4, 1.0)]), 0.0)
        z0 = cc.find_gap_zero(m)
        assert 1.0 < z0 < 2.0
        assert abs(cc.stieltjes_transform(m, z0).real) < 1e-10

    def test_matches_brentq(self):
        # S decreases strictly in a gap, so brentq on any sign-change
        # bracket finds the same zero.
        from scipy.optimize import brentq
        rng = np.random.default_rng(11)
        for i in range(16):
            lo1 = rng.uniform(0.3, 1.0)
            hi1 = lo1 + rng.uniform(0.3, 2.0)
            lo2 = hi1 + rng.uniform(0.3, 2.0)
            hi2 = lo2 + rng.uniform(0.3, 2.0)
            h, p = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
            sd = cc.custom_sd(lambda w, h=h, p=p: h * np.asarray(w, float) ** p,
                              ((lo1, hi1), (lo2, hi2)))
            m = cc.measure_from_sd(sd, float(i % 2))
            got = cc.find_gap_zero(m)
            (_, b), (c, _) = m.support

            def s_real(x, m=m):
                return cc.stieltjes_transform(m, x).real

            gap = c - b
            frac = 1e-3
            while s_real(b + frac * gap) * s_real(c - frac * gap) > 0:
                frac *= 0.1
            want = brentq(s_real, b + frac * gap, c - frac * gap,
                          xtol=1e-15, rtol=8.9e-16)
            assert abs(got - want) <= 1e-13 * abs(want), (i, got, want)

    def test_zero_next_to_a_light_edge_matches_mpmath(self):
        # A light left piece meets a heavy right one: the zero lies 3.2e-10
        # past the left edge, closer than stieltjes_transform's pole guard.
        mpmath = pytest.importorskip("mpmath")
        c0, p = 1.2398, 1.7058
        support = ((0.09290, 0.32523), (1.12329, 2.63209))
        sd = cc.custom_sd(lambda w: c0 * np.asarray(w, float) ** p, support)
        got = cc.find_gap_zero(cc.measure_from_sd(sd, 0.0))
        b = support[0][1]
        with mpmath.workdps(40):
            def s(x):
                return sum(mpmath.quad(lambda t: t ** mpmath.mpf(p) / (x - t),
                                       [mpmath.mpf(lo), mpmath.mpf(hi)])
                           for lo, hi in support)
            want = mpmath.findroot(s, (mpmath.mpf(b) + mpmath.mpf(10) ** -30,
                                       mpmath.mpf(b) + mpmath.mpf(10) ** -6),
                                   solver="anderson")
            assert 0 < got - b < 1e-9
            assert abs((got - want) / want) < 1e-14

    def test_one_signed_gap_names_the_ulp_condition(self):
        # Semicircle pieces vanish at the gap edges, so S stays finite there;
        # with the right piece 100x heavier S < 0 on the whole gap.
        def weight(w):
            w = np.asarray(w, float)
            left = np.sqrt(np.clip(w * (1.0 - w), 0.0, None))
            right = 100.0 * np.sqrt(np.clip((w - 2.0) * (3.0 - w), 0.0, None))
            return np.where(w < 1.5, left, right)

        sd = cc.custom_sd(weight, ((0.0, 1.0), (2.0, 3.0)))
        with pytest.raises(BracketFailure) as info:
            cc.find_gap_zero(cc.measure_from_sd(sd, 0.0))
        msg = str(info.value)
        assert "gap (1.0, 2.0)" in msg and "within one ulp" in msg
        assert "should not happen" not in msg

    def test_flat_gapped_scan(self, caplog):
        # Flat pieces drawn from seed 3; pairs 155, 255 and 398 have their
        # zero between one ulp and 1e-14 * c from an edge.
        from scipy.optimize import brentq
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        cases = []
        for i in range(400):
            lo1 = rng.uniform(0, 1)
            hi1 = lo1 + rng.uniform(0.3, 2)
            lo2 = hi1 + rng.uniform(0.3, 2)
            hi2 = lo2 + rng.uniform(0.3, 2)
            h1, h2 = 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 2)
            if i < 40 or i in (155, 255, 398):
                cases.append((i, [(lo1, hi1, h1), (lo2, hi2, h2)]))
        raised = 0
        for i, pieces in cases:
            m = cc.measure_from_sd(cc.piecewise_uniform_sd(pieces), float(i % 2))
            (_, b), (c, _) = m.support
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="chaincast"):
                try:
                    got = cc.find_gap_zero(m)
                except BracketFailure:
                    got = None
            assert caplog.records == [], i

            # Closed form of the flat measure (heights h / pi on m.support);
            # S -> +inf at b and -inf at c, so bisection finds the zero.
            def s_exact(x, m=m, pieces=pieces):
                x = mpmath.mpf(x)
                return sum(h * (mpmath.log(abs(x - lo)) - mpmath.log(abs(x - hi)))
                           for (lo, hi), (_, _, h) in zip(m.support, pieces))

            with mpmath.workdps(40):
                if got is None:
                    raised += 1
                    left, right = math.nextafter(b, c), math.nextafter(c, b)
                    assert (s_exact(left) > 0) == (s_exact(right) > 0), i
                    continue
                lo, hi = mpmath.mpf(b) + 1e-40, mpmath.mpf(c) - 1e-40
                for _ in range(160):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if s_exact(mid) > 0 else (lo, mid)
                assert abs((got - lo) / lo) < 2e-15, i
            if i >= 40:
                assert 0 < min(got - b, c - got) < 1e-14 * c, i
                continue

            def s_real(x, m=m):
                return cc.stieltjes_transform(m, x).real

            gap = c - b
            for frac in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
                try:
                    if s_real(b + frac * gap) * s_real(c - frac * gap) < 0:
                        break
                except PoleTooClose:
                    pass
            else:
                continue
            want = brentq(s_real, b + frac * gap, c - frac * gap,
                          xtol=1e-15, rtol=8.9e-16)
            assert abs(got - want) <= 1e-13 * abs(want), (i, got, want)
        assert raised == 13

    def test_secondary_prerequisite_pairing(self, gapped_sd):
        # Gapped: the Stieltjes zero exists AND the secondary construction
        # refuses, as one combined statement.
        m = cc.measure_from_sd(gapped_sd, 0.0)
        assert cc.find_gap_zero(m) is not None
        with pytest.raises(GappedMeasure):
            cc.SecondarySequence.build(m, 2)
