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
        # no family attached: the Lipschitz route
        np.testing.assert_allclose(cc.reducer(semicircle_plain, xs), 4 * xs,
                                   atol=1e-9)

    def test_uniform_midpoint_vanishes(self):
        m = cc.Measure(lambda x: np.ones_like(np.asarray(x, float)),
                       ((0.0, 1.0),))
        assert cc.reducer(m, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_weight_x_closed_form(self, weight_x):
        ts = np.array([0.2, 0.5, 0.7])
        want = -2.0 * (1.0 + ts * np.log((1 - ts) / ts))
        np.testing.assert_allclose(cc.reducer(weight_x, ts), want, rtol=1e-12)
        np.testing.assert_allclose(stieltjes._reducer_lipschitz(weight_x, ts),
                                   want, rtol=1e-10)
        assert cc.reducer(weight_x, 0.5) == pytest.approx(-2.0, rel=1e-12)

    def test_methods_agree_on_c1_weights(self, weight_2x):
        # Lipschitz and integrated-by-parts forms agree on C^1 weights.
        xs = np.linspace(0.1, 0.9, 9)
        poly = cc.Measure(lambda x: 1.0 + x * (1 - x),
                          ((0.0, 1.0),))
        for m in (weight_2x, poly):
            np.testing.assert_allclose(stieltjes._reducer_lipschitz(m, xs),
                                       stieltjes._reducer_derivative_form(m, xs),
                                       atol=1e-8)

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
    """``reducer`` takes the family closed form when there is one, else the
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
        np.testing.assert_array_equal(auto, stieltjes._reducer_lipschitz(m, xs))

    def test_familyless_unbounded_rejected(self):
        m = cc.Measure(lambda x: np.exp(-np.asarray(x, float)),
                       ((0.0, math.inf),), tail=cc.TailBound(1.0))
        with pytest.raises(UnsupportedMeasure):
            cc.reducer(m, 1.0)


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
            stieltjes._reducer_lipschitz(weight_x, np.linspace(0.1, 0.9, 9))
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
        m = cc.measure_from_sd(_familyless_flat(lo, hi, 0.8), 1.0)
        assert m.family is None
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
    def pv_calls(self, monkeypatch):
        """(rows, nodes) of every ``_pv_sums`` call."""
        calls = []
        kernel = stieltjes._pv_sums

        def counted(m, x, mu_x, delta, t, *args):
            calls.append((len(x), len(t)))
            return kernel(m, x, mu_x, delta, t, *args)

        monkeypatch.setattr(stieltjes, "_pv_sums", counted)
        return calls

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

    def test_flat_measure_converges_at_the_first_comparison(self, pv_calls):
        m = cc.measure_from_sd(_familyless_flat(0.1, 1.7, 0.8), 0.0)
        cc.reducer(m, np.linspace(*stieltjes.evaluation_band(m), 2048))
        # the distinct positions of level 3, then of the nodes level 4 adds
        t3 = quadrature.map_nodes(3, 0.1, 1.7)[0]
        t4 = quadrature.map_nodes(4, 0.1, 1.7, added=True)[0]
        assert pv_calls == [(2048, len(np.unique(t3))), (2048, len(np.unique(t4)))]

    def test_report_hands_distinct_rows_and_columns(self, monkeypatch):
        # the q = 1 report integrates J_n next to the nonzero end b**2, where
        # tanh-sinh nodes round onto the same double: each position is one row
        rows, cols = [], []
        route, kernel = stieltjes._reducer_lipschitz, stieltjes._pv_sums

        def lipschitz(m, x):
            rows.append(x)
            return route(m, x)

        def pv_sums(m, x, mu_x, delta, t, *args):
            cols.append(t)
            return kernel(m, x, mu_x, delta, t, *args)

        monkeypatch.setattr(stieltjes, "_reducer_lipschitz", lipschitz)
        monkeypatch.setattr(stieltjes, "_pv_sums", pv_sums)
        cc.convergence_report(_familyless_semicircle(0.0, 1.3, 0.7), 1.0, 6)
        assert rows and cols
        for x in rows + cols:
            assert np.all(np.diff(x) > 0.0)

    def test_transform_of_member_hands_distinct_rows(self, monkeypatch):
        # S(z) integrates every tanh-sinh node, coinciding positions
        # included; the reducer evaluates each position once
        seq = cc.SecondarySequence.build(
            cc.measure_from_sd(_familyless_semicircle(0.3, 2.1, 0.7), 0.0), 2)
        rows = []
        route = stieltjes._reducer_lipschitz

        def lipschitz(m, x):
            rows.append(x)
            return route(m, x)

        monkeypatch.setattr(stieltjes, "_reducer_lipschitz", lipschitz)
        cc.stieltjes_transform(seq.member_measure(1), 3.0)
        assert rows
        for x in rows:
            assert len(np.unique(x)) == len(x)

    def test_only_unconverged_rows_refine(self, pv_calls, caplog):
        m = cc.measure_from_sd(_familyless_semicircle(0.3, 2.1, 0.7), 0.0)
        xs = np.linspace(*stieltjes.evaluation_band(m), 4096)
        with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
            cc.reducer(m, xs)
        pv_rows = [rows for rows, _ in pv_calls]
        assert len(pv_rows) == quadrature.MAX_LEVEL - stieltjes.PV_MIN_LEVEL + 1
        assert pv_rows[:2] == [4096, 4096]
        assert pv_rows[2] < 64
        assert pv_rows[2:] == sorted(pv_rows[2:], reverse=True)
        assert 0 < pv_rows[-1] <= 8
        records = [r for r in caplog.records if r.name == "chaincast.stieltjes"]
        assert len(records) == 1
        # the rows still open after the last level are among those it ran
        missed = re.search(r"on (\d+) of 4096 distinct points", records[0].getMessage())
        assert 0 < int(missed.group(1)) <= pv_rows[-1]

    ORACLE = {
        "semicircle_q0": lambda: cc.measure_from_sd(
            _familyless_semicircle(0.3, 2.1, 0.7), 0.0),
        "semicircle_q1": lambda: cc.measure_from_sd(
            _familyless_semicircle(0.0, 1.3, 0.7), 1.0),
        **{f"power_law_{s}": lambda s=s: cc.measure_from_sd(cc.custom_sd(
            lambda w: 0.3 * np.maximum(w, 0.0) ** s, ((0.0, 1.0),),
            ((s, 0.0),)), 0.0) for s in (0.5, 1.0, 2.0)},
        "exp_inverse_power": lambda: cc.measure_from_sd(cc.custom_sd(
            lambda w: np.exp(-np.maximum(w, 1e-300) ** -0.7), ((0.0, 1.0),)), 0.0),
        "tabulated_linear": lambda: cc.measure_from_sd(cc.tabulated_sd(
            np.linspace(0.1, 2.0, 41), 0.2 + 0.5 * np.linspace(0.1, 2.0, 41)), 0.0),
        # compact and narrower than the level-5 node spacing
        "tabulated_bump": lambda: cc.measure_from_sd(cc.tabulated_sd(
            [0.0, 0.3, 0.305, 0.31, 1.0], [1.0, 1.0, 2.0, 1.0, 1.0]), 0.0),
        # no row converges by level 11 under either start
        "lorentzian_1e-3": lambda: cc.measure_from_sd(cc.custom_sd(
            lambda w: 1e-3 / ((w - 0.6) ** 2 + 1e-6), ((0.0, 1.0),)), 0.0),
    }

    # phi = 2 PV int mu(t)/(x - t) dt of the semicircles above (mu = J/pi;
    # at q = 1 split 2w/(x - w^2) into the PV part at sqrt(x) and a regular
    # part at -sqrt(x))
    CLOSED_FORM = {
        "semicircle_q0": lambda x: 1.4 * (x - 1.2),
        "semicircle_q1": lambda x: 1.4 * (np.sqrt(np.sqrt(x) * (1.3 + np.sqrt(x))) - 1.3),
    }

    @pytest.mark.parametrize("name", sorted(ORACLE))
    def test_matches_a_level6_start(self, name, monkeypatch, caplog):
        # reference: the route with every row started at quadrature.MIN_LEVEL.
        # Rows stop at the first comparison they pass, so the two starts
        # may differ by about PV_REL_TOL per row
        m = self.ORACLE[name]()
        a, b = m.hull
        lo, hi = stieltjes.evaluation_band(m)
        t = quadrature.map_nodes(7, a, b)[0]
        xs = np.concatenate([np.linspace(lo, hi, 257), t[(t >= lo) & (t <= hi)][::7]])
        with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
            new = stieltjes._reducer_lipschitz(m, xs)
            new_missed = _unconverged_rows(caplog)
            caplog.clear()
            monkeypatch.setattr(stieltjes, "PV_MIN_LEVEL", quadrature.MIN_LEVEL)
            old = stieltjes._reducer_lipschitz(m, xs)
            old_missed = _unconverged_rows(caplog)
        assert new_missed <= old_missed
        scale = np.abs(old) + np.asarray(m.weight(xs), float)
        apart = np.abs(new - old) > 1e-12 * scale
        if apart.any():
            # rows on tanh-sinh nodes near an endpoint, which the level-6
            # start leaves unconverged and off by up to 2e-8, settle from
            # the coarse start: the closed form decides there
            assert name in self.CLOSED_FORM, xs[apart]
            want = self.CLOSED_FORM[name](xs[apart])
            assert np.all(np.abs(new[apart] - want) <= 1e-12 * scale[apart])

    def test_narrow_bump_keeps_the_fine_start(self, caplog):
        # a 0.01-wide tent on a flat J, between the nodes of levels 3 to 5:
        # rows that start coarse see a flat mu, stop at the first
        # comparison and miss the tent by up to 37%, without a warning
        m = cc.measure_from_sd(cc.tabulated_sd(
            [0.0, 0.3, 0.305, 0.31, 1.0], [1.0, 1.0, 2.0, 1.0, 1.0]), 0.0)
        assert stieltjes._first_level(m) == quadrature.MIN_LEVEL
        xs = np.array([0.05, 0.2, 0.29, 0.32, 0.6, 0.9])
        with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
            got = cc.reducer(m, xs)
        # 2 PV int mu(t)/(x - t) dt, mu = (c0 + c1 t)/pi on each piece [p, q]
        pieces = [(0.0, 0.3, 1.0, 0.0), (0.3, 0.305, -59.0, 200.0),
                  (0.305, 0.31, 63.0, -200.0), (0.31, 1.0, 1.0, 0.0)]
        want = 2.0 / math.pi * sum(
            (c0 + c1 * xs) * np.log(np.abs((xs - p) / (xs - q))) - c1 * (q - p)
            for p, q, c0, c1 in pieces)
        # the kinks leave every row short of PV_REL_TOL at level 11 (a
        # single tanh-sinh panel), which the route reports
        assert np.all(np.abs(got - want) <= 1e-4 * (np.abs(want) + 1.0 / math.pi))
        assert _unconverged_rows(caplog) == len(xs)


def _reducer_level_loop(m, x):
    """``stieltjes._reducer_lipschitz`` as its own level loop, before it ran
    through ``quadrature._refine``: an index array of active rows, and the
    warning from the for-else branch."""
    a, b = m.hull
    delta = stieltjes.PV_BAND_FRACTION * np.minimum(x - a, b - x)
    mu_x = np.asarray(m.weight(x), float)

    out = np.empty(len(x))
    active = np.arange(len(x))
    cur = None
    for level in range(stieltjes._first_level(m), quadrature.MAX_LEVEL + 1):
        t, w = quadrature.map_nodes(level, a, b, added=cur is not None)
        part = stieltjes._pv_sums(m, x[active], mu_x[active], delta[active], t,
                                  np.asarray(m.weight(t), float), w)
        if cur is None:
            cur = part
            continue
        prev = cur
        cur = 0.5 * prev + part
        change = np.abs(cur - prev) / (np.abs(cur) + np.abs(mu_x[active]) + 1e-300)
        done = change < stieltjes.PV_REL_TOL
        out[active[done]] = cur[done]
        active, cur, change = active[~done], cur[~done], change[~done]
        if not len(active):
            break
    else:
        out[active] = cur
        stieltjes._log.warning(
            "Lipschitz reducer not converged at level %d on %d of %d "
            "distinct points: max relative change %.3g, required < %.3g",
            quadrature.MAX_LEVEL, len(active), len(x), change.max(),
            stieltjes.PV_REL_TOL)
    return 2.0 * mu_x * np.log((x - a) / (b - x)) - 2.0 * out


class TestReducerRefinementLoop:
    """The Lipschitz reducer through ``quadrature._refine`` gives the
    numbers and the warning of its former level loop, bit for bit."""

    MEASURES = {
        "semicircle_0.3_2.1": lambda: cc.measure_from_sd(
            _familyless_semicircle(0.3, 2.1, 0.7), 0.0),
        "semicircle_0_1.3": lambda: cc.measure_from_sd(
            _familyless_semicircle(0.0, 1.3, 0.7), 0.0),
        "semicircle_0_1.3_q1": lambda: cc.measure_from_sd(
            _familyless_semicircle(0.0, 1.3, 0.7), 1.0),
        # kinked at every sample: no row converges by the last level
        "tabulated_sqrt": lambda: cc.measure_from_sd(cc.tabulated_sd(
            np.linspace(0.0, 1.0, 201), np.sqrt(np.linspace(0.0, 1.0, 201))), 0.0),
    }

    @staticmethod
    def _rows(m, kind):
        lo, hi = stieltjes.evaluation_band(m)
        if kind == "grid":
            return np.linspace(lo, hi, 257)
        t = quadrature.map_nodes(7, *m.hull)[0]
        return t[(t >= lo) & (t <= hi)]

    @staticmethod
    def _run(route, m, xs, caplog):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
            phi = route(m, xs)
        return phi, [r.getMessage() for r in caplog.records
                     if r.name == "chaincast.stieltjes"]

    @pytest.mark.parametrize("kind", ["grid", "nodes"])
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_bit_identical_to_the_level_loop(self, name, kind, caplog):
        m = self.MEASURES[name]()
        xs = self._rows(m, kind)
        got, got_log = self._run(stieltjes._reducer_lipschitz, m, xs, caplog)
        want, want_log = self._run(_reducer_level_loop, m, xs, caplog)
        np.testing.assert_array_equal(got, want)
        assert got_log == want_log
        if name == "tabulated_sqrt":
            assert got_log == [got_log[0]]
            assert f"on {len(xs)} of {len(xs)} distinct points" in got_log[0]


def _unconverged_rows(caplog) -> int:
    """Rows the Lipschitz reducer's warning reports as unconverged."""
    found = [re.search(r"on (\d+) of \d+ distinct points", r.getMessage())
             for r in caplog.records if r.name == "chaincast.stieltjes"]
    return sum(int(f.group(1)) for f in found if f)


def _familyless_semicircle(a, b, c):
    return cc.custom_sd(lambda w: c * np.sqrt(np.maximum((w - a) * (b - w), 0.0)),
                        ((a, b),), ((0.5, 0.5),))


def _familyless_flat(lo, hi, h):
    """A one-piece ``piecewise_uniform_sd`` without its UniformWeight
    families: the same evaluator, so the reducer takes the Lipschitz route."""
    return cc.custom_sd(lambda w: np.where((w >= lo) & (w <= hi), h, 0.0),
                        ((lo, hi),))


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
    """``_pv_sums`` looks for at most one band cell per row, by binary
    search, and must give, bit for bit, what dense masks give whenever at
    most one column lies within 2 delta of each row, as on the node sets
    the reducer passes it."""

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
        mid_node = quadrature._every_node(stieltjes.PV_MIN_LEVEL, a, b)[0]
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

    @pytest.mark.parametrize("level", range(stieltjes.PV_MIN_LEVEL,
                                            quadrature.MAX_LEVEL + 1))
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_matches_dense_masks(self, name, level):
        m = self.MEASURES[name]()
        a, b = m.hull
        t, _, _, w = quadrature._every_node(level, a, b,
                                            added=level > stieltjes.PV_MIN_LEVEL)
        mu_t = np.asarray(m.weight(t), float)
        for kind, x in self._rows(m, t).items():
            delta = stieltjes.PV_BAND_FRACTION * np.minimum(x - a, b - x)
            mu_x = np.asarray(m.weight(x), float)
            got = stieltjes._pv_sums(m, x, mu_x, delta, t, mu_t, w)
            want = _pv_sums_dense(m, x, mu_x, delta, t, mu_t, w)
            assert np.all(np.isfinite(got)), kind
            assert np.array_equal(got, want), kind

    @classmethod
    def _layout_cases(cls, m):
        """(rows, columns, weights) that reach every block layout of
        ``_pv_sums``: many rows against narrow levels (several blocks,
        filled column by column, with a short tail), column counts on both
        sides of the width at which full blocks stop being filled column by
        column and of the width below which numpy buffers a broadcast
        (a third of the default ufunc buffer), and one row against the
        widest level."""
        a, b = m.hull
        lo, hi = stieltjes.evaluation_band(m)

        def rows(t, n):
            # the band and near-band rows of ``_rows``, spread over the
            # blocks by sorting them among evenly spaced ones
            special = np.concatenate(list(cls._rows(m, t).values()))
            return np.sort(np.append(special, np.linspace(lo, hi, n - len(special))))

        def spread(t, w, cols):
            # cols of the columns, spread over the support
            pick = np.linspace(0, len(t) - 1, cols).astype(int)
            return t[pick], w[pick]

        level3 = quadrature.map_nodes(3, a, b)
        level4 = quadrature.map_nodes(4, a, b, added=True)
        level11 = quadrature.map_nodes(11, a, b, added=True)
        per_block = stieltjes.PV_BLOCK_CELLS // len(level3[0])
        cases = {
            "level3": (rows(level3[0], 4096), *level3),
            "level4_added": (rows(level4[0], 4096), *level4),
            "level3_short_tail": (rows(level3[0], per_block + 100), *level3),
            "level11_added_one_row": (level11[0][len(level11[0]) // 3:][:1],
                                      *level11),
        }
        # full blocks of 128 columns have 4 times as many rows as columns
        for cols in (128, 129):
            t, w = spread(*level11, cols)
            cases[f"{cols}_columns"] = (rows(t, 4096), t, w)
        buffered = np.getbufsize() // 3
        for cols in (buffered, buffered + 1):
            t, w = spread(*level11, cols)
            cases[f"{cols}_columns"] = (rows(t, 400), t, w)
        return cases

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_block_layouts_match_dense_masks(self, name):
        m = self.MEASURES[name]()
        a, b = m.hull
        for kind, (x, t, w) in self._layout_cases(m).items():
            delta = stieltjes.PV_BAND_FRACTION * np.minimum(x - a, b - x)
            mu_x = np.asarray(m.weight(x), float)
            mu_t = np.asarray(m.weight(t), float)
            got = stieltjes._pv_sums(m, x, mu_x, delta, t, mu_t, w)
            want = _pv_sums_dense(m, x, mu_x, delta, t, mu_t, w)
            assert np.all(np.isfinite(got)), kind
            assert np.array_equal(got, want), kind
            work = np.empty((2, stieltjes.PV_BLOCK_CELLS))
            assert np.array_equal(
                stieltjes._pv_sums(m, x, mu_x, delta, t, mu_t, w, work), want), kind

    @pytest.mark.parametrize("level", range(stieltjes.PV_MIN_LEVEL,
                                            quadrature.MAX_LEVEL + 1))
    def test_one_node_fits_the_candidate_window(self, level):
        # Neighbouring nodes of every level the reducer reads lie further
        # apart, relative to their distance from the nearer end, than the
        # 4 delta wide window x -+ 2 delta in which ``_pv_sums`` looks for
        # its one band cell: at level 11 by a factor of 190.
        k, dl, dr, _ = quadrature._rule(level)
        near = np.minimum(dl, dr)
        gap = np.where(k[1:] <= 0, dl[1:] - dl[:-1], dr[:-1] - dr[1:])
        spacing = np.min(gap / np.maximum(near[1:], near[:-1]))
        assert spacing > 100 * 4 * stieltjes.PV_BAND_FRACTION


class TestKernelMemory:
    """One reducer call shares one workspace among all its ``_pv_sums``
    calls, so the kernel's blocks allocate nothing."""

    @staticmethod
    def _inputs():
        m = cc.measure_from_sd(_familyless_semicircle(0.3, 2.1, 0.7), 0.0)
        a, b = m.hull
        x = np.linspace(*stieltjes.evaluation_band(m), 4096)
        t, w = quadrature.map_nodes(4, a, b, added=True)
        delta = stieltjes.PV_BAND_FRACTION * np.minimum(x - a, b - x)
        return (m, x, np.asarray(m.weight(x), float), delta, t,
                np.asarray(m.weight(t), float), w)

    def test_workspace_keeps_the_peak_below_one_block(self):
        args = self._inputs()
        work = np.empty((2, stieltjes.PV_BLOCK_CELLS))
        tracemalloc.start()
        try:
            got = stieltjes._pv_sums(*args, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of PV_BLOCK_CELLS doubles is 512 KiB; two such
        # temporaries per block took the peak to about 1250 KiB
        assert peak < stieltjes.PV_BLOCK_CELLS * 8
        assert np.array_equal(got, stieltjes._pv_sums(*args))


class TestColumnCache:
    """A measure evaluates its weight once per tanh-sinh column set and
    keeps the values; the reducer's results do not depend on whether they
    were kept."""

    A, B = 0.3, 2.1

    @classmethod
    def _semicircle(cls, calls=None):
        def weight(x):
            if calls is not None:
                calls.append(x)
            return 0.7 * np.sqrt(np.maximum((x - cls.A) * (cls.B - x), 0.0))
        return weight

    def _rows(self, m):
        return np.linspace(*stieltjes.evaluation_band(m), 300)

    def test_cached_columns_give_the_same_reducer(self, caplog):
        weight = self._semicircle()
        m = cc.Measure(weight, ((self.A, self.B),))
        xs = self._rows(m)
        with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
            first = cc.reducer(m, xs)
            assert m._column_weights
            again = cc.reducer(m, xs)
            fresh = cc.reducer(cc.Measure(weight, ((self.A, self.B),)), xs)
        assert np.array_equal(first, again)
        assert np.array_equal(first, fresh)

    def test_weight_is_evaluated_once_per_column_set(self, caplog):
        for _ in range(2):  # a fresh measure evaluates its columns anew
            calls = []
            m = cc.Measure(self._semicircle(calls), ((self.A, self.B),))
            xs = self._rows(m)
            with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
                cc.reducer(m, xs)
                cc.reducer(m, xs)
            columns = {key: quadrature.map_nodes(key[0], self.A, self.B,
                                                 added=key[1])[0]
                       for key in m._column_weights}
            first = stieltjes._first_level(m)
            assert (first, False) in columns
            assert (quadrature.MAX_LEVEL, True) in columns
            per_set = {key: sum(x is t for x in calls)
                       for key, t in columns.items()}
            assert per_set == dict.fromkeys(columns, 1)
            # once per reducer call for the rows; the other calls are the
            # band cells' centered differences
            rows = [x for x in calls
                    if x.shape == xs.shape and np.array_equal(x, xs)]
            assert len(rows) == 2

    def test_cached_columns_are_read_only(self):
        m = cc.Measure(self._semicircle(), ((self.A, self.B),))
        t, w, mu_t = m._columns(5, True)
        assert mu_t is m._columns(5, True)[2]
        assert np.array_equal(mu_t, m.weight(t))
        for arr in (t, w, mu_t):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_first_level_follows_the_minimum_level(self, monkeypatch):
        # the columns are cached, not the first level they give
        weight = self._semicircle()
        cached = cc.Measure(weight, ((self.A, self.B),))
        stieltjes._first_level(cached)
        firsts = set()
        for low in range(stieltjes.PV_MIN_LEVEL, quadrature.MIN_LEVEL + 1):
            monkeypatch.setattr(stieltjes, "PV_MIN_LEVEL", low)
            got = stieltjes._first_level(cached)
            assert got == stieltjes._first_level(
                cc.Measure(weight, ((self.A, self.B),)))
            firsts.add(got)
        assert len(firsts) > 1


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

    @pytest.mark.parametrize("height", [1.0, 3.0, 100.0])
    def test_weight_vanishing_at_the_gap_edges(self, height, caplog):
        # Semicircle pieces on (0, 1) and (2, 3) keep S finite at the gap
        # edges: equal pieces put the zero at the midpoint, a 3x right piece
        # moves it left, and a 100x one leaves S < 0 on the whole gap.
        from scipy.optimize import brentq

        def weight(w):
            w = np.asarray(w, float)
            left = np.sqrt(np.clip(w * (1.0 - w), 0.0, None))
            right = height * np.sqrt(np.clip((w - 2.0) * (3.0 - w), 0.0, None))
            return np.where(w < 1.5, left, right)

        m = cc.measure_from_sd(cc.custom_sd(weight, ((0.0, 1.0), (2.0, 3.0))), 0.0)
        with caplog.at_level(logging.WARNING, logger="chaincast"):
            try:
                got = cc.find_gap_zero(m)
            except BracketFailure:
                got = None
        assert len(caplog.records) <= 1
        if height == 100.0:
            assert got is None
        elif height == 1.0:
            assert got == 1.5
        else:
            want = brentq(lambda x: cc.stieltjes_transform(m, x).real,
                          1.001, 1.999, xtol=1e-15, rtol=8.9e-16)
            assert abs(got - want) <= 1e-13 * abs(want), (got, want)

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
