import logging
import math
import tracemalloc

import numpy as np
import pytest

import chaincast as cc
from chaincast import stieltjes
from chaincast.errors import (
    EndpointEvaluation,
    GappedMeasure,
    PoleTooClose,
    UnsupportedMeasure,
)


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
        # The quotient jumps to mu'(x) at the edge of the PV band, which
        # limits the route to about 1e-9 mid-support and 3e-8 at 1e-4 of
        # the span from an end.
        err = np.abs(phi - want)
        assert err[dist > 1e-4].max() < 1e-7
        assert err[dist > 0.1].max() < 1e-9
        # rows next to the endpoints never settle: one warning, no raise
        records = [r for r in caplog.records if r.name == "chaincast.stieltjes"]
        assert len(records) == 1
        assert "required < 1e-13" in records[0].getMessage()

    def test_converged_route_logs_nothing(self, weight_x, caplog):
        with caplog.at_level(logging.WARNING, logger="chaincast.stieltjes"):
            cc.reducer(weight_x, np.linspace(0.1, 0.9, 9), method="lipschitz")
        assert not caplog.records


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

    def test_secondary_prerequisite_pairing(self, gapped_sd):
        # Gapped: the Stieltjes zero exists AND the secondary construction
        # refuses, as one combined statement.
        m = cc.measure_from_sd(gapped_sd, 0.0)
        assert cc.find_gap_zero(m) is not None
        with pytest.raises(GappedMeasure):
            cc.SecondarySequence.build(m, 2)
