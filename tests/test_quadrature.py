import logging
import math

import numpy as np
import pytest

import chaincast as cc
from chaincast import quadrature


class TestNestedLevels:
    @pytest.mark.parametrize("level", range(quadrature.MIN_LEVEL + 1,
                                            quadrature.MAX_LEVEL + 1))
    def test_level_keeps_previous_nodes(self, level):
        old, carried, new = quadrature.refinement(level)
        dl, dr, w = quadrature.nodes(level)
        pdl, pdr, pw = quadrature.nodes(level - 1)
        assert np.array_equal(dl[old], pdl[carried])
        assert np.array_equal(dr[old], pdr[carried])
        assert np.array_equal(w[old], 0.5 * pw[carried])
        assert np.array_equal(new, ~old)
        assert new.sum() >= len(w) // 2
        # only a few outermost nodes of the previous level fall below the
        # weight cut-off
        assert len(pw) - carried.sum() <= 4

    def test_integrand_sees_only_new_nodes(self):
        seen = []

        def f(x):
            seen.append(len(x))
            return np.exp(-x * x) * np.sin(40 * x) ** 2

        _, ok = quadrature.integrate(f, -1.0, 2.0)
        assert ok
        levels = range(quadrature.MIN_LEVEL, quadrature.MIN_LEVEL + len(seen))
        expect = [len(quadrature.nodes(quadrature.MIN_LEVEL)[2])] + [
            quadrature.refinement(lv)[2].sum() for lv in levels[1:]]
        assert seen == expect


class TestMappedNodes:
    # The Lipschitz reducer finds its band cells by binary search on the
    # mapped positions, so they must come out sorted.
    @pytest.mark.parametrize("level", range(quadrature.MIN_LEVEL,
                                            quadrature.MAX_LEVEL + 1))
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.04, 1.96), (-2.0, 3.0)])
    def test_positions_non_decreasing(self, level, a, b):
        x = quadrature.map_nodes(level, a, b)[0]
        assert np.all(np.diff(x) >= 0.0)
        assert a <= x[0] and x[-1] <= b


class TestClosedForms:
    @pytest.mark.parametrize("s", [-0.9, -0.5, 0.5, 2.0])
    def test_algebraic_endpoint_singularity(self, s):
        got, ok = quadrature.integrate(lambda x: x**s, 0.0, 1.0)
        assert ok
        assert got == pytest.approx(1.0 / (s + 1.0), rel=1e-12)

    def test_endpoint_singularity_through_distances(self):
        # (1 - x)^-0.75 on [0, 1] through the exact offset to the right end
        got, ok = quadrature.integrate(lambda x, da, db: db**-0.75, 0.0, 1.0,
                                       with_distances=True)
        assert ok
        assert got == pytest.approx(4.0, rel=1e-12)

    def test_log_singularities(self):
        got, ok = quadrature.integrate(np.log, 0.0, 1.0)
        assert ok
        assert got == pytest.approx(-1.0, rel=1e-12)
        got, ok = quadrature.integrate(lambda x, da, db: np.log(da) * np.log(db),
                                       0.0, 1.0, with_distances=True)
        assert ok
        assert got == pytest.approx(2.0 - math.pi**2 / 6.0, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_odd_moments_of_symmetric_weight_hit_l1_floor(self, k):
        # exact zero: only the L1 floor lets the refinement stop
        got, ok = quadrature.integrate(lambda x: x**k * np.sqrt(1.0 - x * x),
                                       -1.0, 1.0)
        assert ok
        assert abs(got) < 1e-15

    def test_not_converged_flag(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_LEVEL", 8)
        got, ok = quadrature.integrate(lambda x: np.cos(2000.0 * x), 0.0, 1.0)
        assert not ok
        assert np.isfinite(got)

    def test_empty_interval(self):
        assert quadrature.integrate(np.cos, 1.0, 1.0) == (0.0, True)


class TestVectorIntegrand:
    # Components that converge at different levels: the smooth one early,
    # the endpoint-singular and oscillating ones late.
    FUNCS = (
        np.cos,
        lambda x: x**-0.9,
        lambda x: np.log(x) * x**3,
        lambda x: np.sin(60.0 * x) ** 2,
        lambda x: (x - 0.5) ** 3,
    )

    def test_matches_stacked_scalar_calls(self):
        def vec(x):
            return np.array([f(x) for f in self.FUNCS])

        got, ok = quadrature.integrate(vec, 0.0, 1.0, rel_tol=1e-11)
        assert got.shape == (len(self.FUNCS),)
        want = [quadrature.integrate(f, 0.0, 1.0, rel_tol=1e-11) for f in self.FUNCS]
        assert np.array_equal(got, [v for v, _ in want])
        assert ok == all(c for _, c in want)

    def test_leading_shape_and_flag(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_LEVEL", 8)

        def vec(x):
            return np.array([[f(x) for f in self.FUNCS[:2]],
                             [np.cos(3000.0 * x), np.ones_like(x)]])

        got, ok = quadrature.integrate(vec, 0.0, 1.0)
        assert got.shape == (2, 2)
        assert not ok
        assert got[1, 1] == pytest.approx(1.0, rel=1e-14)
        want, _ = quadrature.integrate(self.FUNCS[0], 0.0, 1.0)
        assert got[0, 0] == want

    def test_complex_components(self):
        m = cc.semicircle_measure()
        zs = np.array([2.0, 0.3 + 0.1j])
        got, ok = quadrature.integrate(
            lambda t: m.weight(t) / (zs[:, None] - t), -1.0, 1.0)
        assert ok
        for z, g in zip(zs, got):
            # S(z) of the normalized semicircle
            want = 2.0 * (z - np.sqrt(z - 1.0) * np.sqrt(z + 1.0))
            assert abs(g - want) <= 1e-14 * abs(want)
            assert abs(cc.stieltjes_transform(m, z) - want) <= 1e-14 * abs(want)


# Callers of `integrate` that report its converged flag: each logs one
# warning per unconverged integral on its module's logger, and returns the
# same numbers either way.  S(0.3 + 0.5j) is split at Re z = 0.3 into two
# integrals.
_FLAG_CALLERS = {
    "stieltjes_transform": (
        "chaincast.stieltjes", 2,
        lambda: cc.stieltjes_transform(cc.semicircle_measure(), 0.3 + 0.5j)),
    "szego_check": (
        "chaincast.convergence", 5,
        lambda: cc.szego_check(cc.power_law_sd(1.0, 0.1, 1.0), 0.0).integral),
    "convergence_report": (
        "chaincast.convergence", 1,
        lambda: cc.convergence_report(cc.power_law_sd(1.0, 0.1, 1.0), 0.0, 6,
                                      residual_orders=2, moment_order=2,
                                      ).terminal_moment_gap),
    "perron_invert": (
        "chaincast.stieltjes", 2,
        lambda: cc.perron_invert(cc.semicircle_measure(), 0.3, 1e-3)),
    "find_gap_zero": (
        "chaincast.stieltjes", 2,
        lambda: cc.find_gap_zero(cc.measure_from_sd(
            cc.piecewise_uniform_sd([(0, 1, 1.0), (2, 3, 1.0)]), 0.0))),
    "reducer": (
        "chaincast.stieltjes", 2,
        lambda: cc.reducer(cc.power_law_measure(2.0, 1.0), 0.3,
                           method="derivative")),
}


class TestConvergenceFlagsLogged:
    @staticmethod
    def _warnings(caplog, logger, name):
        return [r.getMessage() for r in caplog.records
                if r.name == logger and r.levelno == logging.WARNING
                and r.getMessage().startswith(name + ":")]

    @pytest.mark.parametrize("name", sorted(_FLAG_CALLERS))
    def test_unconverged_integral_warns(self, monkeypatch, caplog, name):
        logger, count, call = _FLAG_CALLERS[name]
        expected = call()
        real = quadrature.integrate
        monkeypatch.setattr(quadrature, "integrate",
                            lambda *a, **k: (real(*a, **k)[0], False))
        with caplog.at_level(logging.WARNING, logger="chaincast"):
            got = call()
        messages = self._warnings(caplog, logger, name)
        assert len(messages) == count
        assert all("not converged on [" in m and "rel_tol" in m for m in messages)
        np.testing.assert_equal(got, expected)

    @pytest.mark.parametrize("name", sorted(_FLAG_CALLERS))
    def test_converged_call_logs_nothing(self, caplog, name):
        logger, _, call = _FLAG_CALLERS[name]
        with caplog.at_level(logging.WARNING, logger="chaincast"):
            call()
        assert self._warnings(caplog, logger, name) == []
