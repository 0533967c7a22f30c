import logging
import math

import numpy as np
import pytest

import chaincast as cc
from chaincast import quadrature, stieltjes

from oracles import semicircle_measure


class TestNestedLevels:
    @pytest.mark.parametrize("level", range(stieltjes.PV_MIN_LEVEL + 1,
                                            quadrature.MAX_LEVEL + 1))
    def test_level_keeps_previous_nodes(self, level):
        # the premise of the halving rule: the even-k nodes of a level are
        # the previous level's, at half the weights, and the odd k are what
        # _every_node(added=True) gives
        k, dl, dr, w = quadrature._rule(level)
        pk, pdl, pdr, pw = quadrature._rule(level - 1)
        assert np.all(np.diff(k) == 1) and np.all(np.diff(pk) == 1)
        even = k % 2 == 0
        kept = np.isin(pk, k[even] // 2)
        assert np.array_equal(k[even] // 2, pk[kept])
        assert np.array_equal(dl[even], pdl[kept])
        assert np.array_equal(dr[even], pdr[kept])
        assert np.array_equal(w[even], 0.5 * pw[kept])
        _, da, db, wa = quadrature._every_node(level, -1.0, 1.0, added=True)
        assert np.array_equal(da, dl[~even])
        assert np.array_equal(db, dr[~even])
        assert np.array_equal(wa, w[~even])
        # the weight cut-off drops at most 4 outermost previous nodes, and
        # only below the last level's
        dropped = len(pk) - kept.sum()
        assert np.all(np.diff(np.flatnonzero(kept)) == 1)
        assert dropped <= 4
        assert dropped == 0 or level == quadrature.MAX_LEVEL

    FUNCS = {
        "real": lambda x: np.exp(-x * x) * np.sin(40 * x) ** 2 + x**-0.5,
        "complex": lambda x: np.exp(5j * x) / (1.2 + 0.1j - x),
    }

    @pytest.mark.parametrize("level", range(quadrature.MIN_LEVEL + 1,
                                            quadrature.MAX_LEVEL + 1))
    @pytest.mark.parametrize("name", sorted(FUNCS))
    def test_half_previous_plus_added_is_the_level_sum(self, level, name):
        f = self.FUNCS[name]
        a, b = 0.3, 1.6

        def total(**kw):
            x, _, _, w = quadrature._every_node(**kw, a=a, b=b)
            return np.sum(f(x) * w), np.sum(np.abs(f(x)) * w)

        full, l1 = total(level=level)
        halved = 0.5 * total(level=level - 1)[0] + total(level=level, added=True)[0]
        assert abs(halved - full) <= 4 * np.spacing(l1)

    def test_integrand_sees_only_new_nodes(self):
        # once per distinct position: next to the nonzero ends nodes round
        # onto the same double
        seen = []

        def f(x):
            seen.append(len(x))
            return np.exp(-x * x) * np.sin(40 * x) ** 2

        _, ok = quadrature.integrate(f, -1.0, 2.0)
        assert ok
        levels = range(quadrature.MIN_LEVEL, quadrature.MIN_LEVEL + len(seen))
        expect = [len(np.unique(quadrature._every_node(lv, -1.0, 2.0,
                                                       added=lv > levels[0])[0]))
                  for lv in levels]
        assert seen == expect
        assert expect[0] < len(quadrature._every_node(levels[0], -1.0, 2.0)[0])


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


class TestMergedNodes:
    INTERVALS = [(0.3, 1.6), (0.0, 1.0)]

    @staticmethod
    def _subsets(level, a, b):
        """Each level's full node set and the subset it adds: every node
        ``(x, w)`` and the merged ``(positions, weights)``."""
        subsets = []
        for added in (False, True):
            x, _, _, w = quadrature._every_node(level, a, b, added)
            subsets.append(((x, w), quadrature.map_nodes(level, a, b, added)))
        return subsets

    @pytest.mark.parametrize("level", range(3, quadrature.MAX_LEVEL + 1))
    @pytest.mark.parametrize("a, b", INTERVALS)
    def test_positions_strictly_increasing_weights_kept(self, level, a, b):
        for (x, w), (pos, summed) in self._subsets(level, a, b):
            assert np.all(np.diff(pos) > 0.0)
            assert np.array_equal(pos, np.unique(x))
            assert abs(summed.sum() - w.sum()) <= 4 * np.spacing(w.sum())

    @pytest.mark.parametrize("level", range(3, quadrature.MAX_LEVEL + 1))
    def test_nothing_merges_at_a_zero_endpoint(self, level):
        for (x, _), (pos, _) in self._subsets(level, 0.0, 1.0):
            assert np.sum(pos < 0.5) == np.sum(x < 0.5)
        # the nonzero end of the same interval does merge
        (x, _), (pos, _) = self._subsets(level, 0.0, 1.0)[0]
        assert len(pos) < len(x)

    @pytest.mark.parametrize("added", [False, True])
    @pytest.mark.parametrize("level", range(3, quadrature.MAX_LEVEL + 1))
    @pytest.mark.parametrize("a, b", [(0.0, 1.3), (0.3, 2.1), (1e-3, 7.7),
                                      (0.25, 0.2500001)])
    def test_map_is_every_node_merged(self, a, b, level, added):
        # the map is built half by half; it must be what merging every
        # node of ``_every_node`` gives, bit for bit
        x, _, _, w = quadrature._every_node(level, a, b, added)
        first = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
        pos, summed = quadrature._merged(level, a, b, added)
        assert np.array_equal(pos, x[first])
        assert np.array_equal(summed, np.add.reduceat(w, first))

    def test_maps_are_built_once_and_read_only(self):
        first = quadrature.map_nodes(7, 0.3, 1.6, added=True)
        again = quadrature.map_nodes(7, 0.3, 1.6, added=True)
        assert all(x is y for x, y in zip(first, again))
        for built, fresh in zip(first, quadrature._merged(7, 0.3, 1.6, True)):
            assert np.array_equal(built, fresh)
            with pytest.raises(ValueError):
                built[0] = 0.0

    def test_cache_stays_bounded(self):
        for k in range(2 * quadrature._MAP_CACHE_SIZE):
            quadrature.map_nodes(3, 0.0, 1.0 + k)
        assert len(quadrature._maps) == quadrature._MAP_CACHE_SIZE
        # least recently used out: the last keys asked for are still held
        assert (3, 0.0, 2.0 * quadrature._MAP_CACHE_SIZE, False) in quadrature._maps

    # elementwise integrands: one value per position, whichever node asks
    FUNCS = {
        "scalar": lambda x: np.exp(-x * x) * np.sin(40 * x) ** 2 + x**-0.5,
        "vector": lambda x: np.array([np.cos(x), np.log(x) * x**3,
                                      (x - 0.5) ** 3 / np.sqrt(x)]),
    }

    @pytest.mark.parametrize("name", sorted(FUNCS))
    @pytest.mark.parametrize("a, b", INTERVALS)
    def test_integrate_matches_every_node_bit_for_bit(self, name, a, b):
        # summing merged weights reorders the additions, so the two agree to
        # roundoff of the L1 sum, not bit for bit
        f = self.FUNCS[name]
        got = quadrature.integrate(f, a, b, rel_tol=1e-14)
        # with distances f is called on every node, coinciding ones included
        want = quadrature.integrate(lambda x, da, db: f(x), a, b, rel_tol=1e-14,
                                    with_distances=True)
        l1, _ = quadrature.integrate(lambda x: np.abs(f(x)), a, b, rel_tol=1e-14)
        assert np.all(np.abs(got[0] - want[0]) <= 4 * np.spacing(l1))
        assert got[1] == want[1]


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


class TestTailCutoff:
    def test_scales_with_the_tail(self):
        # J = c w exp(-w/omega_c) peaks at omega_c; the cutoff must follow
        # omega_c however large, with J there below 1e-16 of the peak.
        ratios = []
        for omega_c in (1.0, 1e12, 1e15):
            sd = cc.power_law_exp_sd(1.0, 0.1, omega_c)
            t = sd.tail.cutoff(0)
            ratios.append(t / omega_c)
            assert sd(t) <= 1e-16 * sd(omega_c)
        assert max(ratios) <= 2.0 * min(ratios)

    def test_overflow_raises(self):
        with pytest.raises(cc.DivergentMoment):
            quadrature.tail_cutoff(1e-320, 0.0, 1.0)


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
        m = semicircle_measure()
        zs = np.array([2.0, 0.3 + 0.1j])
        got, ok = quadrature.integrate(
            lambda t: m.weight(t) / (zs[:, None] - t), -1.0, 1.0)
        assert ok
        for z, g in zip(zs, got):
            # S(z) of the normalized semicircle
            want = 2.0 * (z - np.sqrt(z - 1.0) * np.sqrt(z + 1.0))
            assert abs(g - want) <= 1e-14 * abs(want)
            assert abs(cc.stieltjes_transform(m, z) - want) <= 1e-14 * abs(want)


def _integrate_level_loop(f, a, b, rel_tol=1e-13, with_distances=False):
    """``quadrature.integrate`` as its own level loop, before it ran
    through ``quadrature._refine``: every component is summed at every
    level, and a mask keeps the converged ones."""
    if not b > a:
        return 0.0, True

    def sums(level, added):
        if with_distances:
            x, da, db, w = quadrature._every_node(level, a, b, added)
            vals = np.asarray(f(x, da, db))
        else:
            x, w = quadrature.map_nodes(level, a, b, added)
            vals = np.asarray(f(x))
        return np.sum(vals * w, axis=-1), np.sum(np.abs(vals) * w, axis=-1)

    cur, l1 = sums(quadrature.MIN_LEVEL, False)
    value = cur
    done = np.zeros(np.shape(cur), bool)
    for level in range(quadrature.MIN_LEVEL + 1, quadrature.MAX_LEVEL + 1):
        prev = cur
        part, part_l1 = sums(level, True)
        cur = 0.5 * prev + part
        l1 = 0.5 * l1 + part_l1
        ok = ~done & (np.abs(cur - prev) <= rel_tol * np.abs(cur) + 1e-15 * l1 + 1e-300)
        value = np.where(ok, cur, value)
        done |= ok
        if done.all():
            return value[()], True
    return np.where(done, value, cur)[()], False


# Stieltjes arguments: off the support, near it and almost on it.
_Z = np.array([[2.0, 0.3 + 0.1j], [-1.0 - 1e-3j, 0.999 + 1e-9j]])


class TestOneRefinementLoop:
    """``integrate`` through ``quadrature._refine`` gives the numbers and
    the flag of its former level loop, bit for bit."""

    CASES = {
        "scalar": (lambda x: x**-0.9 + np.cos(x), 0.0, 1.0, {}),
        "scalar_oscillating": (lambda x: np.sin(60.0 * x) ** 2, 0.3, 1.6, {}),
        "leading_shape": (lambda x: np.array([
            [np.cos(x), x**-0.9, np.log(x) * x**3],
            [np.sin(60.0 * x) ** 2, (x - 0.5) ** 3, np.cos(3000.0 * x)]]),
            0.0, 1.0, {"rel_tol": 1e-11}),
        "complex": (lambda t: np.sqrt(1.0 - t * t) / (_Z[..., None] - t), -1.0, 1.0, {}),
        "with_distances": (lambda x, da, db: da**-0.5 * np.log(db) + x,
                           0.3, 1.6, {"with_distances": True}),
    }

    @pytest.mark.parametrize("max_level", [8, quadrature.MAX_LEVEL])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bit_identical_to_the_level_loop(self, name, max_level, monkeypatch):
        # at level 8 some components stop unconverged
        monkeypatch.setattr(quadrature, "MAX_LEVEL", max_level)
        f, a, b, kw = self.CASES[name]
        got, ok = quadrature.integrate(f, a, b, **kw)
        want, want_ok = _integrate_level_loop(f, a, b, **kw)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)
        assert ok == want_ok

    def test_some_cases_stop_unconverged(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_LEVEL", 8)
        flags = [quadrature.integrate(f, a, b, **kw)[1]
                 for f, a, b, kw in self.CASES.values()]
        assert not all(flags) and any(flags)


def _familyless(sd):
    """The same evaluator and support without the weight families."""
    return cc.custom_sd(sd.evaluator, sd.support)


# Callers of `integrate` that report its converged flag: each logs one
# warning per unconverged integral on its module's logger, and returns the
# same numbers either way.  S(0.3 + 0.5j) is split at Re z = 0.3 into two
# integrals; `szego_check` integrates only family-less measures.
_FLAG_CALLERS = {
    "stieltjes_transform": (
        "chaincast.stieltjes", 2,
        lambda: cc.stieltjes_transform(semicircle_measure(), 0.3 + 0.5j)),
    "szego_check": (
        "chaincast.convergence", 5,
        lambda: cc.szego_check(_familyless(cc.power_law_sd(1.0, 0.1, 1.0)),
                               0.0).integral),
    "convergence_report": (
        "chaincast.convergence", 1,
        lambda: cc.convergence_report(cc.power_law_sd(1.0, 0.1, 1.0), 0.0, 6,
                                      residual_orders=2).terminal_moment_gap),
    "perron_invert": (
        "chaincast.stieltjes", 2,
        lambda: cc.perron_invert(semicircle_measure(), 0.3, 1e-3)),
    "find_gap_zero": (
        "chaincast.stieltjes", 2,
        lambda: cc.find_gap_zero(cc.measure_from_sd(
            cc.piecewise_uniform_sd([(0, 1, 1.0), (2, 3, 1.0)]), 0.0))),
    "reducer": (
        "chaincast.stieltjes", 2,
        lambda: stieltjes._reducer_derivative_form(
            cc.power_law_measure(2.0, 1.0), np.array([0.3]))),
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
