import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaincast as cc
from chaincast import quadrature
from chaincast.errors import IndexOutOfRange
from chaincast.measures import Measure, scale_mass
from chaincast.orthopoly import _stieltjes_sweep, orthonormal_table, secondary_table

from oracles import moments


def gauss_rule(rc, n):
    """n-point Gauss rule (nodes, weights) of the measure behind rc
    (Golub-Welsch): eigenvalues of the leading n x n Jacobi block, and
    beta_0 times the squared first components of its eigenvectors."""
    off = np.sqrt(rc.beta[1:n])
    vals, vecs = np.linalg.eigh(np.diag(rc.alpha[:n]) + np.diag(off, 1) + np.diag(off, -1))
    return vals, rc.beta[0] * vecs[0] ** 2


def monic(rc, n, x):
    """Monic pi_n(x) by pi_{k+1} = (x - alpha_k) pi_k - beta_k pi_{k-1}."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        prev, cur = cur, (x - rc.alpha[k]) * cur - (rc.beta[k] if k else 0.0) * prev
    return cur


def secondary_polynomial_by_quadrature(rc, n, x):
    """Q_n(x) from its defining integral, via the measure's Gauss rule.

    Oracle for the recurrence seed Q_1 = sqrt(beta_0)/t_0; the integrand
    is a degree-(n-1) polynomial in t, integrated exactly by a rule of
    size >= n.
    """
    nodes, weights = gauss_rule(rc, min(rc.n, 2 * n + 2))
    pt = orthonormal_table(rc, n, nodes)[n]
    px = orthonormal_table(rc, n, x)[n]
    diff = nodes[None, :] - x[:, None]
    return ((pt[None, :] - px[:, None]) / diff) @ weights


def jacobi_alpha(n, s, cut=1.0):
    if s == 0 and n == 0:
        return cut / 2
    return 0.5 * cut * (1.0 + s * s / ((s + 2 * n) * (2 + s + 2 * n)))


def jacobi_sqrt_beta(n, s, cut=1.0):
    # sqrt(beta_{n+1}) of weight x^s on [0, cut]
    return cut * (1 + n) * (1 + s + n) / ((s + 2 + 2 * n) * (3 + s + 2 * n)) \
        * math.sqrt((3 + s + 2 * n) / (1 + s + 2 * n))


def exact_recurrence_from_moments(moms, n):
    """Gram-Schmidt on exact rational moments: the independent oracle.

    Works entirely in Fraction arithmetic, so it shares nothing with the
    production quadrature/Stieltjes path.
    """
    moms = [Fraction(m) for m in moms]

    def inner(p, q):
        acc = Fraction(0)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                acc += a * b * moms[i + j]
        return acc

    def shift(p):  # multiply by x
        return [Fraction(0)] + list(p)

    alphas, betas = [], []
    prev = None
    cur = [Fraction(1)]
    norm_prev = None
    for k in range(n):
        norm = inner(cur, cur)
        alpha = inner(shift(cur), cur) / norm
        beta = norm if k == 0 else norm / norm_prev
        alphas.append(alpha)
        betas.append(beta)
        nxt = [a - alpha * b for a, b in
               zip(shift(cur), list(cur) + [Fraction(0)])]
        if prev is not None:
            padded = list(prev) + [Fraction(0)] * (len(nxt) - len(prev))
            nxt = [a - beta * b for a, b in zip(nxt, padded)]
        prev, cur, norm_prev = cur, nxt, norm
    return [float(a) for a in alphas], [float(b) for b in betas]


def semicircle_exact_moments(order):
    # C_{2k} = Catalan(k)/4^k, odd moments 0
    out = []
    for k in range(order + 1):
        if k % 2:
            out.append(Fraction(0))
        else:
            j = k // 2
            out.append(Fraction(math.comb(2 * j, j), (j + 1) * 4**j))
    return out


class TestRecurrenceCoefficients:
    def test_power_law_golden_s1(self, weight_x):
        rc = cc.recurrence_coefficients(weight_x, 5)
        assert rc.alpha[0] == pytest.approx(2 / 3, rel=1e-14)
        assert rc.beta[1] == pytest.approx(1 / 18, rel=1e-14)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("method", ["auto", "stieltjes"])
    def test_power_law_closed_forms(self, s, method):
        m = cc.power_law_measure(1.0, s)
        rc = cc.recurrence_coefficients(m, 31, method=method)
        for n in range(31):
            assert rc.alpha[n] == pytest.approx(jacobi_alpha(n, s), rel=1e-11)
        assert rc.beta[0] == pytest.approx(1 / (s + 1), rel=1e-11)
        for n in range(30):
            assert rc.beta[n + 1] == pytest.approx(
                jacobi_sqrt_beta(n, s) ** 2, rel=1e-11)

    @pytest.mark.parametrize("method", ["auto", "stieltjes"])
    def test_laguerre_closed_forms(self, method):
        m = cc.power_law_exp_measure(1.0, 1.0)
        rc = cc.recurrence_coefficients(m, 31, method=method)
        ns = np.arange(31.0)
        np.testing.assert_allclose(rc.alpha, 2 * ns + 2, rtol=1e-11)
        assert rc.beta[0] == pytest.approx(1.0, rel=1e-11)
        np.testing.assert_allclose(rc.beta[1:], ns[1:] * (ns[1:] + 1), rtol=1e-11)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [60, 100, 150])
    def test_generic_laguerre_beyond_the_bound_cutoff(self, n, s):
        # Unfloored, the tail cutoff for degree 2N stopped growing from
        # N = 60 on, inside the zeros of p_N, and the generic route was off
        # by 1e-2 without raising.
        m = cc.power_law_exp_measure(1.0, s)
        rc = cc.recurrence_coefficients(m, n, method="stieltjes")
        ns = np.arange(float(n))
        np.testing.assert_allclose(rc.alpha, 2 * ns + 1 + s, rtol=1e-12)
        assert rc.beta[0] == pytest.approx(math.gamma(s + 1), rel=1e-12)
        np.testing.assert_allclose(rc.beta[1:], ns[1:] * (ns[1:] + s), rtol=1e-12)

    def test_semicircle_against_exact_gram_schmidt(self, semicircle_plain):
        # Oracle: exact rational Gram-Schmidt on moments (1, 0, 1/4, 0, 1/8, ...).
        a_ref, b_ref = exact_recurrence_from_moments(semicircle_exact_moments(20), 10)
        rc = cc.recurrence_coefficients(semicircle_plain, 10)
        np.testing.assert_allclose(rc.alpha, a_ref, atol=1e-12)
        np.testing.assert_allclose(rc.beta, b_ref, rtol=1e-11)

    def test_uniform_against_exact_gram_schmidt(self, uniform_sym):
        moms = [Fraction(1, 2) * (Fraction(1 - (-1) ** (k + 1), k + 1))
                for k in range(17)]
        a_ref, b_ref = exact_recurrence_from_moments(moms, 8)
        rc = cc.recurrence_coefficients(uniform_sym, 8)
        np.testing.assert_allclose(rc.alpha, a_ref, atol=1e-13)
        np.testing.assert_allclose(rc.beta, b_ref, rtol=1e-12)

    def test_coefficient_bounds_bounded_support(self, measure_suite):
        for name, m in measure_suite.items():
            if not m.bounded:
                continue
            rc = cc.recurrence_coefficients(m, 20, method="stieltjes")
            a, b = m.hull
            assert np.all(rc.alpha > a) and np.all(rc.alpha < b), name
            assert np.all(rc.beta > 0), name
            assert np.all(rc.beta[1:] <= max(a * a, b * b) * (1 + 1e-12)), name

    @settings(deadline=None, max_examples=15)
    @given(c=st.floats(0.1, 10.0))
    def test_scale_invariance(self, c):
        m = cc.power_law_measure(1.0, 1.0)
        rc = cc.recurrence_coefficients(m, 8, method="stieltjes")
        rc_scaled = cc.recurrence_coefficients(scale_mass(m, c), 8,
                                               method="stieltjes")
        np.testing.assert_allclose(rc_scaled.alpha, rc.alpha, atol=1e-10)
        np.testing.assert_allclose(rc_scaled.beta[1:], rc.beta[1:], rtol=1e-10)
        assert rc_scaled.beta[0] == pytest.approx(c * rc.beta[0], rel=1e-10)

    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200, 1e300])
    def test_sweep_does_not_depend_on_weight_scale(self, c):
        m = cc.power_law_measure(1.0, 0.5, 1.0)
        rc = cc.recurrence_coefficients(m, 200, method="stieltjes")
        rc_scaled = cc.recurrence_coefficients(scale_mass(m, c), 200,
                                               method="stieltjes")
        # the support is [0, 1], so its span is 1
        np.testing.assert_allclose(rc_scaled.alpha, rc.alpha, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rc_scaled.beta[1:], rc.beta[1:], rtol=1e-14, atol=0)
        assert rc_scaled.beta[0] == pytest.approx(c * rc.beta[0], rel=1e-14)

    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(data=st.data())
    def test_discrete_measure_round_trip(self, data):
        # k atoms inside (0.05, 0.95), at least 0.3 / (k + 1) apart
        k = data.draw(st.integers(1, 12))
        gaps = np.array(data.draw(st.lists(st.floats(0.5, 1.5),
                                           min_size=k + 1, max_size=k + 1)))
        atoms = 0.05 + 0.9 * np.cumsum(gaps)[:-1] / gaps.sum()
        masses = np.array(data.draw(st.lists(st.floats(0.1, 10.0),
                                             min_size=k, max_size=k)))
        rc = cc.RecurrenceCoefficients(*_stieltjes_sweep(atoms, masses, k))
        nodes, weights = gauss_rule(rc, k)
        np.testing.assert_allclose(nodes, atoms, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights, masses, rtol=1e-12, atol=0)
        with pytest.raises(cc.IllConditioned):
            _stieltjes_sweep(atoms, masses, k + 1)

    def test_order_cap(self, weight_x):
        with pytest.raises(IndexOutOfRange):
            cc.recurrence_coefficients(weight_x, 500)

    def test_discrete_modes_give_finite_chains(self):
        # A measure of N atoms supports exactly N orders; the N+1st has no
        # orthogonal polynomial left and must surface as ill-conditioning.
        x, w = np.array([0.25, 0.75]), np.array([1.0, 2.0])
        alpha, beta = _stieltjes_sweep(x, w, 2)
        assert beta[0] == pytest.approx(3.0, rel=1e-13)
        # alpha_0 is the mass-weighted mean of the atom locations
        assert alpha[0] == pytest.approx((0.25 + 2 * 0.75) / 3, rel=1e-13)
        with pytest.raises(cc.IllConditioned):
            _stieltjes_sweep(x, w, 3)

    def test_gapped_measure_coefficients_compute(self, gapped_sd):
        m = cc.measure_from_sd(gapped_sd, 0.0)
        rc = cc.recurrence_coefficients(m, 12)
        # symmetric about 1.5, so every alpha is the hull midpoint
        np.testing.assert_allclose(rc.alpha, 1.5, atol=1e-11)


def _discretize_every_node(m, level, poly_degree=0):
    """``Measure.discretize`` without merging nodes that share a position."""
    xs, ws = [], []
    for lo, hi in m._effective_intervals(poly_degree):
        x, _, _, w = quadrature._every_node(level, lo, hi)
        xs.append(x)
        ws.append(w * m.weight(x))
    return np.concatenate(xs), np.concatenate(ws)


class TestMergedDiscretization:
    SDS = {
        "flat": lambda: cc.piecewise_uniform_sd([(0.1, 1.7, 0.8)]),
        "familyless_semicircle": lambda: cc.custom_sd(
            lambda w: 0.7 * np.sqrt(np.maximum((w - 0.3) * (2.1 - w), 0.0)),
            ((0.3, 2.1),), ((0.5, 0.5),)),
        "gapped": lambda: cc.piecewise_uniform_sd([(0.0, 1.0, 1.0), (2.0, 3.0, 1.0)]),
    }

    @pytest.mark.parametrize("name", sorted(SDS))
    def test_generic_route_matches_every_node(self, name, monkeypatch):
        m = cc.measure_from_sd(self.SDS[name](), 0.0)
        assert len(m.discretize(9)[0]) < len(_discretize_every_node(m, 9)[0])
        merged = cc.recurrence_coefficients(m, 200, method="stieltjes")
        monkeypatch.setattr(Measure, "discretize", _discretize_every_node)
        full = cc.recurrence_coefficients(m, 200, method="stieltjes")
        np.testing.assert_allclose(merged.alpha, full.alpha, rtol=1e-14, atol=0)
        np.testing.assert_allclose(merged.beta, full.beta, rtol=1e-14, atol=0)


class TestPolynomialEvaluation:
    def test_monic_pi0_is_one(self, weight_x):
        rc = cc.recurrence_coefficients(weight_x, 4)
        assert monic(rc, 0, np.float64(0.37)) == 1.0

    def test_monic_semicircle(self, semicircle):
        rc = cc.recurrence_coefficients(semicircle, 4)
        xs = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(monic(rc, 1, xs), xs, atol=1e-14)
        np.testing.assert_allclose(monic(rc, 2, xs), xs**2 - 0.25, atol=1e-14)

    def test_monic_weight_x(self, weight_x):
        rc = cc.recurrence_coefficients(weight_x, 3)
        assert monic(rc, 1, np.float64(0.9)) == pytest.approx(0.9 - 2 / 3, rel=1e-13)

    def test_orthonormal_values(self, semicircle, weight_2x):
        rc = cc.recurrence_coefficients(semicircle, 4)
        assert orthonormal_table(rc, 0, 0.3)[0] == pytest.approx(1.0)
        xs = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(orthonormal_table(rc, 1, xs)[1], 2 * xs,
                                   atol=1e-13)
        rc2 = cc.recurrence_coefficients(weight_2x, 3)
        assert orthonormal_table(rc2, 0, 0.5)[0] == pytest.approx(1.0, rel=1e-13)

    def test_orthonormal_monic_consistency(self, weight_2x):
        rc = cc.recurrence_coefficients(weight_2x, 7)
        xs = np.linspace(0.05, 0.95, 11)
        table = orthonormal_table(rc, 5, xs)
        for n in range(6):
            norm = math.sqrt(np.prod(rc.beta[:n + 1]))
            np.testing.assert_allclose(table[n], monic(rc, n, xs) / norm,
                                       rtol=1e-10, atol=1e-12)

    def test_index_out_of_range(self, weight_x):
        rc = cc.recurrence_coefficients(weight_x, 3)
        with pytest.raises(IndexOutOfRange):
            secondary_table(rc, 3, 0.1)
        with pytest.raises(IndexOutOfRange):
            orthonormal_table(rc, 5, 0.1)


class TestSecondaryPolynomials:
    def test_q0_is_zero(self, weight_x):
        rc = cc.recurrence_coefficients(weight_x, 4)
        assert secondary_table(rc, 0, 0.4)[0] == 0.0

    def test_semicircle_q1_constant(self, semicircle):
        rc = cc.recurrence_coefficients(semicircle, 4)
        xs = np.linspace(-0.8, 0.8, 5)
        np.testing.assert_allclose(secondary_table(rc, 1, xs)[1], 2.0, rtol=1e-13)

    def test_semicircle_q2_vanishes_at_zero(self, semicircle):
        rc = cc.recurrence_coefficients(semicircle, 4)
        assert secondary_table(rc, 2, 0.0)[2] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("fixture", ["semicircle", "weight_2x"])
    def test_recurrence_seed_against_defining_integral(self, fixture, request):
        # Mandatory validation of the Q_1 = sqrt(beta_0)/t_0 shortcut: compare
        # with Gauss quadrature of the defining integral for n <= 6.
        m = request.getfixturevalue(fixture)
        rc = cc.recurrence_coefficients(m, 16)
        a, b = m.hull
        xs = np.linspace(a + 0.07, b - 0.07, 9)
        for n in range(1, 7):
            oracle = secondary_polynomial_by_quadrature(rc, n, xs)
            fast = secondary_table(rc, n, xs)[n]
            np.testing.assert_allclose(fast, oracle, rtol=1e-10, atol=1e-11)

    def test_wronskian_identity(self, measure_suite):
        # P_n Q_{n+1} - P_{n+1} Q_n = 1/sqrt(beta_{n+1}) for normalized
        # measures with the positive-leading-coefficient convention.
        for name in ("semicircle", "weight_2x", "uniform_sym"):
            m = measure_suite[name]
            rc = cc.recurrence_coefficients(m, 8)
            a, b = m.hull
            xs = np.linspace(a + 0.05, b - 0.05, 13)
            p, q = orthonormal_table(rc, 5, xs), secondary_table(rc, 5, xs)
            for n in range(5):
                w = p[n] * q[n + 1] - p[n + 1] * q[n]
                np.testing.assert_allclose(w, 1 / math.sqrt(rc.beta[n + 1]),
                                           rtol=1e-9, err_msg=name)


class TestGaussRule:
    """Recurrence coefficients and orthonormal tables against the
    test-local Golub-Welsch rule ``gauss_rule``."""

    def test_semicircle_single_node(self, semicircle):
        rc = cc.recurrence_coefficients(semicircle, 3)
        nodes, weights = gauss_rule(rc, 1)
        assert nodes[0] == pytest.approx(0.0, abs=1e-14)
        assert weights[0] == pytest.approx(1.0, rel=1e-13)

    def test_weight_x_single_node(self, weight_x):
        rc = cc.recurrence_coefficients(weight_x, 3)
        nodes, weights = gauss_rule(rc, 1)
        assert nodes[0] == pytest.approx(2 / 3, rel=1e-13)
        assert weights[0] == pytest.approx(0.5, rel=1e-13)

    @pytest.mark.parametrize("name", ["semicircle", "weight_x", "sqrt",
                                      "laguerre_s1"])
    def test_exactness_against_moments(self, measure_suite, name):
        m = measure_suite[name]
        n = 6
        rc = cc.recurrence_coefficients(m, n + 1)
        nodes, weights = gauss_rule(rc, n)
        moms = moments(m, 2 * n - 1)
        for k in range(2 * n):
            got = float(np.sum(weights * nodes**k))
            assert got == pytest.approx(moms[k], rel=1e-10, abs=1e-12), (name, k)

    def test_orthonormality(self, measure_suite):
        # Gauss rule of size N+1 resolves <P_i, P_j> = delta_ij for i,j <= N-1.
        for name in ("semicircle", "weight_2x", "sqrt"):
            m = measure_suite[name]
            n = 8
            rc = cc.recurrence_coefficients(m, n + 2)
            nodes, weights = gauss_rule(rc, n + 1)
            table = orthonormal_table(rc, n - 1, nodes)
            gram = (table * weights) @ table.T
            np.testing.assert_allclose(gram, np.eye(n), atol=1e-10,
                                       err_msg=name)


class TestPadeAsymptotics:
    @pytest.mark.parametrize("fixture", ["semicircle", "uniform_sym"])
    def test_defect_approaches_beta_product(self, fixture, request):
        # z^{2n+3} (S - Q_{n+1}/P_{n+1}) -> beta_1 ... beta_{n+1} at z = 1e3 b.
        m = request.getfixturevalue(fixture)
        rc = cc.recurrence_coefficients(m, 8)
        z = 1e3 * m.hull[1]
        for n in range(4):
            got = cc.pade_defect(m, rc, n, z)
            want = float(np.prod(rc.beta[1:n + 2]))
            assert got == pytest.approx(want, rel=1e-4), n

    def test_defect_matches_naive_subtraction_where_feasible(self, semicircle):
        # n = 0 is the one order where float64 subtraction still has signal;
        # it pins the series implementation to the actual transform.
        rc = cc.recurrence_coefficients(semicircle, 4)
        z = 40.0
        s = cc.stieltjes_transform(semicircle, z).real
        naive = z**3 * (s - secondary_table(rc, 1, z)[1]
                        / orthonormal_table(rc, 1, z)[1])
        series = cc.pade_defect(semicircle, rc, 0, z)
        assert series == pytest.approx(naive, rel=1e-6)
