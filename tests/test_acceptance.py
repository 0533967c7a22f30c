"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion (FAIL lines come from pytest itself on assertion failure).
"""

import json
import math

import numpy as np
import pytest

import chaincast as cc
from chaincast import cli


def announce(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def closed_form_alpha(n, s):
    if s == 0 and n == 0:
        return 0.5
    return 0.5 * (1.0 + s * s / ((s + 2 * n) * (2 + s + 2 * n)))


def closed_form_beta(n, s):
    # beta_{n+1} of weight x^s on [0, 1]
    sq = (1 + n) * (1 + s + n) / ((s + 2 + 2 * n) * (3 + s + 2 * n)) \
        * math.sqrt((3 + s + 2 * n) / (1 + s + 2 * n))
    return sq * sq


def test_criterion_01_power_law_chain_coefficients():
    """Finite-support power-law chain coefficients match the closed forms."""
    alpha_c = 0.1
    for s in (0.5, 1.0, 2.0):
        j = cc.power_law_sd(s, alpha_c, 1.0)
        for method in ("auto", "stieltjes"):
            rc = cc.recurrence_coefficients(cc.measure_from_sd(j, 0.0), 32,
                                            method=method)
            assert rc.beta[0] == pytest.approx(2 * alpha_c / (s + 1),
                                               rel=1e-10), (s, method)
            for n in range(31):
                assert rc.alpha[n] == pytest.approx(closed_form_alpha(n, s),
                                                    rel=1e-10), (s, method, n)
            for n in range(30):
                assert rc.beta[n + 1] == pytest.approx(closed_form_beta(n, s),
                                                       rel=1e-10), (s, method, n)
    announce(1, "power-law chain coefficients, s in {0.5, 1, 2}, n <= 30, "
                "rel 1e-10, analytic and generic routes")


def test_criterion_02_exp_cutoff_chain_coefficients_generic_route():
    """Exponential-cutoff coefficients via the generic route only."""
    alpha_c = 0.1
    j = cc.power_law_exp_sd(1.0, alpha_c, 1.0)
    rc = cc.recurrence_coefficients(cc.measure_from_sd(j, 0.0), 32,
                                    method="stieltjes")
    assert rc.beta[0] == pytest.approx(2 * alpha_c * math.gamma(2.0), rel=1e-10)
    for n in range(31):
        assert rc.alpha[n] == pytest.approx(2.0 * n + 2.0, rel=1e-10), n
    for n in range(1, 31):
        assert rc.beta[n] == pytest.approx(n * (n + 1.0), rel=1e-10), n
    announce(2, "exponential-cutoff coefficients (generic route), n <= 30, "
                "rel 1e-10")


def test_criterion_03_phonon_bridge():
    """alpha_n(1)(s) = alpha_n(0)(s/2) and beta_{n+1}(1)(s) = beta_{n+1}(0)(s/2)."""
    j = cc.power_law_sd(1.0, 0.1, 1.0)
    rc1 = cc.recurrence_coefficients(cc.measure_from_sd(j, 1.0), 23,
                                     method="stieltjes")
    for n in range(21):
        assert rc1.alpha[n] == pytest.approx(closed_form_alpha(n, 0.5),
                                             abs=1e-10), n
        assert rc1.beta[n + 1] == pytest.approx(closed_form_beta(n, 0.5),
                                                abs=1e-10), n
    announce(3, "phonon/particle bridge s=1 -> s/2=0.5, n <= 20, tol 1e-10")


def test_criterion_04_residual_density_golden_values():
    """Particle/phonon residual values and member masses."""
    j = cc.power_law_sd(1.0, 0.1, 1.0)
    got = cc.residual_sd(j, 0, 1, 0.5) / math.pi
    assert got == pytest.approx(1.0 / (math.pi**2 + 4), abs=1e-12)

    rd = cc.ResidualDensity.build(j, 0, 2)
    assert rd.seq.member_measure(1).total_mass() == pytest.approx(1 / 18,
                                                                  abs=1e-6)
    assert rd.seq.member_measure(2).total_mass() == pytest.approx(3 / 50,
                                                                  abs=1e-6)

    x = 0.25
    r = math.sqrt(x)
    printed = 2 * r / (3 * (math.pi**2 * x + (2 - 2 * r * math.atanh(r)) ** 2))
    got = cc.residual_sd(j, 1, 1, 0.5) / math.pi
    assert got == pytest.approx(printed, abs=1e-8)
    announce(4, "residual goldens: J1(1/2)/pi = 1/(pi^2+4); masses 1/18, "
                "3/50 @1e-6; phonon profile @1e-8")


def test_criterion_05_jacobi_shift_oracle():
    """Recurrence coefficients of evaluated mu_m equal shifted base orders."""
    j = cc.power_law_sd(1.0, 0.1, 1.0)
    base = cc.normalize(cc.measure_from_sd(j, 0.0))
    seq = cc.SecondarySequence.build(base, 3)
    parent = cc.recurrence_coefficients(seq.base, 8)
    for m in (1, 2, 3):
        child = cc.recurrence_coefficients(seq.member_measure(m), 4,
                                           method="stieltjes")
        np.testing.assert_allclose(child.alpha, parent.alpha[m:m + 4],
                                   atol=1e-6)
        np.testing.assert_allclose(child.beta[1:], parent.beta[m + 1:m + 4],
                                   atol=1e-6)
    announce(5, "Jacobi shift: rc(mu_m) = shifted rc(mu_0), m <= 3, "
                "4 orders, tol 1e-6")


def test_criterion_06_semicircle_fixed_point_and_reducer():
    """One secondary+normalize step fixes the semicircle; reducer is 4x."""
    sc = cc.semicircle_measure()
    plain = cc.Measure(sc.weight, sc.support)
    # no family attached: the reducer takes the Lipschitz route
    assert plain.family is None
    xs = np.linspace(-0.95, 0.95, 77)

    phi = cc.reducer(plain, xs)
    assert float(np.max(np.abs(phi - 4 * xs))) < 1e-9

    rho = cc.secondary_density(plain, xs)
    lo, hi = plain.hull
    guard = 1e-12 * (hi - lo)
    mass, _ = cc.quadrature.integrate(
        lambda t: cc.secondary_density(plain, t),
        lo + guard, hi - guard, rel_tol=1e-12)
    sup_dev = float(np.max(np.abs(rho / mass - plain.weight(xs))))
    assert sup_dev < 1e-9
    announce(6, f"semicircle fixed point sup-dev {sup_dev:.2e} < 1e-9; "
                "reducer = 4x @1e-9")


def test_criterion_07_convergence_limits_and_moment_gaps():
    """alpha_20 deviation matches the closed form; moment gaps shrink."""
    j = cc.power_law_sd(1.0, 0.1, 1.0)
    rep = cc.convergence_report(j, 0.0, 21, residual_orders=4)
    want = closed_form_alpha(20, 1.0) - 0.5  # = 1/(2*41*43) ~ 2.8e-4
    assert rep.alpha_deviation[20] == pytest.approx(want, rel=1e-10)

    # per-k gaps at n = 4 under 1e-2; the max-over-k aggregate shrinks
    # monotonically over n = 1..4 (individual k-gaps may cross zero)
    assert np.all(rep.terminal_moment_gap[4][:5] < 1e-2)
    agg = rep.gap_aggregate(4)
    assert agg.shape == (4,)
    assert np.all(np.diff(agg) < 0)
    announce(7, f"|alpha_20 - 1/2| = {rep.alpha_deviation[20]:.4e} "
                "(closed form @1e-10); gaps(n=4, k<=4) < 1e-2, aggregate "
                "monotone over n=1..4")


def test_criterion_08_bassano_equivalence():
    """D_n^2 from iterated residual-density integrals equals beta_n(d lambda^1)."""
    j = cc.power_law_sd(1.0, 0.1, 1.0)
    rd = cc.ResidualDensity.build(j, 1, 3)
    d_ref, _ = cc.bassano_coefficients(j, 4)
    for n in range(4):
        if n == 0:
            f = lambda u: np.asarray(j(np.sqrt(u)), float) / math.pi
        else:
            f = lambda u, n=n: np.asarray(rd(n, np.sqrt(u)), float) / math.pi
        got, _ = cc.quadrature.integrate(f, 1e-10, 1.0 - 1e-10, rel_tol=1e-11)
        assert got == pytest.approx(d_ref[n], abs=1e-6), n
    announce(8, "Bassano equivalence: iterated-integral D_n^2 = beta_n(1), "
                "n <= 3, tol 1e-6")


def test_criterion_09_gapped_diagnostics(tmp_path, capsys):
    """Gap zero at 1.5, coefficients still compute, residual request exits 4."""
    j = cc.piecewise_uniform_sd([(0.0, 1.0, 1.0), (2.0, 3.0, 1.0)])
    m = cc.measure_from_sd(j, 0.0)
    z0 = cc.find_gap_zero(m)
    assert z0 == pytest.approx(1.5, abs=1e-10)

    coeffs = cc.chain_coefficients(j, 0.0, 10)
    assert np.all(np.isfinite(coeffs.alpha)) and np.all(coeffs.beta > 0)

    config = tmp_path / "gapped.json"
    config.write_text(json.dumps({
        "spectral_density": {"family": "piecewise",
                             "intervals": [[0, 1, 1.0], [2, 3, 1.0]]},
        "mapping_q": 0, "sites": 6, "residual_orders": [1]}))
    assert cli.main(["run", "--config", str(config)]) == 4
    assert "z0=1.5" in capsys.readouterr().err
    announce(9, f"gapped: z0 = {z0} (+-1e-10), chain coefficients computed, "
                "residual request exits 4")


def test_criterion_10_szego_verdicts():
    """Finite power law in; exponential cutoff out(unbounded); gapped out(gapped)."""
    assert str(cc.szego_check(cc.power_law_sd(1.0, 0.1, 1.0), 0.0)) == "in_class"
    assert str(cc.szego_check(cc.power_law_exp_sd(1.0, 0.1, 1.0), 0.0)) \
        == "out_of_class(unbounded)"
    gapped = cc.piecewise_uniform_sd([(0.0, 1.0, 1.0), (2.0, 3.0, 1.0)])
    assert str(cc.szego_check(gapped, 0.0)) == "out_of_class(gapped)"
    announce(10, "Szego verdicts: in_class / out_of_class(unbounded) / "
                 "out_of_class(gapped)")


def test_criterion_11_pade_asymptotic():
    """z^{2n+3} (S - Q_{n+1}/P_{n+1}) -> beta_1...beta_{n+1} at z = 1e3 b."""
    suite = {
        "semicircle": cc.semicircle_measure(),
        "uniform": cc.Measure(
            lambda x: np.full_like(np.asarray(x, float), 0.5), ((-1.0, 1.0),)),
    }
    for name, m in suite.items():
        rc = cc.recurrence_coefficients(m, 8)
        z = 1e3 * m.hull[1]
        for n in range(4):
            got = cc.pade_defect(m, rc, n, z)
            want = float(np.prod(rc.beta[1:n + 2]))
            assert got == pytest.approx(want, rel=1e-4), (name, n)
    announce(11, "Pade defect matches beta products, n <= 3, z = 1e3 b, "
                 "rel 1e-4, two suite measures")
