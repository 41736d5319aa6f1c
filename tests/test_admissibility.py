"""Coefficient formulas, scale integrals, and the frame-condition report."""

import numpy as np
import pytest

from sphwave import admissibility
from sphwave.admissibility import (admissibility_integral,
                                   admissibility_report,
                                   analytic_upper_bound, default_k_cut,
                                   k1_ratio, k1_ratio_limit,
                                   wavelet_coefficient,
                                   wavelet_coefficient_table)
from sphwave.admissibility import _coefficient_polynomial, _scale_integral
from sphwave.profiles import WaveletSpec, angular_coefficient, evaluate_wavelet
from sphwave.sphfn import (SphericalSignal, analyze_signal, default_grid_spec,
                           degree_orders, grid_phis, make_colat_grid)

import oracles
from oracles import (coefficient_upper_bound, expansion_scale_integral,
                     float_closed_form_scale_integral, poly_scale_integral,
                     rho_quadrature)

# scale integrals of the squared degree-l coefficient polynomial at order 1,
# computed once in exact rational arithmetic (Legendre recurrence and
# monomial integration over fractions, norm factor applied afterwards)
R_K1_EXACT = {9: 3.707232341345760e-05,
              40: 9.895583962806326e-10,
              160: 6.006699584468224e-14}
# same oracle for int rho beta_l(e^-rho)^2 drho; the product l^8 * E is
# nearly flat (1058.40, 1006.27, 1009.96), i.e. the order-1 content decays
# like l^-8 instead of settling at the flat large-l level
E_K1_EXACT = {9: 2.458729598730269e-05,
              40: 1.535438661172682e-10,
              160: 2.351499866106553e-15}


def test_rho_quadrature_exact_integrals():
    q = rho_quadrature()
    assert np.all(q.nodes > 0)
    assert abs(q.integrate(lambda r: r * np.exp(-2 * r)) - 0.25) < 1e-14
    # sum_n 1/(4 n^2): rho e^-2rho / (1 - e^-2rho), stable via expm1
    f1 = q.integrate(lambda r: -r * np.exp(-2 * r) / np.expm1(-2 * r))
    assert abs(f1 - np.pi ** 2 / 24) < 1e-10 * (np.pi ** 2 / 24)
    f2 = q.integrate(lambda r: -r * np.exp(-4 * r) / np.expm1(-2 * r))
    assert abs(f2 - (np.pi ** 2 - 6) / 24) < 1e-10 * ((np.pi ** 2 - 6) / 24)
    # boundary layer: r^{2l} mass at 1 - r ~ 1/(2l) for large l
    f3 = q.integrate(lambda r: r * np.exp(-400 * r))
    assert abs(f3 * 4 * 200 ** 2 - 1.0) < 1e-12
    f4 = q.integrate_scale_invariant(lambda r: r * r * np.exp(-r))
    assert abs(f4 - 1.0) < 1e-13
    assert abs(q.refine().integrate(lambda r: r * np.exp(-2 * r)) - 0.25) < 1e-14


def test_scale_integral_matches_closed_form():
    # the exact sum against the same closed form summed in floats, which
    # cancels heavily as l grows; compare where it retains precision
    def float_sum(family, l, k):
        return float_closed_form_scale_integral(
            *_coefficient_polynomial(family, l, k))
    for family in ("omega", "upsilon"):
        for l in range(1, 11):
            for k in range(1, min(l, 7) + 1, 2):
                a = _scale_integral(family, l, k)
                b = float_sum(family, l, k)
                assert abs(a - b) < 1e-8 * abs(b), (family, l, k)
    for l in range(11, 25):
        a = _scale_integral("omega", l, 1)
        b = float_sum("omega", l, 1)
        assert abs(a - b) < 1e-5 * abs(b), l
    a = _scale_integral("omega", 40, 1)
    b = float_sum("omega", 40, 1)
    assert abs(a - b) < 1e-3 * abs(b)
    # past degree 40 the float sum is noise; the exact sum is not
    exact = R_K1_EXACT[160]
    assert abs(_scale_integral("omega", 160, 1) - exact) < 1e-5 * exact
    assert abs(float_sum("omega", 160, 1) - exact) > exact


def test_poly_scale_integral_matches_per_term_sum():
    # the exact sum against the former runtime quadrature, with the
    # coefficient polynomial summed term by term, on both of its rules
    rules = (rho_quadrature(48, 32), rho_quadrature(56, 40))
    for family in ("omega", "upsilon"):
        for l in (1, 2, 3, 4, 7, 10, 17, 26, 35, 64):
            for k in range(1, l + 1, 2):
                got = _scale_integral(family, l, k)
                degs, coefs = _coefficient_polynomial(family, l, k)
                for quad in rules:
                    ref = poly_scale_integral(degs, coefs, quad)
                    assert abs(got - ref) <= 1e-8 * abs(ref), (family, l, k)
    # degree 200: the sum holds far past where the float closed form
    # cancels to noise, to within the rules' own accuracy there
    for family in ("omega", "upsilon"):
        for k in range(1, 42, 2):
            got = _scale_integral(family, 200, k)
            degs, coefs = _coefficient_polynomial(family, 200, k)
            for quad in rules:
                ref = poly_scale_integral(degs, coefs, quad)
                assert abs(got - ref) <= 1e-7 * abs(ref), (family, k)


def test_scale_integral_exact_high_degree():
    tols = {9: 1e-12, 40: 1e-9, 160: 1e-5}
    for l, exact in R_K1_EXACT.items():
        got = _scale_integral("omega", l, 1)
        assert abs(got - exact) < tols[l] * exact, l


def test_expansion_scale_integral_decay():
    tols = {9: 1e-12, 40: 1e-9, 160: 1e-6}
    for l, exact in E_K1_EXACT.items():
        got = expansion_scale_integral("omega", l)
        assert abs(got - exact) < tols[l] * exact, l
    exponent = np.log(E_K1_EXACT[40] / E_K1_EXACT[160]) / np.log(160.0 / 40.0)
    assert abs(exponent - 8.0) < 0.01
    # consequence: the order-1 ratio sits far below its flat large-l level
    for tau in (1.0, 4.0):
        assert k1_ratio("omega", tau, 160) < 1e-6 * k1_ratio_limit(tau)


def test_coefficients_against_spherical_transform():
    # sample the kernel on a generous grid and take the full transform;
    # every (l, k) coefficient must match the direct formulas
    for fam, rho, tau in (("omega", 1.0, 2.0), ("upsilon", 1.0, 1.0)):
        spec_w = WaveletSpec(fam, rho, tau)
        g = default_grid_spec(128)
        colat = make_colat_grid(g.n_theta)
        vals = evaluate_wavelet(spec_w, colat.nodes[:, None], grid_phis(g)[None, :])
        table = analyze_signal(SphericalSignal(vals.astype(complex), g))
        scale = np.sqrt(table.norm_sq())
        for l in range(0, 21):
            for k in range(-l, l + 1):
                ref = table.get(l, k)
                assert abs(wavelet_coefficient(spec_w, l, k) - ref) \
                    < 1e-12 * scale, (fam, l, k)


def test_k1_closed_form_consistency():
    # order 1 has a dedicated closed form; the banded-moment polynomial
    # must reproduce it for every degree
    from sphwave.admissibility import _coefficient_polynomial
    for fam, rho, tau in (("omega", 0.8, 2.0), ("upsilon", 1.5, 1.0),
                          ("omega", 0.1, 16.0)):
        spec_w = WaveletSpec(fam, rho, tau)
        for l in range(1, 31):
            degs, cs = _coefficient_polynomial(fam, l, 1)
            acc = sum(c * spec_w.r ** n for n, c in zip(degs, cs))
            poly_val = -angular_coefficient(tau, 1) * rho / (4.0 * np.pi) * acc
            closed = wavelet_coefficient(spec_w, l, 1).real
            if closed != 0.0:
                assert abs(poly_val - closed) < 1e-9 * abs(closed), (fam, l)


def test_coefficient_table_and_guards():
    spec_w = WaveletSpec("omega", 0.7, 2.0)
    table = wavelet_coefficient_table(spec_w, 12)
    for l in range(0, 13):
        for k in range(0, l + 1):
            v = table.get(l, k)
            assert table.get(l, -k) == v
            if k % 2 == 0:
                assert v == 0.0
            else:
                assert v == wavelet_coefficient(spec_w, l, k)
    with pytest.raises(IndexError):
        wavelet_coefficient(spec_w, 3, 5)
    assert wavelet_coefficient(spec_w, 4, 2) == 0.0j


def test_steerable_table_matches_per_coefficient_loop():
    # the table is w(tau) * P with one tau-free P per (family, rho); the
    # reference evaluates every (l, k) with tau inside the formula
    l_band = 20
    _, k = degree_orders(l_band)
    for fam in ("omega", "upsilon"):
        for rho in (0.25, 0.5, 1.0):
            for tau in (1.0, 1.37, 2.0, 4.0, 5.0, 8.0, 11.3, 16.0):
                spec_w = WaveletSpec(fam, rho, tau)
                got = wavelet_coefficient_table(spec_w, l_band).values
                ref = oracles.wavelet_coefficient_table(spec_w, l_band).values
                assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), \
                    (fam, rho, tau)
                assert np.all(got[np.abs(k) > default_k_cut(tau)] == 0.0)
    assert default_k_cut(1.0) < l_band


def test_default_k_cut():
    cuts = [default_k_cut(t) for t in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert cuts[0] == 7
    assert all(c % 2 == 1 for c in cuts)
    assert all(b > a for a, b in zip(cuts, cuts[1:]))


def test_coefficient_upper_bound():
    rng = np.random.default_rng(42)
    for _ in range(200):
        fam = "omega" if rng.integers(2) == 0 else "upsilon"
        spec_w = WaveletSpec(fam, rng.uniform(0.05, 4.0), rng.uniform(1.0, 16.0))
        l = int(rng.integers(1, 65))
        ks = list(range(1, l + 1, 2))
        k = ks[rng.integers(len(ks))]
        v = abs(wavelet_coefficient(spec_w, l, k))
        assert v <= coefficient_upper_bound(spec_w, l, k) * (1.0 + 1e-12)
    with pytest.raises(ValueError):
        coefficient_upper_bound(spec_w, 4, 2)
    with pytest.raises(IndexError):
        coefficient_upper_bound(spec_w, 3, 5)


def test_admissibility_integral_basics():
    assert admissibility_integral("omega", 1.0, 0) == 0.0
    assert admissibility_integral("omega", 2.0, 5) > 0.0
    with pytest.raises(ValueError):
        admissibility_integral("gauss", 1.0, 5)
    with pytest.raises(ValueError):
        admissibility_integral("omega", 1.0, -1)


def test_admissibility_report_omega():
    rep = admissibility_report("omega", 2.0, 12)
    assert rep.ok
    assert rep.order == 0
    assert rep.l_max == 12
    assert rep.g_values[0] == 0.0
    assert np.all(rep.ratios[1:] > 0)
    assert rep.lower_bound > 0
    assert rep.upper_bound <= rep.analytic_bound * (1.0 + 1e-6)
    with pytest.raises(ValueError):
        admissibility_report("omega", 2.0, 9)
    with pytest.raises(ValueError, match="family"):
        admissibility_report("foo", 2.0, 16)


def test_admissibility_report_upsilon_degree_one():
    # gamma_1 is nonzero, so the nominal order-1 vanishing fails with a
    # definite residual (exact rational oracle, selectivity 1)
    rep = admissibility_report("upsilon", 1.0, 12)
    assert not rep.ok
    assert rep.order == 1
    assert rep.vanishing_residuals[0] == 0.0
    assert abs(rep.vanishing_residuals[1] - 0.0012486270024044495) < 1e-15
    assert any("vanishing condition" in note for note in rep.failures)


def test_analytic_upper_bound():
    for tau in (1.0, 2.0, 4.0):
        om = analytic_upper_bound("omega", tau)
        assert abs(analytic_upper_bound("upsilon", tau) - 1.5 * om) < 1e-15
    assert abs(analytic_upper_bound("omega", 1.0)
               - 2.0 * (0.5 * np.sqrt(np.pi))) < 1e-15
    with pytest.raises(ValueError):
        analytic_upper_bound("omega", 0.5)
    limit = k1_ratio_limit(2.0)
    ref = np.exp(-0.25) / (2048.0 * np.pi ** 2 * 4.0)
    assert abs(limit - ref) < 1e-18


def test_kernel_tables_one_rule_per_cap(monkeypatch):
    # every odd order at one cap reads one Gauss-Legendre rule: from cold
    # caches, three scales' tables and a report up to degree 64 build the
    # 77-node rule of cap 64 once
    for fn in (admissibility._moment_rule, admissibility._moment_matrix,
               admissibility._kernel_matrix, admissibility._scale_integral):
        fn.cache_clear()
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    for rho in (1.0, 0.5, 0.25):
        admissibility._kernel_matrix("omega", rho, 16)
    assert admissibility_report("omega", 2.0, 64).ok
    assert calls == [77], calls


def test_kernel_matrix_matches_per_entry_values():
    # the array-built table sums each entry's source degrees in the order
    # the per-(l, k) formula does, so the two agree exactly; degree 70
    # reads the moments of two caps
    for fam in ("omega", "upsilon"):
        for rho in (0.3, 1.0, 2.5):
            got = admissibility._kernel_matrix(fam, rho, 33)
            assert np.array_equal(
                got, oracles.per_entry_kernel_matrix(fam, rho, 33)), (fam, rho)
        got = admissibility._kernel_matrix(fam, 0.7, 70)
        assert np.array_equal(got, oracles.per_entry_kernel_matrix(fam, 0.7,
                                                                   70)), fam
