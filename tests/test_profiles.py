"""Kernel layer: angular window, Poisson kernel, profiles, expansions."""

from math import fsum

import numpy as np
import pytest

from sphwave.admissibility import analytic_upper_bound
from sphwave.multiselect import SelectivitySet
from sphwave.profiles import (TAU_MAX, WaveletSpec, _p1_expansion,
                              _window_norm_sq, _window_orders,
                              angular_coefficient, angular_window,
                              angular_window_dphi, default_k_cut,
                              evaluate_wavelet, omega_profile,
                              poisson_kernel, profile_dtheta, profile_fn,
                              profile_norm_sq, sin5_legendre_expansion,
                              upsilon_profile, wavelet_norm_sq,
                              window_weights)

from oracles import (assoc_legendre_P, legendre_P,
                     omega_expansion_coefficient, omega_profile_series,
                     poisson_kernel_series, profile_from_expansion,
                     upsilon_expansion_coefficient, upsilon_profile_series,
                     window_series, window_series_dphi)


def _window_quadrature(tau, k, n=4096):
    # spectrally exact Fourier projection of the periodized window
    ph = np.arange(n) * 2.0 * np.pi / n
    return np.sum(angular_window(tau, ph) * np.cos(k * ph)) * 2.0 * np.pi / n


def _p1_projection(n, l, nodes=80):
    # coefficient of P_l^1 in sin^5(theta) P_n; the integrand is the
    # polynomial -(1 - t^2)^3 P_n P_l', so Gauss quadrature is exact
    u, w = np.polynomial.legendre.leggauss(nodes)
    dpl = np.polynomial.legendre.Legendre.basis(l).deriv()(u)
    pn = np.polynomial.legendre.Legendre.basis(n)(u)
    integral = np.sum(w * (1.0 - u * u) ** 3 * pn * (-dpl))
    return integral * (2 * l + 1) / (2.0 * l * (l + 1))


def test_window_coefficients_match_quadrature():
    assert abs(angular_coefficient(1.0, 1) - 3.0406938021325614) < 1e-14
    for tau in (1.0, 2.0, 4.0):
        top = angular_coefficient(tau, 1)
        for k in range(1, 10):
            c = angular_coefficient(tau, k)
            if k % 2 == 0:
                assert c == 0.0
            assert abs(c - _window_quadrature(tau, k)) < 1e-13 * top, (tau, k)


def test_window_series_matches_periodization():
    ph = np.linspace(-2.0 * np.pi, 2.0 * np.pi, 600)
    for tau in (1.0, 3.0, 16.0):
        assert np.max(np.abs(window_series(tau, ph)
                             - angular_window(tau, ph))) < 1e-12
    assert isinstance(window_series(2.0, 0.5), float)
    assert isinstance(angular_window(2.0, 0.5), float)
    assert isinstance(angular_window_dphi(2.0, 0.5), float)


def test_window_norm_matches_quadrature():
    n = 8192
    ph = np.arange(n) * 2.0 * np.pi / n
    for tau in (1.0, 2.0, 8.0):
        ref = np.sum(angular_window(tau, ph) ** 2) * 2.0 * np.pi / n
        assert abs(_window_norm_sq(tau) - ref) < 1e-12 * ref


def test_window_derivatives():
    ph = np.linspace(0.0, 2.0 * np.pi, 160, endpoint=False)
    h = 1e-6
    for tau in (1.0, 4.0, 16.0):
        d = angular_window_dphi(tau, ph)
        fd = (angular_window(tau, ph + h) - angular_window(tau, ph - h)) / (2 * h)
        scale = np.max(np.abs(d))
        assert np.max(np.abs(d - fd)) < 1e-7 * scale, tau
        series = window_series_dphi(tau, ph)
        assert np.max(np.abs(series - d)) < 1e-10 * scale, tau


def test_window_build_and_validation():
    with pytest.raises(ValueError):
        angular_window(0.5, 0.0)
    ks = _window_orders(2.0)
    assert ks[0] == 1
    assert np.all(ks % 2 == 1)
    assert np.all(np.diff(ks) == 2)
    coefficients = np.array([angular_coefficient(2.0, k) for k in ks])
    assert np.all(coefficients > 0)
    assert coefficients[-1] < 1e-15 * coefficients[0]
    # the series stops before the first order below 1e-16 c_1
    assert coefficients[-1] >= 1e-16 * coefficients[0]
    assert angular_coefficient(2.0, ks[-1] + 2) < 1e-16 * coefficients[0]
    assert angular_coefficient(2.0, 4) == 0.0


def test_poisson_kernel_dual_forms():
    rng = np.random.default_rng(11)
    for _ in range(40):
        rho = rng.uniform(0.05, 5.0)
        theta = rng.uniform(0.01, np.pi - 0.01, 16)
        a = poisson_kernel(rho, theta)
        b = poisson_kernel_series(rho, theta)
        assert np.all(a > 0)
        assert np.max(np.abs(a - b) / a) < 1e-10, rho


def test_poisson_unit_mass():
    u, w = np.polynomial.legendre.leggauss(400)
    for rho in (0.3, 1.0, 3.0):
        mass = 2.0 * np.pi * np.sum(w * poisson_kernel(rho, np.arccos(u)))
        assert abs(mass - 1.0) < 1e-12, rho


def test_profile_dual_forms():
    rng = np.random.default_rng(13)
    theta = rng.uniform(0.02, np.pi - 0.02, 16)
    for _ in range(40):
        rho = rng.uniform(0.05, 5.0)
        for rational, series in ((omega_profile, omega_profile_series),
                                 (upsilon_profile, upsilon_profile_series)):
            a = rational(rho, theta)
            b = series(rho, theta)
            assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a)), rho


def test_profiles_are_radial_derivatives():
    # omega = rho sin^5 d^2/drho^2 of the kernel; upsilon adds d/drho
    theta = np.linspace(0.2, np.pi - 0.2, 15)
    h = 2e-3
    for rho in (0.5, 1.2):
        p0 = poisson_kernel(rho, theta)
        pp = poisson_kernel(rho + h, theta)
        pm = poisson_kernel(rho - h, theta)
        d1 = (pp - pm) / (2.0 * h)
        d2 = (pp - 2.0 * p0 + pm) / (h * h)
        damp = rho * np.sin(theta) ** 5
        om = omega_profile(rho, theta)
        up = upsilon_profile(rho, theta)
        assert np.max(np.abs(om - damp * d2)) < 1e-4 * np.max(np.abs(om))
        assert np.max(np.abs(up - damp * (d2 + d1))) < 1e-4 * np.max(np.abs(up))


def test_profile_theta_derivatives():
    theta = np.linspace(0.05, np.pi - 0.05, 80)
    h = 1e-5
    for family in ("omega", "upsilon"):
        fn = profile_fn(family)
        for rho in (0.4, 0.8):
            d = profile_dtheta(family, rho, theta)
            fd = (fn(rho, theta + h) - fn(rho, theta - h)) / (2.0 * h)
            assert np.max(np.abs(d - fd)) < 1e-7 * np.max(np.abs(d)), (family, rho)


def test_sin5_expansion_identity():
    with pytest.raises(ValueError):
        sin5_legendre_expansion(3)
    assert abs(sin5_legendre_expansion(4)[-5] - 24.0 / 105.0) < 1e-15
    rng = np.random.default_rng(12)
    t = rng.uniform(-0.999, 0.999, 40)
    s5 = (1.0 - t * t) ** 2.5
    for l in range(4, 13):
        coeffs = sin5_legendre_expansion(l)
        assert sorted(coeffs) == [-5, -3, -1, 1, 3, 5]
        lhs = (2 * l + 1) * s5 * legendre_P(l, t)
        rhs = np.zeros_like(t)
        for off, c in coeffs.items():
            if l + off >= 1:
                rhs += c * assoc_legendre_P(l + off, 1, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs)), l


def test_low_degree_expansions():
    # exact tables for sin^5 P_n, n <= 3, against the projection oracle
    expected_keys = {1: [2, 4, 6], 2: [1, 3, 5, 7], 3: [2, 4, 6, 8]}
    rng = np.random.default_rng(14)
    t = rng.uniform(-0.999, 0.999, 30)
    s5 = (1.0 - t * t) ** 2.5
    for n in (1, 2, 3):
        table = _p1_expansion(n)
        assert sorted(table) == expected_keys[n]
        rhs = np.zeros_like(t)
        for m, c in table.items():
            assert abs(c - _p1_projection(n, m)) < 1e-14, (n, m)
            rhs += c * assoc_legendre_P(m, 1, t)
        lhs = s5 * legendre_P(n, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-13, n
        for m in range(1, 10):
            if m not in table:
                assert abs(_p1_projection(n, m)) < 1e-14, (n, m)


def test_expansion_coefficients_match_projection():
    for fn, wfun in ((omega_expansion_coefficient, lambda n: n * n),
                     (upsilon_expansion_coefficient, lambda n: n * (n - 1))):
        for l in (1, 2, 3, 6, 9, 14):
            for r in (0.1, 0.5, 0.9):
                ref = fsum(wfun(n) * (2 * n + 1) * _p1_projection(n, l) * r ** n
                           for n in range(1, l + 8) if wfun(n) != 0)
                got = fn(l, r)
                assert abs(got - ref) < 1e-12 * max(1.0, abs(ref)), (fn, l, r)
    arr = omega_expansion_coefficient(3, np.array([0.2, 0.4]))
    assert arr.shape == (2,)


def test_upsilon_degree_one_content():
    # the second family only nominally kills degree 1: gamma_1 is a
    # nonzero polynomial with an isolated root between r=0.64 and r=0.66
    r = np.exp(-1.0)
    poly = (16.0 / 7.0) * r ** 2 - (2592.0 / 385.0) * r ** 4 + (240.0 / 77.0) * r ** 6
    assert abs(upsilon_expansion_coefficient(1, r) - poly) < 1e-14
    assert upsilon_expansion_coefficient(1, 0.64) > 0
    assert upsilon_expansion_coefficient(1, 0.66) < 0
    assert abs(omega_expansion_coefficient(1, 0.5)) > 0.1


def test_profile_from_expansion_reproduces_rational():
    theta = np.linspace(0.0, np.pi, 200)
    for family in ("omega", "upsilon"):
        fn = profile_fn(family)
        for rho in (0.3, 1.0):
            rebuilt = profile_from_expansion(family, rho, theta)
            assert np.max(np.abs(rebuilt - fn(rho, theta))) < 1e-9, (family, rho)


def test_norms_against_two_dimensional_quadrature():
    spec = WaveletSpec("omega", 0.7, 2.0)
    u, w = np.polynomial.legendre.leggauss(400)
    n_phi = 2048
    ph = np.arange(n_phi) * 2.0 * np.pi / n_phi
    vals = evaluate_wavelet(spec, np.arccos(u)[:, None], ph[None, :])
    ref = np.sum(w[:, None] * vals ** 2) * 2.0 * np.pi / n_phi
    assert abs(wavelet_norm_sq(spec) - ref) < 1e-10 * ref
    assert profile_norm_sq("upsilon", 1.3) > 0


def test_window_cuts_match_stepping_rule():
    # both cuts evaluate a monotone rule over a bounded range of odd
    # orders at once; stepping through them one at a time finds the same
    # smallest order.  The 686 distinct tau in [1, 16], one per carrier of
    # the L = 16 benchmark grid, run the many-tau array path
    many = np.random.default_rng(686).uniform(1.0, 16.0, 686)
    for tau in (1.0, 1.37, 2.0, 5.0, 16.0, 33.3, 100.0, 1e3, TAU_MAX, *many):
        k = 1
        while np.exp(-k * k / (tau * tau)) / k >= 1e-14:
            k += 2
        assert default_k_cut(tau) == k, tau
        ks, k = [], 1
        top = angular_coefficient(tau, 1)
        while angular_coefficient(tau, k) >= 1e-16 * top or k <= tau:
            ks.append(k)
            k += 2
        assert np.array_equal(_window_orders(tau), ks), tau
        # the norm sums the single coefficients over these orders
        c = np.array([angular_coefficient(tau, k) for k in ks])
        assert _window_norm_sq(tau) == float(np.sum(c ** 2) / np.pi), tau
    # the weights of many tau in one call are the single-tau rows, each
    # nonzero exactly at the odd |k| up to its cut
    for l_band in (12, 16):
        rows = window_weights(many, l_band)
        assert np.array_equal(
            rows, np.stack([window_weights(t, l_band) for t in many]))
        k = np.abs(np.arange(-l_band, l_band + 1))
        for tau, row in zip(many, rows):
            assert np.array_equal(row != 0.0,
                                  (k % 2 == 1) & (k <= default_k_cut(tau)))


def test_selectivity_check_everywhere():
    # one check: a selectivity is a number in [1, TAU_MAX], so NaN and
    # infinity fail everywhere a selectivity enters
    for bad in (0.5, np.nan, np.inf, 2.0 * TAU_MAX):
        for make in (lambda t: WaveletSpec("omega", 1.0, t),
                     lambda t: angular_window(t, 0.0),
                     lambda t: angular_window_dphi(t, 0.0),
                     lambda t: default_k_cut(t),
                     lambda t: analytic_upper_bound("omega", t),
                     lambda t: SelectivitySet((1.0, t), TAU_MAX),
                     lambda t: SelectivitySet((1.0, 2.0), t)):
            with pytest.raises(ValueError, match="selectivity"):
                make(bad)
    WaveletSpec("omega", 1.0, TAU_MAX)
    SelectivitySet((1.0, TAU_MAX), TAU_MAX)


def test_wavelet_spec_validation():
    with pytest.raises(ValueError):
        WaveletSpec("gauss", 1.0, 1.0)
    with pytest.raises(ValueError):
        WaveletSpec("omega", 0.0, 1.0)
    with pytest.raises(ValueError):
        WaveletSpec("omega", 1.0, 0.5)
    spec = WaveletSpec("upsilon", 2.0, 4.0)
    assert abs(spec.r - np.exp(-2.0)) < 1e-15
    assert spec.order == 1
    v = evaluate_wavelet(spec, 1.1, 0.4)
    ref = upsilon_profile(2.0, 1.1) * angular_window(4.0, 0.4)
    assert abs(v - ref) < 1e-15


def test_scale_guards():
    for bad in (0.0, -1.0, 1e-5, np.inf, np.nan):
        with pytest.raises(ValueError):
            poisson_kernel(bad, 0.5)
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive"):
            WaveletSpec("omega", bad, 2.0)
