"""Package-level acceptance checks with quantitative tolerances.

Each test exercises one quantitative guarantee end to end.  The
admissibility check reads the report's low-degree residuals up to each
family's nominal vanishing order: G(0) must vanish, and the upsilon
family's degree-1 energy, which its kernels do not make vanish, must equal
its exact rational value.  At degree 160 the k = +-1 energy ratio must
follow its l^-8 asymptote, not the flat level k1_ratio_limit, which these
kernels do not reach (test_admissibility pins the decay); see the README
for the derivations.
"""

import math
from math import fsum

import numpy as np

from sphwave.admissibility import (admissibility_report, k1_ratio,
                                   wavelet_coefficient,
                                   wavelet_coefficient_table)
from sphwave.multiselect import SelectivitySet, select_tau
from sphwave.profiles import (WaveletSpec, omega_profile, poisson_kernel,
                              upsilon_profile, wavelet_norm_sq)
from sphwave.sphfn import (CoefficientTable, analyze_signal, coef_index,
                           default_grid_spec, synthesize_signal)
from sphwave.so3 import make_rotation, make_scale_sequence, make_so3_grid
from sphwave.transform import (FrameOperatorConfig, forward_transform,
                               reconstruct, rotate_coefficients,
                               uniform_specs)

from oracles import (assoc_legendre_P, coefficient_upper_bound,
                     estimate_sup_norms, omega_expansion_coefficient,
                     omega_profile_series, poisson_kernel_series,
                     profile_from_expansion, rho_quadrature,
                     upsilon_expansion_coefficient, upsilon_profile_series)


def test_closed_form_integrals():
    # scale integrals of the geometric kernel series; 1 - e^{-2 rho} is
    # evaluated with expm1 so boundary-layer nodes cannot divide by zero
    quad = rho_quadrature()
    got = quad.integrate(lambda r: -r * np.exp(-2.0 * r) / np.expm1(-2.0 * r))
    want = np.pi ** 2 / 24.0
    assert abs(got - want) < 1e-10 * want

    got = quad.integrate(lambda r: -r * np.exp(-4.0 * r) / np.expm1(-2.0 * r))
    want = (np.pi ** 2 - 6.0) / 24.0
    assert abs(got - want) < 1e-10 * want

    # associated Legendre normalization over the open interval
    u, w = np.polynomial.legendre.leggauss(60)
    for l in range(1, 11):
        for k in range(1, l + 1):
            p = assoc_legendre_P(l, k, u)
            got = np.sum(w * p * p / (1.0 - u * u))
            want = math.factorial(l + k) / (k * math.factorial(l - k))
            assert abs(got - want) < 1e-8 * want, (l, k)


def test_profile_dual_forms():
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.05, 5.0, 500)
    theta = rng.uniform(0.0, np.pi, 500)
    pairs = ((poisson_kernel, poisson_kernel_series),
             (omega_profile, omega_profile_series),
             (upsilon_profile, upsilon_profile_series))
    for rational, series in pairs:
        for r, t in zip(rho, theta):
            a = rational(r, t)
            b = series(r, t)
            assert abs(a - b) < 1e-10 * abs(a), (rational.__name__, r, t)


def _p1_projection(n, l, u, w):
    # coefficient of P_l^1 in sin^5(theta) P_n via exact Gauss quadrature
    dpl = np.polynomial.legendre.Legendre.basis(l).deriv()(u)
    pn = np.polynomial.legendre.Legendre.basis(n)(u)
    integral = np.sum(w * (1.0 - u * u) ** 3 * pn * (-dpl))
    return integral * (2 * l + 1) / (2.0 * l * (l + 1))


def test_expansion_closed_forms():
    u, w = np.polynomial.legendre.leggauss(80)
    cases = ((omega_expansion_coefficient, lambda n: n * n),
             (upsilon_expansion_coefficient, lambda n: n * (n - 1)))
    for closed, weight in cases:
        for r in (0.1, 0.5, 0.9):
            for l in range(9, 41):
                proj = fsum(weight(n) * (2 * n + 1) * r ** n
                            * _p1_projection(n, l, u, w)
                            for n in range(max(1, l - 5), l + 6)
                            if weight(n) != 0)
                got = closed(l, r)
                assert abs(got - proj) < 1e-8 * abs(proj), (closed, l, r)

    # the assembled expansions reproduce the profiles pointwise
    theta = np.linspace(1e-3, np.pi - 1e-3, 211)
    for family, direct in (("omega", omega_profile),
                           ("upsilon", upsilon_profile)):
        for rho in (0.3, 1.0):
            a = profile_from_expansion(family, rho, theta)
            b = direct(rho, theta)
            assert np.max(np.abs(a - b)) < 1e-9, (family, rho)


def _upsilon_degree_one_energy(tau):
    # G(1) = (2/3) e^{-1/tau^2} / (pi^2 tau^2) int rho gamma_1(e^-rho)^2 drho
    # and the integral is 152/3025 in exact rationals (README, "Tests")
    return (304.0 * math.exp(-1.0 / tau ** 2)
            / (9075.0 * math.pi ** 2 * tau ** 2))


def _k1_ratio_asymptote(tau, l):
    # int rho beta_l(e^-rho)^2 drho ~ (2025/2) l^-8 and the prefactor
    # l(l+1) / (2 (2l+1)^2) tends to 1/8 (README, "Tests")
    return (2025.0 * math.exp(-1.0 / tau ** 2)
            / (16.0 * math.pi ** 2 * tau ** 2 * float(l) ** 8))


def test_admissibility_bounds():
    taus = (1.0, 2.0, 4.0, 8.0, 16.0)
    violations = []
    for family in ("omega", "upsilon"):
        for tau in taus:
            rep = admissibility_report(family, tau, 64)
            # residuals up to the nominal order: G(0) vanishes, upsilon's
            # G(1) does not and is checked against its exact value
            expected = {0: 0.0}
            if family == "upsilon":
                expected[1] = _upsilon_degree_one_energy(tau)
            for l, want in expected.items():
                res = rep.vanishing_residuals[l]
                if not abs(res - want) < 1e-12 * (want if want else 1.0):
                    violations.append(
                        "%s tau=%g: G(%d) = %.16e is not within 1e-12 of "
                        "%.16e" % (family, tau, l, res, want))
            if not rep.lower_bound > 0.0:
                violations.append("%s tau=%g: ratio floor %.3e not positive"
                                  % (family, tau, rep.lower_bound))
            if not rep.upper_bound <= rep.analytic_bound * (1.0 + 1e-9):
                violations.append(
                    "%s tau=%g: max ratio %.3e exceeds the bound %.3e"
                    % (family, tau, rep.upper_bound, rep.analytic_bound))
    for tau in (1.0, 4.0):
        ratio = k1_ratio("omega", tau, 160)
        limit = _k1_ratio_asymptote(tau, 160)
        if not abs(ratio / limit - 1.0) <= 0.05:
            violations.append(
                "omega tau=%g: k=1 ratio %.3e at degree 160 is not within "
                "5%% of the l^-8 asymptote %.3e" % (tau, ratio, limit))
    assert not violations, "\n".join(violations)


def test_coefficient_magnitude_bound():
    rng = np.random.default_rng(42)
    for _ in range(200):
        family = "omega" if rng.integers(2) == 0 else "upsilon"
        spec = WaveletSpec(family, rng.uniform(0.05, 4.0),
                           rng.uniform(1.0, 16.0))
        l = int(rng.integers(1, 65))
        ks = list(range(1, l + 1, 2))
        k = ks[rng.integers(len(ks))]
        v = abs(wavelet_coefficient(spec, l, k))
        bound = coefficient_upper_bound(spec, l, k)
        assert v <= bound * (1.0 + 1e-12), (family, spec.rho, spec.tau, l, k)


def test_frame_round_trip():
    rng = np.random.default_rng(1016)
    n = 17 * 17
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vec[:coef_index(0, 0) + 1] = 0.0     # no content at the excluded degree
    f = synthesize_signal(CoefficientTable(16, vec), default_grid_spec(16))
    fnorm = np.sqrt(np.sum(np.abs(f.values) ** 2))
    scales = make_scale_sequence(1.0, 0.5, 2)
    specs = uniform_specs("omega", 2.0, scales)

    grid = make_so3_grid(0.2, 0.2)
    coeffs = forward_transform(f, specs, grid, scales)
    assert not coeffs.under_resolved
    rec = reconstruct(coeffs)
    err = np.sqrt(np.sum(np.abs(rec.values - f.values) ** 2)) / fnorm
    assert err < 1e-3

    # refinement sweep at a fixed iteration budget is strictly monotone
    cfg = FrameOperatorConfig(max_iterations=6, tolerance=1e-15,
                              strict=False)
    errs = []
    for delta in (0.30, 0.25, 0.20):
        g = make_so3_grid(delta, delta)
        c = forward_transform(f, specs, g, scales)
        r = reconstruct(c, cfg)
        errs.append(np.sqrt(np.sum(np.abs(r.values - f.values) ** 2))
                    / fnorm)
    assert errs[0] > errs[1] > errs[2], errs


def test_matched_filter_recovery():
    grid = make_so3_grid(0.4, 0.2)
    scales = make_scale_sequence(1.0, 0.5, 1)
    tsel = SelectivitySet()
    carrier = 40
    phi1_0 = float(grid.axial_angles[5])

    def planted(l_band, spec, at, amp=1.0):
        cell = grid.cells[at]
        table = wavelet_coefficient_table(spec, l_band)
        out = rotate_coefficients(table, make_rotation(phi1_0, cell.theta,
                                                       cell.phi))
        out.values *= amp
        return out

    for tau0 in (1.0, 4.0, 16.0):
        spec = WaveletSpec("omega", 1.0, tau0)
        table = planted(24, spec, carrier)
        f = synthesize_signal(table, default_grid_spec(24))
        tau, phi1, value = select_tau(f, scales, 0, carrier, tsel, grid)
        assert (tau, phi1) == (tau0, phi1_0), tau0

        # exhaustive search over the same candidate set, independently
        fhat = analyze_signal(f)
        cell = grid.cells[carrier]
        vals = np.empty((len(tsel), len(grid.axial_angles)))
        for it, t in enumerate(tsel):
            cand = WaveletSpec("omega", 1.0, t)
            ktab = wavelet_coefficient_table(cand, 24)
            norm = np.sqrt(wavelet_norm_sq(cand))
            for ia, a in enumerate(grid.axial_angles):
                rot = rotate_coefficients(
                    ktab, make_rotation(float(a), cell.theta, cell.phi))
                vals[it, ia] = abs(np.vdot(rot.values, fhat.values)) / norm
        # odd axial orders score phi1 and phi1 + pi alike, so apply
        # select_tau's tie rule: first of (tau asc, angle asc) at the max
        it, ia = np.argwhere(vals >= vals.max() * (1.0 - 1e-12))[0]
        assert tau == tsel.taus[it], tau0
        assert phi1 == grid.axial_angles[ia], tau0
        assert abs(value - vals[it, ia]) < 1e-10 * value, tau0

    # a two-feature signal picks the higher selectivity at the sharper one
    spec_b = WaveletSpec("omega", 1.0, 1.0)
    spec_s = WaveletSpec("omega", 1.0, 8.0)
    fb = planted(16, spec_b, 40, 1.0 / np.sqrt(wavelet_norm_sq(spec_b)))
    fs = planted(16, spec_s, 150, 1.0 / np.sqrt(wavelet_norm_sq(spec_s)))
    f = synthesize_signal(CoefficientTable(16, fb.values + fs.values),
                          default_grid_spec(16))
    tau_b, _, _ = select_tau(f, scales, 0, 40, tsel, grid)
    tau_s, _, _ = select_tau(f, scales, 0, 150, tsel, grid)
    assert tau_s > tau_b, (tau_b, tau_s)


def test_sup_norm_behavior():
    taus = (1.0, 2.0, 4.0, 8.0, 16.0)
    for rho in (0.5, 1.0):
        sups = []
        grads = []
        for tau in taus:
            s, g = estimate_sup_norms(WaveletSpec("omega", rho, tau))
            sups.append(s)
            grads.append(g)
        assert all(a <= b for a, b in zip(grads, grads[1:])), rho
        assert (max(sups) - min(sups)) / min(sups) < 0.05, rho
