"""Wavelet Fourier coefficients and frame-condition verification.

For a separable kernel Psi = profile(theta) * window(phi) the Fourier
coefficients factor as

    Psi_l^k = (-1)^|k| c_k(tau) * int Q_l^|k|(theta) profile(theta) sin dtheta

with c_k the window coefficient (zero for even k). The kernel itself is
defined in profiles: the window coefficients, their cut default_k_cut and
the series weights w_n of the profile sum_n w_n r^n sin^5(theta)
P_n(cos theta) are all taken from there. The theta integral is a
polynomial in r = exp(-rho) with coefficients w_n H[n, l, k], where

    H[n, l, k] = int_{-1}^{1} (1 - t^2)^{5/2} P_n(t) Q_l^k(t) dt.

H vanishes for n > l + 5 and for n + l even; for k <= 5 it is additionally
banded (zero unless |n - l| <= 5). The integrands are polynomials for odd
k, so Gauss-Legendre evaluates them exactly. The scale integrals
G(l) = sum_k int |Psi_l^k|^2 drho/rho reduce to int rho p(r)^2 drho, a
finite sum that is taken exactly.  Its error at k = 1 (6.1e-8 relative
at l = 160) comes from the float moments H, not from the integration.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sphfn import (CoefficientTable, degree_orders, legendre_P_all,
                    normalized_assoc_column)
from .profiles import (FAMILY_ORDER, _check_family, _check_tau, _p1_expansion,
                       _series_weight, angular_coefficient, default_k_cut,
                       window_weights)

# low-degree energy above this is reported as a violated vanishing condition
VANISH_TOL = 1e-10
# allowed overshoot of the analytic upper frame constant
BOUND_SLACK = 1e-6


# ---------------------------------------------------------------------------
# banded profile moments and the coefficient polynomial in r

@lru_cache(maxsize=None)
def _moment_rule(cap):
    """Gauss-Legendre nodes t and w (1-t^2)^{5/2} P_n(t), n <= cap+5."""
    t, w = np.polynomial.legendre.leggauss(cap + 13)
    return t, legendre_P_all(cap + 5, t) * (w * (1.0 - t * t) ** 2.5)


@lru_cache(maxsize=None)
def _moment_matrix(k, cap):
    """H[n, l-k] = int (1-t^2)^{5/2} P_n(t) Q_l^k(t) dt for n <= cap+5, l <= cap.

    Polynomial integrands for odd k, so one Gauss-Legendre rule sized for
    the largest degree is exact for every entry. For k <= 5 the entries
    with |n - l| > 5 vanish identically (the weight splits off a polynomial
    factor orthogonal to the higher degree); for k >= 7 all source degrees
    n <= l + 5 of parity opposite to l contribute.
    """
    t, pw = _moment_rule(int(cap))
    H = pw @ normalized_assoc_column(k, t, cap).T
    if k <= 5:
        H[np.abs(np.arange(cap + 6)[:, None] - np.arange(k, cap + 1)) > 5] = 0
    return H


def _coefficient_polynomial(family, l, k):
    """Degrees and coefficients of sum_n w_n H[n,l,k] r^n over the sources
    n of l (n + l odd, n <= l + 5) whose term is not zero."""
    H = _moment_matrix(k, 64 * ((max(l, k) + 63) // 64))
    n = np.arange(1 + l % 2, l + 6, 2)
    c = _series_weight(family, n) * H[n, l - k]
    return tuple(n[c != 0].tolist()), tuple(c[c != 0])


# ---------------------------------------------------------------------------
# coefficients

def _profile_coefficient(family, rho, l, ka):
    """tau-free factor P_l^k of the coefficient at odd order ka = |k| >= 1."""
    return _kernel_matrix(family, rho, l)[l, l + ka]


def wavelet_coefficient(spec, l, k):
    """Fourier coefficient of the kernel at degree l, order k.

    Real for this kernel class; identically zero for even k.  Steerable:
    the selectivity enters only as the window coefficient c_|k|(tau).
    """
    if abs(k) > l:
        raise IndexError("order exceeds degree")
    if k % 2 == 0:
        return 0.0j
    return complex(angular_coefficient(spec.tau, abs(k))
                   * _profile_coefficient(spec.family, spec.rho, l, abs(k)))


@lru_cache(maxsize=64)
def _kernel_matrix(family, rho, l_band):
    """tau-free factors P_l^k as a dense (l, k) matrix, index [l, k + l_band];
    the kernel of selectivity tau is window_weights(tau) * P.  Cached per
    (family, rho, l_band) and read-only."""
    _check_family(family)
    # coefficients of r^n in P_l^k at [n, k // 2, l], w_n times the P_l^1
    # expansion (k = 1) or the moments, zero unless n + l odd, n <= l + 5
    terms = np.zeros((l_band + 6, (l_band + 1) // 2, l_band + 1))
    for n in range(1, l_band + 6):
        for l, c in _p1_expansion(n).items():
            if l <= l_band:
                terms[n, 0, l] = c
    for k in range(3, l_band + 1, 2):
        for cap in range(64 * ((k + 63) // 64), l_band + 64, 64):
            lo, hi = max(k, cap - 63), min(cap, l_band) + 1
            terms[:hi + 5, k // 2, lo:hi] = \
                _moment_matrix(k, cap)[:hi + 5, lo - k:hi - k]
    n, l = np.arange(l_band + 6)[:, None, None], np.arange(l_band + 1)
    terms *= np.where(((n + l) % 2 == 1) & (n <= l + 5),
                      _series_weight(family, n), 0)
    # ascending n, with r^n as the per-entry sums took it: a 0-d array for
    # order 1 and a numpy scalar for the others (the two round apart)
    r = np.exp(-rho)
    acc = np.zeros(terms.shape[1:])
    for n, t in enumerate(terms):
        acc += t * np.array([np.asarray(r) ** n] + [r ** n] * (len(acc) - 1))[
            :, None]
    k = np.arange(1, l_band + 1, 2)
    pref = np.full(acc.shape, -rho / (4.0 * np.pi))
    pref[:1] = (-rho / (2.0 * np.sqrt(2.0 * np.pi) * np.pi)
                * np.sqrt(l * (l + 1) / (2.0 * (2 * l + 1))))
    mat = np.zeros((l_band + 1, 2 * l_band + 1))
    mat[:, l_band + k] = mat[:, l_band - k] = np.where(k[:, None] <= l,
                                                       pref * acc, 0.0).T
    mat.flags.writeable = False
    return mat


def wavelet_coefficient_table(spec, l_band):
    """CoefficientTable of the kernel's coefficients up to l_band."""
    l_of, m_of = degree_orders(l_band)
    kern = (_kernel_matrix(spec.family, spec.rho, l_band)
            * window_weights(spec.tau, l_band))
    return CoefficientTable(l_band, kern[l_of, m_of + l_band].astype(complex))


# ---------------------------------------------------------------------------
# admissibility integrals

@lru_cache(maxsize=None)
def _scale_integral(family, l, k):
    """R[l,k] = int_0^infty rho p(r)^2 drho = sum_s A_s / s^2 over the
    coefficients A_s of p^2, for p = sum_n c_n r^n.  The float c_n are
    dyadic rationals, so one power of two makes them integers and the sum
    is exact until its one rounding.  Independent of tau (the caller
    factors out the window coefficient); cached per (family, l, k).
    """
    degs, coefs = _coefficient_polynomial(family, l, k)
    if not degs:
        return 0.0
    ratios = [c.as_integer_ratio() for c in coefs]
    den = max(d for _, d in ratios)
    a = np.zeros((degs[-1] - degs[0]) // 2 + 1, dtype=object)
    for n, (num, d) in zip(degs, ratios):
        a[(n - degs[0]) // 2] = num * (den // d)
    squares = [(2 * degs[0] + 2 * j) ** 2 for j in range(2 * len(a) - 1)]
    common = math.lcm(*squares)
    total = sum(int(v) * (common // s)
                for v, s in zip(np.convolve(a, a), squares))
    # int / int rounds correctly, so this is the one rounding
    return total / (common * den * den)


def admissibility_integral(family, tau, l):
    """G(l) = sum over odd |k| <= min(l, K) of int |Psi_l^k|^2 drho/rho."""
    _check_family(family)
    if l < 0:
        raise ValueError("degree must be nonnegative")
    total = 0.0
    for k in range(1, min(l, default_k_cut(tau)) + 1, 2):
        ck = angular_coefficient(tau, k)
        # both signs of k contribute equally
        total += 2.0 * ck * ck / (16.0 * np.pi ** 2) * _scale_integral(family, l, k)
    return total


def analytic_upper_bound(family, tau):
    """Closed-form upper frame constant for the family at selectivity tau."""
    _check_tau(tau)
    base = (np.log(tau) + 0.5 * np.sqrt(np.pi)) / (tau * tau)
    return 2.0 * base if family == "omega" else 3.0 * base


def k1_ratio_limit(tau):
    """Large-l limit of the single-order k=1 part of G(l)/(2l+1), family omega."""
    return np.exp(-1.0 / (tau * tau)) / (2048.0 * np.pi ** 2 * tau * tau)


def k1_ratio(family, tau, l):
    """The k=+1 contribution to G(l)/(2l+1) alone (asymptote diagnostics)."""
    ck = angular_coefficient(tau, 1)
    return ck * ck / (16.0 * np.pi ** 2) * _scale_integral(family, l, 1) / (2 * l + 1)


# ---------------------------------------------------------------------------
# report

@dataclass
class AdmissibilityReport:
    family: str
    tau: float
    order: int
    g_values: np.ndarray            # G(l) for l = 0..L_max
    ratios: np.ndarray              # G(l) / (2l+1)
    lower_bound: float              # min ratio over l > order
    upper_bound: float              # max ratio over all l
    analytic_bound: float
    vanishing_residuals: np.ndarray  # G(l) for l <= order
    failures: tuple                  # human-readable violation notes

    @property
    def ok(self):
        return not self.failures

    @property
    def l_max(self):
        return len(self.g_values) - 1


def admissibility_report(family, tau, l_max):
    """Verify the two-sided frame bounds and low-degree vanishing.

    Returns a report rather than raising: violations are listed in
    .failures and flip .ok, so callers can render partial results.
    """
    _check_family(family)
    if l_max < 10:
        raise ValueError("report requires l_max of at least 10")
    order = FAMILY_ORDER[family]
    analytic = analytic_upper_bound(family, tau)
    ls = np.arange(l_max + 1)
    g = np.array([admissibility_integral(family, tau, l) for l in ls])
    ratios = g / (2.0 * ls + 1.0)
    lower = float(np.min(ratios[order + 1:]))
    upper = float(np.max(ratios))
    residuals = g[:order + 1].copy()

    failures = []
    for l in range(order + 1, l_max + 1):
        if ratios[l] <= 0.0:
            failures.append("nonpositive frame ratio %.3e at degree %d"
                            % (ratios[l], l))
    if upper > analytic * (1.0 + BOUND_SLACK):
        failures.append("max ratio %.6e exceeds analytic bound %.6e"
                        % (upper, analytic))
    for l, res in enumerate(residuals):
        if res >= VANISH_TOL:
            failures.append(
                "degree-%d energy %.3e violates the vanishing condition "
                "(nominal order %d not attained)" % (l, res, order))
    return AdmissibilityReport(
        family=family, tau=tau, order=order, g_values=g, ratios=ratios,
        lower_bound=lower, upper_bound=upper, analytic_bound=analytic,
        vanishing_residuals=residuals, failures=tuple(failures))
