"""Kernel definition: angular window, Poisson kernel, colatitude profiles.

The directional kernels are separable products of a colatitude profile and
a difference-of-Gaussians angular window,

    Omega(theta, phi) = omega_rho(theta) * angular_window(tau, phi)
    Upsilon(theta, phi) = upsilon_rho(theta) * angular_window(tau, phi)

The window is evaluated in its periodized form; its series, its odd-order
Fourier coefficients and both cuts of them (_window_orders for the norm,
default_k_cut for the kernel tables) are defined here only, as array
rules: a cut evaluates its rule over a bounded odd range of orders, and
window_weights builds the rows of many tau in one expression.  omega_rho
comes from the first and upsilon_rho from the second radial derivative of
the Poisson kernel, damped by sin^5(theta). Each profile is the series
sum_n w_n r^n sin^5(theta) P_n with the weights of _series_weight, has a
rational closed form, and an expansion in first-order associated Legendre
functions whose coefficients (beta_l for omega, gamma_l for upsilon) are
rational in l and polynomial in r = exp(-rho).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# smallest supported scale: the rational forms lose accuracy below this
RHO_MIN = 1e-4
# largest supported selectivity: the window's series, and with it the norm
# and the sup-norm lattice, grows linearly in tau (about 4.3 tau orders)
TAU_MAX = 1e4

FAMILIES = ("omega", "upsilon")
# nominal vanishing order per family (the admissibility report checks that
# degrees l <= order carry no energy); the measured degree-1 content of
# upsilon is in fact nonzero, see _expansion_coefficient(1, r, "upsilon")
FAMILY_ORDER = {"omega": 0, "upsilon": 1}


@dataclass
class WaveletSpec:
    """One kernel: family tag, scale rho > 0, angular selectivity tau >= 1."""
    family: str
    rho: float
    tau: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("family must be one of %s" % (FAMILIES,))
        if not 0 < self.rho < np.inf:
            raise ValueError("scale must be positive and finite")
        _check_tau(self.tau)

    @property
    def r(self):
        return np.exp(-self.rho)

    @property
    def order(self):
        return FAMILY_ORDER[self.family]


# ---------------------------------------------------------------------------
# angular window

def dog_window(tau, phi):
    """Difference of opposed Gaussians: exp(-t^2 p^2/2) - exp(-t^2 (p-pi)^2/2)."""
    phi = np.asarray(phi, dtype=float)
    v = (np.exp(-0.5 * tau * tau * phi ** 2)
         - np.exp(-0.5 * tau * tau * (phi - np.pi) ** 2))
    return v if v.ndim else float(v)


def _check_tau(tau):
    if not 1 <= tau <= TAU_MAX:
        raise ValueError("selectivity must be a number in [1, %g]" % TAU_MAX)


def _periodization_count(tau):
    # tail of the dropped Gaussians below 1e-16: tau^2 (2 pi J - pi)^2 / 2 > 38
    return max(2, int(np.ceil((np.sqrt(76.0) / tau + np.pi) / (2.0 * np.pi))))


def angular_window(tau, phi):
    """2 pi periodization of the difference-of-Gaussians window."""
    _check_tau(tau)
    phi = np.mod(np.asarray(phi, dtype=float), 2.0 * np.pi)
    J = _periodization_count(tau)
    v = np.zeros_like(phi)
    for j in range(-J, J + 1):
        v += dog_window(tau, phi + 2.0 * np.pi * j)
    return v if v.ndim else float(v)


def angular_window_dphi(tau, phi):
    """Derivative of the periodized window with respect to phi."""
    _check_tau(tau)
    phi = np.mod(np.asarray(phi, dtype=float), 2.0 * np.pi)
    J = _periodization_count(tau)
    v = np.zeros_like(phi)
    t2 = tau * tau
    for j in range(-J, J + 1):
        p = phi + 2.0 * np.pi * j
        v += -t2 * (p * np.exp(-0.5 * t2 * p ** 2)
                    - (p - np.pi) * np.exp(-0.5 * t2 * (p - np.pi) ** 2))
    return v if v.ndim else float(v)


def angular_coefficient(tau, k):
    """Fourier coefficient of the angular window: int_0^{2pi} f e^{-ik phi},
    zero for even k and 2 sqrt(2 pi)/tau * exp(-k^2/(2 tau^2)) for odd k.
    k may be an integer array, and tau broadcasts against it."""
    k = np.asarray(k)
    c = np.where(k % 2 == 1, 2.0 * np.sqrt(2.0 * np.pi) / tau
                 * np.exp(-k * k / (2.0 * tau * tau)), 0.0)
    return c if c.ndim else float(c)


def _window_orders(tau):
    """Odd orders 1, 3, ..., k_max of the window's series: k is kept while
    c_k >= 1e-16 c_1 or k <= tau (the first dropped k is below 9 tau + 9)."""
    k = np.arange(1, int(9 * tau) + 10, 2)
    c = angular_coefficient(tau, k)
    return k[:np.argmin((c >= 1e-16 * c[0]) | (k <= tau))]


def _tail_keeps(k, tau):
    """The Gaussian-tail rule of default_k_cut, monotone in k: does
    exp(-k^2/tau^2)/k stay at or above 1e-14?"""
    return np.exp(-k * k / (tau * tau)) / k >= 1e-14


def default_k_cut(tau):
    """Smallest odd K with exp(-K^2/tau^2)/K below 1e-14 (Gaussian tail),
    which is below 6 tau + 9."""
    _check_tau(tau)
    k = np.arange(1, int(6 * tau) + 10, 2)
    return int(k[np.argmin(_tail_keeps(k, tau))])


def window_weights(taus, l_band):
    """Window coefficients w_k(tau) for k in [-l_band, l_band]: c_|k|(tau)
    at odd |k| <= default_k_cut(tau), zero elsewhere.  One row per
    entry of taus (a scalar, or an array of any shape)."""
    uniq, inverse = np.unique(np.asarray(taus, dtype=float),
                              return_inverse=True)
    k, t = np.abs(np.arange(-l_band, l_band + 1)), uniq[:, None]
    # an odd |k| is at most the cut where the rule still keeps |k| - 2
    rows = np.where(_tail_keeps(np.maximum(k - 2, 1), t),
                    angular_coefficient(t, k), 0.0)
    return rows[inverse].reshape(np.shape(taus) + (-1,))


# ---------------------------------------------------------------------------
# Poisson kernel and colatitude profiles

def _check_rho(rho):
    if not 0 < rho < np.inf:
        raise ValueError("scale must be positive and finite")
    if rho < RHO_MIN:
        raise ValueError("scale below supported range %g" % RHO_MIN)


def poisson_kernel(rho, theta):
    """(1/4pi) (1 - r^2) / (1 - 2 r cos(theta) + r^2)^{3/2}, r = exp(-rho)."""
    _check_rho(rho)
    r = np.exp(-rho)
    c = np.cos(np.asarray(theta, dtype=float))
    d = 1.0 - 2.0 * r * c + r * r
    v = (1.0 - r * r) / (4.0 * np.pi * d ** 1.5)
    return v if v.ndim else float(v)


def _profile_terms(family, rho, theta):
    """r = exp(-rho), cos(theta), sin(theta), d = 1 - 2 r cos(theta) + r^2
    and the numerator of the family's rational profile."""
    _check_rho(rho)
    r = np.exp(-rho)
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    if family == "omega":
        num = (r * (10.0 - 19.0 * r * r + r ** 4)
               - (3.0 - 14.0 * r * r - 5.0 * r ** 4) * c
               - r * (9.0 - r * r) * c * c)
    else:
        num = (5.0 - 23.0 * r * r + 2.0 * r ** 4
               + 4.0 * r * (7.0 + r * r) * c
               - (15.0 + r * r) * c * c)
    return r, c, s, 1.0 - 2.0 * r * c + r * r, num


def omega_profile(rho, theta):
    """First radial-derivative profile, rational closed form.

    omega_rho = rho sin^5(theta) r d_r (r d_r p_rho).
    """
    r, c, s, d, num = _profile_terms("omega", rho, theta)
    v = -rho * r * num * s ** 5 / (4.0 * np.pi * d ** 3.5)
    return v if v.ndim else float(v)


def upsilon_profile(rho, theta):
    """Second radial-derivative profile, rational closed form.

    upsilon_rho = rho sin^5(theta) r^2 d_r^2 p_rho.
    """
    r, c, s, d, num = _profile_terms("upsilon", rho, theta)
    v = -rho * r * r * num * s ** 5 / (4.0 * np.pi * d ** 3.5)
    return v if v.ndim else float(v)


def profile_fn(family):
    return omega_profile if family == "omega" else upsilon_profile


def profile_dtheta(family, rho, theta):
    """Analytic theta-derivative of the family's rational profile."""
    r, c, s, d, num = _profile_terms(family, rho, theta)
    if family == "omega":
        scale = -rho * r
        dnum_dc = (-(3.0 - 14.0 * r * r - 5.0 * r ** 4)
                   - 2.0 * r * (9.0 - r * r) * c)
    else:
        scale = -rho * r * r
        dnum_dc = 4.0 * r * (7.0 + r * r) - 2.0 * (15.0 + r * r) * c
    # d/dtheta of num s^5 d^{-7/2}: s^4 (5 c num - s^2 num' - 7 r s^2 num / d)
    v = (scale / (4.0 * np.pi) * s ** 4
         * (5.0 * c * num - s * s * dnum_dc - 7.0 * r * s * s * num / d)
         / d ** 3.5)
    return v if v.ndim else float(v)


# ---------------------------------------------------------------------------
# sin^5 expansion and the P_l^1 coefficients beta_l / gamma_l

def sin5_legendre_expansion(l):
    """Coefficients of (2l+1) sin^5(theta) P_l in the first-order basis.

    Returns {offset: coefficient} for the terms P_{l+offset}^1,
    offset in (-5, -3, -1, +1, +3, +5). Valid for l >= 4; terms whose
    target degree drops below 1 multiply identically vanishing functions.
    """
    if l < 4:
        raise ValueError("expansion requires degree at least 4")
    lf = float(l)
    return {
        -5: (lf * (lf - 1) * (lf - 2) * (lf - 3)
             / ((2 * lf - 7) * (2 * lf - 5) * (2 * lf - 3) * (2 * lf - 1))),
        -3: (-lf * (lf - 1) * (5 * lf * lf - 9 * lf - 26)
             / ((2 * lf - 7) * (2 * lf - 3) * (2 * lf - 1) * (2 * lf + 3))),
        -1: (2 * (5 * lf ** 4 + 2 * lf ** 3 - 41 * lf * lf - 14 * lf + 60)
             / ((2 * lf - 5) * (2 * lf - 3) * (2 * lf + 3) * (2 * lf + 5))),
        1: (-2 * (5 * lf ** 4 + 18 * lf ** 3 - 17 * lf * lf - 54 * lf + 36)
            / ((2 * lf - 3) * (2 * lf - 1) * (2 * lf + 5) * (2 * lf + 7))),
        3: ((lf + 1) * (lf + 2) * (5 * lf * lf + 19 * lf - 12)
            / ((2 * lf - 1) * (2 * lf + 3) * (2 * lf + 5) * (2 * lf + 9))),
        5: (-(lf + 1) * (lf + 2) * (lf + 3) * (lf + 4)
            / ((2 * lf + 3) * (2 * lf + 5) * (2 * lf + 7) * (2 * lf + 9))),
    }


# Exact expansions of sin^5(theta) P_n (no 2n+1 factor) for the lowest
# degrees, where the generic offsets would reach nonexistent targets.
# Derived once symbolically from the degree ladder; keys are target degrees.
_LOW_DEGREE_P1 = {
    1: {2: Fraction(-8, 63), 4: Fraction(24, 385), 6: Fraction(-8, 693)},
    2: {1: Fraction(8, 35), 3: Fraction(-56, 495), 5: Fraction(184, 4095),
        7: Fraction(-8, 1001)},
    3: {2: Fraction(8, 77), 4: Fraction(-408, 5005), 6: Fraction(8, 231),
        8: Fraction(-8, 1287)},
}


def _p1_expansion(n):
    """{target degree m: coefficient of P_m^1 in sin^5(theta) P_n}."""
    if n <= 0:
        raise ValueError("source degree must be positive")
    if n in _LOW_DEGREE_P1:
        return {m: float(c) for m, c in _LOW_DEGREE_P1[n].items()}
    coeffs = sin5_legendre_expansion(n)
    return {n + off: c / (2 * n + 1) for off, c in coeffs.items() if n + off >= 1}


def _series_weight(family, n):
    """Weight w_n of r^n sin^5(theta) P_n in the family's profile series:
    (2n+1) n^2 for omega, (2n+1) n (n-1) for upsilon (exact integers)."""
    if family == "omega":
        return (2 * n + 1) * n * n
    return (2 * n + 1) * n * (n - 1)


def _expansion_coefficient(l, r, family):
    """beta_l(r) (omega) or gamma_l(r) (upsilon), the coefficient of P_l^1
    in (4 pi / rho) profile: sum over source degrees n of w_n r^n [coeff
    of P_l^1], terms r^{l-5}..r^{l+5}.  gamma_1 is nonzero, (16/7) r^2 -
    (2592/385) r^4 + (240/77) r^6."""
    if l < 1:
        raise ValueError("target degree must be at least 1")
    r = np.asarray(r, dtype=float)
    acc = np.zeros_like(r)
    for n in range(max(1, l - 5), l + 6):
        w = _series_weight(family, n)
        if w == 0:
            continue
        c = _p1_expansion(n).get(l)
        if c is not None:
            acc = acc + w * c * r ** n
    return acc if acc.ndim else float(acc)


# ---------------------------------------------------------------------------
# assembled kernels

def evaluate_wavelet(spec, theta, phi):
    """Separable kernel value: profile(rho, theta) * window(tau, phi)."""
    prof = profile_fn(spec.family)(spec.rho, theta)
    return prof * angular_window(spec.tau, phi)


@lru_cache(maxsize=None)
def profile_norm_sq(family, rho):
    """int_0^pi profile(theta)^2 sin(theta) dtheta by Gauss quadrature.

    Cached: it depends on (family, rho) only, and every selectivity of a
    kernel shares it.
    """
    _check_rho(rho)
    n_nodes = int(max(256, min(4000, 40.0 / max(rho, 0.02))))
    u, w = np.polynomial.legendre.leggauss(n_nodes)
    v = profile_fn(family)(rho, np.arccos(u))
    return float(np.sum(w * v * v))


def wavelet_norm_sq(spec):
    """Squared L2 norm over the sphere; separable and untruncated.

    ||Psi||^2 = int profile^2 sin dtheta * int window^2 dphi.
    """
    return profile_norm_sq(spec.family, spec.rho) * _window_norm_sq(spec.tau)


def _window_norm_sq(tau):
    """int_0^{2pi} f^2 dphi = sum_k |c_k|^2 / (2 pi), both signs of k."""
    return float(np.sum(angular_coefficient(tau, _window_orders(tau)) ** 2)
                 / np.pi)
