"""Reference implementations that only tests compare against.

The dense frame builders are the library's former per-degree constructions:
a closed-form Hadamard factor for one selectivity per scale, and an explicit
longitudinal phase sum for per-carrier selectivities.  flat_tilt_blocks lays
the library's tilt blocks out in one flat array, and the band partition
regroups a grid's cells by latitude band.  The other functions are
independent routes to values the library computes otherwise: plain Legendre
recurrences, unit vectors and harmonics at scattered points, the rotation
matrix of three angles and pointwise rotation by it, the Legendre series
forms of the kernel profiles, the angular window's truncated odd-order
series, its slope and its norm, the profiles' theta slopes, the kernels' sup
norms on a probe lattice, the P_l^1 coefficients beta_l and gamma_l summed
one target degree at a time and the profiles rebuilt from them, the tau-free
kernel table filled one (l, k) entry at a time and the tilt store filled one
(band, degree) block at a time (the library must match both bit for bit), a
one-candidate-at-a-time argmax, the scale integrals by composite quadrature
over rho, term by term, and in float closed form, and the kernel
coefficients' printed decay bound.  The last sections hold the kernel
coefficient with tau inside its formula, the tilt blocks by complex
quadrature, and the transform by its definition, with no band operator:
W_j(c, a) = 1/(4 pi) sum_k e^{i k alpha_a} sum_l Psi_lk(tau_c) sum_m
d^l_mk(theta_c) e^{i m phi_c} f_lm, with the matched filter
|<U_g Psi_tau, f>| / ||Psi_tau|| on it, picked one candidate at a time and
refined by golden section; the kernel of the definition is the per-entry
tau-free table times the window weights.  Then the frame solve's real basis
entry by entry, the phase-sum S folded into it, and np.linalg.solve on
S = U^H S_R U from the public frame_matrix.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import fsum

import numpy as np

from sphwave.admissibility import _coefficient_polynomial, default_k_cut
from sphwave.profiles import (_check_rho, _p1_expansion, _profile_terms,
                              _series_weight, angular_coefficient, profile_fn,
                              profile_norm_sq, window_weights)
from sphwave.sphfn import (CoefficientTable, coef_index, default_grid_spec,
                           degree_orders, grid_phis, legendre_P_all,
                           legendre_rows, make_colat_grid,
                           normalized_assoc_column, synthesize_signal)
from sphwave.transform import _wigner_d, adjoint_transform
from sphwave.transform import frame_matrix as library_frame_matrix


def band_partition(grid):
    """Group cell indices by latitude band: (theta, indices, phis, measure)."""
    bands = []
    for idx, cell in enumerate(grid.cells):
        if not bands or cell.theta_lo != bands[-1][0]:
            bands.append((cell.theta_lo, cell.theta, [], [], cell.measure))
        bands[-1][2].append(idx)
        bands[-1][3].append(cell.phi)
    return [(theta, np.array(idx), np.array(phis), measure)
            for (_, theta, idx, phis, measure) in bands]


def odd_orders(l_band):
    k = np.arange(-l_band, l_band + 1)
    return k[k % 2 != 0]


def flat_tilt_blocks(theta, l_band):
    """The library's per-degree tilt blocks d^l(theta) in the flat layout
    [l*l + l + m, k + l_band], zero where |k| > l."""
    flat = np.zeros(((l_band + 1) ** 2, 2 * l_band + 1))
    for l in range(l_band + 1):
        block = _wigner_d(theta, l)
        flat[l * l:(l + 1) ** 2, l_band - l:l_band + l + 1] = block
    return flat


def frame_matrix(family, taus, grid, scales, l_band):
    """Dense frame operator on coefficient tables, uniform tau per scale.

    The axial and longitudinal sums are geometric series, so each
    latitude band contributes a closed-form Hadamard factor; only the
    band colatitudes are genuine quadrature.
    """
    n = (l_band + 1) ** 2
    l_of, m_of = degree_orders(l_band)
    ks = odd_orders(l_band)
    n_axial = len(grid.axial_angles)
    axial_gram = 2.0 * np.pi * ((ks[:, None] - ks[None, :]) % n_axial == 0)
    dm = m_of[None, :] - m_of[:, None]
    s = np.zeros((n, n), dtype=complex)
    for theta_b, idx, _, measure in band_partition(grid):
        n_cells = len(idx)
        tilt = flat_tilt_blocks(theta_b, l_band)
        hadamard = (measure * n_cells
                    * np.exp(1j * dm * np.pi / n_cells) * (dm % n_cells == 0))
        for j, rho in enumerate(scales):
            kern = kernel_matrix(family, float(rho), float(taus[j]), l_band)
            beta = np.conj(tilt * kern[l_of])[:, ks + l_band].T
            core = beta.conj().T @ axial_gram @ beta
            s += (scales.log_step / (16.0 * np.pi ** 2)) * core * hadamard
    return s


def adaptive_frame_matrix(coeffs):
    """Dense frame operator honoring per-carrier selectivities.

    Cells sharing one selectivity within a latitude band contribute a
    common kernel factor; their explicit longitudinal phase sum replaces
    the geometric-series closed form of the uniform case.
    """
    l_band = coeffs.l_band
    grid = coeffs.grid
    n = (l_band + 1) ** 2
    l_of, m_of = degree_orders(l_band)
    ks = odd_orders(l_band)
    n_axial = len(grid.axial_angles)
    axial_gram = 2.0 * np.pi * ((ks[:, None] - ks[None, :]) % n_axial == 0)
    s = np.zeros((n, n), dtype=complex)
    for theta_b, idx, phis, measure in band_partition(grid):
        tilt = flat_tilt_blocks(theta_b, l_band)
        for j, rho in enumerate(coeffs.scales):
            tau_j = coeffs.taus[j]
            band_taus = (np.full(len(idx), tau_j) if np.ndim(tau_j) == 0
                         else np.asarray(tau_j)[idx])
            for tau in np.unique(band_taus):
                sub = phis[band_taus == tau]
                kern = kernel_matrix(coeffs.family, float(rho), float(tau),
                                     l_band)
                beta = np.conj(tilt * kern[l_of])[:, ks + l_band].T
                core = beta.conj().T @ axial_gram @ beta
                carried = np.exp(1j * np.outer(m_of, sub))
                hadamard = measure * (np.conj(carried) @ carried.T)
                s += (coeffs.scales.log_step / (16.0 * np.pi ** 2)
                      ) * core * hadamard
    return s


def legendre_P(l, t):
    """Legendre polynomial P_l(t) via the stable three-term recurrence."""
    if l < 0:
        raise ValueError("degree must be non-negative")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise ValueError("argument outside [-1, 1]")
    p_prev = np.ones_like(t)
    if l == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = t.copy()
    for n in range(1, l):
        p_prev, p = p, ((2 * n + 1) * t * p - n * p_prev) / (n + 1)
    return p if p.ndim else float(p)


def assoc_legendre_P(l, k, t):
    """Associated Legendre P_l^k(t), Condon-Shortley sign included.

    Seeded from P_k^k = (-1)^k (2k-1)!! (1-t^2)^{k/2} and raised in degree.
    Plain (unnormalized) values; degrees above ~120 should use the
    normalized variant to avoid overflow in the double factorial.
    """
    if not 0 <= k <= l:
        raise ValueError("order must satisfy 0 <= k <= l")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise ValueError("argument outside [-1, 1]")
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    pkk = np.ones_like(t)
    for j in range(1, k + 1):
        pkk = -pkk * (2 * j - 1) * s
    if l == k:
        return pkk if pkk.ndim else float(pkk)
    p_prev, p = pkk, t * (2 * k + 1) * pkk
    for n in range(k + 2, l + 1):
        p_prev, p = p, ((2 * n - 1) * t * p - (n + k - 1) * p_prev) / (n - k)
    return p if p.ndim else float(p)


def sphere_points(theta, phi):
    """Unit vectors for colatitude theta, longitude phi, shape (3,) + shape."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack((np.cos(theta) * np.ones_like(phi),
                     st * np.cos(phi),
                     st * np.sin(phi)))


def spherical_harmonic(l, k, theta, phi):
    """Y_l^k(theta, phi) = (-1)^|k| Q_l^|k|(cos theta) exp(i k phi).

    Orthonormal under the unnormalized measure; Y(l, -k) = conj(Y(l, k)).
    """
    if abs(k) > l:
        raise IndexError("order exceeds degree")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ka = abs(k)
    q = normalized_assoc_column(ka, np.cos(theta), l)[l - ka]
    val = (-1.0) ** ka * q * np.exp(1j * k * phi)
    return val if np.ndim(val) else complex(val)


def harmonic_matrix(l_band, theta, phi):
    """All Y_l^k at scattered points: shape ((l_band+1)^2, n_points).

    theta and phi are flat arrays.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    phi = np.asarray(phi, dtype=float).ravel()
    _, m_of = degree_orders(l_band)
    return (legendre_rows(np.cos(theta), l_band)
            * np.exp(1j * np.outer(m_of, phi)))


def point_angles(xyz):
    """Inverse of sphere_points; longitude of a pole image is 0."""
    x1, x2, x3 = xyz[0], xyz[1], xyz[2]
    theta = np.arccos(np.clip(x1, -1.0, 1.0))
    phi = np.where(np.hypot(x2, x3) > 0.0, np.arctan2(x3, x2), 0.0)
    return theta, np.mod(phi, 2.0 * np.pi)


def axis_rotation(beta):
    """Rotation by beta about the pole axis (the (xi2, xi3) plane)."""
    c, s = np.cos(beta), np.sin(beta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def tilt_rotation(beta):
    """Rotation by beta in the (xi1, xi2) plane; tips the pole over."""
    c, s = np.cos(beta), np.sin(beta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_matrix(rotation):
    """Orthogonal matrix axis(phi2) @ tilt(theta2) @ axis(phi1) of a
    Rotation: applied to the pole it yields the carrier point."""
    return (axis_rotation(rotation.phi2) @ tilt_rotation(rotation.theta2)
            @ axis_rotation(rotation.phi1))


def rotate_signal_pullback(rotation, kernel):
    """Return x -> kernel(g^{-1} x) as a callable of (theta, phi)."""

    def rotated(theta, phi):
        xyz = np.tensordot(rotation_matrix(rotation).T,
                           sphere_points(theta, phi), axes=1)
        return kernel(*point_angles(xyz))

    return rotated


def _series_degree(r, tail=1e-14):
    # smallest L with (2L+1) L^2 r^L below the tail threshold
    l, term = 1, 3 * r
    while term > tail and l < 200000:
        l += 1
        term = (2 * l + 1) * l * l * r ** l
    return l


def _series_weights(kind, r, tail=1e-17):
    """Terms weight(l) r^l for l = 0..L, truncated relative to the peak.

    kind 0: weight 2l+1 (kernel); 1: (2l+1) l^2; 2: (2l+1) l (l-1).
    """
    out, peak, l, r_pow = [], 0.0, 0, 1.0
    while True:
        if kind == 0:
            w = 2 * l + 1
        elif kind == 1:
            w = (2 * l + 1) * l * l
        else:
            w = (2 * l + 1) * l * (l - 1)
        term = w * r_pow
        out.append(term)
        peak = max(peak, term)
        if l >= 6 and term < tail * (1.0 + peak):
            return np.array(out)
        if l > 100000:
            raise ValueError("series too long for this scale")
        l += 1
        r_pow *= r


def _sum_series(c, t):
    """sum_l c_l P_l(t); compensated summation for scalar arguments."""
    P = legendre_P_all(len(c) - 1, np.asarray(t, dtype=float))
    if P.ndim == 1:
        return fsum(c * P)
    return np.tensordot(c, P, axes=(0, 0))


def poisson_kernel_series(rho, theta, tail=1e-17):
    """Legendre series sum (1/4pi) sum (2l+1) r^l P_l; dual-formula oracle."""
    _check_rho(rho)
    c = _series_weights(0, np.exp(-rho), tail)
    theta = np.asarray(theta, dtype=float)
    v = _sum_series(c, np.cos(theta)) / (4.0 * np.pi)
    return v if np.ndim(v) else float(v)


def omega_profile_series(rho, theta, tail=1e-17):
    """Series form rho sin^5 / 4pi * sum (2l+1) l^2 r^l P_l."""
    _check_rho(rho)
    c = _series_weights(1, np.exp(-rho), tail)
    theta = np.asarray(theta, dtype=float)
    core = _sum_series(c, np.cos(theta))
    v = rho * np.sin(theta) ** 5 * core / (4.0 * np.pi)
    return v if np.ndim(v) else float(v)


def upsilon_profile_series(rho, theta, tail=1e-17):
    """Series form rho sin^5 / 4pi * sum (2l+1) l (l-1) r^l P_l."""
    _check_rho(rho)
    c = _series_weights(2, np.exp(-rho), tail)
    theta = np.asarray(theta, dtype=float)
    core = _sum_series(c, np.cos(theta))
    v = rho * np.sin(theta) ** 5 * core / (4.0 * np.pi)
    return v if np.ndim(v) else float(v)


def _expansion_coefficient(l, r, family):
    """beta_l(r) (omega) or gamma_l(r) (upsilon), the coefficient of P_l^1
    in (4 pi / rho) profile, summed per target degree over the source
    degrees' expansions, as the library did before its array form."""
    if l < 1:
        raise ValueError("target degree must be at least 1")
    r = np.asarray(r, dtype=float)
    acc = np.zeros_like(r)
    for n in range(max(1, l - 5), l + 6):
        w = _series_weight(family, n)
        c = _p1_expansion(n).get(l)
        if w != 0 and c is not None:
            acc = acc + w * c * r ** n
    return acc if acc.ndim else float(acc)


def profile_coefficient(family, rho, l, ka):
    """The tau-free factor P_l^k as the library computed it entry by entry
    before its array form: order 1 through the P_l^1 closed form, the
    other odd orders summing the coefficient polynomial term by term."""
    r = np.exp(-rho)
    if ka == 1:
        coef = _expansion_coefficient(l, r, family)
        return (-rho / (2.0 * np.sqrt(2.0 * np.pi) * np.pi)
                * np.sqrt(l * (l + 1) / (2.0 * (2 * l + 1))) * coef)
    degs, coefs = _coefficient_polynomial(family, l, ka)
    acc = 0.0
    for n, c in zip(degs, coefs):
        acc += c * r ** n
    return (-1.0) ** ka * rho / (4.0 * np.pi) * acc


@lru_cache(maxsize=None)
def per_entry_kernel_matrix(family, rho, l_band):
    """_kernel_matrix's [l, k + l_band] layout filled one (l, k) at a time;
    cached per (family, rho, l_band) and read-only."""
    mat = np.zeros((l_band + 1, 2 * l_band + 1))
    for l in range(1, l_band + 1):
        for k in range(1, l + 1, 2):
            mat[l, l_band + k] = mat[l, l_band - k] = \
                profile_coefficient(family, rho, l, k)
    mat.flags.writeable = False
    return mat


def exp_phase_table(phis, l_band):
    """e^{i m phi} at the longitudes phis as [cell, m + l_band], one
    np.exp per entry."""
    return np.exp(1j * np.outer(phis, np.arange(-l_band, l_band + 1)))


def per_band_tilt_store(thetas, l_band):
    """_tilt_store's [k // 2, m + l_band, l, b] layout filled with one
    _wigner_d block per (band, degree)."""
    store = np.zeros(((l_band + 1) // 2, 2 * l_band + 1, l_band + 1,
                      len(thetas)))
    for b, theta in enumerate(thetas):
        for l in range(1, l_band + 1):
            store[:(l + 1) // 2, l_band - l:l_band + l + 1, l, b] = \
                _wigner_d(theta, l)[:, l + 1::2].T
    return store


def omega_expansion_coefficient(l, r):
    """beta_l(r): the closed form for the coefficient of P_l^1 in
    (4 pi / rho) omega_rho."""
    return _expansion_coefficient(l, r, "omega")


def upsilon_expansion_coefficient(l, r):
    """gamma_l(r): the closed form for the coefficient of P_l^1 in
    (4 pi / rho) upsilon_rho."""
    return _expansion_coefficient(l, r, "upsilon")


def profile_from_expansion(family, rho, theta, l_max=None):
    """Rebuild a profile pointwise from its P_l^1 expansion (oracle use)."""
    _check_rho(rho)
    r = np.exp(-rho)
    theta = np.asarray(theta, dtype=float)
    if l_max is None:
        l_max = _series_degree(r, 1e-15) + 6
    c, s = np.cos(theta), np.sin(theta)
    # P_l^1 by upward recurrence, accumulated on the fly
    acc = np.zeros_like(theta)
    p_prev = -s                      # P_1^1
    p = -3.0 * c * s                 # P_2^1
    acc += _expansion_coefficient(1, r, family) * p_prev
    if l_max >= 2:
        acc += _expansion_coefficient(2, r, family) * p
    for l in range(2, l_max):
        p_prev, p = p, ((2 * l + 1) * c * p - (l + 1) * p_prev) / l
        acc += _expansion_coefficient(l + 1, r, family) * p
    v = rho * acc / (4.0 * np.pi)
    return v if v.ndim else float(v)


def _window_orders(tau):
    """Odd orders 1, 3, ..., k_max of the window's series: k is kept while
    c_k >= 1e-16 c_1 or k <= tau (the first dropped k is below 9 tau + 9)."""
    k = np.arange(1, int(9 * tau) + 10, 2)
    c = angular_coefficient(tau, k)
    return k[:np.argmin((c >= 1e-16 * c[0]) | (k <= tau))]


def window_norm_series(tau):
    """The window's squared norm summed over _window_orders, the library's
    former rule: sum_k c_k^2 / pi over the odd k > 0."""
    return float(np.sum(angular_coefficient(tau, _window_orders(tau)) ** 2)
                 / np.pi)


def window_series(tau, phi):
    """Pointwise series sum of the angular window over the library's odd
    orders (dual formula to its periodization)."""
    phi = np.asarray(phi, dtype=float)
    acc = np.zeros_like(phi)
    for k in _window_orders(tau):
        acc += angular_coefficient(tau, k) * np.cos(k * phi)
    v = acc / np.pi
    return v if v.ndim else float(v)


def window_series_dphi(tau, phi):
    """Derivative of the series sum with respect to the angle."""
    phi = np.asarray(phi, dtype=float)
    acc = np.zeros_like(phi)
    for k in _window_orders(tau):
        acc -= angular_coefficient(tau, k) * k * np.sin(k * phi)
    v = acc / np.pi
    return v if v.ndim else float(v)


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


def estimate_sup_norms(spec, n_theta=None, n_phi=None):
    """Probe-lattice estimates of sup |Psi| and sup |surface grad Psi|.

    The kernel is a separable product, so sup |Psi| factorizes exactly;
    the gradient magnitude is scanned on an outer-product lattice whose
    longitude density puts at least 8 samples on each period of the
    fastest window order.  The whole lattice is held at once, which
    stays small for tau <= 16.
    """
    if n_phi is None:
        n_phi = max(256, 8 * int(_window_orders(spec.tau)[-1]))
    if n_theta is None:
        n_theta = max(512, int(np.ceil(64.0 / min(1.0, spec.rho))))
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    prof = profile_fn(spec.family)(spec.rho, theta)
    win = window_series(spec.tau, phi)
    grad_sq = (np.outer(profile_dtheta(spec.family, spec.rho, theta), win) ** 2
               + np.outer(prof / np.sin(theta),
                          window_series_dphi(spec.tau, phi)) ** 2)
    return (float(np.max(np.abs(prof)) * np.max(np.abs(win))),
            float(np.sqrt(np.max(grad_sq))))


@dataclass
class RhoQuadrature:
    """Nodes and weights for int_0^infty F(rho) drho.

    Built by the substitution r = exp(-rho) followed by composite
    Gauss-Legendre on (0,1) with panels refined geometrically toward both
    endpoints: the r -> 0 end carries the rho -> infinity tail and the
    r -> 1 end the rho -> 0 boundary layer (including r^{2l} factors with
    large l, whose mass sits at 1 - r ~ 1/(2l)).
    """
    nodes: np.ndarray      # rho values, all > 0
    weights: np.ndarray    # weights for plain d rho integration
    r_nodes: np.ndarray    # exp(-rho), kept exact from the construction
    depth: int
    nodes_per_panel: int

    @classmethod
    def build(cls, depth=48, nodes_per_panel=32):
        # edges 1 - 2^-j collapse onto 1.0 in double precision past j = 52;
        # the skipped sliver carries rho < 1e-15 and is negligible
        right = min(depth, 50)
        edges = ([0.0] + [2.0 ** -j for j in range(depth, 0, -1)]
                 + [1.0 - 2.0 ** -j for j in range(2, right + 1)] + [1.0])
        x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
        rs, rhos, ws = [], [], []
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            if a >= 0.5:
                # work with r - 1 so rho = -log1p(d) stays positive and
                # accurate when r is within a few ulp of 1
                d = (a - 1.0) + half * (x + 1.0)
                rs.append(1.0 + d)
                rhos.append(-np.log1p(d))
            else:
                rp = a + half * (x + 1.0)
                rs.append(rp)
                rhos.append(-np.log(rp))
            ws.append(half * w)
        r = np.concatenate(rs)
        rho = np.concatenate(rhos)
        wr = np.concatenate(ws)
        if not np.all(rho > 0.0):
            raise AssertionError("quadrature produced a nonpositive scale node")
        return cls(nodes=rho, weights=wr / r, r_nodes=r,
                   depth=depth, nodes_per_panel=nodes_per_panel)

    def integrate(self, fn):
        """int_0^infty fn(rho) drho."""
        return float(np.sum(self.weights * fn(self.nodes)))

    def integrate_scale_invariant(self, fn):
        """int_0^infty fn(rho) drho / rho."""
        return float(np.sum(self.weights * fn(self.nodes) / self.nodes))

    def refine(self):
        """A strictly denser rule, for convergence checks."""
        return RhoQuadrature.build(self.depth + 8, self.nodes_per_panel + 8)


@lru_cache(maxsize=4)
def rho_quadrature(depth=48, nodes_per_panel=32):
    """Cached RhoQuadrature; the default (48, 32) rule and its refinement
    (56, 40) are the two rules the scale integrals are checked on."""
    return RhoQuadrature.build(depth, nodes_per_panel)


def expansion_scale_integral(family, l, quad=None):
    """int_0^infty rho * coef_l(e^{-rho})^2 drho for the P_l^1 coefficient."""
    if quad is None:
        quad = rho_quadrature()
    c = _expansion_coefficient(l, quad.r_nodes, family)
    return float(np.sum(quad.weights * quad.nodes * c * c))


def poly_scale_integral(degs, coefs, quad):
    """int_0^infty rho p(r)^2 drho on one rule, p = sum_n c_n r^n summed
    term by term, one power of r per degree."""
    r = quad.r_nodes
    acc = np.zeros_like(r)
    for n, c in zip(degs, coefs):
        acc += c * r ** n
    return float(np.sum(quad.weights * quad.nodes * acc * acc))


def float_closed_form_scale_integral(degs, coefs):
    """sum_ij c_i c_j / (n_i + n_j)^2 in float arithmetic, the library's
    former closed form; it cancels heavily as the degree grows."""
    total = 0.0
    for ni, ci in zip(degs, coefs):
        for nj, cj in zip(degs, coefs):
            total += ci * cj / float(ni + nj) ** 2
    return total


def sequential_pick(values, taus, angles, tol):
    """Argmax of one cell's (tau, angle) landscape, one candidate at a
    time in (tau asc, angle asc) order: a candidate replaces the best so
    far only when it exceeds it by more than tol.  Agrees with the
    library's pick wherever no chain of near-ties spans more than tol."""
    best = -np.inf
    pick = (0, 0)
    for it in range(values.shape[0]):
        row = values[it]
        for ia in range(values.shape[1]):
            if row[ia] > best + tol:
                best = row[ia]
                pick = (it, ia)
    return taus[pick[0]], angles[pick[1]], values[pick]


def coefficient_upper_bound(spec, l, k):
    """Decay bound on |coefficient| at odd order k, |k| <= l."""
    if abs(k) > l:
        raise IndexError("order exceeds degree")
    if k % 2 == 0:
        raise ValueError("bound applies to odd orders only")
    ka = abs(k)
    r = spec.r
    root = np.sqrt((2 * l + 1) / (2.0 * ka * (1.0 - r * r)))
    gauss = np.exp(-ka * ka / (2.0 * spec.tau ** 2))
    if spec.family == "omega":
        return 3.0 * spec.rho * r / spec.tau * root * gauss
    return 6.0 * spec.rho * r * r / spec.tau * root * gauss


# ---------------------------------------------------------------------------
# the kernel with tau inside its formula, the tilt blocks by quadrature, and
# the transform and the matched filter by their definition

def wavelet_coefficient(spec, l, k):
    """Kernel coefficient with tau inside the formula, as the library
    computed it before it factored out the window coefficient."""
    if abs(k) > l:
        raise IndexError("order exceeds degree")
    if k % 2 == 0:
        return 0.0j
    ka = abs(k)
    tau, rho, r = spec.tau, spec.rho, spec.r
    if ka == 1:
        coef = _expansion_coefficient(l, r, spec.family)
        val = (-rho / (tau * np.pi)
               * np.sqrt(l * (l + 1) / (2.0 * (2 * l + 1)))
               * coef * np.exp(-1.0 / (2.0 * tau * tau)))
    else:
        degs, coefs = _coefficient_polynomial(spec.family, l, ka)
        acc = 0.0
        for n, c in zip(degs, coefs):
            acc += c * r ** n
        val = ((-1.0) ** ka * angular_coefficient(tau, ka)
               * rho / (4.0 * np.pi) * acc)
    return complex(val)


def wavelet_coefficient_table(spec, l_band):
    """CoefficientTable of the kernel's coefficients up to l_band."""
    k_cut = default_k_cut(spec.tau)
    values = np.zeros((l_band + 1) ** 2, dtype=complex)
    table = CoefficientTable(l_band, values)
    for l in range(1, l_band + 1):
        for k in range(1, min(l, k_cut) + 1, 2):
            v = wavelet_coefficient(spec, l, k)
            table.set(l, k, v)
            table.set(l, -k, v)
    return table


@lru_cache(maxsize=None)
def tilt_blocks_flat(theta_key, l_band):
    """Flat tilt blocks by the library's former quadrature, kept
    complex: the imaginary part is the quadrature's roundoff."""
    theta = float(theta_key)
    spec = default_grid_spec(l_band)
    colat = make_colat_grid(spec.n_theta)
    tt, pp = np.meshgrid(colat.nodes, grid_phis(spec), indexing="ij")
    xyz = np.tensordot(tilt_rotation(theta).T, sphere_points(tt, pp), axes=1)
    ct = np.clip(xyz[0], -1.0, 1.0)
    ph = np.arctan2(xyz[2], xyz[1])
    l_of, m_of = degree_orders(l_band)
    proj = (legendre_rows(colat.cos_nodes, l_band) * colat.weights
            * (2.0 * np.pi / spec.n_phi))
    flat = np.zeros(((l_band + 1) ** 2, 2 * l_band + 1), dtype=complex)
    for k in range(-l_band, l_band + 1):
        ka = abs(k)
        col = normalized_assoc_column(ka, ct, l_band)
        spectra = np.fft.fft(col * ((-1.0) ** ka * np.exp(1j * k * ph)),
                             axis=-1)
        rows = l_of >= ka
        flat[rows, k + l_band] = np.sum(
            proj[rows] * spectra[l_of[rows] - ka, :, m_of[rows] % spec.n_phi],
            axis=1)
    return flat


def kernel_matrix(family, rho, tau, l_band):
    """Kernel coefficients Psi_lk(tau) = w_k(tau) P_l^k as a dense (l, k)
    matrix, index [l, k + l_band], the per-entry tau-free table times the
    window weights; an array of tau stacks one matrix per entry."""
    return per_entry_kernel_matrix(family, rho, l_band) * window_weights(
        tau, l_band)[..., None, :]


def carrier_sums(table, grid):
    """V[c, l, k + L] = sum_m d^l_mk(theta_c) e^{i m phi_c} f_lm at every
    carrier, 0 where |k| > l; d^l once per colatitude."""
    l_band = table.l_band
    thetas, band = np.unique(grid.cells.theta, return_inverse=True)
    v = np.zeros((grid.n_carriers, l_band + 1, 2 * l_band + 1), dtype=complex)
    for l in range(l_band + 1):
        rows = exp_phase_table(grid.cells.phi, l) * table.degree_block(l)
        v[:, l, l_band - l:l_band + l + 1] = np.einsum(
            "cm,cmk->ck", rows, _wigner_d(thetas, l)[band])
    return v


def correlation(v, family, rho, taus, angles):
    """W(c, a) = 1/(4 pi) sum_k e^{i k alpha_a} sum_l Psi_lk(tau_c) V[c, l,
    k + L] of the carrier sums v; taus one tau or one per carrier of v."""
    l_band = v.shape[1] - 1
    psi = kernel_matrix(family, float(rho), np.broadcast_to(taus, len(v)),
                        l_band)
    return np.sum(v * psi, 1) @ np.exp(1j * np.outer(
        np.arange(-l_band, l_band + 1), angles)) / (4.0 * np.pi)


def matched_value(v, family, rho, tau, angles):
    """|<U_g Psi_tau, f>| / ||Psi_tau||, the window's norm by its series."""
    return 4.0 * np.pi * np.abs(correlation(v, family, rho, tau, angles)) / (
        np.sqrt(profile_norm_sq(family, rho) * window_norm_series(tau)))


def definition_scan(v, family, scales, tsel, angles, tol):
    """(tau_star, phi1_star, value) per (scale, carrier) of v: each cell's
    sequential_pick of matched_value over the set and the angles."""
    out = np.empty((3, len(scales), len(v)))
    for j, rho in enumerate(scales):
        land = np.stack([matched_value(v, family, rho, t, angles)
                         for t in tsel], 1)    # [cell, tau, angle]
        for c, values in enumerate(land):
            out[:, j, c] = sequential_pick(values, tsel.taus, angles, tol)
    return out


def definition_refine(v, family, rho, tsel, tau0, phi1):
    """(tau, phi1, value): golden_section to 1e-4 on matched_value at the
    one carrier of v and the angle phi1, from the set member tau0."""

    def score(tau):
        return float(matched_value(v, family, rho, tau, [phi1])[0, 0])

    tau = 0.5 * sum(golden_section(score, tau0, tsel, 1e-4))
    return tau, phi1, score(tau)


def golden_section(score, tau0, tsel, tol):
    """The refine's golden-section search from the discrete winner tau0 over
    the bracket between its neighbors in the set (1 and the cap at its
    ends): (a, b) at the end."""
    taus = tuple(tsel)
    i0 = taus.index(tau0)
    a = taus[i0 - 1] if i0 > 0 else 1.0
    b = taus[i0 + 1] if i0 + 1 < len(taus) else tsel.tau_cap
    gr = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = score(c), score(d)
    for _ in range(60):
        if b - a < tol * max(1.0, a):
            break
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = score(d)
        else:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = score(c)
    return a, b


# ---------------------------------------------------------------------------
# the real harmonic basis of the frame solve, and a complex-basis solve

def real_basis(l_band):
    """The unitary U from flat coefficient tables to the real basis, in the
    paired order: f_l0 for l = 0..L, then c_lm = (f_lm + f_l,-m) / sqrt 2
    and then s_lm = i (f_l,-m - f_lm) / sqrt 2, each for m = 1..L and l =
    m..L.  A real signal has real c and s."""
    n = (l_band + 1) ** 2
    u = np.zeros((n, n), dtype=complex)
    for row, l in enumerate(range(l_band + 1)):
        u[row, coef_index(l, 0)] = 1.0
    pairs = [(l, m) for m in range(1, l_band + 1)
             for l in range(m, l_band + 1)]
    g = np.sqrt(0.5)
    for i, (l, m) in enumerate(pairs):
        c, s = l_band + 1 + i, l_band + 1 + len(pairs) + i
        u[c, coef_index(l, m)] = u[c, coef_index(l, -m)] = g
        u[s, coef_index(l, m)], u[s, coef_index(l, -m)] = -1j * g, 1j * g
    return u


def folded_frame_matrix(coeffs):
    """adaptive_frame_matrix in the real basis, U S U^H: complex, with an
    imaginary part that is roundoff, to compare with the library's S_R."""
    u = real_basis(coeffs.l_band)
    return u @ adaptive_frame_matrix(coeffs) @ u.conj().T


def reference_solve(coeffs):
    """The signal of np.linalg.solve on S = U^H S_R U, S_R the public
    frame_matrix, in the degree-major order on the degrees l >= 1, with the
    adjoint image of coeffs (an unscaled LU in the paired order interleaves
    the graded degrees)."""
    u = real_basis(coeffs.l_band)
    s = u.conj().T @ library_frame_matrix(
        coeffs.family, coeffs.taus, coeffs.grid, coeffs.scales,
        coeffs.l_band) @ u
    table = CoefficientTable(coeffs.l_band)
    table.values[1:] = np.linalg.solve(
        s[1:, 1:], adjoint_transform(coeffs).values[1:])
    return synthesize_signal(table, default_grid_spec(coeffs.l_band))
