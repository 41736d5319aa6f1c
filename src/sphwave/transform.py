"""Wavelet analysis over a rotation grid and frame-based reconstruction.

A coefficient W(rho_j, g) is the normalized inner product of the rotated
kernel with the signal, 1/(4 pi) <U_g Psi, f>.  Everything runs in
harmonic space: rotating a kernel multiplies its coefficient table by
per-degree real Wigner blocks, so one tilt block per latitude band
(cached) plus diagonal phase factors cover the whole grid.  The kernel
is steerable, Psi_l^k(tau) = w_k(tau) P_l^k: a BandPlan joins a band's
tilt blocks with the tau-free P into one real matrix beta per band and
scale, and a selectivity only weights each cell's axial orders.  The
forward transform, adjoint, matched-filter landscape and frame operator
S are products with beta per band and scale; S pays one phase factor per
ring of equal-longitude bands, and Jacobi-preconditioned CG inverts it.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sphfn import (CoefficientTable, analyze_signal, default_grid_spec,
                    degree_orders, synthesize_signal)
from .profiles import WaveletSpec, default_k_cut, window_weights
from .admissibility import _kernel_matrix


@dataclass
class FrameOperatorConfig:
    """Iteration controls for inverting the frame operator: tolerance
    bounds the Jacobi-scaled relative residual ||D^-1 r|| / ||D^-1 b||
    (D the frame diagonal)."""

    max_iterations: int = 200
    tolerance: float = 1e-10
    strict: bool = True

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("residual tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


class FrameConvergenceError(RuntimeError):
    """Raised when the frame solve stalls; carries the scaled residual."""

    def __init__(self, residual, iterations):
        super().__init__("frame iteration did not reach tolerance after "
                         "%d iterations (residual %.3e)" % (iterations, residual))
        self.residual = residual
        self.iterations = iterations


@dataclass
class TransformCoefficients:
    """Wavelet coefficients of one signal over (scale, rotation) samples."""

    family: str
    l_band: int
    values: tuple            # per scale: complex (n_carriers, n_axial)
    taus: tuple              # per scale: float, or ndarray per carrier
    grid: object
    scales: object
    under_resolved: bool

    @property
    def n_coefficients(self):
        return sum(v.size for v in self.values)

    def weights(self, j):
        """Quadrature weight of every (carrier, axial) sample at scale j."""
        arc = 2.0 * np.pi / len(self.grid.axial_angles)
        w = self.grid.measures * arc * self.scales.log_step
        return np.broadcast_to(w[:, None], self.values[j].shape)

    def total_energy(self):
        return float(sum(np.sum(self.weights(j) * np.abs(v) ** 2)
                         for j, v in enumerate(self.values)))


# ---------------------------------------------------------------------------
# rotation machinery

@lru_cache(maxsize=512)
def _tilt_blocks(theta_key, l_band):
    """Tilt blocks d^l[m, k] = <Y_l^m, Y_l^k o tilt^{-1}>, flat and real.

    Row l*l + l + m, column k + l_band; zero where |k| > l, so the block
    of degree l is the slice [l*l:(l+1)^2, l_band-l:l_band+l+1].  Each
    block is the real Wigner d-matrix exp(-i theta J_y) of its degree.
    J_x is real, symmetric and tridiagonal with eigenvalues -l..l, so its
    eigenbasis V gives exp(-i theta J_x) = V diag(e^{-i theta m}) V^T.
    The phases i^(m-k) turn J_x into J_y, and the factor (-1)^m on
    negative orders follows Y_l^-m = conj(Y_l^m): together they are
    i^|m| on row m and its conjugate on column k.
    """
    theta = float(theta_key)
    flat = np.zeros(((l_band + 1) ** 2, 2 * l_band + 1))
    for l in range(l_band + 1):
        m = np.arange(-l, l + 1)
        half = 0.5 * np.sqrt(l * (l + 1) - m[:-1] * (m[:-1] + 1.0))
        _, v = np.linalg.eigh(np.diag(half, 1) + np.diag(half, -1))
        phase = np.array([1, 1j, -1, -1j])[np.abs(m) % 4]
        turned = (v * np.exp(-1j * theta * m)) @ v.T
        flat[l * l:(l + 1) ** 2, l_band - l:l_band + l + 1] = (
            phase[:, None] * turned * phase.conj()).real
    flat.flags.writeable = False
    return flat


class BandPlan:
    """Index maps of the band operator for one band limit and axial grid.

    Coefficient tables are flat over (l, m); the kernel's axial orders
    are the odd k in [-l_band, l_band].  The kernel is steerable,
    Psi_l^k(tau) = w_k(tau) P_l^k, so for a latitude band at colatitude
    theta the real, tau-free matrix beta(...)[k, (l, m)] = d^l[m, k] P_l^k
    serves every selectivity: correlating the band's cells with a kernel
    is carried(phis) * table @ beta.T, each cell's row scaled by its
    weights(tau), followed by the axial phases.
    """

    def __init__(self, l_band, axial_angles):
        self.l_band = l_band
        # odd orders k are every other tilt column k + l_band
        self._odd_cols = slice((l_band + 1) % 2, None, 2)
        self.ks = np.arange(-l_band, l_band + 1)[self._odd_cols]
        l_of, self.m_of = degree_orders(l_band)
        self.axial_phase = np.exp(1j * np.outer(self.ks, axial_angles))
        self._kern_at = (l_of[None, :], self.ks[:, None] + l_band)
        self._orders = np.arange(-l_band, l_band + 1)

    def carried(self, phis):
        """Phases e^{i m phi}, one row per cell; one exp per order m."""
        phases = np.exp(1j * np.outer(phis, self._orders))
        return phases[:, self.m_of + self.l_band]

    def beta(self, theta, family, rho):
        """Real tilted kernel factor (odd k) x (flat l, m) for one band,
        shared by every selectivity."""
        tilt = _tilt_blocks(round(theta, 12), self.l_band)[:, self._odd_cols]
        return tilt.T * _kernel_matrix(family, float(rho),
                                       self.l_band)[self._kern_at]

    def weights(self, taus, n=None):
        """Window weights w_k(tau) on the odd orders, one row per entry of
        taus, or broadcast to n rows (taus a scalar or one per cell)."""
        w = window_weights(taus, self.l_band)[..., self.ks + self.l_band]
        return w if n is None else np.broadcast_to(w, (n, len(self.ks)))


def uniform_specs(family, tau, scales):
    """One kernel spec per scale, same selectivity everywhere."""
    return tuple(WaveletSpec(family, rho, tau) for rho in scales)


def _normalize_specs(specs, grid, scales):
    """Flatten the per-(scale, position) spec argument to (family, taus)."""
    if isinstance(specs, WaveletSpec):
        specs = (specs,)
    groups = [[e] if isinstance(e, WaveletSpec) else list(e) for e in specs]
    if len(groups) != len(scales):
        raise ValueError("need one kernel spec entry per scale")
    if any(len(g) not in (1, grid.n_carriers) for g in groups):
        raise ValueError("per-position specs must cover every carrier")
    family = groups[0][0].family
    for group, rho in zip(groups, scales):
        for s in group:
            if s.family != family:
                raise ValueError("all kernel specs must share one family")
            if abs(s.rho - rho) > 1e-12 * rho:
                raise ValueError("kernel scale %.6g does not match the "
                                 "scale sequence entry %.6g" % (s.rho, rho))
    return family, [float(g[0].tau) if len(g) == 1
                    else np.array([s.tau for s in g]) for g in groups]


def forward_transform(f, specs, grid, scales):
    """Wavelet coefficients of a band-limited signal over the grid.

    specs gives the kernel per scale (one WaveletSpec) or per (scale,
    position) (a sequence of WaveletSpec per scale, carrier-ordered).
    The under_resolved flag marks grids too coarse to separate the
    axial orders or the positional degrees of freedom of the band.
    """
    family, taus = _normalize_specs(specs, grid, scales)
    table = analyze_signal(f)
    l_band = table.l_band
    plan = BandPlan(l_band, grid.axial_angles)
    n_axial = len(grid.axial_angles)
    weights = [plan.weights(t, grid.n_carriers) / (4.0 * np.pi) for t in taus]
    values = [np.zeros((grid.n_carriers, n_axial), dtype=complex)
              for _ in scales]
    for theta, idx, phis, _ in grid.bands:
        signal = plan.carried(phis) * table.values
        for j, rho in enumerate(scales):
            d = signal @ plan.beta(theta, family, rho).T
            values[j][idx] = (d * weights[j][idx]) @ plan.axial_phase
    k_need = min(l_band, default_k_cut(max(float(np.max(t)) for t in taus)))
    if k_need % 2 == 0:
        k_need -= 1
    under = (n_axial < 2 * k_need + 1
             or grid.n_carriers < (l_band + 1) ** 2)
    return TransformCoefficients(family, l_band, tuple(values), tuple(taus),
                                 grid, scales, under)


def adjoint_transform(coeffs):
    """Weighted synthesis sum: the frame image S f when coeffs came from f."""
    grid = coeffs.grid
    plan = BandPlan(coeffs.l_band, grid.axial_angles)
    back = np.conj(plan.axial_phase).T / (4.0 * np.pi)
    weighted = [coeffs.values[j] * coeffs.weights(j)
                for j in range(len(coeffs.scales))]
    weights = [plan.weights(t, grid.n_carriers) for t in coeffs.taus]
    out = CoefficientTable(coeffs.l_band)
    for theta, idx, phis, _ in grid.bands:
        acc = 0.0
        for j, rho in enumerate(coeffs.scales):
            acc = acc + ((weighted[j][idx] @ back) * weights[j][idx]
                         @ plan.beta(theta, coeffs.family, rho))
        out.values += np.sum(plan.carried(-phis) * acc, axis=0)
    return out


def frame_apply(f, specs, grid, scales):
    """Apply the discrete frame operator S to a signal."""
    coeffs = forward_transform(f, specs, grid, scales)
    table = adjoint_transform(coeffs)
    return synthesize_signal(table, f.spec)


def rotate_coefficients(table, rotation):
    """Coefficient table of the rotated signal x -> f(g^{-1} x)."""
    l_band = table.l_band
    flat = _tilt_blocks(round(rotation.theta2, 12), l_band)
    out = CoefficientTable(l_band)
    for l in range(l_band + 1):
        m = np.arange(-l, l + 1)
        spun = np.exp(-1j * m * rotation.phi1) * table.degree_block(l)
        block = flat[l * l:(l + 1) ** 2, l_band - l:l_band + l + 1]
        out.degree_block(l)[:] = (np.exp(-1j * m * rotation.phi2)
                                  * (block @ spun))
    return out


# ---------------------------------------------------------------------------
# frame operator assembly and inversion

def _hadamard(cells, real, l_band, diff_at):
    """real * sum_c e^{i (m' - m) phi_c}, gathered from one phase sum."""
    offsets = np.arange(-2 * l_band, 2 * l_band + 1)
    term = np.exp(1j * np.outer(offsets, cells)).sum(axis=1)[diff_at]
    term *= real  # in place: n x n temporaries cost more than products
    return term


def frame_matrix(family, taus, grid, scales, l_band):
    """Dense frame operator S on coefficient tables.

    taus[j] is the selectivity of scale j, one value or one per carrier.
    A cell subset sharing a selectivity adds beta^T diag(w) G diag(w) beta
    times measure * sum_c e^{i (m'-m) phi_c}; G = 2 pi F^T F, F folding odd
    k onto k mod n_axial, is the axial Gram matrix, aliased or not.  A ring
    (bands with byte-equal longitudes) sums its whole-band terms under one.
    """
    plan = BandPlan(l_band, grid.axial_angles)
    n_axial = len(grid.axial_angles)
    axial_gram = 2.0 * np.pi * ((plan.ks[:, None] - plan.ks) % n_axial == 0)
    diff_at = plan.m_of[None, :] - plan.m_of[:, None] + 2 * l_band
    weight = scales.log_step / (16.0 * np.pi ** 2)
    weights = [plan.weights(t, grid.n_carriers) for t in taus]
    rings = {}
    for band in grid.bands:
        rings.setdefault(band[2].tobytes(), []).append(band)
    s = np.zeros(diff_at.shape, dtype=complex)
    for ring in rings.values():
        whole = np.zeros(diff_at.shape)
        for theta, idx, phis, measure in ring:
            for j, rho in enumerate(scales):
                beta = plan.beta(theta, family, rho)
                band_taus = np.broadcast_to(taus[j], grid.n_carriers)[idx]
                for tau in np.unique(band_taus):
                    rows = band_taus == tau
                    w = weights[j][idx[rows][0]]
                    core = (weight * measure) * (w[:, None] * axial_gram * w)
                    if rows.all():
                        whole += beta.T @ (core @ beta)
                    else:
                        s += _hadamard(phis[rows], beta.T @ (core @ beta),
                                       l_band, diff_at)
        if whole.any():
            s += _hadamard(phis, whole, l_band, diff_at)
    return s


def reconstruct(coeffs, cfg=None):
    """Invert the frame operator by Jacobi-preconditioned conjugate gradients.

    Degrees where no kernel of coeffs has energy (degree 0) are excluded;
    the result is band-limited to the coefficients' band.
    """
    if cfg is None:
        cfg = FrameOperatorConfig()
    l_band = coeffs.l_band
    l_of, _ = degree_orders(l_band)
    s = frame_matrix(coeffs.family, coeffs.taus, coeffs.grid,
                     coeffs.scales, l_band)
    rhs = adjoint_transform(coeffs).values
    # the sharpest window reaches the highest order (default_k_cut grows)
    tau_max = max(float(np.max(t)) for t in coeffs.taus)
    k_used = window_weights(tau_max, l_band) != 0.0
    rows = [_kernel_matrix(coeffs.family, float(rho), l_band)[:, k_used]
            for rho in coeffs.scales]
    active = np.where(np.any(rows, axis=(0, 2))[l_of])[0]
    sa = s[np.ix_(active, active)]
    b = rhs[active]
    table = CoefficientTable(l_band)
    grid_spec = default_grid_spec(l_band)
    if np.linalg.norm(b) == 0.0:
        return synthesize_signal(table, grid_spec)
    diag = sa.diagonal().real
    if np.any(diag <= 0.0):
        raise ArithmeticError("frame operator diagonal is not positive; "
                              "the grid is too coarse for this band")
    x, r = np.zeros_like(b), b
    z = p = b / diag
    rz, znorm = np.vdot(r, z).real, np.linalg.norm(z)
    for _ in range(cfg.max_iterations):
        q = sa @ p
        alpha = rz / np.vdot(p, q).real
        x = x + alpha * p
        r = r - alpha * q
        z = r / diag
        residual = np.linalg.norm(z) / znorm
        if residual <= cfg.tolerance:
            break
        rz, rz_old = np.vdot(r, z).real, rz
        p = z + (rz / rz_old) * p
    if cfg.strict and not residual <= cfg.tolerance:
        raise FrameConvergenceError(residual, cfg.max_iterations)
    table.values[active] = x
    return synthesize_signal(table, grid_spec)
