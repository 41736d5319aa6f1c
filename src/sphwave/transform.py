"""Wavelet analysis over a rotation grid and frame-based reconstruction.

A coefficient W(rho_j, g) is the normalized inner product of the rotated
kernel with the signal, 1/(4 pi) <U_g Psi, f>.  Everything runs in
harmonic space: rotating a kernel multiplies its coefficient table by
per-degree real Wigner blocks, so one tilt block per latitude band
(its odd-k columns cached) plus diagonal phase factors cover the whole
grid.  The kernel is steerable, Psi_l^k(tau) = w_k(tau) P_l^k: a
BandPlan joins a band's tilt blocks with the tau-free P into one real
matrix beta per band and scale, and a selectivity only weights each
cell's axial orders.  The forward transform, adjoint, matched-filter
landscape and frame operator S are products with beta per band and
scale.  The cells enter S only through one phase sum per axial pair and
order difference m' - m, in closed form for a band with one selectivity,
and Jacobi-preconditioned CG inverts S.
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

def _tilt_blocks(theta, l_band):
    """Tilt blocks d^l[m, k] = <Y_l^m, Y_l^k o tilt^{-1}>, flat and real.

    Row l*l + l + m, column k + l_band; zero where |k| > l, so the block
    of degree l is the slice [l*l:(l+1)^2, l_band-l:l_band+l+1].  Each
    block is the real Wigner d-matrix exp(-i theta J_y) of its degree.
    J_x is real, symmetric and tridiagonal with eigenvalues -l..l, so its
    eigenbasis V gives exp(-i theta J_x) = V diag(e^{-i theta m}) V^T.
    The phases i^(m-k) turn J_x into J_y, and the factor (-1)^m on
    negative orders follows Y_l^-m = conj(Y_l^m): together they are
    i^|m| on row m and its conjugate on column k.  Built uncached: the
    band operator keeps only the odd-k columns (_odd_tilt).
    """
    theta = float(theta)
    flat = np.zeros(((l_band + 1) ** 2, 2 * l_band + 1))
    for l in range(l_band + 1):
        m = np.arange(-l, l + 1)
        half = 0.5 * np.sqrt(l * (l + 1) - m[:-1] * (m[:-1] + 1.0))
        _, v = np.linalg.eigh(np.diag(half, 1) + np.diag(half, -1))
        phase = np.array([1, 1j, -1, -1j])[np.abs(m) % 4]
        turned = (v * np.exp(-1j * theta * m)) @ v.T
        flat[l * l:(l + 1) ** 2, l_band - l:l_band + l + 1] = (
            phase[:, None] * turned * phase.conj()).real
    return flat


def _odd_orders(l_band):
    """The kernel's axial orders: odd k in [-l_band, l_band], ascending."""
    return np.arange(-l_band, l_band + 1)[(l_band + 1) % 2::2]


@lru_cache(maxsize=512)
def _odd_tilt(theta_key, l_band):
    """Tilt blocks transposed to (odd k) x (flat l, m): all that the band
    operator reads, cached per band and read-only."""
    flat = _tilt_blocks(theta_key, l_band)
    odd = np.ascontiguousarray(flat[:, _odd_orders(l_band) + l_band].T)
    odd.flags.writeable = False
    return odd


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
        self.ks = _odd_orders(l_band)
        self.m_of = degree_orders(l_band)[1]
        self.axial_phase = np.exp(1j * np.outer(self.ks, axial_angles))
        self._kern_cols = self.ks + l_band
        self._degree_sizes = 2 * np.arange(l_band + 1) + 1
        self._orders = np.arange(-l_band, l_band + 1)

    def carried(self, phis):
        """Phases e^{i m phi}, one row per cell; one exp per order m."""
        phases = np.exp(1j * np.outer(phis, self._orders))
        return phases[:, self.m_of + self.l_band]

    def beta(self, theta, family, rho):
        """Real tilted kernel factor (odd k) x (flat l, m) for one band,
        shared by every selectivity."""
        kern = _kernel_matrix(family, float(rho), self.l_band)
        # the 2l+1 columns of degree l share the kernel row P[l, ks]
        per_degree = np.repeat(kern[:, self._kern_cols].T,
                               self._degree_sizes, axis=1)
        return _odd_tilt(float(theta), self.l_band) * per_degree

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
    flat = _tilt_blocks(rotation.theta2, l_band)
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

def frame_matrix(family, taus, grid, scales, l_band):
    """Dense frame operator S on coefficient tables.

    taus[j] is the selectivity of scale j, one value or one per carrier.
    Block (m, m') of S sums beta_k[:, m] beta_k'[:, m']^T H(m' - m) over
    bands, scales and axial pairs k = k' (mod n_axial), where
    H(d) = measure log_step / (8 pi) sum_c w_ck w_ck' e^{i d phi_c} is the
    one place the cells and their selectivities enter.  A band whose cells
    share one selectivity and sit at longitudes (c + 1/2) 2 pi / N has
    H(d) = N H(0) (-1)^(d/N) where N divides d and 0 elsewhere, so it
    costs a few batched per-order products; the rows of every other band
    are stacked for one product per order m.  S is Hermitian, and
    beta_-k[l, m] = beta_k[l, -m] with w_-k = w_k, so only blocks m' >= m
    and pairs k + k' >= 0 (k + k' = 0 at half weight) are summed.
    """
    plan = BandPlan(l_band, grid.axial_angles)
    n_axial, n_m, n_l = len(grid.axial_angles), 2 * l_band + 1, l_band + 1
    ks = plan.ks
    ia, ib = np.nonzero(((ks[:, None] - ks) % n_axial == 0)
                        & (ks[:, None] + ks >= 0))
    pair_w = (np.where(ks[ia] + ks[ib] == 0, 0.5, 1.0)
              * scales.log_step / (8.0 * np.pi))
    weights = [plan.weights(t, grid.n_carriers) for t in taus]
    whole, mixed = [], []
    for theta, idx, phis, measure in grid.bands:
        n_cells = len(idx)
        regular = np.array_equal(
            phis, (np.arange(n_cells) + 0.5) * (2.0 * np.pi / n_cells))
        for j, rho in enumerate(scales):
            band_taus = np.broadcast_to(taus[j], grid.n_carriers)[idx]
            shared = regular and np.all(band_taus == band_taus[0])
            (whole if shared else mixed).append(
                (theta, rho, weights[j][idx], phis, measure))
    # m-major layout: orders m = -L..L, degrees l = |m|..L within each
    l_of, m_of = degree_orders(l_band)
    order = np.lexsort((l_of, m_of))
    off = np.searchsorted(m_of[order], np.arange(-l_band, l_band + 2))
    s = np.zeros((len(order), len(order)), dtype=complex)

    # whole bands: per-order blocks padded to l = 0..L, one batch per d
    pad_at = (m_of + l_band) * n_l + l_of
    diagonals = {}
    for theta, rho, w, phis, measure in whole:
        padded = np.zeros((n_m * n_l, len(ks)))
        padded[pad_at] = plan.beta(theta, family, rho).T
        padded = padded.reshape(n_m, n_l, len(ks))
        c = (len(phis) * measure) * pair_w * w[0, ia] * w[0, ib]
        left = padded[:, :, ia]
        right = (padded[:, :, ib] * c).transpose(0, 2, 1)
        for q, d in enumerate(range(0, n_m, len(phis))):
            block = (-1) ** q * (left[:n_m - d] @ right[d:])
            diagonals[d] = diagonals.get(d, 0.0) + block
    for d, blocks in diagonals.items():
        for i, block in enumerate(blocks):
            s[off[i]:off[i + 1], off[i + d]:off[i + d + 1]] += \
                block[abs(i - l_band):, abs(i + d - l_band):]

    # other bands: H(d) per stacked pair row, one product per order m
    low = np.empty((len(ia) * len(mixed), len(order)))
    high = low if np.array_equal(ia, ib) else np.empty_like(low)
    h = np.empty((len(low), n_m), dtype=complex)
    for r, (theta, rho, w, phis, measure) in enumerate(mixed):
        rows = slice(r * len(ia), (r + 1) * len(ia))
        beta = plan.beta(theta, family, rho)[:, order]
        low[rows], high[rows] = beta[ia], beta[ib]
        phase = np.exp(1j * np.outer(phis, np.arange(n_m)))
        h[rows] = ((w[:, ia] * w[:, ib]).T @ phase) * (measure
                                                       * pair_w[:, None])
    sizes = np.diff(off)
    for i in range(n_m if mixed else 0):
        a, b = off[i], off[i + 1]
        for part, hp in ((s[a:b, a:].real, h.real),
                         (s[a:b, a:].imag, h.imag)):
            z = np.repeat(hp[:, :n_m - i], sizes[i:], axis=1)
            z *= high[:, a:]
            part += low[:, a:b].T @ z
    del low, high, h  # before the n x n temporaries below

    # with T the sum above, S[m, m'] = T[m, m'] + T[-m', -m]^T
    back = np.argsort(order)
    mirror = back[(l_of * (l_of + 1) - m_of)[order]]
    s += s[np.ix_(mirror, mirror)].T
    for a, b in zip(off[:-1], off[1:]):
        s[a:b, a:b] = 0.5 * (s[a:b, a:b] + s[a:b, a:b].conj().T)
        s[b:, a:b] = s[a:b, b:].conj().T
    return s[np.ix_(back, back)]


def reconstruct(coeffs, cfg=None):
    """Invert the frame operator by Jacobi-preconditioned conjugate gradients.

    Degrees where no kernel of coeffs has energy (degree 0) are excluded;
    the result is band-limited to the coefficients' band.
    """
    if cfg is None:
        cfg = FrameOperatorConfig()
    l_band = coeffs.l_band
    s = frame_matrix(coeffs.family, coeffs.taus, coeffs.grid,
                     coeffs.scales, l_band)
    rhs = adjoint_transform(coeffs).values
    # the sharpest window reaches the highest order (default_k_cut grows)
    tau_max = max(float(np.max(t)) for t in coeffs.taus)
    k_used = window_weights(tau_max, l_band) != 0.0
    rows = [_kernel_matrix(coeffs.family, float(rho), l_band)[:, k_used]
            for rho in coeffs.scales]
    # odd orders need |k| <= l, so degree 0 is the one inactive degree and
    # the active indices are a tail: the solve runs on a view of S
    start = int(np.argmax(np.any(rows, axis=(0, 2)))) ** 2
    sa = s[start:, start:]
    b = rhs[start:]
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
    table.values[start:] = x
    return synthesize_signal(table, grid_spec)
