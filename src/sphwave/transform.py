"""Wavelet analysis over a rotation grid and frame-based reconstruction.

A coefficient W(rho_j, g) is the normalized inner product of the rotated
kernel with the signal, 1/(4 pi) <U_g Psi, f>, computed in harmonic space
where a rotation acts by per-degree real Wigner blocks d^l(theta) and
diagonal phases.  The kernel is steerable, Psi_l^k(tau) = w_k(tau) P_l^k,
and one band operator (BandPlan) serves the forward transform, the
adjoint, the matched filter and the frame operator S: per latitude band
it contracts over the degree l once for all scales, then over the orders
m with each cell's longitude phase.  The cells enter S only through one
phase sum per axial pair and order difference m' - m, and
Jacobi-preconditioned CG inverts S, which a frame with one tau per scale
builds once for all calls on it.
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
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError("residual tolerance must be positive and finite")
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

@lru_cache(maxsize=None)
def _jx_basis(l):
    """Eigenbasis of J_x for degree l, shared by every band; read-only."""
    m = np.arange(-l, l + 1)
    half = 0.5 * np.sqrt(l * (l + 1) - m[:-1] * (m[:-1] + 1.0))
    v = np.linalg.eigh(np.diag(half, 1) + np.diag(half, -1))[1]
    v.flags.writeable = False
    return v


def _wigner_d(theta, l):
    """Tilt block d^l[m + l, k + l] = <Y_l^m, Y_l^k o tilt^{-1}>, real.

    It is the Wigner d-matrix exp(-i theta J_y).  J_x is real, symmetric
    and tridiagonal with eigenvalues -l..l, so its eigenbasis V gives
    exp(-i theta J_x) = V diag(e^{-i theta m}) V^T, one complex product.
    The phases i^(m-k) turn J_x into J_y, and the factor (-1)^m on
    negative orders follows Y_l^-m = conj(Y_l^m): together they are i^|m|
    on row m and its conjugate on column k.
    """
    m = np.arange(-l, l + 1)
    v = _jx_basis(l)
    phase = np.array([1, 1j, -1, -1j])[np.abs(m) % 4]
    turned = (v * np.exp(-1j * float(theta) * m)) @ v.T
    return (phase[:, None] * turned * phase.conj()).real


@lru_cache(maxsize=512)
def _band_tilt(theta, l_band):
    """d^l_mk(theta), odd k > 0, as [k // 2, m + l_band, l], zero where l <
    max(|m|, k); d^l_{-m,-k} = d^l_mk gives k < 0.  Cached, read-only."""
    tilt = np.zeros(((l_band + 1) // 2, 2 * l_band + 1, l_band + 1))
    for l in range(1, l_band + 1):
        tilt[:(l + 1) // 2, l_band - l:l_band + l + 1, l] = \
            _wigner_d(theta, l)[:, l + 1::2].T
    tilt.flags.writeable = False
    return tilt


class BandPlan:
    """The band operator for one band limit, axial grid, family and scales.

    Axial orders are the odd k, negative half first (ks); tables enter
    padded, f[m + L, l] = f_lm.  A cell at longitude phi in a band at
    colatitude theta correlates with the tau-free kernel P_j of scale j as
    d[j, k] = sum_m e^{i m phi} X[k, m, j], X[k, m, j] = sum_l d^l_mk(theta)
    P_j[l, k] f_lm: per band one contraction over l for all scales, then
    one longitude product for its cells; weights(tau) then scales each
    cell's row before the axial phases.  adjoint runs the steps transposed.
    """

    def __init__(self, l_band, axial_angles, family, scales):
        self.l_band = l_band
        odd = np.arange(1, l_band + 1, 2)
        self.ks = np.concatenate((-odd, odd))
        self.axial_phase = np.exp(1j * np.outer(self.ks, axial_angles))
        self.kern = np.array([_kernel_matrix(family, float(rho), l_band).T[
            self.ks + l_band] for rho in scales])   # P_j[l, k] at [j, k, l]
        l_of, m_of = degree_orders(l_band)
        self._flat = m_of + l_band, l_of

    def tilt(self, theta):
        """d^l_mk(theta) as [k, m + l_band, l], k over ks."""
        half = _band_tilt(float(theta), self.l_band)
        return np.concatenate((half[:, ::-1], half))

    def weights(self, taus):
        """Window weights w_k(tau) on ks, one row per entry of taus."""
        return window_weights(taus, self.l_band)[..., self.ks + self.l_band]

    def _phases(self, bands, sign):
        """Per band e^{sign i m phi} of its cells: one exp per cell, then a
        running product over m > 0, conjugated for m < 0."""
        phis = [b[2] for b in bands]
        e = np.exp(sign * 1j * np.concatenate(phis))[:, None]
        e = np.cumprod(np.broadcast_to(e, (len(e), self.l_band)), axis=1)
        e = np.concatenate((e[:, ::-1].conj(), np.ones((len(e), 1)), e), 1)
        return np.split(e, np.cumsum([len(p) for p in phis])[:-1])

    def correlate(self, values, bands):
        """tau-free correlations d[j, c, k] of a flat table with the kernel
        of every scale j at every cell c of bands, (theta, idx, phis, _)."""
        f = np.zeros((2 * self.l_band + 1, self.l_band + 1), dtype=complex)
        f[self._flat] = values
        kern = self.kern.transpose(1, 2, 0).astype(complex)
        out = np.empty((len(self.kern), sum(len(b[1]) for b in bands),
                        len(self.ks)), dtype=complex)
        for (theta, idx, _, _), rows in zip(bands, self._phases(bands, 1)):
            x = (self.tilt(theta) * f) @ kern
            out[:, idx] = (rows @ x.transpose(1, 2, 0).reshape(len(f), -1)
                           ).reshape(len(idx), *out.shape[::2]).swapaxes(0, 1)
        return out

    def adjoint(self, d, bands):
        """Flat table sum_c e^{-i m phi_c} sum_{j,k} beta_jk[m, l] d[j, c, k]:
        the transpose of correlate."""
        kern = self.kern.swapaxes(0, 1).astype(complex)
        acc = 0.0
        for (theta, idx, _, _), rows in zip(bands, self._phases(bands, -1)):
            y = (rows.T @ d[:, idx]).transpose(2, 1, 0) @ kern
            acc = acc + (self.tilt(theta) * y).sum(axis=0)
        return acc[self._flat]


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
    plan = BandPlan(l_band, grid.axial_angles, family, scales)
    d = plan.correlate(table.values, grid.bands)
    axial = plan.axial_phase / (4.0 * np.pi)
    values = [(dj * plan.weights(t)) @ axial for dj, t in zip(d, taus)]
    k_need = min(l_band, default_k_cut(max(float(np.max(t)) for t in taus)))
    if k_need % 2 == 0:
        k_need -= 1
    under = (len(grid.axial_angles) < 2 * k_need + 1
             or grid.n_carriers < (l_band + 1) ** 2)
    return TransformCoefficients(family, l_band, tuple(values), tuple(taus),
                                 grid, scales, under)


def adjoint_transform(coeffs):
    """Weighted synthesis sum: the frame image S f when coeffs came from f."""
    grid = coeffs.grid
    plan = BandPlan(coeffs.l_band, grid.axial_angles, coeffs.family,
                    coeffs.scales)
    back = np.conj(plan.axial_phase).T / (4.0 * np.pi)
    d = np.stack([(coeffs.values[j] * coeffs.weights(j)) @ back
                  * plan.weights(t) for j, t in enumerate(coeffs.taus)])
    return CoefficientTable(coeffs.l_band, plan.adjoint(d, grid.bands))


def frame_apply(f, specs, grid, scales):
    """Apply the discrete frame operator S to a signal."""
    coeffs = forward_transform(f, specs, grid, scales)
    table = adjoint_transform(coeffs)
    return synthesize_signal(table, f.spec)


def rotate_coefficients(table, rotation):
    """Coefficient table of the rotated signal x -> f(g^{-1} x)."""
    out = CoefficientTable(table.l_band)
    for l in range(table.l_band + 1):
        m = np.arange(-l, l + 1)
        spun = np.exp(-1j * m * rotation.phi1) * table.degree_block(l)
        out.degree_block(l)[:] = (np.exp(-1j * m * rotation.phi2)
                                  * (_wigner_d(rotation.theta2, l) @ spun))
    return out


# ---------------------------------------------------------------------------
# frame operator assembly and inversion

def frame_matrix(family, taus, grid, scales, l_band):
    """Dense frame operator S on coefficient tables.

    taus[j] is the selectivity of scale j, one value or one per carrier.
    Block (m, m') of S sums beta_jk[m] beta_jk'[m']^T H(m' - m), beta_jk[m,
    l] = d^l_mk P_j[l, k], over bands, scales and axial pairs p = (k, k'),
    k = k' (mod n_axial); H(d) = measure log_step / (8 pi) sum_c w_ck w_ck'
    e^{i d phi_c} is the one place the cells and their selectivities enter.
    T sums blocks m' >= m and pairs k + k' >= 0 (k + k' = 0 at half weight),
    and beta_-k[-m] = beta_k[m] gives S[m, m'] = T[m, m'] + T[-m', -m]^T.
    Whole bands (cells sharing one tau at longitudes (c + 1/2) 2 pi / N)
    have H(d) = N H(0) (-1)^(d/N) where N divides d and 0 elsewhere, and
    are contracted once per d, straight into the flat layout.  The other
    rows are stacked for one product per order m, into an m-major copy.
    Both paths take the axial pairs one chunk at a time.
    """
    plan = BandPlan(l_band, grid.axial_angles, family, scales)
    n_m, n_l, ks = 2 * l_band + 1, l_band + 1, plan.ks
    ia, ib = np.nonzero(((ks[:, None] - ks) % len(grid.axial_angles) == 0)
                        & (ks[:, None] + ks >= 0))
    same = np.array_equal(ia, ib)
    pair_w = (np.where(ks[ia] + ks[ib] == 0, 0.5, 1.0)
              * scales.log_step / (8.0 * np.pi))
    wpair = [np.broadcast_to(pair_w * w[..., ia] * w[..., ib], (
        grid.n_carriers, len(ia))) for w in map(plan.weights, taus)]
    l_of, m_of = degree_orders(l_band)
    n, m = len(l_of), np.arange(n_m)
    if not len(ia):     # no odd order below the band: nothing to sum
        return np.zeros((n, n), dtype=complex)

    def tilts(thetas, p):
        # per band d^l_mk(theta) as [pair, m + l_band, l], k over ks[p]
        k, flip = abs(ks[p]) // 2, ks[p] < 0
        if np.all(np.diff(k) == 1):
            k = slice(k[0], k[-1] + 1)
        for theta in thetas:
            t = _band_tilt(float(theta), l_band)[k]
            yield np.where(flip[:, None, None], t[:, ::-1], t) if any(
                flip) else t

    def chunks(entries, budget):
        # the pairs in runs of at most about budget stacked entries
        return np.array_split(np.arange(len(ia)),
                              min(len(ia), -(-entries // budget)))

    # per band its whole scales; per band set, the factors P_j[:, k] and
    # w_k w_k' P_j[:, k'] of the (scale, tau) groups whole on exactly that
    # set, whose products summed over the groups are K_p[l, l']
    whole, groups, sets = [], {}, {}
    for b, (theta, idx, phis, measure) in enumerate(grid.bands):
        regular = np.array_equal(
            phis, (np.arange(len(idx)) + 0.5) * (2.0 * np.pi / len(idx)))
        whole.append([j for j, t in enumerate(taus) if regular and (
            np.ndim(t) == 0 or np.all(t[idx] == t[idx[0]]))])
        for j in whole[-1]:
            w = wpair[j][idx[0]]
            groups.setdefault((j, w.tobytes()), (w, []))[1].append(b)
    for (j, _), (w, bands) in groups.items():
        sets.setdefault(tuple(bands), []).append(
            (plan.kern[j, ia], w[:, None] * plan.kern[j, ib]))

    # the other scales: compact beta rows and H(d) per pair, stacked
    mixed = [(band, js) for band, one in zip(grid.bands, whole)
             if (js := [j for j in range(len(taus)) if j not in one])]
    s = np.zeros((n, n), dtype=complex)
    if mixed:
        order = np.lexsort((l_of, m_of))
        off = np.searchsorted(m_of[order], np.arange(-l_band, l_band + 2))
        mo, lo, sizes = m_of[order] + l_band, l_of[order], np.diff(off)
        h = np.concatenate([(np.exp(1j * np.outer(m, phis)) * measure @ (
            np.stack([wpair[j][idx] for j in js]))).transpose(1, 0, 2)
            for (_, idx, phis, measure), js in mixed], axis=1)

        def rows(p):
            # beta at [m-major (m, l), (band, scale, pair)]
            out, c = np.empty((n, len(p) * h.shape[1])), 0
            for (_, js), t in zip(mixed, tilts([x[0] for x, _ in mixed], p)):
                out[:, c:c + len(js) * len(p)] = (plan.kern[js][:, p][
                    ..., lo] * t[:, mo, lo]).reshape(-1, n).T
                c += len(js) * len(p)
            return out

        # the stacked rows of one chunk hold at most a tilt cache's entries
        for ch in chunks(n * h.size // n_m * (2 - same),
                         len(grid.bands) * (n_l // 2) * n_m * n_l):
            low = rows(ia[ch])
            high = low if same else rows(ib[ch])
            hc = h[:, :, ch].reshape(n_m, -1)
            hc = np.ascontiguousarray(hc.real), np.ascontiguousarray(hc.imag)
            # one product per order m, H(m' - m) repeated over the degrees
            # of each order m' as whole contiguous rows
            for i in range(n_m):
                a, b = off[i], off[i + 1]
                for part, hp in zip((s[a:b, a:].real, s[a:b, a:].imag), hc):
                    z = np.repeat(hp[:n_m - i], sizes[i:], axis=0)
                    z *= high[a:]
                    part += low[a:b] @ z.T
            del low, high, z  # before the n x n temporaries
        back = np.argsort(order)
        mirror = back[(l_of * (l_of + 1) - m_of)[order]]
        s += s[np.ix_(mirror, mirror)].T
        for a, b in zip(off[:-1], off[1:]):
            s[a:b, a:b] = 0.5 * (s[a:b, a:b] + s[a:b, a:b].conj().T)
            s[b:, a:b] = s[a:b, b:].conj().T
        s = s[np.ix_(back, back)]

    # the whole bands per order difference d: T_d[m] = sum_p K_p * sum_b
    # v_d(b) d^l_mk(theta_b) d^l'_{m+d,k'}(theta_b), v_d = N measure
    # (-1)^(d/N), added at the flat indices at[m, l] (-1 where l < |m|).
    # A lone band contracts over its (scale, pair) factors instead, once
    # for all its order differences
    thetas, n_cells, measures = (np.array(x) for x in zip(*(
        (theta, len(idx), measure) for theta, idx, _, measure in grid.bands)))
    at = np.where(m[:n_l] >= abs(m - l_band)[:, None],
                  m[:n_l] * (m[:n_l] + 1) + (m - l_band)[:, None], -1)
    lone, flat = {}, s.reshape(-1).real
    for bands, uw in list(sets.items()):
        u, w = map(np.array, zip(*uw))
        if len(bands) > 1:
            sets[bands] = np.einsum('gpa,gpb->pab', u, w)
            continue
        del sets[bands]
        b, v = bands[0], n_cells[bands[0]] * measures[bands[0]]
        a, c = (next(tilts([thetas[b]], p)) for p in (ia, ib))
        left = np.einsum('pml,gpl->mlgp', a, u).reshape(n_m, n_l, -1)
        right = np.einsum('pml,gpl->mgpl', c, w).reshape(n_m, -1, n_l)
        for q, d in enumerate(range(0, n_m, n_cells[b])):
            lone[d] = lone.get(d, 0.0) + (-1) ** q * v * (
                left[:n_m - d] @ right[d:])
    for d in sorted(set(lone) | {d for bands in sets for b in bands
                                 for d in range(0, n_m, n_cells[b])}):
        t = lone.pop(d, 0.0)
        for bands, kp in sets.items():
            on = np.array(bands)[d % n_cells[list(bands)] == 0]
            v = (n_cells * measures)[on, None] * (-1.0) ** (
                d // n_cells[on, None])
            for ch in chunks(2 * len(on) * len(ia) * n_m * n_l,
                             n * n // 2) if len(on) else ():
                left = np.stack(list(tilts(thetas[on], ia[ch])), axis=2)
                right = (left if same else np.stack(list(tilts(
                    thetas[on], ib[ch])), axis=2))[:, d:] * v
                g = left[:, :n_m - d].swapaxes(2, 3) @ right
                t = t + np.einsum('pmab,pab->mab', g, kp[ch])
                del left, right, g  # before the next chunk's
        # T_d flipped in m, blocks transposed, is its mirror; the lower
        # blocks are its transpose
        t = t + t[::-1].swapaxes(1, 2)
        t = 0.5 * (t + t.swapaxes(1, 2)) if d == 0 else t
        row, col = at[:n_m - d, :, None], at[d:, None, :]
        keep = (row >= 0) & (col >= 0)
        idx, t = (row * n + col)[keep], t[keep]
        flat[idx] += t
        if d:
            flat[idx % n * n + idx // n] += t
    return s


# the last frame with one tau per scale: its grid (matched by identity),
# the rest of its key (by value) and (S read-only, active start, diagonal).
# A per-carrier tau map comes from one signal's scan and is not kept
_frame_cache = [None]


def _frame(coeffs):
    """S of the frame of coeffs, the start of its active degrees and its
    diagonal there; built on a miss, which first drops the kept frame."""
    key = (coeffs.family, coeffs.scales, coeffs.l_band, coeffs.taus)
    uniform = all(np.ndim(t) == 0 for t in coeffs.taus)
    kept = _frame_cache[0]
    if uniform and kept and kept[0] is coeffs.grid and kept[1] == key:
        return kept[2]
    _frame_cache[0] = kept = None   # two S never coexist
    l_band = coeffs.l_band
    s = frame_matrix(coeffs.family, coeffs.taus, coeffs.grid,
                     coeffs.scales, l_band)
    s.flags.writeable = False
    # the sharpest window reaches the highest order (default_k_cut grows)
    tau_max = max(float(np.max(t)) for t in coeffs.taus)
    k_used = window_weights(tau_max, l_band) != 0.0
    rows = [_kernel_matrix(coeffs.family, float(rho), l_band)[:, k_used]
            for rho in coeffs.scales]
    # odd orders need |k| <= l, so degree 0 is the one inactive degree and
    # the active indices are a tail: the solve runs on a view of S
    start = int(np.argmax(np.any(rows, axis=(0, 2)))) ** 2
    frame = s, start, s[start:, start:].diagonal().real
    if uniform:
        _frame_cache[0] = coeffs.grid, key, frame
    return frame


def reconstruct(coeffs, cfg=None):
    """Invert the frame operator by Jacobi-preconditioned conjugate gradients.

    Degrees where no kernel of coeffs has energy (degree 0) are excluded;
    the result is band-limited to the coefficients' band.  S of a frame
    with one tau per scale is kept until a call on another frame.
    """
    if cfg is None:
        cfg = FrameOperatorConfig()
    l_band = coeffs.l_band
    rhs = adjoint_transform(coeffs).values
    s, start, diag = _frame(coeffs)
    sa = s[start:, start:]
    b = rhs[start:]
    table = CoefficientTable(l_band)
    grid_spec = default_grid_spec(l_band)
    if np.linalg.norm(b) == 0.0:
        return synthesize_signal(table, grid_spec)
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
