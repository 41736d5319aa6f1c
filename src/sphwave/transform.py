"""Wavelet analysis over a rotation grid and frame-based reconstruction.

A coefficient W(rho_j, g) is the normalized inner product of the rotated
kernel with the signal, 1/(4 pi) <U_g Psi, f>, computed in harmonic space
where a rotation acts by per-degree real Wigner blocks d^l(theta) and
diagonal phases.  The kernel is steerable, Psi_l^k(tau) = w_k(tau) P_l^k,
and one band operator (BandPlan) serves the forward transform, the
adjoint, the matched filter and the frame operator S.  It reads the tilts
of the latitude bands, runs of carriers at one colatitude, from one store
and contracts over the degree l for all bands in one real product per
scale, then over the orders m with each cell's longitude phase in one
product per band for all scales (the adjoint: per band and scale).  The
cells enter S only through one phase sum per axial pair and order
difference m' - m; a band whose cells share one tau and one measure on
the regular longitude lattice needs no phase sum and contracts by itself
over its (scale, pair) factors.  The kernels are real, so in a real
harmonic basis S is a real symmetric matrix S_R, the one frame_matrix
builds, and Jacobi-preconditioned CG inverts it on the degrees l >= 1.

The last four band operators stay cached, per (band limit, grid, family,
scales), and that cache bounds all the operator holds: each owns its tilt
store and phase table, keeps its grid alive until it is evicted, and the
window weights and S_R of its last taus, one tau per scale or a tau map.
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
    of the real-basis solve (D the diagonal of S_R, both right-hand sides
    at once), tested at the start and after each CG step; max_iterations
    counts the CG steps after the start (see reconstruct)."""

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

    @property
    def under_resolved(self):
        """Whether the grid is too coarse for the band: fewer axial angles
        than the 2k + 1 the odd orders k in use need (k up to the largest
        tau's cut, at most l_band), or fewer carriers than (l_band + 1)^2."""
        k_need = min(self.l_band, default_k_cut(
            max(float(np.max(t)) for t in self.taus)))
        if k_need % 2 == 0:
            k_need -= 1
        return (len(self.grid.axial_angles) < 2 * k_need + 1
                or self.grid.n_carriers < (self.l_band + 1) ** 2)

    @property
    def n_coefficients(self):
        return sum(v.size for v in self.values)

    def weights(self, j):
        """Quadrature weight of every (carrier, axial) sample at scale j."""
        arc = 2.0 * np.pi / len(self.grid.axial_angles)
        w = self.grid.cells.measure * arc * self.scales.log_step
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
    on row m and its conjugate on column k.  An array theta stacks blocks.
    """
    m = np.arange(-l, l + 1)
    v = _jx_basis(l)
    phase = np.array([1, 1j, -1, -1j])[np.abs(m) % 4]
    e = np.exp(-1j * np.multiply.outer(theta, m))
    turned = (v * e[..., None, :]) @ v.T
    turned *= phase[:, None]
    turned *= phase.conj()
    return turned.real


def _tilt_store(thetas, l_band):
    """d^l_mk(theta_b), odd k > 0, at the band colatitudes (array) thetas as
    [k // 2, m + l_band, l, b], zero where l < max(|m|, k); d^l_{-m,-k} =
    d^l_mk gives k < 0.  Read-only, one per plan; one product per degree
    and chunk of bands, two complex blocks of at most 2 MB or store / 5."""
    store = np.zeros(((l_band + 1) // 2, 2 * l_band + 1, l_band + 1,
                      len(thetas)))
    for l in range(1, l_band + 1):
        step = max(1, max(store.nbytes, 10 << 20) // 160 // (2 * l + 1) ** 2)
        for b in range(0, len(thetas), step):
            store[:(l + 1) // 2, l_band - l:l_band + l + 1, l, b:b + step] = \
                _wigner_d(thetas[b:b + step], l)[..., l + 1::2].T
    store.flags.writeable = False
    return store


def _cell_phases(phis, l_band):
    """e^{i m phi} at the longitudes phis (array) as [cell, m + l_band], one
    per plan, read-only: a running product over m > 0 in one vector (numpy
    rounds overlapping strided columns otherwise), conjugated for m < 0."""
    e = np.exp(1j * phis)
    out, p = np.ones((len(e), 2 * l_band + 1), dtype=complex), e.copy()
    for m in range(l_band + 1, out.shape[1]):
        out[:, m] = p
        p *= e
    np.conjugate(out[:, :l_band:-1], out=out[:, :l_band])
    out.flags.writeable = False
    return out


class BandPlan:
    """The band operator for one band limit, grid, family and scales.

    Axial orders are the odd k in pairs (-k, k) (ks); tables enter padded,
    f[m + L, l] = f_lm.  A cell at longitude phi in a band at colatitude
    theta correlates with the tau-free kernel P_j of scale j as d[j, k] =
    sum_m e^{i m phi} X[k, m, j], X[k, m, j] = sum_l d^l_mk(theta) P_j[l, k]
    f_lm.  Per scale, X of all bands is one batched real product: per
    (k > 0, m) the store's [l, b] matrix times re/im of P_j[l, k] f_lm and
    of P_j[l, k] conj(f_l,-m), which is conj(X[-k, -m]) as P_j[l, -k] =
    P_j[l, k].  X of all scales sits band-major, so per band one longitude
    product then serves all its cells and scales, and k < 0 is conjugated
    back.  A band is a maximal run of consecutive carriers at one
    colatitude, one row block (span) of the grid's phase table and of d;
    any carrier order works, a shuffled one in more and shorter runs.
    weights(tau) scales each cell's row before the axial phases; adjoint
    runs the steps transposed, one scale at a time, so that d need not be
    held for all scales at once.

    _plan caches the last four plans, keyed on the arguments as given: the
    grid by identity, the scales by value and type.  A plan owns its tilt
    store and phase table, hands out read-only arrays, holds its grid while
    cached and keeps one slot: the key of its last taus (shape and float64
    bytes), their weights and, once frame asks, their S_R: 4 x 371 MB at
    most at L=64, delta=0.05, from the shapes.  Two plans on one grid (two
    families or scale sequences) each build a store and phases, 0.83 + 0.36
    MB at L=16, delta=0.2, 191 + 21 MB in 1.2-1.4 s at L=64, delta=0.05.
    """

    def __init__(self, l_band, grid, family, scales):
        self.l_band, self.grid, self.family, self.scales = (l_band, grid,
                                                            family, scales)
        odd = np.arange(1, l_band + 1, 2)
        self.ks = np.stack((-odd, odd), 1).reshape(-1)
        self.axial_phase = np.exp(1j * np.outer(self.ks, grid.axial_angles))
        self.kern = np.array([_kernel_matrix(family, float(rho), l_band).T[
            self.ks + l_band] for rho in scales])   # P_j[l, k] at [j, k, l]
        # P_j[l, k > 0] as [j, k // 2, 1, (l, 4)], repeated over re/im of
        # (-k, k): a product with it runs one inner loop over l and re/im
        self._kern_re_im = np.repeat(self.kern[:, 1::2, None], 4, axis=-1)
        l_of, m_of = degree_orders(l_band)
        self._flat = m_of + l_band, l_of
        theta = grid.cells.theta    # a band is a run of carriers at one theta
        self.first = np.flatnonzero(np.r_[True, theta[1:] != theta[:-1]])
        self.store = _tilt_store(theta[self.first], l_band)
        self.phases = _cell_phases(grid.cells.phi, l_band)
        at = self.first.tolist() + [len(theta)]
        self.spans = list(map(slice, at, at[1:]))
        for a in (self.ks, self.axial_phase, self.kern, self._kern_re_im,
                  self.first):
            a.flags.writeable = False
        self._kept = None, None, None   # see _slot

    def tilt(self, b):
        """d^l_mk of band b as [k, m + l_band, l], k over ks."""
        half = self.store[..., b]
        return np.stack((half[:, ::-1], half), 1).reshape(-1, *half.shape[1:])

    def _slot(self, taus):
        """The kept (key, weights, frame or None) of taus, which other taus
        replace whole; read once, written as one tuple (threads share it)."""
        kept = self._kept
        key = [(np.shape(t), np.asarray(t, float).tobytes()) for t in taus]
        if key == kept[0]:
            return kept
        w = np.stack(np.broadcast_arrays(*taus)).reshape(len(taus), -1)
        w = window_weights(w, self.l_band)[..., self.ks + self.l_band]
        w.flags.writeable = False
        self._kept = kept = key, w, None
        return kept

    def weights(self, taus):
        """Window weights w_k(tau) on ks as [entry, 1 or carrier, k], one
        entry per scale: a tau or an array of one tau per carrier.  It is
        kept, read-only, for the next call with equal taus, a tau map's by
        its bytes: the forward, adjoint and S of a frame compute it once.
        A kept tau map is J C K floats, 15.8 MB at L=64, delta=0.05, J=3."""
        return self._slot(taus)[1]

    def frame(self, taus):
        """S_R of the frame at taus, read-only, and its diagonal on the
        degrees l >= 1 as a column: built by frame_matrix on first use and
        kept with the weights of taus, until other taus replace them."""
        key, w, frame = self._slot(taus)
        if frame is None:
            s = frame_matrix(self.family, taus, self.grid, self.scales,
                             self.l_band)
            s.flags.writeable = False
            frame = s, s[1:, 1:].diagonal()[:, None]
            self._kept = key, w, frame
        return frame

    def correlate(self, values, at=None):
        """tau-free correlations d[j, c, k] of a flat table with the kernel of
        every scale j at every cell c, or of scale j alone at the carrier c
        of at = (j, c): a transposed view of one [c, j, k] array, writable."""
        ph, rows, store, kerns = (self.phases, self.spans, self.store,
                                  self._kern_re_im)
        if at is not None:
            b = np.searchsorted(self.first, at[1], "right") - 1
            ph, rows = ph[at[1]:at[1] + 1], [slice(0, 1)]
            store, kerns = store[..., b:b + 1], kerns[at[0]:at[0] + 1]
        (n_k, n_m, n_l), n_j = self.store.shape[:3], len(kerns)
        out = np.empty((len(ph), n_j, len(self.ks)), dtype=complex)
        f = np.zeros((n_m, n_l, 2), dtype=complex)
        f[(*self._flat, 1)] = values
        np.conjugate(f[::-1, :, 1], out=f[:, :, 0])
        # per scale: P_j f at [k // 2, m, l, (-k, k)], into X at [m, b, j,
        # k // 2, (-k re, -k im, k re, k im)]
        a = np.empty((n_k, n_m, n_l, 2), dtype=complex)
        x = np.empty((n_m, len(rows), n_j, n_k, 4))
        for j, kern in enumerate(kerns):
            np.multiply(f.view(float).reshape(n_m, 4 * n_l), kern,
                        out=a.view(float).reshape(n_k, n_m, 4 * n_l))
            np.matmul(store.swapaxes(2, 3), a.view(float),
                      out=x[:, :, j].transpose(2, 0, 1, 3))
        # per band one longitude product for all scales
        for b, s in enumerate(rows):
            np.matmul(ph[s], x[:, b].view(complex).reshape(n_m, -1),
                      out=out[s].reshape(s.stop - s.start, -1))
        np.conjugate(out[..., ::2], out=out[..., ::2])
        return out.transpose(1, 0, 2)

    def adjoint(self, d):
        """Flat table sum_c e^{-i m phi_c} sum_{j,k} beta_jk[m, l] d[j, c, k],
        the transpose of correlate, from each d[j] with its k > 0 half
        conjugated; d is read one scale at a time and never written.  Per
        band the product with e^{i m phi} gives X^T on k < 0 and its
        conjugate on k > 0, undone after the degree sum."""
        (n_k, n_m, n_l), d, acc = self.store.shape[:3], iter(d), 0.0
        x = np.empty((n_m, len(self.spans), n_k, 4))
        y = np.empty((n_k, n_m, n_l, 2), dtype=complex)
        yk = y.view(float).reshape(n_k, n_m, 4 * n_l)
        for kern in self._kern_re_im:
            g = next(d)
            for b, s in enumerate(self.spans):
                np.matmul(self.phases[s].T, g[s],
                          out=x[:, b].view(complex).reshape(n_m, -1))
            del g   # before the next scale's d is made
            np.matmul(self.store, x.transpose(2, 0, 1, 3), out=y.view(float))
            yk *= kern
            acc = acc + y.sum(axis=0)
        return (acc[::-1, :, 0] + acc[:, :, 1].conj())[self._flat]


def _plan(l_band, grid, family, scales):
    """The cached BandPlan (see there), once scales hash: a list does not."""
    if type(scales).__hash__ is None:
        raise ValueError("scales must hash: use make_scale_sequence")
    return _plans(l_band, grid, family, scales)


_plans = lru_cache(maxsize=4)(BandPlan)     # see BandPlan
_plan.cache_info, _plan.cache_clear = _plans.cache_info, _plans.cache_clear
_plan.cache_parameters = _plans.cache_parameters


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
    """
    family, taus = _normalize_specs(specs, grid, scales)
    table = analyze_signal(f)
    plan = _plan(table.l_band, grid, family, scales)
    return _coefficients(plan, plan.correlate(table.values), taus)


def _coefficients(plan, d, taus):
    """The coefficients from the tau-free correlations d[j, c, k] of plan
    (weighted in place): each cell's row times w_k(tau), then the axial
    phases; taus[j] is one tau or one per carrier."""
    d *= plan.weights(taus)
    values = d @ (plan.axial_phase / (4.0 * np.pi))
    return TransformCoefficients(plan.family, plan.l_band, tuple(values),
                                 tuple(taus), plan.grid, plan.scales)


def adjoint_transform(coeffs):
    """Weighted synthesis sum: the frame image S f when coeffs came from f."""
    plan = _plan(coeffs.l_band, coeffs.grid, coeffs.family, coeffs.scales)
    back = np.conj(plan.axial_phase).T / (4.0 * np.pi)
    w, measure = plan.weights(coeffs.taus), coeffs.weights(0)[:, :1]

    def scaled():
        # one scale at a time, conjugated in place: no copy of the values,
        # and the weights of one scale at a time
        for v, wj in zip(coeffs.values, w):
            dj = v @ back
            dj *= wj * measure
            np.conjugate(dj[:, 1::2], out=dj[:, 1::2])
            yield dj
            del dj
    return CoefficientTable(coeffs.l_band, plan.adjoint(scaled()))


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

def _paired(l_band):
    """Flat indices of the paired order, m = 0, 1..L, -1..-L with l
    ascending in each, and its slices of m = 0, m > 0 and m < 0."""
    l_of, m_of = degree_orders(l_band)
    n0, h = l_band + 1, l_band * (l_band + 1) // 2
    return (np.lexsort((l_of, np.where(m_of < 0, l_band - m_of, m_of))),
            slice(0, n0), slice(n0, n0 + h), slice(n0 + h, None))


def frame_matrix(family, taus, grid, scales, l_band):
    """The dense frame operator S_R, float64, in the real harmonic basis.

    U maps a flat table f to f_l0 for l = 0..L, then c_lm = (f_lm +
    f_l,-m) / sqrt 2 for m = 1..L, then s_lm = i (f_l,-m - f_lm) / sqrt 2
    for m = 1..L, l ascending from m in each order: the paired order of
    S_R's rows and columns.  U is unitary and the kernels are real, so
    S_R = U S U^H is real symmetric; S = U^H S_R U is the operator on flat
    tables, and S f = U^H (S_R (U f)).

    taus[j] is the selectivity of scale j, one value or one per carrier.
    Block (m, m') of S sums beta_jk[m] beta_jk'[m']^T H(m' - m), beta_jk[m,
    l] = d^l_mk P_j[l, k], over bands, scales and axial pairs p = (k, k'),
    k = k' (mod n_axial); H(d) = log_step / (8 pi) sum_c measure_c w_ck
    w_ck' e^{i d phi_c} is the one place the cells and their selectivities
    enter.  T sums blocks m' >= m and pairs k + k' >= 0, with m' = m and
    k + k' = 0 at half weight; beta_-k[-m] = beta_k[m] makes A[m, m'] =
    T[m, m'] + T[-m', -m]^T with S = A + A^H, and one fold of T on slices
    gives S_R.  Whole bands (cells sharing one tau and one measure at
    longitudes (c + 1/2) 2 pi / N) have H(d) = H(0) (-1)^(d/N) where N
    divides d and 0 elsewhere: each reads its tilt once, contracts over its
    own (scale, pair) factors once for all its d, and the sums per d go
    straight into T.
    The other (band, scale) pairs are stacked, one chunk of axial pairs at
    a time: beta is one gather per pair from the tilt store (k < 0 at
    order -m), and per order m one product, with H(m' - m) taken into one
    buffer, fills its blocks m' >= m, one run of columns of the paired
    order.  H, one product per band, reads pair weights formed once for all
    carriers and its cells' e^{i d phi}, e^{i (d-L) phi} e^{i L phi} if d > L.
    """
    if len(taus) != len(scales):
        raise ValueError("need one tau entry per scale: %d entries for %d "
                         "scales" % (len(taus), len(scales)))
    plan = _plan(l_band, grid, family, scales)
    n_m, n_l, ks = 2 * l_band + 1, l_band + 1, plan.ks
    ia, ib = np.nonzero(((ks[:, None] - ks) % len(grid.axial_angles) == 0)
                        & (ks[:, None] + ks >= 0))
    same = np.array_equal(ia, ib)
    pair_w = (np.where(ks[ia] + ks[ib] == 0, 0.5, 1.0)
              * scales.log_step / (8.0 * np.pi))
    w = np.broadcast_to(plan.weights(taus), (len(scales), grid.n_carriers,
                                             len(ks))).swapaxes(0, 1)
    n, (order, *parts) = (l_band + 1) ** 2, _paired(l_band)
    lo, mo = (v[order] for v in degree_orders(l_band))
    if not len(ia):     # no odd order below the band: nothing to sum
        return np.zeros((n, n))
    # per order m its rows a:b in the paired order and its columns m' >= m
    off = np.cumsum(np.r_[0, n_l, np.tile(np.arange(l_band, 0, -1), 2)])
    cols = [(a, b, slice(a, off[n_l]) if mo[a] >= 0 else slice(0, b))
            for a, b in zip(off.tolist(), off[1:].tolist())]

    # per band its whole scales: one measure and tau on the band's cells,
    # which sit at longitudes (c + 1/2) 2 pi / N; tested on all cells
    spans, first = plan.spans, plan.first
    counts = np.diff(first, append=grid.n_carriers)
    measure = grid.cells.measure
    ok = [grid.cells.phi == (np.arange(grid.n_carriers) - np.repeat(
        first, counts) + 0.5) * np.repeat(2.0 * np.pi / counts, counts)]
    ok += [t == np.repeat(t[first], counts) for t in (measure, *(
        np.broadcast_to(t, grid.n_carriers) for t in taus))]
    ok = np.logical_and.reduceat(ok, first, axis=1)
    whole = ok[2:] & ok[0] & ok[1]      # [scale, band]

    # the other (band, scale) pairs: compact beta rows and H(d) per pair,
    # stacked
    qb, qj = np.nonzero(~whole.T)
    t = np.zeros((2, n, n))    # T's real and imaginary parts
    if len(qb):
        # H per mixed band for all scales into [band, d, scale, pair], then
        # its mixed columns: row d of e^{i d phi} measure times pair weights
        h = np.empty((len(spans), n_m, len(scales), len(ia)), dtype=complex)
        pw = (pair_w * w[:, :, ia] * w[:, :, ib]).reshape(len(w), -1)
        for b in np.flatnonzero(~whole.all(axis=0)):
            ph, s = plan.phases[spans[b]].T, spans[b]
            e = np.r_[ph[l_band:], ph[l_band + 1:] * ph[-1]]
            e *= measure[s]
            np.matmul(e, pw[s], out=h[b].reshape(n_m, -1))
        h = h[qb, :, qj].transpose(1, 0, 2)
        h[0] *= 0.5     # d = 0: the blocks m' = m, at half weight

        def rows(p):
            # beta at [paired (m, l), (band, scale), pair]: per pair a gather
            # from the store (k < 0 reads order -m) times its kernel rows
            beta = np.empty((n, len(qb), len(p)))
            for i, k in enumerate(p.tolist()):
                m = l_band + np.sign(ks[k]) * mo
                np.multiply(plan.store[k // 2][m, lo].take(qb, 1),
                            plan.kern[qj, k][:, lo].T, out=beta[:, :, i])
            return beta.reshape(n, -1)

        # the stacked rows of one chunk hold at most the tilt store's entries
        entries = n * h.size // n_m * (2 - same)
        chunks = np.array_split(np.arange(len(ia)), min(
            len(ia), -(-entries // plan.store.size)))
        hcs = [(np.ascontiguousarray(x.real), np.ascontiguousarray(x.imag))
               for x in (h[:, :, ch].reshape(n_m, -1) for ch in chunks)]
        del h, pw   # H per chunk, its real and imaginary parts, from here on
        for i, (ch, hc) in enumerate(zip(chunks, hcs)):
            low = rows(ia[ch])
            high = low if same else rows(ib[ch])
            z = np.empty_like(high)
            # one product per order m, H(m' - m) taken over the degrees of
            # each order m' into one buffer; the first chunk writes T
            for a, b, c in cols:
                for part, hp in zip(t[:, a:b, c], hc):
                    hp.take(mo[c] - mo[a], 0, z[c], "clip")
                    z[c] *= high[c]
                    if i:
                        part += low[a:b] @ z[c].T
                    else:
                        np.matmul(low[a:b], z[c].T, out=part)
            del low, high, z, hc, part, hp   # part, a view, holds T

    # the whole bands per order difference d: T_d[m] = sum_b v_d(b) sum_jp
    # beta_jk[m] w_jp beta_jk'[m + d]^T, v_d = N measure (-1)^(d/N) (half at
    # d = 0), one contraction over the band's (scale, pair) factors for all
    # its d, added at the paired order's entries at[m, l] (-1 if l < |m|)
    at = np.full((n_m, n_l), -1)
    at[mo + l_band, lo] = np.arange(n)
    blocks = {}
    ka, kb = plan.kern[:, ia, None], plan.kern[:, ib, None]
    for b in np.flatnonzero(whole.any(axis=0)):
        n_c, js, tb = counts[b], np.flatnonzero(whole[:, b]), plan.tilt(b)
        x = w[first[b], js]
        wb = (pair_w * x[:, ia] * x[:, ib])[..., None, None]
        # beta_jk at [m, l, (j, p)] and w_jp beta_jk' at [m, (j, p), l']
        left = (ka[js] * tb[ia]).reshape(-1, n_m, n_l).transpose(1, 2, 0)
        right = (wb * kb[js] * tb[ib]).reshape(-1, n_m, n_l).swapaxes(0, 1)
        for q, d in enumerate(range(0, n_m, n_c)):
            blocks[d] = blocks.get(d, 0.0) + (-1) ** q * n_c / (1 + (
                d == 0)) * measure[first[b]] * (left[:n_m - d] @ right[d:])
        del left, right
    for d in list(blocks):
        row, col = at[:n_m - d, :, None], at[d:, None, :]
        keep = (row >= 0) & (col >= 0)
        t[0].reshape(-1)[(row * n + col)[keep]] += blocks.pop(d)[keep]
    # S_R = R + R^T, R = 2 Re(U T U^H) with T's blocks m' = m at half weight,
    # on the slices of m = 0, m > 0, m < 0; T is 0 at m > 0 >= m', m = 0 > m'
    (z, p, q), (re, im), r = parts, t, np.empty((n, n))
    r[z, z] = 2.0 * re[z, z]
    r[z, n_l:] = np.sqrt(2.0) * np.c_[re[z, p], -im[z, p]]
    r[n_l:, z] = np.sqrt(2.0) * np.r_[re[q, z], -im[q, z]]
    even, odd = re[p, p] + re[q, q], im[p, p] - im[q, q]
    np.add(even, re[q, p], out=r[p, p])
    np.subtract(even, re[q, p], out=r[q, q])
    np.subtract(odd, im[q, p], out=r[q, p])
    np.negative(np.add(odd, im[q, p], out=odd), out=r[p, q])
    del t, re, im, even, odd    # T before R + R^T
    return r + r.T


def reconstruct(coeffs, cfg=None):
    """Invert the frame operator by Jacobi-preconditioned conjugate gradients.

    CG solves S_R x = U b in the real basis U of frame_matrix, b the
    adjoint image, for its real and imaginary parts at once, with D,
    S_R's diagonal, as preconditioner; cfg.tolerance bounds ||D^-1 r|| /
    ||D^-1 U b||, the residual a FrameConvergenceError carries.  No kernel
    reaches degree 0 (odd orders need |k| <= l): the solve runs on l >= 1.
    S_R comes from the frame's plan (BandPlan.frame).  One tau per scale
    starts CG from zero.  A tau map starts CG from the LU solution of S_R
    scaled to a unit diagonal (np.linalg.solve, backward stable) or, if
    under-resolved and so maybe singular, from the minimum-norm solution
    (eigh, eigenvalues below 1e-12 times the largest dropped), as an LU
    start carries a null-space part no CG step removes.
    cfg.max_iterations counts the CG steps after the start.
    """
    if cfg is None:
        cfg = FrameOperatorConfig()
    l_band, (order, _, pos, neg) = coeffs.l_band, _paired(coeffs.l_band)
    w, g = adjoint_transform(coeffs).values[order], np.sqrt(0.5)
    w[pos], w[neg] = g * (w[pos] + w[neg]), 1j * g * (w[neg] - w[pos])
    b = np.stack((w.real, w.imag), 1)[1:]     # U b, l >= 1
    sr, diag = _plan(l_band, coeffs.grid, coeffs.family,
                     coeffs.scales).frame(coeffs.taus)
    sa = sr[1:, 1:]
    table, grid_spec = CoefficientTable(l_band), default_grid_spec(l_band)
    if np.linalg.norm(b) == 0.0:
        return synthesize_signal(table, grid_spec)
    if np.any(diag <= 0.0):
        raise ArithmeticError("frame operator diagonal is not positive: a "
                              "degree l >= 1 carries no kernel energy, or "
                              "the grid is too coarse for this band")
    znorm = np.linalg.norm(b / diag)
    if all(np.ndim(t) == 0 for t in coeffs.taus):
        x, r = np.zeros_like(b), b
    elif coeffs.under_resolved:
        lam, v = np.linalg.eigh(sa)
        keep = lam > 1e-12 * lam[-1]
        x = v[:, keep] @ ((v[:, keep].T @ b) / lam[keep, None])
        r = b - sa @ x
    else:   # LU of S_R scaled to a unit diagonal: its degrees are graded
        x = (e := diag ** -0.5) * np.linalg.solve(sa * e * e.T, e * b)
        r = b - sa @ x
    z = p = r / diag
    rz, residual = np.vdot(r, z), np.linalg.norm(z) / znorm
    for _ in range(cfg.max_iterations):
        if residual <= cfg.tolerance:
            break
        q = sa @ p
        alpha = rz / np.vdot(p, q)
        x = x + alpha * p
        r = r - alpha * q
        z = r / diag
        residual = np.linalg.norm(z) / znorm
        rz, rz_old = np.vdot(r, z), rz
        p = z + (rz / rz_old) * p
    if cfg.strict and not residual <= cfg.tolerance:
        raise FrameConvergenceError(residual, cfg.max_iterations)
    w = np.r_[0.0, x @ np.array([1.0, 1j])]
    w[pos], w[neg] = g * (w[pos] + 1j * w[neg]), g * (w[pos] - 1j * w[neg])
    table.values[order] = w
    return synthesize_signal(table, grid_spec)
