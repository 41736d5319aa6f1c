"""Rotation-grid analysis, adjoint, frame operator, and reconstruction."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from sphwave import transform
from sphwave.admissibility import _kernel_matrix
from sphwave.profiles import WaveletSpec, evaluate_wavelet, window_weights
from sphwave.multiselect import (SelectivitySet, refine_tau, select_tau,
                                 selectivity_scan)
from sphwave.sphfn import (CoefficientTable, SphericalSignal, analyze_signal,
                           coef_index, default_grid_spec, degree_orders,
                           grid_phis, make_colat_grid, synthesize_signal)
from sphwave.so3 import make_rotation, make_scale_sequence, make_so3_grid
from sphwave.transform import (FrameConvergenceError, FrameOperatorConfig,
                               adjoint_transform, forward_transform,
                               frame_matrix, reconstruct,
                               rotate_coefficients, uniform_specs)
from sphwave.transform import _band_tilt, _jx_basis, _wigner_d

import oracles
from oracles import rotate_signal_pullback, spherical_harmonic

SCALES = make_scale_sequence(1.0, 0.5, 1)


def _random_table(l_band, seed, kill_below=0):
    rng = np.random.default_rng(seed)
    n = (l_band + 1) ** 2
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kill_below >= 0:
        vec[:coef_index(kill_below, kill_below) + 1] = 0.0
    return CoefficientTable(l_band, vec)


def _signal(table):
    return synthesize_signal(table, default_grid_spec(table.l_band))


def _evaluate_table(table, theta, phi):
    out = np.zeros(np.broadcast(theta, phi).shape, dtype=complex)
    for l in range(table.l_band + 1):
        for k in range(-l, l + 1):
            c = table.get(l, k)
            if c != 0.0:
                out += c * spherical_harmonic(l, k, theta, phi)
    return out


def test_tilt_blocks_unitary():
    for theta in (0.35, 1.2):
        blocks = [_wigner_d(theta, l) for l in range(9)]
        for l, b in enumerate(blocks):
            gram = b.conj().T @ b
            assert np.max(np.abs(gram - np.eye(2 * l + 1))) < 1e-12, (theta, l)
    for l, b in enumerate(_wigner_d(0.0, l) for l in range(6)):
        assert np.max(np.abs(b - np.eye(2 * l + 1))) < 1e-12, l
    # the per-harmonic analysis construction is the reference
    rng = np.random.default_rng(41)
    for l_band in (4, 8, 12):
        for theta in np.round(rng.uniform(0.0, np.pi, 4), 12):
            ref = oracles.tilt_blocks(theta, l_band)
            blocks = [_wigner_d(theta, l) for l in range(l_band + 1)]
            for l, (b, r) in enumerate(zip(blocks, ref)):
                assert np.max(np.abs(b - r)) < 1e-13, (l_band, theta, l)
            # the band cache holds the odd k > 0 columns of these blocks
            # and exact zeros where l < max(|m|, k), which the band
            # operator sums over
            tilt = _band_tilt(theta, l_band)
            k = np.arange(1, l_band + 1, 2)[:, None, None]
            m = np.arange(-l_band, l_band + 1)[:, None]
            l = np.arange(l_band + 1)
            assert np.all(tilt[(l < np.abs(m)) | (l < k)] == 0.0)
            for kk, mm, ll in zip(*np.nonzero((l >= np.abs(m)) & (l >= k))):
                assert (tilt[kk, mm, ll]
                        == blocks[ll][mm - l_band + ll, 2 * kk + 1 + ll])
    for l, b in enumerate(_wigner_d(1.1, l) for l in range(33)):
        gram = b.conj().T @ b
        assert np.max(np.abs(gram - np.eye(2 * l + 1))) < 1e-13, l


def test_tilt_blocks_real():
    # the blocks are real Wigner d-matrices: the library builds them in
    # real arithmetic from the J_x eigenbasis, and the complex
    # quadrature's imaginary part is roundoff
    rng = np.random.default_rng(43)
    for l_band in (4, 8, 16, 32):
        for theta in np.round(rng.uniform(0.0, np.pi, 2), 12):
            flat = oracles.flat_tilt_blocks(theta, l_band)
            ref = oracles.tilt_blocks_flat(theta, l_band)
            assert flat.dtype == np.float64
            assert np.max(np.abs(ref.imag)) <= 1e-13, (l_band, theta)
            assert np.max(np.abs(flat - ref.real)) <= 1e-14, (l_band, theta)


def test_tilt_blocks_orthogonal_at_high_degree():
    # one degree at a time, and the eigenbases (23 MB up to l = 128) are
    # not held for the rest of the run
    for l, b in enumerate(_wigner_d(1.1, l) for l in range(129)):
        assert np.max(np.abs(b.T @ b - np.eye(2 * l + 1))) < 1e-13, l
    _jx_basis.cache_clear()


def test_tilt_blocks_compose():
    # tilts about one axis add their angles: d(a) d(b) = d(a + b)
    for a, b in ((0.7, 1.9), (2.9, 0.35), (1.1, -0.4)):
        d_a, d_b, d_ab = (
            [_wigner_d(t, l) for l in range(65)]
            for t in (a, b, a + b))
        for l, (x, y, z) in enumerate(zip(d_a, d_b, d_ab)):
            assert np.max(np.abs(x @ y - z)) < 1e-13, (a, b, l)
            assert np.max(np.abs(y @ x - z)) < 1e-13, (a, b, l)


def test_tilt_order_reversal():
    # the band cache keeps the orders k > 0 and reads k < 0 through
    # d^l_{-m,-k} = d^l_mk, so the identity must hold to roundoff at every
    # degree and angle the operator uses, near the pole and equator too
    for theta in (1e-9, 1e-4, 0.35, 1.1, 0.5 * np.pi - 1e-7, 0.5 * np.pi,
                  2.3, np.pi - 1e-6):
        for l in range(65):
            d = _wigner_d(theta, l)
            assert np.max(np.abs(d[::-1, ::-1] - d)) <= 1e-13, (theta, l)


def test_band_tilt_cache_holds_one_half():
    # one cache entry per band, of at most K (L + 1)^2 float64 values with
    # K the number of odd orders: the k < 0 half is derived, not stored
    grid = make_so3_grid(0.5, 0.5)
    for l_band in (8, 16, 17):
        n_odd = 2 * ((l_band + 1) // 2)
        _band_tilt.cache_clear()
        forward_transform(_signal(_random_table(l_band, 5)),
                          uniform_specs("omega", 4.0, SCALES), grid, SCALES)
        assert _band_tilt.cache_info().currsize == len(grid.bands)
        for theta, _, _, _ in grid.bands:
            tilt = _band_tilt(float(theta), l_band)
            assert tilt.dtype == np.float64 and not tilt.flags.writeable
            # owned, so no larger array sits behind a view
            assert tilt.flags.owndata
            assert tilt.size <= n_odd * (l_band + 1) ** 2, tilt.shape
        assert _band_tilt.cache_info().currsize == len(grid.bands)


def _split_taus(grid, pattern):
    # per-carrier selectivities that change within latitude bands
    th = np.array([c.theta for c in grid.cells])
    ph = np.array([c.phi for c in grid.cells])
    if pattern == 0:
        return np.where(np.cos(ph) > 0.0, 2.0, np.where(th < 1.5, 8.0, 1.37))
    return np.where(np.sin(2.0 * ph) > 0.3, 16.0, np.where(th > 1.0, 5.0, 1.0))


def test_steerable_operator_matches_per_tau_path():
    # one tau-free band product per (band, scale), rows weighted per
    # carrier, against one complex band product per selectivity
    for fam, l_band, delta in (("omega", 8, 0.5), ("upsilon", 8, 0.5),
                               ("omega", 16, 0.3), ("upsilon", 16, 0.3)):
        grid = make_so3_grid(delta, delta)
        f = _signal(_random_table(l_band, 71 + l_band))
        specs = [tuple(WaveletSpec(fam, rho, t)
                       for t in _split_taus(grid, j))
                 for j, rho in enumerate(SCALES)]
        for spec in (specs, uniform_specs(fam, 5.0, SCALES)):
            coeffs = forward_transform(f, spec, grid, SCALES)
            ref = oracles.forward_per_tau(f, spec, grid, SCALES)
            for got, want in zip(coeffs.values, ref):
                assert (np.max(np.abs(got - want))
                        <= 1e-13 * np.max(np.abs(want))), (fam, l_band)
            adj = adjoint_transform(coeffs).values
            want = oracles.adjoint_per_tau(coeffs)
            assert (np.max(np.abs(adj - want))
                    <= 1e-13 * np.max(np.abs(want))), (fam, l_band)
            s = frame_matrix(fam, coeffs.taus, grid, SCALES, l_band)
            want = oracles.adaptive_frame_matrix(coeffs)
            assert (np.max(np.abs(s - want))
                    <= 1e-13 * np.max(np.abs(want))), (fam, l_band)


def test_forward_matches_spatial_quadrature():
    # independent check: rotate the kernel pointwise and integrate the
    # product with the signal on a quadrature grid resolving the kernel
    l_band = 8
    table = _random_table(l_band, 31, kill_below=-1)
    f = _signal(table)
    grid = make_so3_grid(0.8, 1.2)
    coeffs = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                               grid, SCALES)
    nt, nph = 128, 256
    colat = make_colat_grid(nt)
    th = colat.nodes[:, None]
    ph = (2.0 * np.pi * np.arange(nph) / nph)[None, :]
    fv = _evaluate_table(table, th, ph)
    wq = colat.weights[:, None] * (2.0 * np.pi / nph)
    scale = max(np.abs(v).max() for v in coeffs.values)
    for j, ci, ai in ((0, 3, 0), (0, 17, 2), (1, 11, 4), (1, 30, 1)):
        cell = grid.cells[ci]
        g = make_rotation(grid.axial_angles[ai], cell.theta, cell.phi)
        spec_w = WaveletSpec("omega", SCALES[j], 2.0)
        kern = lambda t, p: evaluate_wavelet(spec_w, t, p)
        psi_g = rotate_signal_pullback(g, kern)(
            np.broadcast_to(th, fv.shape), np.broadcast_to(ph, fv.shape))
        ref = np.sum(wq * psi_g * fv) / (4.0 * np.pi)
        got = coeffs.values[j][ci, ai]
        assert abs(got - ref) < 1e-10 * scale, (j, ci, ai)


def test_forward_linearity():
    l_band = 6
    ta = _random_table(l_band, 41, kill_below=-1)
    tb = _random_table(l_band, 42, kill_below=-1)
    alpha = 0.7 - 0.3j
    tc = CoefficientTable(l_band, alpha * ta.values + tb.values)
    grid = make_so3_grid(0.5, 0.5)
    specs = uniform_specs("omega", 2.0, SCALES)
    wa = forward_transform(_signal(ta), specs, grid, SCALES)
    wb = forward_transform(_signal(tb), specs, grid, SCALES)
    wc = forward_transform(_signal(tc), specs, grid, SCALES)
    for j in range(len(SCALES)):
        ref = alpha * wa.values[j] + wb.values[j]
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(wc.values[j] - ref)) < 1e-12 * scale


def test_low_degree_visibility():
    l_band = 6
    grid = make_so3_grid(0.5, 0.5)
    const = CoefficientTable(l_band)
    const.set(0, 0, 2.0 + 1.0j)
    w0 = forward_transform(_signal(const), uniform_specs("omega", 2.0, SCALES),
                           grid, SCALES)
    assert max(np.abs(v).max() for v in w0.values) < 1e-14
    lone = CoefficientTable(l_band)
    lone.set(1, 1, 1.0)
    f1 = _signal(lone)
    for family in ("omega", "upsilon"):
        w1 = forward_transform(f1, uniform_specs(family, 2.0, SCALES),
                               grid, SCALES)
        # degree 1 is genuinely visible to both families (the second one
        # only nominally suppresses it)
        assert max(np.abs(v).max() for v in w1.values) > 1e-4, family


def test_energy_identity():
    l_band = 6
    table = _random_table(l_band, 33, kill_below=-1)
    f = _signal(table)
    grid = make_so3_grid(0.5, 0.5)
    coeffs = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                               grid, SCALES)
    st = adjoint_transform(coeffs)
    energy = coeffs.total_energy()
    assert abs(energy - np.vdot(table.values, st.values).real) < 1e-12 * energy
    w = coeffs.weights(0)
    assert w.shape == coeffs.values[0].shape
    assert np.all(w > 0)
    assert coeffs.n_coefficients == sum(v.size for v in coeffs.values)


def test_frame_matrix_matches_composition():
    l_band = 6
    table = _random_table(l_band, 33, kill_below=-1)
    grid = make_so3_grid(0.5, 0.5)
    # per carrier: tau by hemisphere at scale 0, by longitude at scale 1
    thetas = np.array([c.theta for c in grid.cells])
    phis = np.array([c.phi for c in grid.cells])
    tau_a = np.where(thetas < 0.5 * np.pi, 1.0, 2.0)
    tau_b = np.where(phis < np.pi, 2.0, 4.0)
    mixed = [tuple(WaveletSpec("omega", rho, float(t)) for t in arr)
             for rho, arr in zip(SCALES, (tau_a, tau_b))]
    for specs in (uniform_specs("omega", 2.0, SCALES), mixed):
        coeffs = forward_transform(_signal(table), specs, grid, SCALES)
        st = adjoint_transform(coeffs)
        s = frame_matrix("omega", coeffs.taus, grid, SCALES, l_band)
        assert np.max(np.abs(s - s.conj().T)) < 1e-14 * np.max(np.abs(s))
        # per-order phase sums against the explicit phase products
        s_phases = oracles.adaptive_frame_matrix(coeffs)
        assert np.max(np.abs(s - s_phases)) < 1e-14 * np.max(np.abs(s))
        sv = s @ table.values
        assert (np.max(np.abs(sv - st.values))
                < 1e-12 * np.max(np.abs(st.values)))


def test_adaptive_matrix_matches_uniform():
    l_band = 6
    grid = make_so3_grid(0.5, 0.5)
    table = _random_table(l_band, 36, kill_below=0)
    specs = [tuple(WaveletSpec("omega", rho, 2.0)
                   for _ in range(grid.n_carriers)) for rho in SCALES]
    coeffs = forward_transform(_signal(table), specs, grid, SCALES)
    s_uniform = frame_matrix("omega", [2.0, 2.0], grid, SCALES, l_band)
    s_adaptive = oracles.adaptive_frame_matrix(coeffs)
    scale = np.max(np.abs(s_uniform))
    assert np.max(np.abs(s_adaptive - s_uniform)) < 1e-13 * scale
    s_closed = oracles.frame_matrix("omega", [2.0, 2.0], grid, SCALES, l_band)
    assert np.max(np.abs(s_closed - s_uniform)) < 1e-13 * scale


def test_frame_matrix_on_aliased_axial_grids():
    # fewer axial angles than 2 k_max + 1: odd orders k, k' with
    # k - k' a multiple of n_axial alias, so the axial Gram matrix has
    # off-diagonal entries (7 angles pair k = +-7; 5 angles pair +-5,
    # (7, -3) and (3, -7)) and the fold of k onto k mod n_axial matters
    l_band = 8
    table = _random_table(l_band, 52, kill_below=-1)
    for delta1, n_axial in ((1.0, 7), (1.3, 5)):
        grid = make_so3_grid(0.5, delta1)
        assert len(grid.axial_angles) == n_axial
        for fam in ("omega", "upsilon"):
            mixed = [tuple(WaveletSpec(fam, rho, t)
                           for t in _split_taus(grid, j))
                     for j, rho in enumerate(SCALES)]
            for specs in (uniform_specs(fam, 5.0, SCALES), mixed):
                coeffs = forward_transform(_signal(table), specs, grid,
                                           SCALES)
                assert coeffs.under_resolved
                s = frame_matrix(fam, coeffs.taus, grid, SCALES, l_band)
                want = oracles.adaptive_frame_matrix(coeffs)
                assert (np.max(np.abs(s - want))
                        <= 1e-13 * np.max(np.abs(want))), (fam, n_axial)
                st = adjoint_transform(coeffs).values
                assert (np.max(np.abs(s @ table.values - st))
                        < 1e-12 * np.max(np.abs(st))), (fam, n_axial)


def _band_grid(grid, bands, shift=0.0):
    # the grid restricted to some of its bands, each band's longitudes
    # turned by shift times its position in the list
    cells, kept = [], []
    for i, b in enumerate(bands):
        theta, idx, phis, measure = grid.bands[b]
        phis = np.mod(phis + shift * (i + 1), 2.0 * np.pi)
        kept.append((theta, len(cells) + np.arange(len(idx)), phis, measure))
        cells.extend(dataclasses.replace(grid.cells[c], phi=float(p))
                     for c, p in zip(idx, phis))
    measures = np.array([c.measure for c in cells])
    return dataclasses.replace(grid, cells=tuple(cells), bands=tuple(kept),
                               measures=measures)


def test_frame_matrix_whole_band_closed_form():
    # cells at (c + 1/2) 2 pi / N sharing one selectivity: the phase sum
    # is N (-1)^(d/N) where N divides d = m' - m and exactly 0 elsewhere
    l_band = 16
    grid = make_so3_grid(0.2, 0.2)
    f = _signal(_random_table(l_band, 61, kill_below=-1))
    _, m_of = degree_orders(l_band)
    for b in (0, 3, 11):
        band = _band_grid(grid, [b])
        n_cells = band.n_carriers
        coeffs = forward_transform(f, uniform_specs("omega", 4.0, SCALES),
                                   band, SCALES)
        s = frame_matrix("omega", coeffs.taus, band, SCALES, l_band)
        aligned = (m_of[None, :] - m_of[:, None]) % n_cells == 0
        assert np.all(s[~aligned] == 0.0), b
        want = oracles.adaptive_frame_matrix(coeffs)
        assert (np.max(np.abs(s - want))
                <= 1e-13 * np.max(np.abs(want))), b
        if n_cells <= 2 * l_band:
            assert np.any(s[aligned & (m_of[None, :] != m_of[:, None])])


def test_frame_matrix_on_shifted_longitudes():
    # bands off the (c + 1/2) 2 pi / N lattice take the general phase sum
    l_band = 8
    table = _random_table(l_band, 62, kill_below=-1)
    base = make_so3_grid(0.5, 0.5)
    grid = _band_grid(base, range(len(base.bands)), shift=0.37)
    for fam in ("omega", "upsilon"):
        mixed = [tuple(WaveletSpec(fam, rho, t) for t in _split_taus(grid, j))
                 for j, rho in enumerate(SCALES)]
        for specs in (uniform_specs(fam, 5.0, SCALES), mixed):
            coeffs = forward_transform(_signal(table), specs, grid, SCALES)
            s = frame_matrix(fam, coeffs.taus, grid, SCALES, l_band)
            want = oracles.adaptive_frame_matrix(coeffs)
            assert (np.max(np.abs(s - want))
                    <= 1e-13 * np.max(np.abs(want))), fam
            st = adjoint_transform(coeffs).values
            assert (np.max(np.abs(s @ table.values - st))
                    < 1e-12 * np.max(np.abs(st))), fam


def test_band_operator_matches_oracles():
    # forward, adjoint, frame operator, scan, select_tau and refine_tau all
    # read the one band operator; the oracles build one complex band matrix
    # per selectivity.  Polar bands have fewer than 2L + 1 cells, and the
    # second grid's longitudes are off the (c + 1/2) 2 pi / N lattice
    l_band = 16
    scales = make_scale_sequence(1.0, 0.5, 2)
    base = make_so3_grid(0.2, 0.2)
    assert len(base.bands[0][1]) < 2 * l_band + 1
    f = _signal(_random_table(l_band, 67))
    tsel = SelectivitySet()

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    for grid in (base, _band_grid(base, range(len(base.bands)), shift=0.37)):
        for fam in ("omega", "upsilon"):
            specs = [tuple(WaveletSpec(fam, rho, t)
                           for t in _split_taus(grid, j % 2))
                     for j, rho in enumerate(scales)]
            coeffs = forward_transform(f, specs, grid, scales)
            want = oracles.forward_per_tau(f, specs, grid, scales)
            assert all(map(close, coeffs.values, want)), fam
            assert close(adjoint_transform(coeffs).values,
                         oracles.adjoint_per_tau(coeffs)), fam
            assert close(frame_matrix(fam, coeffs.taus, grid, scales, l_band),
                         oracles.adaptive_frame_matrix(coeffs)), fam
            smap = selectivity_scan(f, scales, grid, tsel, fam)
            ref = oracles.scan_per_tau(f, scales, grid, tsel, fam)
            assert np.array_equal(smap.tau_star, ref[0]), fam
            assert np.array_equal(smap.phi1_star, ref[1]), fam
            assert np.all(np.abs(smap.value - ref[2]) <= 1e-13 * ref[2]), fam
            for j, alpha2 in ((0, 3), (1, 200), (2, grid.n_carriers - 5)):
                for ours, theirs in ((select_tau, oracles.select_per_tau),
                                     (refine_tau, oracles.refine_per_tau)):
                    got = ours(f, scales, j, alpha2, tsel, grid, fam)
                    want = theirs(f, scales, j, alpha2, tsel, grid, fam)
                    assert got[:2] == want[:2], (fam, j, alpha2)
                    assert abs(got[2] - want[2]) <= 1e-13 * want[2], fam


def test_frame_matrix_hermitian():
    # whole bands, bands split by selectivity, and both in one frame
    l_band = 16
    grid = make_so3_grid(0.2, 0.2)
    scales = make_scale_sequence(1.0, 0.5, 2)
    thetas = np.array([c.theta for c in grid.cells])
    mixed = [_split_taus(grid, 0), np.where(thetas < 0.5 * np.pi, 1.0, 2.0),
             4.0]
    split = [_split_taus(grid, j % 2) for j in range(3)]
    for taus in ([4.0] * 3, mixed, split):
        s = frame_matrix("omega", taus, grid, scales, l_band)
        assert np.array_equal(s, s.conj().T)
        assert np.all(s.diagonal()[1:].real > 0.0)


def test_frame_matrix_tau_per_scale():
    # a different uniform tau on each scale: the three (scale, tau) groups
    # share one set of whole bands and sum into one K_p per axial pair
    scales = make_scale_sequence(1.0, 0.5, 2)
    for l_band, delta2, delta1, n_axial in ((16, 0.2, 0.2, 32),
                                            (8, 0.5, 1.0, 7),
                                            (8, 0.5, 1.3, 5)):
        grid = make_so3_grid(delta2, delta1)
        assert len(grid.axial_angles) == n_axial
        f = _signal(_random_table(l_band, 73 + n_axial, kill_below=-1))
        for fam in ("omega", "upsilon"):
            specs = [WaveletSpec(fam, rho, t)
                     for rho, t in zip(scales, (1.0, 4.0, 16.0))]
            coeffs = forward_transform(f, specs, grid, scales)
            s = frame_matrix(fam, coeffs.taus, grid, scales, l_band)
            want = oracles.adaptive_frame_matrix(coeffs)
            assert (np.max(np.abs(s - want))
                    <= 1e-13 * np.max(np.abs(want))), (fam, n_axial)


def test_frame_matrix_tau_alternating_by_band():
    # tau constant within each band and alternating with the band index:
    # every band is whole, the even and odd bands form two band sets with
    # their own K_p, and the uniform third scale spans both.  In the second
    # map the first scale is split within bands and band 0 alone has tau
    # 16 on the second scale, a lone band next to stacked rows; in the
    # third tau follows the colatitude, so most bands are lone
    l_band = 16
    scales = make_scale_sequence(1.0, 0.5, 2)
    grid = make_so3_grid(0.2, 0.2)
    odd = np.zeros(grid.n_carriers, dtype=bool)
    for b, (_, idx, _, _) in enumerate(grid.bands):
        odd[idx] = b % 2 == 1
    first = np.arange(grid.n_carriers) < len(grid.bands[0][1])
    uniform = np.full(grid.n_carriers, 4.0)
    theta = np.array([c.theta for c in grid.cells])
    maps = ([np.where(odd, 4.0, 1.0), np.where(odd, 2.0, 8.0), uniform],
            [_split_taus(grid, 0),
             np.where(first, 16.0, np.where(odd, 2.0, 8.0)), uniform],
            [1.0 + 3.0 * theta, 2.0 + 6.0 * np.cos(theta) ** 2, uniform])
    f = _signal(_random_table(l_band, 79, kill_below=-1))
    for fam in ("omega", "upsilon"):
        for taus in maps:
            specs = [tuple(WaveletSpec(fam, rho, t) for t in tau)
                     for rho, tau in zip(scales, taus)]
            coeffs = forward_transform(f, specs, grid, scales)
            s = frame_matrix(fam, coeffs.taus, grid, scales, l_band)
            want = oracles.adaptive_frame_matrix(coeffs)
            assert (np.max(np.abs(s - want))
                    <= 1e-13 * np.max(np.abs(want))), fam
            assert np.array_equal(s, s.conj().T), fam


def test_frame_matrix_without_odd_orders():
    # at band limit 0 there is no odd axial order, so S is the 1 x 1 zero
    grid = make_so3_grid(0.5, 0.5)
    for taus in ([2.0, 2.0], [_split_taus(grid, 0), 4.0]):
        s = frame_matrix("omega", taus, grid, SCALES, 0)
        assert s.shape == (1, 1) and s[0, 0] == 0.0


def test_frame_matrix_peak_memory():
    # whole bands are written straight into the degree-major layout, with
    # no mirrored or permuted copy of S, and their tilts are stacked one
    # chunk of axial pairs at a time
    l_band = 16
    scales = make_scale_sequence(1.0, 0.5, 2)
    grid = make_so3_grid(0.2, 0.2)
    frame_matrix("omega", [4.0] * 3, grid, scales, l_band)   # warm caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        s = frame_matrix("omega", [4.0] * 3, grid, scales, l_band)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * s.nbytes, peak / s.nbytes


def test_rotate_coefficients_matches_pullback():
    l_band = 5
    table = _random_table(l_band, 44, kill_below=-1)
    g = make_rotation(0.9, 0.7, 2.0)
    rotated = rotate_signal_pullback(
        g, lambda t, p: _evaluate_table(table, t, p))
    gspec = default_grid_spec(l_band)
    colat = make_colat_grid(gspec.n_theta)
    tt, pp = np.meshgrid(colat.nodes, grid_phis(gspec), indexing="ij")
    ref = analyze_signal(SphericalSignal(rotated(tt, pp), gspec))
    got = rotate_coefficients(table, g)
    scale = np.sqrt(table.norm_sq())
    assert np.max(np.abs(got.values - ref.values)) < 1e-10 * scale


def test_reconstruct_uniform():
    table = _random_table(8, 35, kill_below=0)
    f = _signal(table)
    grid = make_so3_grid(0.2, 0.2)
    coeffs = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                               grid, SCALES)
    assert not coeffs.under_resolved
    rec = reconstruct(coeffs)
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(rec.values - f.values)) < 1e-7 * scale


def test_reconstruct_mixed_selectivity():
    table = _random_table(8, 35, kill_below=0)
    f = _signal(table)
    grid = make_so3_grid(0.2, 0.2)
    thetas = np.array([c.theta for c in grid.cells])
    phis = np.array([c.phi for c in grid.cells])
    tau_a = np.where(thetas < 0.5 * np.pi, 1.0, 2.0)
    tau_b = np.where(phis < np.pi, 2.0, 4.0)
    specs = []
    for j, rho in enumerate(SCALES):
        arr = tau_a if j == 0 else tau_b
        specs.append(tuple(WaveletSpec("omega", rho, float(t)) for t in arr))
    coeffs = forward_transform(f, specs, grid, SCALES)
    assert all(np.ndim(t) == 1 for t in coeffs.taus)
    rec = reconstruct(coeffs)
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(rec.values - f.values)) < 1e-6 * scale


def test_reconstruct_upsilon_low_degree_handling():
    grid = make_so3_grid(0.2, 0.2)
    clean = _random_table(8, 35, kill_below=1)
    f = _signal(clean)
    coeffs = forward_transform(f, uniform_specs("upsilon", 2.0, SCALES),
                               grid, SCALES)
    rec = reconstruct(coeffs)
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(rec.values - f.values)) < 1e-7 * scale
    # with degree-1 content present the kernels see degree 1 and so does
    # the reconstruction: it no longer matches the truncated signal
    dirty = _random_table(8, 35, kill_below=0)
    truncated = dirty.values.copy()
    truncated[coef_index(1, -1):coef_index(1, 1) + 1] = 0.0
    fd = _signal(dirty)
    ft = synthesize_signal(CoefficientTable(8, truncated), default_grid_spec(8))
    coeffs = forward_transform(fd, uniform_specs("upsilon", 2.0, SCALES),
                               grid, SCALES)
    rec = reconstruct(coeffs)
    err = np.max(np.abs(rec.values - ft.values)) / np.max(np.abs(ft.values))
    assert err > 1e-4


def test_reconstruct_degree_one_content():
    # every degree with kernel energy is inverted, degree 1 included,
    # whatever the family's nominal order
    table = _random_table(8, 53, kill_below=0)
    f = _signal(table)
    grid = make_so3_grid(0.3, 0.3)
    cfg = FrameOperatorConfig(tolerance=1e-12)
    l_of, _ = degree_orders(8)
    for family in ("omega", "upsilon"):
        coeffs = forward_transform(f, uniform_specs(family, 2.0, SCALES),
                                   grid, SCALES)
        assert not coeffs.under_resolved
        rec = analyze_signal(reconstruct(coeffs, cfg)).values
        for l in range(1, 9):
            want = table.values[l_of == l]
            err = np.linalg.norm(rec[l_of == l] - want) / np.linalg.norm(want)
            assert err <= 1e-10, (family, l, err)


def test_reconstruct_active_degrees_are_a_tail():
    # reconstruct solves on S from the lowest degree a kernel reaches up:
    # every kernel must reach every degree l >= 1, and none reaches l = 0
    for fam in ("omega", "upsilon"):
        for l_band in (6, 12, 16, 32):
            for tau in (1.0, 4.0, 16.0):
                k_used = window_weights(tau, l_band) != 0.0
                for rho in (1.0, 0.5, 0.25):
                    rows = _kernel_matrix(fam, rho, l_band)[:, k_used]
                    active = np.any(rows, axis=1)
                    assert not active[0] and active[1:].all(), (
                        fam, l_band, tau, rho)


def test_reconstruct_controls():
    table = _random_table(6, 37, kill_below=0)
    f = _signal(table)
    grid = make_so3_grid(0.5, 0.5)
    coeffs = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                               grid, SCALES)
    cfg = FrameOperatorConfig(max_iterations=1, tolerance=1e-15, strict=True)
    with pytest.raises(FrameConvergenceError) as info:
        reconstruct(coeffs, cfg)
    assert info.value.iterations == 1
    assert info.value.residual > 0
    loose = FrameOperatorConfig(max_iterations=1, tolerance=1e-15, strict=False)
    rec = reconstruct(coeffs, loose)
    assert rec.values.shape == f.values.shape
    zero = forward_transform(_signal(CoefficientTable(6)),
                             uniform_specs("omega", 2.0, SCALES), grid, SCALES)
    assert np.all(reconstruct(zero).values == 0.0)


def _count_frame_builds(monkeypatch):
    # an empty frame cache for this test, and the frame_matrix calls
    calls, build = [], transform.frame_matrix

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(transform, "_frame_cache", [None])
    monkeypatch.setattr(transform, "frame_matrix", counted)
    return calls


def _split_specs(family, grid):
    return [tuple(WaveletSpec(family, rho, t) for t in _split_taus(grid, j))
            for j, rho in enumerate(SCALES)]


def test_reconstruct_reuses_uniform_frame(monkeypatch):
    # S depends on the frame alone: on the same uniform frame a second
    # reconstruct builds nothing and gives the same bits as a fresh build
    calls = _count_frame_builds(monkeypatch)
    grid = make_so3_grid(0.5, 0.5)
    specs = uniform_specs("omega", 2.0, SCALES)
    coeffs = [forward_transform(_signal(_random_table(6, seed, 0)), specs,
                                grid, SCALES) for seed in (41, 42)]
    first = [reconstruct(c).values for c in coeffs]
    assert len(calls) == 1
    assert all(np.array_equal(reconstruct(c).values, want)
               for c, want in zip(coeffs, first))
    assert len(calls) == 1
    s, start, diag = transform._frame_cache[0][2]
    fresh = frame_matrix("omega", coeffs[0].taus, grid, SCALES, 6)
    assert np.array_equal(s, fresh) and start == 1
    assert np.array_equal(diag, fresh.diagonal()[start:].real)
    # the kept S is read-only; frame_matrix still returns its own array
    with pytest.raises(ValueError):
        s[0, 0] = 1.0
    fresh[0, 0] = 1.0
    transform._frame_cache[0] = None
    assert np.array_equal(reconstruct(coeffs[1]).values, first[1])
    assert len(calls) == 2


def test_frame_cache_rebuilds_on_any_key_change(monkeypatch):
    # family, tau, scales, band limit and the grid object each make a
    # new frame; one slot, so returning to the base frame rebuilds too
    calls = _count_frame_builds(monkeypatch)
    grid = make_so3_grid(0.5, 0.5)
    f6, f4 = (_signal(_random_table(l, 43, 0)) for l in (6, 4))
    other = make_scale_sequence(1.0, 0.6, 1)
    base = (f6, "omega", 2.0, SCALES, grid)
    variants = [(f6, "upsilon", 2.0, SCALES, grid),
                (f6, "omega", 4.0, SCALES, grid),
                (f6, "omega", [2.0, 4.0], SCALES, grid),
                (f6, "omega", 2.0, other, grid),
                (f4, "omega", 2.0, SCALES, grid),
                (f6, "omega", 2.0, SCALES, dataclasses.replace(grid))]
    frames = [x for v in variants for x in (base, v)] + [variants[-1]]
    for n, (f, fam, tau, scales, g) in enumerate(frames, 1):
        specs = ([WaveletSpec(fam, rho, t) for rho, t in zip(scales, tau)]
                 if isinstance(tau, list) else uniform_specs(fam, tau, scales))
        reconstruct(forward_transform(f, specs, g, scales))
        assert len(calls) == min(n, len(frames) - 1), (n, fam, tau)


def test_per_carrier_taus_are_not_kept(monkeypatch):
    # a per-carrier map comes from one signal's scan: it drops the kept
    # uniform frame and keeps nothing itself
    calls = _count_frame_builds(monkeypatch)
    grid = make_so3_grid(0.5, 0.5)
    f = _signal(_random_table(6, 44, 0))
    reconstruct(forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                                  grid, SCALES))
    assert transform._frame_cache[0] is not None
    adaptive = forward_transform(f, _split_specs("omega", grid), grid, SCALES)
    loose = FrameOperatorConfig(strict=False)
    for n in (2, 3):
        reconstruct(adaptive, loose)
        assert len(calls) == n and transform._frame_cache == [None]


def test_reconstruct_controls_on_kept_frame(monkeypatch):
    # strict and loose solves end the same way whether S was built or
    # kept, and the adaptive frame (never kept) raises the same each time
    calls = _count_frame_builds(monkeypatch)
    grid = make_so3_grid(0.5, 0.5)
    f = _signal(_random_table(6, 45, 0))
    strict = FrameOperatorConfig(max_iterations=1, tolerance=1e-15)
    loose = FrameOperatorConfig(max_iterations=1, tolerance=1e-15,
                                strict=False)
    for specs, builds in ((uniform_specs("omega", 2.0, SCALES), 2),
                          (_split_specs("omega", grid), 4)):
        coeffs = forward_transform(f, specs, grid, SCALES)
        del calls[:]
        errors, recs = [], []
        for order in ((strict, loose), (loose, strict)):
            transform._frame_cache[0] = None    # a miss, then a hit
            for cfg in order:
                if cfg.strict:
                    with pytest.raises(FrameConvergenceError) as info:
                        reconstruct(coeffs, cfg)
                    errors.append((info.value.residual,
                                   info.value.iterations))
                else:
                    recs.append(reconstruct(coeffs, cfg).values)
        assert errors[0] == errors[1] and np.array_equal(*recs), builds
        assert len(calls) == builds


def test_under_resolved_flag():
    f = _signal(_random_table(8, 38, kill_below=0))
    coarse = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                               make_so3_grid(0.8, 1.2), SCALES)
    assert coarse.under_resolved
    fine = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                             make_so3_grid(0.2, 0.2), SCALES)
    assert not fine.under_resolved


def test_spec_validation():
    f = _signal(_random_table(4, 39, kill_below=0))
    grid = make_so3_grid(0.7, 0.9)
    with pytest.raises(ValueError):
        forward_transform(f, WaveletSpec("omega", 1.0, 2.0), grid, SCALES)
    mixed = (WaveletSpec("omega", 1.0, 2.0), WaveletSpec("upsilon", 0.5, 2.0))
    with pytest.raises(ValueError):
        forward_transform(f, mixed, grid, SCALES)
    wrong_rho = (WaveletSpec("omega", 1.0, 2.0), WaveletSpec("omega", 0.7, 2.0))
    with pytest.raises(ValueError):
        forward_transform(f, wrong_rho, grid, SCALES)
    short = [(WaveletSpec("omega", rho, 2.0),) * 2 for rho in SCALES]
    with pytest.raises(ValueError):
        forward_transform(f, short, grid, SCALES)


def test_config_validation():
    for tolerance in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            FrameOperatorConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        FrameOperatorConfig(max_iterations=0)
