"""Rotation-grid analysis, adjoint, frame operator, and reconstruction."""

import concurrent.futures
import dataclasses
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from sphwave import transform
from sphwave.admissibility import _kernel_matrix
from sphwave.profiles import WaveletSpec, evaluate_wavelet, window_weights
from sphwave.multiselect import (TIE_MARGIN, SelectivitySet,
                                 adaptive_analysis, refine_tau, select_tau,
                                 selectivity_scan)
from sphwave.sphfn import (CoefficientTable, SphericalSignal, analyze_signal,
                           coef_index, default_grid_spec, degree_orders,
                           grid_phis, make_colat_grid, synthesize_signal)
from sphwave.so3 import make_rotation, make_scale_sequence, make_so3_grid
from sphwave.transform import (FrameConvergenceError, FrameOperatorConfig,
                               adjoint_transform, forward_transform,
                               frame_matrix, reconstruct,
                               rotate_coefficients, uniform_specs)
from sphwave.transform import BandPlan, _jx_basis, _tilt_store, _wigner_d

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
    # the tilt store holds the odd k > 0 columns of the blocks, band last,
    # and exact zeros where l < max(|m|, k), which the band operator sums
    # over
    rng = np.random.default_rng(41)
    for l_band in (4, 8, 12):
        for theta in np.round(rng.uniform(0.0, np.pi, 4), 12):
            blocks = [_wigner_d(theta, l) for l in range(l_band + 1)]
            tilt = _tilt_store((0.3, theta, 2.9), l_band)[..., 1]
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
    # real arithmetic from the J_x eigenbasis, and the complex quadrature,
    # the reference, is within 1e-14 of them, its imaginary part (roundoff)
    # included; four angles at L = 4, 8, 12 and two at L = 4, 8, 16, 32
    for seed, n, l_bands in ((41, 4, (4, 8, 12)), (43, 2, (4, 8, 16, 32))):
        rng = np.random.default_rng(seed)
        for l_band in l_bands:
            for theta in np.round(rng.uniform(0.0, np.pi, n), 12):
                flat = oracles.flat_tilt_blocks(theta, l_band)
                ref = oracles.tilt_blocks_flat(theta, l_band)
                assert flat.dtype == np.float64
                assert np.max(np.abs(flat - ref)) <= 1e-14, (l_band, theta)


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
    # the tilt store keeps the orders k > 0 and reads k < 0 through
    # d^l_{-m,-k} = d^l_mk, so the identity must hold to roundoff at every
    # degree and angle the operator uses, near the pole and equator too
    for theta in (1e-9, 1e-4, 0.35, 1.1, 0.5 * np.pi - 1e-7, 0.5 * np.pi,
                  2.3, np.pi - 1e-6):
        for l in range(65):
            d = _wigner_d(theta, l)
            assert np.max(np.abs(d[::-1, ::-1] - d)) <= 1e-13, (theta, l)


def test_band_tilt_cache_holds_one_half():
    # one store per band set, K (L + 1)^2 float64 values per band with K
    # the number of odd orders: the k < 0 half is derived, not stored, and
    # the forward transform, the adjoint, S and the band reads share it
    grid = make_so3_grid(0.5, 0.5)
    bands = oracles.band_partition(grid)
    thetas = tuple(float(b[0]) for b in bands)
    for l_band in (8, 16, 17):
        n_odd = 2 * ((l_band + 1) // 2)
        _tilt_store.cache_clear()
        coeffs = forward_transform(_signal(_random_table(l_band, 5)),
                                   uniform_specs("omega", 4.0, SCALES), grid,
                                   SCALES)
        adjoint_transform(coeffs)
        frame_matrix("omega", coeffs.taus, grid, SCALES, l_band)
        assert _tilt_store.cache_info().currsize == 1
        store = _tilt_store(thetas, l_band)
        assert store.dtype == np.float64 and not store.flags.writeable
        # owned, so no larger array sits behind a view
        assert store.flags.owndata
        assert store.shape == (n_odd // 2, 2 * l_band + 1, l_band + 1,
                               len(bands))
        plan = BandPlan(l_band, grid, "omega", SCALES)
        assert plan.store is store
        for b in range(len(bands)):
            tilt = plan.tilt(b)
            assert np.array_equal(tilt[1::2], store[..., b])
            assert np.array_equal(tilt[::2], store[:, ::-1, :, b])
        assert _tilt_store.cache_info().currsize == 1


def _split_taus(grid, pattern):
    # per-carrier selectivities that change within latitude bands
    th = np.array([c.theta for c in grid.cells])
    ph = np.array([c.phi for c in grid.cells])
    if pattern == 0:
        return np.where(np.cos(ph) > 0.0, 2.0, np.where(th < 1.5, 8.0, 1.37))
    return np.where(np.sin(2.0 * ph) > 0.3, 16.0, np.where(th > 1.0, 5.0, 1.0))


def _specs(fam, taus, scales=SCALES):
    # one spec per scale for a uniform tau, one per carrier for an array
    return [tuple(WaveletSpec(fam, rho, t) for t in tau) if np.ndim(tau)
            else WaveletSpec(fam, rho, tau) for rho, tau in zip(scales, taus)]


def _definition(v, fam, taus, grid, scales):
    # the definition's W_j(c, a) per scale from the carrier sums v
    return [oracles.correlation(v, fam, rho, t, grid.axial_angles)
            for rho, t in zip(scales, taus)]


def _close(got, want, tol=1e-13):
    return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def _frame_ok(sr, want, tol=1e-13):
    # S_R is float64 and exactly symmetric, and an oracle's S folded into
    # the real basis (want) is real to 1e-15 of S_R's largest entry and
    # matches S_R to tol of it
    top = np.max(np.abs(sr))
    return (sr.dtype == np.float64 and np.array_equal(sr, sr.T)
            and np.max(np.abs(want.imag)) <= 1e-15 * top
            and np.max(np.abs(want.real - sr)) <= tol * top)


def _apply_error(sr, table, coeffs):
    # S_R (U f) against U times the adjoint image of f's coefficients,
    # relative to that image
    u = oracles.real_basis(table.l_band)
    st = adjoint_transform(coeffs).values
    return (np.max(np.abs(sr @ (u @ table.values) - u @ st))
            / np.max(np.abs(st)))


def _adjoint_identity(coeffs, table, want, rng):
    # <W f, v>_w = <f, adjoint(v)> for the definition's values want of the
    # table f, random v and the weights of coeffs
    v = [rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
         for w in want]
    back = adjoint_transform(dataclasses.replace(coeffs, values=tuple(v)))
    lhs = sum(np.vdot(w, coeffs.weights(j) * x)
              for j, (w, x) in enumerate(zip(want, v)))
    return abs(lhs - np.vdot(table.values, back.values)) <= 1e-13 * abs(lhs)


def test_steerable_operator_matches_definition():
    # one tau-free band product per (band, scale), rows weighted per
    # carrier, against the transform's definition: the forward transform
    # value by value, the adjoint by the weighted identity
    rng = np.random.default_rng(70)
    for fam, l_band, delta in (("omega", 8, 0.5), ("upsilon", 8, 0.5),
                               ("omega", 16, 0.3), ("upsilon", 16, 0.3)):
        grid = make_so3_grid(delta, delta)
        f = _signal(_random_table(l_band, 71 + l_band))
        table = analyze_signal(f)
        v = oracles.carrier_sums(table, grid)
        split = [_split_taus(grid, j) for j in range(len(SCALES))]
        for taus in (split, [5.0] * len(SCALES)):
            coeffs = forward_transform(f, _specs(fam, taus), grid, SCALES)
            want = _definition(v, fam, taus, grid, SCALES)
            assert all(map(_close, coeffs.values, want)), (fam, l_band)
            assert _adjoint_identity(coeffs, table, want, rng), (fam, l_band)
            s = frame_matrix(fam, coeffs.taus, grid, SCALES, l_band)
            assert _frame_ok(s, oracles.folded_frame_matrix(coeffs)), (
                fam, l_band)


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


def _band_grid(grid, bands, shift=0.0):
    # the grid restricted to some of its bands, each band's longitudes
    # turned by shift times its position in the list
    parts = oracles.band_partition(grid)
    cells = grid.cells[np.concatenate([parts[b][1] for b in bands])]
    at = 0
    for i, b in enumerate(bands):
        _, idx, phis, _ = parts[b]
        cells.phi[at:at + len(idx)] = np.mod(phis + shift * (i + 1),
                                             2.0 * np.pi)
        at += len(idx)
    return dataclasses.replace(grid, cells=cells)


def _shifted(delta):
    # every band of make_so3_grid(delta, delta) turned off the (c + 1/2)
    # 2 pi / N longitude lattice, so no band is whole
    base = make_so3_grid(delta, delta)
    return _band_grid(base, range(len(oracles.band_partition(base))),
                      shift=0.37)


def _axial_grid(delta2, delta1, n_axial):
    grid = make_so3_grid(delta2, delta1)
    assert len(grid.axial_angles) == n_axial
    return grid


def _hemispheres(grid):
    # per carrier: tau by hemisphere at scale 0, by longitude at scale 1
    return [np.where(grid.cells.theta < 0.5 * np.pi, 1.0, 2.0),
            np.where(grid.cells.phi < np.pi, 2.0, 4.0)]


def _split(grid, n_scales=2):
    return [_split_taus(grid, j % 2) for j in range(n_scales)]


def _frames(families, grids, maps):
    # every (family, grid, tau map) of a case; maps(grid) lists the grid's
    # maps, each one tau or one per carrier per scale
    return [(fam, grid, taus) for grid in grids for taus in maps(grid)
            for fam in families]


def _applies(seed):
    # the composition: S_R (U f) = U adjoint(forward f) for a random f
    def check(sr, c):
        table = _random_table(c.l_band, seed, kill_below=-1)
        coeffs = forward_transform(_signal(table), _specs(
            c.family, c.taus, c.scales), c.grid, c.scales)
        return _apply_error(sr, table, coeffs) < 1e-12
    return check


def _closed_form(sr, c):
    # one tau per scale: the oracle's closed-form Hadamard factor too
    u = oracles.real_basis(c.l_band)
    return _frame_ok(sr, u @ oracles.frame_matrix(
        c.family, c.taus, c.grid, c.scales, c.l_band) @ u.conj().T)


def _whole_band_zeros(sr, c):
    # one band of N cells at (c + 1/2) 2 pi / N sharing one tau: its phase
    # sum is N (-1)^(d/N) where N divides d = m' - m and exactly 0
    # elsewhere, so the block of orders (m, m') >= 0 of the real basis is
    # exactly 0 unless N divides m - m' or m + m'; not all of it is
    # diagonal when N <= 2L
    u = oracles.real_basis(c.l_band)
    m = np.abs(degree_orders(c.l_band)[1])[np.argmax(np.abs(u), axis=1)]
    n = c.grid.n_carriers
    aligned = ((m[:, None] - m) % n == 0) | ((m[:, None] + m) % n == 0)
    return np.all(sr[~aligned] == 0.0) and (
        n > 2 * c.l_band or np.any(sr[aligned & (m[:, None] != m)]))


def _phase_sums(l_band, delta):
    # every band off the lattice, so uniform maps take the phase sums too:
    # they read e^{i d phi} from the cached table (running products, d > L
    # as a product of two columns), where the oracle takes np.exp per cell
    def frames():
        rng = np.random.default_rng(l_band)
        return _frames(BOTH, [_shifted(delta)], lambda g: [
            [np.full(g.n_carriers, 4.0)] * 2, _split(g),
            [rng.choice([1.0, 2.0, 4.0, 8.0, 16.0], g.n_carriers)
             for _ in range(2)]])
    return l_band, SCALES, frames, 1e-14, ()


def _band_maps(grid):
    # tau constant within each band and alternating with the band index:
    # every band is whole on every scale, with weights that alternate with
    # the band.  In the second map the first scale is split within bands,
    # so each band is whole on its last two scales next to stacked rows,
    # and band 0 alone has tau 16 on the second; in the third tau follows
    # the colatitude, one tau per band and scale
    bands = oracles.band_partition(grid)
    odd = np.zeros(grid.n_carriers, dtype=bool)
    for b, (_, idx, _, _) in enumerate(bands):
        odd[idx] = b % 2 == 1
    first = np.arange(grid.n_carriers) < len(bands[0][1])
    uniform = np.full(grid.n_carriers, 4.0)
    theta = grid.cells.theta
    return ([np.where(odd, 4.0, 1.0), np.where(odd, 2.0, 8.0), uniform],
            [_split_taus(grid, 0),
             np.where(first, 16.0, np.where(odd, 2.0, 8.0)), uniform],
            [1.0 + 3.0 * theta, 2.0 + 6.0 * np.cos(theta) ** 2, uniform])


def _real_basis_frames():
    # uniform frames of both families, and tau maps on a shuffled-carrier
    # grid and on a shifted-longitude grid, which take the stacked rows
    base = make_so3_grid(0.5, 0.5)
    shuffled = dataclasses.replace(base, cells=base.cells[
        np.random.default_rng(5).permutation(base.n_carriers)])
    shifted = _shifted(0.5)
    return (_frames(BOTH, [base], lambda g: [[4.0, 4.0]])
            + [("omega", shuffled, _split(shuffled)),
               ("upsilon", shifted, _split(shifted))])


BOTH = ("omega", "upsilon")
SCALES3 = make_scale_sequence(1.0, 0.5, 2)

# per case: band limit, scales, its (family, grid, tau map) frames, the
# tolerance of S_R against the phase-sum oracle, and extra checks
FRAME_CASES = {
    # one tau per scale, and tau by hemisphere and longitude
    "composition": (6, SCALES, lambda: _frames(
        ("omega",), [make_so3_grid(0.5, 0.5)],
        lambda g: [[2.0, 2.0], _hemispheres(g)]), 1e-14, (_applies(33),)),
    # the whole-band path against the phase sums and the closed form
    "uniform_vs_adaptive": (6, SCALES, lambda: _frames(
        ("omega",), [make_so3_grid(0.5, 0.5)], lambda g: [[2.0, 2.0]]),
        1e-13, (_closed_form,)),
    # fewer axial angles than 2 k_max + 1: odd orders k, k' with k - k' a
    # multiple of n_axial alias (7 angles pair k = +-7; 5 angles pair +-5,
    # (7, -3) and (3, -7)), and the fold of k onto k mod n_axial matters
    "aliased_axial": (8, SCALES, lambda: _frames(
        BOTH, [_axial_grid(0.5, 1.0, 7), _axial_grid(0.5, 1.3, 5)],
        lambda g: [[5.0, 5.0], _split(g)]), 1e-13,
        (lambda sr, c: c.under_resolved, _applies(52))),
    # single bands, each whole: the closed-form phase sum
    "whole_band": (16, SCALES, lambda: _frames(
        ("omega",), [_band_grid(make_so3_grid(0.2, 0.2), [b])
                     for b in (0, 3, 11)], lambda g: [[4.0, 4.0]]),
        1e-13, (_whole_band_zeros,)),
    # bands off the lattice take the general phase sum
    "shifted_longitudes": (8, SCALES, lambda: _frames(
        BOTH, [_shifted(0.5)], lambda g: [[5.0, 5.0], _split(g)]), 1e-13,
        (_applies(62),)),
    "phase_sums_8": _phase_sums(8, 0.5),
    "phase_sums_11": _phase_sums(11, 0.4),
    "phase_sums_14": _phase_sums(14, 0.3),
    "phase_sums_17": _phase_sums(17, 0.25),
    # a different uniform tau on each scale: every band is whole on all
    # three scales and contracts over their (scale, pair) factors at once
    "tau_per_scale": (16, SCALES3, lambda: _frames(
        BOTH, [_axial_grid(0.2, 0.2, 32)], lambda g: [[1.0, 4.0, 16.0]]),
        1e-13, ()),
    # the same on the 7- and 5-angle grids
    "tau_per_scale_aliased": (8, SCALES3, lambda: _frames(
        BOTH, [_axial_grid(0.5, 1.0, 7), _axial_grid(0.5, 1.3, 5)],
        lambda g: [[1.0, 4.0, 16.0]]), 1e-13, ()),
    "alternating_by_band": (16, SCALES3, lambda: _frames(
        BOTH, [make_so3_grid(0.2, 0.2)], _band_maps), 1e-13, ()),
    # whole bands, bands split by tau, and both in one frame
    "hermitian": (16, SCALES3, lambda: _frames(
        ("omega",), [make_so3_grid(0.2, 0.2)], lambda g: [
            [4.0] * 3, [_split_taus(g, 0), _hemispheres(g)[0], 4.0],
            _split(g, 3)]), 1e-13,
        (lambda sr, c: np.all(sr.diagonal()[1:] > 0.0),)),
    # at band limit 0 there is no odd axial order: S_R is the 1 x 1 zero
    "no_odd_orders": (0, SCALES, lambda: _frames(
        ("omega",), [make_so3_grid(0.5, 0.5)],
        lambda g: [[2.0, 2.0], [_split_taus(g, 0), 4.0]]), 1e-13,
        (lambda sr, c: sr.shape == (1, 1) and sr[0, 0] == 0.0,)),
    # stacked rows on shuffled carriers and on turned longitudes
    "real_basis": (8, SCALES, _real_basis_frames, 1e-13, ()),
}


@pytest.mark.parametrize("case", FRAME_CASES)
def test_frame_matrix(case):
    # S_R against the oracle's S by its phase sums, folded into the real
    # basis, and the case's own checks
    l_band, scales, frames, tol, checks = FRAME_CASES[case]
    for fam, grid, taus in frames():
        c = transform.TransformCoefficients(fam, l_band, (), tuple(taus),
                                            grid, scales)
        sr = frame_matrix(fam, taus, grid, scales, l_band)
        assert _frame_ok(sr, oracles.folded_frame_matrix(c), tol), fam
        assert all(check(sr, c) for check in checks), fam


def test_band_operator_matches_oracles():
    # forward, adjoint, frame operator, scan, select_tau and refine_tau all
    # read the one band operator; the oracles take the transform and the
    # matched filter by their definition, and S by its phase sums.  Polar
    # bands have fewer than 2L + 1 cells, and the second grid's longitudes
    # are off the (c + 1/2) 2 pi / N lattice
    l_band = 16
    scales = make_scale_sequence(1.0, 0.5, 2)
    base = make_so3_grid(0.2, 0.2)
    assert len(oracles.band_partition(base)[0][1]) < 2 * l_band + 1
    f = _signal(_random_table(l_band, 67))
    table = analyze_signal(f)
    tol = TIE_MARGIN * np.sqrt(table.norm_sq())
    tsel = SelectivitySet()
    rng = np.random.default_rng(68)
    for grid in (base, _shifted(0.2)):
        v = oracles.carrier_sums(table, grid)
        for fam in ("omega", "upsilon"):
            taus = [_split_taus(grid, j % 2) for j in range(len(scales))]
            coeffs = forward_transform(f, _specs(fam, taus, scales), grid,
                                       scales)
            want = _definition(v, fam, taus, grid, scales)
            assert all(map(_close, coeffs.values, want)), fam
            assert _adjoint_identity(coeffs, table, want, rng), fam
            assert _frame_ok(frame_matrix(fam, coeffs.taus, grid, scales,
                                          l_band),
                             oracles.folded_frame_matrix(coeffs)), fam
            smap = selectivity_scan(f, scales, grid, tsel, fam)
            ref = oracles.definition_scan(v, fam, scales, tsel,
                                          grid.axial_angles, tol)
            assert np.array_equal(smap.tau_star, ref[0]), fam
            assert np.array_equal(smap.phi1_star, ref[1]), fam
            assert np.all(np.abs(smap.value - ref[2]) <= 1e-13 * ref[2]), fam
            for j, alpha2 in ((0, 3), (1, 200), (2, grid.n_carriers - 5)):
                pick = ref[:, j, alpha2]
                for got, want in (
                        (select_tau(f, scales, j, alpha2, tsel, grid, fam),
                         pick),
                        (refine_tau(f, scales, j, alpha2, tsel, grid, fam),
                         oracles.definition_refine(
                             v[alpha2:alpha2 + 1], fam, scales[j], tsel,
                             *pick[:2]))):
                    assert got[:2] == tuple(want[:2]), (fam, j, alpha2)
                    assert abs(got[2] - want[2]) <= 1e-13 * want[2], fam


def test_band_operator_adjoint_at_odd_band():
    # L = 17 has 9 orders k > 0, read through d^l_{-m,-k} = d^l_mk for
    # k < 0; a half read in the wrong order or unreversed in m breaks
    # <correlate(f), d> = <f, adjoint(d)> (adjoint takes d with its k > 0
    # half conjugated), the definition's values and the weighted identity
    # <W f, v>_w = <f, adjoint(v)>.  1 and 3 scales, both families,
    # uniform and per-carrier tau, on a permuted subset of bands
    l_band = 17
    grid = _band_grid(make_so3_grid(0.3, 0.3), [5, 0, 9, 2, 7])
    f = _signal(_random_table(l_band, 91, kill_below=-1))
    table = analyze_signal(f)
    v = oracles.carrier_sums(table, grid)
    rng = np.random.default_rng(92)
    for scales in (make_scale_sequence(1.0, 0.5, 0),
                   make_scale_sequence(1.0, 0.5, 2)):
        for fam in ("omega", "upsilon"):
            plan = BandPlan(l_band, grid, fam, scales)
            assert len(plan.ks) == 18
            corr = plan.correlate(table.values)
            d = (rng.standard_normal(corr.shape)
                 + 1j * rng.standard_normal(corr.shape))
            lhs = np.vdot(corr, d)
            rhs = np.vdot(table.values, plan.adjoint(
                np.where(plan.ks > 0, d.conj(), d)))
            assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(
                corr) * np.linalg.norm(d), (fam, len(scales))
            for taus in ([3.0] * len(scales), [_split_taus(grid, j % 2)
                                               for j in range(len(scales))]):
                coeffs = forward_transform(f, _specs(fam, taus, scales), grid,
                                           scales)
                want = _definition(v, fam, taus, grid, scales)
                assert all(map(_close, coeffs.values, want)), fam
                assert _adjoint_identity(coeffs, table, want, rng), fam


def test_band_operator_any_carrier_order():
    # a band is a run of consecutive carriers at one colatitude, so any
    # carrier order works: a grid with its carriers shuffled over the bands
    # (runs of a cell or two) or its bands reversed gives the base grid's
    # coefficients, renumbered, its S and its scan picks.  A band whose
    # cells have unequal measures (on the longitude lattice, so only the
    # measures keep it from the whole-band closed form) and all three keep
    # S x = adjoint(forward(x)), uniform and per-carrier tau, both families
    l_band = 8
    base = make_so3_grid(0.5, 0.5)
    bands = oracles.band_partition(base)
    shuffled = np.random.default_rng(3).permutation(base.n_carriers)
    reversed_ = np.concatenate([idx for _, idx, _, _ in bands[::-1]])
    cells = base.cells.copy()
    _, idx, phis, measure = bands[3]
    cells.measure[idx] = measure * (1.0 + 0.5 * np.cos(phis))
    unequal = dataclasses.replace(base, cells=cells)
    table = _random_table(l_band, 100, kill_below=-1)
    f = _signal(table)
    tsel = SelectivitySet()

    for fam in ("omega", "upsilon"):
        ref = selectivity_scan(f, SCALES, base, tsel, fam)
        for order in (shuffled, reversed_, None):
            grid = (unequal if order is None else
                    dataclasses.replace(base, cells=base.cells[order]))
            if order is not None:
                n_runs = len(BandPlan(l_band, grid, fam, SCALES).spans)
                assert (n_runs > len(bands) if order is shuffled
                        else n_runs == len(bands))
                smap = selectivity_scan(f, SCALES, grid, tsel, fam)
                assert np.array_equal(smap.tau_star, ref.tau_star[:, order])
                assert np.array_equal(smap.phi1_star,
                                      ref.phi1_star[:, order])
                assert _close(smap.value, ref.value[:, order], 1e-14)
            for taus in ([3.0, 3.0], [_split_taus(grid, j) for j in (0, 1)]):
                coeffs = forward_transform(f, _specs(fam, taus), grid, SCALES)
                s = frame_matrix(fam, coeffs.taus, grid, SCALES, l_band)
                assert _apply_error(s, table, coeffs) < 1e-12, fam
                if order is None:
                    continue
                base_taus = [t if np.ndim(t) == 0 else t[np.argsort(order)]
                             for t in coeffs.taus]
                want = forward_transform(f, _specs(fam, base_taus), base,
                                         SCALES)
                for got, w in zip(coeffs.values, want.values):
                    assert _close(got, w[order], 1e-15), fam
                assert _close(s, frame_matrix(fam, base_taus, base, SCALES,
                                              l_band), 1e-13), fam


def test_adjoint_leaves_its_input_unchanged():
    # adjoint reads d, its k > 0 half conjugated by the caller, and never
    # writes into it, on a whole grid and on a permuted subset of its
    # bands, and a read-only input is accepted
    l_band = 9
    for grid in (make_so3_grid(0.5, 0.5),
                 _band_grid(make_so3_grid(0.5, 0.5), [3, 0, 5])):
        plan = BandPlan(l_band, grid, "omega", SCALES)
        d = plan.correlate(_random_table(l_band, 99).values)
        np.conjugate(d[..., 1::2], out=d[..., 1::2])
        keep = d.copy()
        d.flags.writeable = False
        back = plan.adjoint(d)
        assert np.array_equal(d, keep)
        assert np.array_equal(plan.adjoint(keep), back)


def test_plans_share_one_phase_table():
    # every plan on a grid and band limit reads the one cached table, cell
    # by cell in band order, each band one span of rows: no per-plan copy
    grid = make_so3_grid(0.4, 0.4)
    l_band = 12
    transform._cell_phases.cache_clear()
    a = BandPlan(l_band, grid, "omega", SCALES)
    b = BandPlan(l_band, grid, "upsilon", make_scale_sequence(0.7, 0.5, 2))
    assert np.shares_memory(a.phases, b.phases)
    info = transform._cell_phases.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert a.phases.shape == (grid.n_carriers, 2 * l_band + 1)
    assert a.phases.flags.c_contiguous and not a.phases.flags.writeable
    for s, (_, idx, phis, _) in zip(a.spans, oracles.band_partition(grid)):
        assert np.array_equal(np.arange(grid.n_carriers)[s], idx)
        assert np.array_equal(grid.cells.phi[s], phis)
        want = oracles.exp_phase_table(phis, l_band)
        assert np.max(np.abs(a.phases[s] - want)) <= 1e-14


def test_band_operator_peak_memory():
    # a warm correlate and a warm adjoint at L = 16 with 3 scales each
    # peak at most twice the tilt store: per scale buffers, no stacked or
    # flipped copies
    l_band = 16
    scales = make_scale_sequence(1.0, 0.5, 2)
    grid = make_so3_grid(0.2, 0.2)
    table = _random_table(l_band, 95)
    plan = BandPlan(l_band, grid, "omega", scales)
    d = plan.correlate(table.values)
    np.conjugate(d[..., 1::2], out=d[..., 1::2])    # as adjoint takes it
    plan.adjoint(d)
    peaks = []
    tracemalloc.start()
    try:
        for run in (lambda: plan.correlate(table.values),
                    lambda: plan.adjoint(d)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 2 * plan.store.nbytes, [
        p / plan.store.nbytes for p in peaks]


def test_band_operator_scales_match_one_scale_plans():
    # one longitude product per band serves every scale, and each scale
    # still gets exactly what a plan over that scale alone gives: correlate
    # at every cell and at one carrier, and adjoint on d nonzero at one
    # scale only, on the base grid and with its carriers shuffled over the
    # bands.  The correlations can be weighted in place
    scales = make_scale_sequence(1.0, 0.5, 2)
    base = make_so3_grid(0.2, 0.2)
    shuffled = dataclasses.replace(base, cells=base.cells[
        np.random.default_rng(7).permutation(base.n_carriers)])
    for l_band in (12, 16):
        values = _random_table(l_band, l_band).values
        for grid in (base, shuffled):
            plan = BandPlan(l_band, grid, "omega", scales)
            ones = [BandPlan(l_band, grid, "omega", (rho,)) for rho in scales]
            d = plan.correlate(values)
            assert np.array_equal(d, [p.correlate(values)[0] for p in ones])
            c = grid.n_carriers // 3
            assert np.array_equal(plan.correlate(values, c),
                                  [p.correlate(values, c)[0] for p in ones])
            g = np.where(plan.ks > 0, d.conj(), d)
            for j, one in enumerate(ones):
                only = np.zeros_like(g)
                only[j] = g[j]
                assert np.array_equal(plan.adjoint(only),
                                      one.adjoint(g[j:j + 1])), j
            w = plan.weights([4.0, 2.0, _split_taus(grid, 0)])
            want = d * w
            d *= w
            assert np.array_equal(d, want)


def test_warm_roundtrip_peak_memory():
    # a warm forward transform and reconstruct on a kept S_R at L = 16,
    # delta = 0.2, 3 scales peak at 1.77 times the coefficients' bytes
    # (tracemalloc): the coefficients, then the adjoint's buffers and
    # weights of one scale at a time; weights of all scales at once read
    # 1.93, and an adjoint batched over all scales 2.35
    l_band = 16
    scales = make_scale_sequence(1.0, 0.5, 2)
    grid = make_so3_grid(0.2, 0.2)
    f = _signal(_random_table(l_band, 96))
    specs = uniform_specs("omega", 4.0, scales)
    reconstruct(forward_transform(f, specs, grid, scales))   # warm, S_R kept
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        coeffs = forward_transform(f, specs, grid, scales)
        reconstruct(coeffs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    nbytes = sum(v.nbytes for v in coeffs.values)
    assert peak <= 2.0 * nbytes, peak / nbytes


def test_band_limit_zero():
    # no odd axial order reaches degree 0: the forward transform, the
    # adjoint, the scan and the adaptive analysis give zeros of the full
    # shape, and reconstruct the zero signal, uniform tau and tau maps
    grid = make_so3_grid(0.5, 0.5)
    f = _signal(CoefficientTable(0, np.array([1.5 - 0.5j])))
    tsel = SelectivitySet()
    shape = (grid.n_carriers, len(grid.axial_angles))
    smap, adaptive = adaptive_analysis(f, SCALES, grid, tsel)
    assert np.all(smap.value == 0.0) and smap.tau_star.shape == (2, shape[0])
    for specs in (uniform_specs("omega", 2.0, SCALES),
                  [tuple(WaveletSpec("omega", rho, t)
                         for t in _split_taus(grid, 0)) for rho in SCALES]):
        coeffs = forward_transform(f, specs, grid, SCALES)
        for c in (coeffs, adaptive):
            assert all(v.shape == shape and not v.any() for v in c.values)
            assert adjoint_transform(c).values.shape == (1,)
            assert not adjoint_transform(c).values.any()
            g = reconstruct(c)
            assert g.spec == default_grid_spec(0) and not g.values.any()


def test_frame_matrix_peak_memory():
    # whole bands are written straight into T in the paired order, with no
    # mirrored or permuted copy, and each reads its tilt once: T, the
    # fold's R and S_R peak at 3.8 S_R (4 S_R, 2 complex S, the bound)
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
    assert s.dtype == np.float64
    assert peak <= 4.0 * s.nbytes, peak / s.nbytes


def test_frame_matrix_tilt_reads_per_band(monkeypatch):
    # each whole band contracts by itself: on a uniform frame its tilt is
    # read once, through the band operator, whatever the scales; the store
    # is read once, when the plan is built, and not from the cached plan
    l_band = 16
    scales = make_scale_sequence(1.0, 0.5, 2)
    grid = make_so3_grid(0.2, 0.2)
    stores, store = [], transform._tilt_store
    monkeypatch.setattr(transform, "_tilt_store",
                        lambda *a: stores.append(a[0]) or store(*a))
    reads, tilt = [], transform.BandPlan.tilt
    monkeypatch.setattr(transform.BandPlan, "tilt",
                        lambda plan, b: reads.append(b) or tilt(plan, b))
    bands = oracles.band_partition(grid)
    transform._plan.cache_clear()
    for _ in range(2):      # a cold plan, then the cached one
        del reads[:]
        frame_matrix("omega", [4.0] * 3, grid, scales, l_band)
        assert stores == [tuple(float(b[0]) for b in bands)], len(stores)
        assert sorted(reads) == list(range(len(bands))), reads
    monkeypatch.undo()


def test_plan_cache(monkeypatch):
    # a warm forward transform and reconstruct build no band operator and
    # no window weights, and give the bits of a cold run, as other taus on
    # the warm plan give theirs; what a cached plan hands out is read-only;
    # the key tells a ScaleSequence from a tuple of its scales; one grid
    # more than the bound evicts the oldest plan, and with it the cache's
    # hold on that grid and the S_R that plan kept
    grid, l_band = make_so3_grid(0.5, 0.5), 6
    f = _signal(_random_table(l_band, 47))
    specs = uniform_specs("omega", 2.0, SCALES)

    def roundtrip():
        coeffs = forward_transform(f, specs, grid, SCALES)
        return coeffs, reconstruct(coeffs)

    transform._plan.cache_clear()
    cold = roundtrip()
    plans, weights, init = [], [], transform.BandPlan.__init__
    monkeypatch.setattr(transform.BandPlan, "__init__",
                        lambda *a: plans.append(1) or init(*a))
    monkeypatch.setattr(transform, "window_weights",
                        lambda *a, _w=window_weights: weights.append(1)
                        or _w(*a))
    warm = roundtrip()
    assert (len(plans), len(weights)) == (0, 0)
    assert all(np.array_equal(x, y) for x, y in zip(cold[0].values,
                                                    warm[0].values))
    assert np.array_equal(cold[1].values, warm[1].values)
    monkeypatch.undo()
    # other taus on the same plan do not read its kept weights
    other = uniform_specs("omega", 4.0, SCALES)
    got = forward_transform(f, other, grid, SCALES)
    transform._plan.cache_clear()
    want = forward_transform(f, other, grid, SCALES)
    assert all(np.array_equal(x, y) for x, y in zip(got.values, want.values))

    plan = transform._plan(l_band, grid, "omega", SCALES)
    for a in (plan.ks, plan.axial_phase, plan.kern, plan._kern_re_im,
              plan.first, plan.weights(warm[0].taus)):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0

    scales = make_scale_sequence(1.0)
    refine_tau(f, scales, 0, 3, SelectivitySet(), grid)
    equal = make_scale_sequence(1.0)
    coeffs = forward_transform(f, uniform_specs("omega", 2.0, equal), grid,
                               equal)
    assert coeffs.scales is equal, coeffs.scales
    assert coeffs.total_energy() > 0.0      # reads the scales' log_step

    transform._plan.cache_clear()
    bound = transform._plan.cache_parameters()["maxsize"]
    grids = [make_so3_grid(0.8, 0.5) for _ in range(bound + 1)]
    oldest = weakref.ref(grids[0])
    coeffs = forward_transform(f, specs, grids[0], SCALES)
    reconstruct(coeffs)
    kept = weakref.ref(transform._plan(l_band, grids[0], "omega", SCALES)
                       .frame(coeffs.taus)[0])
    hits = transform._plan.cache_info().hits
    for g in grids[1:]:
        forward_transform(f, specs, g, SCALES)
    del grids[0], coeffs
    assert oldest() is None and kept() is None
    info = transform._plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (bound + 1, hits, bound)
    forward_transform(f, specs, grids[0], SCALES)
    assert transform._plan.cache_info().hits == hits + 1


def test_plan_shared_across_threads():
    # threads that share one cached plan at different taus each get their
    # own taus' coefficients and reconstruction, whichever weights and S_R
    # the plan kept last
    grid, l_band = make_so3_grid(0.5, 0.5), 6
    f = _signal(_random_table(l_band, 48))
    specs = [uniform_specs("omega", tau, SCALES) for tau in (2.0, 4.0)]
    coeffs = [forward_transform(f, s, grid, SCALES) for s in specs]
    want = [c.values for c in coeffs]
    want_rec = [reconstruct(c).values for c in coeffs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            runs = [pool.submit(forward_transform, f, specs[i % 2], grid,
                                SCALES) for i in range(200)]
            recs = [pool.submit(reconstruct, coeffs[i % 2])
                    for i in range(40)]
            got = [r.result(timeout=60).values for r in runs]
            got_rec = [r.result(timeout=60).values for r in recs]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(v, w) for i, g in enumerate(got)
               for v, w in zip(g, want[i % 2])), len(got)
    assert all(np.array_equal(g, want_rec[i % 2])
               for i, g in enumerate(got_rec)), len(got_rec)


def test_tau_map_weights_kept(monkeypatch):
    # the forward transform, its adjoint and S_R of one tau map compute the
    # window weights once, and give a fresh plan's bits; the kept weights
    # are read-only; a map changed in place is new taus
    l_band, grid = 8, make_so3_grid(0.5, 0.5)
    f = _signal(_random_table(l_band, 36))
    taus = list(np.random.default_rng(36).choice(
        [1.0, 2.0, 4.0, 8.0, 16.0], (len(SCALES), grid.n_carriers)))

    def outputs():
        coeffs = forward_transform(f, _specs("omega", taus), grid, SCALES)
        return (*coeffs.values, adjoint_transform(coeffs).values,
                frame_matrix("omega", taus, grid, SCALES, l_band))

    calls = []
    monkeypatch.setattr(transform, "window_weights",
                        lambda *a, _w=window_weights: calls.append(1)
                        or _w(*a))
    transform._plan.cache_clear()
    fresh = outputs()
    assert len(calls) == 1
    kept = outputs()        # new spec objects, equal taus
    assert len(calls) == 1
    assert all(np.array_equal(x, y) for x, y in zip(fresh, kept))
    plan = transform._plan(l_band, grid, "omega", SCALES)
    w = plan.weights(taus)
    assert len(calls) == 1 and w.shape == (len(SCALES), grid.n_carriers,
                                           len(plan.ks))
    with pytest.raises(ValueError):
        w[0, 0, 0] = 0.0

    taus[0][::2] = 16.0 / taus[0][::2]
    assert not np.array_equal(plan.weights(taus), w) and len(calls) == 2
    changed = outputs()
    transform._plan.cache_clear()
    assert all(np.array_equal(x, y) for x, y in zip(changed, outputs()))
    assert len(calls) == 3


@pytest.mark.parametrize("delta, shuffled", [
    ((0.2, 0.2), False), ((0.3, 0.3), False), ((0.8, 1.2), False),
    ((0.2, 0.2), True)])
def test_frame_matrix_trace_identity(delta, shuffled):
    # sum_m |d^l_mk|^2 = 1, so the mean of S_R's degree-l diagonal does not
    # see where the cells are: it is (log_step / 2) / (2l + 1) sum_j sum_k
    # P_j[l, k]^2 <w_k(tau_j)^2>, <.> the measure-weighted mean over the
    # carriers and k over the odd orders of both signs (D_l with one tau
    # per scale).  On whole bands, stacked rows (each band's carriers
    # shuffled) and aliased axial pairs (6 angles at delta = (0.8, 1.2));
    # at most 2.6e-15 relative measured
    l_band, scales, rng = 16, SCALES3, np.random.default_rng(27)
    grid = make_so3_grid(*delta)
    if shuffled:
        grid = dataclasses.replace(grid, cells=grid.cells[np.concatenate([
            rng.permutation(idx) for _, idx, _, _ in
            oracles.band_partition(grid)])])
    degree = degree_orders(l_band)[0][transform._paired(l_band)[0]]
    odd = np.arange(1, l_band + 1, 2)
    ks = np.r_[-odd, odd] + l_band
    mean = grid.cells.measure / grid.cells.measure.sum()
    maps = [[tau] * 3 for tau in (1.0, 4.0, 16.0)] + [list(rng.choice(
        [1.0, 2.0, 4.0, 8.0, 16.0], (3, grid.n_carriers))) for _ in range(2)]
    for fam in BOTH:
        for taus in maps:
            sr = frame_matrix(fam, taus, grid, scales, l_band)
            got = np.bincount(degree, sr.diagonal()) / np.bincount(degree)
            want = sum(_kernel_matrix(fam, float(rho), l_band)[:, ks] ** 2
                       @ (mean @ window_weights(np.broadcast_to(
                           t, grid.n_carriers), l_band)[:, ks] ** 2)
                       for rho, t in zip(scales, taus))
            want *= scales.log_step / 2.0 / (2.0 * np.arange(l_band + 1) + 1)
            assert got[0] == want[0] == 0.0, fam
            assert np.max(np.abs(got[1:] / want[1:] - 1.0)) <= 1e-13, fam


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
    coeffs = forward_transform(f, _specs("omega", _hemispheres(grid)), grid,
                               SCALES)
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
    # no cached plan, so no kept S, for this test, and the builds of S in
    # the real basis, the one a plan keeps
    calls, build = [], transform.frame_matrix

    def counted(*args):
        calls.append(args)
        return build(*args)

    transform._plan.cache_clear()
    monkeypatch.setattr(transform, "frame_matrix", counted)
    return calls


def test_reconstruct_uniform_matches_complex_reference_solve():
    # the real-basis solve against np.linalg.solve on S = U^H S_R U in the
    # degree-major order (oracles.reference_solve; planted tau maps:
    # test_multiselect).
    # Uniform frames of both families start CG from zero and take the
    # steps the complex-basis solve took (5 at L = 8, tau 2; 7 at L = 12,
    # tau 1); they agree to 1e-9, where the complex solve's CG ended 2e-11
    # to 7e-11 from the reference.  The kept S_R is float64, 8 n^2 bytes
    transform._plan.cache_clear()
    for l_band, delta, tau, steps in ((8, 0.3, 2.0, 5), (12, 0.3, 1.0, 7)):
        grid = make_so3_grid(delta, delta)
        f = _signal(_random_table(l_band, 7))
        for fam in ("omega", "upsilon"):
            coeffs = forward_transform(f, uniform_specs(fam, tau, SCALES),
                                       grid, SCALES)
            with pytest.raises(FrameConvergenceError):
                reconstruct(coeffs, FrameOperatorConfig(steps - 1))
            got = reconstruct(coeffs, FrameOperatorConfig(steps)).values
            want = oracles.reference_solve(coeffs).values
            assert (np.linalg.norm(got - want)
                    <= 1e-9 * np.linalg.norm(want)), (l_band, fam)
            s, _ = transform._plan(l_band, grid, fam, SCALES).frame(
                coeffs.taus)
            assert s.dtype == np.float64 and s.nbytes == 8 * (l_band + 1) ** 4


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
    s, diag = transform._plan(6, grid, "omega", SCALES).frame(coeffs[0].taus)
    assert len(calls) == 1
    fresh = frame_matrix("omega", coeffs[0].taus, grid, SCALES, 6)
    assert np.array_equal(s, fresh)
    assert np.array_equal(diag, fresh.diagonal()[1:, None])
    # the kept S is read-only; a fresh build returns its own array
    with pytest.raises(ValueError):
        s[0, 0] = 1.0
    fresh[0, 0] = 1.0
    transform._plan.cache_clear()
    assert np.array_equal(reconstruct(coeffs[1]).values, first[1])
    assert len(calls) == 2


def test_reconstruct_refuses_degree_without_kernel_energy(monkeypatch):
    # the solve runs on every degree l >= 1: a degree no kernel reaches
    # leaves a zero on the frame diagonal and is refused, not dropped
    transform._plan.cache_clear()
    kernel = transform._kernel_matrix

    def no_degree_one(family, rho, l_band):
        out = kernel(family, rho, l_band).copy()
        out[1] = 0.0
        return out

    monkeypatch.setattr(transform, "_kernel_matrix", no_degree_one)
    grid = make_so3_grid(0.5, 0.5)
    coeffs = forward_transform(_signal(_random_table(6, 46, 0)),
                               uniform_specs("omega", 2.0, SCALES),
                               grid, SCALES)
    with pytest.raises(ArithmeticError, match="no kernel energy"):
        reconstruct(coeffs)


def test_frame_cache_rebuilds_on_any_key_change(monkeypatch):
    # family, tau, scales, band limit and the grid object each make a
    # new frame, built once.  A tau change replaces the S its plan kept,
    # so returning to the base frame rebuilds; the others are plans of
    # their own, and the base frame's plan, still cached, keeps its S
    calls = _count_frame_builds(monkeypatch)
    grid = make_so3_grid(0.5, 0.5)
    f6, f4 = (_signal(_random_table(l, 43, 0)) for l in (6, 4))
    other = make_scale_sequence(1.0, 0.6, 1)
    base = (f6, "omega", 2.0, SCALES, grid)
    # each variant, and whether the base frame rebuilds after it
    variants = [((f6, "upsilon", 2.0, SCALES, grid), 0),
                ((f6, "omega", 4.0, SCALES, grid), 1),
                ((f6, "omega", [2.0, 4.0], SCALES, grid), 1),
                ((f6, "omega", 2.0, other, grid), 0),
                ((f4, "omega", 2.0, SCALES, grid), 0),
                ((f6, "omega", 2.0, SCALES, dataclasses.replace(grid)), 0)]
    frames = [(base, 1)] + [x for v, again in variants
                            for x in ((v, 1), (base, again))]
    builds = 0
    for (f, fam, tau, scales, g), new in frames + [(variants[-1][0], 0)]:
        specs = ([WaveletSpec(fam, rho, t) for rho, t in zip(scales, tau)]
                 if isinstance(tau, list) else uniform_specs(fam, tau, scales))
        reconstruct(forward_transform(f, specs, g, scales))
        builds += new
        assert len(calls) == builds, (builds, fam, tau)


def test_alternating_families_keep_their_frames(monkeypatch):
    # each family's plan keeps its own S: six alternating omega / upsilon
    # round trips on one grid build S twice, and each family's result
    # keeps its bits
    calls = _count_frame_builds(monkeypatch)
    grid = make_so3_grid(0.5, 0.5)
    f = _signal(_random_table(6, 49, 0))
    recs = [reconstruct(forward_transform(
        f, uniform_specs(fam, 4.0, SCALES), grid, SCALES)).values
        for fam in ("omega", "upsilon") * 3]
    assert len(calls) == 2
    assert all(np.array_equal(r, recs[i % 2]) for i, r in enumerate(recs))


def test_per_carrier_taus_are_kept(monkeypatch):
    # a per-carrier map's S is kept on its plan in place of the uniform
    # frame's: a second reconstruct of the same map builds nothing and
    # gives the same bits, the kept S is read-only, and a map changed in
    # place is new taus
    calls = _count_frame_builds(monkeypatch)
    grid = make_so3_grid(0.5, 0.5)
    f = _signal(_random_table(6, 44, 0))
    reconstruct(forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                                  grid, SCALES))
    adaptive = forward_transform(f, _specs("omega", _split(grid)), grid,
                                 SCALES)
    loose = FrameOperatorConfig(strict=False)
    recs = [reconstruct(adaptive, loose).values for _ in range(2)]
    assert len(calls) == 2 and np.array_equal(*recs)
    s, _ = transform._plan(6, grid, "omega", SCALES).frame(adaptive.taus)
    assert len(calls) == 2
    with pytest.raises(ValueError):
        s[0, 0] = 1.0
    adaptive.taus[0][::2] = 4.0
    reconstruct(adaptive, loose)
    assert len(calls) == 3


def test_reconstruct_controls_on_kept_frame(monkeypatch):
    # strict and loose solves end the same way whether S was built or
    # kept; the adaptive frame starts from its LU solution, so both
    # return at 1e-15 on its kept S, and it raises the same each time at
    # a tolerance no start reaches
    calls = _count_frame_builds(monkeypatch)
    grid = make_so3_grid(0.5, 0.5)
    f = _signal(_random_table(6, 45, 0))

    def controls(tolerance):
        return (FrameOperatorConfig(max_iterations=1, tolerance=tolerance),
                FrameOperatorConfig(max_iterations=1, tolerance=tolerance,
                                    strict=False))

    uniform = forward_transform(f, uniform_specs("omega", 2.0, SCALES), grid,
                                SCALES)
    adaptive = forward_transform(f, _specs("omega", _split(grid)), grid,
                                 SCALES)
    for coeffs, (strict, loose), builds in (
            (uniform, controls(1e-15), 2), (adaptive, controls(1e-300), 2)):
        del calls[:]
        errors, recs = [], []
        for order in ((strict, loose), (loose, strict)):
            transform._plan.cache_clear()   # a miss, then a hit
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
    del calls[:]
    recs = [reconstruct(adaptive, cfg).values for cfg in controls(1e-15)]
    assert np.array_equal(*recs) and len(calls) == 0


def test_under_resolved_flag():
    f = _signal(_random_table(8, 38, kill_below=0))
    coarse = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                               make_so3_grid(0.8, 1.2), SCALES)
    assert coarse.under_resolved
    fine = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                             make_so3_grid(0.2, 0.2), SCALES)
    assert not fine.under_resolved


def test_under_resolved_tau_map_starts_from_zero():
    # on a grid too coarse for the band S is singular (rank 112 of 120
    # here): an LU start would carry a null-space component that no CG
    # step removes (relative error 7.7), so the map is solved for its
    # minimum-norm solution
    grid = make_so3_grid(1.2, 2.0)
    f = _signal(_random_table(10, 46, 0))
    coeffs = forward_transform(f, _specs("omega", _split(grid)), grid, SCALES)
    assert coeffs.under_resolved
    rec = reconstruct(coeffs, FrameOperatorConfig(strict=False))
    assert np.all(np.isfinite(rec.values))
    err = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
    assert err < 1.0, err


def test_under_resolved_tau_map_minimum_norm():
    # S of random tau maps has rank 114 of 288 here, with a gap from 6e-7
    # to 1e-17 of its largest singular value: the solve returns the input
    # projected onto the range of S, error 0.77 (CG from zero left 2.4-2.6)
    grid = make_so3_grid(1.5, 3.0)
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        table = _random_table(16, seed, kill_below=0)
        taus = [rng.choice(SelectivitySet().taus, grid.n_carriers)
                for _ in SCALES]
        specs = [tuple(WaveletSpec("omega", rho, t) for t in tau)
                 for rho, tau in zip(SCALES, taus)]
        coeffs = forward_transform(_signal(table), specs, grid, SCALES)
        assert coeffs.under_resolved
        _, sig, vh = np.linalg.svd(
            frame_matrix("omega", coeffs.taus, grid, SCALES, 16)[1:, 1:])
        vh = vh[sig > 1e-9 * sig[0]]
        # in the real basis, which keeps the degrees l >= 1 and the norm
        u = oracles.real_basis(16)
        want = (u @ table.values)[1:]
        err = [np.linalg.norm(v - want) / np.linalg.norm(want) for v in (
            vh.T @ (vh @ want),
            (u @ analyze_signal(reconstruct(coeffs)).values)[1:])]
        assert len(vh) == 114 and abs(err[1] - err[0]) <= 1e-8, err


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
    # an unknown family reaches no tau-free table: it would run as upsilon
    with pytest.raises(ValueError, match="family"):
        frame_matrix("foo", [2.0], make_so3_grid(0.8, 0.8),
                     make_scale_sequence(1.0, 0.5, 0), 6)
    # one tau entry per scale: a short list would sum S over the first
    # scales only, a long one index past the kernels
    for taus in ([2.0], [2.0, 4.0], [2.0] * 4,
                 [np.full(grid.n_carriers, 2.0)]):
        with pytest.raises(ValueError, match="%d entries for 3 scales"
                           % len(taus)):
            frame_matrix("omega", taus, grid,
                         make_scale_sequence(1.0, 0.5, 2), 6)


def test_config_validation():
    for tolerance in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            FrameOperatorConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        FrameOperatorConfig(max_iterations=0)


def test_tilt_store_matches_per_band_blocks():
    # one batched product per degree over all bands gives the store that
    # one _wigner_d block per (band, degree) gives, bit for bit
    grid = _band_grid(make_so3_grid(0.3, 0.3), [5, 0, 9, 2, 7])
    thetas = tuple(float(b[0]) for b in oracles.band_partition(grid))
    for l_band in (12, 17):
        assert np.array_equal(_tilt_store(thetas, l_band),
                              oracles.per_band_tilt_store(thetas, l_band))


def test_tilt_store_built_in_band_chunks(monkeypatch):
    # at L = 32, delta = 0.1 (45 bands) the top degrees take the bands in
    # chunks: the store is the one of one block per (band, degree), bit for
    # bit, and the build peaks at 1.25 times the store at most (all bands
    # in one product per degree took 1.5 times)
    grid = make_so3_grid(0.1, 0.1)
    thetas = tuple(float(b[0]) for b in oracles.band_partition(grid))
    calls, wigner = [], transform._wigner_d
    monkeypatch.setattr(transform, "_wigner_d",
                        lambda theta, l: calls.append(l) or wigner(theta, l))
    build = transform._tilt_store.__wrapped__
    store = build(thetas, 32)
    assert calls.count(32) > 1 and calls.count(1) == 1, calls.count(32)
    assert np.array_equal(store, oracles.per_band_tilt_store(thetas, 32))
    monkeypatch.undo()
    for l in range(1, 33):
        _jx_basis(l)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        store = build(thetas, 32)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * store.nbytes, peak / store.nbytes
