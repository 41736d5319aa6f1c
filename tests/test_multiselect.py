"""Matched-filter selectivity choice, refinement and adaptive analysis,
and the sup-norm oracle the acceptance suite reads."""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from sphwave import admissibility, multiselect, profiles, transform
from sphwave.admissibility import wavelet_coefficient_table
from sphwave.multiselect import (TIE_MARGIN, SelectivitySet,
                                 adaptive_analysis, refine_tau, select_tau,
                                 selectivity_scan)
from sphwave.profiles import WaveletSpec, wavelet_norm_sq
from sphwave.sphfn import (CoefficientTable, SphericalSignal, analyze_signal,
                           default_grid_spec, synthesize_signal)
from sphwave.so3 import make_rotation, make_scale_sequence, make_so3_grid
from sphwave.transform import (forward_transform, reconstruct,
                               rotate_coefficients, uniform_specs)

import oracles
from oracles import sequential_pick

SCALES = make_scale_sequence(1.0, 0.5, 1)
GRID = make_so3_grid(0.4, 0.2)
PHI1 = float(GRID.axial_angles[5])


def _signal(table):
    return synthesize_signal(table, default_grid_spec(table.l_band))


def _planted(l_band, spec, carrier, phi1, amp=1.0, grid=GRID):
    # one rotated kernel as a coefficient table
    cell = grid.cells[carrier]
    table = wavelet_coefficient_table(spec, l_band)
    out = rotate_coefficients(table, make_rotation(phi1, cell.theta,
                                                   cell.phi))
    out.values *= amp
    return out


def _random_signal(l_band, seed):
    rng = np.random.default_rng(seed)
    n = (l_band + 1) ** 2
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vec[0] = 0.0
    return _signal(CoefficientTable(l_band, vec))


def test_select_recovers_planted_kernel():
    tsel = SelectivitySet()
    for tau0 in (1.0, 4.0):
        spec = WaveletSpec("omega", 1.0, tau0)
        table = _planted(16, spec, 40, PHI1)
        tau, phi1, value = select_tau(_signal(table), SCALES, 0, 40, tsel,
                                      GRID)
        assert tau == tau0, tau0
        assert phi1 == PHI1, tau0
        # at the true rotation the quotient is ||truncated||^2 / ||full||
        expect = table.norm_sq() / np.sqrt(wavelet_norm_sq(spec))
        assert abs(value - expect) < 1e-10 * expect, tau0


def test_select_matches_brute_force():
    f = _random_signal(10, 19)
    grid = make_so3_grid(0.6, 0.7)
    tsel = SelectivitySet((1.0, 2.0, 4.0))
    table = analyze_signal(f)
    for alpha2 in (0, 17, 40):
        cell = grid.cells[alpha2]
        vals = np.empty((len(tsel), len(grid.axial_angles)))
        for it, tau in enumerate(tsel):
            spec = WaveletSpec("omega", 1.0, tau)
            ktab = wavelet_coefficient_table(spec, 10)
            norm = np.sqrt(wavelet_norm_sq(spec))
            for ia, a in enumerate(grid.axial_angles):
                rot = rotate_coefficients(
                    ktab, make_rotation(float(a), cell.theta, cell.phi))
                vals[it, ia] = abs(np.vdot(rot.values, table.values)) / norm
        it, ia = np.unravel_index(np.argmax(vals), vals.shape)
        tau, phi1, value = select_tau(f, SCALES, 0, alpha2, tsel, grid)
        assert tau == tsel.taus[it], alpha2
        assert phi1 == grid.axial_angles[ia], alpha2
        assert abs(value - vals[it, ia]) < 1e-12 * vals[it, ia], alpha2


def test_pick_matches_sequential_oracle():
    # small integer landscapes tie exactly and often; with tol below the
    # value spacing both rules take the first maximum in (tau, angle) order
    rng = np.random.default_rng(61)
    taus = (1.0, 2.0, 4.0, 8.0)
    angles = np.arange(6) * (np.pi / 3.0)
    for tol in (0.0, 0.25):
        vals = rng.integers(0, 3, size=(len(taus), 40, len(angles)))
        vals = vals.astype(float)
        got = multiselect._pick(np.moveaxis(vals, 1, 0).reshape(40, -1),
                                taus, angles, tol)
        for pos in range(vals.shape[1]):
            want = sequential_pick(vals[:, pos, :], taus, angles, tol)
            assert (got[0][pos], got[1][pos], got[2][pos]) == want, (tol, pos)


def test_pick_near_tie_chain():
    # steps of 0.75 * tol chain up to the maximum 3.0: the pick is the
    # first candidate within tol of the maximum (2.25 at tau 2, angle 1),
    # not the end of a chain of pairwise ties (3.0 at tau 4)
    taus = (1.0, 2.0, 4.0)
    angles = np.array([0.0, 1.0])
    chain = np.array([[0.0, 0.75], [1.5, 2.25], [3.0, 0.0]])
    # exactly tol below the maximum still ties
    edge = np.array([[0.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
    tau, phi1, value = multiselect._pick(
        np.stack([chain, edge]).reshape(2, -1), taus, angles, 1.0)
    assert (tau[0], phi1[0], value[0]) == (2.0, 1.0, 2.25)
    assert (tau[1], phi1[1], value[1]) == (1.0, 1.0, 2.0)
    assert sequential_pick(chain, taus, angles, 1.0) == (4.0, 0.0, 3.0)


def test_select_zonal_and_zero_tiebreak():
    grid = make_so3_grid(0.8, 1.2)
    tsel = SelectivitySet((1.0, 2.0, 4.0))

    zero = _signal(CoefficientTable(8))
    tau, phi1, value = select_tau(zero, SCALES, 1, 3, tsel, grid)
    assert (tau, phi1, value) == (1.0, 0.0, 0.0)

    # a zonal signal cannot distinguish carriers within a latitude band
    rng = np.random.default_rng(23)
    zonal = CoefficientTable(8)
    for l in range(1, 9):
        zonal.set(l, 0, rng.standard_normal())
    smap = selectivity_scan(_signal(zonal), SCALES, grid, tsel)
    for j in (0, 1):
        for a, cell in enumerate(grid.cells):
            first = next(i for i, c in enumerate(grid.cells)
                         if c.theta == cell.theta)
            assert smap.tau_star[j, a] == smap.tau_star[j, first], (j, a)
            assert smap.phi1_star[j, a] == smap.phi1_star[j, first], (j, a)
            # analysis roundoff leaves ulp-level residue off the zonal axis
            assert abs(smap.value[j, a] - smap.value[j, first]) \
                < 1e-12 * max(smap.value[j, a], 1e-300), (j, a)


def test_scan_matches_select():
    f = _random_signal(8, 31)
    grid = make_so3_grid(0.8, 1.2)
    tsel = SelectivitySet((1.0, 2.0, 4.0, 8.0))
    smap = selectivity_scan(f, SCALES, grid, tsel)
    assert smap.tau_star.shape == (2, grid.n_carriers)
    for j in (0, 1):
        for alpha2 in (0, 7, 23, 41, 53):
            tau, phi1, value = select_tau(f, SCALES, j, alpha2, tsel, grid)
            assert smap.tau_star[j, alpha2] == tau, (j, alpha2)
            assert smap.phi1_star[j, alpha2] == phi1, (j, alpha2)
            # the scan batches whole bands, so only ulp-level drift
            assert abs(smap.value[j, alpha2] - value) < 1e-12 * value, \
                (j, alpha2)
    rows = list(smap.rows())
    assert len(rows) == 2 * grid.n_carriers
    j, a, theta2, phi2, tau, phi1, value = rows[grid.n_carriers + 7]
    assert (j, a) == (1, 7)
    assert theta2 == grid.cells[7].theta and phi2 == grid.cells[7].phi
    assert tau == smap.tau_star[1, 7] and value == smap.value[1, 7]


def test_selection_scale_invariance():
    f = _random_signal(8, 31)
    grid = make_so3_grid(0.8, 1.2)
    tsel = SelectivitySet((1.0, 2.0, 4.0))
    tau, phi1, value = select_tau(f, SCALES, 0, 23, tsel, grid)
    for c in (3.7, np.exp(0.3j)):
        g = SphericalSignal(c * f.values, f.spec)
        tau_c, phi_c, val_c = select_tau(g, SCALES, 0, 23, tsel, grid)
        assert tau_c == tau and phi_c == phi1, c
        assert abs(val_c - abs(c) * value) < 1e-12 * value, c


def test_refine_tau_sharpens_discrete_winner():
    tsel = SelectivitySet()
    spec = WaveletSpec("omega", 1.0, 5.0)
    f = _signal(_planted(16, spec, 40, PHI1))
    tau_d, phi_d, val_d = select_tau(f, SCALES, 0, 40, tsel, GRID)
    assert tau_d == 4.0
    tau, phi1, value = refine_tau(f, SCALES, 0, 40, tsel, GRID)
    assert phi1 == PHI1
    assert abs(tau - 5.0) < 5e-3
    assert value >= val_d - 1e-12 * val_d


def test_refine_tau_honors_tol(monkeypatch):
    tsel = SelectivitySet()
    f = _signal(_planted(16, WaveletSpec("omega", 1.0, 5.0), 40, PHI1))
    calls = []
    weights = multiselect.matched_weights

    def counted(*args):
        calls.append(1)
        return weights(*args)

    monkeypatch.setattr(multiselect, "matched_weights", counted)
    n_evals = []
    for tol in (0.5, 1e-4):
        calls.clear()
        refine_tau(f, SCALES, 0, 40, tsel, GRID, tol=tol)
        n_evals.append(len(calls))
    assert n_evals[0] < n_evals[1] < 60, n_evals


def test_scan_norm_quadrature_once_per_scale(monkeypatch):
    # the kernel norm depends on (family, rho) only; a scan over several
    # bands, scales and selectivities runs one quadrature per scale, and
    # every scale reads the one cached 256-node rule
    grid = make_so3_grid(0.8, 0.5)
    f = _random_signal(8, 3)
    tsel = SelectivitySet((1.0, 2.0, 4.0))
    # warm the kernel tables, which run their own rules
    selectivity_scan(f, SCALES, grid, tsel)
    calls, quadratures = [], []
    leggauss = np.polynomial.legendre.leggauss
    profile_fn = profiles.profile_fn

    def counted(n):
        calls.append(n)
        return leggauss(n)

    def counted_profile(family):
        quadratures.append(family)
        return profile_fn(family)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    monkeypatch.setattr(profiles, "profile_fn", counted_profile)
    # scales no other test uses, so their norms are not cached yet
    scales = make_scale_sequence(0.83, 0.5, 1)
    selectivity_scan(f, scales, grid, tsel)
    assert len(quadratures) == len(scales), len(quadratures)
    assert calls == [], calls
    assert len(oracles.band_partition(grid)) > 1


def _check_picks(f, scales, grid, tsel, fam, cases, tol):
    # the scan, select_tau and refine_tau against the matched filter by
    # its definition at the (scale, carrier) cases: picked tau and angle
    # exact, values within tol
    table = analyze_signal(f)
    v = oracles.carrier_sums(table, grid)
    ref = oracles.definition_scan(v, fam, scales, tsel, grid.axial_angles,
                                  TIE_MARGIN * np.sqrt(table.norm_sq()))
    smap = selectivity_scan(f, scales, grid, tsel, fam)
    assert np.array_equal(smap.tau_star, ref[0]), fam
    assert np.array_equal(smap.phi1_star, ref[1]), fam
    assert np.all(np.abs(smap.value - ref[2]) <= tol * ref[2]), fam
    for j, c in cases:
        pick = tuple(ref[:, j, c])
        for got, want in (
                (select_tau(f, scales, j, c, tsel, grid, fam), pick),
                (refine_tau(f, scales, j, c, tsel, grid, fam),
                 oracles.definition_refine(v[c:c + 1], fam, scales[j], tsel,
                                           *pick[:2]))):
            assert got[:2] == want[:2], (fam, j, c)
            assert abs(got[2] - want[2]) <= tol * want[2], (fam, j, c)


def test_selection_matches_definition():
    # every selectivity reweights one tau-free correlation per (band,
    # scale); the reference takes |<U_g Psi_tau, f>| / ||Psi_tau|| by the
    # transform's definition
    tsel = SelectivitySet()
    for fam, l_band, grid in (("omega", 16, GRID),
                              ("upsilon", 16, GRID),
                              ("upsilon", 8, make_so3_grid(0.8, 0.5))):
        # a planted kernel between two set members, plus weak noise
        plant = _planted(l_band, WaveletSpec(fam, 1.0, 5.0), 40, PHI1).values
        noise = analyze_signal(_random_signal(l_band, 7)).values
        f = _signal(CoefficientTable(l_band, plant + 0.01 * np.max(
            np.abs(plant)) * noise))
        _check_picks(f, SCALES, grid, tsel, fam,
                     ((0, 40), (1, 40), (0, 3), (1, 17)), 1e-13)


def test_refine_searches_below_smallest_tau():
    # the bracket below the set's smallest tau runs down to 1, the floor
    # of tau, as the one above its largest runs up to the cap
    tsel = SelectivitySet((2.0, 4.0, 8.0, 16.0))
    f = _signal(_planted(16, WaveletSpec("omega", 1.0, 1.4), 40, PHI1))
    tau_d, phi_d, val_d = select_tau(f, SCALES, 0, 40, tsel, GRID)
    assert (tau_d, phi_d) == (2.0, PHI1)
    tau, phi1, value = refine_tau(f, SCALES, 0, 40, tsel, GRID)
    assert phi1 == PHI1
    assert abs(tau - 1.4) < 5e-3, tau
    assert value > 1.02 * val_d
    # above the largest member: a tau = 12 plant, picked at 8, refines
    # above 8 to a higher value (the full-norm quotient pulls it below 12
    # at L = 16)
    tsel = SelectivitySet((1.0, 2.0, 4.0, 8.0), tau_cap=16.0)
    grid = make_so3_grid(0.2, 0.2)
    phi = float(grid.axial_angles[3])
    f = _signal(_planted(16, WaveletSpec("omega", 1.0, 12.0), 40, phi,
                         grid=grid))
    tau_d, phi_d, val_d = select_tau(f, SCALES, 0, 40, tsel, grid)
    assert (tau_d, phi_d) == (8.0, phi)
    tau, phi1, value = refine_tau(f, SCALES, 0, 40, tsel, grid)
    assert phi1 == phi
    assert tau > 8.0 and value > val_d, (tau, value, val_d)


def test_select_and_refine_refuse_bad_arguments():
    f = _random_signal(8, 5)
    tsel = SelectivitySet()
    n = GRID.n_carriers
    # an index out of range or not an integer: -1 would read the last
    # scale, 2 of two scales raise IndexError and 3.0 TypeError
    bad = [(0, c, r"carrier %s in \[0, %d\)" % (c, n))
           for c in (n, -1, 2.5, 3.0)]
    bad += [(j, 40, r"scale %s in \[0, 2\)" % j) for j in (-1, 2, 1.0)]
    for j, carrier, message in bad:
        for pick in (select_tau, refine_tau):
            with pytest.raises(ValueError, match=message):
                pick(f, SCALES, j, carrier, tsel, GRID)
    for tol in (0.0, -1e-4, np.nan):
        with pytest.raises(ValueError, match="tolerance"):
            refine_tau(f, SCALES, 0, 40, tsel, GRID, tol=tol)


def test_matched_filter_matches_definition():
    # one array function of tau gives the scan, select_tau and refine_tau
    # their weights, with the window's norm in closed form; the reference
    # divides the definition's |<U_g Psi_tau, f>| by the norm with the
    # window's part summed over its series, and refines on it
    tsel = SelectivitySet()
    for l_band in (12, 16):
        for fam in ("omega", "upsilon"):
            for scales in (make_scale_sequence(1.0, 0.5, 0), SCALES):
                rng = np.random.default_rng(10 * l_band + len(scales))
                carriers = rng.choice(GRID.n_carriers, 4, replace=False)
                values = 0.01 * analyze_signal(
                    _random_signal(l_band, int(rng.integers(100)))).values
                for c in carriers[:2]:
                    spec = WaveletSpec(fam, 1.0, rng.uniform(1.0, 16.0))
                    phi1 = float(rng.choice(GRID.axial_angles))
                    values = values + _planted(l_band, spec, c, phi1).values
                f = _signal(CoefficientTable(l_band, values))
                _check_picks(f, scales, GRID, tsel, fam,
                             [(j, c) for j in range(len(scales))
                              for c in carriers], 1e-14)


def test_half_circle_scan_matches_full_circle(monkeypatch):
    # only odd axial orders occur, so psi + pi scores as psi: on an even
    # lattice of axial angles the scan scores the first half and picks what
    # the definition picks over all of them; an odd lattice, or an even set
    # not closed under the half-turn, is scored over every angle
    widths, pick = [], multiselect._pick
    monkeypatch.setattr(multiselect, "_pick", lambda values, taus, angles,
                        tol: widths.append(len(angles))
                        or pick(values, taus, angles, tol))
    moved = make_so3_grid(0.8, 0.4)
    angles = moved.axial_angles.copy()
    angles[3] += 0.05
    grids = [(make_so3_grid(0.8, 0.2), 16), (make_so3_grid(0.8, 0.4), 8),
             (make_so3_grid(0.8, 0.5), 13),
             (dataclasses.replace(moved, axial_angles=angles), 16)]
    tsel, l_band = SelectivitySet(), 8
    for grid, width in grids:
        n = len(grid.axial_angles)
        # planted in the second half of the circle, plus weak noise
        phi1 = float(grid.axial_angles[n // 2 + 1])
        for fam in ("omega", "upsilon"):
            plant = _planted(l_band, WaveletSpec(fam, 1.0, 3.0), 20, phi1,
                             grid=grid).values
            noise = analyze_signal(_random_signal(l_band, n)).values
            f = _signal(CoefficientTable(l_band, plant + 0.01 * np.max(
                np.abs(plant)) * noise))
            del widths[:]
            _check_picks(f, SCALES, grid, tsel, fam, ((0, 20), (1, 7)), 1e-14)
            assert set(widths) == {width}, (n, fam, widths)
            if width < n:   # phi1 reported in [0, pi)
                smap = selectivity_scan(f, SCALES, grid, tsel, fam)
                assert np.all(smap.phi1_star < np.pi), (n, fam)


def test_unhashable_scales_refused():
    # a list of scales cannot key the plan cache: refused by name, not with
    # the cache's TypeError
    f, tsel = _random_signal(6, 2), SelectivitySet()
    grid, scales = make_so3_grid(0.8, 0.8), [1.0, 0.5]
    calls = [lambda: forward_transform(f, uniform_specs("omega", 2.0, scales),
                                       grid, scales),
             lambda: selectivity_scan(f, scales, grid, tsel),
             lambda: select_tau(f, scales, 0, 3, tsel, grid),
             lambda: refine_tau(f, scales, 0, 3, tsel, grid),
             lambda: adaptive_analysis(f, scales, grid, tsel)]
    for call in calls:
        with pytest.raises(ValueError, match="make_scale_sequence"):
            call()


def test_refine_builds_no_kernel_table(monkeypatch):
    # the selectivity enters as a window weight only: once the scale's
    # tau-free table exists, fresh continuous tau cost no coefficients
    tsel = SelectivitySet()
    f = _signal(_planted(16, WaveletSpec("omega", 1.0, 5.0), 40, PHI1))
    refine_tau(f, SCALES, 0, 40, tsel, GRID)
    calls = []
    for name in ("wavelet_coefficient", "_profile_coefficient"):
        original = getattr(admissibility, name)
        monkeypatch.setattr(admissibility, name,
                            lambda *a, _f=original: calls.append(1) or _f(*a))
    # a tighter tolerance visits tau the first call never evaluated
    tau, _, _ = refine_tau(f, SCALES, 0, 40, tsel, GRID, tol=1e-7)
    assert abs(tau - 5.0) < 5e-3
    assert not calls, len(calls)


def test_refine_analyzes_signal_once(monkeypatch):
    # the golden-section scores reweight the discrete pick's correlation
    tsel = SelectivitySet()
    f = _signal(_planted(16, WaveletSpec("omega", 1.0, 5.0), 40, PHI1))
    want = refine_tau(f, SCALES, 0, 40, tsel, GRID)
    calls = []
    analyze = multiselect.analyze_signal
    monkeypatch.setattr(multiselect, "analyze_signal",
                        lambda g: calls.append(1) or analyze(g))
    assert refine_tau(f, SCALES, 0, 40, tsel, GRID) == want
    assert len(calls) == 1, len(calls)


def test_scan_tilt_once_per_band(monkeypatch):
    # the band operator contracts every scale against one read of the
    # grid's tilt store, whatever the number of scales, made when its plan
    # is built; a warm scan reuses the cached plan and reads no store
    grid = make_so3_grid(0.8, 0.5)
    f = _random_signal(8, 3)
    tsel = SelectivitySet()
    thetas = [b[0] for b in oracles.band_partition(grid)]
    for scales in (SCALES, make_scale_sequence(1.0, 0.5, 3)):
        transform._plan.cache_clear()
        calls = []
        store = transform._tilt_store
        monkeypatch.setattr(transform, "_tilt_store",
                            lambda *a: calls.append(a) or store(*a))
        selectivity_scan(f, scales, grid, tsel)
        assert len(calls) == 1, (len(scales), len(calls))
        (got, l_band), = calls
        assert isinstance(got, np.ndarray) and l_band == 8
        assert np.array_equal(got, thetas)
        selectivity_scan(f, scales, grid, tsel)
        monkeypatch.undo()
        assert len(calls) == 1, (len(scales), len(calls))


def test_picks_read_the_grid_store():
    # select_tau and refine_tau at every scale run on the plan the scan
    # built, reading their carrier's band from its store: no plan of one
    # scale, and no one-band store for a carrier
    f = _random_signal(8, 4)
    tsel = SelectivitySet()
    transform._plan.cache_clear()
    selectivity_scan(f, SCALES, GRID, tsel)
    for j in range(len(SCALES)):
        for alpha2 in (0, 40, GRID.n_carriers - 1):
            select_tau(f, SCALES, j, alpha2, tsel, GRID)
            refine_tau(f, SCALES, j, alpha2, tsel, GRID)
    assert transform._plan.cache_info().misses == 1


def test_adaptive_op_builds_one_plan(monkeypatch):
    # one adaptive op on a grid, the scan, the picks and refinements at
    # every scale, the adaptive transform and its reconstruction, builds
    # one band operator, and with it one tilt store and one phase table
    f = _random_signal(8, 6)
    tsel = SelectivitySet()
    grid = make_so3_grid(0.4, 0.2)      # a new key: plans key grids by id
    built, init = [], transform.BandPlan.__init__
    monkeypatch.setattr(transform.BandPlan, "__init__",
                        lambda *a: built.append("plan") or init(*a))
    for name in ("_tilt_store", "_cell_phases"):
        monkeypatch.setattr(transform, name, lambda *a, _n=name,
                            _f=getattr(transform, name): built.append(_n)
                            or _f(*a))
    selectivity_scan(f, SCALES, grid, tsel)
    for j in range(len(SCALES)):
        select_tau(f, SCALES, j, 40, tsel, grid)
        refine_tau(f, SCALES, j, 40, tsel, grid)
    reconstruct(adaptive_analysis(f, SCALES, grid, tsel)[1])
    monkeypatch.undo()
    assert sorted(built) == ["_cell_phases", "_tilt_store", "plan"], built


def test_scan_window_weights_once_per_scan(monkeypatch):
    # the weight rows depend on the selectivity set and the scales only:
    # one evaluation per scan, whatever the number of bands and scales
    f = _random_signal(8, 3)
    tsel = SelectivitySet()
    for grid in (make_so3_grid(0.8, 0.5), GRID):
        for scales in (make_scale_sequence(1.0, 0.5, 0), SCALES):
            calls = []
            weights = multiselect.matched_weights
            monkeypatch.setattr(multiselect, "matched_weights",
                                lambda *a: calls.append(1) or weights(*a))
            selectivity_scan(f, scales, grid, tsel)
            monkeypatch.undo()
            assert len(calls) == 1, (len(oracles.band_partition(grid)),
                                     len(scales), calls)


def test_two_feature_signal_prefers_sharper():
    # equal-energy broad and sharp features at well separated carriers
    l_band = 16
    i_broad, i_sharp = 40, 150
    spec_b = WaveletSpec("omega", 1.0, 1.0)
    spec_s = WaveletSpec("omega", 1.0, 8.0)
    fb = _planted(l_band, spec_b, i_broad, PHI1,
                  1.0 / np.sqrt(wavelet_norm_sq(spec_b)))
    fs = _planted(l_band, spec_s, i_sharp, PHI1,
                  1.0 / np.sqrt(wavelet_norm_sq(spec_s)))
    f = _signal(CoefficientTable(l_band, fb.values + fs.values))
    tsel = SelectivitySet()
    tau_b, _, _ = select_tau(f, SCALES, 0, i_broad, tsel, GRID)
    tau_s, phi_s, _ = select_tau(f, SCALES, 0, i_sharp, tsel, GRID)
    # the sharp plant survives the broad feature's tail intact
    assert tau_s == 8.0
    assert phi_s == PHI1
    assert tau_b < tau_s


def test_selectivity_set_validation():
    with pytest.raises(ValueError):
        SelectivitySet(())
    with pytest.raises(ValueError):
        SelectivitySet((2.0, 2.0))
    with pytest.raises(ValueError):
        SelectivitySet((0.5, 2.0))
    with pytest.raises(ValueError):
        SelectivitySet((1.0, 20.0))
    tsel = SelectivitySet()
    assert tsel.taus == (1.0, 2.0, 4.0, 8.0, 16.0)
    assert tsel.tau_cap == 16.0
    assert len(tsel) == 5 and list(tsel) == [1.0, 2.0, 4.0, 8.0, 16.0]


def test_estimate_sup_norms_stability():
    # the oracle's default lattice has converged over the scales and
    # selectivities test_sup_norm_behavior reads
    for rho in (0.5, 1.0):
        for tau in (1.0, 2.0, 4.0, 8.0, 16.0):
            spec = WaveletSpec("omega", rho, tau)
            sup, grad = oracles.estimate_sup_norms(spec)
            assert sup > 0.0 and grad > sup
            sup2, grad2 = oracles.estimate_sup_norms(spec, n_theta=1024,
                                                     n_phi=2048)
            assert abs(sup2 - sup) < 1e-2 * sup, (rho, tau)
            assert abs(grad2 - grad) < 1e-2 * grad, (rho, tau)
    grads = [oracles.estimate_sup_norms(WaveletSpec("omega", 0.5, t))[1]
             for t in (1.0, 2.0, 4.0)]
    assert grads[0] <= grads[1] <= grads[2]


def test_adaptive_analysis_round_trip():
    f = _random_signal(8, 51)
    grid = make_so3_grid(0.2, 0.2)
    tsel = SelectivitySet((1.0, 2.0, 4.0), tau_cap=4.0)
    smap, coeffs = adaptive_analysis(f, SCALES, grid, tsel)
    assert set(np.unique(smap.tau_star)) == {1.0, 2.0, 4.0}
    for j in range(len(SCALES)):
        assert np.array_equal(np.asarray(coeffs.taus[j]), smap.tau_star[j])
    rec = reconstruct(coeffs)
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(rec.values - f.values)) < 1e-6 * scale


def test_adaptive_analysis_correlates_once(monkeypatch):
    # the coefficients weight the scan's own tau-free correlations: f is
    # correlated once and no kernel spec is built per carrier, for the
    # numbers of the scan followed by a per-carrier forward transform
    f = _random_signal(8, 52)
    grid = make_so3_grid(0.4, 0.3)
    tsel = SelectivitySet()
    init, correlate = WaveletSpec.__post_init__, transform.BandPlan.correlate
    for family in ("omega", "upsilon"):
        smap = selectivity_scan(f, SCALES, grid, tsel, family)
        specs = tuple(tuple(WaveletSpec(family, rho, t)
                            for t in smap.tau_star[j])
                      for j, rho in enumerate(SCALES))
        want = forward_transform(f, specs, grid, SCALES)
        calls = []
        monkeypatch.setattr(WaveletSpec, "__post_init__",
                            lambda s: calls.append("spec") or init(s))
        monkeypatch.setattr(transform.BandPlan, "correlate",
                            lambda *a: calls.append("correlate")
                            or correlate(*a))
        got_map, got = adaptive_analysis(f, SCALES, grid, tsel, family)
        monkeypatch.undo()
        assert calls == ["correlate"], family
        for name in ("tau_star", "phi1_star", "value"):
            assert np.array_equal(getattr(got_map, name),
                                  getattr(smap, name)), (family, name)
        for a, b in zip(got.values + got.taus, want.values + want.taus):
            assert np.array_equal(a, b), family
        assert (got.family, got.l_band, got.under_resolved) == (
            want.family, want.l_band, want.under_resolved)


def test_adaptive_round_trip_at_defaults(monkeypatch):
    # the default solve inverts the adaptive frame of the default set
    # with no eigenvalue estimate; Gauss-Legendre nodes for synthesis
    # still come from numpy's own eigvalsh, so only library calls raise
    eigvalsh = np.linalg.eigvalsh

    def no_eigvalsh(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__", "").startswith(
                "sphwave"):
            raise AssertionError("reconstruct must not call eigvalsh")
        return eigvalsh(*args, **kwargs)

    grid = make_so3_grid(0.2, 0.2)
    for seed in (2, 3):
        f = _random_signal(16, seed)
        _, coeffs = adaptive_analysis(f, SCALES, grid, SelectivitySet())
        assert not coeffs.under_resolved
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
            rec = reconstruct(coeffs)
        err = (np.linalg.norm(rec.values - f.values)
               / np.linalg.norm(f.values))
        assert err < 1e-9, (seed, err)


def _two_kernels(seed, l_band, grid):
    # two unit-energy kernels with tau 1 and 8, at least 90 degrees apart,
    # planted as the adaptive_select workload plants them
    th, ph = grid.cells.theta, grid.cells.phi
    xyz = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                    np.cos(th)], axis=1)
    half = len(grid.axial_angles) // 2

    def plant(tau, carrier, phi1):
        spec = WaveletSpec("omega", 1.0, tau)
        return _planted(l_band, spec, carrier, phi1,
                        1.0 / np.sqrt(wavelet_norm_sq(spec)), grid).values

    rng = np.random.default_rng(seed)
    a = int(rng.integers(grid.n_carriers))
    b = int(rng.choice(np.flatnonzero(xyz @ xyz[a] <= np.cos(0.5 * np.pi))))
    pa, pb = (float(grid.axial_angles[i]) for i in rng.integers(half, size=2))
    return _signal(CoefficientTable(l_band, plant(1.0, a, pa)
                                    + plant(8.0, b, pb)))


def test_tau_map_reconstruct_error_within_tolerance():
    # a per-carrier tau map is solved from its LU start: the default
    # tolerance 1e-10 bounds the error against the input, not only the
    # Jacobi-scaled residual
    l_band, grid = 16, make_so3_grid(0.2, 0.2)
    for seed in range(1, 6):
        f = _two_kernels(seed, l_band, grid)
        _, coeffs = adaptive_analysis(f, SCALES, grid, SelectivitySet())
        assert np.ndim(coeffs.taus[0]) == 1
        rec = reconstruct(coeffs)
        err = (np.linalg.norm(rec.values - f.values)
               / np.linalg.norm(f.values))
        assert err <= 1e-10, (seed, err)


def test_planted_tau_maps_in_the_real_basis():
    # planted maps, seeds 1-3: S_R is float64 and exactly symmetric, and
    # matches the oracle's S by its phase sums folded into the real basis U
    # (built entry by entry) to 1e-13 of its largest entry, the fold real to
    # 1e-15; reconstruct, from the LU of S_R scaled to a unit diagonal,
    # agrees with np.linalg.solve on S = U^H S_R U in the degree-major order
    # to 1e-13 (1e-12 to 3e-11 unscaled, where the paired order interleaves
    # the graded degrees)
    l_band = 12
    for seed in (1, 2, 3):
        f = _two_kernels(seed, l_band, GRID)
        _, coeffs = adaptive_analysis(f, SCALES, GRID, SelectivitySet())
        assert not coeffs.under_resolved
        assert all(np.ptp(t) > 0 for t in coeffs.taus)
        sr = transform.frame_matrix("omega", coeffs.taus, GRID, SCALES,
                                    l_band)
        fold, top = oracles.folded_frame_matrix(coeffs), np.max(np.abs(sr))
        assert sr.dtype == np.float64 and np.array_equal(sr, sr.T)
        assert np.max(np.abs(fold.imag)) <= 1e-15 * top, seed
        assert np.max(np.abs(fold.real - sr)) <= 1e-13 * top, seed
        got = reconstruct(coeffs).values
        want = oracles.reference_solve(coeffs).values
        assert (np.linalg.norm(got - want)
                <= 1e-13 * np.linalg.norm(want)), seed


def test_tau_map_frame_matrix_peak_memory():
    # the planted maps' S_R (4 tau per scale, most bands split): the stacked
    # rows' gathers, the per-order buffer and the fold keep the traced peak
    # within 6.4 S_R, 3.2 complex S (4.55-4.96 S_R measured)
    l_band, grid = 16, make_so3_grid(0.2, 0.2)
    for seed in (1, 2, 3):
        smap = selectivity_scan(_two_kernels(seed, l_band, grid), SCALES,
                                grid, SelectivitySet())
        taus = list(smap.tau_star)
        transform.frame_matrix("omega", taus, grid, SCALES, l_band)  # warm
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            s = transform.frame_matrix("omega", taus, grid, SCALES, l_band)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert s.dtype == np.float64
        assert peak <= 6.4 * s.nbytes, (seed, peak / s.nbytes)
