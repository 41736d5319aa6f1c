"""Rotation parametrization, scale sequences, and rotation grids."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import sphwave
from sphwave import so3
from sphwave.so3 import (MAX_CARRIERS, MAX_ROTATIONS, make_rotation,
                         make_scale_sequence, make_so3_grid)
from sphwave.profiles import RHO_MIN
from sphwave.transform import BandPlan

from oracles import (axis_rotation, band_partition, point_angles,
                     rotate_signal_pullback, rotation_matrix, sphere_points,
                     tilt_rotation)


def test_sphere_points_roundtrip():
    rng = np.random.default_rng(21)
    theta = rng.uniform(0.01, np.pi - 0.01, 50)
    phi = rng.uniform(0.0, 2.0 * np.pi, 50)
    xyz = sphere_points(theta, phi)
    assert np.max(np.abs(np.sum(xyz * xyz, axis=0) - 1.0)) < 1e-14
    th, ph = point_angles(xyz)
    assert np.max(np.abs(th - theta)) < 1e-12
    assert np.max(np.abs(ph - phi)) < 1e-12
    # the pole has no defined longitude; it is reported as 0
    assert point_angles(sphere_points(0.0, 1.3))[1] == 0.0


def test_rotation_matrices():
    rng = np.random.default_rng(22)
    for _ in range(20):
        g = make_rotation(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                          rng.uniform(0, 2 * np.pi))
        mat = rotation_matrix(g)
        assert np.max(np.abs(mat @ mat.T - np.eye(3))) < 1e-14
        assert abs(np.linalg.det(mat) - 1.0) < 1e-14
        ref = (axis_rotation(g.phi2) @ tilt_rotation(g.theta2)
               @ axis_rotation(g.phi1))
        assert np.max(np.abs(mat - ref)) < 1e-15
        v = rng.standard_normal(3)
        assert np.max(np.abs(mat.T @ (mat @ v) - v)) < 1e-14


def test_rotation_carrier():
    pole = sphere_points(0.0, 0.0)
    for phi1 in (0.0, 1.0, 4.0):
        g = make_rotation(phi1, 0.9, 2.5)
        th, ph = point_angles(rotation_matrix(g) @ pole)
        assert abs(th - 0.9) < 1e-14
        assert abs(ph - 2.5) < 1e-14
        assert (g.theta2, g.phi2) == (0.9, 2.5)


def test_make_rotation_validation():
    with pytest.raises(ValueError):
        make_rotation(0.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        make_rotation(0.0, np.pi + 0.1, 0.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            make_rotation(bad, 1.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            make_rotation(0.0, 1.0, bad)
    g = make_rotation(-1.0, 1.0, 7.0)
    assert abs(g.phi1 - (2.0 * np.pi - 1.0)) < 1e-14
    assert abs(g.phi2 - (7.0 - 2.0 * np.pi)) < 1e-14


def test_rotate_signal_pullback():
    def f(theta, phi):
        return np.cos(theta) + np.sin(theta) * np.cos(phi)

    # a pure axial spin shifts longitude
    g = make_rotation(0.7, 0.0, 0.0)
    rot = rotate_signal_pullback(g, f)
    theta = np.linspace(0.1, np.pi - 0.1, 9)
    phi = np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)
    assert np.max(np.abs(rot(theta, phi) - f(theta, phi - 0.7))) < 1e-13
    # the rotated signal at the carrier equals the original at the pole
    # (arccos near the pole amplifies roundoff to sqrt(eps))
    g = make_rotation(1.2, 0.8, 2.1)
    rot = rotate_signal_pullback(g, f)
    assert abs(rot(0.8, 2.1) - f(0.0, 0.0)) < 1e-7


def test_scale_sequence():
    seq = make_scale_sequence(1.0, 0.5, 3)
    assert seq.scales == (1.0, 0.5, 0.25, 0.125)
    assert abs(seq.log_step - np.log(2.0)) < 1e-15
    assert len(seq) == 4
    assert seq[2] == 0.25
    assert list(seq) == [1.0, 0.5, 0.25, 0.125]
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            make_scale_sequence(bad)
    with pytest.raises(ValueError):
        make_scale_sequence(1.0, q=0.2)
    with pytest.raises(ValueError):
        make_scale_sequence(1.0, q=1.0)
    with pytest.raises(ValueError):
        make_scale_sequence(1.0, j_max=-1)
    # every scale lies in the kernels' range [RHO_MIN, inf): a finest
    # scale rho0 q^j_max below it, or one that underflows to 0, is refused
    # before the sequence is built, not later by each kernel at that scale
    assert make_scale_sequence(1.0, 0.5, 13)[-1] == 2.0 ** -13
    assert make_scale_sequence(RHO_MIN).scales == (RHO_MIN,)
    for j_max in (14, 1000, 2000):
        with pytest.raises(ValueError, match="j_max %d" % j_max):
            make_scale_sequence(1.0, 0.5, j_max)
    with pytest.raises(ValueError, match="supported range"):
        make_scale_sequence(5e-5)


def _cell_diameter(cell):
    # extreme points of a band cell: the four corners plus, when the band
    # straddles the equator, the widest mid-edge pair
    thetas = [cell.theta_lo, cell.theta_hi]
    if cell.theta_lo < 0.5 * np.pi < cell.theta_hi:
        thetas.append(0.5 * np.pi)
    pts = [sphere_points(t, p) for t in thetas
           for p in (cell.phi - 0.5 * cell.phi_width,
                     cell.phi + 0.5 * cell.phi_width)]
    worst = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = np.arccos(np.clip(np.dot(pts[i], pts[j]), -1.0, 1.0))
            worst = max(worst, d)
    return worst


def test_grid_partition_properties():
    for delta2 in (0.8, 0.4, 0.2):
        grid = make_so3_grid(delta2, 0.5)
        assert abs(np.sum(grid.cells.measure) - 4.0 * np.pi) < 1e-10
        for cell in grid.cells:
            assert _cell_diameter(cell) <= delta2 * (1.0 + 1e-12)
            assert cell.theta_lo < cell.theta < cell.theta_hi
            assert cell.measure > 0
    assert (make_so3_grid(0.2, 0.5).n_carriers
            > make_so3_grid(0.4, 0.5).n_carriers)


def test_grid_measures_built_once():
    # the per-carrier measures are a column of the carrier table, built
    # once with the grid, not rebuilt from the cells on each access, and
    # no caller can overwrite them
    grid = make_so3_grid(0.4, 0.5)
    m = grid.cells.measure
    assert np.shares_memory(m, grid.cells)
    assert not m.flags.writeable
    assert np.array_equal(m, [c.measure for c in grid.cells])
    with pytest.raises(ValueError):
        m[0] = 1.0


def test_grid_carrier_table():
    # one read-only record array holds the carriers, and the grid keeps
    # nothing else per carrier: the per-carrier measures and every band's
    # longitudes (a span of the band operator) are views of its columns
    grid = make_so3_grid(0.4, 0.5)
    cells = grid.cells
    assert isinstance(cells, np.recarray) and len(cells) == grid.n_carriers
    assert cells.dtype.names == ("theta", "phi", "theta_lo", "theta_hi",
                                 "phi_width", "measure")
    assert [f.name for f in dataclasses.fields(grid)] == [
        "delta2", "delta1", "cells", "axial_angles"]
    assert not cells.flags.writeable
    assert np.shares_memory(cells.measure, cells)
    plan = BandPlan(1, grid, "omega", make_scale_sequence(1.0))
    for s, (theta, idx, phis, measure) in zip(plan.spans,
                                              band_partition(grid)):
        assert np.shares_memory(cells.phi[s], cells)
        assert np.array_equal(phis, cells.phi[s])
        assert np.all(cells.theta[s] == theta)
        assert np.all(cells.measure[s] == measure)
    assert not hasattr(so3, "GridCell") and not hasattr(sphwave, "GridCell")


def test_grid_memory_per_carrier():
    # the grid keeps its carrier table (48 bytes a carrier), no band index
    # arrays and no object per carrier
    make_so3_grid(0.05, 0.05)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grid = make_so3_grid(0.05, 0.05)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept <= 56 * grid.n_carriers, kept / grid.n_carriers


def test_grid_bands_read_only():
    # a grid cannot change under a caller that keeps it, such as the
    # frame operator kept by reconstruct: neither the columns its bands
    # are found from nor its axial angles
    grid = make_so3_grid(0.4, 0.5)
    for arr in (grid.cells.theta, grid.cells.phi, grid.cells.measure,
                grid.axial_angles):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_grid_bands_match_cell_partition():
    # the band operator's bands, runs of carriers at one colatitude, equal
    # the cells regrouped by latitude band, one tilt per band
    for delta2, delta1 in ((np.pi, np.pi), (0.8, 0.5), (0.4, 0.2),
                           (0.25, 1.0), (0.1, 0.1)):
        grid = make_so3_grid(delta2, delta1)
        ref = band_partition(grid)
        plan = BandPlan(1, grid, "omega", make_scale_sequence(1.0))
        assert len(plan.spans) == len(ref), (delta2, delta1)
        assert plan.store.shape[-1] == len(ref), (delta2, delta1)
        for s, (r_theta, r_idx, r_phis, r_measure) in zip(plan.spans, ref):
            idx = np.arange(grid.n_carriers)[s]
            assert np.all(grid.cells.theta[s] == r_theta)
            assert np.all(grid.cells.measure[s] == r_measure)
            assert np.array_equal(idx, r_idx) and idx.dtype == r_idx.dtype
            assert np.array_equal(grid.cells.phi[s], r_phis)


def test_grid_compares_and_hashes_by_identity():
    # two grids of the same bounds are two grids, as reconstruct's kept
    # frame (matched with `is`) has it; neither comparing nor hashing
    # touches the arrays
    a, b = make_so3_grid(0.5, 0.5), make_so3_grid(0.5, 0.5)
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_grid_axial_angles():
    grid = make_so3_grid(0.7, 0.9)
    n_axial = len(grid.axial_angles)
    assert n_axial == int(np.ceil(2.0 * np.pi / 0.9))
    spacing = np.diff(grid.axial_angles)
    assert np.max(spacing) <= 0.9 + 1e-12
    assert np.max(np.abs(spacing - 2.0 * np.pi / n_axial)) < 1e-14
    assert grid.axial_angles[0] == 0.0


def test_grid_validation():
    for bad2 in (0.0, -1.0, np.pi + 0.1):
        with pytest.raises(ValueError):
            make_so3_grid(bad2, 0.5)
    for bad1 in (0.0, 2.0 * np.pi + 0.1):
        with pytest.raises(ValueError):
            make_so3_grid(0.5, bad1)


def test_grid_size_caps():
    # the counts are checked before anything is allocated, and the
    # message names the bound that makes the grid too large
    for (delta2, delta1), field in (((0.5, 1e-9), "delta1"),
                                    ((1e-6, 0.5), "delta2"),
                                    ((0.003, 0.5), "delta2"),
                                    ((0.01, 0.001), "delta1")):
        with pytest.raises(ValueError, match=field):
            make_so3_grid(delta2, delta1)
    grid = make_so3_grid(0.05, 0.05)
    assert grid.n_carriers * len(grid.axial_angles) < MAX_ROTATIONS
    assert MAX_CARRIERS < MAX_ROTATIONS
