"""Rotation parametrization, scale sequences, and rotation grids."""

import numpy as np
import pytest

from sphwave.so3 import make_rotation, make_scale_sequence, make_so3_grid

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
        assert abs(np.sum(grid.measures) - 4.0 * np.pi) < 1e-10
        for cell in grid.cells:
            assert _cell_diameter(cell) <= delta2 * (1.0 + 1e-12)
            assert cell.theta_lo < cell.theta < cell.theta_hi
            assert cell.measure > 0
    assert (make_so3_grid(0.2, 0.5).n_carriers
            > make_so3_grid(0.4, 0.5).n_carriers)


def test_grid_measures_built_once():
    # the per-carrier measures are stored by the grid, not rebuilt from
    # the cells on each access, and no caller can overwrite them
    grid = make_so3_grid(0.4, 0.5)
    m = grid.measures
    assert grid.measures is m
    assert not m.flags.writeable
    assert np.array_equal(m, [c.measure for c in grid.cells])
    with pytest.raises(ValueError):
        m[0] = 1.0


def test_grid_bands_read_only():
    # a grid cannot change under a caller that keeps it, such as the
    # frame operator kept by reconstruct
    for _, idx, phis, _ in make_so3_grid(0.4, 0.5).bands:
        for arr in (idx, phis):
            with pytest.raises(ValueError):
                arr[0] = 1


def test_grid_bands_match_cell_partition():
    # the stored bands equal the cells regrouped by latitude band
    for delta2, delta1 in ((np.pi, np.pi), (0.8, 0.5), (0.4, 0.2),
                           (0.25, 1.0), (0.1, 0.1)):
        grid = make_so3_grid(delta2, delta1)
        ref = band_partition(grid)
        assert len(grid.bands) == len(ref), (delta2, delta1)
        for (theta, idx, phis, measure), (r_theta, r_idx, r_phis,
                                          r_measure) in zip(grid.bands, ref):
            assert theta == r_theta and measure == r_measure
            assert np.array_equal(idx, r_idx) and idx.dtype == r_idx.dtype
            assert np.array_equal(phis, r_phis)


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
