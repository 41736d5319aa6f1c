"""Spherical-harmonic layer: recurrences, normalization, transforms."""

import math

import numpy as np
import pytest
import scipy.special as sps

from sphwave import sphfn
from sphwave.sphfn import (CoefficientTable, SphericalSignal, analyze_signal,
                           coef_index, default_grid_spec,
                           grid_phis, legendre_P_all, legendre_rows,
                           make_colat_grid, normalized_assoc_column,
                           synthesize_signal)

from oracles import (assoc_legendre_P, harmonic_matrix, legendre_P,
                     spherical_harmonic)


def test_legendre_known_values():
    assert legendre_P(0, 0.3) == 1.0
    assert legendre_P(1, 0.3) == 0.3
    assert abs(legendre_P(2, 0.5) - (-0.125)) < 1e-15
    # P_3 = (5 t^3 - 3 t) / 2
    rng = np.random.default_rng(1)
    t = rng.uniform(-1.0, 1.0, 50)
    assert np.max(np.abs(legendre_P(3, t) - 0.5 * (5 * t ** 3 - 3 * t))) < 1e-14
    assert abs(legendre_P(17, 1.0) - 1.0) < 1e-14
    assert abs(legendre_P(17, -1.0) + 1.0) < 1e-14


def test_legendre_all_matches_single():
    rng = np.random.default_rng(2)
    t = rng.uniform(-1.0, 1.0, 20)
    P = legendre_P_all(12, t)
    for l in range(13):
        assert np.max(np.abs(P[l] - legendre_P(l, t))) < 1e-14


def test_assoc_legendre_against_scipy():
    rng = np.random.default_rng(3)
    t = rng.uniform(-0.999, 0.999, 40)
    for l in range(0, 14):
        for k in range(0, l + 1):
            ours = assoc_legendre_P(l, k, t)
            ref = sps.lpmv(k, l, t)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(ours - ref)) < 1e-10 * scale, (l, k)


def test_assoc_legendre_condon_shortley():
    # P_1^1(0) = -1 fixes the sign convention
    assert abs(assoc_legendre_P(1, 1, 0.0) + 1.0) < 1e-15


def test_normalized_column_matches_unnormalized():
    rng = np.random.default_rng(4)
    t = rng.uniform(-0.99, 0.99, 15)
    for k in (0, 1, 3, 7):
        col = normalized_assoc_column(k, t, 12)
        for l in range(k, 13):
            norm = math.sqrt((2 * l + 1) * math.factorial(l - k)
                             / (4.0 * np.pi * math.factorial(l + k)))
            ref = norm * assoc_legendre_P(l, k, t)
            assert np.max(np.abs(col[l - k] - ref)) < 1e-12, (l, k)


def test_normalized_column_high_degree_finite():
    t = np.array([-0.7, 0.0, 0.9])
    col = normalized_assoc_column(40, t, 1200)
    assert np.all(np.isfinite(col))


def test_legendre_rows_layout():
    t = np.array([0.25])
    q = legendre_rows(t, 8)
    assert q.shape == (81, 1)
    for l in range(9):
        for k in range(-l, l + 1):
            ref = (-1.0) ** abs(k) * normalized_assoc_column(abs(k), t, l)
            assert abs(q[coef_index(l, k)][0] - ref[-1][0]) < 1e-14, (l, k)


def test_harmonic_matrix_rows():
    rng = np.random.default_rng(12)
    theta = rng.uniform(0.0, np.pi, 25)
    phi = rng.uniform(0.0, 2 * np.pi, 25)
    y = harmonic_matrix(8, theta, phi)
    assert y.shape == (81, 25)
    for l in range(9):
        for k in range(-l, l + 1):
            ref = spherical_harmonic(l, k, theta, phi)
            assert np.max(np.abs(y[coef_index(l, k)] - ref)) < 1e-13, (l, k)


def test_spherical_harmonic_against_scipy():
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.05, np.pi - 0.05, 25)
    phi = rng.uniform(0.0, 2 * np.pi, 25)
    for l in range(0, 9):
        for k in range(-l, l + 1):
            ours = spherical_harmonic(l, k, theta, phi)
            ref = sps.sph_harm_y(l, k, theta, phi)
            if k > 0:
                ref = (-1.0) ** k * ref
            assert np.max(np.abs(ours - ref)) < 1e-12, (l, k)


def test_spherical_harmonic_scalars_and_symmetry():
    y0 = spherical_harmonic(0, 0, 0.7, 1.1)
    assert abs(y0 - 1.0 / math.sqrt(4.0 * np.pi)) < 1e-15
    y = spherical_harmonic(5, 3, 0.7, 1.1)
    ym = spherical_harmonic(5, -3, 0.7, 1.1)
    assert abs(ym - np.conj(y)) < 1e-14


def test_colat_grid_properties():
    g = make_colat_grid(24)
    assert np.all(np.diff(g.nodes) > 0)
    assert abs(np.sum(g.weights) - 2.0) < 1e-14
    assert np.all((g.nodes > 0) & (g.nodes < np.pi))


def test_colat_grid_cached(monkeypatch):
    # Gauss-Legendre nodes are computed once per node count and shared
    # read-only by every synthesis at that band limit; the Legendre rows
    # are cached per node count in front of them, so both start cold
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    make_colat_grid.cache_clear()
    sphfn._colat_rows.cache_clear()
    table = CoefficientTable(6, np.ones(49, dtype=complex))
    a = synthesize_signal(table, default_grid_spec(6))
    b = synthesize_signal(table, default_grid_spec(6))
    assert calls == [7]
    assert a.colat is b.colat
    assert not a.colat.nodes.flags.writeable
    assert not a.colat.weights.flags.writeable


def test_legendre_rows_cached(monkeypatch):
    # the Legendre rows are built once per (colatitude count, band limit)
    # and shared read-only by analyses and syntheses
    calls = []

    def counted(t, l_band):
        calls.append(l_band)
        return legendre_rows(t, l_band)

    monkeypatch.setattr(sphfn, "legendre_rows", counted)
    sphfn._colat_rows.cache_clear()
    spec = default_grid_spec(6)
    table = CoefficientTable(6, np.ones(49, dtype=complex))
    f = synthesize_signal(table, spec)
    a = analyze_signal(f)
    b = analyze_signal(f)
    assert calls == [6]
    assert np.array_equal(a.values, b.values)
    assert not sphfn._colat_rows(spec.n_theta, 6).flags.writeable


def test_coef_index_and_table():
    assert coef_index(0, 0) == 0
    assert coef_index(1, -1) == 1
    assert coef_index(1, 1) == 3
    assert coef_index(3, 0) == 12
    table = CoefficientTable(5)
    table.set(3, -2, 2.0 + 1j)
    assert table.get(3, -2) == 2.0 + 1j
    block = table.degree_block(3)
    assert block.shape == (7,)
    block[1] = -4.0          # same storage as (3, -2)
    assert table.get(3, -2) == -4.0
    assert abs(table.norm_sq() - 16.0) < 1e-14


def test_harmonic_orthonormality_on_grid():
    spec = default_grid_spec(10)
    colat = make_colat_grid(spec.n_theta)
    phis = grid_phis(spec)
    tt, pp = np.meshgrid(colat.nodes, phis, indexing="ij")
    w = colat.weights[:, None] * (2.0 * np.pi / spec.n_phi)
    pairs = [(0, 0), (1, -1), (2, 1), (3, 3), (5, -4), (5, 4)]
    for la, ka in pairs:
        ya = spherical_harmonic(la, ka, tt, pp)
        for lb, kb in pairs:
            yb = spherical_harmonic(lb, kb, tt, pp)
            dot = np.sum(w * ya * np.conj(yb))
            want = 1.0 if (la, ka) == (lb, kb) else 0.0
            assert abs(dot - want) < 1e-10, ((la, ka), (lb, kb))


def test_transform_round_trip():
    rng = np.random.default_rng(6)
    l_band = 16
    table = CoefficientTable(l_band)
    n = table.values.size
    table.values[:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sig = synthesize_signal(table, default_grid_spec(l_band))
    back = analyze_signal(sig)
    assert np.max(np.abs(back.values - table.values)) < 1e-12
    # Parseval between the two representations
    assert abs(sig.norm_sq() - table.norm_sq()) < 1e-10 * table.norm_sq()


def test_single_harmonic_round_trip():
    spec = default_grid_spec(9)
    for l, k in ((0, 0), (1, 1), (4, -3), (9, 9)):
        table = CoefficientTable(9)
        table.set(l, k, 1.0)
        sig = synthesize_signal(table, spec)
        colat = make_colat_grid(spec.n_theta)
        tt, pp = np.meshgrid(colat.nodes, grid_phis(spec), indexing="ij")
        ref = spherical_harmonic(l, k, tt, pp)
        assert np.max(np.abs(sig.values - ref)) < 1e-12, (l, k)
        back = analyze_signal(sig)
        assert abs(back.get(l, k) - 1.0) < 1e-12
        assert abs(back.norm_sq() - 1.0) < 1e-12


def test_analyze_lower_band():
    rng = np.random.default_rng(7)
    table = CoefficientTable(8)
    n = table.values.size
    table.values[:] = rng.standard_normal(n)
    sig = synthesize_signal(table, default_grid_spec(8))
    low = analyze_signal(sig, 3)
    assert low.l_band == 3
    for l in range(4):
        assert np.max(np.abs(low.degree_block(l)
                             - table.degree_block(l))) < 1e-12


def test_signal_shape_validation():
    spec = default_grid_spec(4)
    try:
        SphericalSignal(np.zeros((3, 3)), spec)
    except ValueError:
        pass
    else:
        raise AssertionError("mismatched samples must be rejected")


def test_negative_band_limit_refused():
    # refused where the table or grid spec is made, naming the field
    for make in (CoefficientTable, default_grid_spec):
        with pytest.raises(ValueError, match="l_band"):
            make(-3)
    assert CoefficientTable(0).values.shape == (1,)
