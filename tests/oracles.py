"""Reference implementations that only tests compare against.

The dense frame builders below are the library's former per-degree
constructions: a closed-form Hadamard factor for one selectivity per
scale, and an explicit longitudinal phase sum for per-carrier
selectivities.  The library now builds both cases from its band
operator, and tests hold it to these.  The tilt blocks are the former
per-harmonic construction, which analyzes every tilted harmonic as a
gridded signal.
"""

import numpy as np

from sphwave.sphfn import (SphericalSignal, analyze_signal, coef_index,
                           default_grid_spec, degree_orders, grid_phis,
                           make_colat_grid, normalized_assoc_column)
from sphwave.so3 import sphere_points, tilt_rotation
from sphwave.transform import (_band_partition, _kernel_matrix, _odd_orders,
                               _tilt_blocks)


def tilt_blocks(theta, l_band):
    """Per-degree unitary blocks T^l[m, k] = <Y_l^m, Y_l^k o tilt^{-1}>.

    Computed by analyzing each tilted harmonic on an exact quadrature
    grid; a tilt preserves the degree, so the projection is exact.
    """
    spec = default_grid_spec(l_band)
    colat = make_colat_grid(spec.n_theta)
    tt, pp = np.meshgrid(colat.nodes, grid_phis(spec), indexing="ij")
    xyz = np.tensordot(tilt_rotation(theta).T, sphere_points(tt, pp), axes=1)
    ct = np.clip(xyz[0], -1.0, 1.0)
    ph = np.arctan2(xyz[2], xyz[1])
    blocks = [np.zeros((2 * l + 1, 2 * l + 1), dtype=complex)
              for l in range(l_band + 1)]
    for k in range(-l_band, l_band + 1):
        ka = abs(k)
        col = normalized_assoc_column(ka, ct, l_band)
        phase = (-1.0) ** ka * np.exp(1j * k * ph)
        for l in range(ka, l_band + 1):
            sig = SphericalSignal(col[l - ka] * phase, spec, colat)
            blocks[l][:, k + l] = analyze_signal(sig, l).degree_block(l)
    return blocks


def frame_matrix(family, taus, grid, scales, l_band):
    """Dense frame operator on coefficient tables, uniform tau per scale.

    The axial and longitudinal sums are geometric series, so each
    latitude band contributes a closed-form Hadamard factor; only the
    band colatitudes are genuine quadrature.
    """
    n = (l_band + 1) ** 2
    l_of, m_of = degree_orders(l_band)
    ks = _odd_orders(l_band)
    n_axial = len(grid.axial_angles)
    axial_gram = 2.0 * np.pi * ((ks[:, None] - ks[None, :]) % n_axial == 0)
    dm = m_of[None, :] - m_of[:, None]
    s = np.zeros((n, n), dtype=complex)
    for theta_b, idx, _, measure in _band_partition(grid):
        blocks = _tilt_blocks(round(theta_b, 12), l_band)
        n_cells = len(idx)
        tilt_part = np.zeros((len(ks), n), dtype=complex)
        for l in range(1, l_band + 1):
            kcols = [l + k for k in range(-l, l + 1) if k % 2 != 0]
            rows = [int(np.where(ks == c - l)[0][0]) for c in kcols]
            tilt_part[rows, coef_index(l, -l):coef_index(l, l) + 1] = (
                np.conj(blocks[l][:, kcols]).T)
        hadamard = (measure * n_cells
                    * np.exp(1j * dm * np.pi / n_cells) * (dm % n_cells == 0))
        for j, rho in enumerate(scales):
            kern = _kernel_matrix(family, float(rho), float(taus[j]), l_band)
            beta = tilt_part * np.conj(kern[l_of[None, :],
                                            ks[:, None] + l_band])
            core = beta.conj().T @ axial_gram @ beta
            s += (scales.log_step / (16.0 * np.pi ** 2)) * core * hadamard
    return s


def adaptive_frame_matrix(coeffs):
    """Dense frame operator honoring per-carrier selectivities.

    Cells sharing one selectivity within a latitude band contribute a
    common kernel factor; their explicit longitudinal phase sum replaces
    the geometric-series closed form of the uniform case.
    """
    l_band = coeffs.l_band
    grid = coeffs.grid
    n = (l_band + 1) ** 2
    l_of, m_of = degree_orders(l_band)
    ks = _odd_orders(l_band)
    n_axial = len(grid.axial_angles)
    axial_gram = 2.0 * np.pi * ((ks[:, None] - ks[None, :]) % n_axial == 0)
    s = np.zeros((n, n), dtype=complex)
    for theta_b, idx, phis, measure in _band_partition(grid):
        blocks = _tilt_blocks(round(theta_b, 12), l_band)
        tilt_part = np.zeros((len(ks), n), dtype=complex)
        for l in range(1, l_band + 1):
            kcols = [l + k for k in range(-l, l + 1) if k % 2 != 0]
            rows = [int(np.where(ks == c - l)[0][0]) for c in kcols]
            tilt_part[rows, coef_index(l, -l):coef_index(l, l) + 1] = (
                np.conj(blocks[l][:, kcols]).T)
        for j, rho in enumerate(coeffs.scales):
            tau_j = coeffs.taus[j]
            band_taus = (np.full(len(idx), tau_j) if np.ndim(tau_j) == 0
                         else np.asarray(tau_j)[idx])
            for tau in np.unique(band_taus):
                sub = phis[band_taus == tau]
                kern = _kernel_matrix(coeffs.family, float(rho), float(tau),
                                      l_band)
                beta = tilt_part * np.conj(kern[l_of[None, :],
                                                ks[:, None] + l_band])
                core = beta.conj().T @ axial_gram @ beta
                carried = np.exp(1j * np.outer(m_of, sub))
                hadamard = measure * (np.conj(carried) @ carried.T)
                s += (coeffs.scales.log_step / (16.0 * np.pi ** 2)
                      ) * core * hadamard
    return s
