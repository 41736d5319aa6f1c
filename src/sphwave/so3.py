"""Rotations of the sphere, scale sequences, and rotation grids.

A rotation is parametrized by three angles: phi2 and theta2 place the
kernel center (the image of the pole) at longitude phi2 and colatitude
theta2, while phi1 spins the kernel about its own axis first.  Grids
pair an area partition of the sphere (cells of geodesic diameter at
most delta2) with a uniform set of axial angles (arc spacing at most
delta1), and carry the cell measures needed for discrete integration
over all rotations.
"""

from dataclasses import dataclass

import numpy as np

# configured constraints for scale sequences: any positive coarsest
# scale is accepted, and consecutive scales may shrink at most 4x
RHO0_FLOOR = 0.0
RATIO_SPAN = 4.0


@dataclass(frozen=True)
class Rotation:
    """One rotation as its three angles; kernels rotate in harmonic space."""

    phi1: float
    theta2: float
    phi2: float


def make_rotation(phi1, theta2, phi2):
    """The rotation turning by phi1 about the pole axis, tilting the pole
    by theta2, then turning by phi2 about the pole axis.

    It carries the pole to the carrier point (theta2, phi2); phi1 only
    spins the kernel about its own axis.  Both turns are reduced mod 2 pi.
    """
    theta2 = float(theta2)
    if not 0.0 <= theta2 <= np.pi:
        raise ValueError("carrier colatitude must lie in [0, pi]")
    if not np.isfinite([phi1, phi2]).all():
        raise ValueError("turn angles must be finite")
    phi1 = float(np.mod(phi1, 2.0 * np.pi))
    phi2 = float(np.mod(phi2, 2.0 * np.pi))
    return Rotation(phi1, theta2, phi2)


# ---------------------------------------------------------------------------
# scale sequences

@dataclass(frozen=True)
class ScaleSequence:
    """Geometric scales rho0 * q^j for j = 0..j_max."""

    rho0: float
    q: float
    scales: tuple

    @property
    def log_step(self):
        """Scale-measure weight of each step: log(rho_j / rho_{j+1})."""
        return float(np.log(1.0 / self.q))

    def __len__(self):
        return len(self.scales)

    def __iter__(self):
        return iter(self.scales)

    def __getitem__(self, j):
        return self.scales[j]


def make_scale_sequence(rho0, q=0.5, j_max=0):
    """Geometric sequence of scales; q must lie in (1/4, 1)."""
    rho0 = float(rho0)
    q = float(q)
    if not RHO0_FLOOR < rho0 < np.inf:
        raise ValueError("coarsest scale must be positive and finite")
    if not 1.0 / RATIO_SPAN < q < 1.0:
        raise ValueError("scale ratio must lie in (%.3g, 1)" % (1.0 / RATIO_SPAN,))
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    scales = tuple(rho0 * q ** j for j in range(j_max + 1))
    return ScaleSequence(rho0, q, scales)


# ---------------------------------------------------------------------------
# rotation grids

@dataclass(frozen=True)
class GridCell:
    """One cell of the area partition with its carrier at the center."""

    theta: float
    phi: float
    theta_lo: float
    theta_hi: float
    phi_width: float
    measure: float


@dataclass(frozen=True)
class SO3Grid:
    """Area partition x axial angles; every rotation of the discrete set."""

    delta2: float
    delta1: float
    cells: tuple
    axial_angles: np.ndarray
    bands: tuple    # per band: (theta, cell indices, phis, measure), read-only
    measures: np.ndarray    # per carrier, read-only

    @property
    def n_carriers(self):
        return len(self.cells)


def make_so3_grid(delta2, delta1):
    """Latitude-band partition with diameter bound delta2, axial bound delta1.

    Bands have height at most delta2/sqrt(2); the longitudinal split of
    each band is chosen from the exact chord identity
        sin^2(d/2) = sin^2(dtheta/2) + sin(t) sin(t') sin^2(dphi/2)
    so that every cell has geodesic diameter at most delta2.  Cell
    measures are analytic and sum to the full sphere area.
    """
    delta2 = float(delta2)
    delta1 = float(delta1)
    if not 0.0 < delta2 <= np.pi:
        raise ValueError("cell diameter bound must lie in (0, pi]")
    if not 0.0 < delta1 <= 2.0 * np.pi:
        raise ValueError("axial arc bound must lie in (0, 2 pi]")

    n_bands = int(np.ceil(np.pi / (delta2 / np.sqrt(2.0))))
    edges = np.linspace(0.0, np.pi, n_bands + 1)
    cos_edges = np.cos(edges)
    band_height = np.pi / n_bands
    # height < delta2 keeps the width budget below strictly positive
    cap = np.sin(0.5 * delta2) ** 2 - np.sin(0.5 * band_height) ** 2

    cells = []
    bands = []
    for b in range(n_bands):
        lo, hi = edges[b], edges[b + 1]
        if lo < 0.5 * np.pi < hi:
            sin_w = 1.0
        else:
            sin_w = max(np.sin(lo), np.sin(hi))
        half_width = np.sqrt(cap) / sin_w
        dphi_max = 2.0 * np.arcsin(min(1.0, half_width))
        n_cells = int(np.ceil(2.0 * np.pi / dphi_max))
        width = 2.0 * np.pi / n_cells
        measure = (cos_edges[b] - cos_edges[b + 1]) * width
        center = 0.5 * (lo + hi)
        phis = (np.arange(n_cells) + 0.5) * width
        idx = len(cells) + np.arange(n_cells)
        idx.flags.writeable = phis.flags.writeable = False
        bands.append((center, idx, phis, measure))
        cells.extend(GridCell(center, float(p), lo, hi, width, measure)
                     for p in phis)

    n_axial = int(np.ceil(2.0 * np.pi / delta1))
    axial = np.arange(n_axial) * (2.0 * np.pi / n_axial)
    axial.flags.writeable = False
    measures = np.array([c.measure for c in cells])
    measures.flags.writeable = False
    return SO3Grid(delta2, delta1, tuple(cells), axial, tuple(bands),
                   measures)
