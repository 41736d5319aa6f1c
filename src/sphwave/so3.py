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

# configured constraints: scale sequences take any positive coarsest scale
# and shrink at most 4x per step.  Grids are capped for memory: the carrier
# table takes 48 bytes a carrier (12.6 MB at MAX_CARRIERS), and a band
# operator's cell phases 16 (2L + 1) bytes a carrier (0.54 GB at the cap and
# L = 64); each rotation takes one complex coefficient per scale (268 MB at
# MAX_ROTATIONS)
RHO0_FLOOR = 0.0
RATIO_SPAN = 4.0
MAX_CARRIERS = 2 ** 18
MAX_ROTATIONS = 2 ** 24


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
    if not rho0 * q ** j_max > 0.0:
        raise ValueError("j_max %d: the finest scale rho0 q^j_max underflows "
                         "to 0" % j_max)
    scales = tuple(rho0 * q ** j for j in range(j_max + 1))
    return ScaleSequence(rho0, q, scales)


# ---------------------------------------------------------------------------
# rotation grids

@dataclass(frozen=True, eq=False)
class SO3Grid:
    """Area partition x axial angles; every rotation of the discrete set.

    cells is one read-only record array with a row per carrier, the
    center of its cell: theta, phi, theta_lo, theta_hi, phi_width and
    measure, the quadrature weight.  Grids compare and hash by identity.
    """

    delta2: float
    delta1: float
    cells: np.recarray
    axial_angles: np.ndarray

    @property
    def n_carriers(self):
        return len(self.cells)


def make_so3_grid(delta2, delta1):
    """Latitude-band partition with diameter bound delta2, axial bound delta1.

    Bands have height at most delta2/sqrt(2); the longitudinal split of
    each band is chosen from the exact chord identity
        sin^2(d/2) = sin^2(dtheta/2) + sin(t) sin(t') sin^2(dphi/2)
    so that every cell has geodesic diameter at most delta2.  Cell
    measures are analytic and sum to the full sphere area.  Grids of more
    than MAX_CARRIERS cells or MAX_ROTATIONS rotations are refused up
    front.
    """
    delta2 = float(delta2)
    delta1 = float(delta1)
    if not 0.0 < delta2 <= np.pi:
        raise ValueError("cell diameter bound must lie in (0, pi]")
    if not 0.0 < delta1 <= 2.0 * np.pi:
        raise ValueError("axial arc bound must lie in (0, 2 pi]")

    n_bands = np.ceil(np.pi / (delta2 / np.sqrt(2.0)))
    if n_bands > MAX_CARRIERS:
        raise ValueError("delta2 %g: over %d cells" % (delta2, MAX_CARRIERS))
    edges = np.linspace(0.0, np.pi, int(n_bands) + 1)
    cos_edges = np.cos(edges)
    lo, hi = edges[:-1], edges[1:]
    # height < delta2 keeps the width budget below strictly positive
    cap = np.sin(0.5 * delta2) ** 2 - np.sin(0.5 * np.pi / n_bands) ** 2
    sin_w = np.where((lo < 0.5 * np.pi) & (0.5 * np.pi < hi), 1.0,
                     np.maximum(np.sin(lo), np.sin(hi)))
    dphi_max = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(cap) / sin_w))
    n_cells = np.ceil(2.0 * np.pi / dphi_max).astype(int)
    n_axial = np.ceil(2.0 * np.pi / delta1)
    if n_cells.sum() > MAX_CARRIERS:
        raise ValueError("delta2 %g: over %d cells" % (delta2, MAX_CARRIERS))
    if n_cells.sum() * n_axial > MAX_ROTATIONS:
        raise ValueError("delta2 %g and delta1 %g: over %d rotations"
                         % (delta2, delta1, MAX_ROTATIONS))

    # per cell its band b, and its position in the band
    at = np.arange(n_cells.sum())
    starts = np.cumsum(n_cells) - n_cells
    b = np.repeat(np.arange(len(n_cells)), n_cells)
    width = 2.0 * np.pi / n_cells
    cells = np.recarray(len(at), dtype=[(name, float) for name in (
        "theta", "phi", "theta_lo", "theta_hi", "phi_width", "measure")])
    cells.theta = (0.5 * (lo + hi))[b]
    cells.phi = (at - starts[b] + 0.5) * width[b]
    cells.theta_lo, cells.theta_hi, cells.phi_width = lo[b], hi[b], width[b]
    cells.measure = ((cos_edges[:-1] - cos_edges[1:]) * width)[b]
    cells.flags.writeable = False

    axial = np.arange(n_axial) * (2.0 * np.pi / n_axial)
    axial.flags.writeable = False
    return SO3Grid(delta2, delta1, cells, axial)
