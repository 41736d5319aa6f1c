"""Legendre machinery, spherical harmonics and quadrature grids on the sphere.

Conventions used throughout the package:

* associated Legendre functions carry the Condon-Shortley factor (-1)^k,
* harmonics are orthonormal with respect to the unnormalized surface
  measure (integral of 1 over the sphere equals 4 pi),
* Y(l, -k) is the complex conjugate of Y(l, k),
* colatitude quadrature is Gauss-Legendre in u = cos(theta), longitude
  quadrature is the uniform trapezoid rule (exact for trigonometric
  polynomials below the node count).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def coef_index(l, k):
    """Flat index of the harmonic (l, k) in a dense table: l*l + l + k."""
    return l * l + l + k


def legendre_P_all(l_max, t):
    """All P_l(t) for l = 0..l_max, stacked along the first axis."""
    t = np.asarray(t, dtype=float)
    P = np.empty((l_max + 1,) + t.shape)
    P[0] = 1.0
    if l_max >= 1:
        P[1] = t
    for n in range(1, l_max):
        P[n + 1] = ((2 * n + 1) * t * P[n] - n * P[n - 1]) / (n + 1)
    return P


def normalized_assoc_column(k, t, l_max):
    """Q_l^k(t) for l = k..l_max where Q_l^k = sqrt((2l+1)(l-k)!/(4 pi (l+k)!)) P_l^k.

    Fully normalized recurrence; stable for degrees in the thousands.
    Returns an array of shape (l_max - k + 1,) + t.shape.
    """
    t = np.asarray(t, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    out = np.empty((l_max - k + 1,) + t.shape)
    qkk = np.full_like(t, np.sqrt(1.0 / (4.0 * np.pi)))
    for j in range(1, k + 1):
        qkk = -qkk * np.sqrt((2 * j + 1) / (2.0 * j)) * s
    out[0] = qkk
    if l_max == k:
        return out
    out[1] = np.sqrt(2 * k + 3.0) * t * qkk
    for l in range(k + 2, l_max + 1):
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - k * k))
        b = np.sqrt((2 * l + 1.0) * (l - 1 + k) * (l - 1 - k)
                    / ((2 * l - 3.0) * (l * l - k * k)))
        out[l - k] = a * t * out[l - k - 1] - b * out[l - k - 2]
    return out


def degree_orders(l_band):
    """Degree l and order m of every index l*l + l + m of the flat layout."""
    l_of = np.repeat(np.arange(l_band + 1), 2 * np.arange(l_band + 1) + 1)
    return l_of, np.arange((l_band + 1) ** 2) - l_of * (l_of + 1)


def legendre_rows(t, l_band):
    """(-1)^|m| Q_l^|m|(t) at flat index l*l + l + m, |m| <= l <= l_band.

    Times exp(i m phi), row l*l + l + m is Y_l^m.  Shape
    ((l_band+1)^2,) + t.shape.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(((l_band + 1) ** 2,) + t.shape)
    for m in range(l_band + 1):
        col = (-1.0) ** m * normalized_assoc_column(m, t, l_band)
        l = np.arange(m, l_band + 1)
        out[coef_index(l, m)] = col
        out[coef_index(l, -m)] = col
    return out


@lru_cache(maxsize=8)
def _colat_rows(n_theta, l_band):
    """legendre_rows at the cosines of make_colat_grid(n_theta), the
    colatitudes of every signal.  Cached per (n_theta, l_band), read-only."""
    rows = legendre_rows(make_colat_grid(n_theta).cos_nodes, l_band)
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class ColatGrid:
    """Gauss-Legendre colatitude rule: nodes increasing in (0, pi), weights sum to 2."""
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def cos_nodes(self):
        return np.cos(self.nodes)


@lru_cache(maxsize=64)
def make_colat_grid(n):
    """Gauss-Legendre nodes/weights in u = cos(theta), mapped to colatitudes.

    Cached per n; the shared arrays are read-only.
    """
    if n < 1:
        raise ValueError("need at least one node")
    u, w = np.polynomial.legendre.leggauss(n)
    # u ascending means theta descending; flip so nodes increase
    nodes, weights = np.arccos(u)[::-1].copy(), w[::-1].copy()
    nodes.flags.writeable = weights.flags.writeable = False
    return ColatGrid(nodes=nodes, weights=weights)


@dataclass
class SphericalGridSpec:
    """Band limit plus node counts of the analysis grid."""
    l_band: int
    n_theta: int
    n_phi: int

    def __post_init__(self):
        if not 0 <= self.l_band < self.n_theta:
            raise ValueError("band limit l_band must lie in [0, n_theta)")
        if self.n_phi < 2 * self.l_band + 1:
            raise ValueError("n_phi must be at least 2 l_band + 1")


def default_grid_spec(l_band):
    return SphericalGridSpec(l_band, l_band + 1, 2 * l_band + 1)


def grid_phis(spec):
    """Uniform longitudes of the analysis grid."""
    return 2.0 * np.pi * np.arange(spec.n_phi) / spec.n_phi


@dataclass
class SphericalSignal:
    """Samples on the spec's Gauss-Legendre x uniform grid, theta-major."""
    values: np.ndarray
    spec: SphericalGridSpec

    def __post_init__(self):
        if self.values.shape != (self.spec.n_theta, self.spec.n_phi):
            raise ValueError("sample array does not match the grid spec")

    @property
    def colat(self):
        return make_colat_grid(self.spec.n_theta)

    @property
    def thetas(self):
        return self.colat.nodes

    @property
    def phis(self):
        return grid_phis(self.spec)

    def norm_sq(self):
        """Quadrature of |f|^2 over the sphere (unnormalized measure)."""
        w_phi = 2.0 * np.pi / self.spec.n_phi
        return float(np.sum(self.colat.weights
                            * np.sum(np.abs(self.values) ** 2, axis=1)) * w_phi)


@dataclass
class CoefficientTable:
    """Dense complex Fourier coefficients, flat layout l*l + l + k."""
    l_band: int
    values: np.ndarray = None

    def __post_init__(self):
        if self.l_band < 0:
            raise ValueError("band limit l_band must be nonnegative")
        n = (self.l_band + 1) ** 2
        if self.values is None:
            self.values = np.zeros(n, dtype=complex)
        elif self.values.shape != (n,):
            raise ValueError("coefficient array has the wrong length")

    def get(self, l, k):
        if abs(k) > l or l > self.l_band:
            raise IndexError("harmonic index out of range")
        return self.values[coef_index(l, k)]

    def set(self, l, k, value):
        if abs(k) > l or l > self.l_band:
            raise IndexError("harmonic index out of range")
        self.values[coef_index(l, k)] = value

    def degree_block(self, l):
        """View of the coefficients of degree l, order k = -l..l."""
        return self.values[l * l:(l + 1) * (l + 1)]

    def norm_sq(self):
        return float(np.sum(np.abs(self.values) ** 2))

    def copy(self):
        return CoefficientTable(self.l_band, self.values.copy())


def analyze_signal(f, l_band=None):
    """Project a gridded signal onto the harmonics up to l_band.

    Separable quadrature: FFT in longitude, weighted Gauss sum in
    colatitude. Exact for signals band-limited within the grid spec.
    """
    if l_band is None:
        l_band = f.spec.l_band
    if f.spec.n_theta < l_band + 1 or f.spec.n_phi < 2 * l_band + 1:
        raise ValueError("grid under-resolves the requested band limit")
    n_phi = f.spec.n_phi
    g = np.fft.fft(f.values, axis=1) * (2.0 * np.pi / n_phi)
    _, m_of = degree_orders(l_band)
    rows = _colat_rows(f.spec.n_theta, l_band) * f.colat.weights
    return CoefficientTable(l_band, np.sum(rows * g[:, m_of % n_phi].T,
                                           axis=1))


def synthesize_signal(table, spec):
    """Evaluate the harmonic series of a coefficient table on a grid."""
    if spec.l_band < table.l_band:
        raise ValueError("grid spec band limit below the table band limit")
    l_band = table.l_band
    rows = _colat_rows(spec.n_theta, l_band)
    # s[i, m] = sum_l coef(l, m) (-1)^|m| Q_l^|m|(theta_i), one degree at a
    # time (orders -l..l): each sum in l order, one degree's terms held
    acc = np.zeros((2 * l_band + 1, spec.n_theta), dtype=complex)
    for l in range(l_band + 1):
        block = slice(l * l, (l + 1) ** 2)
        acc[l_band - l:l_band + l + 1] += (table.values[block, None]
                                           * rows[block])
    s = np.zeros((spec.n_theta, spec.n_phi), dtype=complex)
    s[:, np.arange(-l_band, l_band + 1) % spec.n_phi] = acc.T
    values = np.fft.ifft(s, axis=1) * spec.n_phi
    return SphericalSignal(values=values, spec=spec)
