"""Adaptive angular selectivity: pick the best tau per scale and position.

The selection rule is a matched filter: over a finite selectivity set T
and the grid's axial angles, maximize the correlation of the rotated
kernel with the signal over the kernel's norm, the Cauchy-Schwarz
coefficient up to the factor ||f||, so a planted kernel is recovered
exactly at its own (tau, phi1); dividing by the squared norm would bias
the argmax toward sharp kernels, whose norm shrinks like 1/sqrt(tau).
Only odd axial orders occur, so on angles closed under the half-turn phi1
is reported in [0, pi), the smaller of two equal scores.  The grid is the
caller's, and the band limit L sets how fine it must be: coefficients on a
grid with fewer than (L+1)^2 carriers, or fewer axial angles than the odd
orders in use up to L need, are under_resolved.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .sphfn import analyze_signal
from .profiles import (_check_tau, _weight_rows, _window_norm_sq,
                       matched_weights, profile_norm_sq)
from .transform import _coefficients, _plan

DEFAULT_TAUS = (1.0, 2.0, 4.0, 8.0, 16.0)
TAU_CAP = 16.0
TIE_MARGIN = 1e-12


@dataclass(frozen=True)
class SelectivitySet:
    """Finite increasing set of candidate selectivities, capped above."""

    taus: tuple = DEFAULT_TAUS
    tau_cap: float = TAU_CAP

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        object.__setattr__(self, "taus", taus)
        if not taus:
            raise ValueError("selectivity set must be nonempty")
        for tau in taus + (self.tau_cap,):
            _check_tau(tau)
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("selectivities must be strictly increasing")
        if taus[-1] > self.tau_cap:
            raise ValueError("selectivities must not exceed the cap")

    def __iter__(self):
        return iter(self.taus)

    def __len__(self):
        return len(self.taus)


@dataclass
class SelectivityMap:
    """Chosen (tau, axial angle, correlation value) per scale and carrier."""

    family: str
    tau_star: np.ndarray    # (n_scales, n_carriers)
    phi1_star: np.ndarray
    value: np.ndarray
    grid: object
    scales: object

    def rows(self):
        """(j, carrier, theta2, phi2, tau, phi1, value) rows of Python
        numbers, built from whole columns."""
        (n_j, n_c), cells = self.tau_star.shape, self.grid.cells
        return zip(np.repeat(np.arange(n_j), n_c).tolist(),
                   list(range(n_c)) * n_j,
                   *(np.tile(x, n_j).tolist() for x in (cells.theta,
                                                        cells.phi)),
                   *(x.ravel().tolist() for x in (self.tau_star,
                                                  self.phi1_star, self.value)))


def _pick(values, taus, angles, tol):
    """Per cell of a [cell, (tau, angle)] landscape, the first candidate in
    (tau asc, angle asc) order whose value is within tol of the cell's
    maximum: (taus, angles, values), one entry per cell."""
    first = np.argmax(values >= values.max(axis=1, keepdims=True) - tol,
                      axis=1)
    it, ia = np.divmod(first, len(angles))
    return (np.asarray(taus)[it], np.asarray(angles)[ia],
            values[np.arange(len(first)), first])


def _scan(f, scales, grid, tsel, family, at=None):
    """select_tau's picks (tau, phi1, value) per (scale, cell), or at = (j,
    carrier) of scale j at that carrier, with their kept tau-free rows
    d[j, c, k] and the band operator of all scales.  Only odd k occur and
    e^{ik(psi + pi)} = -e^{ik psi}, so on make_so3_grid's even lattices the
    first half of the angles, where ties break, gives every pick."""
    if at is not None:
        for name, i, n in zip(("scale", "carrier"), at,
                              (len(scales), grid.n_carriers)):
            if not isinstance(i, Integral) or i not in range(n):
                raise ValueError("no %s %r in [0, %d)" % (name, i, n))
    table, taus = analyze_signal(f), tuple(tsel)
    tol = TIE_MARGIN * np.sqrt(table.norm_sq())
    plan = _plan(table.l_band, grid, family, scales)
    d, picked = plan.correlations(table.values), scales
    if at is not None:
        d, picked = d[at[0]:at[0] + 1, at[1]:at[1] + 1], (scales[at[0]],)
    n = len(grid.axial_angles)      # halved on an even lattice: see above
    n //= 2 if n % 2 == 0 and np.array_equal(
        grid.axial_angles, np.arange(n) * (2.0 * np.pi / n)) else 1
    out = np.empty((3,) + d.shape[:2])
    for j, w in enumerate(matched_weights(family, picked, taus, plan.ks)):
        # the axial phases times each tau's weights, [k, (tau, angle)]: one
        # product with it scores a block of cells, 2^14 values at most (the
        # whole grid's 2.6 MB at L = 16 took fresh pages on every call)
        factor = (w.T[:, :, None] * plan.axial_phase[:, None, :n]).reshape(
            len(w.T), len(taus) * n)
        step = max(1, 2 ** 14 // factor.shape[1])
        for a in range(0, d.shape[1], step):
            out[:, j, a:a + step] = _pick(np.abs(d[j, a:a + step] @ factor),
                                          taus, grid.axial_angles[:n], tol)
    return out, d, plan


def select_tau(f, scales, j, alpha2, tsel, grid, family="omega"):
    """Best (tau, axial angle) for one carrier by exhaustive search.

    Maximizes |<rotated kernel, f>| / ||kernel|| over the selectivity
    set and the grid's axial angles.  Values within TIE_MARGIN * ||f|| of
    the maximum tie and go to the smaller tau, then angle: phi1 + pi ties
    phi1, so on angles closed under the half-turn phi1 lies in [0, pi).
    """
    out = _scan(f, scales, grid, tsel, family, (j, alpha2))[0][:, 0, 0]
    return float(out[0]), out[1], out[2]


def selectivity_scan(f, scales, grid, tsel, family="omega"):
    """SelectivityMap over every (scale, carrier), by blocks of cells."""
    return SelectivityMap(family, *_scan(f, scales, grid, tsel, family)[0],
                          grid, scales)


def refine_tau(f, scales, j, alpha2, tsel, grid, family="omega",
               tol=1e-4):
    """Golden-section sweetening of the discrete winner over [1, cap].

    Keeps the winning axial angle fixed and searches the bracket between
    the discrete winner's neighbors in the set (1 and the cap at its ends)
    to a width of tol * max(1, tau), tol > 0.  The carrier's kept tau-free
    correlations, phased at that angle once, give each score |sum_k v_k
    w_k(tau)| / ||Psi_tau|| in O(k) array work; f is analyzed once.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive, got %r" % (tol,))
    out, d, plan = _scan(f, scales, grid, tsel, family, (j, alpha2))
    taus, (tau0, phi1), ks = tuple(tsel), out[:2, 0, 0], plan.ks
    i0 = taus.index(tau0)
    a = taus[i0 - 1] if i0 > 0 else 1.0
    b = taus[i0 + 1] if i0 + 1 < len(taus) else tsel.tau_cap
    v = d[0, 0] * np.exp(1j * phi1 * ks)
    norm = profile_norm_sq(family, scales[j])   # matched_weights at one tau

    def score(tau):
        w = _weight_rows(tau, ks) / np.sqrt(norm * _window_norm_sq(tau))
        return abs(v @ w)

    gr = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = score(c), score(d)
    for _ in range(60):
        if b - a < tol * max(1.0, a):
            break
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = score(d)
        else:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = score(c)
    tau = 0.5 * (a + b)
    return tau, phi1, float(score(tau))


def adaptive_analysis(f, scales, grid, tsel, family="omega"):
    """Select tau per (scale, carrier), then transform with those kernels:
    the scan's own tau-free correlations, weighted at the picked taus."""
    out, d, plan = _scan(f, scales, grid, tsel, family)
    smap = SelectivityMap(family, *out, grid, scales)
    return smap, _coefficients(plan, d, list(smap.tau_star.copy()))

