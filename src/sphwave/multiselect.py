"""Adaptive angular selectivity: pick the best tau per scale and position.

The selection rule is a matched filter: over a finite selectivity set T
and the grid's axial angles, maximize the correlation of the rotated
kernel with the signal divided by the kernel's norm.  That quotient is
the Cauchy-Schwarz correlation coefficient up to the fixed factor
||f||, so a planted kernel is recovered exactly at its own (tau, phi1);
normalizing by the squared norm instead would bias the argmax toward
sharp kernels, whose norm shrinks like 1/sqrt(tau).  The grid is the
caller's, and the band limit L sets how fine it must be: forward_transform
flags a grid with fewer than (L+1)^2 carriers, or fewer axial angles than
the odd orders in use up to L need, as under_resolved.
"""

from dataclasses import dataclass

import numpy as np

from .sphfn import analyze_signal
from .profiles import WaveletSpec, _check_tau, wavelet_norm_sq
from .transform import BandPlan, forward_transform

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
        """(j, carrier, theta2, phi2, tau, phi1, value) rows."""
        for j in range(self.tau_star.shape[0]):
            for a, cell in enumerate(self.grid.cells):
                yield (j, a, cell.theta, cell.phi, self.tau_star[j, a],
                       self.phi1_star[j, a], self.value[j, a])


def _pick(values, taus, angles, tol):
    """Per cell of a (tau, cell, angle) landscape, the first candidate in
    (tau asc, angle asc) order whose value is within tol of the cell's
    maximum: (taus, angles, values), one entry per cell."""
    flat = np.moveaxis(values, 1, 0).reshape(values.shape[1], -1)
    first = np.argmax(flat >= flat.max(axis=1, keepdims=True) - tol, axis=1)
    it, ia = np.divmod(first, values.shape[2])
    return (np.asarray(taus)[it], np.asarray(angles)[ia],
            flat[np.arange(len(first)), first])


def _norm_weights(w, family, rho, taus):
    """Window weight rows w, one per tau, over each kernel's norm."""
    return w / np.sqrt([wavelet_norm_sq(WaveletSpec(family, rho, t))
                        for t in taus])[:, None]


def _band_landscape(axial, d, w):
    """|(d w_tau) @ axial| per (tau, ..., angle), w from _norm_weights."""
    return np.abs((d * w[..., None, :]) @ axial)


def _carrier_pick(f, scales, j, alpha2, tsel, grid, family):
    """select_tau's pick for one carrier, its correlation row and plan."""
    table = analyze_signal(f)
    plan = BandPlan(table.l_band, grid, family, (scales[j],))
    corr = plan.correlate(table.values, alpha2)[0]
    taus = tuple(tsel)
    w = _norm_weights(plan.weights(taus), family, scales[j], taus)
    tau, phi1, value = _pick(_band_landscape(plan.axial_phase, corr, w), taus,
                             grid.axial_angles,
                             TIE_MARGIN * np.sqrt(table.norm_sq()))
    return float(tau[0]), phi1[0], value[0], corr, plan


def select_tau(f, scales, j, alpha2, tsel, grid, family="omega"):
    """Best (tau, axial angle) for one carrier by exhaustive search.

    Maximizes |<rotated kernel, f>| / ||kernel|| over the selectivity
    set and the grid's axial angles.  Values within TIE_MARGIN * ||f||
    of the maximum tie, and ties break toward the smaller tau, then the
    smaller angle.
    """
    return _carrier_pick(f, scales, j, alpha2, tsel, grid, family)[:3]


def selectivity_scan(f, scales, grid, tsel, family="omega"):
    """SelectivityMap over every (scale, carrier), batched per band."""
    table = analyze_signal(f)
    taus = tuple(tsel)
    tol = TIE_MARGIN * np.sqrt(table.norm_sq())
    out = np.empty((3, len(scales), grid.n_carriers))
    plan = BandPlan(table.l_band, grid, family, scales)
    w = plan.weights(taus)
    w = [_norm_weights(w, family, rho, taus) for rho in scales]
    d = plan.correlate(table.values)
    for _, idx, _, _ in grid.bands:
        for j, w_j in enumerate(w):
            land = _band_landscape(plan.axial_phase, d[j, idx], w_j)
            out[:, j, idx] = _pick(land, taus, grid.axial_angles, tol)
    return SelectivityMap(family, *out, grid, scales)


def refine_tau(f, scales, j, alpha2, tsel, grid, family="omega",
               tol=1e-4):
    """Golden-section sweetening of the discrete winner over [1, cap].

    Keeps the winning axial angle fixed and searches the continuous
    bracket between the discrete winner's neighbors in the set.  Each
    score reweights the carrier's tau-free correlation from the discrete
    pick, O(k) work, so f is analyzed once.
    """
    tau0, phi1, _, corr, plan = _carrier_pick(f, scales, j, alpha2, tsel,
                                              grid, family)
    taus = tuple(tsel)
    i0 = taus.index(tau0)
    lo = taus[i0 - 1] if i0 > 0 else max(1.0, taus[0])
    hi = taus[i0 + 1] if i0 + 1 < len(taus) else tsel.tau_cap
    axial = np.exp(1j * np.outer(plan.ks, [phi1]))

    def score(tau):
        w = _norm_weights(plan.weights((tau,)), family, scales[j],
                          (tau,))
        return float(_band_landscape(axial, corr, w)[0, 0, 0])

    gr = 0.5 * (np.sqrt(5.0) - 1.0)
    a, b = lo, hi
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
    return tau, phi1, score(tau)


def adaptive_analysis(f, scales, grid, tsel, family="omega"):
    """Select tau per (scale, carrier), then transform with those kernels."""
    smap = selectivity_scan(f, scales, grid, tsel, family)
    specs = tuple(
        tuple(WaveletSpec(family, rho, smap.tau_star[j, a])
              for a in range(grid.n_carriers))
        for j, rho in enumerate(scales))
    coeffs = forward_transform(f, specs, grid, scales)
    return smap, coeffs

