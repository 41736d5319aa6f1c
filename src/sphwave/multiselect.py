"""Adaptive angular selectivity: pick the best tau per scale and position.

The selection rule is a matched filter: over a finite selectivity set T
and the grid's axial angles, maximize the correlation of the rotated
kernel with the signal divided by the kernel's norm.  That quotient is
the Cauchy-Schwarz correlation coefficient up to the fixed factor
||f||, so a planted kernel is recovered exactly at its own (tau, phi1);
normalizing by the squared norm instead would bias the argmax toward
sharp kernels, whose norm shrinks like 1/sqrt(tau).  The discretization
budget converts sup-norm estimates of the kernels into per-scale grid
density bounds so that the coefficient-set error stays below a target
fraction of the signal energy.
"""

from dataclasses import dataclass

import numpy as np

from .sphfn import analyze_signal, degree_orders
from .profiles import (WaveletSpec, _check_tau, _window_orders,
                       angular_window, angular_window_dphi, profile_dtheta,
                       profile_fn, wavelet_norm_sq, window_weights)
from .admissibility import _kernel_matrix
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
    cell = grid.cells[alpha2]
    plan = BandPlan(table.l_band, grid.axial_angles, family, (scales[j],))
    corr = plan.correlate(table.values, [(cell.theta, [0], [cell.phi], 0)])[0]
    taus = tuple(tsel)
    w = _norm_weights(plan.weights(np.asarray(taus)), family, scales[j], taus)
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
    plan = BandPlan(table.l_band, grid.axial_angles, family, scales)
    w = plan.weights(np.asarray(taus))
    w = [_norm_weights(w, family, rho, taus) for rho in scales]
    d = plan.correlate(table.values, grid.bands)
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
        w = _norm_weights(plan.weights(np.array([tau])), family, scales[j],
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


# ---------------------------------------------------------------------------
# sup norms and discretization budget

def estimate_sup_norms(spec, n_theta=None, n_phi=None):
    """Probe-lattice estimates of sup |Psi| and sup |surface grad Psi|.

    The kernel is a separable product, so sup |Psi| factorizes exactly;
    the gradient magnitude is scanned on an outer-product lattice.  The
    longitude density default resolves the fastest retained oscillation
    with at least 8 samples per period.
    """
    if n_phi is None:
        n_phi = max(256, 8 * int(_window_orders(spec.tau)[-1]))
    if n_theta is None:
        n_theta = max(512, int(np.ceil(64.0 / min(1.0, spec.rho))))
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    prof = profile_fn(spec.family)(spec.rho, theta)
    dprof = profile_dtheta(spec.family, spec.rho, theta)
    win = angular_window(spec.tau, phi)
    dwin = angular_window_dphi(spec.tau, phi)
    sup_psi = np.max(np.abs(prof)) * np.max(np.abs(win))
    # the lattice widens with tau: scan it in blocks of about 2^16 points
    step = max(1, 2 ** 16 // n_theta)
    prof_sin = prof / np.sin(theta)
    grad_sq = [np.max(np.outer(dprof, win[s:s + step]) ** 2
                      + np.outer(prof_sin, dwin[s:s + step]) ** 2)
               for s in range(0, n_phi, step)]
    return float(sup_psi), float(np.sqrt(np.max(grad_sq)))


@dataclass
class DiscretizationBudget:
    """Per-scale grid density bounds derived from kernel sup norms."""

    family: str
    target: float
    calibration: float
    taus: tuple               # probed selectivities, cap included last
    delta2: np.ndarray        # (n_scales,), worst case over the cap
    delta1: np.ndarray        # (n_scales, n_taus)
    sup_psi: np.ndarray       # (n_scales, n_taus)
    sup_grad: np.ndarray      # (n_scales, n_taus)

    def delta1_for(self, j, tau):
        return float(self.delta1[j, self.taus.index(float(tau))])

    def grid_deltas(self):
        """Single-grid fallback: tightest bounds over all scales."""
        return float(np.min(self.delta2)), float(np.min(self.delta1))


def budget_discretization(scales, tsel=None, target=0.5, calibration=1.0,
                          family="omega"):
    """Grid density bounds keeping the scale-j coefficient-set error
    below 2^{-j-1} * target * signal energy, split evenly between the
    positional part (worst case at the cap) and the axial part (per tau).
    """
    if target <= 0.0:
        raise ValueError("target error fraction must be positive")
    if calibration <= 0.0:
        raise ValueError("calibration scalar must be positive")
    if tsel is None:
        tsel = SelectivitySet()
    taus = tuple(tsel)
    if taus[-1] < tsel.tau_cap:
        taus = taus + (tsel.tau_cap,)
    n_j = len(scales)
    sup_psi = np.empty((n_j, len(taus)))
    sup_grad = np.empty((n_j, len(taus)))
    for j, rho in enumerate(scales):
        for it, tau in enumerate(taus):
            s, g = estimate_sup_norms(WaveletSpec(family, rho, tau))
            sup_psi[j, it] = s
            sup_grad[j, it] = g
    load = sup_psi * sup_grad
    budget = target * 2.0 ** (-np.arange(n_j) - 2) / calibration
    delta2 = np.minimum(np.pi, budget / load[:, -1])
    delta1 = np.minimum(np.pi, budget[:, None] / (4.0 * np.pi * load))
    return DiscretizationBudget(family, target, calibration, taus,
                                delta2, delta1, sup_psi, sup_grad)


def continuous_energy(table, family, tau, rho):
    """Rotation-integrated coefficient energy at one exact scale."""
    kern = (_kernel_matrix(family, float(rho), table.l_band)
            * window_weights(tau, table.l_band))
    l_of, _ = degree_orders(table.l_band)
    return float(np.sum(np.sum(kern ** 2, axis=1)[l_of]
                        * np.abs(table.values) ** 2 / (2.0 * (2 * l_of + 1))))


def calibrate_budget(f, scales, tsel=None, target=0.5, family="omega"):
    """Fit the budget's unknown constant against a measured error.

    Runs the worst-case analysis on a grid built from the unit-constant
    budget, measures the per-scale gap between the discrete energy and
    the exact rotation-integrated energy, and returns the constant that
    makes the promised bound coincide with the worst observed ratio (so
    re-measuring with the returned constant gives ratio 1 there).  For
    band-limited references the measured gap is often orders of
    magnitude below the sup-norm prediction; the constant reports that
    honestly, and grid resolution must then be policed separately via
    the under_resolved flag.
    """
    from .so3 import make_so3_grid

    if tsel is None:
        tsel = SelectivitySet()
    budget = budget_discretization(scales, tsel, target, 1.0, family)
    d2, d1 = budget.grid_deltas()
    grid = make_so3_grid(min(np.pi, d2), min(np.pi, d1))
    tau_cap = tsel.tau_cap
    table = analyze_signal(f)
    specs = tuple(WaveletSpec(family, rho, tau_cap) for rho in scales)
    coeffs = forward_transform(f, specs, grid, scales)
    energy = table.norm_sq()
    worst = 0.0
    for j, rho in enumerate(scales):
        discrete = float(np.sum(coeffs.weights(j)
                                * np.abs(coeffs.values[j]) ** 2))
        exact = scales.log_step * continuous_energy(table, family,
                                                    tau_cap, rho)
        promised = 2.0 ** (-j - 1) * target * energy
        worst = max(worst, abs(discrete - exact) / promised)
    # a gap at roundoff level carries no calibration information
    if worst <= 1e-12:
        return 1.0
    return float(worst)
