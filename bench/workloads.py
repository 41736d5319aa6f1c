"""The three benchmark workloads: inputs from a seed, one op, its gate.

Each workload object offers
  * setup()              - the cold work that precedes the first op,
  * next_input()         - the next seeded input, built outside the op,
  * cold_probe(inp)      - traced runs only: isolate a cold layer cost,
  * op(inp, cold, clock) - the operation, timed in clock.section()s;
                           returns its outputs,
  * check(out)           - the output gate: (ok, accuracy values, reason),
  * probe(out)           - traced runs only: time single layers after an
                           op; returns recorded accuracy values,
  * done(out)            - release what the op left behind,
  * counts()             - work sizes computed from array shapes,
  * peak_rss_mb()        - the peak resident set the workload is charged.
Every span names the sphwave module whose public function it wraps.
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from sphwave.admissibility import (admissibility_report,
                                   wavelet_coefficient_table)
from sphwave.fileio import (read_coefficients, read_selectivity_rows,
                            read_signal, write_coefficients)
from sphwave.multiselect import (SelectivitySet, refine_tau, select_tau,
                                 selectivity_scan)
from sphwave.profiles import WaveletSpec, wavelet_norm_sq
from sphwave.so3 import make_rotation, make_scale_sequence, make_so3_grid
from sphwave.sphfn import (CoefficientTable, analyze_signal,
                           default_grid_spec, synthesize_signal)
from sphwave import transform
from sphwave.transform import (FrameOperatorConfig, adjoint_transform,
                               forward_transform, frame_apply, reconstruct,
                               rotate_coefficients, uniform_specs)

CLI_TIMEOUT_S = 170


def _rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class _Workload:
    has_cold_op = True
    min_ops = 1        # warm ops per window, however long they take

    def __init__(self, seed, smoke, tracer, work_dir):
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke
        self.tr = tracer
        self.work_dir = work_dir

    def _grid(self, delta2, delta1):
        with self.tr.span("so3.grid"):
            self.grid = make_so3_grid(delta2, delta1)

    def cold_probe(self, inp):
        pass

    def probe(self, out):
        return {}

    def done(self, out):
        pass

    def counts(self):
        grid, l_band = self.grid, self.l_band
        # the dense frame matrix exists while the library still builds one
        dense_frame = hasattr(transform, "frame_matrix")
        bands = len({c.theta for c in grid.cells})
        blocks = sum((2 * l + 1) ** 2 for l in range(l_band + 1))
        return {"so3.carriers": grid.n_carriers,
                "so3.bands": bands,
                "so3.axial": len(grid.axial_angles),
                "transform.coefficients": (grid.n_carriers
                                           * len(grid.axial_angles)
                                           * len(self.scales)),
                "transform.frame_matrix_bytes":
                    (l_band + 1) ** 4 * 16 if dense_frame else 0,
                "transform.tilt_block_bytes": bands * blocks * 16}

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class UniformRoundtrip(_Workload):
    """synthesize -> forward -> reconstruct at one selectivity per scale.

    Degree 0 is zeroed (kernels have no mean); degree 1 is kept, so the
    upsilon probe shows that family's degree-1 loss.
    """

    name = "uniform_roundtrip"
    TAU = 4.0
    GATE = 1e-8

    def __init__(self, seed, smoke, tracer, work_dir):
        super().__init__(seed, smoke, tracer, work_dir)
        self.l_band = 6 if smoke else 16
        self.delta = 0.5 if smoke else 0.2
        self.scales = make_scale_sequence(1.0, 0.5, 1 if smoke else 2)
        self.specs = uniform_specs("omega", self.TAU, self.scales)
        self.gspec = default_grid_spec(self.l_band)

    def setup(self):
        self._grid(self.delta, self.delta)
        if self.tr.enabled:
            with self.tr.span("admissibility.coef_table_cold"):
                for spec in self.specs:
                    wavelet_coefficient_table(spec, self.l_band)

    def next_input(self):
        n = (self.l_band + 1) ** 2
        vec = self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)
        vec[0] = 0.0
        return CoefficientTable(self.l_band, vec)

    def op(self, table, cold, clock):
        tr = self.tr
        fwd = "transform.forward_cold" if cold else "transform.forward_warm"
        with clock.section():
            with tr.span("sphfn.synthesize"):
                f = synthesize_signal(table, self.gspec)
            with tr.span(fwd):
                coeffs = forward_transform(f, self.specs, self.grid,
                                           self.scales)
            with tr.span("transform.reconstruct"):
                rec = reconstruct(coeffs)
        return f, coeffs, rec

    def check(self, out):
        f, coeffs, rec = out
        err = _rel_err(rec.values, f.values)
        ok = err <= self.GATE
        reason = None if ok else "round-trip error %.3e" % err
        return ok, {"transform.roundtrip_err": err}, reason

    def probe(self, out):
        f, coeffs, _ = out
        tr = self.tr
        with tr.span("sphfn.analyze"):
            analyze_signal(f)
        with tr.span("transform.adjoint"):
            adjoint_transform(coeffs)
        with tr.span("transform.frame_apply"):
            frame_apply(f, self.specs, self.grid, self.scales)
        # known defect, recorded and not gated: upsilon drops degree 1
        specs = uniform_specs("upsilon", self.TAU, self.scales)
        with tr.span("transform.upsilon_roundtrip"):
            rec = reconstruct(forward_transform(f, specs, self.grid,
                                                self.scales))
        return {"transform.roundtrip_err_upsilon":
                _rel_err(rec.values, f.values)}


class AdaptiveSelect(_Workload):
    """Planted broad and sharp kernels -> scan -> refine -> adaptive frame.

    Two omega kernels (tau 1 and tau 8, rho 1, unit energy) sit at seeded
    carriers at least 90 degrees apart, with seeded axial angles below pi:
    the kernels carry only odd axial orders, so phi1 and phi1 + pi score
    the same and the map reports the smaller.

    The gate does not ask for the planted (tau, phi1) back.  At rho 1 the
    broad kernel's filter response is at least two thirds of the sharp
    kernel's self-score everywhere on the sphere, so what the map picks at
    either carrier depends on how the two features interfere (recorded as
    planted_exact).  It asks instead that the batched scan agree with the
    single-carrier search and with refine_tau, and that the adaptive frame
    return the signal.
    """

    name = "adaptive_select"
    TAUS = (1.0, 8.0)
    MIN_SEPARATION = 0.5 * np.pi
    GATE = 1e-6
    # The solver stops on the unpreconditioned residual, and on the
    # adaptive frame the error at degree 16 is about 1e6 times that
    # residual; 1e-14 leaves the 1e-6 gate two orders of margin.  Each
    # relaxed step is one small matrix-vector product.
    SOLVE = FrameOperatorConfig(max_iterations=100000, tolerance=1e-14)

    def __init__(self, seed, smoke, tracer, work_dir):
        super().__init__(seed, smoke, tracer, work_dir)
        self.l_band = 12 if smoke else 16
        self.delta2 = 0.4 if smoke else 0.2
        self.scales = make_scale_sequence(1.0, 0.5, 1)
        self.tsel = SelectivitySet()
        self.gspec = default_grid_spec(self.l_band)

    def setup(self):
        self._grid(self.delta2, 0.2)
        cells = self.grid.cells
        th = np.array([c.theta for c in cells])
        ph = np.array([c.phi for c in cells])
        self.xyz = np.stack([np.sin(th) * np.cos(ph),
                             np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
        if self.tr.enabled:
            with self.tr.span("admissibility.coef_table_cold"):
                for rho in self.scales:
                    for tau in self.tsel:
                        wavelet_coefficient_table(
                            WaveletSpec("omega", rho, tau), self.l_band)

    def _plant(self, tau, carrier, phi1):
        spec = WaveletSpec("omega", 1.0, tau)
        cell = self.grid.cells[carrier]
        table = rotate_coefficients(
            wavelet_coefficient_table(spec, self.l_band),
            make_rotation(phi1, cell.theta, cell.phi))
        return table.values / np.sqrt(wavelet_norm_sq(spec))

    def next_input(self):
        rng = self.rng
        a = int(rng.integers(self.grid.n_carriers))
        far = np.flatnonzero(self.xyz @ self.xyz[a]
                             <= np.cos(self.MIN_SEPARATION))
        b = int(rng.choice(far))
        half = len(self.grid.axial_angles) // 2
        pa, pb = (float(self.grid.axial_angles[i])
                  for i in rng.integers(half, size=2))
        values = (self._plant(self.TAUS[0], a, pa)
                  + self._plant(self.TAUS[1], b, pb))
        f = synthesize_signal(CoefficientTable(self.l_band, values),
                              self.gspec)
        return f, (a, pa), (b, pb)

    def cold_probe(self, inp):
        with self.tr.span("transform.forward_cold"):
            forward_transform(inp[0], uniform_specs("omega", 1.0, self.scales),
                              self.grid, self.scales)

    def op(self, inp, cold, clock):
        f, (a, _), (b, _) = inp
        tr, scales, grid, tsel = self.tr, self.scales, self.grid, self.tsel
        # three sections: the op is long enough for machine speed to drift
        with clock.section(), tr.span("multiselect.scan"):
            smap = selectivity_scan(f, scales, grid, tsel)
        with clock.section(), tr.span("multiselect.refine"):
            refined = [refine_tau(f, scales, 0, c, tsel, grid)
                       for c in (a, b)]
        with clock.section():
            specs = tuple(
                tuple(WaveletSpec("omega", rho, smap.tau_star[j, c])
                      for c in range(grid.n_carriers))
                for j, rho in enumerate(scales))
            with tr.span("multiselect.adaptive_forward"):
                coeffs = forward_transform(f, specs, grid, scales)
            with tr.span("transform.reconstruct_adaptive"):
                rec = reconstruct(coeffs, self.SOLVE)
        return inp, smap, refined, rec

    def check(self, out):
        (f, (a, pa), (b, pb)), smap, refined, rec = out
        err = _rel_err(rec.values, f.values)
        exact = int(sum([smap.tau_star[0, a] == self.TAUS[0],
                         smap.phi1_star[0, a] == pa,
                         smap.tau_star[0, b] == self.TAUS[1],
                         smap.phi1_star[0, b] == pb]))
        acc = {"multiselect.adaptive_roundtrip_err": err,
               "multiselect.planted_exact": exact,
               "multiselect.refined_taus": [r[0] for r in refined]}
        reasons = []
        for c, ref in zip((a, b), refined):
            got = (smap.tau_star[0, c], smap.phi1_star[0, c])
            want = select_tau(f, self.scales, 0, c, self.tsel, self.grid)[:2]
            if got != want or ref[1] != got[1]:
                reasons.append(
                    "carrier %d: map (tau, phi1) %s, select_tau %s, "
                    "refine_tau phi1 %.4f" % (c, got, want, ref[1]))
        if not err <= self.GATE:
            reasons.append("adaptive round-trip error %.3e" % err)
        return not reasons, acc, "; ".join(reasons) or None

    def probe(self, out):
        with self.tr.span("profiles.norm_sq"):
            wavelet_norm_sq(WaveletSpec("omega", 1.0, self.TAUS[1]))
        return {}

    def counts(self):
        out = super().counts()
        # computed: one full-norm quadrature per (band, scale, tau) in the
        # scan; refine_tau's own evaluations are not counted
        out["multiselect.norm_evals"] = (out["so3.bands"] * len(self.scales)
                                         * len(self.tsel))
        return out


class CliCold(_Workload):
    """One fresh `sphwave` process per pipeline step, data through files."""

    name = "cli_cold"
    # every op is cold by design; set-up is interpreter start plus import
    has_cold_op = False
    # one op outlasts the window; a second halves the noise of op_p50_s
    min_ops = 2

    def __init__(self, seed, smoke, tracer, work_dir):
        super().__init__(seed, smoke, tracer, work_dir)
        self.l_band = 6 if smoke else 12
        self.grid_flags = (["--delta2", "0.5", "--delta1", "0.5"]
                           if smoke else [])
        self.l_max = 16 if smoke else 64
        # analyze runs at the CLI's default scales (--rho0 1 --q 0.5 --j-max 2)
        self.scales = make_scale_sequence(1.0, 0.5, 2)
        self.coeff_bytes = 0

    def setup(self):
        delta = 0.5 if self.smoke else 0.2   # the CLI's default grid flags
        self._grid(delta, delta)

    def next_input(self):
        rng = self.rng
        return {"theta": rng.uniform(0.4, np.pi - 0.4),
                "phi": rng.uniform(0.0, 2.0 * np.pi),
                "orientation": rng.uniform(0.0, np.pi)}

    def cold_probe(self, inp):
        with self.tr.span("admissibility.verify"):
            admissibility_report("omega", 2.0, self.l_max)

    def steps(self, inp):
        g = self.grid_flags
        return [
            ("synthesize", ["synthesize", "--preset", "two-ridges",
                            "--l-band", str(self.l_band),
                            "--theta", repr(inp["theta"]),
                            "--phi", repr(inp["phi"]),
                            "--orientation", repr(inp["orientation"]),
                            "--out", "f.sig"]),
            ("analyze", ["analyze", "--in", "f.sig", "--out", "f.wav"] + g),
            ("reconstruct", ["reconstruct", "--in", "f.wav",
                             "--out", "rec.sig"]),
            ("select", ["select", "--in", "f.sig", "--j-max", "1",
                        "--out", "map.csv"] + g),
            ("verify", ["verify", "--family", "omega", "--tau", "2",
                        "--l-max", str(self.l_max)]),
        ]

    def run_step(self, name, argv, cwd, clock):
        # one section per child, since machine speed drifts within an op
        with clock.section(), self.tr.span("cli." + name):
            return subprocess.run(
                [sys.executable, "-m", "sphwave.cli"] + argv, cwd=cwd,
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

    def op(self, inp, cold, clock):
        cwd = tempfile.mkdtemp(prefix="cli-", dir=self.work_dir)
        results = {}
        for name, argv in self.steps(inp):
            results[name] = self.run_step(name, argv, cwd, clock)
            if results[name].returncode != 0:
                break
        return cwd, results

    def check(self, out):
        cwd, results = out
        for name, proc in results.items():
            if proc.returncode != 0:
                return False, {}, "%s exited %d: %s" % (
                    name, proc.returncode, proc.stderr.strip()[-300:])
        f = read_signal(os.path.join(cwd, "f.sig"))
        rec = read_signal(os.path.join(cwd, "rec.sig"))
        err = _rel_err(rec.values, f.values)
        rows = read_selectivity_rows(os.path.join(cwd, "map.csv"))
        reasons = []
        if not err <= 1e-8:
            reasons.append("rec.sig differs from f.sig by %.3e" % err)
        if len(rows) != 2 * self.grid.n_carriers:
            reasons.append("map.csv has %d rows, expected %d"
                           % (len(rows), 2 * self.grid.n_carriers))
        if "verdict: PASS" not in results["verify"].stdout:
            reasons.append("verify did not print 'verdict: PASS'")
        return not reasons, {"cli.roundtrip_err": err}, "; ".join(
            reasons) or None

    def probe(self, out):
        cwd, _ = out
        path = os.path.join(cwd, "f.wav")
        self.coeff_bytes = os.path.getsize(path)
        with self.tr.span("fileio.read_coeffs"):
            coeffs = read_coefficients(path)
        with self.tr.span("fileio.write_coeffs"):
            write_coefficients(os.path.join(cwd, "copy.wav"), coeffs)
        return {}

    def done(self, out):
        shutil.rmtree(out[0], ignore_errors=True)

    def counts(self):
        out = super().counts()
        out["fileio.coeff_bytes"] = self.coeff_bytes
        return out

    def peak_rss_mb(self):
        return resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (UniformRoundtrip, AdaptiveSelect, CliCold)}
