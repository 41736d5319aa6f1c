"""Command-line front end: kernel inspection, verification, analysis.

Commands write plot-ready CSV or the package's binary formats.  A JSON
config file (--config) supplies defaults; explicit flags win.  Exit
codes: 0 success, 1 numerical failure, 2 usage or format error.
"""

import argparse
import sys
from contextlib import nullcontext

import numpy as np

from .sphfn import (CoefficientTable, SphericalSignal, default_grid_spec,
                    grid_phis, make_colat_grid, synthesize_signal)
from .profiles import FAMILIES, WaveletSpec, angular_window, evaluate_wavelet
from .admissibility import admissibility_report, wavelet_coefficient_table
from .so3 import make_rotation, make_scale_sequence, make_so3_grid
from .transform import (FrameConvergenceError, FrameOperatorConfig,
                        forward_transform, reconstruct,
                        rotate_coefficients, uniform_specs)
from .multiselect import SelectivitySet, selectivity_scan
from .fileio import (FileFormatError, read_coefficients, read_signal,
                     write_coefficients, write_selectivity_csv, write_signal)


def tau_list(value):
    """Comma-separated selectivities as a list of floats."""
    return [float(part) for part in value.split(",") if part]


def _open_out(path):
    return nullcontext(sys.stdout) if path is None else open(path, "w")


def _require_out(args):
    if args.out is None:
        raise ValueError("this command writes a file and requires --out")


def cmd_profile(args):
    if not args.taus:
        raise ValueError("need at least one selectivity")
    if args.samples < 1:
        raise ValueError("need at least one sample")
    phi = np.linspace(-0.5 * np.pi, 1.5 * np.pi, args.samples)
    # angular_window checks each selectivity before anything is written
    cols = [angular_window(t, phi) for t in args.taus]
    with _open_out(args.out) as fh:
        fh.write("phi," + ",".join("f_%g" % t for t in args.taus) + "\n")
        for row in zip(phi, *cols):
            fh.write(",".join(map(repr, map(float, row))) + "\n")
    return 0


def cmd_kernel(args):
    spec = WaveletSpec(args.family, args.rho, args.tau)
    if args.format == "bin":
        _require_out(args)
        gspec = default_grid_spec(args.l_band)
        tt, pp = np.meshgrid(make_colat_grid(gspec.n_theta).nodes,
                             grid_phis(gspec), indexing="ij")
        values = evaluate_wavelet(spec, tt, pp)
        write_signal(args.out, SphericalSignal(values, gspec))
    else:
        theta = np.linspace(0.0, np.pi, args.n_theta)
        phi = np.linspace(-np.pi, np.pi, args.n_phi)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        values = evaluate_wavelet(spec, tt, pp)
        with _open_out(args.out) as fh:
            fh.write("theta,phi,value\n")
            for row in zip(tt.ravel(), pp.ravel(), values.ravel()):
                fh.write("%r,%r,%r\n" % tuple(map(float, row)))
    return 0


def cmd_verify(args):
    if args.l_max < 10:
        raise ValueError("verification needs l_max of at least 10")
    report = admissibility_report(args.family, args.tau, args.l_max)
    print("family %s  tau %g  nominal order %d  degrees 0..%d"
          % (report.family, report.tau, report.order, report.l_max))
    print("analytic upper bound   %.9e" % report.analytic_bound)
    print("max ratio G(l)/(2l+1)  %.9e" % report.upper_bound)
    print("min ratio above order  %.9e" % report.lower_bound)
    for l, res in enumerate(report.vanishing_residuals):
        print("vanishing residual G(%d) = %.3e" % (l, res))
    for note in report.failures:
        print("FAIL: " + note)
    print("verdict: " + ("PASS" if report.ok else "FAIL"))
    return 0 if report.ok else 1


def _preset_table(args):
    l_band = args.l_band
    table = CoefficientTable(l_band)
    if args.preset == "zonal-bump":
        for l in range(l_band + 1):
            table.set(l, 0, np.exp(-args.width * l * (l + 1)))
    elif args.preset == "ridge":
        base = wavelet_coefficient_table(
            WaveletSpec(args.family, args.rho, args.tau), l_band)
        g = make_rotation(args.orientation, args.theta, args.phi)
        table = rotate_coefficients(base, g)
    elif args.preset == "two-ridges":
        broad = rotate_coefficients(
            wavelet_coefficient_table(
                WaveletSpec(args.family, args.rho, args.tau_broad), l_band),
            make_rotation(args.orientation, args.theta, args.phi))
        sharp = rotate_coefficients(
            wavelet_coefficient_table(
                WaveletSpec(args.family, args.rho, args.tau_sharp), l_band),
            make_rotation(args.orientation, np.pi - args.theta,
                          args.phi + np.pi))
        table = CoefficientTable(l_band, broad.values + sharp.values)
    elif args.preset == "noise":
        rng = np.random.default_rng(args.seed)
        n = table.values.size
        table.values[:] = (rng.standard_normal(n)
                           + 1j * rng.standard_normal(n))
        for l in range(min(1, l_band) + 1):
            table.degree_block(l)[:] = 0.0
    else:
        raise ValueError("unknown preset %r" % args.preset)
    return table


def cmd_synthesize(args):
    _require_out(args)
    table = _preset_table(args)
    signal = synthesize_signal(table, default_grid_spec(args.l_band))
    write_signal(args.out, signal)
    return 0


def _scales_and_grid(args):
    scales = make_scale_sequence(args.rho0, args.q, args.j_max)
    grid = make_so3_grid(args.delta2, args.delta1)
    return scales, grid


def _warned(coeffs):
    if coeffs.under_resolved:
        print("warning: grid under-resolves the signal band; reconstruction "
              "from these coefficients will be degraded", file=sys.stderr)
    return coeffs


def cmd_analyze(args):
    _require_out(args)
    signal = read_signal(args.infile)
    scales, grid = _scales_and_grid(args)
    coeffs = forward_transform(
        signal, uniform_specs(args.family, args.tau, scales), grid, scales)
    write_coefficients(args.out, _warned(coeffs))
    return 0


def cmd_select(args):
    _require_out(args)
    signal = read_signal(args.infile)
    scales, grid = _scales_and_grid(args)
    tsel = SelectivitySet(tuple(args.taus), args.tau_cap)
    smap = selectivity_scan(signal, scales, grid, tsel, args.family)
    write_selectivity_csv(args.out, smap)
    return 0


def cmd_reconstruct(args):
    _require_out(args)
    coeffs = _warned(read_coefficients(args.infile))   # before the solve
    cfg = FrameOperatorConfig(max_iterations=args.max_iterations,
                              tolerance=args.tolerance)
    write_signal(args.out, reconstruct(coeffs, cfg))
    return 0


def _add_common(sub):
    sub.add_argument("--config", default=None,
                     help="JSON config supplying flag defaults")
    sub.add_argument("--out", default=None, help="output path")


def _add_grid_flags(sub):
    sub.add_argument("--family", choices=sorted(FAMILIES), default="omega")
    sub.add_argument("--rho0", type=float, default=1.0,
                     help="coarsest scale")
    sub.add_argument("--q", type=float, default=0.5,
                     help="dyadic scale ratio in (1/4, 1)")
    sub.add_argument("--j-max", type=int, default=2,
                     help="finest scale index")
    sub.add_argument("--delta2", type=float, default=0.2,
                     help="carrier cell diameter bound")
    sub.add_argument("--delta1", type=float, default=0.2,
                     help="axial angle step bound")


def build_parser(command=None):
    """The parser and its subcommand parsers by name.  Every subcommand is
    listed; only the named one (all when command is None) gets arguments."""
    parser = argparse.ArgumentParser(
        prog="sphwave",
        description="directional spherical wavelets with steerable "
                    "angular selectivity")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, text, func):
        sub = subs.add_parser(name, help=text)
        if command in (None, name):
            _add_common(sub)
            sub.set_defaults(func=func)
            return sub

    if sub := add("profile", "angular window curves as CSV", cmd_profile):
        sub.add_argument("--taus", type=tau_list, default="1,2,4,8,16",
                         help="comma-separated selectivities")
        sub.add_argument("--samples", type=int, default=513)

    if sub := add("kernel", "sample one kernel on a grid", cmd_kernel):
        sub.add_argument("--family", choices=sorted(FAMILIES), default="omega")
        sub.add_argument("--rho", type=float, default=0.5)
        sub.add_argument("--tau", type=float, default=1.0)
        sub.add_argument("--l-band", type=int, default=16,
                         help="band limit of the binary sampling grid")
        sub.add_argument("--n-theta", type=int, default=181)
        sub.add_argument("--n-phi", type=int, default=181)
        sub.add_argument("--format", choices=("csv", "bin"), default="csv")

    if sub := add("verify", "check the admissibility bounds", cmd_verify):
        sub.add_argument("--family", choices=sorted(FAMILIES), default="omega")
        sub.add_argument("--tau", type=float, default=1.0)
        sub.add_argument("--l-max", type=int, default=64)

    if sub := add("synthesize", "write a test signal", cmd_synthesize):
        sub.add_argument("--preset", required=True, choices=(
            "zonal-bump", "ridge", "two-ridges", "noise"))
        sub.add_argument("--l-band", type=int, default=16)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--width", type=float, default=0.05,
                         help="zonal bump falloff per l(l+1)")
        sub.add_argument("--family", choices=sorted(FAMILIES), default="omega")
        sub.add_argument("--rho", type=float, default=0.5,
                         help="ridge kernel scale")
        sub.add_argument("--tau", type=float, default=8.0,
                         help="ridge kernel selectivity")
        sub.add_argument("--theta", type=float, default=np.pi / 3,
                         help="ridge carrier colatitude")
        sub.add_argument("--phi", type=float, default=1.0,
                         help="ridge carrier longitude")
        sub.add_argument("--orientation", type=float, default=0.0,
                         help="ridge axial rotation")
        sub.add_argument("--tau-broad", type=float, default=1.0)
        sub.add_argument("--tau-sharp", type=float, default=8.0)

    if sub := add("analyze", "wavelet-analyze a signal file", cmd_analyze):
        sub.add_argument("--in", dest="infile", required=True)
        sub.add_argument("--tau", type=float, default=4.0,
                         help="uniform selectivity")
        _add_grid_flags(sub)

    if sub := add("select", "per-position selectivity map", cmd_select):
        sub.add_argument("--in", dest="infile", required=True)
        sub.add_argument("--taus", type=tau_list, default="1,2,4,8,16")
        sub.add_argument("--tau-cap", type=float, default=16.0)
        _add_grid_flags(sub)

    if sub := add("reconstruct", "invert coefficients", cmd_reconstruct):
        sub.add_argument("--in", dest="infile", required=True)
        solve = FrameOperatorConfig()
        sub.add_argument("--tolerance", type=float, default=solve.tolerance,
                         help="Jacobi-scaled relative residual to stop at")
        sub.add_argument("--max-iterations", type=int,
                         default=solve.max_iterations,
                         help="CG step limit after the start")

    return parser, subs.choices


# option type -> expected JSON type of its config value: float accepts any
# number, list is a list of numbers, options without a type take a string
_JSON_TYPES = {float: float, int: int, tau_list: list}
_TYPE_NAMES = {str: "a string", list: "a list of numbers", float: "a number",
               int: "an integer"}


def _has_type(value, kind):
    if kind is list:
        return (isinstance(value, list)
                and all(_has_type(v, float) for v in value))
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def load_config(path):
    """JSON config of option defaults.  Its keys are the dests of the
    parser's options that a default can set, and each value must fit its
    option's type, so typos fail loudly; value ranges are checked by the
    owning modules."""
    import json     # only a run with --config pays for it
    kinds = {a.dest: _JSON_TYPES.get(a.type, str)
             for sub in build_parser()[1].values() for a in sub._actions
             if a.option_strings and not a.required
             and a.dest not in ("help", "config")}
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError("%s: not valid JSON (%s)" % (path, exc))
    if not isinstance(data, dict):
        raise FileFormatError("%s: top level must be an object" % path)
    for key, value in data.items():
        kind = kinds.get(key)
        if kind is None:
            raise FileFormatError("%s: unknown config field %r" % (path, key))
        if not _has_type(value, kind):
            raise FileFormatError("%s: config field %r must be %s"
                                  % (path, key, _TYPE_NAMES[kind]))
        if kind is list:
            data[key] = [float(t) for t in value]
    return data


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser, registry = build_parser(
        next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    # config is applied as the command's parser defaults so flags win
    if args.config is not None:
        try:
            cfg = load_config(args.config)
        except (OSError, FileFormatError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        sub = registry[args.command]
        known = {a.dest for a in sub._actions}
        sub.set_defaults(**{k: v for k, v in cfg.items() if k in known})
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FrameConvergenceError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    # FileFormatError included; MemoryError: an array too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
