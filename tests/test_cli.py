"""Command-line surface: outputs, presets, config merging, exit codes."""

import json
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

import sphwave
from sphwave.cli import build_parser, load_config, main
from sphwave.fileio import (read_coefficients, read_selectivity_rows,
                            read_signal)
from sphwave.sphfn import analyze_signal
from sphwave.transform import FrameOperatorConfig, reconstruct

from oracles import (axis_rotation, harmonic_matrix, point_angles,
                     sphere_points, tilt_rotation, window_series)


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in fh])
    return header, rows


def _lobe_stats(values):
    """(sign changes, half-max width in samples) of one longitude row."""
    center = values.size // 2
    w = np.sign(values[center]) * values
    # products of adjacent near-crossing samples can underflow to zero,
    # so count alternations of the sign sequence instead
    s = np.sign(w)
    s = s[s != 0.0]
    changes = int(np.sum(s[:-1] != s[1:]))
    above = w >= 0.5 * w[center]
    lo = hi = center
    while lo > 0 and above[lo - 1]:
        lo -= 1
    while hi + 1 < w.size and above[hi + 1]:
        hi += 1
    return changes, hi - lo + 1


def test_profile_csv(tmp_path):
    out = tmp_path / "win.csv"
    assert main(["profile", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["phi", "f_1", "f_2", "f_4", "f_8", "f_16"]
    assert rows.shape == (513, 6)
    phi = rows[:, 0]
    assert phi[0] == -0.5 * np.pi and phi[-1] == 1.5 * np.pi
    at = {v: np.argmin(np.abs(phi - v)) for v in (0.0, 0.5 * np.pi, np.pi)}
    widths = []
    for c in range(1, 6):
        col = rows[:, c]
        assert col[at[0.0]] > 0.0, c          # positive lobe at 0
        assert col[at[np.pi]] < 0.0, c        # negative lobe at pi
        assert abs(col[at[0.5 * np.pi]]) < 1e-14, c
        above = col >= 0.5 * col[at[0.0]]
        widths.append(int(np.sum(above)))
    assert widths == sorted(widths, reverse=True)  # sharper as tau grows

    assert main(["profile", "--out", str(out), "--samples", "1"]) == 0
    assert len(out.read_text().splitlines()) == 2
    assert main(["profile", "--out", str(out), "--taus", "0.5,2"]) == 2


def test_profile_csv_matches_series_window(tmp_path):
    # sphwave profile writes the periodized window, which equals its
    # Fourier series
    out = tmp_path / "win.csv"
    assert main(["profile", "--out", str(out), "--taus", "1,1.37,4,16"]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    for c, tau in enumerate((1.0, 1.37, 4.0, 16.0), start=1):
        ref = window_series(tau, rows[:, 0])
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(rows[:, c] - ref)) <= 1e-13 * scale, tau


def test_kernel_csv_lobes(tmp_path):
    stats = {}
    for tau in (1.0, 16.0):
        out = tmp_path / ("k%g.csv" % tau)
        code = main(["kernel", "--out", str(out), "--rho", "0.5",
                     "--tau", "%g" % tau, "--n-theta", "61",
                     "--n-phi", "181"])
        assert code == 0
        _, rows = _read_csv(out)
        values = rows[:, 2].reshape(61, 181)
        # sin(pi) only reaches the rounding floor, so the far pole row
        # is tiny rather than exactly zero
        assert np.all(values[0] == 0.0)
        assert np.max(np.abs(values[-1])) < 1e-30
        row = values[np.argmax(np.max(np.abs(values), axis=1))]
        stats[tau] = _lobe_stats(row)
    assert stats[1.0][0] == 2 and stats[16.0][0] == 2
    assert stats[16.0][1] < stats[1.0][1]


def test_kernel_refuses_empty_grid(tmp_path, capsys):
    # a CSV grid with no theta or no phi sample is a usage error, as
    # profile --samples 0 is, and writes no header-only file
    out = tmp_path / "k.csv"
    for flag in ("--n-theta", "--n-phi"):
        for n in ("0", "-1"):
            assert main(["kernel", "--out", str(out), flag, n]) == 2
            assert "at least one sample" in capsys.readouterr().err
            assert not out.exists(), (flag, n)


def test_kernel_bin_round_trip(tmp_path):
    out = tmp_path / "k.bin"
    args = ["kernel", "--format", "bin", "--out", str(out),
            "--rho", "0.5", "--tau", "4", "--l-band", "8"]
    assert main(args) == 0
    first = out.read_bytes()
    sig = read_signal(out)
    assert sig.spec.l_band == 8
    assert sig.values.dtype == np.float64
    assert main(args) == 0
    assert out.read_bytes() == first
    assert main(["kernel", "--format", "bin"]) == 2  # --out required


def test_verify_exit_codes(capsys):
    assert main(["verify", "--family", "omega", "--tau", "1",
                 "--l-max", "12"]) == 0
    text = capsys.readouterr().out
    assert "verdict: PASS" in text
    assert "analytic upper bound" in text

    assert main(["verify", "--family", "upsilon", "--tau", "1",
                 "--l-max", "12"]) == 1
    text = capsys.readouterr().out
    assert "verdict: FAIL" in text
    assert "vanishing condition" in text

    assert main(["verify", "--l-max", "8"]) == 2
    assert "at least 10" in capsys.readouterr().err


def test_synthesize_zonal_and_determinism(tmp_path):
    out1 = tmp_path / "a.bin"
    out2 = tmp_path / "b.bin"
    args = ["synthesize", "--preset", "zonal-bump", "--l-band", "8",
            "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sig = read_signal(out1)
    spread = np.max(np.abs(sig.values - sig.values.mean(axis=1)[:, None]))
    assert spread < 1e-12

    noise = ["synthesize", "--preset", "noise", "--l-band", "8",
             "--seed", "9"]
    assert main(noise + ["--out", str(out1)]) == 0
    assert main(noise + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    table = analyze_signal(read_signal(out1))
    assert np.max(np.abs(table.values[:4])) < 1e-13
    with pytest.raises(SystemExit):
        main(["synthesize", "--preset", "wiggle", "--out", str(out1)])


def test_synthesize_ridge_rotation(tmp_path):
    theta, phi = np.pi / 3, 1.0
    paths = []
    for orientation in (0.0, 0.5 * np.pi):
        out = tmp_path / ("r%g.bin" % orientation)
        assert main(["synthesize", "--preset", "ridge", "--l-band", "8",
                     "--rho", "0.5", "--tau", "2", "--theta", "%r" % theta,
                     "--phi", "%r" % phi, "--orientation",
                     "%r" % orientation, "--out", str(out)]) == 0
        paths.append(out)
    f0, f90 = read_signal(paths[0]), read_signal(paths[1])
    # the two ridges differ by a rotation about the carrier axis
    g0 = axis_rotation(phi) @ tilt_rotation(theta)
    rel = g0 @ axis_rotation(0.5 * np.pi) @ g0.T
    table0 = analyze_signal(f0)
    tt, pp = np.meshgrid(f0.thetas, f0.phis, indexing="ij")
    xyz = np.tensordot(rel.T, sphere_points(tt, pp), axes=1)
    bt, bp = point_angles(xyz)
    expected = (table0.values
                @ harmonic_matrix(8, bt, bp)).reshape(f90.values.shape)
    scale = np.max(np.abs(f0.values))
    assert np.max(np.abs(f90.values - expected)) < 1e-7 * scale


def test_analyze_reconstruct_round_trip(tmp_path, capsys, monkeypatch):
    sig = tmp_path / "sig.bin"
    coef = tmp_path / "coef.bin"
    rec = tmp_path / "rec.bin"
    assert main(["synthesize", "--preset", "noise", "--l-band", "8",
                 "--seed", "3", "--out", str(sig)]) == 0
    assert main(["analyze", "--in", str(sig), "--tau", "2",
                 "--j-max", "1", "--out", str(coef)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["reconstruct", "--in", str(coef), "--out", str(rec)]) == 0
    assert capsys.readouterr().err == ""
    f = read_signal(sig)
    g = read_signal(rec)
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(g.values - f.values)) < 1e-6 * scale

    # a too-coarse grid is flagged but still written, and reconstruct
    # gives analyze's warning before its solve, with the solve's exit code
    assert main(["analyze", "--in", str(sig), "--tau", "2", "--j-max", "1",
                 "--delta2", "0.8", "--delta1", "1.2",
                 "--out", str(coef)]) == 0
    warning = capsys.readouterr().err
    assert "under-resolves" in warning
    before = []
    monkeypatch.setattr("sphwave.cli.reconstruct", lambda *a: before.append(
        capsys.readouterr().err) or reconstruct(*a))
    assert main(["reconstruct", "--in", str(coef), "--out", str(rec)]) == 0
    assert before == [warning] and capsys.readouterr().err == ""


def test_band_limit_zero_pipeline(tmp_path, capsys):
    # a band limit 0 signal has no content an odd axial order reaches:
    # analyze writes zero coefficients, reconstruct the zero signal, and
    # select a map of zero values, each exiting 0
    sig, coef, rec, out = (str(tmp_path / n) for n in (
        "sig.bin", "coef.bin", "rec.bin", "map.csv"))
    grid = ["--delta2", "0.5", "--delta1", "0.5"]
    assert main(["synthesize", "--preset", "zonal-bump", "--l-band", "0",
                 "--out", sig]) == 0
    assert main(["analyze", "--in", sig, "--out", coef] + grid) == 0
    assert main(["reconstruct", "--in", coef, "--out", rec]) == 0
    assert main(["select", "--in", sig, "--out", out] + grid) == 0
    assert capsys.readouterr().err == ""
    assert not any(v.any() for v in read_coefficients(coef).values)
    g = read_signal(rec)
    assert g.spec.l_band == 0 and not g.values.any()
    rows = read_selectivity_rows(out)
    assert rows and all(row[6] == 0.0 for row in rows)


def test_reconstruct_defaults_follow_library():
    parser, _ = build_parser()
    args = parser.parse_args(["reconstruct", "--in", "coef.bin"])
    lib = FrameOperatorConfig()
    assert args.tolerance == lib.tolerance
    assert args.max_iterations == lib.max_iterations


def test_select_two_ridges(tmp_path):
    sig = tmp_path / "sig.bin"
    out = tmp_path / "map.csv"
    assert main(["synthesize", "--preset", "two-ridges", "--l-band", "16",
                 "--rho", "1.0", "--tau-broad", "1", "--tau-sharp", "8",
                 "--theta", "%r" % (np.pi / 3), "--phi", "1.0",
                 "--out", str(sig)]) == 0
    assert main(["select", "--in", str(sig), "--j-max", "0",
                 "--delta2", "0.4", "--out", str(out)]) == 0
    rows = read_selectivity_rows(out)
    taus = {row[4] for row in rows}
    assert len(taus) >= 2


def test_config_merge_flags_win(tmp_path):
    cfg = tmp_path / "run.json"
    out1 = tmp_path / "a.bin"
    out2 = tmp_path / "b.bin"
    cfg.write_text(json.dumps({"l_band": 6, "seed": 9}))
    assert main(["synthesize", "--preset", "noise", "--config", str(cfg),
                 "--out", str(out1)]) == 0
    assert main(["synthesize", "--preset", "noise", "--l-band", "6",
                 "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # an explicit flag overrides the config default
    assert main(["synthesize", "--preset", "noise", "--config", str(cfg),
                 "--seed", "4", "--out", str(out1)]) == 0
    assert main(["synthesize", "--preset", "noise", "--l-band", "6",
                 "--seed", "4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # the --config=path spelling loads the same defaults
    cfg.write_text(json.dumps({"l_band": 3}))
    assert main(["synthesize", "--preset", "noise", "--config=%s" % cfg,
                 "--out", str(out1)]) == 0
    assert read_signal(out1).spec.l_band == 3

    cfg.write_text(json.dumps({"vibes": 11}))
    assert main(["synthesize", "--preset", "noise", "--config", str(cfg),
                 "--out", str(out1)]) == 2
    assert main(["synthesize", "--preset", "noise", "--config=%s" % cfg,
                 "--out", str(out1)]) == 2
    with pytest.raises(SystemExit):
        main(["synthesize", "--preset", "noise", "--config"])


def test_config_mistyped_values_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for bad, field in (({"taus": 5}, "taus"), ({"taus": ["a"]}, "taus"),
                       ({"j_max": 1.5}, "j_max")):
        cfg.write_text(json.dumps(bad))
        assert main(["select", "--config", str(cfg), "--in",
                     str(tmp_path / "sig.bin"), "--out",
                     str(tmp_path / "map.csv")]) == 2, bad
        assert field in capsys.readouterr().err


def test_config_keys_follow_parser(tmp_path, capsys):
    sig = tmp_path / "f.sig"
    out1 = tmp_path / "a.wav"
    out2 = tmp_path / "b.wav"
    cfg = tmp_path / "run.json"
    assert main(["synthesize", "--preset", "noise", "--l-band", "4",
                 "--out", str(sig)]) == 0
    args = ["analyze", "--in", str(sig), "--j-max", "0",
            "--delta2", "0.5", "--delta1", "0.5"]
    cfg.write_text(json.dumps({"tau": 8}))
    assert main(args + ["--config", str(cfg), "--out", str(out1)]) == 0
    assert main(args + ["--tau", "8", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # every option a default can set is a key, with the option's type
    for key in ("tau", "rho", "l_max", "samples", "width", "theta", "phi",
                "orientation", "tau_broad", "tau_sharp"):
        cfg.write_text(json.dumps({key: 2}))
        assert load_config(cfg) == {key: 2}, key
    for bad in ({"target": 0.1}, {"preset": "noise"}, {"config": "x"}):
        cfg.write_text(json.dumps(bad))
        assert main(args + ["--config", str(cfg), "--out", str(out1)]) == 2
        assert "unknown config field" in capsys.readouterr().err, bad
    cfg.write_text(json.dumps({"samples": 2.5}))
    assert main(["profile", "--config", str(cfg), "--out", str(out1)]) == 2
    assert "must be an integer" in capsys.readouterr().err


def _run_cli(args, cwd, **kwargs):
    # a fresh process with a timeout: a hang fails instead of stalling
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphwave.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "sphwave.cli"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=30, **kwargs)


def test_bad_selectivity_exits_2(tmp_path):
    # NaN, infinite and huge selectivities stop with a message, not a
    # hang, a PASS verdict or NaN samples
    assert main(["synthesize", "--preset", "noise", "--l-band", "4",
                 "--out", str(tmp_path / "f.sig")]) == 0
    for args in (["verify", "--tau", "nan", "--l-max", "10"],
                 ["verify", "--tau", "inf"],
                 ["analyze", "--tau", "inf", "--in", "f.sig", "--out", "w"],
                 ["analyze", "--tau", "1e9", "--in", "f.sig", "--out", "w"],
                 ["select", "--taus", "1,1e9", "--tau-cap", "1e9",
                  "--in", "f.sig", "--out", "m.csv"],
                 ["kernel", "--tau", "inf", "--out", "k.csv"],
                 ["profile", "--taus", "1,nan", "--out", "p.csv"]):
        run = _run_cli(args, tmp_path)
        assert run.returncode == 2, (args, run.returncode, run.stdout)
        assert "error: selectivity must be" in run.stderr, (args, run.stderr)
    assert not (tmp_path / "k.csv").exists()


def test_bad_input_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.bin"
    out = tmp_path / "out.bin"
    assert main(["analyze", "--in", str(missing), "--out", str(out)]) == 2

    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(b"SPHSIG1 grid=gauss n_theta=4 n_phi=4\n" + b"x" * 8)
    assert main(["analyze", "--in", str(corrupt), "--out", str(out)]) == 2
    assert "l_band" in capsys.readouterr().err
    assert main(["reconstruct", "--in", str(corrupt),
                 "--out", str(out)]) == 2

    # a tolerance of nan never converges and inf stops after one step:
    # both are refused before the solve, and nothing is written
    sig, coef = tmp_path / "sig.bin", tmp_path / "coef.bin"
    assert main(["synthesize", "--preset", "noise", "--l-band", "6",
                 "--seed", "3", "--out", str(sig)]) == 0
    assert main(["analyze", "--in", str(sig), "--tau", "2", "--j-max", "1",
                 "--delta2", "0.5", "--delta1", "0.5",
                 "--out", str(coef)]) == 0
    capsys.readouterr()
    for tolerance in ("nan", "inf"):
        assert main(["reconstruct", "--in", str(coef), "--tolerance",
                     tolerance, "--out", str(out)]) == 2, tolerance
        assert "positive and finite" in capsys.readouterr().err, tolerance
        assert not out.exists(), tolerance

    # a non-finite scale or turn is refused before any numpy warning
    assert main(["analyze", "--in", str(sig), "--rho0", "inf",
                 "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    # analyze and select refuse the scales the kernels refuse
    for cmd in ("analyze", "select"):
        assert main([cmd, "--in", str(sig), "--rho0", "5e-5",
                     "--out", str(out)]) == 2, cmd
        assert "supported range" in capsys.readouterr().err, cmd
    assert main(["synthesize", "--preset", "two-ridges", "--phi", "inf",
                 "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()

    # non-finite samples would give NaN coefficients or map values
    head, _, payload = sig.read_bytes().partition(b"\n")
    samples = np.frombuffer(payload, dtype="<f8").copy()
    samples[4] = np.nan
    bad_sig = tmp_path / "bad_sig.bin"
    bad_sig.write_bytes(head + b"\n" + samples.tobytes())
    for cmd in ("analyze", "select"):
        assert main([cmd, "--in", str(bad_sig), "--j-max", "1",
                     "--delta2", "0.5", "--delta1", "0.5",
                     "--out", str(out)]) == 2, cmd
        assert "non-finite" in capsys.readouterr().err, cmd
        assert not out.exists(), cmd
    # a negative band, or one too fine for the Gauss rule of n_theta
    for old, new, field in ((b"l_band=6", b"l_band=-1", "l_band"),
                            (b"l_band=6", b"l_band=9", "n_theta")):
        bad_sig.write_bytes(head.replace(old, new) + b"\n" + payload)
        assert main(["analyze", "--in", str(bad_sig), "--j-max", "1",
                     "--out", str(out)]) == 2, field
        assert repr(field) in capsys.readouterr().err, field
        assert not out.exists(), field

    # an unknown family, a tau outside [1, TAU_MAX] or a non-finite
    # coefficient would reconstruct a wrong signal or stall the solve
    head, _, payload = coef.read_bytes().partition(b"\n")
    good = read_coefficients(coef)
    n_tau = len(good.taus) * good.grid.n_carriers
    taus = np.frombuffer(payload, dtype="<f8", count=n_tau)
    bad_coef = tmp_path / "bad_coef.bin"
    cases = [(head.replace(b"family=omega", b"family=foo") + b"\n"
              + payload, "family")]
    for old, new in ((b"l_band=6", b"l_band=-1"),
                     (b"n_scales=2", b"n_scales=0")):
        cases.append((head.replace(old, new) + b"\n" + payload,
                      repr(old.split(b"=")[0].decode())))
    for tau in (np.nan, 0.0, np.inf, 0.5, -3.0, 1e9):
        block = taus.copy()
        block[0] = tau
        cases.append((head + b"\n" + block.tobytes() + payload[8 * n_tau:],
                      "tau block"))
    values = np.frombuffer(payload, dtype="<c16", offset=8 * n_tau).copy()
    values[2] = np.inf
    cases.append((head + b"\n" + payload[:8 * n_tau] + values.tobytes(),
                  "non-finite"))
    for raw, field in cases:
        bad_coef.write_bytes(raw)
        assert main(["reconstruct", "--in", str(bad_coef),
                     "--out", str(out)]) == 2, field
        assert field in capsys.readouterr().err, field
        assert not out.exists(), field


def _cap_address_space():
    # 4 GiB of address space for the child: an array numpy would try to
    # map on a machine that overcommits memory is refused there as well
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 32, 2 ** 32))


def test_oversized_inputs_exit_2_fast(tmp_path):
    # a grid too large to allocate, a negative band limit, a finest scale
    # that underflows, a report degree above its bound and arrays numpy
    # refuses to allocate stop at once with exit 2 and the field's name
    # or numpy's message, not a traceback or a hang
    assert main(["synthesize", "--preset", "noise", "--l-band", "4",
                 "--out", str(tmp_path / "f.sig")]) == 0
    big = "Unable to allocate"
    for args, field in (
            (["analyze", "--in", "f.sig", "--delta2", "0.5",
              "--delta1", "1e-9", "--out", "w.bin"], "delta1"),
            (["analyze", "--in", "f.sig", "--delta2", "1e-6",
              "--out", "w.bin"], "delta2"),
            (["synthesize", "--preset", "two-ridges", "--l-band", "-3",
              "--out", "g.sig"], "l_band"),
            (["analyze", "--in", "f.sig", "--j-max", "100000000",
              "--out", "w.bin"], "j_max"),
            (["profile", "--samples", "1000000000000", "--out", "p.csv"],
             big),
            (["kernel", "--n-theta", "1000000", "--n-phi", "1000000",
              "--out", "k.csv"], big),
            (["synthesize", "--preset", "noise", "--l-band", "100000000",
              "--out", "g.sig"], big),
            (["verify", "--l-max", "100000"], "l_max"),
            (["verify", "--l-max", "1000000000000"], "l_max")):
        start = time.perf_counter()
        run = _run_cli(args, tmp_path, preexec_fn=_cap_address_space)
        took = time.perf_counter() - start
        assert run.returncode == 2, (args, run.returncode, run.stderr)
        assert "error: " in run.stderr and field in run.stderr, (
            args, run.stderr)
        assert "Traceback" not in run.stderr, args
        assert took < 1.0, (args, took)
    for name in ("w.bin", "g.sig", "p.csv", "k.csv"):
        assert not (tmp_path / name).exists(), name
