"""Binary signal and coefficient files, selectivity CSV, run configs."""

import dataclasses
import json
import re

import numpy as np
import pytest

from sphwave import fileio
from sphwave.cli import load_config, main
from sphwave.fileio import (FileFormatError, read_coefficients,
                            read_selectivity_rows, read_signal, write_signal,
                            write_coefficients, write_selectivity_csv)
from sphwave.multiselect import SelectivitySet, selectivity_scan
from sphwave.profiles import WaveletSpec
from sphwave.sphfn import CoefficientTable, default_grid_spec, \
    synthesize_signal
from sphwave.so3 import make_scale_sequence, make_so3_grid
from sphwave.transform import forward_transform, reconstruct, uniform_specs

SCALES = make_scale_sequence(1.0, 0.5, 1)


def _noise_signal(l_band, seed):
    rng = np.random.default_rng(seed)
    n = (l_band + 1) ** 2
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vec[0] = 0.0
    return synthesize_signal(CoefficientTable(l_band, vec),
                             default_grid_spec(l_band))


def test_signal_round_trip(tmp_path):
    path = tmp_path / "sig.bin"
    f = _noise_signal(8, 5)
    write_signal(path, f)
    with open(path, "rb") as fh:
        assert fh.readline().startswith(b"SPHSIG1 ")
    g = read_signal(path)
    assert np.array_equal(g.values, f.values)
    assert g.values.dtype == np.complex128
    assert (g.spec.l_band, g.spec.n_theta, g.spec.n_phi) \
        == (f.spec.l_band, f.spec.n_theta, f.spec.n_phi)

    real = synthesize_signal(CoefficientTable(4), default_grid_spec(4))
    real.values = np.random.default_rng(0).standard_normal(real.values.shape)
    write_signal(path, real)
    h = read_signal(path)
    assert h.values.dtype == np.float64
    assert np.array_equal(h.values, real.values)


def test_signal_header_errors(tmp_path):
    path = tmp_path / "sig.bin"
    write_signal(path, _noise_signal(4, 5))
    raw = path.read_bytes()
    head, _, payload = raw.partition(b"\n")

    def rewrite(new_head, new_payload=payload):
        path.write_bytes(new_head + b"\n" + new_payload)

    rewrite(head.replace(b"SPHSIG1", b"SPHXXX1"))
    with pytest.raises(FileFormatError, match="magic"):
        read_signal(path)
    rewrite(head.replace(b" l_band=4", b""))
    with pytest.raises(FileFormatError, match="l_band"):
        read_signal(path)
    rewrite(head.replace(b"n_theta=5", b"n_theta=five"))
    with pytest.raises(FileFormatError, match="n_theta"):
        read_signal(path)
    rewrite(head.replace(b"grid=gauss", b"grid=latlon"))
    with pytest.raises(FileFormatError, match="grid"):
        read_signal(path)
    rewrite(head.replace(b"kind=complex", b"kind=quaternion"))
    with pytest.raises(FileFormatError, match="kind"):
        read_signal(path)
    rewrite(head, payload[:-8])
    with pytest.raises(FileFormatError, match="payload"):
        read_signal(path)
    rewrite(head + b" orphan")
    with pytest.raises(FileFormatError, match="malformed"):
        read_signal(path)
    # a negative band, or one the Gauss rule cannot resolve
    for old, bad, field in ((b"l_band=4", b"l_band=-1", "l_band"),
                            (b"l_band=4", b"l_band=9", "n_theta"),
                            (b"n_phi=9", b"n_phi=8", "n_phi")):
        rewrite(head.replace(old, bad))
        with pytest.raises(FileFormatError, match=field):
            read_signal(path)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.frombuffer(payload, dtype="<c16").copy()
        values[3] = complex(0.0, bad)
        rewrite(head, values.tobytes())
        with pytest.raises(FileFormatError, match="non-finite"):
            read_signal(path)


def test_coefficients_round_trip(tmp_path):
    path = tmp_path / "coef.bin"
    f = _noise_signal(8, 7)
    grid = make_so3_grid(0.8, 1.2)
    coeffs = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                               grid, SCALES)
    assert coeffs.under_resolved
    write_coefficients(path, coeffs)
    back = read_coefficients(path)
    assert back.family == "omega"
    assert back.l_band == 8
    assert back.under_resolved
    assert back.taus == (2.0, 2.0)
    assert back.grid.n_carriers == grid.n_carriers
    assert (back.scales.rho0, back.scales.q) == (1.0, 0.5)
    for j in range(2):
        assert np.array_equal(back.values[j], coeffs.values[j])

    # per-carrier selectivities survive as arrays
    thetas = np.array([c.theta for c in grid.cells])
    taus = np.where(thetas < 0.5 * np.pi, 1.0, 4.0)
    specs = tuple(tuple(WaveletSpec("omega", rho, float(t)) for t in taus)
                  for rho in SCALES)
    coeffs = forward_transform(f, specs, grid, SCALES)
    write_coefficients(path, coeffs)
    back = read_coefficients(path)
    for j in range(2):
        assert np.array_equal(np.asarray(back.taus[j]), taus)
        assert np.array_equal(back.values[j], coeffs.values[j])


def test_stale_under_resolved_field_is_ignored(tmp_path):
    # the grid, band limit and tau block fix under_resolved, and the solve
    # start follows it: a stale under_resolved=0 on an under-resolved tau
    # map, as older files may carry, would pick the LU start of a singular
    # S (relative error 222 in place of 0.49)
    f = _noise_signal(12, 1)
    rng = np.random.default_rng(1)
    grid = make_so3_grid(1.5, 3.0)
    specs = [tuple(WaveletSpec("omega", rho, t) for t in rng.choice(
        SelectivitySet().taus, grid.n_carriers)) for rho in SCALES]
    good, stale = tmp_path / "good.bin", tmp_path / "stale.bin"
    write_coefficients(good, forward_transform(f, specs, grid, SCALES))
    head, _, payload = good.read_bytes().partition(b"\n")
    stale.write_bytes(head + b" under_resolved=0\n" + payload)
    recs = []
    for path in (good, stale):
        coeffs = read_coefficients(path)
        assert coeffs.under_resolved
        recs.append(reconstruct(coeffs).values)
    assert np.array_equal(*recs)
    err = np.linalg.norm(recs[0] - f.values) / np.linalg.norm(f.values)
    assert err < 0.5, err
    assert b"under_resolved" not in head


def test_write_refuses_grid_a_file_cannot_rebuild(tmp_path):
    # a file stores delta2 and delta1 and read_coefficients rebuilds
    # make_so3_grid from them: a grid with turned longitudes, reordered
    # carriers or bounds that are not its own is refused before anything
    # is written (read back onto the rebuilt grid, the turned one gave a
    # relative reconstruction error of 1.09 against 3e-11 in memory)
    f = _noise_signal(6, 5)
    base = make_so3_grid(0.5, 0.5)
    turned = base.cells.copy()
    turned.phi = np.mod(turned.phi + 0.37, 2.0 * np.pi)
    order = np.random.default_rng(5).permutation(base.n_carriers)
    for grid in (dataclasses.replace(base, cells=turned),
                 dataclasses.replace(base, cells=base.cells[order]),
                 dataclasses.replace(base, delta2=0.45)):
        coeffs = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                                   grid, SCALES)
        rec = reconstruct(coeffs).values
        assert (np.linalg.norm(rec - f.values)
                < 1e-8 * np.linalg.norm(f.values))
        path = tmp_path / "coef.bin"
        with pytest.raises(ValueError, match="make_so3_grid"):
            write_coefficients(path, coeffs)
        assert not path.exists()
    # the same bounds rebuilt are the same grid, a different object
    coeffs = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                               make_so3_grid(0.5, 0.5), SCALES)
    write_coefficients(tmp_path / "coef.bin", coeffs)
    assert read_coefficients(tmp_path / "coef.bin").grid is not coeffs.grid


def test_coefficients_header_errors(tmp_path):
    path = tmp_path / "coef.bin"
    f = _noise_signal(6, 7)
    grid = make_so3_grid(0.8, 1.2)
    coeffs = forward_transform(f, uniform_specs("omega", 2.0, SCALES),
                               grid, SCALES)
    write_coefficients(path, coeffs)
    raw = path.read_bytes()
    head, _, payload = raw.partition(b"\n")

    path.write_bytes(head.replace(b"SPHWCF1", b"NOPE") + b"\n" + payload)
    with pytest.raises(FileFormatError, match="magic"):
        read_coefficients(path)
    path.write_bytes(head.replace(b"n_carriers=54", b"n_carriers=53")
                     + b"\n" + payload)
    with pytest.raises(FileFormatError, match="n_carriers"):
        read_coefficients(path)
    path.write_bytes(head + b"\n" + payload[:-16])
    with pytest.raises(FileFormatError, match="payload"):
        read_coefficients(path)
    # an unknown family would run as upsilon
    path.write_bytes(head.replace(b"family=omega", b"family=foo")
                     + b"\n" + payload)
    with pytest.raises(FileFormatError, match="family"):
        read_coefficients(path)
    # header fields out of range: no band, no scale, and scale or grid
    # numbers their builders refuse (a coarsest scale below RHO_MIN too)
    for field, old, bad in (("l_band", b"=6", b"=-1"),
                            ("n_scales", b"=2", b"=0"),
                            ("rho0", b"=1.0", b"=-1.0"),
                            ("rho0", b"=1.0", b"=5e-05"),
                            ("q", b"=0.5", b"=2.0"),
                            ("delta2", b"=0.8", b"=0.0"),
                            ("delta1", b"=1.2", b"=nan")):
        key = field.encode()
        path.write_bytes(head.replace(key + old, key + bad) + b"\n" + payload)
        with pytest.raises(FileFormatError, match=field):
            read_coefficients(path)
    # a tau outside [1, TAU_MAX] would reconstruct a wrong signal
    n_tau = len(SCALES) * grid.n_carriers
    taus = np.frombuffer(payload, dtype="<f8", count=n_tau)
    for bad in (np.nan, 0.0, np.inf, 0.5, -3.0, 1e9):
        block = taus.copy()
        block[5] = bad
        path.write_bytes(head + b"\n" + block.tobytes()
                         + payload[8 * n_tau:])
        with pytest.raises(FileFormatError, match="tau block"):
            read_coefficients(path)
    values = np.frombuffer(payload, dtype="<c16", offset=8 * n_tau)
    for bad in (np.nan, np.inf):
        block = values.copy()
        block[7] = complex(bad, 0.0)
        path.write_bytes(head + b"\n" + payload[:8 * n_tau]
                         + block.tobytes())
        with pytest.raises(FileFormatError, match="non-finite"):
            read_coefficients(path)


def test_coefficients_payload_checked_before_any_build(tmp_path, capsys,
                                                      monkeypatch):
    # the header's counts must imply the payload before the scales or the
    # grid are built: a million scales (q close to 1) over a 64-byte
    # payload build nothing, in the library and in `sphwave reconstruct`
    path, out = tmp_path / "coef.bin", tmp_path / "out.sig"
    grid = make_so3_grid(0.8, 1.2)
    coeffs = forward_transform(_noise_signal(6, 7),
                               uniform_specs("omega", 2.0, SCALES), grid,
                               SCALES)
    write_coefficients(path, coeffs)
    head, _, payload = path.read_bytes().partition(b"\n")
    huge = head.replace(b"n_scales=2", b"n_scales=1000000").replace(
        b"q=0.5", b"q=0.9999999")
    path.write_bytes(huge + b"\n" + bytes(64))

    def refuse(*args):
        raise AssertionError("built before the payload check")
    monkeypatch.setattr(fileio, "make_scale_sequence", refuse)
    monkeypatch.setattr(fileio, "make_so3_grid", refuse)
    with pytest.raises(FileFormatError, match="payload"):
        read_coefficients(path)
    assert main(["reconstruct", "--in", str(path), "--out", str(out)]) == 2
    assert "payload" in capsys.readouterr().err and not out.exists()
    # no carrier or no axial angle is refused as a field
    for field in (b"n_carriers", b"n_axial"):
        bad = re.sub(field + rb"=\d+", field + b"=0", head)
        path.write_bytes(bad + b"\n")
        with pytest.raises(FileFormatError, match=field.decode()):
            read_coefficients(path)
    monkeypatch.undo()
    # a payload that matches a header count the rebuilt grid does not have
    n = grid.n_carriers - 1
    path.write_bytes(head.replace(b"n_carriers=%d" % grid.n_carriers,
                                  b"n_carriers=%d" % n) + b"\n"
                     + payload[:len(payload) * n // grid.n_carriers])
    with pytest.raises(FileFormatError, match="rebuilt grid"):
        read_coefficients(path)


def test_selectivity_csv_round_trip(tmp_path):
    path = tmp_path / "map.csv"
    f = _noise_signal(8, 31)
    grid = make_so3_grid(0.8, 1.2)
    tsel = SelectivitySet((1.0, 2.0, 4.0))
    smap = selectivity_scan(f, SCALES, grid, tsel)
    write_selectivity_csv(path, smap)
    rows = read_selectivity_rows(path)
    assert len(rows) == 2 * grid.n_carriers
    for row, want in zip(rows, smap.rows()):
        assert row[:2] == want[:2]
        # repr-based formatting keeps every float bit-exact
        assert row[2:] == tuple(float(x) for x in want[2:]), row[:2]

    path.write_text("j,alpha2,theta2\n")
    with pytest.raises(FileFormatError, match="header"):
        read_selectivity_rows(path)
    path.write_text("j,alpha2,theta2,phi2,tau_star,phi1_star,value\n0,1\n")
    with pytest.raises(FileFormatError, match="columns"):
        read_selectivity_rows(path)


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"family": "omega", "taus": [1, 2, 4],
                                "l_band": 16, "q": 0.5}))
    cfg = load_config(path)
    assert cfg["taus"] == [1.0, 2.0, 4.0]
    assert cfg["l_band"] == 16

    path.write_text(json.dumps({"l_bandd": 16}))
    with pytest.raises(FileFormatError, match="l_bandd"):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(FileFormatError, match="top level"):
        load_config(path)
    path.write_text("{not json")
    with pytest.raises(FileFormatError, match="not valid JSON"):
        load_config(path)
