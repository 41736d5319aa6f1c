"""File formats: sampled signals, coefficient sets, selectivity maps.

Binary files carry a one-line ASCII header (magic word plus key=value
fields) followed by a raw little-endian payload, so metadata stays
human-inspectable while the numbers round-trip bit-exactly.  Grids are
never stored: they rebuild deterministically from the header fields.
"""

import numpy as np

from .profiles import FAMILIES, _check_tau
from .sphfn import SphericalGridSpec, SphericalSignal
from .so3 import RATIO_SPAN, RHO0_FLOOR, make_scale_sequence, make_so3_grid
from .transform import TransformCoefficients

SIGNAL_MAGIC = "SPHSIG1"
COEFF_MAGIC = "SPHWCF1"


class FileFormatError(ValueError):
    """Malformed file; the message names the offending field."""


def _parse_header(line, magic, path):
    parts = line.decode("ascii", errors="replace").split()
    if not parts or parts[0] != magic:
        raise FileFormatError("%s: bad magic word (expected %s)"
                              % (path, magic))
    fields = {}
    for item in parts[1:]:
        if "=" not in item:
            raise FileFormatError("%s: malformed header item %r"
                                  % (path, item))
        key, _, val = item.partition("=")
        fields[key] = val
    return fields


def _check_finite(values, path):
    if not np.all(np.isfinite(values)):
        raise FileFormatError("%s: payload holds a non-finite value" % path)


def _field(fields, key, convert, path, valid=lambda v: True):
    """Header field key as convert gives it, refused unless valid(value)."""
    if key not in fields:
        raise FileFormatError("%s: missing header field %r" % (path, key))
    try:
        value = convert(fields[key])
        ok = valid(value)
    except ValueError:
        ok = False
    if not ok:
        raise FileFormatError("%s: bad value for header field %r"
                              % (path, key))
    return value


# ---------------------------------------------------------------------------
# sampled spherical signals

def write_signal(path, signal):
    """One header line, then theta-major samples as little-endian binary."""
    values = np.ascontiguousarray(signal.values)
    kind = "complex" if np.iscomplexobj(values) else "real"
    dtype = "<c16" if kind == "complex" else "<f8"
    header = "%s grid=gauss n_theta=%d n_phi=%d l_band=%d kind=%s\n" % (
        SIGNAL_MAGIC, signal.spec.n_theta, signal.spec.n_phi,
        signal.spec.l_band, kind)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(values.astype(dtype).tobytes())


def read_signal(path):
    with open(path, "rb") as fh:
        fields = _parse_header(fh.readline(), SIGNAL_MAGIC, path)
        payload = fh.read()
    _field(fields, "grid", str, path, lambda v: v == "gauss")
    l_band = _field(fields, "l_band", int, path, lambda v: v >= 0)
    n_theta = _field(fields, "n_theta", int, path, lambda v: v > l_band)
    n_phi = _field(fields, "n_phi", int, path, lambda v: v > 2 * l_band)
    kind = _field(fields, "kind", str, path,
                  lambda v: v in ("real", "complex"))
    dtype = "<c16" if kind == "complex" else "<f8"
    want = n_theta * n_phi * np.dtype(dtype).itemsize
    if len(payload) != want:
        raise FileFormatError("%s: payload holds %d bytes, header implies %d"
                              % (path, len(payload), want))
    values = np.frombuffer(payload, dtype=dtype).reshape(n_theta, n_phi)
    _check_finite(values, path)
    return SphericalSignal(values.copy(),
                           SphericalGridSpec(l_band, n_theta, n_phi))


# ---------------------------------------------------------------------------
# wavelet coefficient sets

def write_coefficients(path, coeffs):
    """Header with the rebuild parameters, then taus and values blocks; a
    grid that make_so3_grid(delta2, delta1) does not rebuild is refused."""
    grid = coeffs.grid
    rebuilt = make_so3_grid(grid.delta2, grid.delta1)
    if not (np.array_equal(grid.cells, rebuilt.cells)
            and np.array_equal(grid.axial_angles, rebuilt.axial_angles)):
        raise ValueError("grid is not make_so3_grid(delta2, delta1), the "
                         "one a coefficient file rebuilds")
    scales = coeffs.scales
    n_axial = len(grid.axial_angles)
    header = ("%s family=%s l_band=%d n_scales=%d rho0=%r q=%r "
              "delta2=%r delta1=%r n_carriers=%d n_axial=%d\n"
              % (COEFF_MAGIC, coeffs.family, coeffs.l_band, len(scales),
                 float(scales.rho0), float(scales.q), float(grid.delta2),
                 float(grid.delta1), grid.n_carriers, n_axial))
    taus = np.array([np.broadcast_to(t, grid.n_carriers) for t in coeffs.taus],
                    dtype=float)
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(taus.astype("<f8").tobytes())
        for v in coeffs.values:
            fh.write(np.ascontiguousarray(v).astype("<c16").tobytes())


def read_coefficients(path):
    with open(path, "rb") as fh:
        fields = _parse_header(fh.readline(), COEFF_MAGIC, path)
        payload = fh.read()
    family = _field(fields, "family", str, path, lambda v: v in FAMILIES)
    l_band = _field(fields, "l_band", int, path, lambda v: v >= 0)
    n_scales = _field(fields, "n_scales", int, path, lambda v: v >= 1)
    # the ranges of make_scale_sequence and make_so3_grid, NaN refused
    rho0 = _field(fields, "rho0", float, path,
                  lambda v: RHO0_FLOOR < v < np.inf)
    q = _field(fields, "q", float, path, lambda v: 1.0 / RATIO_SPAN < v < 1.0)
    delta2 = _field(fields, "delta2", float, path, lambda v: 0.0 < v <= np.pi)
    delta1 = _field(fields, "delta1", float, path,
                    lambda v: 0.0 < v <= 2.0 * np.pi)
    n_carriers = _field(fields, "n_carriers", int, path, lambda v: v >= 1)
    n_axial = _field(fields, "n_axial", int, path, lambda v: v >= 1)
    # the payload size before any build: no scales or grid for a bad file
    n_tau = n_scales * n_carriers
    size = n_tau * (8 + 16 * n_axial)
    if len(payload) != size:
        raise FileFormatError("%s: payload holds %d bytes, header fields "
                              "'n_scales'/'n_carriers'/'n_axial' imply %d"
                              % (path, len(payload), size))
    scales = make_scale_sequence(rho0, q, n_scales - 1)
    grid = make_so3_grid(delta2, delta1)
    if grid.n_carriers != n_carriers or len(grid.axial_angles) != n_axial:
        raise FileFormatError("%s: header field 'n_carriers'/'n_axial' does "
                              "not match the rebuilt grid" % path)
    taus_flat = np.frombuffer(payload, "<f8", n_tau).reshape(-1, n_carriers)
    values = np.frombuffer(payload, dtype="<c16", offset=8 * n_tau)
    values = values.reshape(n_scales, n_carriers, n_axial)
    _check_finite(values, path)
    try:    # NaN fails both; np.unique would import numpy.ma
        _check_tau(taus_flat.min())
        _check_tau(taus_flat.max())
    except ValueError as exc:
        raise FileFormatError("%s: bad value in the tau block: %s"
                              % (path, exc)) from None
    taus = tuple(float(row[0]) if np.ptp(row) == 0.0 else row.copy()
                 for row in taus_flat)
    return TransformCoefficients(family, l_band,
                                 tuple(v.copy() for v in values),
                                 taus, grid, scales)


# ---------------------------------------------------------------------------
# selectivity maps (text)

def write_selectivity_csv(path, smap):
    with open(path, "w") as fh:
        fh.write("j,alpha2,theta2,phi2,tau_star,phi1_star,value\n" + "".join(
            "%d,%d,%r,%r,%r,%r,%r\n" % row for row in smap.rows()))


def read_selectivity_rows(path):
    """Rows of a selectivity CSV, numbers round-tripped exactly."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "j,alpha2,theta2,phi2,tau_star,phi1_star,value":
            raise FileFormatError("%s: bad column header" % path)
        rows = []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 7:
                raise FileFormatError("%s: row with %d columns"
                                      % (path, len(parts)))
            rows.append((int(parts[0]), int(parts[1]))
                        + tuple(float(x) for x in parts[2:]))
    return rows
