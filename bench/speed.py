"""Machine-speed reference, so that timings on shared hardware hold still.

On a shared virtual machine the speed of one core drifts by 20% and more
over tens of seconds as neighbours come and go; a fixed computation
slows down with sphwave's ops.  The harness times REFERENCE between ops
and scales each op time by NOMINAL_S over the median of the reference
samples taken just before it: the reported figure is the op's time on a
machine that runs REFERENCE in NOMINAL_S.  A change to sphwave does not
touch REFERENCE, so it moves the scaled times as it moves the raw ones.
Raw times stay in the run record.
"""

import contextlib
import statistics
import time

import numpy as np

NOMINAL_S = 0.016
REFERENCE_SPAN = "speed.reference"
_BLOCK = np.exp(1j * np.arange(48 * 48) / 7.0).reshape(48, 48) / 48.0


def reference_s():
    """Time one pass of small complex products, elementwise work and
    interpreted steps, the mix sphwave's transforms are made of."""
    t0 = time.perf_counter()
    a = _BLOCK.copy()
    acc = 0.0
    for i in range(400):
        a = a @ _BLOCK
        a /= np.abs(a).max()
        acc += i * 0.5
    return time.perf_counter() - t0


def sample(seconds):
    """Reference timings taken for about `seconds`, at least one."""
    out = [reference_s()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        out.append(reference_s())
    return out


def scale(raw_s, samples):
    """raw_s at nominal machine speed, from reference samples near it."""
    return raw_s * NOMINAL_S / statistics.median(samples)


class Clock:
    """Times the sections of one op, each scaled by the reference samples
    taken just before it.  The samples run for a tenth of the previous
    section's time, at least once, inside a "speed.reference" span."""

    def __init__(self, tracer, lead_s):
        self.tr = tracer
        self.lead_s = lead_s
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.ref_s = 0.0
        self.refs = []
        self.sections = []      # (wall, scaled) per section

    @contextlib.contextmanager
    def section(self):
        t0 = time.perf_counter()
        with self.tr.span(REFERENCE_SPAN):
            refs = sample(self.lead_s)
        t1 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t1
            self.ref_s += t1 - t0
            self.refs += refs
            self.sections.append((dt, scale(dt, refs)))
            self.raw_s += dt
            self.scaled_s += self.sections[-1][1]
            self.lead_s = 0.1 * dt
