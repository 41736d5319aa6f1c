"""Checks of the tier-1 workflow that run as programs, one subcommand each.

    python3 tests/ci_checks.py cold-tables      # in a directory holding f.sig

Each subcommand prints the lines of its workflow step and exits non-zero
with a message when a check fails.  They import the installed package, or
the checkout's with PYTHONPATH=src.  pytest does not collect this file.

cold-tables: verify, analyze, reconstruct and select in one fresh
interpreter, reading f.sig (any signal `sphwave synthesize` writes) and
writing w2.bin, g2.sig and m2.csv in the working directory.  Every
Gauss-Legendre rule of the kernel tables and the colatitude grids (which
the kernel norms read too) is built once, so a node count built twice is
a table rebuilt; a plan owns its tilt store and cell phases, built once
with it, so a store lives exactly as long as its plan and each table's
build count equals the plan misses (3 stores in this one process where a
shared cache built 1; sphwave runs one command per process, as the
cli_cold workload does, and builds one); S_R is built once, by the
reconstruct, and kept on its plan, so another frame_matrix call is a
dense frame built that no step needs; and each command that uses a band
operator builds one plan (analyze, reconstruct, whose adjoint and S share
it, and select, whose picks run on its scan's plan), so a fourth plan
miss is a plan rebuilt.  It patches transform._cell_phases, _tilt_store
and frame_matrix by name, so a rename fails here as well as on CI.
"""

import argparse
import collections
import sys

import numpy as np


def cold_tables():
    from sphwave import transform
    from sphwave.cli import main
    built = collections.Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        built[int(n)] += 1
        return leggauss(n)
    np.polynomial.legendre.leggauss = counted
    tables = collections.Counter()
    for name in ("_cell_phases", "_tilt_store"):
        setattr(transform, name, lambda *a, _n=name, _f=getattr(
            transform, name): tables.update([_n]) or _f(*a))
    frames, frame_matrix = [], transform.frame_matrix
    transform.frame_matrix = lambda *a: frames.append(a) or frame_matrix(*a)
    rcs = [main(["verify", "--family", "omega", "--tau", "2", "--l-max", "64"]),
           main(["analyze", "--in", "f.sig", "--out", "w2.bin"]),
           main(["reconstruct", "--in", "w2.bin", "--out", "g2.sig"]),
           main(["select", "--in", "f.sig", "--j-max", "1", "--out", "m2.csv"])]
    print("exit codes", rcs, "leggauss node counts built:", dict(built))
    twice = sorted(n for n, c in built.items() if c > 1)
    if rcs != [0, 0, 0, 0] or twice:
        sys.exit("node counts built more than once: %s" % twice)
    print("frame_matrix calls:", len(frames))
    if len(frames) != 1:
        sys.exit("%d frame_matrix calls, want 1 (the reconstruct's S_R)"
                 % len(frames))
    info = transform._plan.cache_info()
    print("_plan", info, "table builds:", dict(tables))
    for name in ("_cell_phases", "_tilt_store"):
        if tables[name] != info.misses:
            sys.exit("%s: %d builds for %d plans, want one per plan"
                     % (name, tables[name], info.misses))
    if info.misses > 3:
        sys.exit("_plan: %d misses for 3 commands that use a band "
                 "operator" % info.misses)


CHECKS = {"cold-tables": cold_tables}

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("check", choices=sorted(CHECKS))
    CHECKS[parser.parse_args().check]()
