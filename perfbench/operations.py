"""The benchmark's workloads: fixed physics instances and how to check them.

Every operation is either a `becsim` command run in-process through
`becsim.cli.main(argv)`, or a short script over the public `becsim`
functions.  Each returns an `Outcome`: the exit code, the PASS/FAIL lines
the command printed, and every number of its CSV or return value, keyed
by column.  `compare` matches an outcome against the recorded reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import becsim
from becsim import channels, cli

# Numbers must agree within this relative tolerance (the ROADMAP's rule for
# a change of behaviour), plus an absolute floor at round-off level: the
# quantities are O(1) polarizations, errors and entropies, and an exact
# zero comes out as a few 1e-17.  Columns that are round-off noise
# throughout (the trace and Hermiticity defects, the smallest eigenvalue
# of rho) get a wider floor: they are health checks, flagged only at 1e-7.
# Comparison is not bitwise: fig4d moves by 1.5e-11 (relative) between one
# and two OpenBLAS threads.
RTOL = 1e-8
FLOOR = 1e-14
NOISE_FLOOR = 1e-10
NOISE_COLUMNS = ("trace_dev", "herm_defect", "min_eig")


@dataclass
class Outcome:
    exit_code: int
    checks: list = field(default_factory=list)
    columns: dict = field(default_factory=dict)

    def as_json(self):
        return {"exit_code": self.exit_code, "checks": self.checks,
                "columns": self.columns}


@dataclass(frozen=True)
class Operation:
    """One step of a workload: a CLI argv, or a script over the API."""

    name: str
    argv: tuple = ()
    script: object = None   # runs the operation, returns a collector

    def run(self, out_dir, tracer=None):
        """(seconds, Outcome).  Reading the outputs back is not timed."""
        if tracer is not None:
            tracer.open("op." + self.name)
        start = time.perf_counter()
        try:
            if self.script is not None:
                collect = self.script()
            else:
                collect = _run_cli(self.argv, out_dir)
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.close()
        return seconds, collect()


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    columns = {}
    for i, name in enumerate(rows[0]):
        values = [row[i] for row in rows[1:]]
        try:
            columns[name] = [float(v) for v in values]
        except ValueError:
            columns[name] = values
    return columns


def _run_cli(argv, out_dir):
    """Run one command; return a function that collects its outputs."""
    out = os.path.join(out_dir, argv[0] + ".csv")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv) + ["--out", out])

    def collect():
        checks = sorted(line for line in stdout.getvalue().splitlines()
                        if line.startswith(("PASS: ", "FAIL: ")))
        columns = {}
        if os.path.exists(out):
            columns = _read_csv(out)
            os.remove(out)
        return Outcome(code, checks, columns)
    return collect


def _record_outcome(rec, fit):
    columns = {"t": rec.times.tolist()}
    for name in rec.observables:
        columns[name] = rec.series(name).tolist()
    columns["trace_dev"] = rec.trace_dev.tolist()
    columns["herm_defect"] = rec.herm_defect.tolist()
    columns["min_eig"] = rec.min_eig.tolist()
    columns["fit_rate"] = [fit.rate]
    return Outcome(0, [], columns)


def _loss_m2_n4():
    """Single-particle loss, 2 sites, N <= 4: one 50,625-dim generator."""
    n_max = 4
    model = becsim.build_loss_model(2, n_max, 0.05)
    basis = channels.loss_basis(n_max)
    site = channels.embed_loss_state(becsim.make_fock(n_max, n_max), basis)
    psi = np.kron(site, site)
    sz1 = channels.loss_site_operator(
        basis, 2, 0, channels.loss_spin_operator(basis, "z")) / n_max
    rec = becsim.integrate_master(model, np.outer(psi, psi.conj()), 8.0, 97,
                                  observables={"sz1_over_n": sz1})
    fit = becsim.fit_decay_rate(rec, "sz1_over_n")
    return lambda: _record_outcome(rec, fit)


def _dephasing_m2_n6():
    """Collective z dephasing, 2 sites, N = 6: the all-diagonal path."""
    n = 6
    model = becsim.build_dephasing_model(2, n, "z", 0.05)
    site = becsim.plus_x_state(n).amps
    psi = np.kron(site, site)
    sx1 = channels.site_operator(2, n, {0: "x"}) / n
    rec = becsim.integrate_master(model, np.outer(psi, psi.conj()), 8.0, 97,
                                  observables={"sx1_over_n": sx1})
    fit = becsim.fit_decay_rate(rec, "sx1_over_n")
    return lambda: _record_outcome(rec, fit)


WORKLOADS = {
    # fig4d at --N-max 2: N = 1, 2 at n_ph_max = 3, each re-run at
    # n_ph_max = 4 for the cutoff check.  --N-max 3 has the same mechanism
    # but takes three times as long, too long to repeat within a run.
    "cavity_bus": [
        Operation("fig4d", ("fig4d", "--N-max", "2")),
    ],
    "rabi_rk": [
        Operation("fig4c", ("fig4c", "--N", "4")),
        Operation("fig4a", ("fig4a", "--N", "6", "--axis", "paper-body")),
    ],
    "sparse_expm": [
        Operation("fig4b", ("fig4b",)),
        Operation("loss_m2_n4", script=_loss_m2_n4),
        Operation("dephasing_m2_n6", script=_dephasing_m2_n6),
    ],
    "pure_gates": [
        Operation("deutsch", ("deutsch", "--N", "30")),
        Operation("fig2b", ("fig2b", "--N-max", "200")),
        Operation("fig2a", ("fig2a", "--N", "100")),
        Operation("schedule", ("schedule", "--N", "20")),
        Operation("rates", ("rates",)),
        Operation("selftest", ("selftest",)),
    ],
}


def _close(x, r, floor):
    if isinstance(r, str) or isinstance(x, str):
        return x == r
    if math.isnan(r) or math.isnan(x):
        return math.isnan(r) and math.isnan(x)
    return abs(x - r) <= RTOL * abs(r) + floor


def compare(outcome, reference):
    """Differences between an outcome and its reference; empty if they match.

    A match needs the same exit code, the same set of PASS/FAIL lines, and
    every number within RTOL (relative) of the reference.
    """
    problems = []
    if outcome.exit_code != reference["exit_code"]:
        problems.append("exit code %d, reference %d"
                        % (outcome.exit_code, reference["exit_code"]))
    if outcome.checks != reference["checks"]:
        problems.append("checks %s, reference %s"
                        % (outcome.checks, reference["checks"]))
    if set(outcome.columns) != set(reference["columns"]):
        problems.append("columns %s, reference %s"
                        % (sorted(outcome.columns),
                           sorted(reference["columns"])))
        return problems
    for name, ref in reference["columns"].items():
        got = outcome.columns[name]
        floor = NOISE_FLOOR if name in NOISE_COLUMNS else FLOOR
        if len(got) != len(ref):
            problems.append("%s: %d values, reference %d"
                            % (name, len(got), len(ref)))
            continue
        bad = [i for i, (x, r) in enumerate(zip(got, ref))
               if not _close(x, r, floor)]
        if bad:
            i = bad[0]
            problems.append("%s: %d of %d values differ, first at row %d: "
                            "%r vs %r" % (name, len(bad), len(ref), i,
                                          got[i], ref[i]))
    return problems
