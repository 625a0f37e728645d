"""Command-line front end: figure data as CSV plus a summary report.

Each command reproduces one figure or claim as a deterministic CSV table
and prints fitted rates with pass/fail lines against the built-in
expectations.  Exit codes: 0 success, 1 argument or input error, 2
numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import channels, registers, schedules, spin
from .atomloss import AtomLossParams, integrate_loss_odes, lifetime_report
from .errors import CapacityError, IntegrationError, NumericalIntegrityError
from .lindblad import fit_decay_rate, integrate_master

# every key a flag or a config line may set, with its type; schedule
# (a schedule file path) is the one key with no flag
KEYS = {
    "out": str, "N": int, "N_max": int, "gamma": float, "omega": float,
    "t_end": float, "samples": int, "axis": str, "schedule": str,
}

# the smallest value each integer key accepts
MINIMA = {"N": 1, "N_max": 1, "samples": 2}


class ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgumentError(message)


def _build_parser():
    p = _Parser(prog="becsim", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", help="key = value parameter file")
    for key, kind in KEYS.items():
        if key != "schedule":
            p.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=kind,
                choices=channels.AXIS_CONVENTIONS if key == "axis" else None,
                help="CSV output path" if key == "out" else None)
    return p


def parse_config_file(path):
    """Read a UTF-8 key = value file with # comments; unknown keys fail."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ArgumentError("%s:%d: expected key = value" % (path, lineno))
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in KEYS:
                raise ArgumentError("%s:%d: unknown key %r" % (path, lineno, key))
            try:
                out[key] = KEYS[key](value)
            except ValueError:
                raise ArgumentError("%s:%d: bad value for %s: %r"
                                    % (path, lineno, key, value))
    return out


def resolve_params(args):
    """Defaults, then the config file, then flags; every flag must be read.

    A config file may serve several commands, so its unread keys pass.
    The floats a command reads must be finite, its integers >= MINIMA.
    """
    reads = dict(COMMANDS[args.command][1], out=None)
    params = dict(reads)
    if args.config:
        params.update(parse_config_file(args.config))
    for key in KEYS:
        value = getattr(args, key, None)   # schedule has no flag
        if value is None:
            continue
        if key not in reads:
            raise ArgumentError("%s does not use --%s"
                                % (args.command, key.replace("_", "-")))
        params[key] = value
    for key in reads:
        value = params[key]
        if isinstance(value, float) and not math.isfinite(value):
            raise ArgumentError("%s must be finite, got %r" % (key, value))
        if key in MINIMA and value < MINIMA[key]:
            raise ArgumentError("%s must be >= %d" % (key, MINIMA[key]))
    return params


def write_csv(path, header, rows):
    """Write a header line and rows; numbers as %.17g, strings verbatim."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else "%.17g" % v
                              for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _check(label, ok):
    print("%s: %s" % ("PASS" if ok else "FAIL", label))
    return ok


# ---------------------------------------------------------------------------
# commands

def cmd_fig2a(params, out):
    """Entanglement entropy against gate phase for one boson number."""
    n = params["N"]
    samples = params["samples"]
    grid = np.linspace(0.0, params["t_end"], samples)
    max_bits = math.log2(n + 1)
    rows = []
    for wt in grid:
        rows.append((wt, registers.entropy(
            registers.entangler_reduced_state(n, n, wt)), max_bits))
    write_csv(out, ["omega_t", "entropy_bits", "max_bits"], rows)
    peak = max(r[1] for r in rows)
    print("fig2a: N=%d, peak entropy %.4f of %.4f bits" % (n, peak, max_bits))
    return 0


def cmd_fig2b(params, out):
    """Entanglement at the short gate time pi/4N for N up to N_max."""
    registers._joint_dim((params["N_max"],) * 2)   # refused before the sweep
    rows = []
    for n in range(1, params["N_max"] + 1):
        wt = math.pi / (4.0 * n)
        rho = registers.entangler_reduced_state(n, n, wt)
        rows.append((n, registers.entropy(rho)))
    write_csv(out, ["N", "entropy_bits"], rows)
    base = rows[0][1]
    dev = max(abs(e - base) for _, e in rows)
    print("fig2b: E(1)=%.6f bits, max |E(N)-E(1)| = %.4f" % (base, dev))
    _check("flatness |E(N)-E(1)| <= 0.15 bits", dev <= 0.15)
    return 0


def cmd_fig4a(params, out):
    rec = channels.run_fig4a(params["N"], gamma=params["gamma"],
                             omega2=params["omega"],
                             t_end=params["t_end"],
                             samples=params["samples"],
                             axis=params["axis"])
    write_csv(out, *rec.table())
    omega = abs(params["omega"])
    t, quarter = rec.times, math.pi / (2 * omega)
    k = np.argmin(np.abs(t - quarter))
    reading = ("|signal| at omega t = %.4f (sample nearest pi/2): %.5f"
               % (omega * t[k], abs(rec.series(rec.meta["signal"])[k]))
               if quarter <= t[-1] else
               "the record ends before omega t = pi/2")
    print("fig4a: N=%d axis=%s, %s" % (params["N"], params["axis"], reading))
    _check("record healthy (trace within 1e-7)", not rec.failed)
    return 0


def cmd_fig4b(params, out):
    # gate times follow the entangling phase |omega| t
    omega = abs(params["omega"])
    if omega == 0:
        raise ValueError("omega2 must be nonzero: it sets the gate period")
    rows = []
    short_errors = []
    for n in range(1, params["N_max"] + 1):
        short = math.pi / (4.0 * n) / omega
        times = np.linspace(0.0, math.pi / 4.0, params["samples"])[1:] / omega
        times = np.sort(np.append(times, short))
        errors = channels.run_fig4b(n, gamma=params["gamma"],
                                    omega2=params["omega"], gate_times=times)
        rows += [(n, t, err) for t, err in zip(times, errors)]
        short_errors.append(errors[times == short][-1])
    write_csv(out, ["N", "t", "error"], rows)
    print("fig4b: errors at t=pi/4N:",
          " ".join("%.5f" % e for e in short_errors))
    _check("error at t=pi/4N decreases with N",
           all(b < a for a, b in zip(short_errors, short_errors[1:])))
    return 0


def cmd_fig4c(params, out):
    n = params["N"]
    rec = channels.run_fig4c(n, gamma_s=params["gamma"],
                             t_end=params["t_end"],
                             samples=params["samples"])
    # fit first: a record the fit cannot use writes no CSV
    fitted = channels.oscillation_envelope_rate(
        rec, "sz_over_n", rec.meta["rabi_frequency"])
    write_csv(out, *rec.table())
    expected = rec.meta["expected_decay"]
    print("fig4c: N=%d fitted envelope rate %.5g, formula %.5g (ratio %.3f)"
          % (n, fitted, expected, fitted / expected if expected else math.nan))
    _check("fitted decay within 25% of g^2 Gamma_s (N+1)/Delta^2",
           expected > 0 and abs(fitted - expected) <= 0.25 * expected)
    return 0


def cmd_fig4d(params, out):
    rows = []
    gate_errors = []
    fitted = []
    for n in range(1, params["N_max"] + 1):
        res = channels.run_fig4d(n, gamma_c=params["gamma"],
                                 convergence_check=(n <= 2))
        for t, e in zip(res.times, res.errors):
            rows.append((n, t, e))
        gate_errors.append(res.errors[-1])
        fitted.append(res.fitted_decoherence)
    write_csv(out, ["N", "t", "error"], rows)
    print("fig4d: gate-time errors:", " ".join("%.5f" % e for e in gate_errors))
    print("fig4d: fitted decoherence per N:",
          " ".join("%.3e" % f for f in fitted))
    _check("gate error decreases with N",
           all(b < a for a, b in zip(gate_errors, gate_errors[1:])))
    target = 0.01
    _check("fitted decoherence within 50% of G^2 Gamma_c / Delta^2 = 0.01",
           all(abs(f - target) <= 0.5 * target for f in fitted))
    return 0


def cmd_deutsch(params, out):
    n = params["N"]
    rows = []
    ok = True
    for oracle_id in schedules.ORACLE_IDS:
        oracle = schedules.DeutschOracle(oracle_id, n)
        classification, readout = schedules.run_deutsch(oracle)
        expected = "constant" if oracle_id.startswith("const") else "balanced"
        ok = ok and classification == expected
        rows.append((oracle_id, classification, readout))
    write_csv(out, ["oracle", "classification", "readout"], rows)
    for oracle_id, classification, readout in rows:
        print("deutsch: %-8s -> %-8s (readout %+.6f)"
              % (oracle_id, classification, readout))
    if not _check("all four oracles classified correctly", ok):
        return 2
    return 0


def cmd_rates(params, out):
    p = AtomLossParams()
    times, na, nb = integrate_loss_odes(p, params["t_end"], params["samples"])
    write_csv(out, ["t", "Na", "Nb"], zip(times, na, nb))
    tau_bg, tau_2b, tau_3b = lifetime_report(p)
    print("rates: tau_bg = %.3g s, tau_2b = %.3g s, tau_3b = %.3g s"
          % (tau_bg, tau_2b, tau_3b))
    ok = _check("three-body lifetime of order 1e6 s", 1e5 <= tau_3b <= 1e7)
    ok &= _check("two-body lifetime of order 10 s", 3.0 <= tau_2b <= 50.0)
    ok &= _check("populations monotone non-increasing",
                 bool(np.all(np.diff(na) <= 0) and np.all(np.diff(nb) <= 0)))
    return 0 if ok else 2


DEMO_SCHEDULE = """\
# qubit-level entangler: exp(-i pi/4 sz sz), mapped to N bosons per site
term 0.7853981633974483 1:z 2:z ; 1.0
"""


def cmd_schedule(params, out):
    n = params["N"]
    text = DEMO_SCHEDULE
    if params["schedule"]:
        with open(params["schedule"], encoding="utf-8") as fh:
            text = fh.read()
    qubit_steps = schedules.parse_schedule(text)
    mapped = schedules.map_qubit_schedule(qubit_steps, n)
    sites = 1 + max((site for step in qubit_steps for term in step.terms
                     for site, _ in term.factors), default=0)
    registers._joint_dim([n] * sites)   # before the site states are built
    reg = registers.tensor([registers.plus_x_state(n)] * sites)
    final = schedules.run_schedule(reg, mapped)
    rows = []
    for site in range(sites):
        rho = registers.partial_trace(final, site)
        vec = [float(np.real(np.trace(
            spin.spin_operator(ax, n) @ rho.entries))) / n
            for ax in ("x", "y", "z")]
        rows.append((site + 1, vec[0], vec[1], vec[2]))
    write_csv(out, ["site", "sx_over_n", "sy_over_n", "sz_over_n"], rows)
    print("schedule: %d step(s) mapped to N=%d; %d site(s)"
          % (len(mapped), n, sites))
    print(schedules.format_schedule(mapped).rstrip())
    return 0


def cmd_selftest(params, out):
    """Fast invariant sweep across all modules."""
    ok = True

    # spin algebra
    n = 7
    sx = spin.spin_operator("x", n)
    sy = spin.spin_operator("y", n)
    sz = spin.spin_operator("z", n)
    comm = sx @ sy - sy @ sx - 2j * sz
    casimir = sx @ sx + sy @ sy + sz @ sz - n * (n + 2) * np.eye(n + 1)
    ok &= _check("spin commutator and Casimir",
                 np.abs(comm).max() < 1e-10 and np.abs(casimir).max() < 1e-10)

    # overlap closed form
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        p1 = spin.CoherentParams.from_angles(
            rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi), 12)
        p2 = spin.CoherentParams.from_angles(
            rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi), 12)
        num = spin.overlap_numeric(spin.make_coherent(p1),
                                   spin.make_coherent(p2))
        worst = max(worst, abs(num - spin.overlap_analytic(p1, p2)))
    ok &= _check("coherent overlap closed form", worst < 1e-9)

    # entangler closed form and cat structure
    reg = registers.apply_zz(
        registers.tensor([registers.plus_x_state(6)] * 2), 0, 1, 0.3)
    ana = registers.entangler_reduced_state(6, 6, 0.3).entries
    ok &= _check("entangler closed form", np.abs(
        ana - registers.partial_trace(reg, 0).entries).max() < 1e-10)
    ok &= _check("cat decomposition", registers.cat_decomposition_check(6)
                 >= 1 - 1e-9)

    # Deutsch classification
    good = all(schedules.run_deutsch(schedules.DeutschOracle(o, 5))[0]
               == ("constant" if o.startswith("const") else "balanced")
               for o in schedules.ORACLE_IDS)
    ok &= _check("Deutsch oracles", good)

    # dephasing and loss decay laws
    m = channels.build_dephasing_model(1, 3, "z", 0.05)
    psi = registers.plus_x_state(3).amps
    rec = integrate_master(m, np.outer(psi, psi.conj()), 15.0, 201,
                           observables={"sx": spin.spin_operator("x", 3)})
    fit = fit_decay_rate(rec, "sx")
    ok &= _check("dephasing rate 2 Gamma_z", abs(fit.rate - 0.1) < 1e-3)

    basis = channels.loss_basis(3)
    m = channels.build_loss_model(1, 3, 0.07)
    vec = channels.embed_loss_state(spin.make_fock(3, 3), basis)
    rec = integrate_master(m, np.outer(vec, vec.conj()), 12.0, 201,
                           observables={"sz": channels.loss_spin_operator(basis, "z")})
    fit = fit_decay_rate(rec, "sz")
    ok &= _check("loss rate Gamma_l", abs(fit.rate - 0.07) < 7e-4)

    # lifetimes
    tau_bg, tau_2b, tau_3b = lifetime_report(AtomLossParams())
    ok &= _check("lifetime ordering", tau_3b > 1e4 * tau_2b and tau_bg == 10.0)

    print("selftest:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 2


# each command's handler and the keys it reads, with their defaults (None:
# the protocol's own, or schedule's built-in demo); every command also
# reads out, and a flag for any other key is an argument error
COMMANDS = {
    "fig2a": (cmd_fig2a, {"N": 10, "samples": 201, "t_end": math.pi / 2.0}),
    "fig2b": (cmd_fig2b, {"N_max": 30}),
    "fig4a": (cmd_fig4a, {"N": 4, "gamma": 0.01, "omega": 1.0, "samples": 801,
                          "axis": "caption", "t_end": None}),
    "fig4b": (cmd_fig4b, {"N_max": 6, "gamma": 0.01, "omega": 1.0,
                          "samples": 13}),
    "fig4c": (cmd_fig4c, {"N": 4, "gamma": 0.1, "samples": 6001,
                          "t_end": None}),
    "fig4d": (cmd_fig4d, {"N_max": 4, "gamma": 1.0}),
    "deutsch": (cmd_deutsch, {"N": 10}),
    "rates": (cmd_rates, {"t_end": 20.0, "samples": 201}),
    "schedule": (cmd_schedule, {"N": 2, "schedule": None}),
    "selftest": (cmd_selftest, {}),
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        params = resolve_params(args)
    except (ArgumentError, OSError, UnicodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    out = params["out"] or ("%s.csv" % args.command)
    try:
        return COMMANDS[args.command][0](params, out)
    # LinAlgError is a ValueError, but a failed decomposition is numerical
    except (CapacityError, IntegrationError, NumericalIntegrityError,
            np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
