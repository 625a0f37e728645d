"""Command-line interface: argument handling, outputs, exit codes."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import becsim
from becsim import channels, registers, schedules
from becsim.channels import AXIS_CONVENTIONS, build_lambda_model
from becsim.cli import (COMMANDS, KEYS, _build_parser, main,
                        parse_config_file, resolve_params, write_csv)
from becsim.errors import CapacityError

OPERATIONS = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
              / "operations.py")


def read_csv(path):
    text = path.read_text().splitlines()
    return text[0].split(","), [line.split(",") for line in text[1:]]


def test_all_commands_registered():
    assert tuple(COMMANDS) == ("fig2a", "fig2b", "fig4a", "fig4b", "fig4c",
                               "fig4d", "deutsch", "rates", "schedule",
                               "selftest")


def test_flags_come_from_keys(capsys):
    parser = _build_parser()
    dests = set(vars(parser.parse_args(["selftest"]))) - {"command", "config"}
    assert dests == set(KEYS) - {"schedule"}
    for axis in AXIS_CONVENTIONS:
        assert parser.parse_args(["fig4a", "--axis", axis]).axis == axis
    # schedule is set only by a config line
    assert main(["schedule", "--schedule", "x.txt"]) == 1
    assert "unrecognized arguments: --schedule" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(COMMANDS))
def test_bare_argv_resolves_registered_keys(command):
    params = resolve_params(_build_parser().parse_args([command]))
    assert params == dict(COMMANDS[command][1], out=None)


def test_write_csv_keeps_every_digit(tmp_path):
    out = tmp_path / "rows.csv"
    write_csv(out, ["name", "n", "x"], [("a", 3, 1.0 / 3.0),
                                        ("b", np.int64(4), np.float64(0.1))])
    assert out.read_text() == ("name,n,x\na,3,0.33333333333333331\n"
                               "b,4,0.10000000000000001\n")


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_flag_exits_1():
    assert main(["deutsch", "--N", "not-a-number"]) == 1


def test_unread_flag_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fig2a", "--omega", "3"]) == 1
    assert "error: fig2a does not use --omega" in capsys.readouterr().err
    assert main(["fig4d", "--N-max", "1", "--t-end", "3"]) == 1
    assert "error: fig4d does not use --t-end" in capsys.readouterr().err
    # fig4b runs one axis convention
    assert main(["fig4b", "--axis", "caption"]) == 1
    assert "error: fig4b does not use --axis" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["fig4a", "--gamma", "nan"],
    ["fig4a", "--omega", "nan"],
    ["fig4a", "--gamma", "-1"],
    ["fig4b", "--N-max", "0"],
    ["fig4a", "--samples", "1"],
    ["fig2a", "--samples", "0"],
    ["deutsch", "--N", "0"],
    ["fig4a", "--omega", "0"],
    ["fig4b", "--omega", "0"],
    ["fig4c", "--t-end", "1", "--samples", "101"],
    ["fig4c", "--t-end", "0"],
    ["fig4c", "--t-end", "100", "--samples", "2"],
], ids="_".join)
def test_bad_input_exits_1(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    text = capsys.readouterr()
    assert "error:" in text.err
    assert "PASS" not in text.out and "FAIL" not in text.out
    assert not list(tmp_path.iterdir())
    if argv == ["fig4c", "--t-end", "100", "--samples", "2"]:
        # t = 100 spans three Rabi periods; the sample count is what fails
        assert "the record has 2 samples; the envelope fit needs at " \
            "least 3" in text.err


@pytest.mark.parametrize("argv", [
    ["fig2a", "--N", "1000000"],
    ["deutsch", "--N", "1000000"],
    ["fig4a", "--N", "1000"],
], ids="_".join)
def test_oversized_input_exits_2(argv, tmp_path, capsys, monkeypatch):
    # refused from N alone, before the terabyte-sized arrays are requested
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "numerical failure:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_lambda_model_refuses_before_enumerating(tmp_path, capsys,
                                                 monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("occupations enumerated for an oversized N")
    monkeypatch.setattr(channels, "enumerate_occupations", enumerate_nothing)
    with pytest.raises(CapacityError):
        build_lambda_model(10**6, 1.0, 10.0, 0.1)
    monkeypatch.chdir(tmp_path)
    assert main(["fig4c", "--N", "100000"]) == 2
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, builders", [
    (["deutsch", "--N", "1000000"],
     [(schedules, "plus_x_state"), (schedules, "make_fock")]),
    (["schedule", "--N", "1000000"], [(registers, "plus_x_state")]),
    (["fig2b", "--N-max", "3162"], [(registers, "entangler_reduced_state")]),
], ids=["deutsch", "schedule", "fig2b"])
def test_oversized_input_builds_no_state(argv, builders, tmp_path, capsys,
                                         monkeypatch):
    # the joint dimension (N + 1)^sites is checked before any site state
    def build_nothing(*args):
        raise AssertionError("a state built for an oversized N")
    for module, name in builders:
        monkeypatch.setattr(module, name, build_nothing)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "numerical failure:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


IMPORT_PROBE = """
import sys
from becsim.cli import main


def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))


assert not scipy_modules(), scipy_modules()
# the pure-state commands, and fig4d's dense sector blocks, run on numpy
# alone
for argv in (["deutsch", "--N", "2"], ["fig2a", "--N", "2", "--samples", "3"],
             ["fig2b", "--N-max", "3"], ["schedule"], ["fig4d", "--N-max", "1"]):
    assert main(argv + ["--out", "out.csv"]) == 0
    assert not scipy_modules(), (argv[0], scipy_modules())
assert main(["fig4b", "--N-max", "1", "--samples", "3", "--out", "b.csv"]) == 0
assert "scipy.sparse" in sys.modules
deferred = ("scipy.stats", "scipy.integrate", "scipy.optimize")
assert not [m for m in deferred if m in sys.modules]
assert main(["rates", "--samples", "3", "--out", "r.csv"]) == 0
assert "scipy.integrate" in sys.modules
assert "scipy.stats" not in sys.modules
"""


def run_fresh(probe, cwd, *argv):
    """Run probe in a fresh interpreter: this test process already holds
    scipy."""
    src = str(pathlib.Path(becsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_imports_only_what_runs(tmp_path):
    run_fresh(IMPORT_PROBE, tmp_path)


PATH_PROBE = """
import sys
from becsim.cli import main

assert main(sys.argv[1:] + ["--out", "out.csv"]) == 0
print(*sorted({"scipy.integrate", "scipy.sparse", "scipy.sparse.csgraph",
               "scipy.sparse.linalg"} & set(sys.modules)))
"""

DOP853_MODULES = "scipy.integrate scipy.sparse scipy.sparse.linalg"


@pytest.mark.parametrize("argv,modules", [
    # dimension <= 64 and not diagonal: the adaptive DOP853 path
    (["fig4a", "--samples", "3"], DOP853_MODULES),
    (["fig4c", "--N", "2"], DOP853_MODULES),
    # dimension 100: the exact path on the Liouvillian's components
    (["fig4a", "--N", "9", "--samples", "3"],
     "scipy.sparse scipy.sparse.csgraph scipy.sparse.linalg"),
    # dense (sector, sector) blocks built from the model: no scipy
    (["fig4d", "--N-max", "1"], ""),
], ids=["fig4a-dop853", "fig4c-dop853", "fig4a-exact", "fig4d"])
def test_master_equation_paths_import(argv, modules, tmp_path):
    out = run_fresh(PATH_PROBE, tmp_path, *argv)
    assert out.splitlines()[-1] == modules


def test_unread_config_key_accepted(tmp_path):
    # one file may serve several commands
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("omega = 3\nsamples = 5\n")
    out = tmp_path / "deutsch.csv"
    assert main(["deutsch", "--config", str(cfg), "--N", "2",
                 "--out", str(out)]) == 0


def test_benchmark_argv_accepted(monkeypatch):
    spec = importlib.util.spec_from_file_location("operations", OPERATIONS)
    operations = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "operations", operations)
    spec.loader.exec_module(operations)
    argvs = [op.argv for ops in operations.WORKLOADS.values() for op in ops
             if op.argv]
    assert {argv[0] for argv in argvs} >= {"fig4d", "fig4c", "fig2a"}
    for argv in argvs:
        params = resolve_params(_build_parser().parse_args(
            list(argv) + ["--out", "x.csv"]))
        assert params["out"] == "x.csv"


def test_fig2a_writes_entropy_curve(tmp_path):
    out = tmp_path / "f2a.csv"
    assert main(["fig2a", "--N", "2", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[0] == "omega_t"
    assert len(rows) > 10
    bits = [float(r[1]) for r in rows]
    assert max(bits) > 1.0   # exceeds one bit near omega t = pi/4


def test_fig2a_past_float_range_of_two_to_the_n(tmp_path):
    out = tmp_path / "f2a.csv"
    assert main(["fig2a", "--N", "1024", "--samples", "2",
                 "--out", str(out)]) == 0
    assert len(read_csv(out)[1]) == 2


def test_fig2b_flatness_report(tmp_path, capsys):
    out = tmp_path / "f2b.csv"
    assert main(["fig2b", "--N-max", "6", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["N", "entropy_bits"]
    assert len(rows) == 6
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)


def test_fig4a_runs_small(tmp_path):
    out = tmp_path / "f4a.csv"
    assert main(["fig4a", "--N", "2", "--samples", "201",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[0] == "t"
    assert len(rows) == 201


def test_fig4a_time_follows_abs_omega(tmp_path, capsys):
    # a negative coupling runs the same gate, with the default period and
    # the omega t = pi/2 readout taken at |omega|
    texts, tables = [], []
    for omega in ("1", "-1"):
        out = tmp_path / ("f4a%s.csv" % omega)
        assert main(["fig4a", "--N", "2", "--omega", omega, "--samples", "201",
                     "--out", str(out)]) == 0
        texts.append(capsys.readouterr().out)
        tables.append(np.loadtxt(out, delimiter=",", skiprows=1))
    assert texts[0] == texts[1]
    np.testing.assert_allclose(tables[1], tables[0], rtol=0, atol=1e-12)


def test_fig4a_zero_duration(tmp_path):
    # the DOP853 engine (N = 4) stays at the start state on every sample
    out = tmp_path / "f4a.csv"
    assert main(["fig4a", "--t-end", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert {float(r[0]) for r in rows} == {0.0}
    assert {float(r[1]) for r in rows} == {1.0}


def test_fig4a_short_record_reports_no_quarter_period_reading(tmp_path,
                                                              capsys):
    # omega t = pi/2 lies past t_end = 0.5: no sample of the record is the
    # quarter-period readout, and the summary must not print one
    out = tmp_path / "f4a.csv"
    assert main(["fig4a", "--N", "2", "--samples", "51", "--t-end", "0.5",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "the record ends before omega t = pi/2" in text
    assert "|signal| at" not in text
    assert "PASS: record healthy" in text
    # a record that reaches pi/2 reads the signal at the sample nearest it
    # (t = 1.6 of 0, 0.032, ..., 1.6) and prints that sample's omega t
    assert main(["fig4a", "--N", "2", "--samples", "51", "--t-end", "1.6",
                 "--out", str(out)]) == 0
    assert ("|signal| at omega t = 1.5680 (sample nearest pi/2): "
            in capsys.readouterr().out)


def test_fig4a_two_samples_report_the_sample_read(tmp_path, capsys):
    # on the grid (0, 2 pi) the sample nearest pi/2 is t = 0, where the
    # start state reads 1; the summary names that omega t, not pi/2
    out = tmp_path / "f4a.csv"
    assert main(["fig4a", "--N", "2", "--samples", "2",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert ("|signal| at omega t = 0.0000 (sample nearest pi/2): 1.00000"
            in text)
    assert "PASS: record healthy" in text
    assert len(read_csv(out)[1]) == 2


def test_fig4b_error_column_monotone(tmp_path, capsys):
    out = tmp_path / "f4b.csv"
    assert main(["fig4b", "--N-max", "3", "--out", str(out)]) == 0
    assert "PASS: error at t=pi/4N decreases with N" in capsys.readouterr().out


def test_fig4b_time_follows_abs_omega(tmp_path):
    # omega = 2 at time t is omega = 1 with half the dephasing rate at 2t
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["fig4b", "--N-max", "3", "--omega", "2",
                 "--out", str(a)]) == 0
    assert main(["fig4b", "--N-max", "3", "--gamma", "0.005",
                 "--out", str(b)]) == 0
    fast = np.loadtxt(a, delimiter=",", skiprows=1)
    slow = np.loadtxt(b, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(fast[:, 0], slow[:, 0])
    np.testing.assert_allclose(fast[:, 1], slow[:, 1] / 2, rtol=1e-15)
    np.testing.assert_allclose(fast[:, 2], slow[:, 2], rtol=0, atol=1e-12)


def test_fig4d_writes_the_api_default_errors(tmp_path):
    # one photon-cutoff default: the command passes none of its own
    out = tmp_path / "f4d.csv"
    main(["fig4d", "--N-max", "1", "--out", str(out)])
    header, rows = read_csv(out)
    assert header == ["N", "t", "error"]
    res = channels.run_fig4d(1)
    assert [float(r[1]) for r in rows] == res.times.tolist()
    assert [float(r[2]) for r in rows] == res.errors.tolist()


def test_fig4c_envelope_check(tmp_path, capsys):
    out = tmp_path / "f4c.csv"
    assert main(["fig4c", "--N", "2", "--samples", "3001",
                 "--out", str(out)]) == 0
    assert "PASS: fitted decay within 25%" in capsys.readouterr().out


def test_deutsch_all_oracles(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["deutsch", "--N", "4"]) == 0
    text = capsys.readouterr().out
    for oracle in ("const00", "const11", "bal01", "bal10"):
        assert oracle in text


def test_rates_csv_and_exit(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--t-end", "5", "--samples", "11",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "Na", "Nb"]
    na = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(na, na[1:]))


def test_schedule_from_file(tmp_path):
    sched = tmp_path / "sched.txt"
    sched.write_text("term 0.5 1:z 2:z ; 0.4\n")
    out = tmp_path / "sched.csv"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("schedule = %s\nN = 3\n" % sched)
    assert main(["schedule", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["site", "sx_over_n", "sy_over_n", "sz_over_n"]
    assert len(rows) == 2


@pytest.mark.parametrize("line", [
    "term 1 1:z 2:z ; nan",
    "term inf 1:x ; 1.0",
    "term 1 1:x ; inf",
    "term 1 1:z 2:z ; 1e308",   # finite, but the phases overflow
])
def test_schedule_non_finite_exits_1(line, tmp_path, capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text(line + "\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("schedule = %s\n" % sched)
    out = tmp_path / "sched.csv"
    with np.errstate(all="ignore"):
        assert main(["schedule", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if "1e308" not in line:
        assert "line 1: coefficient and time must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("term abc 1:z ; 1", "could not convert string to float"),
    ("term 1 a:z ; 1", "invalid literal for int()"),
    ("term 1 1:q ; 1", "unknown axis 'q'"),
    ("term 1 1:z 1:x ; 1", "at most one factor per site"),
    ("term 1 1:z ; -1", "time must be >= 0"),
    ("term 1 0:z ; 1", "sites are 1-based"),
])
def test_schedule_parse_errors_name_the_line(line, message, tmp_path,
                                              capsys):
    sched = tmp_path / "sched.txt"
    sched.write_text("# a comment line\nterm 1 1:z ; 0.5\n" + line + "\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("schedule = %s\n" % sched)
    out = tmp_path / "sched.csv"
    assert main(["schedule", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: line 3: " + message in capsys.readouterr().err
    assert not out.exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("N = 5  # comment\n\nsamples = 101\n")
    out = tmp_path / "f4a.csv"
    # flag overrides config
    assert main(["fig4a", "--config", str(cfg), "--N", "1",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 101


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("atoms = 5\n")
    assert main(["deutsch", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("N = five\n")
    assert main(["deutsch", "--config", str(cfg)]) == 1


def test_non_utf8_config_file_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"N = 3\n\xff\n")
    out = tmp_path / "f4a.csv"
    assert main(["fig4a", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_1(tmp_path):
    assert main(["deutsch", "--config", str(tmp_path / "nope.txt")]) == 1


def test_parse_config_file_types(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("N = 4\ngamma = 0.25\naxis = caption\n")
    params = parse_config_file(str(cfg))
    assert params == {"N": 4, "gamma": 0.25, "axis": "caption"}


def test_selftest_exits_0(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["selftest"]) == 0
    text = capsys.readouterr().out
    assert "all checks passed" in text
    assert "FAIL" not in text


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["fig4b", "--N-max", "2", "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()
