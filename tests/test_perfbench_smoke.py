"""The benchmark's tracer still finds every becsim name it wraps.

perfbench/tracing.py wraps functions, methods and kernels by name when it
is imported and installed; a refactor that deletes or renames one of them
breaks the benchmark.  This imports the benchmark modules, installs the
tracer, checks the wrapped methods keep the signatures its hooks rely on,
and restores every name.  perfbench/operations.py reads its `becsim.<name>`
and `channels.<name>` attributes only when an operation runs, so those are
checked from its source, and the two fast workloads are run against
perfbench/reference.json.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import pathlib
import sys

import numpy as np
import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load("tracing")
    operations = _load("operations")
    assert set(operations.WORKLOADS) == {"cavity_bus", "rabi_rk",
                                         "sparse_expm", "pure_gates"}
    from becsim import atomloss, lindblad, registers, schedules, spin
    originals = {module: dict(vars(module))
                 for module in (atomloss, lindblad, registers, schedules,
                                spin)}
    wrapped = ((lindblad, "propagate"), (schedules, "step_hamiltonian"),
               (schedules, "run_schedule"),
               (registers, "entangled_state_analytic"),
               (spin, "make_coherent"), (lindblad, "solve_ivp"),
               (atomloss, "solve_ivp"), (lindblad, "linregress"))
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    model = lindblad.LindbladModel(np.diag([0.0, 1.0]) + 0.3 * (sm + sm.T),
                                   ((sm, 0.2),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer._patches
        for module, name in wrapped:
            assert vars(module)[name] is not originals[module][name], name
        record = lindblad.integrate_master(model, np.eye(2) / 2, 1.0, 5)
    finally:
        tracer.uninstall()
    assert record.meta["method"] == "rk"
    stats = tracer.span_stats()
    assert tracer.value("linalg.solve_ivp.calls", stats) == 1
    assert tracer.value("linalg.solve_ivp.nfev", stats) > 0
    for module, before in originals.items():
        assert all(vars(module)[k] is v for k, v in before.items())

    prop = lindblad.SectorPropagator
    assert list(inspect.signature(prop.block_eig).parameters) == \
        ["self", "i", "j"]
    assert list(inspect.signature(prop.evolve_block).parameters) == \
        ["self", "x", "i", "j", "t"]
    assert list(inspect.signature(prop.observable_blocks).parameters) == \
        ["self", "operator"]


def test_operations_names_resolve():
    tree = ast.parse((PERFBENCH / "operations.py").read_text("utf-8"))
    modules = {"becsim": importlib.import_module("becsim"),
               "channels": importlib.import_module("becsim.channels")}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("becsim", "integrate_master") in read
    assert ("channels", "loss_spin_operator") in read
    missing = sorted("%s.%s" % key for key in read
                     if not hasattr(modules[key[0]], key[1]))
    assert not missing, missing


def test_tracer_sees_one_eig_per_folded_pair():
    # the echo diagonalizes each folded (i, j) pair's Liouvillian component
    # once and reverses with the conjugate; the per-layer counters must
    # still see every eig, and none through SectorPropagator
    tracing = _load("tracing")
    from becsim import channels, lindblad
    model, basis = channels.build_cavity_model(1, 10.0, 1.0, 1.0, 1.0, 1, 2)
    pairs = set(lindblad.SectorPropagator(model).observable_blocks(
        channels.cavity_sx1(basis)))
    folded = [(i, j) for i, j in pairs if not (i > j and (j, i) in pairs)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        channels.run_fig4d(1, n_ph_max=1, convergence_check=False)
    finally:
        tracer.uninstall()
    stats = tracer.span_stats()
    assert tracer.value("lindblad.block_eig.calls", stats) == 0
    assert tracer.value("linalg.eig.calls", stats) == len(folded)
    assert tracer.value("linalg.eig.work_n3", stats) > 0


@pytest.mark.parametrize("workload", ["pure_gates", "sparse_expm"])
def test_operations_match_reference(workload, tmp_path):
    # the benchmark's script operations call the public API directly, so an
    # API change that breaks one, or moves a pinned number, shows here; the
    # slower cavity_bus and rabi_rk workloads are left to the benchmark
    operations = _load("operations")
    reference = json.loads((PERFBENCH / "reference.json").read_text("utf-8"))
    for op in operations.WORKLOADS[workload]:
        _, outcome = op.run(tmp_path)
        assert operations.compare(outcome, reference[op.name]) == [], op.name
