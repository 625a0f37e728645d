"""Gate schedules, qubit-to-BEC mapping, and Deutsch's algorithm."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from becsim import lindblad, schedules
from becsim.errors import CapacityError
from becsim.registers import (BecRegister, apply_zz, plus_x_state,
                              register_fidelity, tensor)
from becsim.schedules import (
    ORACLE_IDS,
    DeutschOracle,
    GateStep,
    SpinProductTerm,
    format_schedule,
    map_qubit_schedule,
    parse_schedule,
    run_deutsch,
    run_schedule,
    step_hamiltonian,
)


def test_term_rejects_duplicate_site():
    with pytest.raises(ValueError):
        SpinProductTerm(1.0, ((0, "z"), (0, "x")))


def test_term_rejects_unknown_axis():
    with pytest.raises(ValueError):
        SpinProductTerm(1.0, ((0, "q"),))


def test_gate_step_rejects_negative_time():
    with pytest.raises(ValueError):
        GateStep((), -0.1)


def test_step_hamiltonian_rejects_noncommuting_terms():
    step = GateStep(
        (SpinProductTerm(1.0, ((0, "x"),)), SpinProductTerm(1.0, ((0, "z"),))),
        0.1)
    with pytest.raises(ValueError) as dense:
        step_hamiltonian(step, (2,))
    with pytest.raises(ValueError) as run:
        run_schedule(tensor([plus_x_state(2)]), [step])
    assert str(run.value) == str(dense.value)


def test_step_hamiltonian_holds_the_density_matrix_ceiling(monkeypatch):
    # the commutation check's operands are joint-sized dense matrices, so
    # the joint dimension is refused before any of them is built
    monkeypatch.setattr(lindblad, "MAX_DENSITY_DIM", 16)
    step = GateStep(
        (SpinProductTerm(1.0, ((0, "x"),)), SpinProductTerm(1.0, ((0, "z"),))),
        0.1)

    def build_nothing(*args):
        raise AssertionError("a joint matrix built past the ceiling")
    with monkeypatch.context() as patch:
        patch.setattr(schedules, "kron_product", build_nothing)
        with pytest.raises(CapacityError, match="ceiling 16"):
            step_hamiltonian(step, (4, 4))
    # 16 itself passes and reaches the commutation check
    with pytest.raises(ValueError, match="non-commuting"):
        step_hamiltonian(step, (3, 3))


def test_run_schedule_matches_diagonal_gate():
    n = 3
    wt = 0.4
    reg = tensor([plus_x_state(n), plus_x_state(n)])
    step = GateStep((SpinProductTerm(1.0, ((0, "z"), (1, "z"))),), wt)
    out = run_schedule(reg, [step])
    assert register_fidelity(out, apply_zz(reg, 0, 1, wt)) == pytest.approx(
        1.0, abs=1e-12)


def dense_schedule(reg, steps):
    """Oracle: exponentiate each step's dense Hamiltonian by eigh."""
    amps = reg.amps
    for step in steps:
        evals, evecs = np.linalg.eigh(step_hamiltonian(step, reg.site_n))
        amps = evecs @ (np.exp(-1j * step.time * evals)
                        * (evecs.conj().T @ amps))
    return amps


@st.composite
def one_axis_schedules(draw):
    """Random register and steps that keep one axis per site in each step."""
    site_n = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = math.prod(n + 1 for n in site_n)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        axes = draw(st.lists(st.sampled_from("xyz"), min_size=len(site_n),
                             max_size=len(site_n)))
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            sites = draw(st.lists(st.integers(0, len(site_n) - 1),
                                  unique=True, max_size=len(site_n)))
            factors = tuple((s, draw(st.sampled_from((axes[s], "I"))))
                            for s in sites)
            terms.append(SpinProductTerm(draw(st.floats(-2.0, 2.0)), factors))
        steps.append(GateStep(tuple(terms), draw(st.floats(0.0, 2.0))))
    return BecRegister(site_n, amps / np.linalg.norm(amps)), steps


@settings(max_examples=60, deadline=None)
@given(one_axis_schedules())
def test_run_schedule_matches_dense_oracle(case):
    reg, steps = case
    assert np.max(np.abs(run_schedule(reg, steps).amps
                         - dense_schedule(reg, steps))) < 1e-10


def test_run_schedule_commuting_mixed_axes_single_atoms():
    # for N = 1, XX, YY and ZZ commute: one step with three axes per site
    rng = np.random.default_rng(7)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    reg = BecRegister((1, 1), amps / np.linalg.norm(amps))
    steps = [GateStep(tuple(SpinProductTerm(c, ((0, a), (1, a)))
                            for c, a in ((0.3, "x"), (-0.7, "y"), (1.1, "z"))),
                      0.9),
             GateStep((SpinProductTerm(0.5, ((1, "y"),)),), 0.4)]
    assert np.max(np.abs(run_schedule(reg, steps).amps
                         - dense_schedule(reg, steps))) < 1e-10


def test_run_schedule_rejects_site_outside_register():
    step = GateStep((SpinProductTerm(1.0, ((0, "z"), (5, "x"))),), 0.1)
    reg = tensor([plus_x_state(2), plus_x_state(2)])
    with pytest.raises(ValueError, match="site index 5.* 2 site"):
        run_schedule(reg, [step])


def test_deutsch_diagonalizes_nothing_register_sized(monkeypatch):
    # the oracle terms are products of Sz: no eigh larger than one site
    sizes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    assert run_deutsch(DeutschOracle("bal01", 30))[0] == "balanced"
    assert all(n <= 31 for n in sizes)


def test_map_qubit_schedule_scaling():
    steps = [GateStep(
        (SpinProductTerm(0.5, ((0, "z"),)),
         SpinProductTerm(2.0, ((0, "z"), (1, "z")))), 1.2)]
    mapped = map_qubit_schedule(steps, 10)
    assert mapped[0].time == pytest.approx(0.12)
    assert mapped[0].terms[0].coeff == pytest.approx(5.0)    # single-site x N
    assert mapped[0].terms[1].coeff == pytest.approx(2.0)    # two-site kept


def test_map_qubit_schedule_rejects_high_order():
    steps = [GateStep(
        (SpinProductTerm(1.0, ((0, "z"), (1, "z"), (2, "z"))),), 0.1)]
    with pytest.raises(ValueError):
        map_qubit_schedule(steps, 4)


def test_schedule_text_round_trip():
    steps = [
        GateStep((SpinProductTerm(0.25, ((0, "z"), (1, "z"))),), 0.7),
        GateStep((SpinProductTerm(-1.5, ((1, "x"),)),), 0.3),
    ]
    parsed = parse_schedule(format_schedule(steps))
    assert parsed == steps


def test_parse_schedule_rejects_malformed():
    with pytest.raises(ValueError):
        parse_schedule("step 1.0 1:z ; 0.5\n")
    with pytest.raises(ValueError):
        parse_schedule("term 1.0 1:z 0.5\n")


def test_parse_schedule_ignores_comments_and_blanks():
    steps = parse_schedule("# header\n\nterm 1.0 1:z 2:z ; 0.5  # inline\n")
    assert len(steps) == 1
    assert steps[0].time == pytest.approx(0.5)


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_deutsch_classification(oracle_id, n):
    oracle = DeutschOracle(oracle_id, n)
    classification, readout = run_deutsch(oracle)
    expected = "constant" if oracle_id.startswith("const") else "balanced"
    assert classification == expected
    assert abs(readout) >= 1.0 - 1e-9


def test_deutsch_single_query():
    # the whole oracle is one schedule step: one Hamiltonian application
    assert len(DeutschOracle("bal01", 5).steps()) == 1


def test_deutsch_rejects_unknown_oracle():
    with pytest.raises(ValueError):
        DeutschOracle("bal11", 3)
