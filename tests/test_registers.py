"""Multi-site registers: entangling gate, entropy, cat decomposition."""

import cmath
import math

import numpy as np
import pytest

from becsim import registers
from becsim.cli import main
from becsim.errors import CapacityError, NumericalIntegrityError
from becsim.registers import (
    BecRegister,
    DensityMatrix,
    apply_zz,
    cat_decomposition,
    cat_decomposition_check,
    entangled_state_analytic,
    entangler_reduced_state,
    entanglement_entropy,
    entropy,
    partial_trace,
    plus_x_state,
    register_fidelity,
    tensor,
)
from becsim.spin import CoherentParams, make_coherent, make_fock


def two_site_plus_x(n1, n2):
    return tensor([plus_x_state(n1), plus_x_state(n2)])


def test_plus_x_state_uniform_binomial():
    n = 6
    s = plus_x_state(n)
    expected = np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    expected /= math.sqrt(2.0 ** n)
    assert np.max(np.abs(s.amps - expected)) < 1e-12


def test_tensor_ordering_site0_slowest():
    a = make_fock(1, 1)          # |k=1> on a 2-dim site
    b = make_fock(0, 2)          # |k=0> on a 3-dim site
    reg = tensor([a, b])
    assert reg.dims == (2, 3)
    idx = np.flatnonzero(np.abs(reg.amps) > 0)
    assert list(idx) == [1 * 3 + 0]


def test_register_capacity_guard():
    with pytest.raises(CapacityError):
        BecRegister((4000, 4000), np.zeros(2))


def test_apply_zz_phases_by_hand():
    # exp(-i wt Sz Sz) on |k1 k2>: phase (2k1-N1)(2k2-N2) wt
    reg = two_site_plus_x(2, 1)
    wt = 0.37
    out = apply_zz(reg, 0, 1, wt)
    tens_in = reg.as_tensor()
    tens_out = out.as_tensor()
    for k1 in range(3):
        for k2 in range(2):
            phase = cmath.exp(-1j * wt * (2 * k1 - 2) * (2 * k2 - 1))
            assert abs(tens_out[k1, k2] - phase * tens_in[k1, k2]) < 1e-12


@pytest.mark.parametrize("n1,n2", [(1, 1), (3, 3), (4, 7), (12, 5)])
def test_entangled_state_analytic_matches_gate(n1, n2):
    for wt in (0.1, math.pi / 8, math.pi / 4):
        gate = apply_zz(two_site_plus_x(n1, n2), 0, 1, wt)
        closed = entangled_state_analytic(n1, n2, wt)
        assert register_fidelity(gate, closed) == pytest.approx(1.0, abs=1e-12)


def branch_oracle(n1, n2, omega_t):
    """Site 2 over its Fock basis, one site-1 coherent branch per |k2>."""
    amps = np.zeros((n1 + 1, n2 + 1), dtype=complex)
    w2 = [math.sqrt(math.comb(n2, k) / 2 ** n2) for k in range(n2 + 1)]
    r = 1 / math.sqrt(2)
    for k2 in range(n2 + 1):
        chi = (n2 - 2 * k2) * omega_t
        branch = make_coherent(CoherentParams(r * cmath.exp(1j * chi),
                                              r * cmath.exp(-1j * chi), n1))
        amps[:, k2] = w2[k2] * branch.amps
    return amps.reshape(-1)


@pytest.mark.parametrize("n1,n2", [(1, 1), (3, 7), (20, 11), (50, 50),
                                   (200, 200)])
def test_entangled_state_analytic_matches_branch_oracle(n1, n2, monkeypatch):
    oracle = {wt: branch_oracle(n1, n2, wt)
              for wt in (0.0, 0.15, math.pi / 4, math.pi / 2, 2.7)}
    calls = []
    monkeypatch.setattr(registers, "make_coherent",
                        lambda p: calls.append(p) or make_coherent(p))
    for wt, amps in oracle.items():
        closed = entangled_state_analytic(n1, n2, wt)
        assert np.max(np.abs(closed.amps - amps)) < 1e-12
    assert not calls


def test_closed_forms_past_float_range_of_two_to_the_n():
    # 2**1100 overflows a float; the weights are taken in log space
    for reg in (entangled_state_analytic(1, 1100, 0.1),
                cat_decomposition(1100)):
        assert np.sum(np.abs(reg.amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(reg.amps))


def test_entangler_single_atom_quarter_period():
    # N=1 at wt=pi/4: amplitudes e^{-i pi/4 m1 m2}/2 with m = +-1
    reg = entangled_state_analytic(1, 1, math.pi / 4)
    expected = np.array(
        [cmath.exp(-1j * math.pi / 4), cmath.exp(1j * math.pi / 4),
         cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)]) / 2.0
    phase = expected[0] / reg.amps.reshape(-1)[0]
    assert np.max(np.abs(reg.amps * phase - expected)) < 1e-12


def test_entropy_one_bit_single_atoms():
    reg = entangled_state_analytic(1, 1, math.pi / 4)
    res = entanglement_entropy(reg)
    assert res == pytest.approx(1.0, abs=1e-12)


def test_entropy_zero_for_product_state():
    res = entanglement_entropy(two_site_plus_x(4, 4))
    assert res == pytest.approx(0.0, abs=1e-10)


def test_entropy_symmetric_between_sites():
    reg = entangled_state_analytic(3, 5, 0.3)
    assert entanglement_entropy(reg, 0) == pytest.approx(
        entanglement_entropy(reg, 1), abs=1e-10)


def test_partial_trace_properties():
    reg = entangled_state_analytic(4, 4, 0.2)
    rho = partial_trace(reg, 0)
    assert rho.dim == 5
    w = rho.eigenvalues()
    assert np.all(w >= -1e-10)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-10)


def schmidt_weights(reg):
    """Squared singular values of the (site 1 | site 2) amplitude matrix."""
    return np.linalg.svd(reg.as_tensor(), compute_uv=False) ** 2


def test_schmidt_weights_sum_to_one():
    # the SVD of the amplitudes is an oracle independent of partial_trace
    reg = entangled_state_analytic(6, 2, 0.7)
    w = schmidt_weights(reg)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-10)
    assert entropy(partial_trace(reg, 0)) == pytest.approx(
        float(-(w[w > 1e-15] * np.log2(w[w > 1e-15])).sum()), abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_cat_decomposition_fidelity(n):
    assert cat_decomposition_check(n) >= 1.0 - 1e-9


def test_cat_decomposition_two_branches():
    reg = cat_decomposition(4)
    # site-1 reduced state of the pi/4 entangled state has two dominant
    # Schmidt branches (the +-y coherent pair)
    w = np.sort(schmidt_weights(entangled_state_analytic(4, 4, math.pi / 4)))
    assert w[-1] + w[-2] == pytest.approx(1.0, abs=1e-9)
    assert reg.site_n == (4, 4)


def test_density_matrix_validation():
    with pytest.raises(NumericalIntegrityError):
        DensityMatrix(np.diag([0.7, 0.7]))
    bad = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(NumericalIntegrityError):
        DensityMatrix(bad)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2, 3) / 2)


def test_density_matrix_keeps_real_input_real():
    # real input skips the complex cast; the checks still apply to it
    rho = DensityMatrix(np.array([[0.75, 0.25], [0.25, 0.25]]))
    assert rho.entries.dtype == np.float64
    assert DensityMatrix(np.eye(2, dtype=int) / 2).entries.dtype == np.float64
    assert DensityMatrix(np.eye(2) / 2 + 0j).entries.dtype == np.complex128
    with pytest.raises(NumericalIntegrityError):   # asymmetric
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(NumericalIntegrityError):   # NaN trace
        DensityMatrix(np.diag([np.nan, 0.5]))
    with pytest.raises(NumericalIntegrityError):   # NaN off the diagonal
        DensityMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))
    with pytest.raises(NumericalIntegrityError):   # eigenvalue -0.5
        entropy(DensityMatrix(np.diag([1.5, -0.5])))


def test_reduced_state_matches_partial_trace_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n1, n2 = rng.choice(np.arange(1, 41), size=2, replace=False)
        wt = rng.uniform(-50.0, 50.0)
        oracle = partial_trace(entangled_state_analytic(n1, n2, wt), 0)
        rho = entangler_reduced_state(n1, n2, wt)
        assert rho.entries.dtype == np.float64
        assert np.max(np.abs(rho.entries - oracle.entries)) <= 1e-13
        assert entropy(rho) == pytest.approx(entropy(oracle), abs=1e-12)


@pytest.mark.parametrize("n", [100, 1024])
def test_reduced_state_at_zero_phase_is_pure(n):
    # the product state: renormalizing the trace keeps E below 1e-14
    rho = entangler_reduced_state(n, n, 0.0)
    assert abs(np.trace(rho.entries) - 1.0) <= 1e-15
    assert entropy(rho) <= 1e-14


def test_reduced_state_capacity_guard():
    with pytest.raises(CapacityError):
        entangler_reduced_state(4000, 4000, 0.1)


def read_rows(path):
    return [[float(v) for v in line.split(",")]
            for line in path.read_text().splitlines()[1:]]


def test_fig2_csvs_match_register_path(tmp_path):
    out = tmp_path / "f2a.csv"
    assert main(["fig2a", "--N", "30", "--samples", "41", "--t-end", "3",
                 "--out", str(out)]) == 0
    for wt, bits, max_bits in read_rows(out):
        reg = entangled_state_analytic(30, 30, wt)
        assert bits == pytest.approx(entanglement_entropy(reg), abs=1e-12)
        assert max_bits == math.log2(31)
    out = tmp_path / "f2b.csv"
    assert main(["fig2b", "--N-max", "30", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [n for n, _ in rows] == list(range(1, 31))
    for n, bits in rows:
        reg = entangled_state_analytic(int(n), int(n), math.pi / (4.0 * n))
        assert bits == pytest.approx(entanglement_entropy(reg), abs=1e-12)


@pytest.mark.parametrize("t_end", ["1e300", "1e308"])
def test_fig2a_huge_phase_stays_a_state(t_end, tmp_path):
    # the phase is reduced mod pi before it is doubled, so it stays finite
    out = tmp_path / "f2a.csv"
    assert main(["fig2a", "--t-end", t_end, "--samples", "3",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    assert all(0.0 <= bits <= math.log2(11) for _, bits, _ in rows)


def test_fig2a_builds_no_joint_register(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("joint register built")
    monkeypatch.setattr(registers, "entangled_state_analytic", refuse)
    monkeypatch.setattr(registers, "BecRegister", refuse)
    assert main(["fig2a", "--N", "50", "--samples", "5",
                 "--out", str(tmp_path / "f2a.csv")]) == 0
    assert main(["fig2b", "--N-max", "5",
                 "--out", str(tmp_path / "f2b.csv")]) == 0


def test_register_fidelity_phase_invariant():
    reg = two_site_plus_x(2, 2)
    shifted = BecRegister(reg.site_n, reg.amps * cmath.exp(0.4j))
    assert register_fidelity(reg, shifted) == pytest.approx(1.0, abs=1e-12)


def test_entropy_short_gate_reaches_gaussian_limit():
    # omega t = pi/4N: site 1 becomes a Gaussian mode with symplectic
    # eigenvalue nu = sqrt(1 + pi^2/4) as N grows (the criterion 4 anchor)
    nu = math.sqrt(1.0 + math.pi ** 2 / 4.0)
    up, down = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    e_inf = up * math.log2(up) - down * math.log2(down)
    reg = entangled_state_analytic(50, 50, math.pi / 200)
    assert entanglement_entropy(reg) == pytest.approx(e_inf, abs=1e-4)
