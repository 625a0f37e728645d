"""Single-site spin algebra, coherent states, overlaps, rotations."""

import cmath
import math

import numpy as np
import pytest

from becsim.registers import register_fidelity, tensor
from becsim.schedules import parse_schedule, run_schedule
from becsim.spin import (
    CoherentParams,
    half_weights,
    log_binomial,
    make_coherent,
    make_fock,
    overlap_analytic,
    overlap_numeric,
    spin_operator,
)

EPS = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}


def mean_spin(amps, n):
    """(<Sx>, <Sy>, <Sz>) and Var(Sz) of one site's amplitudes."""
    mean = [np.vdot(amps, spin_operator(a, n) @ amps).real for a in "xyz"]
    sz = spin_operator("z", n)
    return np.array(mean), np.vdot(amps, sz @ sz @ amps).real - mean[2] ** 2


def test_half_weights_match_exact_small_n():
    for n in range(12):
        exact = [math.sqrt(math.comb(n, k) / 2 ** n) for k in range(n + 1)]
        assert half_weights(n) == pytest.approx(exact, rel=1e-13, abs=0)


def test_half_weights_match_exact_through_fig2b_range():
    # fig2b sweeps N up to 200; math.lgamma's log-factorials hold ~2e-13
    for n in range(201):
        exact = [math.sqrt(math.comb(n, k) / 2 ** n) for k in range(n + 1)]
        assert half_weights(n) == pytest.approx(exact, rel=1e-12, abs=0)


def test_half_weights_large_n_no_overflow():
    # C(5000, k) and 2^5000 overflow a double; their ratio does not
    n = 5000
    w = half_weights(n)
    assert w.shape == (n + 1,) and np.all(np.isfinite(w))
    # log(5000!) ~ 3.8e4 is held to ~7e-12, its spacing, in log space
    assert np.sum(w ** 2) == pytest.approx(1.0, abs=1e-10)
    for k in (2300, 2500, 2501, 2700):
        exact = math.sqrt(math.comb(n, k) / 2 ** n)
        assert w[k] == pytest.approx(exact, rel=1e-10)


def test_log_binomial_large_n_no_overflow():
    val = log_binomial(400, 200)
    assert np.isfinite(val)
    assert val == pytest.approx(
        math.lgamma(401) - 2 * math.lgamma(201), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_commutators_factor_two_convention(n):
    ops = {a: spin_operator(a, n) for a in "xyz"}
    for (a, b), c in EPS.items():
        comm = ops[a] @ ops[b] - ops[b] @ ops[a]
        assert np.max(np.abs(comm - 2j * ops[c])) < 1e-10


@pytest.mark.parametrize("n", [1, 3, 10])
def test_casimir(n):
    total = sum(
        spin_operator(a, n) @ spin_operator(a, n) for a in "xyz")
    assert np.max(np.abs(total - n * (n + 2) * np.eye(n + 1))) < 1e-10


def test_spin_operators_hermitian():
    for a in "xyz":
        m = spin_operator(a, 7)
        assert np.max(np.abs(m - m.conj().T)) == 0.0


def _spin_closed_form(axis, n):
    """<k+1| a+b |k> = sqrt((k+1)(N-k)), S^z = 2k - N: the oracle."""
    k = np.arange(n + 1)
    mat = np.zeros((n + 1, n + 1), dtype=complex)
    up = np.sqrt((k[:-1] + 1.0) * (n - k[:-1]))
    if axis == "x":
        mat[k[:-1] + 1, k[:-1]] = up
        mat[k[:-1], k[:-1] + 1] = up
    elif axis == "y":
        mat[k[:-1] + 1, k[:-1]] = -1j * up
        mat[k[:-1], k[:-1] + 1] = 1j * up
    elif axis == "z":
        mat[k, k] = 2 * k - n
    else:
        mat[k, k] = 1.0
    return mat


def test_spin_operator_matches_closed_form_bitwise():
    for n in range(1, 31):
        for axis in "xyzI":
            got = spin_operator(axis, n)
            want = _spin_closed_form(axis, n)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (axis, n)
    for bad in ("0", "w"):
        with pytest.raises(ValueError):
            spin_operator(bad, 3)
    with pytest.raises(ValueError):
        spin_operator("x", 0)


def test_fock_state_is_sz_eigenstate():
    n = 6
    for k in range(n + 1):
        s = make_fock(k, n)
        sz = spin_operator("z", n)
        # k bosons in mode a: eigenvalue 2k - N
        assert np.max(np.abs(sz @ s.amps - (2 * k - n) * s.amps)) < 1e-12


def test_coherent_amplitudes_binomial_form():
    n = 9
    theta, phi = 1.1, 2.3
    p = CoherentParams.from_angles(theta, phi, n)
    s = make_coherent(p)
    k = np.arange(n + 1)
    expected = (np.sqrt([math.comb(n, j) for j in k])
                * np.cos(theta / 2) ** k
                * (np.sin(theta / 2) * cmath.exp(1j * phi)) ** (n - k))
    assert np.max(np.abs(s.amps - expected)) < 1e-12


def test_coherent_state_normalized():
    for n in (1, 8, 40):
        s = make_coherent(CoherentParams.from_angles(0.7, 5.0, n))
        assert np.sum(np.abs(s.amps) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 4, 100])
def test_coherent_states_at_the_poles(n):
    # alpha = 0 or beta = 0 leaves one Fock amplitude (0^0 = 1), under the
    # suite's RuntimeWarning filter
    north, south = CoherentParams(1, 0, n), CoherentParams(0, 1, n)
    assert np.array_equal(make_coherent(north).amps, make_fock(n, n).amps)
    assert np.array_equal(make_coherent(south).amps, make_fock(0, n).amps)
    for phi in (0.0, 2.0):
        # theta = 0 is |N> up to a global phase
        amps = make_coherent(CoherentParams.from_angles(0.0, phi, n)).amps
        assert np.max(np.abs(amps[:n])) == 0.0
        assert abs(amps[n]) == pytest.approx(1.0, abs=1e-15)
    assert overlap_numeric(make_coherent(north), make_coherent(south)) == \
        overlap_analytic(north, south) == 0.0


def test_coherent_params_validation():
    with pytest.raises(ValueError):
        CoherentParams(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        CoherentParams(1.0, 0.0, 0)


def test_from_angles_canonicalizes_theta():
    # theta = 2 pi - 0.4 reflects through the pole: theta 0.4, phi + pi
    p = CoherentParams.from_angles(2 * math.pi - 0.4, 1.0, 3)
    assert p.alpha == pytest.approx(math.cos(0.2))
    assert p.beta == pytest.approx(cmath.exp(1j * (1.0 + math.pi))
                                   * math.sin(0.2))


def test_overlap_analytic_matches_numeric_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 31))
        p1 = CoherentParams.from_angles(
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), n)
        p2 = CoherentParams.from_angles(
            rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), n)
        num = overlap_numeric(make_coherent(p1), make_coherent(p2))
        ana = overlap_analytic(p1, p2)
        assert abs(num - ana) < 1e-10


def test_overlap_equal_azimuth_cosine_power():
    n = 14
    for t1, t2 in [(0.3, 1.2), (0.0, math.pi), (2.0, 2.5)]:
        p1 = CoherentParams.from_angles(t1, 0.9, n)
        p2 = CoherentParams.from_angles(t2, 0.9, n)
        assert abs(overlap_analytic(p1, p2)
                   - math.cos((t1 - t2) / 2) ** n) < 1e-12


def test_overlap_frozen_oracle_value():
    # independent closed form: (cos(t1/2)cos(t2/2)
    #   + sin(t1/2)sin(t2/2) e^{i(p2-p1)})^N at N=5
    p1 = CoherentParams.from_angles(0.8, 0.3, 5)
    p2 = CoherentParams.from_angles(1.9, 2.1, 5)
    inner = (math.cos(0.4) * math.cos(0.95)
             + math.sin(0.4) * math.sin(0.95) * cmath.exp(1j * (2.1 - 0.3)))
    assert abs(overlap_analytic(p1, p2) - inner ** 5) < 1e-12


def test_rotation_moves_pole_to_equator():
    n = 8
    reg = tensor([make_fock(n, n)])          # +z pole
    # operators step eigenvalues by 2, so a Bloch pi/2 turn is angle pi/4
    steps = parse_schedule("term 1.0 1:y ; %r\n" % (math.pi / 4))
    mean, var_z = mean_spin(run_schedule(reg, steps).amps, n)
    assert mean[0] == pytest.approx(n, abs=1e-10)
    assert mean[2] == pytest.approx(0.0, abs=1e-10)
    assert var_z == pytest.approx(n, abs=1e-9)   # binomial variance 4*N/4


def test_rotation_preserves_norm_and_composes():
    reg = tensor([make_coherent(CoherentParams.from_angles(0.4, 1.0, 5))])
    one = run_schedule(reg, parse_schedule("term 1.0 1:x ; 0.3\n"
                                           "term 1.0 1:x ; 0.5\n"))
    two = run_schedule(reg, parse_schedule("term 1.0 1:x ; 0.8\n"))
    assert register_fidelity(one, two) == pytest.approx(1.0, abs=1e-12)


def test_coherent_mean_spin_vector():
    n = 12
    theta, phi = 1.05, 0.7
    s = make_coherent(CoherentParams.from_angles(theta, phi, n))
    mean, _ = mean_spin(s.amps, n)
    assert mean[2] == pytest.approx(n * math.cos(theta), abs=1e-9)
    assert mean[0] == pytest.approx(n * math.sin(theta) * math.cos(phi), abs=1e-9)
    assert mean[1] == pytest.approx(n * math.sin(theta) * math.sin(phi), abs=1e-9)

