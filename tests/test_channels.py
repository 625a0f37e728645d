"""Decoherence channel builders and figure-protocol drivers."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from becsim.channels import (
    AXIS_CONVENTIONS,
    _sector_echo_series,
    build_cavity_model,
    build_dephasing_model,
    build_lambda_model,
    build_loss_model,
    cavity_basis,
    cavity_initial_state,
    cavity_sx1,
    CavityModel,
    embed_loss_state,
    lambda_observables,
    loss_basis,
    loss_spin_operator,
    oscillation_envelope_rate,
    run_fig4a,
    run_fig4b,
    run_fig4c,
    run_fig4d,
    site_operator,
)
from becsim.lindblad import (
    LindbladModel,
    SectorPropagator,
    fit_decay_rate,
    integrate_master,
    propagate,
)
from becsim.registers import plus_x_state
from becsim.spin import spin_operator


def plus_x_rho(m_sites, n_atoms):
    site = plus_x_state(n_atoms).amps
    psi = site
    for _ in range(m_sites - 1):
        psi = np.kron(psi, site)
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# dephasing

def test_site_operator_embedding():
    n = 2
    op = site_operator(2, n, {1: "z"})
    expected = np.kron(np.eye(n + 1), spin_operator("z", n))
    assert np.max(np.abs(op - expected)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4])
def test_dephasing_sx_decay_rate(n):
    gamma = 0.05
    model = build_dephasing_model(1, n, "z", gamma)
    sx = spin_operator("x", n) / n
    rec = integrate_master(model, plus_x_rho(1, n), 20.0, 201,
                           observables={"sx": sx})
    rate = float(fit_decay_rate(rec, "sx"))
    assert rate == pytest.approx(2 * gamma, rel=1e-4)


def test_dephasing_two_site_correlator_rate():
    n, gamma = 2, 0.05
    model = build_dephasing_model(2, n, "z", gamma)
    sxsx = site_operator(2, n, {0: "x", 1: "x"}) / n ** 2
    rec = integrate_master(model, plus_x_rho(2, n), 12.0, 161,
                           observables={"sxsx": sxsx})
    rate = float(fit_decay_rate(rec, "sxsx"))
    assert rate == pytest.approx(4 * gamma, rel=1e-4)   # K = 2 factors


def test_dephasing_rejects_bad_axis():
    with pytest.raises(ValueError):
        build_dephasing_model(1, 2, "y", 0.1)


# ---------------------------------------------------------------------------
# particle loss

def test_loss_basis_size():
    # all (na, nb) with na + nb <= n_max
    basis = loss_basis(3)
    assert basis.size == 10


def test_loss_sz_decay_rate():
    n, gl = 3, 0.08
    basis = loss_basis(n)
    model = build_loss_model(1, n, gl)
    psi = embed_loss_state(plus_x_state(n), basis)
    sz = loss_spin_operator(basis, "z").astype(complex)
    # start polarized along z: all bosons in mode a
    vec = np.zeros(basis.size, dtype=complex)
    vec[basis.index[(n, 0)]] = 1.0
    rec = integrate_master(model, np.outer(vec, vec.conj()), 10.0, 121,
                           observables={"sz": sz / n})
    assert float(fit_decay_rate(rec, "sz")) == pytest.approx(gl, rel=1e-4)
    assert psi.shape == (basis.size,)


def test_loss_preserves_trace_across_sectors():
    n = 2
    basis = loss_basis(n)
    model = build_loss_model(1, n, 0.3)
    vec = embed_loss_state(plus_x_state(n), basis)
    rec = integrate_master(model, np.outer(vec, vec.conj()), 4.0, 11,
                           observables={})
    assert np.max(rec.trace_dev) < 1e-8


# ---------------------------------------------------------------------------
# three-level scheme

def test_lambda_model_hermitian_and_tagged():
    model = build_lambda_model(3, 1.0, 10.0, 0.1)
    h = model.hamiltonian
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    assert len(model.active_jumps()) == 2


def test_lambda_rabi_frequency_no_decay():
    # at Gamma_s = 0 the population oscillates at 2 g^2 / Delta
    n, g, delta = 2, 1.0, 12.0
    rec = run_fig4c(n, g=g, delta=delta, gamma_s=0.0, samples=4001)
    y = rec.series("sz_over_n")
    t = rec.times
    # period from the first return to the initial value's minimum
    omega = 2 * g ** 2 / delta
    k_half = int(round(math.pi / omega / (t[1] - t[0])))
    assert y[0] == pytest.approx(1.0, abs=1e-6)
    assert y[k_half] == pytest.approx(-1.0, abs=0.05)


def test_lambda_envelope_rate_matches_formula():
    rec = run_fig4c(3)
    rate = oscillation_envelope_rate(
        rec, "sz_over_n", rec.meta["rabi_frequency"])
    assert rate == pytest.approx(rec.meta["expected_decay"], rel=0.25)


def test_lambda_observables_shapes():
    obs = lambda_observables(2)
    dim = obs["sz"].shape[0]
    assert obs["sx"].shape == (dim, dim)
    assert np.max(np.abs(obs["sx"] - obs["sx"].conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# gate-under-dephasing protocols

def test_fig4b_exact_reversal_without_dephasing():
    out = run_fig4b(3, gamma=0.0, gate_times=(0.3, 0.7))
    for _, _, err in out:
        assert abs(err) < 1e-8


def test_fig4a_axis_conventions_agree():
    # paper-body is the x<->z relabeling of caption: same polarization
    recs = [run_fig4a(2, gamma=0.01, samples=201, axis=axis)
            for axis in AXIS_CONVENTIONS]
    sz1, sx1 = (rec.series(name) for rec, name in
                zip(recs, ("sz1_over_n", "sx1_over_n")))
    assert np.max(np.abs(sz1 - sx1)) < 1e-8


def _dense_liouvillian(h, jumps):
    """Column-stacked generator: vec(A rho B) = (B^T kron A) vec(rho)."""
    eye = np.eye(h.shape[0])
    lv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in jumps:
        ldl = op.conj().T @ op
        lv = lv + rate * (np.kron(op.conj(), op) - 0.5 * np.kron(eye, ldl)
                          - 0.5 * np.kron(ldl.T, eye))
    return lv


def test_fig4b_fixed_time_error_matches_dense_oracle():
    # caption convention built by hand: S^x1 S^x2 gate, z dephasing,
    # both sites at S^z = N, readout <S^z1>/N after t forward, t reversed
    t = math.pi / 4
    errors = {}
    for n in (4, 5):
        h = site_operator(2, n, {0: "x", 1: "x"})
        model = build_dephasing_model(2, n, "z", 0.01, hamiltonian=h)
        site = np.zeros(n + 1, dtype=complex)
        site[n] = 1.0
        psi = np.kron(site, site)
        vec = np.outer(psi, psi.conj()).reshape(-1, order="F")
        for sign in (1.0, -1.0):
            lv = _dense_liouvillian(sign * model.hamiltonian, model.jumps)
            vec = expm(lv * t) @ vec
        rho = vec.reshape(model.dim, model.dim, order="F")
        readout = site_operator(2, n, {0: "z"}) / n
        errors[n] = 1.0 - float(np.real(np.trace(readout @ rho)))
        assert run_fig4b(n, gamma=0.01, gate_times=(t,))[0][2] == \
            pytest.approx(errors[n], abs=1e-9)
    # the parity dip behind criterion 7: N=5 is below N=4 at omega t = pi/4
    assert errors[5] < errors[4]


def test_fig4a_revival_degrades_with_n():
    revived = {}
    for n in (1, 4):
        rec = run_fig4a(n, gamma=0.01, samples=401)
        name = rec.meta["signal"]
        k = int(round(0.25 * (rec.times.size - 1)))   # omega t = pi/2
        revived[n] = abs(rec.series(name)[k])
    assert revived[1] > revived[4]


# ---------------------------------------------------------------------------
# cavity bus

def test_cavity_model_validation():
    with pytest.raises(ValueError):
        CavityModel(2, omega0=1.0, omega=0.0, cavity_g=1.0, gamma_c=-0.1)


def test_cavity_sectors_conserved():
    # neither the drive, the cavity coupling nor photon decay touches
    # mode a: the derived blocks are the (n_a1, n_a2) classes, in order
    for n_atoms, n_ph_max in ((1, 1), (2, 2), (3, 2)):
        params = CavityModel(n_atoms, omega0=10.0, omega=0.0, cavity_g=1.0,
                             gamma_c=0.5, n_ph_max=n_ph_max)
        model, basis = build_cavity_model(params, 1.0)
        labels = [(s[0], s[3]) for s in basis.states]
        expected = [[i for i, l in enumerate(labels) if l == key]
                    for key in sorted(set(labels))]
        blocks = SectorPropagator(model).blocks
        assert [b.tolist() for b in blocks] == expected


def test_cavity_sector_evolution_matches_dense():
    params = CavityModel(1, omega0=8.0, omega=0.0, cavity_g=1.0,
                         gamma_c=0.4, n_ph_max=1)
    model, basis = build_cavity_model(params, 1.0)
    prop = SectorPropagator(model)
    psi = cavity_initial_state(basis, 1)
    rho0 = np.outer(psi, psi.conj())
    t = 0.8
    dense = propagate(model, rho0, t)
    assert np.max(np.abs(prop.evolve(rho0, t) - dense)) < 1e-8


@pytest.mark.parametrize("n_atoms,exc_max", [(1, "auto"), (2, 1)])
def test_sector_echo_matches_dense_oracle(n_atoms, exc_max):
    # N = 2 drops the states with two excitations (exc_max=1): the default
    # truncation gives a 2704-dim dense Liouvillian, too slow for expm
    params = CavityModel(n_atoms, omega0=10.0, omega=0.0, cavity_g=1.0,
                         gamma_c=1.0, n_ph_max=1)
    model, basis = build_cavity_model(params, 1.0, exc_max=exc_max)
    psi = cavity_initial_state(basis, n_atoms)
    rho0 = np.outer(psi, psi.conj())
    sx1 = cavity_sx1(basis, n_atoms) / n_atoms
    dt, steps = 4.0, (1, 15)
    got = _sector_echo_series(SectorPropagator(model), rho0, sx1,
                              dt * np.array(steps))
    fwd = expm(dt * _dense_liouvillian(model.hamiltonian, model.jumps))
    rev = expm(dt * _dense_liouvillian(-model.hamiltonian, model.jumps))
    d = model.dim
    for k, value in zip(steps, got):
        vec = rho0.reshape(-1, order="F")
        for step in [fwd] * k + [rev] * k:
            vec = step @ vec
        want = np.real(np.trace(sx1 @ vec.reshape(d, d, order="F")))
        assert abs(value - want) < 1e-10
    assert np.ptp(got) > 1e-3   # the echo is not trivially perfect


def test_fig4d_diagonalizes_each_folded_pair_once(monkeypatch):
    params = CavityModel(1, omega0=10.0, omega=0.0, cavity_g=1.0,
                         gamma_c=1.0, n_ph_max=1)
    model, basis = build_cavity_model(params, 1.0)
    pairs = set(SectorPropagator(model).observable_blocks(
        cavity_sx1(basis, 1)))
    folded = [(i, j) for i, j in pairs if not (i > j and (j, i) in pairs)]
    assert 0 < len(folded) < len(pairs)
    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a.shape[0])
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    run_fig4d(1, n_ph_max=1, convergence_check=False)
    assert len(calls) == len(folded)


def test_sector_echo_rejects_complex_operators():
    h = np.diag([0.0, 1.0]).astype(complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    readout = np.diag([1.0, -1.0])
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    for model in (LindbladModel(h, ((1j * flip, 0.3),)),
                  LindbladModel(h + 0.2 * sigma_y, ((flip, 0.3),))):
        with pytest.raises(ValueError, match="real"):
            _sector_echo_series(SectorPropagator(model), rho0, readout, [1.0])
    # the same model with a real jump runs
    real = LindbladModel(h, ((flip, 0.3),))
    assert _sector_echo_series(SectorPropagator(real), rho0, readout,
                               [1.0]).shape == (1,)


def test_fig4d_small_system_runs():
    res = run_fig4d(1, n_ph_max=2, gate_times=np.linspace(0.0, 400.0, 5)[1:],
                    convergence_check=False)
    assert res.omega2_eff == pytest.approx(1.0 / 4000.0)
    assert res.errors.shape == (4,)
    assert np.all(res.errors > -1e-9)
    assert np.isfinite(res.fitted_decoherence)


def test_cavity_sx1_readout_norm():
    basis = cavity_basis(2, 1, 2)
    sx1 = cavity_sx1(basis, 2)
    psi = cavity_initial_state(basis, 2)
    val = float(np.real(np.vdot(psi, sx1 @ psi)))
    assert val == pytest.approx(2.0, abs=1e-10)   # fully +x polarized
