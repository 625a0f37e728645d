"""Decoherence channel builders and figure-protocol drivers."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from becsim import lindblad
from becsim.channels import (
    AXIS_CONVENTIONS,
    _bus_sectors,
    _gate_configuration,
    build_cavity_model,
    build_dephasing_model,
    build_lambda_model,
    build_loss_model,
    cavity_basis,
    cavity_initial_state,
    cavity_sx1,
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
from becsim.cli import main
from becsim.errors import IntegrationError, NumericalIntegrityError
from becsim.lindblad import (
    LindbladModel,
    SectorPropagator,
    echo,
    fit_decay_rate,
    integrate_master,
)
from becsim.registers import plus_x_state
from becsim.spin import spin_operator
from test_lindblad import dense_evolve, dense_liouvillian, evolve_by_blocks


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
    rate = fit_decay_rate(rec, "sx").rate
    assert rate == pytest.approx(2 * gamma, rel=1e-4)


def test_dephasing_two_site_correlator_rate():
    n, gamma = 2, 0.05
    model = build_dephasing_model(2, n, "z", gamma)
    sxsx = site_operator(2, n, {0: "x", 1: "x"}) / n ** 2
    rec = integrate_master(model, plus_x_rho(2, n), 12.0, 161,
                           observables={"sxsx": sxsx})
    rate = fit_decay_rate(rec, "sxsx").rate
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
    assert fit_decay_rate(rec, "sz").rate == pytest.approx(gl, rel=1e-4)
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
    model, _ = build_lambda_model(3, 1.0, 10.0, 0.1)
    h = model.hamiltonian
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    assert len(model.jumps) == 2


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


@pytest.mark.parametrize("kwargs,message", [
    ({"n_atoms": 0}, "at least one boson"),
    ({"n_atoms": 1, "delta": 0.0}, "detuning must be nonzero"),
    ({"n_atoms": 1, "g": 0.0}, "g must be nonzero"),
], ids=["n_atoms=0", "delta=0", "g=0"])
def test_fig4c_rejects_degenerate_inputs(kwargs, message):
    # a ValueError before the default t_end, the Rabi frequency or the
    # S^z / N readout divides by them
    with pytest.raises(ValueError, match=message):
        run_fig4c(**kwargs)


def test_lambda_observables_shapes():
    _, basis = build_lambda_model(2, 1.0, 10.0, 0.1)
    obs = lambda_observables(basis)
    dim = obs["sz"].shape[0]
    assert obs["sx"].shape == (dim, dim)
    assert np.max(np.abs(obs["sx"] - obs["sx"].conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# gate-under-dephasing protocols

def test_fig4b_exact_reversal_without_dephasing():
    out = run_fig4b(3, gamma=0.0, gate_times=(0.3, 0.7))
    assert out.shape == (2,)
    for err in out:
        assert abs(err) < 1e-8


@pytest.mark.parametrize("n,t,slope", [
    (1, math.pi / 4, math.pi),
    (2, math.pi / 8, math.pi - 2.0),
    (2, math.pi / 4, 2.0 * math.pi),
], ids=["N1-pi/4", "N2-pi/8", "N2-pi/4"])
def test_fig4b_first_order_slope_matches_closed_form(n, t, slope):
    # de/dgamma at gamma = 0 sums the double commutators of the twisted
    # S^z_j with the readout along both legs; at these points it has a
    # closed form.  The finite difference at gamma = 1e-6 carries an
    # O(gamma) term of a few 1e-6 (relative).
    assert abs(run_fig4b(n, gamma=0.0, gate_times=(t,))[0]) <= 1e-15
    fd = run_fig4b(n, gamma=1e-6, gate_times=(t,))[0] / 1e-6
    assert fd == pytest.approx(slope, rel=1e-5)


def test_fig4b_builds_one_liouvillian(monkeypatch):
    # the reversed leg runs on the readout under the forward generator
    calls = []
    build = lindblad._liouvillian
    monkeypatch.setattr(lindblad, "_liouvillian",
                        lambda model: calls.append(model) or build(model))
    run_fig4b(2, gate_times=np.linspace(0.1, 0.8, 8))
    assert len(calls) == 1


def test_fig4b_unsorted_times_match_single_calls():
    times = (0.7, 0.2, math.pi / 8, 0.2, 0.0)
    out = run_fig4b(3, gamma=0.02, gate_times=times)
    assert out.shape == (len(times),)
    for t, err in zip(times, out):
        single = run_fig4b(3, gamma=0.02, gate_times=(t,))[0]
        assert err == pytest.approx(single, rel=1e-10, abs=1e-14)


def test_echo_steps_once_per_distinct_time(monkeypatch, tmp_path):
    calls = []
    step = lindblad.expm_multiply
    monkeypatch.setattr(lindblad, "expm_multiply",
                        lambda *args: calls.append(args) or step(*args))
    run_fig4b(3, gamma=0.02, gate_times=(0.7, 0.2, math.pi / 8, 0.2, 0.0))
    assert len(calls) == 4
    calls.clear()
    # 13 gate times for each N = 1..6; pi/4N is a grid time at N = 1, 2,
    # 3, 4 and 6
    assert main(["fig4b", "--out", str(tmp_path / "fig4b.csv")]) == 0
    assert len(calls) == 73


def test_reversal_echo_rejects_bad_input():
    # the gate-reversal echo refuses bad times before any propagation
    model, rho0, readout, _ = _gate_configuration(1, 0.01, 1.0, "caption")
    for bad in ((0.5, -0.1), (math.nan,)):
        with pytest.raises(ValueError,
                           match="gate times must be finite and >= 0"):
            echo(model, rho0, readout, bad)
    with pytest.raises(ValueError,
                       match="gate times must be finite and >= 0"):
        run_fig4b(1, gate_times=(0.5, -0.1))
    assert echo(model, rho0, readout, ()).shape == (0,)


def test_sector_echo_rejects_complex_operators():
    h = np.diag([0.0, 1.0]).astype(complex)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    readout = np.diag([1.0, -1.0])
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
    for model in (LindbladModel(h, ((1j * flip, 0.3),)),
                  LindbladModel(h + 0.2 * sigma_y, ((flip, 0.3),))):
        with pytest.raises(ValueError, match="real H and real jumps"):
            echo(model, rho0, readout, [1.0])
    # the same model with a real jump runs
    real = LindbladModel(h, ((flip, 0.3),))
    assert echo(real, rho0, readout, [1.0]).shape == (1,)


def test_echo_rejects_a_non_hermitian_readout():
    # echo returns the real Tr(readout rho), which is the expectation value
    # only for a Hermitian readout
    h = np.diag([0.0, 1.0]).astype(complex)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    readout = np.array([[0.0, 1.0], [0.5, 0.0]])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for jump in (np.diag([1.0, -1.0]).astype(complex), flip):
        model = LindbladModel(h, ((jump, 0.01),))
        with pytest.raises(ValueError, match="Hermitian readout"):
            echo(model, rho0, readout, [0.1, 5.0])


def test_echo_refuses_a_non_symmetric_model(monkeypatch):
    # a real lowering jump gives L^T != L, so the reversed leg is not the
    # stepped forward one: refused before any kernel runs
    model, rho0, readout, _ = _gate_configuration(1, 0.01, 1.0, "caption")
    lowering = np.array([[0, 1, 0, 0], [0, 0, 0, 0],
                         [0, 0, 0, 1], [0, 0, 0, 0]], dtype=complex)
    lossy = LindbladModel(model.hamiltonian, model.jumps + ((lowering, 0.1),))
    for name, module in (("expm_multiply", lindblad), ("eig", np.linalg),
                         ("_liouvillian", lindblad)):
        monkeypatch.setattr(module, name, lambda *args, name=name:
                            pytest.fail("%s called" % name))
    with pytest.raises(ValueError, match="real H and real jumps, each equal "
                                         "to its transpose"):
        echo(lossy, rho0, readout, [0.5, 0.1])


def test_echo_refuses_a_readout_of_the_wrong_shape():
    # N = 2 caption gate, d = 9: at t = 0.5 a zero-padded 10 x 10 readout
    # used to read -1.7e-4 against 0.97862, and a smaller one raised
    # IndexError
    model, rho0, readout, _ = _gate_configuration(2, 0.01, 1.0, "caption")
    assert echo(model, rho0, readout, [0.5])[0] == pytest.approx(0.97862,
                                                                 abs=5e-6)
    padded = np.zeros((10, 10))
    padded[:9, :9] = readout.real
    for bad in (padded, readout[:8, :8]):
        with pytest.raises(ValueError, match="readout dimension mismatch"):
            echo(model, rho0, bad, [0.5])


def test_echo_is_zero_when_no_component_is_reached(monkeypatch):
    # diagonal H and jump: every entry of rho is its own component, so a
    # diagonal rho0 and an off-diagonal readout share none
    model = LindbladModel(np.diag([0.0, 1.0]).astype(complex),
                          ((np.diag([1.0, -1.0]).astype(complex), 0.1),))
    monkeypatch.setattr(lindblad, "expm_multiply",
                        lambda *args: pytest.fail("expm_multiply called"))
    got = echo(model, np.diag([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]),
               [1.0, 0.0])
    np.testing.assert_array_equal(got, [0.0, 0.0])


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_echo_protocols_reject_bad_gate_times(bad):
    # both protocols reach echo's check before any propagation
    with pytest.raises(ValueError,
                       match=r"^gate times must be finite and >= 0$"):
        run_fig4b(2, gate_times=[bad, 0.5])
    with pytest.raises(ValueError,
                       match=r"^gate times must be finite and >= 0$"):
        run_fig4d(1, n_ph_max=1, gate_times=[bad, 100.0, 200.0, 300.0],
                  convergence_check=False)


def test_fig4b_stops_on_trace_drift(monkeypatch):
    # a generator that does not preserve the trace: Tr rho = exp(1e-3 t)
    build = lindblad._liouvillian
    monkeypatch.setattr(lindblad, "_liouvillian", lambda model: (
        build(model) + 1e-3 * sp.identity(model.dim ** 2, format="csr")))
    with pytest.raises(IntegrationError, match=r"trace drifted .* at t=0\.5$"
                       ) as info:
        run_fig4b(2, gate_times=(0.5, 1e-4))
    assert info.value.last_good_time == 1e-4


def test_fig4b_defaults_never_diagonalize(monkeypatch, tmp_path):
    # every default gate time steps; eig on them is about 6x slower
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a) or eig(a))
    assert main(["fig4b", "--out", str(tmp_path / "fig4b.csv")]) == 0
    assert not calls


def test_fig4a_axis_conventions_agree():
    # paper-body is the x<->z relabeling of caption: same polarization
    recs = [run_fig4a(2, gamma=0.01, samples=201, axis=axis)
            for axis in AXIS_CONVENTIONS]
    sz1, sx1 = (rec.series(name) for rec, name in
                zip(recs, ("sz1_over_n", "sx1_over_n")))
    assert np.max(np.abs(sz1 - sx1)) < 1e-8


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
            lv = dense_liouvillian(sign * model.hamiltonian, model.jumps)
            vec = expm(lv * t) @ vec
        rho = vec.reshape(model.dim, model.dim, order="F")
        readout = site_operator(2, n, {0: "z"}) / n
        errors[n] = 1.0 - float(np.real(np.trace(readout @ rho)))
        assert run_fig4b(n, gamma=0.01, gate_times=(t,))[0] == \
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

BAD_BUS_INPUTS = {
    "n_atoms=0": ({"n_atoms": 0}, "boson"),
    "n_ph_max=0": ({"n_ph_max": 0}, "photon level"),
    "delta=0": ({"delta": 0.0}, "detuning must be nonzero"),
    "g_laser=0": ({"g_laser": 0.0}, "g_laser and cavity_g must be nonzero"),
    "cavity_g=0": ({"cavity_g": 0.0}, "g_laser and cavity_g must be nonzero"),
    # rejected by LindbladModel's rate check
    "gamma_c=-0.1": ({"gamma_c": -0.1}, "jump rate must be finite and >= 0"),
    "gamma_c=nan": ({"gamma_c": math.nan}, "jump rate must be finite"),
    "gamma_c=inf": ({"gamma_c": math.inf}, "jump rate must be finite"),
}


@pytest.mark.parametrize("case", list(BAD_BUS_INPUTS))
def test_cavity_model_validation(case):
    # a ValueError before any division: delta = 0 or a zero coupling used
    # to raise ZeroDivisionError from the gate time
    kwargs, message = BAD_BUS_INPUTS[case]
    kwargs = {"n_atoms": 1, **kwargs}
    with pytest.raises(ValueError, match=message):
        run_fig4d(convergence_check=False, **kwargs)


def test_cavity_sectors_conserved():
    # neither the drive, the cavity coupling nor photon decay touches
    # mode a: the derived blocks are the (n_a1, n_a2) classes, in order
    for n_atoms, n_ph_max in ((1, 1), (2, 2), (3, 2)):
        model, basis = build_cavity_model(n_atoms, 10.0, 1.0, 0.5, 1.0,
                                          n_ph_max, n_ph_max + 1)
        labels = [(s[0], s[3]) for s in basis.states]
        expected = [[i for i, l in enumerate(labels) if l == key]
                    for key in sorted(set(labels))]
        blocks = SectorPropagator(model).blocks
        assert [b.tolist() for b in blocks] == expected


def test_cavity_sector_evolution_matches_dense():
    model, basis = build_cavity_model(1, 8.0, 1.0, 0.4, 1.0, 1, 2)
    prop = SectorPropagator(model)
    psi = cavity_initial_state(basis, 1)
    rho0 = np.outer(psi, psi.conj())
    t = 0.8
    dense = dense_evolve(model, rho0, t)
    assert np.max(np.abs(evolve_by_blocks(prop, rho0, t) - dense)) < 1e-8


def _dense_block_echo(model, basis, n_atoms, dt, steps):
    """<S^x1>/N after the bus echo for k dt, k = 1..steps, every
    (n_a1, n_a2) sector pair on its own, with no fold: the pair's blocks of
    the sparse Liouvillians of (H, L) and (-H, L), each exponentiated once
    for dt by scipy.linalg.expm, then k steps forward and k back."""
    d = model.dim
    fwd = lindblad._liouvillian(model)
    rev = lindblad._liouvillian(LindbladModel(-model.hamiltonian,
                                              model.jumps))
    psi = cavity_initial_state(basis, n_atoms)
    sx1 = cavity_sx1(basis) / n_atoms
    labels = [(s[0], s[3]) for s in basis.states]
    sectors = [np.flatnonzero([l == key for l in labels])
               for key in set(labels)]
    total = np.zeros(steps)
    for s in sectors:
        for t in sectors:
            x = np.outer(psi[s], psi[t].conj()).ravel()
            o = sx1[np.ix_(t, s)].T.ravel()    # rho[s, t] pairs with sx1[t, s]
            if not (x.any() and o.any()):
                continue
            idx = (s[:, None] * d + t).ravel()
            f, r = (expm(dt * lv[idx][:, idx].toarray()) for lv in (fwd, rev))
            for k in range(steps):
                x = f @ x
                y = x
                for _ in range(k + 1):
                    y = r @ y
                total[k] += np.real(o @ y)
    return total


@pytest.mark.parametrize("n_atoms,n_ph_max", [(1, 1), (1, 2), (1, 3), (2, 1)])
def test_sector_echo_matches_dense_oracle(n_atoms, n_ph_max):
    # run_fig4d's eig echo, folded over transposed pairs, against the
    # unfolded dense oracle at its 12 default gate times, k pi / (48 N
    # omega2_eff) (largest gap 1.8e-11, relative); N = 2 at n_ph_max 2
    # agrees to 2.3e-12 but takes 1.4 s
    model, basis = build_cavity_model(n_atoms, 10.0, 1.0, 1.0, 1.0,
                                      n_ph_max, n_ph_max + 1)
    dt = 1000.0 * math.pi / (12 * n_atoms)
    res = run_fig4d(n_atoms, n_ph_max=n_ph_max, convergence_check=False,
                    gate_times=dt * np.arange(1, 13))
    want = 1.0 - _dense_block_echo(model, basis, n_atoms, dt, 12)
    np.testing.assert_allclose(res.errors, want, rtol=1e-10, atol=0)
    assert np.ptp(res.errors) > 1e-3   # the echo is not trivially perfect


@pytest.mark.parametrize("n_atoms", [1, 2])
@pytest.mark.parametrize("n_ph_max", [1, 2, 3, 4])
def test_fig4d_sector_blocks_match_the_whole_model(n_atoms, n_ph_max):
    # fig4d's (n_a1, n_a2) sectors partition the basis as the model's
    # conserved sectors do, and each dense block generator equals the
    # whole model's Liouvillian on that block
    model, basis = build_cavity_model(n_atoms, 10.0, 1.0, 1.0, 1.0,
                                      n_ph_max, n_ph_max + 1)
    sectors = _bus_sectors(basis)
    assert sorted(map(tuple, sectors)) == \
        sorted(map(tuple, SectorPropagator(model).blocks))
    lv = lindblad._liouvillian(model)
    bound = 1e-15 * abs(lv).max()
    for s in sectors:
        for t in sectors:
            idx = (s[:, None] * model.dim + t).ravel()
            block = lindblad._block_generator(model, s, t)
            assert np.abs(block - lv[idx][:, idx].toarray()).max() <= bound


def _brute_force_pairs(blocks, operator):
    """Every (i, j) whose operator slice [b_j, b_i] has a nonzero entry."""
    return [(i, j) for i, bi in enumerate(blocks)
            for j, bj in enumerate(blocks)
            if np.any(operator[np.ix_(bj, bi)])]


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
@pytest.mark.parametrize("n_ph_max", [3, 4])
def test_observable_blocks_match_brute_force_scan(n_atoms, n_ph_max):
    model, basis = build_cavity_model(n_atoms, 10.0, 1.0, 1.0, 1.0,
                                      n_ph_max, n_ph_max + 1)
    prop = SectorPropagator(model)
    for op in (cavity_sx1(basis), basis.spin("z"), basis.lower(6),
               basis.transition(0, 3)):
        assert prop.observable_blocks(op) == \
            _brute_force_pairs(prop.blocks, op)


def test_fig4d_diagonalizes_each_folded_pair_once(monkeypatch):
    model, basis = build_cavity_model(1, 10.0, 1.0, 1.0, 1.0, 1, 2)
    pairs = set(SectorPropagator(model).observable_blocks(
        cavity_sx1(basis)))
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


def test_fig4d_never_steps(monkeypatch):
    # the photon jump is not symmetric; stepping to the bus gate times
    # would be about 1,000x slower than one eig per component
    calls = []
    step = lindblad.expm_multiply
    monkeypatch.setattr(lindblad, "expm_multiply",
                        lambda *args: calls.append(args) or step(*args))
    for n_atoms in (1, 2):
        # the cutoff check runs n_ph_max 4 too
        run_fig4d(n_atoms, n_ph_max=3)
    assert not calls


def test_fig4d_forms_no_inverse(monkeypatch):
    # the eig kernel applies V^-1 by solves against V
    monkeypatch.setattr(np.linalg, "inv",
                        lambda a: pytest.fail("np.linalg.inv called"))
    res = run_fig4d(1, n_ph_max=1, convergence_check=False)
    assert np.all(np.isfinite(res.errors))


def test_fig4d_refuses_an_unconverged_photon_cutoff():
    # one photon level: the errors move by 5.8e-2 against the 1e-4 bound
    # when a second level is added
    with pytest.raises(NumericalIntegrityError,
                       match=r"photon cutoff 1 not converged: observables "
                             r"move by 5\.812e-02"):
        run_fig4d(1, n_ph_max=1)


def test_fig4d_small_system_runs():
    res = run_fig4d(1, n_ph_max=2, gate_times=np.linspace(0.0, 400.0, 5)[1:],
                    convergence_check=False)
    assert res.omega2_eff == pytest.approx(1.0 / 4000.0)
    assert res.errors.shape == (4,)
    assert np.all(res.errors > -1e-9)
    assert np.isfinite(res.fitted_decoherence)


def test_cavity_sx1_readout_norm():
    basis = cavity_basis(2, 1, 2)
    sx1 = cavity_sx1(basis)
    psi = cavity_initial_state(basis, 2)
    val = float(np.real(np.vdot(psi, sx1 @ psi)))
    assert val == pytest.approx(2.0, abs=1e-10)   # fully +x polarized
