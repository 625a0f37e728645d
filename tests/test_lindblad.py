"""Master-equation engine: bases, integration, diagnostics, decay fits."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from becsim import lindblad
from becsim.channels import (
    build_dephasing_model,
    build_lambda_model,
    build_loss_model,
    cavity_basis,
    embed_loss_state,
    lambda_observables,
    loss_basis,
    loss_site_operator,
    loss_spin_operator,
    site_operator,
)
from becsim.cli import write_csv
from becsim.errors import IntegrationError, NumericalIntegrityError
from becsim.lindblad import (
    EvolutionRecord,
    LindbladModel,
    SectorPropagator,
    fit_decay_rate,
    integrate_master,
    oscillation_envelope_rate,
    propagate,
)
from becsim.registers import plus_x_state
from becsim.spin import (MultiModeBasis, OccupationBasis,
                         enumerate_occupations, make_fock)


def qubit_ops():
    sm = np.array([[0, 1], [0, 0]], dtype=complex)   # lowering |1> -> |0>
    sz = np.diag([-1.0, 1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    return sm, sz, sx


# ---------------------------------------------------------------------------
# bases

def test_enumerate_occupations_counts():
    # fixed total: C(N + modes - 1, modes - 1)
    assert len(enumerate_occupations(3, 4)) == math.comb(6, 2)
    assert len(enumerate_occupations(2, 7)) == 8


def test_multimode_number_and_transition():
    basis = MultiModeBasis(2, 3)
    na = basis.number(0)
    assert np.allclose(np.diag(na), [s[0] for s in basis.states])
    t = basis.transition(0, 1)          # a+ b
    # matrix element sqrt((na+1) nb) between (na, nb) and (na+1, nb-1)
    i = basis.index[(1, 2)]
    j = basis.index[(2, 1)]
    assert t[j, i] == pytest.approx(math.sqrt(2 * 2))


def test_lower_truncates_at_capacity():
    basis = OccupationBasis(tuple((k,) for k in range(3)))
    a = basis.lower(0)
    assert a[1, 2] == pytest.approx(math.sqrt(2))
    # raising out of the truncated space contributes nothing
    assert np.max(np.abs(a.conj().T @ a - np.diag([0.0, 1.0, 2.0]))) < 1e-12


def _ladder_by_loop(basis, create, destroy):
    """Per-state loop over the basis: the oracle for OccupationBasis.ladder."""
    d = basis.size
    out = np.zeros((d, d), dtype=complex)
    for j, s in enumerate(basis.states):
        if any(s[m] == 0 for m in destroy):
            continue
        t = list(s)
        elem = 1
        for m in destroy:
            elem *= t[m]
            t[m] -= 1
        for m in create:
            t[m] += 1
            elem *= t[m]
        i = basis.index.get(tuple(t))
        if i is not None:
            out[i, j] = math.sqrt(elem)
    return out


def test_ladder_matches_per_state_loop_bitwise():
    bases = [MultiModeBasis(3, 4), loss_basis(4), cavity_basis(2, 3, 4),
             OccupationBasis(tuple((k,) for k in range(4)))]
    for basis in bases:
        modes = range(basis.mode_count)
        cases = [((), (m,)) for m in modes]
        cases += [((c,), (d,)) for c in modes for d in modes if c != d]
        if basis.mode_count == 7:     # cavity: b+ c p+ on each BEC
            cases += [((1, 6), (2,)), ((4, 6), (5,))]
        for create, destroy in cases:
            got = basis.ladder(create, destroy)
            want = _ladder_by_loop(basis, create, destroy)
            assert got.tobytes() == want.tobytes(), (basis.states[-1],
                                                     create, destroy)
        assert basis.lower(0).tobytes() == \
            _ladder_by_loop(basis, (), (0,)).tobytes()
    with pytest.raises(ValueError):
        bases[0].ladder((0,), (0,))


# ---------------------------------------------------------------------------
# model validation

def test_model_rejects_non_hermitian_hamiltonian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        LindbladModel(h)


@pytest.mark.parametrize("rate", [-0.5, math.nan, math.inf])
def test_model_rejects_negative_rate(rate):
    # NaN compares False against 0, so a sign test alone lets it through
    sm, _, _ = qubit_ops()
    with pytest.raises(ValueError):
        LindbladModel(np.zeros((2, 2), dtype=complex), ((sm, rate),))


def test_model_rejects_nan_hamiltonian():
    # a NaN entry also defeats the Hermiticity norm test
    sm, sz, _ = qubit_ops()
    with pytest.raises(ValueError, match="non-finite"):
        LindbladModel(np.array([[0.0, math.nan], [math.nan, 0.0]]),
                      ((sm, 0.1),))
    with pytest.raises(ValueError, match="non-finite"):
        LindbladModel(sz, ((math.nan * sm, 0.1),))


def test_active_jumps_drops_zero_rates():
    sm, sz, _ = qubit_ops()
    m = LindbladModel(np.zeros((2, 2), dtype=complex),
                      ((sm, 0.0), (sz, 0.25)))
    assert len(m.active_jumps()) == 1


# ---------------------------------------------------------------------------
# integration against closed forms

def exact_damped_qubit(t, gamma):
    """Amplitude damping of |+x><+x| at rate gamma: exact Bloch solution."""
    sx = math.exp(-gamma * t / 2)
    pz_up = 0.5 * math.exp(-gamma * t)
    return sx, 1.0 - 2 * pz_up


def dense_series(series, model, rho0, t_end, samples):
    """One engine's kept entries scattered back to a d x d rho per sample."""
    idx, vals = series(model, rho0, t_end, samples)
    d = model.dim
    out = np.zeros((samples, d * d), dtype=complex)
    out[:, idx] = vals
    return out.reshape(samples, d, d)


def expectations(series, model, rho0, t_end, samples, op):
    """Real Tr(op rho) at each grid point of one engine's series."""
    return np.array([np.real(np.trace(op @ rho))
                     for rho in dense_series(series, model, rho0, t_end,
                                             samples)])


@pytest.mark.parametrize("series", [lindblad._rk_series,
                                    lindblad._exact_series],
                         ids=["rk", "expm"])
def test_amplitude_damping_exact(series):
    sm, sz, sx = qubit_ops()
    gamma = 0.8
    model = LindbladModel(np.zeros((2, 2), dtype=complex), ((sm, gamma),))
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    times = np.linspace(0.0, 2.0, 21)
    vxs = expectations(series, model, rho0, 2.0, 21, sx)
    vzs = expectations(series, model, rho0, 2.0, 21, sz)
    for t, vx, vz in zip(times, vxs, vzs):
        ex, ez = exact_damped_qubit(t, gamma)
        assert vx == pytest.approx(ex, abs=1e-7)
        assert vz == pytest.approx(-ez, abs=1e-7)


@pytest.mark.parametrize("series", [lindblad._rk_series,
                                    lindblad._exact_series],
                         ids=["rk", "expm"])
def test_zero_duration_yields_rho0(series):
    # both engines accept t_end = 0 and stay at the start on every sample
    sm, _, sx = qubit_ops()
    model = LindbladModel(0.5 * sx, ((sm, 0.2),))
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    rhos = dense_series(series, model, rho0, 0.0, 4)
    assert len(rhos) == 4
    for rho in rhos:
        np.testing.assert_array_equal(rho, rho0)


def test_diagonal_method_matches_rk():
    _, sz, sx = qubit_ops()
    model = LindbladModel(0.7 * sz, ((sz, 0.3),))
    psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    rho0 = np.outer(psi, psi.conj())
    a = expectations(lindblad._rk_series, model, rho0, 1.5, 11, sx)
    b = expectations(lindblad._exact_series, model, rho0, 1.5, 11, sx)
    assert np.max(np.abs(a - b)) < 1e-7


def test_dephasing_coherence_decay_closed_form():
    # H = 0, jump sz at rate g: off-diagonals decay as exp(-2 g t)
    _, sz, sx = qubit_ops()
    g = 0.45
    model = LindbladModel(np.zeros((2, 2), dtype=complex), ((sz, g),))
    psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    rec = integrate_master(model, np.outer(psi, psi.conj()), 3.0, 16,
                           observables={"sx": sx})
    assert np.max(np.abs(rec.series("sx")
                         - np.exp(-2 * g * rec.times))) < 1e-8


def test_record_diagnostics_within_thresholds():
    sm, sz, sx = qubit_ops()
    model = LindbladModel(0.5 * sx.astype(complex), ((sm, 0.2),))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    rec = integrate_master(model, rho0, 5.0, 41, observables={"sz": sz})
    assert not rec.failed
    assert np.max(rec.trace_dev) <= 1e-7
    assert np.max(rec.herm_defect) <= 1e-7
    assert np.nanmin(rec.min_eig) > -1e-8


def test_record_failed_on_negative_min_eig():
    kw = dict(times=np.array([0.0, 1.0]), observables={}, trace_dev=0.0,
              herm_defect=0.0)
    assert EvolutionRecord(min_eig=np.array([np.nan, -1e-3]), **kw).failed
    assert not EvolutionRecord(min_eig=np.full(2, np.nan), **kw).failed
    assert not EvolutionRecord(**kw).failed


def test_propagate_matches_integrate_endpoint():
    sm, sz, _ = qubit_ops()
    model = LindbladModel(0.9 * sz, ((sm, 0.4),))
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    rec = integrate_master(model, rho0, 1.3, 3, observables={"sz": sz})
    rho_end = propagate(model, rho0, 1.3)
    assert float(np.real(np.trace(sz @ rho_end))) == pytest.approx(
        rec.series("sz")[-1], abs=1e-8)


def test_empty_support_propagates_to_zero():
    # no occupied entry: nothing to evolve, and the grid path reports the
    # zero trace as drift at the first sample
    sm, sz, _ = qubit_ops()
    model = LindbladModel(0.9 * sz, ((sm, 0.4),))
    zero = np.zeros((2, 2), dtype=complex)
    assert not np.any(propagate(model, zero, 1.3))
    assert not np.any(dense_series(lindblad._exact_series, model, zero, 1.3,
                                   3))
    with pytest.raises(IntegrationError,
                       match=r"trace drifted to 1\.000e\+00 at t=0$"):
        integrate_master(model, zero, 1.3, 3)


def test_expm_multiply_sees_only_the_occupied_block(monkeypatch):
    # loss from (n_a, n_b) = (2, 0) reaches only the diagonal entries of
    # rho: a 6-entry invariant block of the 36-entry Liouvillian
    model = build_loss_model(1, 2, 0.3)
    d = model.dim
    k = loss_basis(2).states.index((2, 0))
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[k, k] = 1.0
    shapes = []
    expm_multiply = lindblad.expm_multiply

    def recording(op, *args, **kwargs):
        shapes.append(op.shape)
        return expm_multiply(op, *args, **kwargs)

    monkeypatch.setattr(lindblad, "expm_multiply", recording)
    t = 1.7
    got = propagate(model, rho0, t)
    assert shapes == [(6, 6)]
    assert not np.any(got[~np.eye(d, dtype=bool)])

    eye = np.eye(d)
    gen = np.zeros((d * d, d * d), dtype=complex)
    # H = 0; row-major vec(A X B) = (A kron B^T) vec(X)
    for op, rate in model.jumps:
        ldl = op.conj().T @ op
        gen += rate * (np.kron(op, op.conj()) - 0.5 * np.kron(ldl, eye)
                       - 0.5 * np.kron(eye, ldl.T))
    want = (expm(t * gen) @ rho0.reshape(-1)).reshape(d, d)
    assert np.max(np.abs(got - want)) < 1e-12


# ---------------------------------------------------------------------------
# the kept-entry sampler against full-matrix formulas

def assert_matches_full_matrix_oracle(record, rhos, observables):
    """The record's diagnostics against the d x d formulas, to 1e-12.

    The oracle reads every entry of each rho: np.trace, the inf-norm of
    rho - rho^H, sum(O.T * rho), and eigvalsh of the Hermitian part at the
    samples where the record checked positivity.
    """
    d = rhos[0].shape[0]
    checked = np.flatnonzero(np.isfinite(record.min_eig))
    if d <= lindblad.MIN_EIG_DIM:
        assert checked.size == min(len(rhos), lindblad.MIN_EIG_SAMPLES)
    for k, rho in enumerate(rhos):
        assert abs(abs(np.trace(rho) - 1.0) - record.trace_dev[k]) < 1e-12
        assert abs(np.linalg.norm(rho - rho.conj().T, np.inf)
                   - record.herm_defect[k]) < 1e-12
        for name, op in observables.items():
            assert abs(np.real(np.sum(op.T * rho))
                       - record.series(name)[k]) < 1e-12
    for k in checked:
        w = np.linalg.eigvalsh(0.5 * (rhos[k] + rhos[k].conj().T))
        assert abs(w[0] - record.min_eig[k]) < 1e-12


def sampled(series, model, rho0, t_end, samples, observables):
    """(record, dense rhos) of one engine run through the sampler."""
    record = lindblad._sample_rho(*series(model, rho0, t_end, samples),
                                  t_end, model, observables, {})
    return record, dense_series(series, model, rho0, t_end, samples)


def _loss_m2_n2():
    basis = loss_basis(2)
    site = embed_loss_state(plus_x_state(2), basis)
    psi = np.kron(site, site)
    sx1 = loss_site_operator(basis, 2, 0, loss_spin_operator(basis, "x"))
    return (build_loss_model(2, 2, 0.3), np.outer(psi, psi.conj()),
            {"sx1": sx1}, lindblad._exact_series)


def _dephasing_m2_n3():
    site = plus_x_state(3).amps
    psi = np.kron(site, site)
    h = 0.7 * site_operator(2, 3, {0: "z", 1: "z"})
    model = build_dephasing_model(2, 3, "z", 0.05, hamiltonian=h)
    return (model, np.outer(psi, psi.conj()),
            {"sx1": site_operator(2, 3, {0: "x"})}, lindblad._exact_series)


def _lambda_n2():
    basis = MultiModeBasis(3, 2)
    rho0 = np.zeros((basis.size,) * 2, dtype=complex)
    rho0[basis.index[(2, 0, 0)], basis.index[(2, 0, 0)]] = 1.0
    return (build_lambda_model(2, 1.0, 10.0, 0.1), rho0,
            lambda_observables(2), lindblad._rk_series)


@pytest.mark.parametrize("case", [_loss_m2_n2, _dephasing_m2_n3, _lambda_n2],
                         ids=["loss_m2_n2", "dephasing_m2_n3", "lambda_rk"])
def test_sampler_matches_full_matrix_oracle(case):
    model, rho0, observables, series = case()
    record, rhos = sampled(series, model, rho0, 6.0, 41, observables)
    assert_matches_full_matrix_oracle(record, rhos, observables)
    assert not record.failed


def test_kept_entries_closed_under_transposition():
    # rho0 holds (0, k) but not (k, 0): the (k, 0) component is kept too,
    # so the Hermiticity defect sees both entries of the pair
    model = build_loss_model(1, 2, 0.3)
    d = model.dim
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[0, 0] = rho0[3, 3] = 0.5
    rho0[0, 3] = 0.3
    idx, _ = lindblad._exact_series(model, rho0, 1.0, 3)
    assert 3 in idx and 3 * d in idx
    rows, cols = np.divmod(idx, d)
    assert set(idx.tolist()) == set((cols * d + rows).tolist())
    observables = {"sz": loss_spin_operator(loss_basis(2), "z")}
    record, rhos = sampled(lindblad._exact_series, model, rho0, 2.0, 9,
                           observables)
    assert_matches_full_matrix_oracle(record, rhos, observables)
    assert record.herm_defect[0] == pytest.approx(0.3, abs=1e-15)


def test_negative_eigenvalue_in_a_2x2_block_fails_the_record():
    # a diagonal model keeps rho's pattern: the kept blocks are {0, 1}
    # and the 1x1 blocks {2}, {3}; the 2x2 block has eigenvalues
    # 0.25 +- 0.251, so min_eig is -1e-3 from the first sample on
    model = build_dephasing_model(1, 3, "z", 0.05)
    rho0 = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    rho0[0, 1] = rho0[1, 0] = 0.251
    record = integrate_master(model, rho0, 1.0, 5)
    assert record.failed
    assert record.min_eig[0] == pytest.approx(-1e-3, abs=1e-12)
    assert_matches_full_matrix_oracle(
        record, dense_series(lindblad._exact_series, model, rho0, 1.0, 5), {})


def test_index_without_kept_entries_is_a_zero_eigenvalue():
    # a diagonal model keeps only (0, 0) and (1, 1) of diag(1/2, 1/2, 0, 0):
    # indices 2 and 3 hold no kept entry, so rho has the eigenvalue 0 there
    model = build_dephasing_model(1, 3, "z", 0.05)
    rho0 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    record = integrate_master(model, rho0, 1.0, 5)
    np.testing.assert_array_equal(record.min_eig, 0.0)
    assert_matches_full_matrix_oracle(
        record, dense_series(lindblad._exact_series, model, rho0, 1.0, 5), {})


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("model", [build_dephasing_model(1, 3, "z", 0.05),
                                   build_loss_model(1, 2, 0.1)],
                         ids=["expm", "rk"])
def test_non_finite_t_end_is_rejected(model, t_end):
    # checked before any engine starts: expm_multiply cannot size a NaN
    # interval, and DOP853 never returns from an infinite one
    rho0 = np.eye(model.dim, dtype=complex) / model.dim
    with pytest.raises(ValueError, match="t_end must be finite and >= 0"):
        integrate_master(model, rho0, t_end, 5)
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        propagate(model, rho0, t_end)


def _counting(monkeypatch, owner, name):
    """Replace owner.name with a wrapper; return the list of first args."""
    calls = []
    original = getattr(owner, name)

    def wrapper(op, *args, **kwargs):
        calls.append(op)
        return original(op, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_size_one_components_skip_expm_multiply(monkeypatch):
    # collective z dephasing from |+x>|+x>: every kept entry of rho is a
    # Liouvillian component alone, evolved in closed form
    calls = _counting(monkeypatch, lindblad, "expm_multiply")
    site = plus_x_state(6).amps
    psi = np.kron(site, site)
    sx1 = site_operator(2, 6, {0: "x"}) / 6
    record = integrate_master(build_dephasing_model(2, 6, "z", 0.05),
                              np.outer(psi, psi.conj()), 8.0, 97, {"sx1": sx1})
    assert calls == []
    # each coherence of site 1 decays as exp(-2 gamma t)
    assert np.max(np.abs(record.series("sx1")
                         - np.exp(-0.1 * record.times))) < 1e-12


def test_loss_record_diagnostics_skip_eigvalsh(monkeypatch):
    # loss M=2 N=4 from |N, 0>|N, 0> keeps only rho's 225 diagonal entries:
    # one expm_multiply on their (225, 225) generator, and min_eig read
    # off the 1x1 blocks with no eigvalsh
    expm_calls = _counting(monkeypatch, lindblad, "expm_multiply")
    eig_calls = _counting(monkeypatch, np.linalg, "eigvalsh")
    basis = loss_basis(4)
    site = embed_loss_state(make_fock(4, 4), basis)
    psi = np.kron(site, site)
    sz1 = loss_site_operator(basis, 2, 0, loss_spin_operator(basis, "z")) / 4
    record = integrate_master(build_loss_model(2, 4, 0.05),
                              np.outer(psi, psi.conj()), 8.0, 97,
                              {"sz1": sz1})
    assert [op.shape for op in expm_calls] == [(225, 225)]
    assert eig_calls == []
    assert np.isfinite(record.min_eig).sum() == lindblad.MIN_EIG_SAMPLES
    assert not record.failed


def test_to_csv_format(tmp_path):
    rec = EvolutionRecord(times=np.array([0.0, 1.0]),
                          observables={"a": np.array([0.5, 0.25])},
                          trace_dev=1e-12, herm_defect=1e-13)
    path = tmp_path / "rec.csv"
    write_csv(path, *rec.table())
    lines = path.read_text().splitlines()
    assert lines[0] == "t,a,trace_dev,herm_defect"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == 0.5


# ---------------------------------------------------------------------------
# sector propagation

def test_sector_propagator_matches_dense():
    # two modes, fixed total: a diagonal H plus a dephasing jump keep
    # every Fock state its own sector
    basis = MultiModeBasis(2, 3)
    h = 0.8 * basis.number(0).astype(complex)
    jump = (basis.number(0) - basis.number(1)).astype(complex)
    model = LindbladModel(h, ((jump, 0.1),))
    prop = SectorPropagator(model)
    assert len(prop.blocks) == basis.size
    rng = np.random.default_rng(3)
    m = rng.normal(size=(basis.size, basis.size))
    rho0 = m @ m.T
    rho0 = (rho0 / np.trace(rho0)).astype(complex)
    t = 0.9
    dense = propagate(model, rho0, t)
    assert np.max(np.abs(prop.evolve(rho0, t) - dense)) < 1e-8


def test_observable_blocks_band_structure():
    basis = MultiModeBasis(2, 2)
    model = LindbladModel(basis.number(0).astype(complex))
    prop = SectorPropagator(model)
    hop = basis.transition(0, 1)
    pairs = prop.observable_blocks(hop + hop.conj().T)
    assert all(abs(i - j) == 1 for i, j in pairs)


# ---------------------------------------------------------------------------
# decay fitting

def test_linregress_matches_scipy_slope():
    from scipy.stats import linregress as oracle
    rng = np.random.default_rng(11)
    fits = []
    for _ in range(200):
        n = int(rng.integers(3, 80))
        x = rng.normal(rng.normal(0.0, 50.0), rng.uniform(0.1, 30.0), n)
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 20.0)
        fits.append((x, slope * x + rng.normal(0.0, 1.0, n)))
    for _ in range(200):
        # envelope peaks: one or two per Rabi period late in a fig4c run,
        # log heights falling at rates of order 1e-3
        t = np.sort(rng.uniform(180.0, 600.0, int(rng.integers(3, 120))))
        rate = rng.uniform(2e-4, 5e-3)
        fits.append((t, -rate * t - rng.uniform(0.0, 3.0)
                     + rng.normal(0.0, 1e-3, t.size)))
    for x, y in fits:
        assert lindblad.linregress(x, y) == pytest.approx(
            oracle(x, y).slope, rel=1e-12, abs=0.0)


def test_fit_decay_rate_pure_exponential():
    t = np.linspace(0.0, 4.0, 200)
    rec = EvolutionRecord(times=t, observables={"y": np.exp(-0.37 * t)},
                          trace_dev=0.0, herm_defect=0.0)
    fit = fit_decay_rate(rec, "y")
    assert fit.rate == pytest.approx(0.37, rel=1e-6)


def test_fit_decay_rate_damped_cosine_envelope():
    t = np.linspace(0.0, 40.0, 4000)
    rec = EvolutionRecord(
        times=t, observables={"y": np.exp(-0.21 * t) * np.cos(3.0 * t)},
        trace_dev=0.0, herm_defect=0.0)
    fit = fit_decay_rate(rec, "y")
    assert fit.rate == pytest.approx(0.21, rel=1e-3)


def test_fit_decay_rate_flat_signal():
    t = np.linspace(0.0, 4.0, 50)
    rec = EvolutionRecord(times=t, observables={"y": np.ones_like(t)},
                          trace_dev=0.0, herm_defect=0.0)
    fit = fit_decay_rate(rec, "y")
    assert fit.rate == 0.0


def test_envelope_rate_detrends_and_fits_the_tail():
    # damped cosine riding on a slow drift; only peaks past ENVELOPE_TAIL
    # of the run enter the fit
    t = np.linspace(0.0, 40.0, 4000)
    y = 0.5 - 0.01 * t + np.exp(-0.21 * t) * np.cos(3.0 * t)
    rec = EvolutionRecord(times=t, observables={"y": y},
                          trace_dev=0.0, herm_defect=0.0)
    assert oscillation_envelope_rate(rec, "y", 3.0) == \
        pytest.approx(0.21, rel=1e-2)
    # two periods, both before the window opens
    short = np.where(t < 4.2, y, y[0])
    rec = EvolutionRecord(times=t, observables={"y": short},
                          trace_dev=0.0, herm_defect=0.0)
    with pytest.raises(ValueError):
        oscillation_envelope_rate(rec, "y", 3.0)
    # a record shorter than one period cannot be detrended
    rec = EvolutionRecord(times=t[:100], observables={"y": y[:100]},
                          trace_dev=0.0, herm_defect=0.0)
    with pytest.raises(ValueError, match=r"100 samples .* shorter than "
                                         r"one Rabi period \(2\.0944\)"):
        oscillation_envelope_rate(rec, "y", 3.0)
