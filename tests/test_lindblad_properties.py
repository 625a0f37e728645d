"""Property tests of the exact propagation paths on random small models.

Each model hides a block structure behind a random permutation of the
basis: random Hermitian blocks for H and 0-3 block-diagonal jumps.  In
half the models H is diagonal and only the jumps (at least one) connect
the states of a block, so the sectors must come from the jumps too.  The
sectors SectorPropagator derives must recover the planted blocks, and
`propagate`, the exact grid evaluator and DOP853 must agree on rho(t) with
the dense np.kron Liouvillian under scipy.linalg.expm while keeping its
trace and Hermiticity, and the record each engine's kept entries give
must match the full-matrix diagnostics.  Each block
eigendecomposition must rebuild the row-major Kronecker block generator
assembled directly from the sector slices of H and the jumps, and the
sector pairs an operator reaches must match a scan of every pair.  For real H
and jumps, the conjugated forward block eigendecomposition must reproduce
the evolution of the reversed model (-H, same jumps), and echo must give
the dense expm echo on the kernel its rule picks: it steps the symmetric
components, and diagonalizes every other folded Liouvillian component
that rho0 and the readout both touch.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from becsim import lindblad
from becsim.lindblad import (LindbladModel, SectorPropagator, _exact_series,
                             _rk_series, echo, propagate)
from test_lindblad import (assert_matches_full_matrix_oracle, dense_evolve,
                           dense_liouvillian, dense_series, sampled)


def _random_block(rng, k, real=False):
    if real:
        return rng.normal(size=(k, k)).astype(complex)
    return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))


@st.composite
def planted_models(draw, real=False):
    """Planted-block model; real=True makes H and every jump real."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)
                 .filter(lambda s: sum(s) <= 12))
    h_dense = draw(st.booleans())
    n_jumps = draw(st.integers(0 if h_dense else 1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = sum(sizes)
    perm = rng.permutation(d)
    cuts = np.cumsum(sizes)[:-1]
    planted = [np.sort(b) for b in np.split(perm, cuts)]

    def block_diagonal(make):
        out = np.zeros((d, d), dtype=complex)
        for b in planted:
            out[np.ix_(b, b)] = make(b.size)
        return out

    if h_dense:
        h = block_diagonal(lambda k: _random_block(rng, k, real))
        h = 0.5 * (h + h.conj().T)
    else:
        h = np.diag(rng.normal(size=d)).astype(complex)
    jumps = tuple((block_diagonal(lambda k: _random_block(rng, k, real)),
                   float(rng.uniform(0.05, 1.0))) for _ in range(n_jumps))
    m = _random_block(rng, d)
    rho0 = m @ m.conj().T
    rho0 /= np.trace(rho0)
    obs = _random_block(rng, d)
    obs = 0.5 * (obs + obs.conj().T)
    obs /= np.linalg.norm(obs, 2)
    t = draw(st.floats(0.1, 2.0))
    return LindbladModel(h, jumps), planted, rho0, obs, t


@settings(max_examples=40, deadline=None)
@given(planted_models())
def test_derived_sectors_recover_planted_blocks(case):
    model, planted, _, _, _ = case
    blocks = SectorPropagator(model).blocks
    labels = np.empty(model.dim, dtype=int)
    for k, b in enumerate(blocks):
        labels[b] = k
    off_block = labels[:, None] != labels[None, :]
    for m in [model.hamiltonian] + [op for op, _ in model.jumps]:
        assert not np.any(m[off_block])
    assert sorted(b.tolist() for b in blocks) == \
        sorted(b.tolist() for b in planted)
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)


@settings(max_examples=40, deadline=None)
@given(planted_models())
def test_sector_exact_and_dop853_agree(case):
    model, _, rho0, obs, t = case
    dense = dense_evolve(model, rho0, t)
    exact = propagate(model, rho0, t)
    for rho in (dense, exact):
        assert abs(np.trace(rho) - 1.0) < 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
    assert np.max(np.abs(dense - exact)) < 1e-7

    times = np.linspace(0.0, t, 3)
    want = [np.real(np.trace(obs @ dense_evolve(model, rho0, s)))
            for s in times]
    for series in (_exact_series, _rk_series):
        got = [np.real(np.trace(obs @ rho))
               for rho in dense_series(series, model, rho0, t, 3)]
        assert np.max(np.abs(np.subtract(got, want))) < 1e-7


@settings(max_examples=40, deadline=None)
@given(planted_models(), st.booleans())
def test_sampler_matches_full_matrix_oracle(case, block_diagonal):
    # block_diagonal keeps only rho0's planted diagonal blocks, so the kept
    # index pattern splits into one block per planted block at least
    model, planted, rho0, obs, t = case
    if block_diagonal:
        label = np.empty(model.dim, dtype=int)
        for k, b in enumerate(planted):
            label[b] = k
        rho0 = np.where(label[:, None] == label[None, :], rho0, 0)
        rho0 /= np.trace(rho0)
    for series in (_exact_series, _rk_series):
        record, rhos = sampled(series, model, rho0, t, 5, {"obs": obs})
        assert_matches_full_matrix_oracle(record, rhos, {"obs": obs})


def _kron_block_generator(model, bi, bj):
    """Generator of the row-major flattened rho[bi, bj], from np.kron."""
    eye_i = np.eye(bi.size, dtype=complex)
    eye_j = np.eye(bj.size, dtype=complex)
    h = model.hamiltonian
    gen = -1j * (np.kron(h[np.ix_(bi, bi)], eye_j)
                 - np.kron(eye_i, h[np.ix_(bj, bj)].T))
    for op, rate in model.jumps:
        li, lj = op[np.ix_(bi, bi)], op[np.ix_(bj, bj)]
        gen += rate * (np.kron(li, lj.conj())
                       - 0.5 * np.kron(li.conj().T @ li, eye_j)
                       - 0.5 * np.kron(eye_i, (lj.conj().T @ lj).T))
    return gen


@settings(max_examples=40, deadline=None)
@given(planted_models())
def test_block_eig_rebuilds_the_kron_block_generator(case):
    model = case[0]
    prop = SectorPropagator(model)
    for i, bi in enumerate(prop.blocks):
        for j, bj in enumerate(prop.blocks):
            w, v, vinv = prop.block_eig(i, j)
            want = _kron_block_generator(model, bi, bj)
            got = (v * w) @ vinv
            # the floor covers blocks whose terms cancel to round-off
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) <= 1e-9 * scale


@settings(max_examples=40, deadline=None)
@given(planted_models(real=True))
def test_conjugate_block_eig_reverses_real_models(case):
    # the (-H, L) generator of a real model is the conjugate of (H, L)'s
    model, _, rho0, _, t = case
    assert not np.any(model.hamiltonian.imag)
    prop = SectorPropagator(model)
    reverse = dense_evolve(LindbladModel(-model.hamiltonian, model.jumps),
                           rho0, t)
    for i, bi in enumerate(prop.blocks):
        for j, bj in enumerate(prop.blocks):
            w, v, vinv = (a.conj() for a in prop.block_eig(i, j))
            x = rho0[np.ix_(bi, bj)].reshape(-1)
            got = v @ (np.exp(w * t) * (vinv @ x))
            want = reverse[np.ix_(bi, bj)].reshape(-1)
            assert np.max(np.abs(got - want)) < 1e-8


@settings(max_examples=40, deadline=None)
@given(planted_models(), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.3))
def test_observable_blocks_match_brute_force_scan(case, seed, density):
    # a random sparsity pattern reaches a random subset of the pairs
    model, _, _, obs, _ = case
    prop = SectorPropagator(model)
    rng = np.random.default_rng(seed)
    sparse_obs = np.where(rng.random(obs.shape) < density, obs, 0)
    scan = [(i, j) for i, bi in enumerate(prop.blocks)
            for j, bj in enumerate(prop.blocks)
            if np.any(sparse_obs[np.ix_(bj, bi)])]
    assert prop.observable_blocks(sparse_obs) == scan


def _ladder_model(planted, rng):
    """Diagonal H, a lowering chain inside each planted block and a
    diagonal jump: each (block, block) slice splits into its diagonals
    i - j = const, so the Liouvillian components are finer than the
    sectors."""
    d = sum(b.size for b in planted)
    lower = np.zeros((d, d), dtype=complex)
    for b in planted:
        lower[b[:-1], b[1:]] = rng.uniform(0.5, 1.5, size=b.size - 1)
    dephase = np.diag(rng.normal(size=d)).astype(complex)
    return LindbladModel(np.diag(rng.normal(size=d)).astype(complex),
                         ((lower, float(rng.uniform(0.05, 1.0))),
                          (dephase, float(rng.uniform(0.05, 1.0)))))


@settings(max_examples=40, deadline=None)
@given(planted_models(real=True),
       st.sampled_from(["symmetric", "drawn", "ladder"]),
       st.integers(0, 2 ** 32 - 1))
def test_echo_matches_dense_echo(case, kind, seed):
    """kind "symmetric": symmetric jumps, so every component steps;
    "ladder": lowering jumps, so every component larger than one entry is
    diagonalized; "drawn": the planted jumps."""
    model, planted, rho0, obs, t = case
    rng = np.random.default_rng(seed)
    if kind == "ladder":
        model = _ladder_model(planted, rng)
    if kind == "symmetric":
        model = LindbladModel(model.hamiltonian, tuple(
            (0.5 * (op + op.T), rate) for op, rate in model.jumps))
    d = model.dim
    fwd = dense_liouvillian(model.hamiltonian, model.jumps)
    rev = dense_liouvillian(-model.hamiltonian, model.jumps)
    # rho0 on a random nonempty subset of the planted blocks: the readout
    # (dense) also touches components rho0 does not
    keep = np.zeros(d, dtype=bool)
    for k, b in enumerate(planted):
        keep[b] = k == 0 or rng.random() < 0.5
    rho0 = np.where(keep[:, None] & keep[None, :], rho0, 0)
    rho0 /= np.trace(rho0)
    times = np.array([t, 0.0, 0.5 * t])
    with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig, \
            mock.patch.object(lindblad, "expm_multiply",
                              wraps=lindblad.expm_multiply) as stepper:
        got = echo(model, rho0, obs, times)
    for s, value in zip(times, got):
        vec = expm(s * rev) @ (expm(s * fwd) @ rho0.reshape(-1, order="F"))
        want = np.real(np.trace(obs @ vec.reshape(d, d, order="F")))
        assert abs(value - want) < 1e-8

    # the components, from the column-stacked dense generator: entry
    # (i, j) sits at i + j d there
    _, label = connected_components(fwd != 0, directed=False)
    label = label.reshape(d, d, order="F")
    if kind == "ladder" and max(b.size for b in planted) > 1:
        assert np.unique(label).size > len(planted) ** 2
    both = set(label[rho0 != 0].tolist()) & set(label[obs.T != 0].tolist())
    orbits = {frozenset((c, label.T[label == c][0])) & both for c in both}
    # the kernel rule on each orbit's first component
    stepped = []
    for orbit in orbits:
        e = np.flatnonzero(label.reshape(-1, order="F") == min(orbit))
        block = fwd[np.ix_(e, e)]
        stepped.append(np.array_equal(block, block.T))
        if kind == "symmetric":
            assert stepped[-1]
        if kind == "ladder" and e.size > 1:
            assert not stepped[-1]
    assert eig.call_count == stepped.count(False)
    assert stepper.call_count == (times.size if any(stepped) else 0)
