"""Lindblad master-equation engine over bosonic occupation bases.

Models are a Hamiltonian plus weighted jump operators on a shared basis;
the integrator propagates the density matrix

    drho/dt = -i[H, rho] + sum_j gamma_j (L rho L+ - {L+L, rho}/2)

with per-sample trace/Hermiticity diagnostics.  Every exact evolution
reads one generator formula, `_generator`: sparse over the whole basis
(`_liouvillian`) and restricted to the connected components rho occupies
(`_occupied`) for the grid evaluator and echo, or dense over one (sector,
sector) block (`_block_generator`) for fig4d.  Adaptive DOP853
integrates the same equation without it.
A rate gamma entering the jump list corresponds to the dissipator written
in the equivalent -(gamma/2)[L+L rho - 2 L rho L+ + rho L+L] form.

The module loads on numpy alone.  Each scipy module is imported inside
the first call that runs it: scipy.sparse and scipy.sparse.csgraph by
the sparse Liouvillian and its component labels (the exact path and
echo), scipy.sparse.linalg by expm_multiply (when they step),
scipy.integrate by solve_ivp (DOP853).  The pure-state commands and
fig4d's dense blocks load none.  expm_multiply and solve_ivp are
first-use wrappers defined here, where callers, tests and
perfbench/tracing.py look them up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, IntegrationError
# the occupation bases live with the Fock basis; perfbench/tracing.py
# wraps OccupationBasis methods under this module's name
from .spin import OccupationBasis  # noqa: F401

# Full density-matrix integration ceiling (matrix side length).
MAX_DENSITY_DIM = 2500

# A record is marked failed when the sampled trace strays this far from 1,
# or a sampled eigenvalue of rho falls this far below 0; trace drift past
# TRACE_ABORT stops the integration outright.
TRACE_FLAG = 1e-7
TRACE_ABORT = 1e-6

# Local relative tolerance of the adaptive Runge-Kutta (DOP853) path.
RK_TOL = 1e-9

# Eigenvalue positivity checks are only affordable on small matrices, and
# only at a handful of sample points.
MIN_EIG_DIM = 256
MIN_EIG_SAMPLES = 16

# oscillation_envelope_rate fits only peaks after this fraction of the run
ENVELOPE_TAIL = 0.3


def check_density_dim(dim):
    """CapacityError when a density matrix of side dim passes the ceiling.

    Model builders call it with the side known before any matrix is formed.
    """
    if dim > MAX_DENSITY_DIM:
        raise CapacityError("dimension %d exceeds density-matrix ceiling %d"
                            % (dim, MAX_DENSITY_DIM))


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus (jump operator, rate) pairs, rate 0 ones dropped."""

    hamiltonian: np.ndarray
    jumps: tuple = ()

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("hamiltonian must be square")
        check_density_dim(h.shape[0])
        jumps = []
        for op, rate in self.jumps:
            op = np.asarray(op, dtype=complex)
            if op.shape != h.shape:
                raise ValueError("jump operator dimension mismatch")
            if not 0 <= rate < math.inf:     # NaN fails this test too
                raise ValueError("jump rate must be finite and >= 0")
            jumps.append((op, float(rate)))
        if not all(np.isfinite(m).all() for m in [h] + [j[0] for j in jumps]):
            raise ValueError("non-finite entry in the hamiltonian or a jump")
        # only after the finiteness test: a NaN norm compares False
        if np.linalg.norm(h - h.conj().T, np.inf) > 1e-10 * max(
                1.0, np.linalg.norm(h, np.inf)):
            raise ValueError("hamiltonian is not Hermitian")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "jumps", tuple(j for j in jumps if j[1] > 0))

    @property
    def dim(self):
        return self.hamiltonian.shape[0]


@dataclass
class EvolutionRecord:
    """Sampled observables and density-matrix health along one run."""

    times: np.ndarray
    observables: dict
    trace_dev: np.ndarray
    herm_defect: np.ndarray
    min_eig: np.ndarray   # NaN where the check was skipped
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.times.size
        for name, series in self.observables.items():
            if series.size != n:
                raise ValueError("series %r length mismatch" % name)

    @property
    def failed(self):
        # NaN (an unsampled min_eig) compares False
        return bool(np.any(np.abs(self.trace_dev) > TRACE_FLAG)
                    or np.any(self.min_eig < -TRACE_FLAG))

    def series(self, name):
        return self.observables[name]

    def table(self):
        """(header, rows): t,<observable names...>,trace_dev,herm_defect."""
        names = list(self.observables)
        cols = [self.times] + [self.observables[k] for k in names]
        cols += [self.trace_dev, self.herm_defect]
        return ["t"] + names + ["trace_dev", "herm_defect"], zip(*cols)


def _as_matrix(rho0, dim):
    mat = np.asarray(rho0, dtype=complex)
    if mat.ndim == 1:
        if mat.size != dim:
            raise ValueError("state vector dimension mismatch")
        return np.outer(mat, mat.conj())
    if mat.shape != (dim, dim):
        raise ValueError("density matrix dimension mismatch")
    return mat


def _all_diagonal(model):
    mats = [model.hamiltonian] + [op for op, _ in model.jumps]
    return not any(np.count_nonzero(m - np.diag(np.diagonal(m))) for m in mats)


def _terms(h, jumps, eye):
    """(H, D, jumps, 1), D = sum_j gamma_j L+L: _generator's factors."""
    damp = sum((rate * (l.conj().T @ l) for l, rate in jumps), 0 * eye)
    return h, damp, jumps, eye


def _generator(kron, rows, cols):
    """Row-major superoperator of rho[r, c]: -i H_eff (x) 1 + i 1 (x)
    (H + iD/2)^T + sum_j gamma_j L (x) conj(L), H_eff = H - iD/2 (Breuer &
    Petruccione 2002), the left factors _terms over the row states r and
    the right ones over the column states c.  H^T, not conj(H): H is
    Hermitian to 1e-10."""
    h, damp, jumps, eye = rows
    hc, dampc, jumpsc, eyec = cols
    # in place: a dense block makes 5 n^2 arrays, not 8; the freed ones
    # fragment the heap across blocks of different n and raise peak RSS
    lv = kron(h - 0.5j * damp, eyec)
    lv *= -1j
    lv += 1j * kron(eye, (hc + 0.5j * dampc).T)
    for (l, rate), (lc, _) in zip(jumps, jumpsc):
        lv += rate * kron(l, lc.conj())
    return lv


def _liouvillian(model):
    """The sparse (csr) generator over the whole basis."""
    import scipy.sparse as sp
    terms = _terms(sp.csr_matrix(model.hamiltonian),
                   [(sp.csr_matrix(op), rate) for op, rate in model.jumps],
                   sp.identity(model.dim, format="csr", dtype=complex))
    lv = _generator(sp.kron, terms, terms).tocsr()
    lv.eliminate_zeros()    # sp.kron stores the zeros of a half-dense factor
    return lv


def _block_generator(model, rows, cols):
    """The dense generator of rho[rows, cols], rows and cols each a sector:
    a set of basis indices that neither H nor any jump leaves, so that
    the block evolves alone (Buca & Prosen, NJP 14, 073007, 2012)."""
    def terms(states):
        take = np.ix_(states, states)
        return _terms(model.hamiltonian[take],
                      [(op[take], rate) for op, rate in model.jumps],
                      np.eye(states.size))
    return _generator(np.kron, terms(rows), terms(cols))


def _occupied(model, x):
    """(generator, indices, labels): the Liouvillian on the entries x touches.

    Each connected component of the sparsity pattern is an invariant
    subspace of vec(rho) (Buca & Prosen, NJP 14, 073007, 2012), so an
    evolution of x needs only the sorted indices of the components x
    touches (labels: each flat index's component); all else stays 0.
    """
    from scipy.sparse.csgraph import connected_components
    lv = _liouvillian(model)
    _, labels = connected_components(lv.astype(bool), directed=False)
    idx = np.flatnonzero(np.isin(labels, labels[np.flatnonzero(x)]))
    lv = lv[idx]    # frees the full generator: one copy fewer at the peak
    return lv[:, idx], idx, labels


def _exact_series(model, rho, t_end, samples):
    """(idx, values): rho.flat[idx] at `samples` equal steps over [0, t_end].

    idx sorts the flat indices of the Liouvillian components rho or rho^T
    touches (_occupied), so it is closed under transposition.  Exact for a
    time-independent generator: a size-1 component is x exp(lambda t), and
    one expm_multiply call evolves the union of the others.
    """
    gen, idx, labels = _occupied(model, (rho != 0) | (rho.T != 0))
    single = np.bincount(labels)[labels[idx]] == 1
    x = rho.reshape(-1)[idx]
    vals = np.empty((samples, idx.size), dtype=complex)
    vals[:, single] = x[single] * np.exp(np.outer(
        np.linspace(0.0, t_end, samples), gen.diagonal()[single]))
    rest = ~single
    if rest.any():
        vals[:, rest] = expm_multiply(gen[rest][:, rest], x[rest], start=0.0,
                                      stop=t_end, num=samples, endpoint=True)
    return idx, vals


def _check_trace(drift, t, last_good):
    """IntegrationError when the trace drift at time t passes TRACE_ABORT."""
    if drift > TRACE_ABORT:
        raise IntegrationError("trace drifted to %.3e at t=%.6g" % (drift, t),
                               last_good_time=last_good)


def _sample_rho(idx, vals, t_end, model, observables, meta):
    """Record of vals[k] = rho.flat[idx] at grid time k of [0, t_end].

    idx is sorted and closed under transposition, and rho is 0 off idx,
    so rho is block diagonal: a row with no kept entry is the eigenvalue
    0, a kept diagonal entry alone in its row is an eigenvalue, and every
    row holding an off-diagonal kept entry joins one block that min_eig
    reads with one eigvalsh.
    """
    d, n = model.dim, len(vals)
    times = np.linspace(0.0, t_end, n)
    rows, cols = np.divmod(idx, d)
    on_diag = np.flatnonzero(rows == cols)
    flip = np.searchsorted(idx, cols * d + rows)   # position of (j, i)
    # Tr(O rho) = sum over kept (i, j) of O[j, i] rho[i, j]
    ops = {name: op[cols, rows] for name, op in observables.items()}
    obs = {name: np.empty(n) for name in ops}
    trace_dev = np.empty(n)
    herm = np.empty(n)
    min_eig = np.full(n, np.nan)
    eig_at = set()
    if d <= MIN_EIG_DIM:
        eig_at = set(np.linspace(0, n - 1, min(n, MIN_EIG_SAMPLES)).astype(int))
        coupled = np.unique(rows[rows != cols])   # the one block's indices
        sel = np.isin(rows, coupled)   # its entries; the rest are diagonal
        lone = np.flatnonzero(~sel)
        r, c = (np.searchsorted(coupled, x[sel]) for x in (rows, cols))
        floor = 0.0 if np.unique(rows).size < d else np.inf
    for i, v in enumerate(vals):
        trace_dev[i] = abs(v[on_diag].sum() - 1.0)
        _check_trace(trace_dev[i], times[i], times[i - 1] if i else 0.0)
        # norm(rho - rho^H, inf): the largest row sum of |rho - rho^H|
        herm[i] = np.bincount(rows, np.abs(v - v[flip].conj())).max()
        if i in eig_at:
            min_eig[i] = v[lone].real.min(initial=floor)
            if coupled.size:
                m = np.zeros((coupled.size,) * 2, dtype=complex)
                m[r, c] = v[sel]
                min_eig[i] = min(min_eig[i], np.linalg.eigvalsh(
                    0.5 * (m + m.conj().T))[0])
        for name, o in ops.items():
            obs[name][i] = np.real(np.sum(o * v))
    return EvolutionRecord(times, obs, trace_dev, herm, min_eig, meta)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def expm_multiply(*args, **kwargs):
    """scipy.sparse.linalg.expm_multiply, imported on the first call."""
    from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply
    return scipy_expm_multiply(*args, **kwargs)


def _rk_series(model, rho, t_end, samples):
    """_exact_series's grid by DOP853 (local rtol RK_TOL), keeping all d^2."""
    d, h = model.dim, model.hamiltonian
    if t_end == 0:
        # solve_ivp cannot integrate over an empty interval
        return np.arange(d * d), np.tile(rho.reshape(-1), (samples, 1))
    jumps = [(op, dag, dag @ op, rate) for op, rate in model.jumps
             for dag in [op.conj().T]]

    def rhs(_t, y):
        r = y.reshape(d, d)
        out = -1j * (h @ r - r @ h)
        for l, dag, ldl, rate in jumps:
            out += rate * (l @ r @ dag - 0.5 * (ldl @ r + r @ ldl))
        return out.reshape(-1)

    sol = solve_ivp(rhs, (0.0, t_end), rho.reshape(-1),
                    t_eval=np.linspace(0.0, t_end, samples),
                    method="DOP853", rtol=RK_TOL, atol=RK_TOL * 1e-2)
    if not sol.success:
        raise IntegrationError("integrator failed: %s" % sol.message,
                               last_good_time=float(sol.t[-1])
                               if sol.t.size else 0.0)
    return np.arange(d * d), sol.y.T


def integrate_master(model, rho0, t_end, samples, observables=None):
    """Propagate rho under the model and sample observables on a grid.

    observables maps names to Hermitian matrices; their real expectation
    values are recorded at `samples` equally spaced times in [0, t_end].
    The model picks the engine, recorded as meta["method"]: "expm" for
    diagonal models and above dimension 64 (exact on the blocks rho or
    rho^T occupies; a size-1 block is x exp(lambda t)), "rk" (adaptive
    DOP853, all d^2 entries kept) otherwise.  Diagnostics read only the
    kept entries, min_eig with at most one eigvalsh (_sample_rho).
    """
    _check_times(t_end, "t_end")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    observables = {name: np.asarray(op, dtype=complex)
                   for name, op in (observables or {}).items()}
    d = model.dim
    rho = _as_matrix(rho0, d)
    exact = _all_diagonal(model) or d > 64
    series = _exact_series if exact else _rk_series
    meta = {"method": "expm" if exact else "rk", "dim": d}
    return _sample_rho(*series(model, rho, t_end, samples), t_end, model,
                       observables, meta)


def propagate(model, rho, t):
    """Density matrix at a single later time t (no sampling grid)."""
    _check_times(t, "t")
    rho = _as_matrix(rho, model.dim)
    idx, vals = _exact_series(model, rho, t, 2)
    out = np.zeros_like(rho)
    out.flat[idx] = vals[-1]
    return out


def _check_times(times, name="gate times"):
    """times as a float array; ValueError unless every one is finite, >= 0."""
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0) & (times < math.inf)):   # NaN fails too
        raise ValueError("%s must be finite and >= 0" % name)
    return times


def _eig_echo(gen, x, o, times):
    """Re o . e^{conj(gen) t} e^{gen t} x at each time, gen dense.

    One eig, (w, V), evolves x to all times at once as V exp(w t) V^-1 x
    and back as conj(V exp(w t) V^-1 conj(.)), V^-1 applied by solves.
    """
    w, v = np.linalg.eig(gen)
    grow = np.exp(np.outer(w, times))
    xt = v @ (grow * np.linalg.solve(v, x)[:, None])
    yt = np.conj(v @ (grow * np.linalg.solve(v, np.conj(xt))))
    return np.real(o @ yt)


def echo(model, rho0, readout, times):
    """Tr(readout rho) after running the model for t, then for t with -H.

    H and the jumps must be real and the readout Hermitian (else
    ValueError), so the reversed model's (-H, same jumps) generator is
    conj(L), L the forward one, and

        echo(t) = sum_i (e^{L^H t} o)_i (e^{L t} x)_i

    for x = vec rho0 and o pairing rho[i, j] with readout[j, i].  Each
    Liouvillian component L_b (_occupied) that rho0 and the readout both
    touch runs on one of two kernels, once per distinct time.  When
    L_b^T = L_b exactly (the dephasing gate), [x, conj(o)] steps forward
    under L_b between the sorted times with expm_multiply (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488, 2011); the stepped part keeps
    its own trace, checked at every time.  Otherwise (a lowering jump,
    whose L^T != L) _eig_echo diagonalizes L_b once, and the transposed
    entries' component folds into 2 Re of the contribution, as the readout
    is Hermitian.  Returns the real signal at each time, in the order
    given.
    """
    times, back = np.unique(_check_times(times), return_inverse=True)
    if any(np.any(m.imag) for m in [model.hamiltonian] + [
            op for op, _ in model.jumps]):
        raise ValueError("the echo needs a real H and real jumps")
    readout = np.asarray(readout, dtype=complex)
    if not np.array_equal(readout, readout.conj().T):
        raise ValueError("the echo needs a Hermitian readout")
    d = model.dim
    rho = _as_matrix(rho0, d).reshape(-1)
    gen, idx, labels = _occupied(model, rho)
    o = readout.T.reshape(-1)[idx]
    own, flip = labels[idx], labels.reshape(d, d).T.reshape(-1)[idx]
    reached = set(own[o != 0].tolist())
    vals = np.zeros(times.size)
    stepped = np.zeros(idx.size, dtype=bool)
    diagonalized = set()
    for c in sorted(reached):
        pos = np.flatnonzero(own == c)
        mate = flip[pos[0]]     # the component of the transposed entries
        if mate in diagonalized:
            continue
        block = gen[pos][:, pos]
        if (block != block.T).nnz == 0:
            stepped[pos] = True
            continue
        diagonalized.add(c)
        fold = 2.0 if mate > c and mate in reached else 1.0
        vals += fold * _eig_echo(block.toarray(), rho[idx[pos]], o[pos], times)
    if stepped.any():
        # flat index i*d + j is a multiple of d + 1 exactly when i == j
        diag = np.flatnonzero(idx[stepped] % (d + 1) == 0)
        y = np.stack([rho[idx[stepped]], np.conj(o[stepped])], axis=1)
        trace0 = y[diag, 0].sum()
        gen = gen[stepped][:, stepped]
        last = 0.0
        for k, t in enumerate(times):
            y = expm_multiply(gen * (t - last), y)
            _check_trace(abs(y[diag, 0].sum() - trace0), t, last)
            vals[k] += np.real(np.vdot(y[:, 1], y[:, 0]))
            last = float(t)
    return vals[back]


class SectorPropagator:
    """Exact Lindblad propagator over the sectors the operators conserve.

    A sector is a connected component of the joint support of the
    Hamiltonian and the jumps, so every operator is block diagonal
    over the sectors and the superoperator decouples into independent
    (sector, sector) blocks of the density matrix (Buca & Prosen, NJP 14,
    073007, 2012).  Sectors are ordered by their lowest basis index.
    A block generator is a slice of the model's sparse Liouvillian, held
    for the propagator's lifetime; its eigendecomposition gives its
    evolution to any time as a single reconstruction — no stiffness
    limit, which matters for weak effective interactions whose gate times
    exceed the fast oscillation period by many orders of magnitude.  No
    decomposition is cached: most observables touch only a thin band of
    blocks, the full set can be too large to hold, and a caller that
    evolves one block to many times keeps its block_eig result itself.
    """

    def __init__(self, model):
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components
        # H and the jumps over the full basis
        self.operators = [model.hamiltonian] + [op for op, _ in model.jumps]
        support = np.zeros((model.dim, model.dim), dtype=bool)
        for m in self.operators:
            support |= m != 0
        count, self.labels = connected_components(
            sp.csr_matrix(support), directed=False)
        self.blocks = [np.flatnonzero(self.labels == k) for k in range(count)]
        self._dim = model.dim
        self._liouvillian = _liouvillian(model)

    def block_eig(self, i, j):
        """(w, V, V^-1) of the (sector i, sector j) block generator.

        The block acts on the row-major flattened rho[b_i, b_j].
        """
        idx = (self.blocks[i][:, None] * self._dim + self.blocks[j]).ravel()
        w, v = np.linalg.eig(self._liouvillian[idx][:, idx].toarray())
        return w, v, np.linalg.inv(v)

    def evolve_block(self, x, i, j, t):
        """Propagate one block of rho; diagonalizes the block on each call."""
        w, v, vinv = self.block_eig(i, j)
        return (v @ (np.exp(w * t) * (vinv @ x.reshape(-1)))).reshape(x.shape)

    def observable_blocks(self, operator):
        """Sorted block-index pairs (i, j) contributing to Tr(operator @ rho).

        The trace pairs rho[b_i, b_j] with operator[b_j, b_i], so each
        nonzero operator[r, c] names the pair (sector of c, sector of r);
        blocks no nonzero names can be skipped entirely.
        """
        rows, cols = np.nonzero(operator)
        return sorted(set(zip(self.labels[cols].tolist(),
                              self.labels[rows].tolist())))


@dataclass(frozen=True)
class DecayFit:
    """Fitted exponential decay rate; 0 when the signal does not decay."""

    rate: float


def _envelope_peaks(t, y):
    """Local maxima of |y| with quadratic vertex interpolation.

    A peak is a sample above its left neighbour and at or above its right
    one (a flat top counts once), at or above 1e-12 max(1, max|y|).  Its
    rises over the neighbours are > 0 and >= 0, after rounding too, so the
    vertex shift 0.5 (left - right) / (left + right) stays within half a
    step and the vertex is at least as high as the sample.
    """
    a = np.abs(y)
    floor = 1e-12 * max(1.0, a.max())
    peaks = []
    for i in range(1, len(a) - 1):
        left, right = a[i] - a[i - 1], a[i] - a[i + 1]
        if a[i] >= floor and left > 0 and right >= 0:
            shift = 0.5 * (left - right) / (left + right)
            peaks.append((t[i] + shift * (t[i + 1] - t[i]),
                          a[i] + 0.25 * (left - right) * shift))
    return peaks


def linregress(x, y):
    """Least-squares slope of y on x: sum(dx dy) / sum(dx^2), centred."""
    dx = x - np.mean(x)
    return float(dx @ (y - np.mean(y)) / (dx @ dx))


def log_slope(t, y):
    """Slope of log|y| on t over |y| > 1e-8 max(1, max|y|); None when
    fewer than 3 points remain."""
    a = np.abs(y)
    keep = a > 1e-8 * a.max(initial=1.0)
    return linregress(t[keep], np.log(a[keep])) if keep.sum() >= 3 else None


def fit_decay_rate(record, observable):
    """Exponential decay rate of one recorded observable, from log_slope.

    A signal that does not decay, or keeps fewer than 3 points, gives
    rate 0.
    """
    t = record.times
    if t.size < 10:
        raise ValueError("need at least 10 samples to fit")
    slope = log_slope(t, record.series(observable))
    return DecayFit(0.0 if slope is None or slope >= 0.0 else float(-slope))


def oscillation_envelope_rate(record, name, frequency):
    """Decay rate of an oscillation around a slowly drifting background.

    Subtracts a one-period moving average before peak detection (the
    background otherwise biases the peak magnitudes), then fits the log
    of the interpolated peak heights over the last 1 - ENVELOPE_TAIL of
    the run, past the initial transient where the decay has not yet
    reached its asymptotic rate.
    """
    t = record.times
    y = record.series(name)
    period = 2.0 * math.pi / frequency
    # the moving average below needs 3 samples and one period of record
    if t.size < 3:
        raise ValueError("the record has %d samples; the envelope fit needs "
                         "at least 3" % t.size)
    if t[-1] < period:
        raise ValueError(
            "the record (%d samples to t=%.6g) is shorter than one Rabi "
            "period (%.6g)" % (t.size, t[-1], period))
    width = max(3, int(round(period / (t[1] - t[0]))))
    trend = np.convolve(y, np.ones(width) / width, mode="same")
    peaks = [p for p in _envelope_peaks(t, y - trend)
             if p[0] > ENVELOPE_TAIL * t[-1]]
    if len(peaks) < 3:
        raise ValueError("too few envelope peaks in the fit window")
    pt, pa = np.array(peaks).T
    return float(-linregress(pt, np.log(pa)))
