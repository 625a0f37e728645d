"""Lindblad master-equation engine over bosonic occupation bases.

Models are a Hamiltonian plus weighted jump operators on a shared basis;
the integrator propagates the density matrix

    drho/dt = -i[H, rho] + sum_j gamma_j (L rho L+ - {L+L, rho}/2)

with per-sample trace/Hermiticity diagnostics.  Every exact evolution
uses the one sparse Liouvillian `_liouvillian` builds: the grid
evaluator and reversal_echo restrict it to the invariant blocks rho
occupies, and sector_echo diagonalizes its (sector, sector) slices.
Adaptive DOP853 integrates the same equation without it.
A rate gamma entering the jump list corresponds to the dissipator written
in the equivalent -(gamma/2)[L+L rho - 2 L rho L+ + rho L+L] form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

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


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus (jump operator, rate) pairs on one basis."""

    hamiltonian: np.ndarray
    jumps: tuple = ()

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("hamiltonian must be square")
        d = h.shape[0]
        if d > MAX_DENSITY_DIM:
            raise CapacityError(
                "dimension %d exceeds density-matrix ceiling %d"
                % (d, MAX_DENSITY_DIM))
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
        object.__setattr__(self, "jumps", tuple(jumps))

    @property
    def dim(self):
        return self.hamiltonian.shape[0]

    def active_jumps(self):
        return [(op, rate) for op, rate in self.jumps if rate > 0.0]


@dataclass
class EvolutionRecord:
    """Sampled observables and density-matrix health along one run."""

    times: np.ndarray
    observables: dict
    trace_dev: np.ndarray
    herm_defect: np.ndarray
    min_eig: np.ndarray = None   # NaN where the check was skipped
    failed: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        # scalars broadcast to one value per sample
        self.trace_dev = np.broadcast_to(
            np.asarray(self.trace_dev, dtype=float), self.times.shape).copy()
        self.herm_defect = np.broadcast_to(
            np.asarray(self.herm_defect, dtype=float), self.times.shape).copy()
        if self.min_eig is None:
            self.min_eig = np.full_like(self.times, np.nan)
        n = self.times.size
        for name, series in self.observables.items():
            if np.asarray(series).size != n:
                raise ValueError("series %r length mismatch" % name)
        # NaN (an unsampled min_eig) compares False
        self.failed = bool(self.failed
                           or np.any(np.abs(self.trace_dev) > TRACE_FLAG)
                           or np.any(self.min_eig < -TRACE_FLAG))

    def series(self, name):
        return np.asarray(self.observables[name], dtype=float)

    def table(self):
        """(header, rows): t,<observable names...>,trace_dev,herm_defect."""
        names = list(self.observables)
        cols = [self.times] + [np.real(self.observables[k]) for k in names]
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
    mats = [model.hamiltonian] + [op for op, _ in model.active_jumps()]
    return not any(np.count_nonzero(m - np.diag(np.diagonal(m))) for m in mats)


def _liouvillian(model):
    """Sparse superoperator over the row-major vectorized density matrix."""
    d = model.dim
    eye = sp.identity(d, format="csr", dtype=complex)
    h = sp.csr_matrix(model.hamiltonian)
    lv = -1j * (sp.kron(h, eye) - sp.kron(eye, h.T))
    for op, rate in model.active_jumps():
        l = sp.csr_matrix(op)
        ldl = (l.conj().T @ l).tocsr()
        lv = lv + rate * (sp.kron(l, l.conj())
                          - 0.5 * sp.kron(ldl, eye)
                          - 0.5 * sp.kron(eye, ldl.T))
    return lv.tocsr()


def _occupied(model, x):
    """(generator, indices, single): the Liouvillian on the entries x touches.

    Each connected component of the sparsity pattern is an invariant
    subspace of vec(rho) (Buca & Prosen, NJP 14, 073007, 2012), so an
    evolution of x needs only the sorted indices of the components x
    touches; every other entry stays 0.  single marks size-1 components.
    """
    lv = _liouvillian(model)
    _, labels = connected_components(lv.astype(bool), directed=False)
    idx = np.flatnonzero(np.isin(labels, labels[np.flatnonzero(x)]))
    single = np.bincount(labels)[labels[idx]] == 1
    return lv[idx][:, idx], idx, single


def _exact_series(model, rho, t_end, samples):
    """(idx, values): rho.flat[idx] at `samples` equal steps over [0, t_end].

    idx sorts the flat indices of the Liouvillian components rho or rho^T
    touches (_occupied), so it is closed under transposition.  Exact for a
    time-independent generator: a size-1 component is x exp(lambda t), and
    one expm_multiply call evolves the union of the others.
    """
    gen, idx, single = _occupied(model, (rho != 0) | (rho.T != 0))
    x = rho.reshape(-1)[idx]
    vals = np.empty((samples, idx.size), dtype=complex)
    vals[:, single] = x[single] * np.exp(np.outer(
        np.linspace(0.0, t_end, samples), gen.diagonal()[single]))
    rest = ~single
    if rest.any():
        vals[:, rest] = expm_multiply(gen[rest][:, rest], x[rest], start=0.0,
                                      stop=t_end, num=samples, endpoint=True)
    return idx, vals


def _sample_rho(idx, vals, t_end, model, observables, meta):
    """Record of vals[k] = rho.flat[idx] at grid time k of [0, t_end].

    idx is sorted and closed under transposition, and rho is 0 off idx.
    rho is block diagonal over the connected blocks of the kept pattern:
    min_eig takes one eigvalsh per block, and a 1x1 block is its diagonal.
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
    eig_at, blocks = set(), []
    if d <= MIN_EIG_DIM:
        eig_at = set(np.linspace(0, n - 1, min(n, MIN_EIG_SAMPLES)).astype(int))
        _, label = connected_components(sp.csr_matrix(
            (np.ones(idx.size), (rows, cols)), shape=(d, d)), directed=False)
        size = np.bincount(label)
        # a 1x1 block is a kept diagonal entry, or an index nothing touches
        lone = on_diag[size[label[rows[on_diag]]] == 1]
        floor = 0.0 if np.unique(rows).size < d else np.inf
        local = np.zeros(d, dtype=int)      # each index's place in its block
        for b in np.flatnonzero(size > 1):
            local[label == b] = np.arange(size[b])
            sel = np.flatnonzero(label[rows] == b)
            blocks.append((size[b], local[rows[sel]], local[cols[sel]], sel))
    for i, v in enumerate(vals):
        trace_dev[i] = abs(v[on_diag].sum() - 1.0)
        if trace_dev[i] > TRACE_ABORT:
            last_good = times[i - 1] if i else 0.0
            raise IntegrationError(
                "trace drifted to %.3e at t=%.6g" % (trace_dev[i], times[i]),
                last_good_time=last_good)
        # norm(rho - rho^H, inf): the largest row sum of |rho - rho^H|
        herm[i] = np.bincount(rows, np.abs(v - v[flip].conj())).max()
        if i in eig_at:
            low = [v[lone].real.min(initial=floor)]
            for k, r, c, sel in blocks:
                m = np.zeros((k, k), dtype=complex)
                m[r, c] = v[sel]
                low.append(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
            min_eig[i] = min(low)
        for name, o in ops.items():
            obs[name][i] = np.real(np.sum(o * v))
    return EvolutionRecord(times, obs, trace_dev, herm,
                           min_eig=min_eig, meta=meta)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use to speed start-up."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def _rk_series(model, rho, t_end, samples):
    """_exact_series's grid by DOP853 (local rtol RK_TOL), keeping all d^2."""
    d, h = model.dim, model.hamiltonian
    if t_end == 0:
        # solve_ivp cannot integrate over an empty interval
        return np.arange(d * d), np.tile(rho.reshape(-1), (samples, 1))
    jumps = [(op, op.conj().T @ op, rate)
             for op, rate in model.active_jumps()]

    def rhs(_t, y):
        r = y.reshape(d, d)
        out = -1j * (h @ r - r @ h)
        for l, ldl, rate in jumps:
            out += rate * (l @ r @ l.conj().T
                           - 0.5 * (ldl @ r + r @ ldl))
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
    kept entries, min_eig with one eigvalsh per block of their pattern.
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


def reversal_echo(model, rho0, readout, times):
    """Tr(readout rho) after running the model for t, then for t with -H.

    Evaluated in the Heisenberg picture.  H is Hermitian, and when every
    active jump is too (else ValueError), the reversed model's (-H, same
    jumps) Liouvillian is the conjugate transpose of the forward one, L_f,
    so

        Tr(O e^{L_r t} e^{L_f t} rho0) = <e^{L_f t} O, e^{L_f t} rho0>,

    and both legs run forward under one generator, restricted to the
    components rho0 occupies (_occupied).  The pair [vec rho0, vec O] is
    stepped between the sorted times with expm_multiply (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488, 2011), and the trace of the
    forward rho is checked at every time, as _sample_rho does.  Returns
    the real signal at each time, in the order given.  Fast on short
    times (the dephasing gate); past many fast periods (the cavity bus)
    expm_multiply takes very many steps, and sector_echo is faster.
    """
    if any(not np.array_equal(op, op.conj().T)
           for op, _ in model.active_jumps()):
        raise ValueError("the Heisenberg-picture echo needs Hermitian jumps")
    times = _check_times(times)
    d = model.dim
    rho = _as_matrix(rho0, d)
    gen, idx, _ = _occupied(model, rho.reshape(-1))
    o = np.asarray(readout, dtype=complex).reshape(-1)
    y = np.stack([rho.reshape(-1)[idx], o[idx]], axis=1)
    # flat index i*d + j is a multiple of d + 1 exactly when i == j
    diag = np.flatnonzero(idx % (d + 1) == 0)
    vals = np.empty(times.size)
    last = 0.0
    for k in np.argsort(times, kind="stable"):
        y = expm_multiply(gen * (times[k] - last), y)
        drift = abs(y[diag, 0].sum() - 1.0)
        if drift > TRACE_ABORT:
            raise IntegrationError(
                "trace drifted to %.3e at t=%.6g" % (drift, times[k]),
                last_good_time=last)
        vals[k] = np.real(np.vdot(y[:, 1], y[:, 0]))
        last = float(times[k])
    return vals


def sector_echo(model, rho0, readout, times):
    """reversal_echo's signal, from the SectorPropagator block generators.

    For real H and jumps (else ValueError) the reversed model's (-H, same
    jumps) block generator is the conjugate of the forward one, so each
    block's (w, V, V^-1), computed once and held only while that block
    runs, evolves x backwards as conj(V exp(w t) V^-1 conj(x)).  Only
    blocks the readout pairs with are evolved; Hermitian symmetry folds
    the (j, i) block into 2 Re of the (i, j) contribution.  One eig per
    block serves any time (the cavity bus); on a few large sectors at
    short times (the dephasing gate) it costs more than reversal_echo.
    """
    times = _check_times(times)
    prop = SectorPropagator(model)
    if any(np.any(m.imag) for m in prop.operators):
        raise ValueError("the reversed echo needs a real H and real jumps")
    rho0 = _as_matrix(rho0, model.dim)
    pairs = set(prop.observable_blocks(readout))
    vals = np.zeros(times.size)
    for i, j in sorted(pairs):
        if i > j and (j, i) in pairs:
            continue
        weight = 2.0 if (i != j and (j, i) in pairs) else 1.0
        bi, bj = prop.blocks[i], prop.blocks[j]
        x0 = rho0[np.ix_(bi, bj)].reshape(-1)
        o_blk = readout[np.ix_(bj, bi)]
        w, v, vinv = prop.block_eig(i, j)
        for k, t in enumerate(times):
            xt = v @ (np.exp(w * t) * (vinv @ x0))
            yt = np.conj(v @ (np.exp(w * t) * (vinv @ np.conj(xt))))
            vals[k] += weight * float(np.real(np.trace(
                o_blk @ yt.reshape(bi.size, bj.size))))
    return vals


class SectorPropagator:
    """Exact Lindblad propagator over the sectors the operators conserve.

    A sector is a connected component of the joint support of the
    Hamiltonian and the active jumps, so every operator is block diagonal
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
        # H and the active jumps over the full basis
        self.operators = [model.hamiltonian] + [
            op for op, _ in model.active_jumps()]
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

    def evolve(self, rho, t):
        rho = np.asarray(rho, dtype=complex)
        out = np.zeros_like(rho)
        for i, bi in enumerate(self.blocks):
            for j, bj in enumerate(self.blocks):
                out[np.ix_(bi, bj)] = self.evolve_block(
                    rho[np.ix_(bi, bj)], i, j, t)
        return out

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
    """Fitted exponential decay rate with a quality tag.

    quality: "envelope" (>= 3 interpolated peaks), "direct" (log-linear
    fit of |signal|), or "none" (signal does not decay; rate is 0).
    """

    rate: float
    quality: str
    points: int = 0


def _envelope_peaks(t, y):
    """Local maxima of |y| with quadratic vertex interpolation."""
    a = np.abs(y)
    floor = 1e-12 * max(1.0, a.max())
    peaks = []
    for i in range(1, len(a) - 1):
        if a[i] < floor:
            continue
        if a[i] >= a[i - 1] and a[i] >= a[i + 1] and (a[i] > a[i - 1]
                                                      or a[i] > a[i + 1]):
            denom = a[i - 1] - 2 * a[i] + a[i + 1]
            if denom < 0:
                shift = 0.5 * (a[i - 1] - a[i + 1]) / denom
                shift = min(0.5, max(-0.5, shift))
                tv = t[i] + shift * (t[i + 1] - t[i])
                av = a[i] - 0.25 * (a[i - 1] - a[i + 1]) * shift
            else:
                tv, av = t[i], a[i]
            peaks.append((tv, av))
    return peaks


def linregress(x, y):
    """Least-squares slope of y on x: sum(dx dy) / sum(dx^2), centred."""
    dx = x - np.mean(x)
    return float(dx @ (y - np.mean(y)) / (dx @ dx))


def _peak_log_slope(t, y, t_min=-np.inf):
    """Slope of log peak height against peak time, and the peak count.

    Peaks are the interpolated maxima of |y| later than t_min; the slope
    is None when fewer than 3 remain.
    """
    peaks = [p for p in _envelope_peaks(t, y) if p[0] > t_min]
    if len(peaks) < 3:
        return None, len(peaks)
    pt, pa = np.array(peaks).T
    return linregress(pt, np.log(pa)), len(peaks)


def log_slope(t, y):
    """Slope of log|y| on t over |y| > 1e-8 max(1, max|y|), and the point
    count; the slope is None when fewer than 3 points remain."""
    a = np.abs(y)
    keep = a > 1e-8 * a.max(initial=1.0)
    n = int(keep.sum())
    return (linregress(t[keep], np.log(a[keep])) if n >= 3 else None), n


def fit_decay_rate(record, observable):
    """Exponential decay rate of one recorded observable.

    Fits log peak magnitude against peak time when the signal oscillates
    (>= 3 detected peaks); otherwise fits log|signal| directly.  Returns
    a DecayFit; non-decaying signals give rate 0 with quality "none".
    """
    t = record.times
    if t.size < 10:
        raise ValueError("need at least 10 samples to fit")
    y = record.series(observable)
    slope, npts = _peak_log_slope(t, y)
    quality = "envelope"
    if slope is None:
        slope, npts = log_slope(t, y)
        quality = "direct"
    if slope is None:
        return DecayFit(0.0, "none", 0)
    if slope >= 0.0:
        return DecayFit(0.0, "none", npts)
    return DecayFit(float(-slope), quality, npts)


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
    slope, _ = _peak_log_slope(t, y - trend, ENVELOPE_TAIL * t[-1])
    if slope is None:
        raise ValueError("too few envelope peaks in the fit window")
    return float(-slope)
