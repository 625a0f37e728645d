"""Lindblad master-equation engine over bosonic occupation bases.

Models are a Hamiltonian plus weighted jump operators on a shared basis;
the integrator propagates the density matrix

    drho/dt = -i[H, rho] + sum_j gamma_j (L rho L+ - {L+L, rho}/2)

with adaptive error control and per-sample trace/Hermiticity diagnostics.
A rate gamma entering the jump list corresponds to the dissipator written
in the equivalent -(gamma/2)[L+L rho - 2 L rho L+ + rho L+L] form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply
from scipy.stats import linregress

from .errors import CapacityError, IntegrationError

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


def enumerate_occupations(mode_count, total_n):
    """All occupation tuples (n_1..n_modes) with sum n_i = total_n.

    Ordered with the first mode ascending slowest, matching the two-mode
    Fock convention (bosons in the first mode, ascending).
    """
    if mode_count == 1:
        return [(total_n,)]
    out = []
    for n1 in range(total_n + 1):
        for rest in enumerate_occupations(mode_count - 1, total_n - n1):
            out.append((n1,) + rest)
    return out


class OccupationBasis:
    """A list of bosonic occupation tuples with ladder-operator matrices.

    Holds any enumerated set of occupation states (fixed total number or
    not), as long as the set is closed under whatever operators are built
    on it: matrix elements leading outside the set are dropped, which is
    the truncation.
    """

    def __init__(self, states, tag=""):
        states = [tuple(int(n) for n in s) for s in states]
        if not states:
            raise ValueError("empty basis")
        mode_count = len(states[0])
        if any(len(s) != mode_count for s in states):
            raise ValueError("inconsistent mode count across states")
        if any(n < 0 for s in states for n in s):
            raise ValueError("negative occupation")
        if len(set(states)) != len(states):
            raise ValueError("duplicate states in basis")
        self.states = tuple(states)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.mode_count = mode_count
        self.tag = tag or "occ%dx%d" % (mode_count, len(states))

    @property
    def size(self):
        return len(self.states)

    def number(self, mode):
        return np.diag([float(s[mode]) for s in self.states]).astype(complex)

    def lower(self, mode):
        """Annihilation operator for one mode, truncated to the basis."""
        return self.ladder((), (mode,))

    def transition(self, create_mode, destroy_mode):
        """Matrix of  a+_create a_destroy, truncated to the basis."""
        return self.ladder((create_mode,), (destroy_mode,))

    def ladder(self, create=(), destroy=()):
        """Matrix of  prod_c a+_c prod_d a_d  over distinct modes.

        Column s maps to row s + create - destroy with element
        sqrt(prod_d n_d prod_c (n_c + 1)); rows outside the basis are
        dropped, which is the truncation.
        """
        modes = list(create) + list(destroy)
        if len(set(modes)) != len(modes):
            raise ValueError("ladder modes must be distinct")
        occ = np.array(self.states)
        step = np.zeros(self.mode_count, dtype=int)
        step[list(create)] = 1
        step[list(destroy)] = -1
        target = occ + step
        factors = np.where(step > 0, target, np.where(step < 0, occ, 1))
        # one sqrt of an exact integer product per element
        elem = np.sqrt(np.prod(factors, axis=1))
        rows = np.array([self.index.get(tuple(t), -1)
                         for t in target.tolist()])
        cols = np.flatnonzero(rows >= 0)
        out = np.zeros((self.size, self.size), dtype=complex)
        out[rows[cols], cols] = elem[cols]
        return out


class MultiModeBasis(OccupationBasis):
    """All distributions of a fixed boson number over several modes.

    Size is C(total_n + mode_count - 1, mode_count - 1); for three modes
    that is (N+1)(N+2)/2.  Number-conserving operators (transitions,
    mode numbers) close exactly on this basis.
    """

    def __init__(self, mode_count, total_n):
        if mode_count < 1 or total_n < 0:
            raise ValueError("need mode_count >= 1 and total_n >= 0")
        states = enumerate_occupations(mode_count, total_n)
        super().__init__(states, tag="modes%d-N%d" % (mode_count, total_n))
        self.total_n = total_n


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus (jump operator, rate) pairs on one basis."""

    hamiltonian: np.ndarray
    jumps: tuple = ()
    basis_tag: str = ""

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("hamiltonian must be square")
        d = h.shape[0]
        if d > MAX_DENSITY_DIM:
            raise CapacityError(
                "dimension %d exceeds density-matrix ceiling %d"
                % (d, MAX_DENSITY_DIM))
        if np.linalg.norm(h - h.conj().T, np.inf) > 1e-10 * max(
                1.0, np.linalg.norm(h, np.inf)):
            raise ValueError("hamiltonian is not Hermitian")
        jumps = []
        for op, rate in self.jumps:
            op = np.asarray(op, dtype=complex)
            if op.shape != h.shape:
                raise ValueError("jump operator dimension mismatch")
            if rate < 0:
                raise ValueError("negative jump rate")
            jumps.append((op, float(rate)))
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
    for m in mats:
        if np.count_nonzero(m - np.diag(np.diagonal(m))):
            return False
    return True


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


def _exact_series(model, rho, t_end, samples):
    """Density matrices at `samples` equally spaced times in [0, t_end].

    Exact for a time-independent generator.  When every operator is
    diagonal each element rho_ij evolves by its own exponential;
    otherwise expm_multiply applies the exponential of the sparse
    Liouvillian to rho over the whole grid.
    """
    d = model.dim
    if _all_diagonal(model):
        h = np.diagonal(model.hamiltonian)
        gen = -1j * (h[:, None] - h[None, :])
        for op, rate in model.active_jumps():
            l = np.diagonal(op)
            gen = gen + rate * (l[:, None] * l[None, :].conj()
                                - 0.5 * (np.abs(l)[:, None] ** 2
                                         + np.abs(l)[None, :] ** 2))
        return (np.exp(t * gen) * rho
                for t in np.linspace(0.0, t_end, samples))
    flat = expm_multiply(_liouvillian(model), rho.reshape(-1), start=0.0,
                         stop=t_end, num=samples, endpoint=True)
    return (flat[i].reshape(d, d) for i in range(samples))


def _sample_rho(rho_list, times, model, observables, meta):
    n = len(times)
    names = list(observables)
    obs = {name: np.empty(n) for name in names}
    trace_dev = np.empty(n)
    herm = np.empty(n)
    min_eig = np.full(n, np.nan)
    if model.dim <= MIN_EIG_DIM:
        eig_at = set(np.linspace(0, n - 1, min(n, MIN_EIG_SAMPLES)).astype(int))
    else:
        eig_at = set()
    for i, rho in enumerate(rho_list):
        tr = np.trace(rho)
        trace_dev[i] = abs(tr - 1.0)
        herm[i] = np.linalg.norm(rho - rho.conj().T, np.inf)
        if trace_dev[i] > TRACE_ABORT:
            last_good = times[i - 1] if i else 0.0
            raise IntegrationError(
                "trace drifted to %.3e at t=%.6g" % (trace_dev[i], times[i]),
                last_good_time=last_good)
        if i in eig_at:
            w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
            min_eig[i] = w[0]
        for name in names:
            obs[name][i] = np.real(np.trace(observables[name] @ rho))
    return EvolutionRecord(np.asarray(times), obs, trace_dev, herm,
                           min_eig=min_eig, meta=meta)


def integrate_master(model, rho0, t_end, samples, observables=None,
                     method="auto"):
    """Propagate rho under the model and sample observables on a grid.

    observables maps names to Hermitian matrices; their real expectation
    values are recorded at `samples` equally spaced times in [0, t_end].
    method is one of "auto", "expm" (exact evaluation of the
    time-independent generator, elementwise when every operator is
    diagonal), or "rk" (adaptive DOP853 with local tolerance RK_TOL).
    "auto" picks "expm" for diagonal models and above dimension 64.
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    observables = {name: np.asarray(op, dtype=complex)
                   for name, op in (observables or {}).items()}
    d = model.dim
    rho = _as_matrix(rho0, d)
    times = np.linspace(0.0, t_end, samples)

    if method == "auto":
        method = "expm" if _all_diagonal(model) or d > 64 else "rk"
    meta = {"method": method, "dim": d}

    if method == "expm":
        rhos = _exact_series(model, rho, t_end, samples)
    elif method == "rk":
        h = model.hamiltonian
        jumps = [(op, op.conj().T @ op, rate)
                 for op, rate in model.active_jumps()]

        def rhs(_t, y):
            r = y.reshape(d, d)
            out = -1j * (h @ r - r @ h)
            for l, ldl, rate in jumps:
                out += rate * (l @ r @ l.conj().T
                               - 0.5 * (ldl @ r + r @ ldl))
            return out.reshape(-1)

        sol = solve_ivp(rhs, (0.0, t_end), rho.reshape(-1), t_eval=times,
                        method="DOP853", rtol=RK_TOL, atol=RK_TOL * 1e-2)
        if not sol.success:
            raise IntegrationError("integrator failed: %s" % sol.message,
                                   last_good_time=float(sol.t[-1])
                                   if sol.t.size else 0.0)
        rhos = (sol.y[:, i].reshape(d, d) for i in range(samples))
    else:
        raise ValueError("unknown method %r" % method)
    return _sample_rho(rhos, times, model, observables, meta)


def propagate(model, rho, t):
    """Density matrix at a single later time t (no sampling grid)."""
    rho = _as_matrix(rho, model.dim)
    if t == 0.0:
        return rho
    return list(_exact_series(model, rho, t, 2))[-1]


class SectorPropagator:
    """Exact Lindblad propagator over the sectors the operators conserve.

    A sector is a connected component of the joint support of the
    Hamiltonian and the active jumps, so every operator is block diagonal
    over the sectors and the superoperator decouples into independent
    (sector, sector) blocks of the density matrix (Buca & Prosen, NJP 14,
    073007, 2012).  Sectors are ordered by their lowest basis index.
    Each block generator is diagonalized once, after which evolution to
    any time is a single reconstruction — no stiffness limit, which
    matters for weak effective interactions whose gate times exceed the
    fast oscillation period by many orders of magnitude.
    """

    def __init__(self, model):
        mats = [model.hamiltonian] + [op for op, _ in model.active_jumps()]
        support = np.zeros((model.dim, model.dim), dtype=bool)
        for m in mats:
            support |= m != 0
        count, labels = connected_components(sp.csr_matrix(support),
                                             directed=False)
        self.dim = model.dim
        self.blocks = [np.flatnonzero(labels == k) for k in range(count)]
        self._h = [model.hamiltonian[np.ix_(b, b)] for b in self.blocks]
        self._jumps = [([op[np.ix_(b, b)] for b in self.blocks], rate)
                       for op, rate in model.active_jumps()]
        self._eig = {}

    def block_eig(self, i, j):
        """Eigendecomposition of the (sector i, sector j) block generator.

        Computed lazily and cached: most observables touch only a thin
        band of blocks, and the full set can be too large to hold.
        """
        cached = self._eig.get((i, j))
        if cached is not None:
            return cached
        ni, nj = self.blocks[i].size, self.blocks[j].size
        ident_i = np.eye(ni, dtype=complex)
        ident_j = np.eye(nj, dtype=complex)
        gen = -1j * (np.kron(self._h[i], ident_j)
                     - np.kron(ident_i, self._h[j].T))
        for ops, rate in self._jumps:
            li, lj = ops[i], ops[j]
            gen += rate * (np.kron(li, lj.conj())
                           - 0.5 * np.kron(li.conj().T @ li, ident_j)
                           - 0.5 * np.kron(ident_i, (lj.conj().T @ lj).T))
        w, v = np.linalg.eig(gen)
        result = (w, v, np.linalg.inv(v))
        self._eig[i, j] = result
        return result

    def evolve_block(self, x, i, j, t):
        """Propagate one rectangular block of the density matrix."""
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
        """Block-index pairs (i, j) contributing to Tr(operator @ rho).

        The trace pairs rho[b_i, b_j] with operator[b_j, b_i]; blocks
        where that operator slice vanishes can be skipped entirely.
        """
        pairs = []
        for i, bi in enumerate(self.blocks):
            for j, bj in enumerate(self.blocks):
                if np.any(operator[np.ix_(bj, bi)]):
                    pairs.append((i, j))
        return pairs


@dataclass(frozen=True)
class DecayFit:
    """Fitted exponential decay rate with a quality tag.

    quality: "envelope" (>= 3 interpolated peaks), "direct" (log-linear
    fit of |signal|), or "none" (signal does not decay; rate is 0).
    """

    rate: float
    quality: str
    points: int = 0

    def __float__(self):
        return self.rate


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
    peaks = _envelope_peaks(t, y)
    if len(peaks) >= 3:
        pt = np.array([p[0] for p in peaks])
        pa = np.array([p[1] for p in peaks])
        res = linregress(pt, np.log(pa))
        quality, npts = "envelope", len(peaks)
    else:
        a = np.abs(y)
        mask = a > 1e-8 * max(1.0, a.max())
        if mask.sum() < 3:
            return DecayFit(0.0, "none", 0)
        res = linregress(t[mask], np.log(a[mask]))
        quality, npts = "direct", int(mask.sum())
    rate = -res.slope
    if rate <= 0.0:
        return DecayFit(0.0, "none", npts)
    return DecayFit(float(rate), quality, npts)
