"""Single BEC qubit: Fock basis, spin coherent states, collective spin operators.

A two-component condensate with ``N`` bosons in modes ``a`` and ``b`` lives in
an ``N+1`` dimensional Hilbert space.  Basis states are indexed by ``k``, the
number of bosons in mode ``a`` (ascending, ``k = 0..N``), which makes ``Sz``
diagonal with entries ``2k - N``.  The spin operators use the convention
without the conventional factor of 1/2, so ``[Sx, Sy] = 2i Sz`` and
``Sx^2 + Sy^2 + Sz^2 = N(N+2)``.

The bosonic occupation bases (``OccupationBasis``, ``MultiModeBasis``) live
here too: their ladder operators build every spin, Hamiltonian and jump
matrix of the package, as plain arrays.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

_NORM_TOL = 1e-12


def log_binomial(n: int, k) -> np.ndarray:
    """log of the binomial coefficient C(n, k); stable for large n."""
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def sqrt_binomial(n: int, k) -> np.ndarray:
    """sqrt(C(n, k)) computed in log space to avoid overflow for n > 60."""
    return np.exp(0.5 * log_binomial(n, k))


@dataclass(frozen=True)
class CoherentParams:
    """Bloch-sphere parameters of one spin coherent state.

    ``alpha`` and ``beta`` are the mode amplitudes with
    ``|alpha|^2 + |beta|^2 = 1``; ``n_atoms`` is the boson number.
    """

    alpha: complex
    beta: complex
    n_atoms: int

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"(alpha, beta) not normalized: |a|^2+|b|^2 = {norm}")
        if abs(norm - 1.0) > _NORM_TOL:
            # renormalize silently within the loose tolerance
            s = 1.0 / math.sqrt(norm)
            object.__setattr__(self, "alpha", complex(self.alpha) * s)
            object.__setattr__(self, "beta", complex(self.beta) * s)
        else:
            object.__setattr__(self, "alpha", complex(self.alpha))
            object.__setattr__(self, "beta", complex(self.beta))

    @classmethod
    def from_angles(cls, theta: float, phi: float, n_atoms: int) -> "CoherentParams":
        """Build from Bloch angles, alpha = cos(theta/2), beta = sin(theta/2)e^{i phi}.

        theta is canonicalized to [0, pi] and phi to [0, 2 pi).
        """
        theta = float(theta) % (2 * math.pi)
        if theta > math.pi:
            # reflect through the pole and shift the azimuth
            theta = 2 * math.pi - theta
            phi = phi + math.pi
        phi = float(phi) % (2 * math.pi)
        return cls(math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2), n_atoms)

    @property
    def theta(self) -> float:
        return 2 * math.atan2(abs(self.beta), abs(self.alpha))

    @property
    def phi(self) -> float:
        # azimuth of beta relative to alpha's phase, in [0, 2 pi)
        if abs(self.beta) == 0:
            return 0.0
        if abs(self.alpha) == 0:
            return cmath.phase(self.beta) % (2 * math.pi)
        return (cmath.phase(self.beta) - cmath.phase(self.alpha)) % (2 * math.pi)

    @property
    def global_phase(self) -> float:
        # phase factored out of alpha by the angular decomposition
        return cmath.phase(self.alpha) if abs(self.alpha) > 0 else 0.0


@dataclass(frozen=True)
class SpinState:
    """Pure state of one BEC qubit as amplitudes over the Fock basis.

    ``amps[k]`` multiplies the state with ``k`` bosons in mode ``a``.
    """

    n_atoms: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (self.n_atoms + 1,):
            raise ValueError(
                f"amps must have length N+1 = {self.n_atoms + 1}, got {amps.shape}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: sum |amps|^2 = {norm}")
        amps = amps / math.sqrt(norm)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.n_atoms + 1


@dataclass(frozen=True)
class EffectiveCouplingParams:
    """Inputs of the adiabatic-elimination coupling formulas.

    ``g``: laser coupling, ``cavity_g``: cavity coupling, ``detuning``: laser/cavity
    detuning, ``hyperfine_split``: splitting of the optically excited levels.
    All in angular-frequency units.
    """

    g: float
    cavity_g: float = 0.0
    detuning: float = 1.0
    hyperfine_split: float = 0.0

    def __post_init__(self):
        if self.detuning == 0:
            raise ValueError("detuning must be nonzero")
        if abs(self.detuning) < 5 * abs(self.g):
            warnings.warn(
                "detuning is less than 5x the coupling; "
                "perturbative coupling formulas may be inaccurate",
                stacklevel=2,
            )


def make_fock(k: int, n_atoms: int) -> SpinState:
    """Basis state with k bosons in mode a and N-k in mode b."""
    if not 0 <= k <= n_atoms:
        raise ValueError(f"k must satisfy 0 <= k <= {n_atoms}, got {k}")
    amps = np.zeros(n_atoms + 1, dtype=complex)
    amps[k] = 1.0
    return SpinState(n_atoms, amps)


def make_coherent(p: CoherentParams) -> SpinState:
    """Spin coherent state (alpha a^+ + beta b^+)^N |0> / sqrt(N!)."""
    n = p.n_atoms
    k = np.arange(n + 1)
    # amplitudes via logs: sqrt(C(N,k)) alpha^k beta^(N-k), with care at zeros
    amps = np.zeros(n + 1, dtype=complex)
    ra, rb = abs(p.alpha), abs(p.beta)
    pa = cmath.phase(p.alpha) if ra > 0 else 0.0
    pb = cmath.phase(p.beta) if rb > 0 else 0.0
    with np.errstate(divide="ignore"):
        log_ra = np.log(ra) if ra > 0 else -np.inf
        log_rb = np.log(rb) if rb > 0 else -np.inf
        logmag = 0.5 * log_binomial(n, k) + k * log_ra + (n - k) * log_rb
    mask = np.isfinite(logmag)
    phase = np.exp(1j * (k * pa + (n - k) * pb))
    amps[mask] = np.exp(logmag[mask]) * phase[mask]
    norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return SpinState(n, amps / norm)


def overlap_numeric(s1: SpinState, s2: SpinState) -> complex:
    """Fock-basis inner product <s1|s2>."""
    if s1.n_atoms != s2.n_atoms:
        raise ValueError("states must share the same boson number")
    return complex(np.vdot(s1.amps, s2.amps))


def overlap_analytic(p1: CoherentParams, p2: CoherentParams) -> complex:
    """Closed-form overlap <<alpha1,beta1 | alpha2, beta2>> of coherent states.

    Evaluated in the Bloch-angle form; reduces to cos^N((theta2-theta1)/2)
    at equal azimuth.
    """
    if p1.n_atoms != p2.n_atoms:
        raise ValueError("states must share the same boson number")
    n = p1.n_atoms
    th1, ph1 = p1.theta, p1.phi
    th2, ph2 = p2.theta, p2.phi
    # sign of the azimuth difference fixed by matching <p1|p2> in the Fock basis
    dphi = ph1 - ph2
    base = math.cos((th2 - th1) / 2) * math.cos(dphi / 2) + 1j * math.cos(
        (th2 + th1) / 2
    ) * math.sin(dphi / 2)
    # restore the global phases the angular decomposition strips from alpha
    gp = cmath.exp(1j * n * (p2.global_phase - p1.global_phase))
    return gp * cmath.exp(-1j * dphi * n / 2) * base**n


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

    def __init__(self, states):
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

    def spin(self, axis):
        """Collective spin of modes 0 (a) and 1 (b) on this basis.

        S^x = a+b + b+a, S^y = -i a+b + i b+a, S^z = n_a - n_b.
        """
        if axis == "z":
            return self.number(0) - self.number(1)
        ab = self.transition(0, 1)
        if axis == "x":
            return ab + ab.conj().T
        if axis == "y":
            return -1j * ab + 1j * ab.conj().T
        raise ValueError(f"axis must be x, y or z; got {axis!r}")


class MultiModeBasis(OccupationBasis):
    """All distributions of a fixed boson number over several modes.

    Size is C(total_n + mode_count - 1, mode_count - 1); for three modes
    that is (N+1)(N+2)/2.  Number-conserving operators (transitions,
    mode numbers) close exactly on this basis.
    """

    def __init__(self, mode_count, total_n):
        if mode_count < 1 or total_n < 0:
            raise ValueError("need mode_count >= 1 and total_n >= 0")
        super().__init__(enumerate_occupations(mode_count, total_n))
        self.total_n = total_n


def spin_operator(axis: str, n_atoms: int) -> np.ndarray:
    """Collective spin operator Sx, Sy or Sz on the (N+1)-dim Fock basis.

    axis "I" gives the identity, the factor of sites a product omits.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    if axis == "I":
        return np.eye(n_atoms + 1, dtype=complex)
    return MultiModeBasis(2, n_atoms).spin(axis)


def kron_product(mats, coeff: float = 1.0) -> np.ndarray:
    """coeff times the Kronecker product of mats, the first factor slowest.

    Embeds per-site operators in a multi-site register: site 0 varies
    slowest, the ordering of register amplitudes.
    """
    out = np.array([[coeff]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def rotate(s: SpinState, n_vec, angle: float) -> SpinState:
    """Apply exp(-i angle (n . S)) via exact eigendecomposition."""
    n_vec = np.asarray(n_vec, dtype=float)
    if n_vec.shape != (3,) or abs(np.linalg.norm(n_vec) - 1.0) > 1e-9:
        raise ValueError("rotation axis must be a unit 3-vector")
    gen = (
        n_vec[0] * spin_operator("x", s.n_atoms)
        + n_vec[1] * spin_operator("y", s.n_atoms)
        + n_vec[2] * spin_operator("z", s.n_atoms)
    )
    evals, evecs = np.linalg.eigh(gen)
    amps = evecs @ (np.exp(-1j * angle * evals) * (evecs.conj().T @ s.amps))
    return SpinState(s.n_atoms, amps)


def moments(s: SpinState) -> tuple[np.ndarray, float]:
    """Mean spin vector (<Sx>, <Sy>, <Sz>) and the variance of Sz."""
    mean = np.empty(3)
    for i, axis in enumerate("xyz"):
        op = spin_operator(axis, s.n_atoms)
        mean[i] = np.real(np.vdot(s.amps, op @ s.amps))
    sz = spin_operator("z", s.n_atoms)
    sz2 = np.real(np.vdot(s.amps, sz @ (sz @ s.amps)))
    return mean, float(sz2 - mean[2] ** 2)


def fidelity(s1: SpinState, s2: SpinState) -> float:
    """|<s1|s2>|^2; the phase-insensitive comparison used throughout."""
    return abs(overlap_numeric(s1, s2)) ** 2


def effective_couplings(p: EffectiveCouplingParams) -> tuple[float, float, float]:
    """Adiabatic-elimination coupling scales.

    Returns ``(omega1, omega1_hf, omega2)``: the two-level coupling g^2/Delta,
    the hyperfine-limited Rabi frequency g^2 deltaE / Delta^2, and the
    cavity-mediated two-site coefficient -G^2 g^2 / (4 Delta^3).
    """
    g, big_g, delta, de = p.g, p.cavity_g, p.detuning, p.hyperfine_split
    omega1 = g**2 / delta
    omega1_hf = g**2 * de / delta**2
    omega2 = -(big_g**2) * g**2 / (4 * delta**3)
    return omega1, omega1_hf, omega2
