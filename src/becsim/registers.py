"""Joint states of several BEC qubits: tensor products, the Sz*Sz entangling
gate, partial trace, and von Neumann entanglement entropy.

Joint amplitudes are stored row-major in site order, site 1 slowest.  Dense
joint vectors are refused above ``MAX_AMPLITUDES`` entries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, NumericalIntegrityError
from .spin import (CoherentParams, SpinState, half_weights, kron_product,
                   make_coherent)

MAX_AMPLITUDES = 10**7

EIGENVALUE_CLIP = 1e-12  # drop eigenvalues below this before taking logs


def _joint_dim(site_n) -> int:
    """Joint dimension prod(N_i + 1); CapacityError above MAX_AMPLITUDES.

    Callers check before they allocate the joint amplitudes.
    """
    dim = math.prod(n + 1 for n in site_n)
    if dim > MAX_AMPLITUDES:
        raise CapacityError(f"joint dimension {dim} exceeds {MAX_AMPLITUDES}")
    return dim


@dataclass(frozen=True)
class BecRegister:
    """Pure joint state of M BEC qubits with per-site boson numbers."""

    site_n: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        site_n = tuple(int(n) for n in self.site_n)
        if len(site_n) < 1 or any(n < 1 for n in site_n):
            raise ValueError("site_n must be a nonempty tuple of positive counts")
        dim = _joint_dim(site_n)
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != dim:
            raise ValueError(f"amps must have length {dim}, got {amps.size}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= 1e-9:   # NaN fails too
            raise ValueError(f"register not normalized: {norm}")
        amps = amps / math.sqrt(norm)
        amps.setflags(write=False)
        object.__setattr__(self, "site_n", site_n)
        object.__setattr__(self, "amps", amps)

    @property
    def n_sites(self) -> int:
        return len(self.site_n)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in self.site_n)

    def as_tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state over an enumerated basis, validated on construction.

    Real entries stay real (float64), so their eigvalsh is the cheaper
    real-symmetric one; any other input is stored as complex.
    """

    entries: np.ndarray

    def __post_init__(self):
        real = np.isrealobj(self.entries)
        entries = np.asarray(self.entries, dtype=float if real else complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"entries must be square, got shape {entries.shape}")
        tr = complex(np.trace(entries))
        if not abs(tr - 1.0) <= 1e-10:   # NaN fails too
            raise NumericalIntegrityError(f"trace deviates from 1 by {abs(tr - 1.0)}")
        herm = np.max(np.abs(entries - entries.conj().T))
        if not herm <= 1e-10:
            raise NumericalIntegrityError(f"Hermiticity defect {herm}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        w = np.linalg.eigvalsh(self.entries)
        if w.min() < -1e-8:
            raise NumericalIntegrityError(f"negative eigenvalue {w.min()}")
        return w


def tensor(states: Sequence[SpinState]) -> BecRegister:
    """Kronecker product of single-site states, in the given site order."""
    if not states:
        raise ValueError("need at least one state")
    _joint_dim([s.n_atoms for s in states])
    return BecRegister(tuple(s.n_atoms for s in states),
                       kron_product([s.amps for s in states]))


def plus_x_state(n_atoms: int) -> SpinState:
    """The (1/sqrt2, 1/sqrt2) coherent state, the Sx = N eigenstate."""
    return SpinState(n_atoms, half_weights(n_atoms))


def apply_zz(reg: BecRegister, site_i: int, site_j: int, omega_t: float) -> BecRegister:
    """Diagonal evolution exp(-i omega_t Sz_i Sz_j) on the joint state."""
    m = reg.n_sites
    if not (0 <= site_i < m and 0 <= site_j < m) or site_i == site_j:
        raise ValueError(f"invalid site pair ({site_i}, {site_j}) for {m} sites")
    tens = reg.as_tensor()
    shape_i = [1] * m
    shape_i[site_i] = reg.dims[site_i]
    shape_j = [1] * m
    shape_j[site_j] = reg.dims[site_j]
    mi = (2 * np.arange(reg.dims[site_i]) - reg.site_n[site_i]).reshape(shape_i)
    mj = (2 * np.arange(reg.dims[site_j]) - reg.site_n[site_j]).reshape(shape_j)
    phases = np.exp(-1j * omega_t * mi * mj)
    return BecRegister(reg.site_n, (tens * phases).reshape(-1))


def entangled_state_analytic(n1: int, n2: int, omega_t: float) -> BecRegister:
    """Closed form of exp(-i omega_t Sz Sz) on two +x-polarized BECs.

    Site 2 is expanded over its Fock basis; each |k2> is attached to the
    coherent state on site 1 whose azimuth is rotated by
    chi = (N2 - 2 k2) omega_t, so the amplitude of |k1 k2> is
    w2[k2] w1[k1] exp(i chi (2 k1 - N1)) with w the |+x> weights.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("boson numbers must be >= 1")
    _joint_dim((n1, n2))
    chi = (n2 - 2 * np.arange(n2 + 1)) * omega_t
    chi = np.angle(np.exp(1j * chi))   # wrapped, as a branch's azimuth is
    phases = np.exp(1j * np.outer(2 * np.arange(n1 + 1) - n1, chi))
    amps = np.outer(half_weights(n1), half_weights(n2)) * phases
    return BecRegister((n1, n2), amps.reshape(-1))


def entangler_reduced_state(n1: int, n2: int, omega_t: float) -> DensityMatrix:
    """Site-1 reduced state of entangled_state_analytic(n1, n2, omega_t).

    Tracing site 2 sums its |+x> weights against exp(2i (k - k') chi), the
    binomial characteristic function, so rho[k, k'] = w1[k] w1[k']
    cos((k - k') theta)^N2 with theta = 2 omega_t: real symmetric, and
    built without the joint register.  omega_t is reduced mod pi first
    (exact, and a no-op for |omega_t| <= pi/2) so theta stays finite.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("boson numbers must be >= 1")
    _joint_dim((n1, n2))   # the register's cap, so the same N are refused
    k = np.arange(n1 + 1)
    lags = np.cos(k * (2.0 * math.remainder(omega_t, math.pi))) ** n2
    w = half_weights(n1)
    rho = np.outer(w, w) * lags[np.abs(k[:, None] - k[None, :])]
    return DensityMatrix(rho / np.trace(rho))


def partial_trace(reg: BecRegister, keep_site: int) -> DensityMatrix:
    """Reduced density matrix of one site of a two-site register.

    Registers with more than two sites are reduced by grouping every other
    site into the traced-out factor.
    """
    if not 0 <= keep_site < reg.n_sites:
        raise ValueError(f"invalid site {keep_site}")
    tens = np.moveaxis(reg.as_tensor(), keep_site, 0)
    mat = tens.reshape(reg.dims[keep_site], -1)
    rho = mat @ mat.conj().T
    # symmetrize away rounding noise before the invariant checks
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return DensityMatrix(rho)


def entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -Tr(rho log2 rho) in bits, at most log2(dim)."""
    w = rho.eigenvalues()
    w = w[w > EIGENVALUE_CLIP]
    bits = max(0.0, float(-np.sum(w * np.log2(w))))   # 0.0, not -0.0
    if bits > math.log2(rho.dim) + 1e-9:
        raise NumericalIntegrityError(
            f"entropy {bits} outside [0, {math.log2(rho.dim)}]")
    return bits


def entanglement_entropy(reg: BecRegister, keep_site: int = 0) -> float:
    """Entropy in bits of the reduced state of ``keep_site``."""
    return entropy(partial_trace(reg, keep_site))


def register_fidelity(r1: BecRegister, r2: BecRegister) -> float:
    """|<r1|r2>|^2 between two joint pure states."""
    if r1.site_n != r2.site_n:
        raise ValueError("registers must have matching site structure")
    return abs(np.vdot(r1.amps, r2.amps)) ** 2


def cat_decomposition(n_atoms: int) -> BecRegister:
    """Two-branch coherent-state decomposition of the state at omega_t = pi/4.

    Splitting the site-1 Fock sum by parity attaches each half to one of two
    antipodal-azimuth coherent states on site 2, a macroscopic superposition.
    The even/odd weights carry phases i^(N k1), which reduce to the plain
    (|+x> +- |-x>) combinations when N is a multiple of four.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    n = n_atoms
    r = 1 / math.sqrt(2)
    alpha_c = r * cmath.exp(1j * math.pi * n / 4)
    beta_c = r * cmath.exp(-1j * math.pi * n / 4)
    branch_even = make_coherent(CoherentParams(alpha_c, beta_c, n))
    branch_odd = make_coherent(CoherentParams(-alpha_c, beta_c, n))
    k1 = np.arange(n + 1)
    weights = half_weights(n) * np.exp(1j * math.pi * n * k1 / 2)
    amps = np.zeros((n + 1, n + 1), dtype=complex)
    even = k1 % 2 == 0
    amps[even, :] = weights[even, None] * branch_even.amps[None, :]
    amps[~even, :] = weights[~even, None] * branch_odd.amps[None, :]
    return BecRegister((n, n), amps.reshape(-1))


def cat_decomposition_check(n_atoms: int) -> float:
    """Fidelity of the two-branch cat decomposition against the exact gate."""
    start = tensor([plus_x_state(n_atoms), plus_x_state(n_atoms)])
    evolved = apply_zz(start, 0, 1, math.pi / 4)
    return register_fidelity(cat_decomposition(n_atoms), evolved)
