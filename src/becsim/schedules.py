"""Hamiltonian schedules of spin-operator products, the qubit-to-BEC mapping
recipe, and Deutsch's algorithm on BEC qubits.

A schedule is a list of :class:`GateStep`; each step evolves
``exp(-i H t)`` with ``H`` a sum of mutually commuting products of
single-site spin operators.  The text format, one step per line::

    term <coeff> <site>:<axis> [<site>:<axis>] ; <time>

with 1-based sites, axes ``I x y z``, ``#`` comments and blank lines ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .lindblad import check_density_dim
from .registers import (BecRegister, _joint_dim, partial_trace,
                        plus_x_state, tensor)
from .spin import kron_product, make_fock, spin_operator

AXES = ("I", "x", "y", "z")


@dataclass(frozen=True)
class SpinProductTerm:
    """coeff * product of single-site spin operators, at most one per site."""

    coeff: float
    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        factors = tuple((int(s), str(a)) for s, a in self.factors)
        sites = [s for s, _ in factors]
        if len(sites) != len(set(sites)):
            raise ValueError("at most one factor per site")
        for s, a in factors:
            if a not in AXES:
                raise ValueError(f"unknown axis {a!r}")
            if s < 0:
                raise ValueError("site indices must be >= 0")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        """Number of non-identity factors."""
        return sum(1 for _, a in self.factors if a != "I")


@dataclass(frozen=True)
class GateStep:
    """One schedule entry: a Hamiltonian (sum of terms) applied for a time."""

    terms: tuple[SpinProductTerm, ...]
    time: float

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("time must be >= 0")
        object.__setattr__(self, "terms", tuple(self.terms))


def map_qubit_schedule(qubit_steps: Sequence[GateStep], n_atoms: int) -> list[GateStep]:
    """Translate a standard-qubit schedule to BEC qubits.

    Single-site terms are rescaled coeff -> N*coeff, two-site couplings keep
    their coefficient, and every step time shrinks t -> t/N.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    out = []
    for step in qubit_steps:
        terms = []
        for term in step.terms:
            order = term.order
            if order > 2:
                raise ValueError(
                    "mapping recipe covers products of order <= 2; "
                    f"got a term of order {order}"
                )
            scale = n_atoms if order == 1 else 1.0
            terms.append(SpinProductTerm(scale * term.coeff, term.factors))
        out.append(GateStep(tuple(terms), step.time / n_atoms))
    return out


def _site_axes(term: SpinProductTerm, site_n: Sequence[int]) -> list[str]:
    """The term's axis on every site of the register, "I" where it has none."""
    axes = ["I"] * len(site_n)
    for site, axis in term.factors:
        if site >= len(site_n):
            raise ValueError(f"term acts on site index {site}, outside a "
                             f"register of {len(site_n)} site(s)")
        axes[site] = axis
    return axes


def step_hamiltonian(step: GateStep, site_n: Sequence[int]) -> np.ndarray:
    """Dense Hamiltonian of one step; rejects non-commuting term lists."""
    dim = math.prod(n + 1 for n in site_n)
    check_density_dim(dim)   # dim x dim complex operands, like a rho
    mats = [kron_product([spin_operator(a, n) for a, n in
                          zip(_site_axes(t, site_n), site_n)], t.coeff)
            for t in step.terms]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            if np.max(np.abs(comm)) > 1e-9:
                raise ValueError(
                    "steps with non-commuting terms are not supported; "
                    "split them into separate steps"
                )
    return sum(mats, np.zeros((dim, dim), dtype=complex))


def _on_site(mat: np.ndarray, tens: np.ndarray, site: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(mat, tens, axes=([1], [site])), 0, site)


def run_schedule(reg: BecRegister, steps: Iterable[GateStep]) -> BecRegister:
    """Apply exp(-i H t) for each step in order, one term at a time.

    A step's terms commute, and each is a product of single-site spin
    operators, so its exponential is a phase in the product of the sites'
    eigenbases (Fock for z, one (N+1)-dim eigh for x or y).  Only a pair of
    terms with two axes on one site is checked densely, by step_hamiltonian.
    """
    tens = reg.as_tensor()
    eig = {}   # (axis, N) -> eigenvalues, eigenvectors (None: the Fock basis)
    for step in steps:
        axes = [_site_axes(t, reg.site_n) for t in step.terms]
        for i in range(len(axes)):
            for j in range(i + 1, len(axes)):
                if any(a != b and "I" not in (a, b)
                       for a, b in zip(axes[i], axes[j])):
                    step_hamiltonian(GateStep((step.terms[i], step.terms[j]),
                                              step.time), reg.site_n)
        for term, term_axes in zip(step.terms, axes):
            vals, bases = [], []
            for site, (axis, n) in enumerate(zip(term_axes, reg.site_n)):
                if axis != "I" and (axis, n) not in eig:
                    eig[axis, n] = ((2.0 * np.arange(n + 1) - n, None)
                                    if axis == "z" else
                                    np.linalg.eigh(spin_operator(axis, n)))
                evals, evecs = eig.get((axis, n), (np.ones(1), None))
                vals.append(evals)
                if evecs is not None:
                    tens = _on_site(evecs.conj().T, tens, site)
                    bases.append((site, evecs))
            phase = step.time * term.coeff * math.prod(np.ix_(*vals))
            tens = tens * np.exp(-1j * phase)
            for site, evecs in bases:
                tens = _on_site(evecs, tens, site)
    return BecRegister(reg.site_n, tens.reshape(-1))


# ---------------------------------------------------------------------------
# Deutsch's algorithm

ORACLE_IDS = ("const00", "const11", "bal01", "bal10")


@dataclass(frozen=True)
class DeutschOracle:
    """One of the four promise Hamiltonians, on two N-boson BEC qubits."""

    oracle_id: str
    n_atoms: int

    def __post_init__(self):
        if self.oracle_id not in ORACLE_IDS:
            raise ValueError(f"oracle_id must be one of {ORACLE_IDS}")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")

    def steps(self) -> list[GateStep]:
        """The oracle as a schedule step.

        The constant offsets (the -N^2 terms) are kept even though they only
        contribute a global phase.  The evolution time is pi/2N: with spin
        operators whose eigenvalues step by 2, this is the time that turns
        the +x probe into -x for the balanced oracles.
        """
        n = self.n_atoms
        t = math.pi / (2 * n)
        if self.oracle_id == "const00":
            terms = ()
        elif self.oracle_id == "const11":
            terms = (SpinProductTerm(2 * n, ((1, "z"),)),)
        else:
            sign = 1.0 if self.oracle_id == "bal01" else -1.0
            terms = (
                SpinProductTerm(sign, ((0, "z"), (1, "z"))),
                SpinProductTerm(float(n), ((1, "z"),)),
                SpinProductTerm(-float(n) ** 2, ()),
            )
        return [GateStep(terms, t)]


def run_deutsch(oracle: DeutschOracle) -> tuple[str, float]:
    """Classify the oracle from one evolution of its Hamiltonian.

    Prepares |+x>> on the probe site and the all-``a`` Fock state on the
    target site, evolves the oracle step, and reads out <Sx_1>/N on the
    probe.  Positive readout means constant, negative balanced.
    """
    n = oracle.n_atoms
    _joint_dim((n, n))   # before the site states are built
    start = tensor([plus_x_state(n), make_fock(n, n)])
    final = run_schedule(start, oracle.steps())
    rho1 = partial_trace(final, 0).entries
    readout = float(np.real(np.trace(spin_operator("x", n) @ rho1))) / n
    return ("constant" if readout > 0 else "balanced"), readout


# ---------------------------------------------------------------------------
# Text serialization

def format_schedule(steps: Sequence[GateStep]) -> str:
    lines = []
    for step in steps:
        for term in step.terms:
            factors = " ".join(f"{s + 1}:{a}" for s, a in term.factors)
            lines.append(f"term {term.coeff!r} {factors} ; {step.time!r}".replace("  ", " "))
        if not step.terms:
            lines.append(f"term 0.0 ; {step.time!r}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> list[GateStep]:
    """Parse the line format; consecutive lines with equal times stay one step."""
    steps: list[GateStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            fields = line.split()
            if fields[0] != "term" or ";" not in fields:
                raise ValueError("expected 'term coeff site:axis ... ; time'")
            sep = fields.index(";")
            if sep < 2 or sep != len(fields) - 2:
                raise ValueError("malformed term line")
            coeff = float(fields[1])
            factors = []
            for tok in fields[2:sep]:
                site_s, _, axis = tok.partition(":")
                if not axis:
                    raise ValueError(f"factor {tok!r} is not site:axis")
                site = int(site_s)
                if site < 1:
                    raise ValueError("sites are 1-based")
                factors.append((site - 1, axis))
            time = float(fields[sep + 1])
            if not (math.isfinite(coeff) and math.isfinite(time)):
                raise ValueError("coefficient and time must be finite")
            term = SpinProductTerm(coeff, tuple(factors))
            if steps and abs(steps[-1].time - time) == 0.0:
                steps[-1] = GateStep(steps[-1].terms + (term,), time)
            else:
                steps.append(GateStep((term,), time))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return steps
