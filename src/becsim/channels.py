"""Decoherence channel models and the figure experiment protocols.

Four open-system models over BEC qubits: collective dephasing on fixed
boson number, single-particle loss over particle-number sectors, the
three-level (a, b, c) scheme with spontaneous emission from the excited
mode, and the two-BEC cavity bus with photon decay.  Each builder returns
a LindbladModel for the master-equation engine, and the run_fig* protocols
package the corresponding decoherence experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, NumericalIntegrityError
from .lindblad import (LindbladModel, SectorPropagator, integrate_master,
                       reversal_echo, MAX_DENSITY_DIM)
# the Fig. 4c envelope fit, read as channels.oscillation_envelope_rate
from .lindblad import oscillation_envelope_rate  # noqa: F401
from .spin import (MultiModeBasis, OccupationBasis, kron_product,
                   spin_operator, sqrt_binomial)

AXIS_CONVENTIONS = ("caption", "paper-body")


# ---------------------------------------------------------------------------
# fixed-N multi-site operators (dephasing models, gate protocols)

def site_operator(m_sites, n_atoms, factors):
    """Kronecker product of single-site spin operators on m fixed-N sites.

    factors maps site index (0-based) to an axis in {x, y, z}; omitted
    sites get the identity.  Site 0 varies slowest, matching the register
    ordering used for pure states.
    """
    return kron_product([spin_operator(factors.get(site, "I"), n_atoms)
                         for site in range(m_sites)])


def build_dephasing_model(m_sites, n_atoms, axis, gamma, hamiltonian=None):
    """Collective dephasing: jump S^axis on every site at rate gamma.

    The rate convention follows the -(Gamma/2)[L+L rho - 2 L rho L+ +
    rho L+L] form, under which a single-site <S^x> decays as
    exp(-2 Gamma t) for a z-axis channel, independent of N.
    """
    if axis not in ("x", "z"):
        raise ValueError("dephasing axis must be 'x' or 'z'")
    dim = (n_atoms + 1) ** m_sites
    if dim > MAX_DENSITY_DIM:
        raise CapacityError("dephasing model dimension %d too large" % dim)
    if hamiltonian is None:
        hamiltonian = np.zeros((dim, dim), dtype=complex)
    jumps = tuple(
        (site_operator(m_sites, n_atoms, {n: axis}), gamma)
        for n in range(m_sites))
    return LindbladModel(hamiltonian, jumps)


# ---------------------------------------------------------------------------
# single-particle loss over particle-number sectors

def loss_basis(n_max):
    """One site's (n_a, n_b) occupations for every total n <= n_max.

    Loss breaks boson-number conservation, so the basis is the direct sum
    of all fixed-n sectors; dimension (n_max+1)(n_max+2)/2.  Within each
    sector the states are ordered by n_a ascending, matching the fixed-N
    Fock convention.
    """
    states = [(na, n - na) for n in range(n_max + 1) for na in range(n + 1)]
    return OccupationBasis(states)


def loss_site_operator(basis, m_sites, site, op):
    """Embed a one-site matrix over the loss basis into m_sites sites."""
    eye = np.eye(basis.size, dtype=complex)
    return kron_product([op if n == site else eye for n in range(m_sites)])


def loss_spin_operator(basis, axis):
    """Spin component acting sector-wise on a one-site loss basis."""
    return basis.spin(axis)


def embed_loss_state(state, basis):
    """Fixed-N pure state as a vector over one site's loss basis."""
    vec = np.zeros(basis.size, dtype=complex)
    n = state.n_atoms
    for k in range(n + 1):
        vec[basis.index[(k, n - k)]] = state.amps[k]
    return vec


def build_loss_model(m_sites, n_max, gamma_l):
    """Particle loss: jumps a and b on every site at rate gamma_l.

    A single-site <S^z> then decays as exp(-gamma_l t); a K-site
    correlator of non-identity factors decays as exp(-gamma_l K t).
    """
    basis = loss_basis(n_max)
    dim = basis.size ** m_sites
    if dim > MAX_DENSITY_DIM:
        raise CapacityError("loss model dimension %d too large" % dim)
    jumps = []
    for site in range(m_sites):
        for mode in (0, 1):
            jumps.append((loss_site_operator(basis, m_sites, site,
                                             basis.lower(mode)), gamma_l))
    return LindbladModel(np.zeros((dim, dim), dtype=complex), tuple(jumps))


# ---------------------------------------------------------------------------
# three-level scheme with spontaneous emission

def build_lambda_model(n_atoms, g, delta, gamma_s):
    """Modes (a, b, c) with H = Delta c+c + g(a+c + c+a) + g(b+c + c+b).

    Spontaneous emission from the excited mode c back into a and b enters
    as jumps a+c and b+c at rate gamma_s each (bosonically enhanced decay
    into the occupied ground modes).
    """
    basis = MultiModeBasis(3, n_atoms)
    if basis.size > MAX_DENSITY_DIM:
        raise CapacityError("three-mode dimension %d too large" % basis.size)
    ac = basis.transition(0, 2)
    bc = basis.transition(1, 2)
    h = delta * basis.number(2) + g * (ac + ac.conj().T) \
        + g * (bc + bc.conj().T)
    jumps = ((ac, gamma_s), (bc, gamma_s))
    return LindbladModel(h, jumps)


def lambda_observables(n_atoms):
    basis = MultiModeBasis(3, n_atoms)
    return {"sz": basis.spin("z"), "sx": basis.spin("x"),
            "nc": basis.number(2)}


def run_fig4c(n_atoms, g=1.0, delta=10.0, gamma_s=0.1, t_end=None,
              samples=6001):
    """Decaying Rabi oscillations of <S^z>/N in the three-level scheme.

    Starts with every boson in mode a; the far-detuned excited mode
    mediates an effective a<->b coupling g^2/Delta, so <S^z>/N
    oscillates at angular frequency 2g^2/Delta while spontaneous
    emission damps the envelope.
    """
    expected = g ** 2 * gamma_s * (n_atoms + 1) / delta ** 2
    if t_end is None:
        # a few decay times, or a few Rabi periods when nothing decays
        t_end = (3.0 / expected if expected > 0
                 else 8.0 * math.pi * delta / g ** 2)
    model = build_lambda_model(n_atoms, g, delta, gamma_s)
    basis = MultiModeBasis(3, n_atoms)
    rho0 = np.zeros((basis.size,) * 2, dtype=complex)
    start = basis.index[(n_atoms, 0, 0)]
    rho0[start, start] = 1.0
    obs = lambda_observables(n_atoms)
    rec = integrate_master(model, rho0, t_end, samples,
                           observables={"sz_over_n": obs["sz"] / n_atoms,
                                        "nc": obs["nc"]})
    rec.meta.update(n_atoms=n_atoms, g=g, delta=delta, gamma_s=gamma_s,
                    rabi_frequency=2.0 * g ** 2 / delta,
                    expected_decay=expected)
    return rec


# ---------------------------------------------------------------------------
# two-site gate under dephasing (Fig. 4a / 4b protocols)

def _gate_configuration(n_atoms, gamma, omega2, axis):
    """Model, initial state and readout for the two-qubit gate protocols.

    "caption": S^x1 S^x2 gate with z-axis dephasing, both sites starting
    in the S^z = N eigenstate, readout <S^z1>/N.  "paper-body": the
    unitarily equivalent x<->z relabeling (S^z1 S^z2 gate, x dephasing,
    S^x = N start, readout <S^x1>/N).
    """
    if axis not in AXIS_CONVENTIONS:
        raise ValueError("axis must be one of %s" % (AXIS_CONVENTIONS,))
    gate_axis, deph_axis = (("x", "z") if axis == "caption" else ("z", "x"))
    h = omega2 * site_operator(2, n_atoms, {0: gate_axis, 1: gate_axis})
    model = build_dephasing_model(2, n_atoms, deph_axis, gamma, hamiltonian=h)
    dim = n_atoms + 1
    if axis == "caption":
        site = np.zeros(dim, dtype=complex)
        site[n_atoms] = 1.0        # S^z = N: every boson in mode a
    else:
        site = sqrt_binomial(n_atoms, np.arange(dim)) / math.sqrt(2.0 ** n_atoms)
        site = site.astype(complex)
    psi = np.kron(site, site)
    # the sites start polarized along the dephasing axis; read that out
    readout = site_operator(2, n_atoms, {0: deph_axis}) / n_atoms
    return (model, np.outer(psi, psi.conj()), readout,
            "s%s1_over_n" % deph_axis)


def run_fig4a(n_atoms, gamma=0.01, omega2=1.0, t_end=None, samples=801,
              axis="caption"):
    """Polarization of site 1 under a continuously-run two-qubit gate.

    Records the site-1 polarization along its initial axis while the
    product gate Hamiltonian runs with dephasing on; revivals at
    |omega2| t = pi/2 degrade with increasing N.  The default t_end is
    one gate period, 2 pi / |omega2|.
    """
    if omega2 == 0:
        raise ValueError("omega2 must be nonzero: it sets the gate period")
    if t_end is None:
        t_end = 2.0 * math.pi / abs(omega2)
    model, rho0, readout, name = _gate_configuration(
        n_atoms, gamma, omega2, axis)
    rec = integrate_master(model, rho0, t_end, samples,
                           observables={name: readout})
    rec.meta.update(n_atoms=n_atoms, gamma=gamma, omega2=omega2, axis=axis,
                    signal=name)
    return rec


def run_fig4b(n_atoms, gamma=0.01, omega2=1.0, gate_times=()):
    """Gate error after running the product gate for t and reversing it.

    Error is 1 - <S^z1>/N (caption convention; its x<->z relabeling gives
    the same) after evolving under +H for t and -H for another t, with
    dephasing on throughout; exact reversal at gamma = 0.  The echo runs
    in the Heisenberg picture (lindblad.reversal_echo): the S^z jumps are
    Hermitian, so the reversed leg is the forward generator acting on the
    readout, and one Liouvillian serves every gate time.  Returns a list
    of (n_atoms, t, error) in the order of gate_times.
    """
    model, rho0, readout, _ = _gate_configuration(n_atoms, gamma, omega2,
                                                  "caption")
    signal = reversal_echo(model, rho0, readout, gate_times)
    return [(n_atoms, float(t), 1.0 - float(s))
            for t, s in zip(gate_times, signal)]


# ---------------------------------------------------------------------------
# cavity bus with photon decay

@dataclass(frozen=True)
class CavityModel:
    """Two three-mode BECs coupled through one cavity photon mode.

    omega0 is the b<->c transition frequency and omega the cavity
    frequency; the detuning Delta = omega0 - omega is the recorded
    knob.  cavity_g is the atom-photon coupling (the G of the bus
    Hamiltonian) and gamma_c the photon decay rate.
    """

    n_atoms: int
    omega0: float
    omega: float
    cavity_g: float
    gamma_c: float
    n_ph_max: int = 2

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError("need at least one boson per BEC")
        if self.n_ph_max < 1:
            raise ValueError("need at least one photon level")
        if self.gamma_c < 0:
            raise ValueError("gamma_c must be >= 0")
        if self.detuning == 0:
            raise ValueError("detuning must be nonzero")

    @property
    def detuning(self):
        return self.omega0 - self.omega


def cavity_basis(n_atoms, n_ph_max, exc_max=None):
    """Occupations (a1,b1,c1,a2,b2,c2,ph), fixed N per BEC.

    exc_max, when given, truncates the total excitation c1+c2+ph.  The
    bus is not purely dispersive at the build_cavity_model defaults:
    states with one c boson and one photon have bare energy
    +Delta - Delta = 0, degenerate with the (a, b) ground manifold, so
    their amplitudes are not perturbatively small and exc_max changes
    the dynamics qualitatively (exc_max=1 removes them).
    """
    states = []
    site = [(na, nb, n_atoms - na - nb) for na in range(n_atoms + 1)
            for nb in range(n_atoms + 1 - na)]
    for s1 in site:
        for s2 in site:
            for ph in range(n_ph_max + 1):
                if exc_max is not None and s1[2] + s2[2] + ph > exc_max:
                    continue
                states.append(s1 + s2 + (ph,))
    return OccupationBasis(states)


def build_cavity_model(params, g_laser, exc_max="auto"):
    """Bus Hamiltonian in the frame where the photon carries -Delta.

    H = Delta(c1+c1 + c2+c2) - Delta p+p
        + g_laser[(b1+c1 + h.c.) - (b2+c2 + h.c.)]
        + G[(b+c p+ + c+b p) on each site],
    with photon jump p at rate gamma_c.  The laser phases on the two
    sites are opposite; this sign choice (together with the photon
    frame) reproduces the effective two-site interaction
    -(G^2 g^2 / 4 Delta^3)(2 S^z1 S^z2 - (S^z1)^2 - (S^z2)^2)
    in the large-detuning limit, which calibrates the otherwise free
    drive convention.  Deterministic single-site light shifts (linear
    spin terms) are not cancelled here; gate protocols remove them by
    reversal.

    With c at +Delta and the photon at -Delta, a bare state with one c
    boson plus one photon sits at energy 0, resonant with the ground
    manifold.  A laser-cavity-laser path fills it (population up to
    ~0.004 at gamma_c = 0, N = 1), and photon decay then strands the
    boson in c, which has no decay channel here: by the fig4d gate time
    n_c reaches ~0.10 at gamma_c = 1, against 0.006-0.009 with those
    states removed (exc_max=1).  Echo errors of this model are
    dominated by that leakage rather than by the adiabatic-elimination
    dephasing g^2 G^2 gamma_c / (4 Delta^4); the default exc_max keeps
    these states.  Returns (model, basis).
    """
    delta = params.detuning
    if exc_max == "auto":
        # one level above the photon cutoff: the fourth-order self-term
        # paths pass through states with one more excitation than they
        # end with, and capping at n_ph_max distorts them visibly
        exc_max = params.n_ph_max + 1
    basis = cavity_basis(params.n_atoms, params.n_ph_max, exc_max)
    if basis.size > MAX_DENSITY_DIM:
        raise CapacityError("cavity basis dimension %d too large" % basis.size)
    g_g = params.cavity_g
    nc = basis.number(2) + basis.number(5)
    nph = basis.number(6)
    h = delta * nc - delta * nph
    for (b_mode, c_mode), drive_sign in (((1, 2), +1.0), ((4, 5), -1.0)):
        bc = basis.transition(b_mode, c_mode)       # b+ c
        h = h + drive_sign * g_laser * (bc + bc.conj().T)
        # G (b+ c p+ + c+ b p): photon emitted as the atom drops c -> b
        bcp = basis.ladder((b_mode, 6), (c_mode,))
        h = h + g_g * (bcp + bcp.conj().T)
    jumps = ((basis.lower(6), params.gamma_c),) if params.gamma_c else ()
    return LindbladModel(h, jumps), basis


def cavity_initial_state(basis, n_atoms):
    """Both BECs polarized along +x in (a, b), no c bosons, no photon."""
    amp = sqrt_binomial(n_atoms, np.arange(n_atoms + 1)) \
        / math.sqrt(2.0 ** n_atoms)
    vec = np.zeros(basis.size, dtype=complex)
    for k1 in range(n_atoms + 1):
        for k2 in range(n_atoms + 1):
            idx = basis.index.get(
                (k1, n_atoms - k1, 0, k2, n_atoms - k2, 0, 0))
            if idx is not None:
                vec[idx] = amp[k1] * amp[k2]
    return vec


def cavity_sx1(basis, n_atoms):
    """<S^x> of BEC 1 in the (a, b) pseudospin, over the cavity basis."""
    return basis.spin("x")


@dataclass
class BusGateResult:
    """Forward-and-reverse bus gate errors over a grid of gate times."""

    n_atoms: int
    times: np.ndarray
    errors: np.ndarray
    omega2_eff: float
    gate_time: float
    fitted_decoherence: float
    meta: dict = field(default_factory=dict)


def _sector_echo_series(prop, rho0, readout, times):
    """Tr(readout rho) after forward-then-reversed sector evolution.

    For real H and jumps (else ValueError) the reversed model's (-H, same
    jumps) block generator is the conjugate of the forward one, so each
    block's (w, V, V^-1), computed once and held only while that block
    runs, evolves x backwards as conj(V exp(w t) V^-1 conj(x)).  Only
    blocks the readout pairs with are evolved; Hermitian symmetry folds
    the (j, i) block into 2 Re of the (i, j) contribution.
    """
    if any(np.any(m.imag) for m in prop.operators):
        raise ValueError("the reversed echo needs a real H and real jumps")
    times = np.asarray(times, dtype=float)
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


def run_fig4d(n_atoms, cavity_g=1.0, delta=10.0, gamma_c=1.0, g_laser=1.0,
              n_ph_max=2, gate_times=None, convergence_check=True):
    """Bus gate error versus gate time under cavity photon decay.

    Protocol mirrors the dephasing gate test: evolve forward for t,
    reverse the Hamiltonian for another t (photon decay stays on), and
    read the error 1 - <S^x1>/N.  The fitted decoherence rate comes
    from the log-slope of the surviving polarization: under an
    effective S^z-jump dephasing at rate Gamma acting for the doubled
    duration 2t, the signal is exp(-4 Gamma t).
    """
    omega2_eff = g_laser ** 2 * cavity_g ** 2 / (4.0 * delta ** 3)
    gate_time = math.pi / (4.0 * n_atoms * omega2_eff)
    if gate_times is None:
        gate_times = np.linspace(0.0, gate_time, 13)[1:]
    gate_times = np.asarray(gate_times, dtype=float)

    def errors_at(ph_max):
        params = CavityModel(n_atoms, omega0=delta, omega=0.0,
                             cavity_g=cavity_g, gamma_c=gamma_c,
                             n_ph_max=ph_max)
        model, basis = build_cavity_model(params, g_laser)
        psi = cavity_initial_state(basis, n_atoms)
        rho0 = np.outer(psi, psi.conj())
        sx1 = cavity_sx1(basis, n_atoms) / n_atoms
        return 1.0 - _sector_echo_series(SectorPropagator(model), rho0, sx1,
                                         gate_times)

    errs = errors_at(n_ph_max)
    if convergence_check:
        errs_hi = errors_at(n_ph_max + 1)
        if np.max(np.abs(errs_hi - errs)) >= 1e-4:
            raise NumericalIntegrityError(
                "photon cutoff %d not converged: observables move by %.3e"
                % (n_ph_max, float(np.max(np.abs(errs_hi - errs)))))

    signal = 1.0 - errs
    mask = signal > 1e-8
    if mask.sum() >= 3:
        slope = np.polyfit(gate_times[mask], np.log(signal[mask]), 1)[0]
        fitted = max(0.0, -slope / 4.0)
    else:
        fitted = float("nan")
    return BusGateResult(n_atoms, gate_times, errs, omega2_eff, gate_time,
                         fitted,
                         meta={"cavity_g": cavity_g, "delta": delta,
                               "gamma_c": gamma_c, "g_laser": g_laser,
                               "n_ph_max": n_ph_max})
