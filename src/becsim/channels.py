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

from .errors import NumericalIntegrityError
from .lindblad import (LindbladModel, _block_generator, _check_times,
                       _eig_echo, check_density_dim, echo, integrate_master,
                       log_slope)
# the Fig. 4c envelope fit, read as channels.oscillation_envelope_rate
from .lindblad import oscillation_envelope_rate  # noqa: F401
from .spin import (OccupationBasis, enumerate_occupations, half_weights,
                   kron_product, make_fock, spin_operator)

AXIS_CONVENTIONS = ("caption", "paper-body")


# ---------------------------------------------------------------------------
# fixed-N multi-site operators (dephasing models, gate protocols)

def site_operator(m_sites, n_atoms, factors):
    """Kronecker product of single-site spin operators on m fixed-N sites.

    factors maps site index (0-based) to an axis in {x, y, z}; omitted
    sites get the identity.  Site 0 varies slowest, matching the register
    ordering used for pure states.  A product past the density-matrix
    ceiling is refused before it is formed.
    """
    check_density_dim((n_atoms + 1) ** m_sites)
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
    jumps = tuple(
        (site_operator(m_sites, n_atoms, {n: axis}), gamma)
        for n in range(m_sites))
    if hamiltonian is None:
        dim = (n_atoms + 1) ** m_sites
        hamiltonian = np.zeros((dim, dim), dtype=complex)
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
    return OccupationBasis([s for n in range(n_max + 1)
                            for s in enumerate_occupations(2, n)])


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
    check_density_dim(dim)
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
    into the occupied ground modes).  Returns (model, basis).
    """
    # the basis size, known before the basis is enumerated
    check_density_dim((n_atoms + 1) * (n_atoms + 2) // 2)
    basis = OccupationBasis(enumerate_occupations(3, n_atoms))
    ac = basis.transition(0, 2)
    bc = basis.transition(1, 2)
    h = delta * basis.number(2) + g * (ac + ac.conj().T) \
        + g * (bc + bc.conj().T)
    jumps = ((ac, gamma_s), (bc, gamma_s))
    return LindbladModel(h, jumps), basis


def lambda_observables(basis):
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
    # checked before the default t_end and the Rabi frequency divide by them
    if n_atoms < 1:
        raise ValueError("need at least one boson")
    if delta == 0:
        raise ValueError("detuning must be nonzero")
    if g == 0:
        raise ValueError("g must be nonzero")
    expected = g ** 2 * gamma_s * (n_atoms + 1) / delta ** 2
    if t_end is None:
        # a few decay times, or a few Rabi periods when nothing decays
        t_end = (3.0 / expected if expected > 0
                 else 8.0 * math.pi * delta / g ** 2)
    model, basis = build_lambda_model(n_atoms, g, delta, gamma_s)
    rho0 = np.zeros((basis.size,) * 2, dtype=complex)
    start = basis.index[(n_atoms, 0, 0)]
    rho0[start, start] = 1.0
    obs = lambda_observables(basis)
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
    site = (make_fock(n_atoms, n_atoms).amps if axis == "caption"
            else half_weights(n_atoms).astype(complex))
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
    dephasing on throughout; exact reversal at gamma = 0.  lindblad.echo
    runs it: the gate and the S^z jumps are real and equal to their
    transposes, so rho and the readout step forward together under one
    Liouvillian that serves every gate time.  Returns the errors in the
    order of gate_times.
    """
    model, rho0, readout, _ = _gate_configuration(n_atoms, gamma, omega2,
                                                  "caption")
    return 1.0 - echo(model, rho0, readout, gate_times)


# ---------------------------------------------------------------------------
# cavity bus with photon decay

def cavity_basis(n_atoms, n_ph_max, exc_max):
    """Occupations (a1,b1,c1,a2,b2,c2,ph), fixed N per BEC.

    exc_max truncates the total excitation c1+c2+ph; exc_max=1 removes
    the resonant c + photon states (see build_cavity_model).
    """
    site = enumerate_occupations(3, n_atoms)
    return OccupationBasis([s1 + s2 + (ph,) for s1 in site for s2 in site
                            for ph in range(n_ph_max + 1)
                            if s1[2] + s2[2] + ph <= exc_max])


def build_cavity_model(n_atoms, delta, cavity_g, gamma_c, g_laser, n_ph_max,
                       exc_max):
    """Bus Hamiltonian in the frame where the photon carries -Delta.

    H = Delta(c1+c1 + c2+c2) - Delta p+p
        + g_laser[(b1+c1 + h.c.) - (b2+c2 + h.c.)]
        + G[(b+c p+ + c+b p) on each site],
    with photon jump p at rate gamma_c, over cavity_basis(n_atoms,
    n_ph_max, exc_max).  delta is Delta, the b<->c transition frequency
    minus the cavity frequency, and cavity_g is G.  The laser phases on
    the two sites are opposite; this sign choice (together with the
    photon frame) reproduces the effective two-site interaction
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
    dephasing g^2 G^2 gamma_c / (4 Delta^4); run_fig4d's exc_max,
    n_ph_max + 1, keeps these states.  Returns (model, basis).
    """
    basis = cavity_basis(n_atoms, n_ph_max, exc_max)
    check_density_dim(basis.size)
    nc = basis.number(2) + basis.number(5)
    nph = basis.number(6)
    h = delta * nc - delta * nph
    for (b_mode, c_mode), drive_sign in (((1, 2), +1.0), ((4, 5), -1.0)):
        bc = basis.transition(b_mode, c_mode)       # b+ c
        h = h + drive_sign * g_laser * (bc + bc.conj().T)
        # G (b+ c p+ + c+ b p): photon emitted as the atom drops c -> b
        bcp = basis.ladder((b_mode, 6), (c_mode,))
        h = h + cavity_g * (bcp + bcp.conj().T)
    return LindbladModel(h, ((basis.lower(6), gamma_c),)), basis


def cavity_initial_state(basis, n_atoms):
    """Both BECs polarized along +x in (a, b), no c bosons, no photon."""
    amp = half_weights(n_atoms)
    ks = range(n_atoms + 1)
    vec = np.zeros(basis.size, dtype=complex)
    vec[[basis.index[(k1, n_atoms - k1, 0, k2, n_atoms - k2, 0, 0)]
         for k1 in ks for k2 in ks]] = np.outer(amp, amp).ravel()
    return vec


def cavity_sx1(basis):
    """<S^x> of BEC 1 in the (a, b) pseudospin, over the cavity basis."""
    return basis.spin("x")


def _bus_sectors(basis):
    """Cavity-basis indices grouped by (n_a1, n_a2), in order of their
    lowest index: mode a enters no operator of build_cavity_model."""
    groups = {}
    for i, s in enumerate(basis.states):
        groups.setdefault((s[0], s[3]), []).append(i)
    return [np.array(g) for g in groups.values()]


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


def run_fig4d(n_atoms, cavity_g=1.0, delta=10.0, gamma_c=1.0, g_laser=1.0,
              n_ph_max=3, gate_times=None, convergence_check=True):
    """Bus gate error versus gate time under cavity photon decay.

    Protocol mirrors the dephasing gate test: evolve forward for t,
    reverse the Hamiltonian for another t (photon decay stays on), and
    read the error 1 - <S^x1>/N; gate times must be finite and >= 0.
    Mode a enters neither the drive, the cavity coupling nor the photon
    jump, so (n_a1, n_a2) is conserved and each (sector, sector) block of
    rho evolves alone.  The echo is one eig per block rho0 and the readout
    both touch (lindblad._eig_echo on lindblad._block_generator), once per
    transposed pair, folded into 2 Re as the readout is Hermitian; the
    real H and jump make the reversed leg the conjugate.  lindblad.echo
    refuses this model: the photon jump is not symmetric, and stepping to
    these stiff gate times would cost far more than one eig.  The whole
    Liouvillian is never formed.  The fitted decoherence rate comes from
    the log-slope of the surviving polarization (lindblad.log_slope; NaN
    below 3 points):
    under an effective S^z-jump dephasing at rate Gamma acting for the
    doubled duration 2t, the signal is exp(-4 Gamma t).
    """
    # checked before the gate time is derived from them
    if n_atoms < 1:
        raise ValueError("need at least one boson per BEC")
    if n_ph_max < 1:
        raise ValueError("need at least one photon level")
    if delta == 0:
        raise ValueError("detuning must be nonzero")
    if g_laser * cavity_g == 0:
        raise ValueError("g_laser and cavity_g must be nonzero")
    omega2_eff = g_laser ** 2 * cavity_g ** 2 / (4.0 * delta ** 3)
    gate_time = math.pi / (4.0 * n_atoms * omega2_eff)
    if gate_times is None:
        gate_times = np.linspace(0.0, gate_time, 13)[1:]
    gate_times = _check_times(gate_times)
    times, back = np.unique(gate_times, return_inverse=True)

    def errors_at(ph_max):
        # exc_max one level above the photon cutoff: the fourth-order
        # self-term paths pass through states with one more excitation
        # than they end with, and capping at ph_max distorts them visibly
        model, basis = build_cavity_model(n_atoms, delta, cavity_g, gamma_c,
                                          g_laser, ph_max, ph_max + 1)
        psi = cavity_initial_state(basis, n_atoms)
        sx1 = cavity_sx1(basis) / n_atoms
        sectors = _bus_sectors(basis)
        # rho[s, t] pairs with sx1[t, s]
        pairs = {(i, j) for i, s in enumerate(sectors)
                 for j, t in enumerate(sectors)
                 if psi[s].any() and psi[t].any() and sx1[np.ix_(t, s)].any()}
        vals = np.zeros(times.size)
        for i, j in sorted(pairs):
            if i > j and (j, i) in pairs:
                continue    # folded into (j, i)
            s, t = sectors[i], sectors[j]
            fold = 2.0 if i < j and (j, i) in pairs else 1.0
            vals += fold * _eig_echo(_block_generator(model, s, t),
                                     np.outer(psi[s], psi[t].conj()).ravel(),
                                     sx1[np.ix_(t, s)].T.ravel(), times)
        return 1.0 - vals[back]

    errs = errors_at(n_ph_max)
    if convergence_check:
        moved = float(np.max(np.abs(errors_at(n_ph_max + 1) - errs)))
        if moved >= 1e-4:
            raise NumericalIntegrityError(
                "photon cutoff %d not converged: observables move by %.3e"
                % (n_ph_max, moved))

    slope = log_slope(gate_times, 1.0 - errs)
    fitted = math.nan if slope is None else max(0.0, -slope / 4.0)
    return BusGateResult(n_atoms, gate_times, errs, omega2_eff, gate_time,
                         fitted,
                         meta={"cavity_g": cavity_g, "delta": delta,
                               "gamma_c": gamma_c, "g_laser": g_laser,
                               "n_ph_max": n_ph_max})
