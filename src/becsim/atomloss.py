"""Atom-chip particle-loss rate equations and lifetime estimates.

Two hyperfine ground states a and b lose population to background
collisions, two-body inelastic scattering, and three-body recombination:

    dNa/dt = -Na (Gamma_l + K_ab <n_b> + L_a <n_a^2>)
    dNb/dt = -Nb (Gamma_l + K_ab <n_a> + K_b <n_b>)

There is no two-body a-a term (forbidden by energy and angular-momentum
conservation), and no three-body term for b where two-body scattering
dominates.  Densities enter through a constant-volume closure with one
per-atom density: every atom, of either state, adds density / (Na0 + Nb0)
to its state's mean, so <n_x>(t) = Nx(t) density / (Na0 + Nb0), and
<n^2> = <n>^2.

Note the rate constants carry cm^3/s and cm^6/s units, so the density
must be a volume density; the commonly quoted chip value of order 1e12
is adopted here as cm^-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .lindblad import _check_times, solve_ivp

# absolute tolerance of the RK45 population integration [atoms]
LOSS_ATOL = 1e-12


@dataclass(frozen=True)
class AtomLossParams:
    """Loss rates, mean density, and initial populations of both states.

    The default rate constants are the measured ones for the
    (F=1, m=-1) / (F=2, m=1) pair.
    """

    Gamma_l: float = 0.1         # background loss          [1 / s]
    K_b: float = 1.194e-13       # two-body, state b        [cm^3 / s]
    K_ab: float = 0.780e-13      # two-body, inter-state    [cm^3 / s]
    L_a: float = 5.8e-30         # three-body, state a      [cm^6 / s]
    density: float = 1e12        # chip-trap mean density   [cm^-3]
    Na0: float = 500.0
    Nb0: float = 500.0

    def __post_init__(self):
        # NaN fails every one of these tests
        for name in ("Gamma_l", "K_b", "K_ab", "L_a"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError("%s must be finite and >= 0" % name)
        if not 0 < self.density < math.inf:
            raise ValueError("density must be finite and positive")
        if not (0 <= self.Na0 < math.inf and 0 <= self.Nb0 < math.inf):
            raise ValueError("initial populations must be finite and >= 0")

    def density_per_atom(self):
        """Density each atom adds to its state's mean, density / (Na0 + Nb0);
        0 with no atoms."""
        total = self.Na0 + self.Nb0
        return self.density / total if total > 0 else 0.0


def integrate_loss_odes(p, t_end, samples):
    """Population series (times, Na(t), Nb(t)) under the loss equations.

    The density of each state follows its population at fixed trap
    volume: <n_a>(t) = Na(t) * density / (Na0 + Nb0), and likewise for b.
    Every loss term is at least Gamma_l N, so N(t) <= N(0) exp(-Gamma_l t):
    once that bound falls below LOSS_ATOL both populations read 0, and
    the solver stops at the last sample before it, so its cost does not
    grow with t_end.
    """
    _check_times(t_end, "t_end")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    per_atom = p.density_per_atom()

    def rhs(_t, y):
        na_pop, nb_pop = y
        dens_a = per_atom * na_pop
        dens_b = per_atom * nb_pop
        dna = -na_pop * (p.Gamma_l + p.K_ab * dens_b + p.L_a * dens_a ** 2)
        dnb = -nb_pop * (p.Gamma_l + p.K_ab * dens_a + p.K_b * dens_b)
        return (dna, dnb)

    times = np.linspace(0.0, t_end, samples)
    if t_end == 0:
        # solve_ivp cannot integrate over an empty interval
        return (times, np.full(samples, float(p.Na0)),
                np.full(samples, float(p.Nb0)))
    live = samples      # the samples the solver reaches; the rest read 0
    top = max(p.Na0, p.Nb0)
    if p.Gamma_l > 0 and top > 0:
        live = np.count_nonzero(
            times <= math.log(top / LOSS_ATOL) / p.Gamma_l)
    na, nb = np.zeros((2, samples))
    na[0], nb[0] = p.Na0, p.Nb0
    if live > 1:
        sol = solve_ivp(rhs, (0.0, times[live - 1]),
                        (float(p.Na0), float(p.Nb0)), t_eval=times[:live],
                        method="RK45", rtol=1e-10, atol=LOSS_ATOL)
        if not sol.success:
            raise IntegrationError(
                "loss ODE integration failed: %s" % sol.message)
        na[:live], nb[:live] = sol.y
    if np.any(na < -1e-9 * max(1.0, p.Na0)) or \
            np.any(nb < -1e-9 * max(1.0, p.Nb0)):
        raise IntegrationError("population went negative",
                               last_good_time=float(times[0]))
    return times, np.maximum(na, 0.0), np.maximum(nb, 0.0)


def lifetime_report(p):
    """(tau_background, tau_two_body, tau_three_body) in seconds.

    tau_bg = 1/Gamma_l; tau_2b = 1/(K_b n_b + K_ab n_a) for the faster-
    decaying state b; tau_3b = 1/(L_a n_a^2).  Vanishing rates report an
    infinite lifetime.
    """
    per_atom = p.density_per_atom()
    na, nb = per_atom * p.Na0, per_atom * p.Nb0
    tau_bg = 1.0 / p.Gamma_l if p.Gamma_l > 0 else math.inf
    two_body = p.K_b * nb + p.K_ab * na
    tau_2b = 1.0 / two_body if two_body > 0 else math.inf
    three_body = p.L_a * na ** 2
    tau_3b = 1.0 / three_body if three_body > 0 else math.inf
    return tau_bg, tau_2b, tau_3b
