"""Atom-chip particle-loss rate equations and lifetime estimates.

Two hyperfine ground states a and b lose population to background
collisions, two-body inelastic scattering, and three-body recombination:

    dNa/dt = -Na (Gamma_l + K_ab <n_b> + L_a <n_a^2>)
    dNb/dt = -Nb (Gamma_l + K_ab <n_a> + K_b <n_b>)

There is no two-body a-a term (forbidden by energy and angular-momentum
conservation), and no three-body term for b where two-body scattering
dominates.  Densities enter through a constant-volume closure: <n_x>
scales as the initial density times the surviving population fraction of
that state, and <n^2> = <n>^2.

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

#: Reported lifetime when the corresponding rate vanishes.
INFINITE_LIFETIME = math.inf

# measured rate constants for the (F=1, m=-1) / (F=2, m=1) pair
DEFAULT_K_B = 1.194e-13      # two-body, state b        [cm^3 / s]
DEFAULT_K_AB = 0.780e-13     # two-body, inter-state    [cm^3 / s]
DEFAULT_L_A = 5.8e-30        # three-body, state a      [cm^6 / s]
DEFAULT_GAMMA_L = 0.1        # background loss          [1 / s]
DEFAULT_DENSITY = 1e12       # chip-trap mean density   [cm^-3]

# absolute tolerance of the RK45 population integration [atoms]
LOSS_ATOL = 1e-12


@dataclass(frozen=True)
class AtomLossParams:
    """Loss rates, mean density, and initial populations of both states."""

    Gamma_l: float = DEFAULT_GAMMA_L
    K_b: float = DEFAULT_K_B
    K_ab: float = DEFAULT_K_AB
    L_a: float = DEFAULT_L_A
    density: float = DEFAULT_DENSITY
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

    def initial_densities(self):
        """Mean densities of each state, splitting the total density by
        the initial population fractions."""
        total = self.Na0 + self.Nb0
        if total == 0:
            return 0.0, 0.0
        return (self.density * self.Na0 / total,
                self.density * self.Nb0 / total)


def integrate_loss_odes(p, t_end, samples):
    """Population series (times, Na(t), Nb(t)) under the loss equations.

    The density of each state follows its population at fixed trap
    volume, so <n_a>(t) = n_a(0) * Na(t)/Na(0) (and likewise for b).
    Every loss term is at least Gamma_l N, so N(t) <= N(0) exp(-Gamma_l t):
    once that bound falls below LOSS_ATOL both populations read 0, and
    the solver stops at the last sample before it, so its cost does not
    grow with t_end.
    """
    _check_times(t_end, "t_end")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    na0, nb0 = p.initial_densities()
    ca = na0 / p.Na0 if p.Na0 > 0 else 0.0   # density per atom, state a
    cb = nb0 / p.Nb0 if p.Nb0 > 0 else 0.0

    def rhs(_t, y):
        na_pop, nb_pop = y
        dens_a = ca * na_pop
        dens_b = cb * nb_pop
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
    na, nb = p.initial_densities()
    tau_bg = 1.0 / p.Gamma_l if p.Gamma_l > 0 else INFINITE_LIFETIME
    two_body = p.K_b * nb + p.K_ab * na
    tau_2b = 1.0 / two_body if two_body > 0 else INFINITE_LIFETIME
    three_body = p.L_a * na ** 2
    tau_3b = 1.0 / three_body if three_body > 0 else INFINITE_LIFETIME
    return tau_bg, tau_2b, tau_3b
