"""Population loss rate equations and lifetime summaries."""

import math
import time

import numpy as np
import pytest

from becsim.atomloss import (
    AtomLossParams,
    integrate_loss_odes,
    lifetime_report,
)
from becsim.cli import write_csv


def test_default_lifetimes_orders_of_magnitude():
    tau_bg, tau_2b, tau_3b = lifetime_report(AtomLossParams())
    assert tau_bg == pytest.approx(10.0)
    assert 3.0 < tau_2b < 50.0
    assert 1e5 < tau_3b < 1e7


def test_zero_rates_report_infinite_lifetime():
    p = AtomLossParams(Gamma_l=0.0, K_b=0.0, K_ab=0.0, L_a=0.0)
    assert lifetime_report(p) == (math.inf,) * 3


def test_empty_trap_has_no_density():
    # no atoms: the per-atom density is 0, so only background loss is left
    p = AtomLossParams(Na0=0.0, Nb0=0.0)
    assert p.density_per_atom() == 0.0
    assert lifetime_report(p) == (pytest.approx(10.0), math.inf, math.inf)
    _, na, nb = integrate_loss_odes(p, 1.0, 3)
    assert not na.any() and not nb.any()


def test_background_only_is_pure_exponential():
    p = AtomLossParams(K_b=0.0, K_ab=0.0, L_a=0.0, Gamma_l=0.2)
    times, na, nb = integrate_loss_odes(p, 10.0, 51)
    assert np.max(np.abs(na - 500.0 * np.exp(-0.2 * times))) < 1e-5
    assert np.max(np.abs(nb - 500.0 * np.exp(-0.2 * times))) < 1e-5


def test_two_body_only_closed_form():
    # b alone with K_b: dN/dt = -k N^2 with k = K_b * density / N0,
    # so N(t) = N0 / (1 + K_b n0 t)
    p = AtomLossParams(Gamma_l=0.0, K_ab=0.0, L_a=0.0, K_b=1e-3,
                       density=1e4, Na0=0.0, Nb0=800.0)
    times, _, nb = integrate_loss_odes(p, 5.0, 41)
    expected = 800.0 / (1.0 + 1e-3 * 1e4 * times)
    assert np.max(np.abs(nb - expected) / expected) < 1e-7


def test_populations_monotone_non_increasing():
    times, na, nb = integrate_loss_odes(AtomLossParams(), 30.0, 301)
    assert np.all(np.diff(na) <= 1e-12)
    assert np.all(np.diff(nb) <= 1e-12)
    assert na[0] == pytest.approx(500.0)


def test_huge_t_end_returns_promptly():
    # N(t) <= N0 exp(-Gamma_l t) passes the solver's atol at ~338 s, so
    # the integration stops there however far t_end lies
    start = time.perf_counter()
    times, na, nb = integrate_loss_odes(AtomLossParams(), 1e300, 201)
    assert time.perf_counter() - start < 5.0
    for pop in (na, nb):
        assert np.all(np.isfinite(pop)) and np.all(pop >= 0)
        assert np.all(np.diff(pop) <= 0)
    assert na[0] == 500.0 and na[-1] == 0.0


def test_cut_keeps_the_samples_before_it():
    # the bound crosses atol at ln(5e14)/0.1 ~ 338 s
    _, na, nb = integrate_loss_odes(AtomLossParams(), 1e3, 11)
    _, na_short, nb_short = integrate_loss_odes(AtomLossParams(), 300.0, 4)
    assert na[:4] == pytest.approx(na_short, rel=1e-8, abs=1e-12)
    assert nb[:4] == pytest.approx(nb_short, rel=1e-8, abs=1e-12)
    assert np.all(na[4:] == 0) and np.all(nb[4:] == 0)


@pytest.mark.parametrize("field,value", [
    ("Gamma_l", math.nan), ("Gamma_l", math.inf), ("K_b", math.nan),
    ("K_ab", math.inf), ("L_a", math.nan), ("density", math.nan),
    ("density", math.inf), ("Na0", math.nan), ("Nb0", math.inf)])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        AtomLossParams(**{field: value})


def test_params_validation():
    with pytest.raises(ValueError):
        AtomLossParams(Gamma_l=-0.1)
    with pytest.raises(ValueError):
        AtomLossParams(density=0.0)
    with pytest.raises(ValueError):
        AtomLossParams(Na0=-1.0)


def test_loss_csv_shape(tmp_path):
    times = np.array([0.0, 1.0])
    path = tmp_path / "rates.csv"
    write_csv(path, ["t", "Na", "Nb"],
              zip(times, np.array([5.0, 4.0]), np.array([5.0, 3.0])))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 3


def test_zero_duration_yields_initial_populations():
    p = AtomLossParams(Na0=300.0, Nb0=700.0)
    times, na, nb = integrate_loss_odes(p, 0.0, 4)
    assert np.array_equal(times, np.zeros(4))
    assert np.array_equal(na, np.full(4, 300.0))
    assert np.array_equal(nb, np.full(4, 700.0))


def test_integrate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate_loss_odes(AtomLossParams(), -1.0, 10)
    with pytest.raises(ValueError):
        integrate_loss_odes(AtomLossParams(), 1.0, 1)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_non_finite_t_end(t_end):
    # screened before the integrator starts: a NaN or inf end never returns
    with pytest.raises(ValueError, match="t_end must be finite and >= 0"):
        integrate_loss_odes(AtomLossParams(), t_end, 5)
