"""Field measurement: azimuthal binning, annulus statistics, sweep fits."""
import dataclasses
import math

import numpy as np
import pytest

from eikolab.errors import ConfigError, DomainError, StatisticsError
from eikolab.measure import (
    SteadyStateReport,
    build_report,
    default_annulus,
    fit_k_law,
    fit_log_k_vs_inv_a,
    measure_wavenumber,
    radial_gradient,
    radial_gradient_profile,
)
from eikolab.spectral import GridSpec2D, _mirror, geometry, quadrant


def _bump_field(n=128, l=40.0, sigma2=50.0):
    """(grid, the quadrant of exp(-r^2/sigma2), x and y offsets of every cell)."""
    grid = GridSpec2D(n, l)
    ax = grid.axes()
    x, y = np.meshgrid(ax, ax, indexing="ij")
    c = 0.5 * l
    r2 = (x - c) ** 2 + (y - c) ** 2
    return grid, quadrant(np.exp(-r2 / sigma2)), x - c, y - c


def test_default_annulus():
    grid = GridSpec2D(64, 100.0)
    assert default_annulus(grid) == (35.0, 45.0)


def test_azimuthal_average_recovers_radial_function():
    grid, values, _, _ = _bump_field()
    prof = radial_gradient_profile(grid, values, 64)
    assert prof.grid.nodes[0] == 0.0
    assert prof.values[0] == 0.0  # a radial gradient's value at the center
    r = prof.grid.nodes
    sel = (r > 2.0) & (r < 15.0)
    expect = np.exp(-r[sel] ** 2 / 50.0)
    # bin means sit within the in-bin spread of the true profile
    assert np.max(np.abs(prof.values[sel] - expect)) < 1.5e-2
    assert prof.bin_counts is not None and np.all(prof.bin_counts[1:40] > 0)


def test_azimuthal_average_bin_floor():
    grid, phi, _, _ = _bump_field()
    with pytest.raises(ConfigError, match="n_bins must be >= 16"):
        radial_gradient_profile(grid, radial_gradient(grid, phi), n_bins=8)


def test_measure_wavenumber_against_analytic_gradient():
    # narrow bump (sigma^2 = 20) so the periodic wrap error sits below 1e-9
    grid, phi, ox, oy = _bump_field(sigma2=20.0)
    r = np.hypot(ox, oy)
    annulus = (4.0, 10.0)
    sel = (r >= annulus[0]) & (r <= annulus[1])
    expect = float(np.mean(-(2.0 * r[sel] / 20.0) * np.exp(-r[sel] ** 2 / 20.0)))
    got = measure_wavenumber(grid, radial_gradient(grid, phi), annulus)
    assert got == pytest.approx(expect, abs=1e-9)


def test_measure_wavenumber_annulus_validation():
    grid, phi, _, _ = _bump_field()
    radial = radial_gradient(grid, phi)
    with pytest.raises(ConfigError):
        measure_wavenumber(grid, radial, (12.0, 6.0))
    with pytest.raises(ConfigError):
        measure_wavenumber(grid, radial, (6.0, 19.0))  # beyond 0.45 L
    with pytest.raises(StatisticsError):
        measure_wavenumber(grid, radial, (17.98, 18.0))  # sliver annulus, < 100 cells


def test_radial_gradient_profile_of_bump():
    grid, phi, _, _ = _bump_field()
    prof = radial_gradient_profile(grid, radial_gradient(grid, phi), n_bins=64)
    r = prof.grid.nodes
    sel = (r > 2.0) & (r < 12.0)
    expect = -(2.0 * r[sel] / 50.0) * np.exp(-r[sel] ** 2 / 50.0)
    assert np.max(np.abs(prof.values[sel] - expect)) < 5e-3


def _full_grid_radial_gradient(grid, values):
    """(r, radial gradient) on every cell by the full-grid path the quadrant
    one replaced: rfft2, ik multipliers with the Nyquist derivative zeroed,
    two irfft2 and the projection on the offsets from the center."""
    n = grid.n
    ik = 2j * np.pi * np.fft.fftfreq(n, d=grid.l / n)
    ik[n // 2] = 0.0
    uhat = np.fft.rfft2(values)
    px = np.fft.irfft2(ik[:, None] * uhat, s=(n, n))
    py = np.fft.irfft2(ik[None, : n // 2 + 1] * uhat, s=(n, n))
    o = grid.axes() - 0.5 * grid.l
    r = np.hypot(o[:, None], o[None, :])
    radial = px * o[:, None] + py * o[None, :]
    return r, np.where(r > 0, radial / np.where(r > 0, r, 1.0), 0.0)


@pytest.mark.parametrize("n", [64, 128])
def test_quadrant_measurement_matches_the_full_grid(n):
    # a random field, even in x and y and x <-> y symmetric, on a radial
    # ramp: every cell of the full grid counts once, each quadrant cell as
    # the cells it mirrors onto
    grid = GridSpec2D(n, 50.0)
    noise = np.random.default_rng(n).standard_normal((n // 2 + 1, n // 2 + 1))
    phi = np.sqrt(1.0 + geometry(grid).radius ** 2) + 0.1 * (noise + noise.T)
    r, radial = _full_grid_radial_gradient(grid, _mirror(phi))
    got = radial_gradient(grid, phi)
    assert got.shape == (n // 2 + 1, n // 2 + 1)
    assert np.max(np.abs(got - radial[: n // 2 + 1, : n // 2 + 1])) <= 1e-12 * np.max(
        np.abs(radial))

    annulus = default_annulus(grid)
    sel = (r >= annulus[0]) & (r <= annulus[1])
    k = float(np.mean(radial[sel]))
    assert measure_wavenumber(grid, got, annulus) == pytest.approx(k, rel=1e-12, abs=0.0)

    n_bins = 64
    width = 0.5 * grid.l / n_bins
    keep = r <= 0.5 * grid.l
    idx = np.minimum((r[keep] / width).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    means = np.bincount(idx, weights=radial[keep], minlength=n_bins) / np.maximum(counts, 1)
    prof = radial_gradient_profile(grid, got, n_bins=n_bins)
    assert np.array_equal(prof.bin_counts[1:], counts)
    filled = counts > 0
    assert np.max(np.abs(prof.values[1:][filled] - means[filled])) <= 1e-12 * np.max(
        np.abs(means))


def test_build_report_and_dict_round_trip():
    grid, phi, _, _ = _bump_field()
    rep = build_report(
        grid,
        phi,
        omega_drift=0.25,
        steady_residual=1e-6,
        steady_tol=1e-5,
        converged=True,
        t_final=120.0,
        steps=240,
        corner_ratio=1e-5,
    )
    d = rep.as_dict()
    assert d["omega_drift"] == 0.25
    assert d["converged"] is True
    assert len(d["radial_profile"]["r"]) == len(d["radial_profile"]["value"])
    assert "radial_profile" not in rep.as_dict(include_profile=False)


def test_report_dict_keys_are_the_dataclass_fields():
    grid, phi, _, _ = _bump_field()
    rep = build_report(grid, phi, omega_drift=0.25, steady_residual=1e-6)
    names = [f.name for f in dataclasses.fields(SteadyStateReport)]
    assert list(rep.as_dict(include_profile=False)) == [
        name for name in names if name != "radial_profile"]
    assert list(rep.as_dict())[-1] == "radial_profile"
    assert rep.as_dict()["annulus"] == list(default_annulus(grid))


# ------------------------------------------------------------------ fits


def test_fit_k_law_exact_on_the_law():
    # k = e * exp(-1/a) makes the transform y = 1/(log k - 1) equal -a exactly;
    # a < 1 keeps k inside the (0, 1) fit domain
    a = np.array([0.3, 0.45, 0.6, 0.75, 0.9])
    pts = [(ai, math.e * math.exp(-1.0 / ai)) for ai in a]
    fit = fit_k_law(pts)
    assert fit.slope == pytest.approx(-1.0, rel=1e-12)
    assert fit.pearson_r == pytest.approx(-1.0, abs=1e-12)


def test_fit_k_law_domain_checks():
    with pytest.raises(StatisticsError):
        fit_k_law([(0.5, 0.1), (1.0, 0.2), (1.5, 0.3)])
    pts = [(0.5, 0.1), (1.0, 0.2), (1.5, 0.3), (2.0, 1.2)]
    with pytest.raises(DomainError):
        fit_k_law(pts)  # k >= 1 breaks the transform
    degenerate = [(1.0, 0.1), (1.0, 0.2), (1.0, 0.3), (1.0, 0.4)]
    with pytest.raises(StatisticsError):
        fit_k_law(degenerate)


def test_fit_log_k_vs_inv_a_recovers_prefactor():
    c = 0.83
    a = np.array([0.6, 0.9, 1.2, 1.5, 3.0])
    pts = [(ai, c * math.exp(-1.0 / ai)) for ai in a]
    fit = fit_log_k_vs_inv_a(pts)
    assert fit.slope == pytest.approx(1.0, rel=1e-12)
    assert fit.intercept == pytest.approx(math.log(c), rel=1e-12)
    assert fit.pearson_r == pytest.approx(1.0, abs=1e-12)


def test_fit_log_k_domain_checks():
    with pytest.raises(DomainError):
        fit_log_k_vs_inv_a([(0.5, 0.1), (1.0, -0.2), (1.5, 0.3), (2.0, 0.4)])
    with pytest.raises(DomainError):
        fit_log_k_vs_inv_a([(0.0, 0.1), (1.0, 0.2), (1.5, 0.3), (2.0, 0.4)])
