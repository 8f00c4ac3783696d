"""Periodic spectral stepper: exactness identities, convergence, round-trips."""
import math
import warnings

import numpy as np
import pytest

from eikolab.errors import BlowUpError, ConfigError
from eikolab.profiles import InhomogeneitySpec
from eikolab.measure import measure_wavenumber
from eikolab.spectral import (
    DEALIAS_NONE,
    Field2D,
    GridSpec2D,
    SimulationConfig,
    _hopf_cole_start,
    _phi_functions,
    _relax,
    _spectral_tools,
    defect_corner_ratio,
    make_plan,
    read_field_snapshot,
    rhs_nonlinear,
    run_to_steady,
    sample_defect,
    step_etdrk4,
    top_shell_energy_fraction,
    write_field_snapshot,
)


def _xy(grid):
    ax = grid.axes()
    return np.meshgrid(ax, ax, indexing="ij")


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec2D(48, 10.0)  # not a power of two
    with pytest.raises(ConfigError):
        GridSpec2D(32, 10.0)  # too small
    with pytest.raises(ConfigError):
        GridSpec2D(64, -1.0)
    with pytest.raises(ConfigError):
        GridSpec2D(64, 10.0, dealias="half")
    g = GridSpec2D(64, 16.0)
    assert g.dx == 0.25
    assert g.center() == (8.0, 8.0)


def test_field_shape_checked():
    g = GridSpec2D(64, 10.0)
    with pytest.raises(ConfigError):
        Field2D(g, np.zeros((64, 32)))


def test_radius_grid_min_image():
    g = GridSpec2D(64, 10.0)
    r = g.radius_grid(periodic=True)
    # corner cell is half a diagonal away under min-image, not 1.5 diagonals
    assert r[0, 0] == pytest.approx(math.hypot(5.0, 5.0))
    assert np.max(r) <= math.hypot(5.0, 5.0) + 1e-12


def test_sample_defect_values_and_strength_separation():
    g = GridSpec2D(64, 20.0)
    spec = InhomogeneitySpec(1.5, 0.8, strength=0.25)
    f = sample_defect(g, spec)
    # strength deliberately not applied: center cell carries the bare amplitude
    i = 32  # axes()[32] = 10.0 = center
    assert f.values[i, i] == pytest.approx(1.5)
    assert defect_corner_ratio(g, spec) == pytest.approx(
        (1.0 + 200.0) ** -0.8, rel=1e-12
    )


@pytest.mark.parametrize("n,l,dt,dealias", [(64, 10.0, 0.5, "two_thirds"),
                                             (128, 2.0 * math.pi, 0.05, "none")])
def test_plan_tables_match_full_grid_evaluation(n, l, dt, dealias):
    # make_plan evaluates rows kx >= 0 and mirrors them; a full-grid
    # evaluation must give the same tables bit for bit
    grid = GridSpec2D(n, l, dealias)
    plan = make_plan(grid, dt)
    _, _, minus_ksq, _ = _spectral_tools(grid)
    z = minus_ksq * dt
    phi1, phi2, phi3 = _phi_functions(z)
    half1, _, _ = _phi_functions(0.5 * z)
    expect = {
        "e_full": np.exp(z),
        "e_half": np.exp(0.5 * z),
        "q_half": 0.5 * dt * half1,
        "f1": dt * (phi1 - 3.0 * phi2 + 4.0 * phi3),
        "f2": dt * (phi2 - 2.0 * phi3),
        "f3": dt * (4.0 * phi3 - phi2),
    }
    for name, table in expect.items():
        assert np.array_equal(getattr(plan, name), table), name


def test_linear_mode_decays_exactly():
    # b = 0, eps = 0: a single Fourier mode must decay by e^{-k^2 dt} exactly
    grid = GridSpec2D(64, 2.0 * math.pi)
    x, _ = _xy(grid)
    phi = Field2D(grid, np.cos(3.0 * x))
    plan = make_plan(grid, dt=0.2)
    stepped = step_etdrk4(phi, plan, b=0.0, eps=0.0, g_field=None)
    expect = math.exp(-9.0 * 0.2) * np.cos(3.0 * x)
    assert np.max(np.abs(stepped.values - expect)) < 1e-12


def test_constant_forcing_is_exact():
    # with b = 0 and uniform g the scheme must integrate phi_t = -eps*g exactly:
    # the phi-weights satisfy f1 + 4 f2 + f3 = dt*phi1
    grid = GridSpec2D(64, 10.0)
    g_field = Field2D(grid, np.full((64, 64), 2.0))
    phi = Field2D(grid, np.zeros((64, 64)))
    plan = make_plan(grid, dt=0.7)
    stepped = step_etdrk4(phi, plan, b=0.0, eps=0.5, g_field=g_field)
    assert np.max(np.abs(stepped.values + 0.5 * 2.0 * 0.7)) < 1e-13


def test_self_convergence_order():
    # smooth manufactured problem: zero start, Gaussian forcing bump
    grid = GridSpec2D(64, 100.0)
    x, y = _xy(grid)
    g_field = Field2D(grid, np.exp(-((x - 50.0) ** 2 + (y - 50.0) ** 2) / 80.0))
    t_end = 4.0

    def advance(dt):
        plan = make_plan(grid, dt)
        phi = Field2D(grid, np.zeros((64, 64)))
        for _ in range(int(round(t_end / dt))):
            phi = step_etdrk4(phi, plan, b=1.0, eps=0.5, g_field=g_field)
        return phi.values

    u1, u2, u3 = advance(0.5), advance(0.25), advance(0.125)
    e12 = np.max(np.abs(u1 - u2))
    e23 = np.max(np.abs(u2 - u3))
    order = math.log2(e12 / e23)
    assert order > 3.8


def test_dealias_masks_quadratic_product():
    # mode 12 squares onto mode 24, above the 64/3 cut: the masked run keeps
    # the top shell empty, the unmasked one populates it
    fractions = {}
    for policy in ("two_thirds", "none"):
        grid = GridSpec2D(64, 2.0 * math.pi, dealias=policy)
        x, y = _xy(grid)
        phi = Field2D(grid, 0.1 * (np.cos(12.0 * x) + np.cos(12.0 * y)))
        plan = make_plan(grid, 0.05)
        for _ in range(5):
            phi = step_etdrk4(phi, plan, b=1.0, eps=0.0, g_field=None)
        fractions[policy] = top_shell_energy_fraction(phi)
    assert fractions["two_thirds"] < 1e-20
    assert fractions["none"] > 1e3 * max(fractions["two_thirds"], 1e-300)


def test_rhs_nonlinear_matches_plan_route():
    grid = GridSpec2D(64, 30.0)
    x, y = _xy(grid)
    phi = Field2D(grid, np.sin(2.0 * np.pi * x / 30.0) * np.cos(2.0 * np.pi * y / 30.0))
    g_field = sample_defect(grid, InhomogeneitySpec(1.0, 1.0))
    direct = rhs_nonlinear(phi, 2.0, 0.3, g_field)
    # gradient-squared of the analytic field, dealiased, matches spectral route
    kx = 2.0 * np.pi / 30.0
    px = kx * np.cos(kx * x) * np.cos(kx * y)
    py = -kx * np.sin(kx * x) * np.sin(kx * y)
    expect = -2.0 * (px**2 + py**2) - 0.3 * g_field.values
    assert np.max(np.abs(direct.values - expect)) < 1e-10


def test_blow_up_detected():
    grid = GridSpec2D(64, 10.0)
    x, _ = _xy(grid)
    phi = Field2D(grid, 1e160 * np.sin(2.0 * np.pi * x / 10.0))
    plan = make_plan(grid, 0.5)
    with pytest.raises(BlowUpError):
        step_etdrk4(phi, plan, b=1.0, eps=0.0, g_field=None)


def test_plan_grid_mismatch():
    plan = make_plan(GridSpec2D(64, 10.0), 0.5)
    other = Field2D(GridSpec2D(64, 20.0), np.zeros((64, 64)))
    with pytest.raises(ConfigError):
        step_etdrk4(other, plan, b=1.0, eps=0.0, g_field=None)


def test_snapshot_round_trip(tmp_path):
    grid = GridSpec2D(64, 25.0, dealias=DEALIAS_NONE)
    rng = np.random.default_rng(3)
    phi = Field2D(grid, rng.standard_normal((64, 64)))
    write_field_snapshot(phi, tmp_path / "snap")
    back = read_field_snapshot(tmp_path / "snap")
    assert back.grid == grid
    assert np.array_equal(back.values, phi.values)


def test_config_validation():
    grid = GridSpec2D(64, 50.0)
    spec = InhomogeneitySpec(1.5, 1.5, strength=0.5)
    with pytest.raises(ConfigError):
        SimulationConfig(grid, dt=0.0, b=1.0, defect=spec)
    with pytest.raises(ConfigError):
        SimulationConfig(grid, dt=0.5, b=1.0, defect=spec, t_max=-1.0)
    with pytest.raises(ConfigError):
        SimulationConfig(grid, dt=0.5, b=1.0, defect=spec, check_interval=0)


@pytest.mark.slow
def test_run_to_steady_small_box():
    grid = GridSpec2D(64, 50.0)
    spec = InhomogeneitySpec(1.5, 1.5, strength=1.0)
    cfg = SimulationConfig(grid, dt=0.5, b=1.0, defect=spec,
                           t_max=2000.0, steady_tol=1e-5)
    phi, report = run_to_steady(cfg)
    assert report.converged
    assert report.omega_drift > 0.0
    assert report.k_measured > 0.0
    assert report.steady_residual < 1e-5
    assert report.t_final <= 2000.0
    # frequency and wavenumber tie together through the eikonal balance
    assert report.k_measured**2 == pytest.approx(report.omega_drift, rel=0.25)


def test_wraparound_warning():
    grid = GridSpec2D(64, 50.0)
    spec = InhomogeneitySpec(1.5, 0.8, strength=1.0)  # heavy tail: ratio 3e-3
    cfg = SimulationConfig(grid, dt=0.5, b=1.0, defect=spec,
                           t_max=1.0, steady_tol=1e-9, check_interval=1)
    with pytest.warns(RuntimeWarning, match="corner"):
        run_to_steady(cfg)


# ------------------------------------------------- half-grid warm start


def _locked_config(n, l, **kw):
    kw.setdefault("t_max", 2000.0)
    return SimulationConfig(GridSpec2D(n, l), dt=0.5, b=1.0,
                            defect=InhomogeneitySpec(1.5, 1.5, strength=1.0), **kw)


def _zero_start(cfg):
    n = cfg.grid.n
    return _relax(cfg, np.zeros((n, n // 2 + 1), dtype=complex))


@pytest.mark.slow
def test_half_grid_start_locks_the_same_state():
    # N=128 L=25: the N=64 grid (dx 0.39) resolves the unit core, locks first,
    # and the fine grid relaxes from its zero-padded spectrum
    cfg = _locked_config(128, 25.0)
    phi, report = run_to_steady(cfg)
    uhat, steps, converged, _, omega = _zero_start(cfg)
    k_cold = measure_wavenumber(Field2D(cfg.grid, np.fft.irfft2(uhat, s=(128, 128))))
    assert converged and report.converged
    assert report.coarse_steps > 0
    assert report.steps < steps
    assert report.t_final == report.steps * cfg.dt
    assert report.k_measured == pytest.approx(k_cold, rel=2e-4)
    assert report.omega_drift == pytest.approx(omega, rel=2e-4)
    assert report.as_dict(include_profile=False)["coarse_steps"] == report.coarse_steps


@pytest.mark.parametrize("n,l,t_max", [(64, 50.0, 2000.0), (256, 100.0, 10.0)])
def test_unresolved_half_grid_falls_back_to_the_eigen_start(n, l, t_max):
    # N=64: no half grid (32 < 64); N=256 L=100: its half grid has dx 0.78 > 0.5
    cfg = _locked_config(n, l, t_max=t_max)
    phi, report = run_to_steady(cfg)
    start, omega = _hopf_cole_start(cfg)
    uhat, steps, *_ = _relax(cfg, start)
    assert report.coarse_steps == 0
    assert report.steps == steps
    assert np.array_equal(phi.values, np.fft.irfft2(uhat, s=(n, n)))
    assert (report.start, report.start_omega) == ("hopf_cole", omega)


def test_half_grid_that_cannot_lock_falls_back_to_the_eigen_start():
    cfg = _locked_config(128, 25.0, t_max=20.0, steady_tol=1e-12)
    phi, report = run_to_steady(cfg)
    uhat, steps, converged, *_ = _relax(cfg, _hopf_cole_start(cfg)[0])
    assert not converged and not report.converged
    assert report.coarse_steps == 40  # the whole half-grid pass is spent
    assert report.steps == steps
    assert np.array_equal(phi.values, np.fft.irfft2(uhat, s=(128, 128)))
    assert report.start == "hopf_cole"


# ------------------------------------------------- Hopf-Cole eigen start


@pytest.mark.parametrize("n,l,p", [(128, 50.0, 0.8), (128, 25.0, 1.5)])
def test_eigenvalue_matches_locked_omega(n, l, p):
    # w = exp(-b phi): the principal eigenvalue of Lap + b eps g over b is the
    # frequency the stepper locks to from rest
    cfg = SimulationConfig(GridSpec2D(n, l), dt=0.5, b=1.0, t_max=2000.0,
                           defect=InhomogeneitySpec(1.5, p, strength=1.0))
    start, omega = _hopf_cole_start(cfg)
    _, cold_steps, cold_locked, _, cold_omega = _zero_start(cfg)
    _, warm_steps, warm_locked, _, warm_omega = _relax(cfg, start)
    assert cold_locked and warm_locked
    assert omega == pytest.approx(cold_omega, rel=1e-4)
    assert warm_omega == pytest.approx(cold_omega, rel=1e-4)
    assert warm_steps < cold_steps


@pytest.mark.parametrize("amplitude,p", [(1.5, 0.5), (1.5, 0.3), (1e300, 1.5)])
def test_eigen_start_stays_at_rest(amplitude, p):
    # p <= 1/2 lies outside the theorem and must not be steered to lock;
    # A = 1e300 overflows the operator
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(amplitude, p, strength=1.0))
    start, omega = _hopf_cole_start(cfg)
    assert omega is None
    assert start.shape == (64, 33) and not np.any(start)


@pytest.mark.parametrize("amplitude,at_rest", [(1.5, False), (1e150, True)])
def test_eigen_solve_leaks_no_warning(amplitude, at_rest):
    # A = 1e150 is finite but leaves lobpcg short of its tolerance, which it
    # reports as a UserWarning; the start then stays at rest
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(amplitude, 0.8, strength=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, omega = _hopf_cole_start(cfg)
    assert (omega is None) == at_rest
