"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test emits a single `[acceptance] criterion N: PASS|FAIL - ...` line on
the real stdout (bypassing capture) so the gate can be read off a plain
`pytest -v` log.  Criteria that need the desk-scale sweeps share module-scoped
fixtures; everything else is self-contained.

Criterion 3's endpoint clause is the far-field series of the separatrix, not
rho(20) = 1: every solution with rho(inf) = 1 has 1 - rho = 1/(2 r^2) +
9/(8 r^4) + O(r^-6), i.e. 1 - rho(20) = 1.2570e-3.  An earlier clause,
|rho(20) - 1| <= 1e-3, asked for a value no such solution can have (and a
profile forced to it breaks the tail law r^2(1 - rho^2) ~ 1 checked beside it).
"""
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import eikolab
from eikolab.cli import EXIT_OK, FIG1_A_VALUES, main
from eikolab.radial import (
    RadialGrid,
    RadialProfile,
    apply_inverse_L_lambda,
    fd_derivative,
    hopf_cole_residual,
    shoot_spiral_amplitude,
    solve_corrector_K,
)
from eikolab.specfun import bessel_eval, bessel_k0
from eikolab.spectral import GridSpec2D, _nonlinear_hat, _step_hat, make_plan
from full_grid import to_field, to_spectrum

pytestmark = pytest.mark.acceptance

JOBS = str(max(1, min(4, os.cpu_count() or 1)))


@pytest.fixture(scope="module")
def verdict(request):
    """One `criterion N: PASS|FAIL` line per test, visible without -s."""
    plugins = request.config.pluginmanager
    reporter = plugins.get_plugin("terminalreporter")
    capman = plugins.get_plugin("capturemanager")

    def emit(num: int, ok: bool, detail: str) -> bool:
        line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
        if reporter is None or capman is None:
            print(line, file=sys.stderr)
            return ok
        # the reporter writes to the process's stdout, which fd-level capture
        # swallows while a test runs
        with capman.global_and_fixture_disabled():
            reporter.ensure_newline()
            reporter.write_line(line)
        return ok

    return emit


def _read_rows(path):
    import csv

    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------- shared sweeps


@pytest.fixture(scope="module")
def fig1_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate_fig1")
    t0 = time.perf_counter()
    code = main(["figure1", "--N", "256", "--L", "100", "--dt", "0.5",
                 "--A", "1.0", "--p", "0.8", "--jobs", JOBS, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        code=code,
        elapsed=elapsed,
        runs=json.loads((out / "runs.json").read_text()),
        fit=json.loads((out / "fig1b_fit.json").read_text()),
    )


@pytest.fixture(scope="module")
def fig2_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate_fig2")
    t0 = time.perf_counter()
    code = main(["figure2", "--p-grid", "0.3,0.8,1.2,1.5,2.0,2.5,3.0",
                 "--N", "256", "--A", "1.5", "--jobs", JOBS, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        code=code,
        elapsed=elapsed,
        rows=_read_rows(out / "fig2a_k_vs_p.csv"),
        summary=json.loads((out / "fig2_summary.json").read_text()),
    )


# ------------------------------------------------------------- criteria


def test_criterion_1_bessel_vs_frozen_series_oracle(bessel_table, verdict):
    grid = bessel_table["grid"]
    assert len(grid) == 200
    assert float(grid[0]["z"]) == pytest.approx(1e-3)
    assert float(grid[-1]["z"]) == pytest.approx(50.0)

    t0 = time.perf_counter()
    worst = 0.0
    for row in grid:
        ev = bessel_eval(float(row["z"]))
        worst = max(
            worst,
            abs(ev.k0 / float(row["k0"]) - 1.0),
            abs(ev.k1 / float(row["k1"]) - 1.0),
        )
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-9 and elapsed < 1.0
    assert verdict(
        1, ok,
        f"200 log-spaced z in [1e-3, 50] vs {bessel_table['dps']}-digit series "
        f"table: max rel err {worst:.2e} (<= 1e-9); {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_etdrk4_order_and_linear_exactness(verdict):
    t0 = time.perf_counter()

    # the production kernel, stepped in Fourier space as run_to_steady steps it
    def advance(values, plan, b, eps, g, steps):
        uhat = to_spectrum(values)
        ghat = np.zeros_like(uhat) if g is None else to_spectrum(g)
        for _ in range(steps):
            uhat = _step_hat(uhat, plan, b, eps, ghat, _nonlinear_hat(uhat, plan, b, eps, ghat))
        return to_field(uhat)

    grid = GridSpec2D(128, 100.0)
    ax = grid.axes()
    x, y = np.meshgrid(ax, ax, indexing="ij")
    g = np.exp(-((x - 50.0) ** 2 + (y - 50.0) ** 2) / 80.0)
    t_end = 4.0

    u1, u2, u3 = (advance(np.zeros((128, 128)), make_plan(grid, dt), 1.0, 0.5, g,
                          int(round(t_end / dt)))
                  for dt in (0.5, 0.25, 0.125))
    e12 = np.max(np.abs(u1 - u2))
    e23 = np.max(np.abs(u2 - u3))
    order = math.log2(e12 / e23)

    lin_grid = GridSpec2D(128, 2.0 * math.pi)
    lx, _ = np.meshgrid(lin_grid.axes(), lin_grid.axes(), indexing="ij")
    # the mode cos 3x with its mirror cos 3y: the stepped state is x <-> y symmetric
    mode = np.cos(3.0 * lx) + np.cos(3.0 * lx.T)
    stepped = advance(mode, make_plan(lin_grid, 0.2), 0.0, 0.0, None, 1)
    expect = math.exp(-9.0 * 0.2) * mode
    lin_err = np.max(np.abs(stepped - expect)) / np.max(np.abs(expect))

    elapsed = time.perf_counter() - t0
    ok = order >= 3.8 and lin_err <= 1e-12 and elapsed < 30.0
    assert verdict(
        2, ok,
        f"self-convergence order {order:.3f} (>= 3.8) at N=128, "
        f"dt 0.5/0.25/0.125; linear-mode rel err {lin_err:.2e} (<= 1e-12); "
        f"{elapsed:.1f}s (< 30s)",
    )


def _independent_shooting_oracle(r_max: float = 20.0, n_bisect: int = 44) -> float:
    """Origin-slope separatrix by DOP853 at tolerances the package never uses."""
    r0 = 1e-3
    r_end = r_max + 10.0

    def rhs(r, z):
        rho, drho = z
        return (drho, -drho / r + rho / r**2 - rho + rho**3)

    def hit_ceiling(r, z):
        return z[0] - 1.3

    def hit_floor(r, z):
        return z[0]

    hit_ceiling.terminal = True
    hit_floor.terminal = True

    def supercritical(s: float) -> bool:
        z0 = (s * r0 - s * r0**3 / 8.0, s - 3.0 * s * r0**2 / 8.0)
        sol = solve_ivp(rhs, (r0, r_end), z0, method="DOP853",
                        rtol=1e-10, atol=1e-12, events=(hit_ceiling, hit_floor))
        if sol.t_events[0].size:
            return True
        if sol.t_events[1].size:
            return False
        return bool(sol.y[0, -1] > 1.0)

    lo, hi = 0.4, 0.7
    assert not supercritical(lo) and supercritical(hi)
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        if supercritical(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_3_shooting_slope_and_tail(verdict):
    t0 = time.perf_counter()
    sol = shoot_spiral_amplitude(r_max=20.0, tol=1e-8)
    oracle = _independent_shooting_oracle()
    elapsed = time.perf_counter() - t0

    rho = sol.profile.interpolator()
    rho20 = float(rho(20.0))
    rr = np.linspace(10.0, 20.0, 201)
    law = rr**2 * (1.0 - np.asarray(rho(rr)) ** 2)

    ok_slope = (abs(sol.slope_origin - 0.58319) <= 1e-3
                and abs(sol.slope_origin - oracle) <= 1e-3)
    series20 = 1 / (2 * 20**2) + 9 / (8 * 20**4)  # far-field series, remainder 1.6e-7
    ok_endpoint = abs((1 - rho20) - series20) <= 1e-6
    ok_law = float(law.min()) >= 0.8 and float(law.max()) <= 1.2
    ok_time = elapsed < 5.0

    verdict(
        3, ok_slope and ok_endpoint and ok_law and ok_time,
        f"slope {sol.slope_origin:.10f} vs oracle {oracle:.10f} "
        f"(diff {abs(sol.slope_origin - oracle):.1e}); 1 - rho(20) = "
        f"{1.0 - rho20:.4e} vs series {series20:.4e} (within 1e-6 required); "
        f"r^2(1-rho^2) in [{law.min():.3f}, {law.max():.3f}] on [10, 20]; "
        f"{elapsed:.1f}s (< 5s)",
    )
    assert ok_slope and ok_law and ok_time
    assert ok_endpoint, (
        f"1 - rho(20) = {1.0 - rho20:.5e}, but the separatrix's far-field series "
        f"1/(2 r^2) + 9/(8 r^4) gives {series20:.5e} at r = 20 (remainder "
        f"1.6e-7): the profile has left the rho(inf) = 1 solution before the "
        f"window end. (rho(20) = 1 is not the target: no solution with "
        f"rho(inf) = 1 reaches it, and forcing it breaks the tail law.)"
    )


@pytest.mark.slow
def test_criterion_4_wavenumber_law_at_desk_scale(fig1_sweep, verdict):
    s = fig1_sweep
    a_used = sorted(entry["params"]["a_sim"] for entry in s.runs)
    pearson = s.fit["transform_fit"]["pearson_r"]
    all_steady = all(entry["report"]["converged"] for entry in s.runs)

    ok = (s.code == EXIT_OK and all_steady
          and a_used == pytest.approx(FIG1_A_VALUES)
          and abs(pearson) > 0.99
          and s.elapsed < 1200.0)
    assert verdict(
        4, ok,
        f"9 runs at N=256 L=100 dt=0.5 p=0.8, a = 0.45..2.85: transform "
        f"pearson_r {pearson:.5f} (|.| > 0.99), all steady: {all_steady}; "
        f"{s.elapsed:.0f}s (< 1200s)",
    )


@pytest.mark.slow
def test_criterion_5_decay_rate_family_at_desk_scale(fig2_sweep, verdict):
    s = fig2_sweep
    by_p = {float(row["p"]): row for row in s.rows}
    ks = [float(by_p[p]["k_measured"]) for p in (0.8, 1.2, 1.5, 2.0, 2.5, 3.0)]
    decreasing = all(a > b for a, b in zip(ks, ks[1:]))
    pearson = s.summary.get("log_k_vs_inv_a_pearson", float("nan"))
    growth = float(by_p[0.3]["gradient_growth"])
    no_plateau = s.summary["plateau"]["0.3"] is False and growth > 0.20

    ok = (s.code == EXIT_OK and decreasing and pearson > 0.95
          and no_plateau and s.elapsed < 1800.0)
    assert verdict(
        5, ok,
        f"k over p = 0.8..3.0 strictly decreasing: {decreasing} "
        f"({ks[0]:.3f}..{ks[-1]:.3f}); log k vs -1/a pearson {pearson:.4f} "
        f"(> 0.95); p=0.3 gradient growth {growth:+.1%} (> +20%, no plateau); "
        f"{s.elapsed:.0f}s (< 1800s)",
    )


@pytest.mark.slow
def test_criterion_6_frequency_wavenumber_consistency(fig1_sweep, verdict):
    s = fig1_sweep
    worst = 0.0
    n = 0
    for entry in s.runs:
        rep = entry["report"]
        if not rep["converged"]:
            continue
        n += 1
        ratio = abs(rep["omega_drift"] - rep["k_measured"] ** 2) / rep["omega_drift"]
        worst = max(worst, ratio)
    ok = n == len(s.runs) and worst <= 0.15
    assert verdict(
        6, ok,
        f"|omega - k^2| / omega <= 0.15 on all {n} steady runs (b=1): "
        f"worst {worst:.3f}",
    )


def test_criterion_7_corrector_and_inverse_operator(verdict):
    t0 = time.perf_counter()

    # pure 1/r^2 tail switched on at a grid node: exact K = -(log r)^2 / 2
    grid = RadialGrid.uniform(220.0, 8801)

    def tail(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        far = s >= 1.0
        out[far] = s[far] ** -2.0
        return out

    K = solve_corrector_K(tail, b=1.0, grid=grid)
    r = grid.nodes
    window = (r >= 50.0) & (r <= 200.0)
    expected = -0.5 * np.log(r[window]) ** 2
    law_dev = float(np.max(np.abs(K.values[window] - expected) / np.abs(expected)))

    rt_grid = RadialGrid(np.linspace(0.0, 20.0, 4001))
    rr = rt_grid.nodes
    rng = np.random.default_rng(11)
    worst_rt = 0.0
    for _ in range(20):
        c = rng.uniform(-1.0, 1.0, 4)
        f = c[0] + c[1] * np.cos(0.3 * rr) + c[2] / (1.0 + rr) + c[3] * np.exp(-0.1 * rr)
        lam = float(rng.uniform(0.05, 2.0))
        u = apply_inverse_L_lambda(RadialProfile(rt_grid, f), lam)
        du = fd_derivative(rr, u.values, 1)
        resid = du[1:] + u.values[1:] / rr[1:] + lam * u.values[1:] - f[1:]
        worst_rt = max(worst_rt, float(np.max(np.abs(resid[10:-10]))))

    elapsed = time.perf_counter() - t0
    ok = law_dev <= 0.05 and worst_rt <= 1e-5 and elapsed < 5.0
    assert verdict(
        7, ok,
        f"corrector vs (log r)^2/2 on [50, 200]: max dev {law_dev:.2e} "
        f"(<= 5%); 20 random L_lambda round-trips: worst resid {worst_rt:.2e} "
        f"(<= 1e-5); {elapsed:.1f}s (< 5s)",
    )


def test_criterion_8_hopf_cole_eigenfunction(verdict):
    t0 = time.perf_counter()
    lam, b = 0.5, 1.0
    grid = RadialGrid(np.linspace(2.0 / lam, 8.0 / lam, 2001))
    phi = RadialProfile(
        grid, np.array([-math.log(bessel_k0(lam * r)) / b for r in grid.nodes])
    )
    res = hopf_cole_residual(phi, None, 0.0, omega=lam * lam / b, b=b)
    elapsed = time.perf_counter() - t0
    ok = res <= 1e-6 and elapsed < 1.0
    assert verdict(
        8, ok,
        f"K0({lam}*r) on the collar-free region z in [2, 8]: residual "
        f"{res:.2e} (<= 1e-6); {elapsed:.2f}s (< 1s)",
    )


def test_verdict_line_reaches_plain_verbose_log():
    # the gate must be readable off `pytest -v` with default capture
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(eikolab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
         "-k", "criterion_1", str(Path(__file__).resolve())],
        cwd=repo, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "[acceptance] criterion 1: PASS" in proc.stdout, proc.stdout[-2000:]
