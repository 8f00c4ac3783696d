"""Periodic spectral stepper: exactness identities, convergence, round-trips."""
import dataclasses
import math
import re
import threading
import warnings
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.fft
from scipy.integrate import cumulative_trapezoid
from scipy.sparse.linalg import LinearOperator, eigsh

from eikolab.asymptotics import branch_mass
from eikolab.cli import FIG1_A_VALUES, FIG2_P_GRID
from eikolab.errors import BlowUpError, ConfigError
from eikolab.profiles import InhomogeneitySpec, evaluate_g
from eikolab.measure import SteadyStateReport, default_annulus, measure_wavenumber
from eikolab.measure import radial_gradient
from eikolab.specfun import EULER_GAMMA
from eikolab import spectral
from eikolab.spectral import (
    EIGEN_MAXITER,
    EIGEN_STALL_STEPS,
    LADDER_TOP,
    GridSpec2D,
    Relaxation,
    SimulationConfig,
    _hopf_cole_eigen,
    _hopf_cole_start,
    _matched_phi,
    _mirror,
    _nonlinear_hat,
    _phi_functions,
    _relax,
    _step_hat,
    _warm_start,
    defect_corner_ratio,
    full_rhs_hat,
    geometry,
    make_plan,
    read_field_snapshot,
    run_to_steady,
    write_field_snapshot,
)
from alloc import peak_in_units
from full_grid import to_field, to_spectrum
from plane_oracle import plane_kappa


def _xy(grid):
    ax = grid.axes()
    return np.meshgrid(ax, ax, indexing="ij")


def _defect_field(grid, defect):
    """The bare defect A/(1+r^2)^p, strength not applied, on the full grid at
    periodic distance from the center."""
    bare = InhomogeneitySpec(defect.amplitude, defect.decay_exponent)
    return evaluate_g(bare, _mirror(geometry(grid).radius))


def _step(uhat, plan, b, eps, ghat):
    """One step of the production kernel _step_hat from uhat alone."""
    return _step_hat(uhat, plan, b, eps, ghat, _nonlinear_hat(uhat, plan, b, eps, ghat))


def _advance_hat(values, plan, b, eps, g=None, steps=1):
    """The spectrum after `steps` steps of the production kernel _step_hat."""
    uhat = to_spectrum(values)
    ghat = np.zeros_like(uhat) if g is None else to_spectrum(g)
    for _ in range(steps):
        uhat = _step(uhat, plan, b, eps, ghat)
    return uhat


def _advance(values, plan, b, eps, g=None, steps=1):
    """The n x n field after `steps` steps of the production kernel _step_hat."""
    return to_field(_advance_hat(values, plan, b, eps, g, steps))


# ------------------------------------------------- full-grid reference kernel
# The rfft2 stepper that the quadrant one replaced: the same ETDRK4 stages on
# the full n x (n/2+1) spectrum, with the plan's tables mirrored onto kx < 0.


def _mirror_rows(rows):
    """The rfft2 layout of a quadrant table even in kx: row n - j repeats row j."""
    return np.concatenate((rows, rows[-2:0:-1]))


def _full_grid_plan(plan):
    n, l = plan.grid.n, plan.grid.l
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=l / n)
    ky = 2.0 * np.pi * np.fft.rfftfreq(n, d=l / n)
    ikx = 1j * kx
    iky = 1j * ky
    ikx[n // 2] = 0.0  # Nyquist has no signed derivative
    iky[-1] = 0.0
    ix = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    iy = np.abs(np.fft.rfftfreq(n, d=1.0 / n))
    mask = (ix[:, None] < n / 3.0) & (iy[None, :] < n / 3.0)
    tables = {name: _mirror_rows(getattr(plan, name))
              for name in ("e_full", "e_half", "q_half", "f1", "f2", "f3")}
    return SimpleNamespace(grid=plan.grid, ikx=ikx[:, None], iky=iky[None, :],
                           dealias_mask=mask, **tables)


def _full_grid_nonlinear_hat(uhat, plan, b, eps, ghat):
    px = np.fft.irfft2(plan.ikx * uhat, s=(plan.grid.n, plan.grid.n))
    py = np.fft.irfft2(plan.iky * uhat, s=(plan.grid.n, plan.grid.n))
    what = np.fft.rfft2(px * px + py * py)
    what *= plan.dealias_mask
    out = -b * what
    if ghat is not None and eps != 0.0:
        out -= eps * ghat
    return out


def _full_grid_step_hat(uhat, plan, b, eps, ghat):
    n0 = _full_grid_nonlinear_hat(uhat, plan, b, eps, ghat)
    a = plan.e_half * uhat + plan.q_half * n0
    na = _full_grid_nonlinear_hat(a, plan, b, eps, ghat)
    bb = plan.e_half * uhat + plan.q_half * na
    nb = _full_grid_nonlinear_hat(bb, plan, b, eps, ghat)
    c = plan.e_half * a + plan.q_half * (2.0 * nb - n0)
    nc = _full_grid_nonlinear_hat(c, plan, b, eps, ghat)
    return (
        plan.e_full * uhat + plan.f1 * n0 + 2.0 * plan.f2 * (na + nb) + plan.f3 * nc
    )


def test_quadrant_kernel_matches_the_full_grid_kernel():
    # an even-even, x <-> y symmetric field with a defect, 20 steps on both kernels
    grid = GridSpec2D(128, 50.0)
    x, y = _xy(grid)
    g = _defect_field(grid, InhomogeneitySpec(1.5, 0.8))
    start = 0.5 * g + 0.1 * (np.cos(6.0 * np.pi * x / 50.0) * np.cos(4.0 * np.pi * y / 50.0)
                             + np.cos(4.0 * np.pi * x / 50.0) * np.cos(6.0 * np.pi * y / 50.0))
    plan = make_plan(grid, 0.5)
    full_plan = _full_grid_plan(plan)
    quadrant, full = to_spectrum(start), np.fft.rfft2(start)
    for _ in range(20):
        quadrant = _step(quadrant, plan, 1.0, 1.0, to_spectrum(g))
        full = _full_grid_step_hat(full, full_plan, 1.0, 1.0, np.fft.rfft2(g))
    expect = np.fft.irfft2(full, s=(128, 128))
    assert np.max(np.abs(to_field(quadrant) - expect)) <= 1e-12 * np.max(np.abs(expect))


# ------------------------------------------------- the kernels' arrays
# The stepper's kernels work in place on the arrays they allocate.  These are
# the same kernels as plain expressions, each stage a new array: the in-place
# ones must give the same bits and hold fewer quadrant-sized arrays at once.


def _expression_nonlinear_hat(uhat, plan, b, eps, ghat):
    geo = geometry(plan.grid)
    m, keep = plan.grid.n // 2, geo.keep
    px = scipy.fft.idct(scipy.fft.idst(-geo.kx * uhat[1:m], type=1, axis=0), type=1, axis=1)
    px2 = px * px
    sq = np.zeros_like(uhat)
    sq[1:m] = px2
    sq[:, 1:m] += px2.T
    rows = scipy.fft.dct(sq, type=1, axis=0)[:keep]
    out = np.zeros_like(uhat)
    out[:keep, :keep] = -b * scipy.fft.dct(rows, type=1, axis=1)[:, :keep]
    if eps != 0.0:
        out -= eps * ghat
    return out


def _expression_step_hat(uhat, plan, b, eps, ghat, n0):
    eu = plan.e_half * uhat
    a = eu + plan.q_half * n0
    na = _expression_nonlinear_hat(a, plan, b, eps, ghat)
    bb = eu + plan.q_half * na
    nb = _expression_nonlinear_hat(bb, plan, b, eps, ghat)
    c = plan.e_half * a + plan.q_half * (2.0 * nb - n0)
    nc = _expression_nonlinear_hat(c, plan, b, eps, ghat)
    return (
        plan.e_full * uhat + plan.f1 * n0 + 2.0 * plan.f2 * (na + nb) + plan.f3 * nc
    )


def _kernel_state(n):
    """(uhat, ghat, grid): a cone-shaped phi over the p = 0.8 defect on an n-grid, L = 100."""
    grid = GridSpec2D(n, 100.0)
    r = geometry(grid).radius
    g = evaluate_g(InhomogeneitySpec(1.0, 0.8), r)
    return (scipy.fft.dctn(np.sqrt(1.0 + r * r) - 2.0 * g, type=1),
            scipy.fft.dctn(g, type=1), grid)


def _same_bits(a, b):
    # bytes, not values: a signed zero must come out signed as before
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [64, 256, 512])
def test_in_place_kernels_give_the_expressions_bits(n):
    uhat, ghat, grid = _kernel_state(n)
    for eps in (1.0, 0.0):
        u = uhat
        for level in range(LADDER_TOP + 1):  # a step at each dt of the ladder
            plan = make_plan(grid, 0.5 * 2**level)
            n0 = _nonlinear_hat(u, plan, 1.0, eps, ghat)
            assert _same_bits(n0, _expression_nonlinear_hat(u, plan, 1.0, eps, ghat))
            kept = (u.copy(), n0.copy())
            new = _step_hat(u, plan, 1.0, eps, ghat, n0)
            assert _same_bits(new, _expression_step_hat(u, plan, 1.0, eps, ghat, n0))
            # the caller's arrays are read, never written
            assert _same_bits(u, kept[0]) and _same_bits(n0, kept[1])
            u = new


def test_kernels_hold_few_quadrants_at_once():
    # at N = 512 the plain expressions above hold 6.2 (nonlinear term) and
    # 12.2 (step) quadrant-sized arrays at their peak, results included
    uhat, ghat, grid = _kernel_state(512)
    plan = make_plan(grid, 0.5)
    n0 = _nonlinear_hat(uhat, plan, 1.0, 1.0, ghat)
    _step_hat(uhat, plan, 1.0, 1.0, ghat, n0)  # warms the transforms' plans
    _, nonlinear = peak_in_units(uhat.nbytes, _nonlinear_hat, uhat, plan, 1.0, 1.0, ghat)
    _, step = peak_in_units(uhat.nbytes, _step_hat, uhat, plan, 1.0, 1.0, ghat, n0)
    assert nonlinear <= 2.5
    assert step <= 5.5


def test_image_radii_are_symmetric_bit_for_bit():
    # _matched_phi takes the (e, d) image's term as the transpose of the
    # (d, e) one, e = L + d: hypot must not depend on its arguments' order
    for n in (64, 128, 256, 512):
        geo = geometry(GridSpec2D(n, 100.0))
        d = geo.offset
        e = 100.0 + d
        assert _same_bits(np.hypot(d[:, None], e[None, :]), np.hypot(e[:, None], d[None, :]).T)
        assert _same_bits(geo.radius, geo.radius.T)
        # the radii of the offsets' magnitudes, as the image sum takes them
        a = np.abs(d)
        assert _same_bits(geo.radius, np.hypot(a[:, None], a[None, :]))
        assert _same_bits(np.hypot(d[:, None], e[None, :]),
                          np.hypot(a[:, None], (100.0 - a)[None, :]))


def test_to_spectrum_takes_even_fields_alone():
    grid = GridSpec2D(64, 30.0)
    x, y = _xy(grid)
    kx = 2.0 * np.pi / 30.0
    even = (np.cos(kx * x) * np.cos(2.0 * kx * y) + np.cos(2.0 * kx * x) * np.cos(kx * y)
            + np.cos(3.0 * kx * x) + np.cos(3.0 * kx * y))
    uhat = to_spectrum(even)
    # the rfft2 coefficients with kx, ky >= 0, and back to the same field
    rfft = np.fft.rfft2(even)[:33]
    assert np.max(np.abs(uhat - rfft)) <= 1e-12 * np.max(np.abs(rfft))
    assert np.max(np.abs(to_field(uhat) - even)) <= 1e-14
    for odd in (np.sin(kx * x) * np.cos(kx * y), np.cos(kx * x) * np.sin(kx * y)):
        with pytest.raises(ConfigError, match="not even"):
            to_spectrum(even + 1e-6 * odd)


def test_to_spectrum_rejects_an_asymmetric_part():
    # even in x and y but not symmetric under x <-> y: the stepper takes
    # phi_y^2 as the transpose of phi_x^2, so such a field is refused
    grid = GridSpec2D(64, 30.0)
    x, y = _xy(grid)
    kx = 2.0 * np.pi / 30.0
    symmetric = np.cos(kx * x) + np.cos(kx * y)
    to_spectrum(symmetric + 1e-12 * np.cos(kx * x))  # rounding passes
    for asymmetric in (np.cos(kx * x), np.cos(kx * x) * np.cos(2.0 * kx * y)):
        with pytest.raises(ConfigError, match="its asymmetric part"):
            to_spectrum(symmetric + 1e-6 * asymmetric)


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec2D(48, 10.0)  # not a power of two
    with pytest.raises(ConfigError):
        GridSpec2D(32, 10.0)  # too small
    with pytest.raises(ConfigError):
        GridSpec2D(64, -1.0)
    g = GridSpec2D(64, 16.0)
    assert g.dx == 0.25
    assert g.center() == (8.0, 8.0)


def test_geometry_radius_is_the_min_image_distance():
    r = geometry(GridSpec2D(64, 10.0)).radius
    # the quadrant [:33, :33]: the corner cell is half a diagonal away, the
    # min-image distance, and the last cell is the center
    assert r.shape == (33, 33) and not r.flags.writeable
    assert r[0, 0] == pytest.approx(math.hypot(5.0, 5.0))
    assert r[32, 32] == 0.0
    assert np.max(r) <= math.hypot(5.0, 5.0) + 1e-12


def test_bare_defect_values_and_strength_separation():
    g = GridSpec2D(64, 20.0)
    spec = InhomogeneitySpec(1.5, 0.8, strength=0.25)
    f, fhat = spectral._bare_defect(g, spec.amplitude, spec.decay_exponent)
    assert not (f.flags.writeable or fhat.flags.writeable)
    assert np.array_equal(_mirror(f), _defect_field(g, spec))
    # strength deliberately not applied: center cell carries the bare amplitude
    i = 32  # axes()[32] = 10.0 = center, the quadrant's last cell
    assert f[i, i] == pytest.approx(1.5)
    assert defect_corner_ratio(g, spec) == pytest.approx(
        (1.0 + 200.0) ** -0.8, rel=1e-12
    )


@pytest.mark.parametrize("n,l,dt", [(64, 10.0, 0.5), (128, 2.0 * math.pi, 0.05)])
def test_plan_tables_match_full_grid_evaluation(n, l, dt):
    # make_plan's tables are the phi-function weights of ETDRK4 over the
    # quadrant's z = -|k|^2 dt, bit for bit, on every step of the dt ladder
    grid = GridSpec2D(n, l)
    minus_ksq = geometry(grid).minus_ksq
    for step in (dt * 2**j for j in range(LADDER_TOP + 1)):
        plan = make_plan(grid, step)
        z = minus_ksq * step
        phi1, phi2, phi3 = _phi_functions(z)
        half1, _, _ = _phi_functions(0.5 * z)
        expect = {
            "e_full": np.exp(z),
            "e_half": np.exp(0.5 * z),
            "q_half": 0.5 * step * half1,
            "f1": step * (phi1 - 3.0 * phi2 + 4.0 * phi3),
            "f2": step * (phi2 - 2.0 * phi3),
            "f3": step * (4.0 * phi3 - phi2),
        }
        for name, table in expect.items():
            assert np.array_equal(getattr(plan, name), table), (name, step)


def test_phi_functions_match_mpmath():
    # phi_j(z) = (e^z - sum_{m<j} z^m / m!) / z^j in 40 digits, over the
    # Taylor branch, the expm1 branch and the doubles either side of |z| = 1
    z = -np.concatenate(([0.0], np.logspace(-8, 3.3, 400), np.nextafter(1.0, [0.0, 2.0]), [1.0]))
    with mpmath.workdps(40):
        for j, phi in enumerate(_phi_functions(z), start=1):
            oracle = np.array([
                float((mpmath.exp(x) - sum(mpmath.mpf(x) ** m / mpmath.factorial(m)
                                            for m in range(j))) / mpmath.mpf(x) ** j)
                if x else 1.0 / math.factorial(j)
                for x in z
            ])
            assert np.max(np.abs(phi / oracle - 1.0)) <= 1e-15, j


def test_plans_share_the_cached_geometry():
    # one read-only record per grid serves every plan on the dt ladder, the
    # eigen start and the measurement
    grid = GridSpec2D(64, 10.0)
    geo = geometry(grid)
    assert geometry(GridSpec2D(64, 10.0)) is geo
    for name in ("offset", "radius", "weight", "kx", "minus_ksq"):
        assert not getattr(geo, name).flags.writeable, name
    assert geo.keep == 22  # modes 0..21 < 64/3
    assert geo.kx.shape == (31, 1) and geo.weight.sum() == 64 * 64
    coarse, fine = make_plan(grid, 0.5), make_plan(grid, 2.0)
    assert np.array_equal(fine.e_full, np.exp(geo.minus_ksq * 2.0))
    assert np.array_equal(coarse.e_full, np.exp(geo.minus_ksq * 0.5))
    # the plans are cached too, and pool threads share them: no caller may
    # write to a table
    assert make_plan(GridSpec2D(64, 10.0), 2.0) is fine
    for name in ("e_full", "e_half", "q_half", "f1", "f2", "f3"):
        with pytest.raises(ValueError):
            getattr(fine, name)[0, 0] = 0.0


def test_threads_that_miss_together_build_a_plan_once(monkeypatch):
    # the second thread asks while the first builds: it must wait for that
    # build, not start its own (which would release the first at once)
    builds = []
    second = threading.Event()
    tools = spectral.geometry

    def counted(grid):
        builds.append(grid)
        if len(builds) == 1:
            second.wait(timeout=0.5)
        else:
            second.set()
        return tools(grid)

    monkeypatch.setattr(spectral, "geometry", counted)
    make_plan.cache_clear()
    grid, plans = GridSpec2D(64, 10.0), []
    threads = [threading.Thread(target=lambda: plans.append(make_plan(grid, 0.5)))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
        assert not t.is_alive()
    assert len(builds) == 1 and not second.is_set()
    assert plans[0] is plans[1]


def test_plan_cache_holds_both_ladders_of_a_two_level_run():
    # N=128, L=32: the 64-cell half grid (dx 0.5) resolves the core, so a run
    # climbs the dt ladder on two grids; a second run builds no plan
    cfg = _locked_config(128, 32.0)
    make_plan.cache_clear()
    _, first = run_to_steady(cfg)
    built = make_plan.cache_info().misses
    _, second = run_to_steady(cfg)
    assert first.start == "half_grid" and first.converged
    assert len(first.dt_steps) == LADDER_TOP + 1  # the fine grid climbs to the top
    assert make_plan.cache_info().misses == built
    assert second.k_measured == first.k_measured


def test_linear_mode_decays_exactly():
    # b = 0, eps = 0: a single Fourier mode (with its x <-> y mirror) must
    # decay by e^{-k^2 dt} exactly
    grid = GridSpec2D(64, 2.0 * math.pi)
    x, y = _xy(grid)
    mode = np.cos(3.0 * x) + np.cos(3.0 * y)
    stepped = _advance(mode, make_plan(grid, dt=0.2), b=0.0, eps=0.0)
    expect = math.exp(-9.0 * 0.2) * mode
    assert np.max(np.abs(stepped - expect)) < 1e-12


def test_constant_forcing_is_exact():
    # with b = 0 and uniform g the scheme must integrate phi_t = -eps*g exactly:
    # the phi-weights satisfy f1 + 4 f2 + f3 = dt*phi1
    grid = GridSpec2D(64, 10.0)
    stepped = _advance(np.zeros((64, 64)), make_plan(grid, dt=0.7), b=0.0, eps=0.5,
                       g=np.full((64, 64), 2.0))
    assert np.max(np.abs(stepped + 0.5 * 2.0 * 0.7)) < 1e-13


def test_self_convergence_order():
    # smooth manufactured problem: zero start, Gaussian forcing bump
    grid = GridSpec2D(64, 100.0)
    x, y = _xy(grid)
    g = np.exp(-((x - 50.0) ** 2 + (y - 50.0) ** 2) / 80.0)
    t_end = 4.0

    def advance(dt):
        return _advance(np.zeros((64, 64)), make_plan(grid, dt), b=1.0, eps=0.5, g=g,
                        steps=int(round(t_end / dt)))

    u1, u2, u3 = advance(0.5), advance(0.25), advance(0.125)
    e12 = np.max(np.abs(u1 - u2))
    e23 = np.max(np.abs(u2 - u3))
    order = math.log2(e12 / e23)
    assert order > 3.8


def _top_shell_energy_fraction(grid, uhat):
    """Spectral energy fraction carried by the shell the 2/3 rule removes."""
    i = np.arange(grid.n // 2 + 1)
    top = (i[:, None] >= grid.n / 3.0) | (i[None, :] >= grid.n / 3.0)
    # the quadrant holds one of the mirror images of each mode: weight the
    # interior kx rows and ky columns twice
    w = np.full(grid.n // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    e = uhat**2 * w[:, None] * w[None, :]
    return float(np.sum(e[top]) / np.sum(e))


def test_dealias_masks_quadratic_product(monkeypatch):
    # mode 12 squares onto mode 24, above the 64/3 cut: the grid's 2/3 mask
    # keeps the top shell empty, the same plan without it populates it
    grid = GridSpec2D(64, 2.0 * math.pi)
    x, y = _xy(grid)
    start = 0.1 * (np.cos(12.0 * x) + np.cos(12.0 * y))
    plan = make_plan(grid, 0.05)
    masked = _top_shell_energy_fraction(grid, _advance_hat(start, plan, b=1.0, eps=0.0,
                                                            steps=5))
    unmasked = geometry(grid)._replace(keep=grid.n // 2 + 1)
    monkeypatch.setattr(spectral, "geometry", lambda g: unmasked)
    bare = _top_shell_energy_fraction(grid, _advance_hat(start, plan, b=1.0, eps=0.0, steps=5))
    assert masked < 1e-20
    assert bare > 1e3 * max(masked, 1e-300)


def test_pruned_nonlinear_hat_matches_the_masked_transform():
    # a random even, x <-> y symmetric field: phi_y^2 as the transpose of
    # phi_x^2 and the row-pruned forward DCT-I against both gradients, a full
    # dctn and the 2/3 mask
    grid = GridSpec2D(64, 30.0)
    plan = make_plan(grid, 0.5)
    quadrant = np.random.default_rng(5).standard_normal((33, 33))
    uhat = to_spectrum(_mirror(quadrant + quadrant.T))
    kx = geometry(grid).kx
    px = scipy.fft.idct(scipy.fft.idst(kx * uhat[1:32], type=1, axis=0), type=1, axis=1)
    py = scipy.fft.idct(scipy.fft.idst(kx.T * uhat[:, 1:32], type=1, axis=1), type=1, axis=0)
    sq = np.zeros_like(uhat)
    sq[1:32] = px * px
    sq[:, 1:32] += py * py
    i = np.arange(33)
    mask = (i[:, None] < 64 / 3.0) & (i[None, :] < 64 / 3.0)
    expect = -2.0 * scipy.fft.dctn(sq, type=1) * mask
    got = _nonlinear_hat(uhat, plan, 2.0, 0.0, np.zeros_like(uhat))
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))
    assert not np.any(got[~mask])


def test_nonlinear_hat_matches_analytic_gradient():
    grid = GridSpec2D(64, 30.0)
    x, y = _xy(grid)
    phi = np.cos(2.0 * np.pi * x / 30.0) * np.cos(2.0 * np.pi * y / 30.0)
    g = _defect_field(grid, InhomogeneitySpec(1.0, 1.0))
    nhat = _nonlinear_hat(to_spectrum(phi), make_plan(grid, 0.5), 2.0, 0.3, to_spectrum(g))
    # gradient-squared of the analytic field (its modes are far below the cut)
    kx = 2.0 * np.pi / 30.0
    px = -kx * np.sin(kx * x) * np.cos(kx * y)
    py = -kx * np.cos(kx * x) * np.sin(kx * y)
    expect = -2.0 * (px**2 + py**2) - 0.3 * g
    assert np.max(np.abs(to_field(nhat) - expect)) < 1e-10


def test_snapshot_round_trip(tmp_path):
    # the file holds the n x n field of the quadrant; the reader takes the
    # quadrant back, bit for bit
    grid = GridSpec2D(64, 25.0)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((33, 33))
    phi = phi + phi.T
    write_field_snapshot(grid, phi, tmp_path / "snap")
    stored = np.fromfile(tmp_path / "snap.bin", dtype="<f8")
    assert np.array_equal(stored, _mirror(phi).ravel())
    back_grid, back = read_field_snapshot(tmp_path / "snap")
    assert back_grid == grid
    assert np.array_equal(back, phi)


def test_snapshot_io_holds_about_one_grid(tmp_path):
    # the writer fills one n x n grid and writes it; the reader holds the
    # file's values, one reflected block's difference at a time and the
    # quadrant it returns (a copy, so the file's values can be freed)
    grid = GridSpec2D(512, 100.0)
    phi = geometry(grid).radius ** 2
    prefix = tmp_path / "snap"
    size = 8 * 512 * 512
    _, write = peak_in_units(size, write_field_snapshot, grid, phi, prefix)
    (_, back), read = peak_in_units(size, read_field_snapshot, prefix)
    assert np.array_equal(back, phi) and back.flags.owndata
    assert write <= 1.1
    assert read <= 1.4


@pytest.mark.parametrize("part", ["odd", "asymmetric", (0, 40), (33, 63), (63, 33), (40, 50)])
def test_quadrant_reports_the_full_mirror_magnitude(part):
    # the odd part is measured block by block, the asymmetric one on the
    # quadrant: the refusal names the magnitudes of the full-grid formulas.
    # A cell off the quadrant alone is odd: each edge of each reflected block
    grid = GridSpec2D(64, 30.0)
    x, y = _xy(grid)
    kx = 2.0 * np.pi / 30.0
    values = np.cos(kx * x) + np.cos(kx * y)
    if part == "odd":
        values += 1e-6 * np.sin(kx * x) * np.cos(kx * y)
    elif part == "asymmetric":
        values += 1e-6 * np.cos(kx * x) * np.cos(2.0 * kx * y)
    else:
        values[part] += 3e-7
    q = values[:33, :33]
    rows = np.concatenate((q, q[-2:0:-1]))
    mirrored = np.concatenate((rows, rows[:, -2:0:-1]), axis=1)
    name, size = (("asymmetric", np.max(np.abs(q - q.T))) if part == "asymmetric"
                  else ("odd", np.max(np.abs(values - mirrored))))
    with pytest.raises(ConfigError, match=re.escape(f"its {name} part reaches {size:.3e}") + "$"):
        spectral.quadrant(values)


def test_config_validation():
    grid = GridSpec2D(64, 50.0)
    spec = InhomogeneitySpec(1.5, 1.5, strength=0.5)
    with pytest.raises(ConfigError):
        SimulationConfig(grid, dt=0.0, b=1.0, defect=spec)
    with pytest.raises(ConfigError):
        SimulationConfig(grid, dt=0.5, b=1.0, defect=spec, t_max=-1.0)


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


def test_wraparound_is_reported_not_warned():
    # the heavy tail reaches the box edge: the report records how far, and
    # the run emits no warning of any kind
    grid = GridSpec2D(64, 50.0)
    spec = InhomogeneitySpec(1.5, 0.8, strength=1.0)  # ratio 3.3e-3
    cfg = SimulationConfig(grid, dt=0.5, b=1.0, defect=spec,
                           t_max=1.0, steady_tol=1e-9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, report = run_to_steady(cfg)
    assert report.corner_ratio == defect_corner_ratio(grid, spec)
    assert report.corner_ratio > 1e-3
    assert [str(w.message) for w in caught] == []


# ------------------------------------------------- half-grid warm start


# Tests that compare two stepping paths (the ladder against the fixed step,
# a warm start against a cold one, the eigen Omega against the locked one)
# bound their difference by the residual the runs stop at: they pin the steady
# test they were written for, not the looser default.
COMPARED_TOL = 1e-5


def _locked_config(n, l, **kw):
    kw.setdefault("t_max", 2000.0)
    kw.setdefault("steady_tol", COMPARED_TOL)
    return SimulationConfig(GridSpec2D(n, l), dt=0.5, b=1.0,
                            defect=InhomogeneitySpec(1.5, 1.5, strength=1.0), **kw)


def _zero_start(cfg):
    """The fixed-step reference from rest (see _constant_dt_loop)."""
    m = cfg.grid.n // 2
    return _constant_dt_loop(cfg, np.zeros((m + 1, m + 1)))


def _k(cfg, run):
    phi = scipy.fft.idctn(run.uhat, type=1)
    return measure_wavenumber(cfg.grid, radial_gradient(cfg.grid, phi), default_annulus(cfg.grid))


@pytest.mark.slow
def test_half_grid_start_locks_the_same_state():
    # N=128 L=25: the N=64 grid (dx 0.39) resolves the unit core, locks first,
    # and the fine grid relaxes from its zero-padded spectrum
    cfg = _locked_config(128, 25.0)
    phi, report = run_to_steady(cfg)
    cold = _zero_start(cfg)
    assert cold.converged and report.converged
    assert report.coarse_steps > 0
    assert report.steps < cold.steps
    # the warm fine grid relaxes on the dt ladder: t_final sums the steps taken
    assert sum(n for _, n in report.dt_steps) == report.steps
    assert report.t_final == sum(dt * n for dt, n in report.dt_steps)
    assert report.k_measured == pytest.approx(_k(cfg, cold), rel=2e-4)
    assert report.omega_drift == pytest.approx(cold.omega_drift, rel=2e-4)
    record = report.as_dict(include_profile=False)
    assert record["coarse_steps"] == report.coarse_steps
    assert (record["dt_steps"], record["dt_rejections"]) == (report.dt_steps, 0)
    # the zero-padded half-grid state is the fine grid's start
    assert record["start_residual"] == report.start_residual > report.steady_residual


def test_report_carries_every_relaxation_field(monkeypatch):
    # run_to_steady forwards the relaxation's record by field name
    runs = []
    real = spectral._relax

    def relax(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(spectral, "_relax", relax)
    _, report = run_to_steady(_locked_config(64, 50.0))
    names = {f.name for f in dataclasses.fields(SteadyStateReport)}
    assert set(Relaxation._fields) - names == {"uhat"}
    for name in Relaxation._fields[1:]:
        assert getattr(report, name) == getattr(runs[-1], name), name


def test_report_records_the_residual_of_every_step(monkeypatch):
    # the residual's decay is read from the run record alone; a step dropped
    # after a blow-up leaves no entry
    _, report = run_to_steady(_locked_config(64, 50.0))
    record = report.as_dict(include_profile=False)
    assert len(record["residuals"]) == record["steps"] > 1
    assert record["residuals"][-1] == record["steady_residual"] < report.steady_tol
    cfg = _locked_config(64, 50.0)
    _failing_steps(monkeypatch, lambda dt: dt == 4 * cfg.dt)
    rolled = _relax(cfg, _hopf_cole_start(cfg).uhat)
    assert rolled.dt_rejections == 1
    assert len(rolled.residuals) == rolled.steps
    assert rolled.residuals[-1] == rolled.steady_residual


@pytest.mark.parametrize("n,l,t_max", [(64, 50.0, 2000.0), (256, 100.0, 10.0)])
def test_unresolved_half_grid_falls_back_to_the_eigen_start(n, l, t_max):
    # N=64: no half grid (32 < 64); N=256 L=100: its half grid has dx 0.78 > 0.5
    cfg = _locked_config(n, l, t_max=t_max)
    phi, report = run_to_steady(cfg)
    start = _hopf_cole_start(cfg)
    run = _relax(cfg, start.uhat)
    assert report.coarse_steps == 0
    assert report.steps == run.steps
    assert np.array_equal(phi, scipy.fft.idctn(run.uhat, type=1))
    assert (report.start, report.start_omega) == ("hopf_cole", start.start_omega)
    assert report.eigen_iterations == _hopf_cole_start(cfg).eigen_iterations > 0
    assert report.start_residual == run.start_residual > cfg.steady_tol


def test_half_grid_that_cannot_lock_falls_back_to_the_eigen_start():
    cfg = _locked_config(128, 25.0, t_max=20.0, steady_tol=1e-12)
    phi, report = run_to_steady(cfg)
    coarse = replace(cfg, grid=GridSpec2D(64, 25.0))
    spent = _relax(coarse, _hopf_cole_start(coarse).uhat)
    run = _relax(cfg, _hopf_cole_start(cfg).uhat)
    assert not run.converged and not report.converged
    # the whole half-grid pass is spent: t_max in fewer steps than t_max / dt
    assert not spent.converged and spent.t_final == cfg.t_max
    assert report.coarse_steps == spent.steps < 40
    assert report.steps == run.steps
    assert report.t_final == run.t_final == cfg.t_max
    assert np.array_equal(phi, scipy.fft.idctn(run.uhat, type=1))
    assert report.start == "hopf_cole"


# ------------------------------------------------- Hopf-Cole eigen start


@pytest.mark.parametrize("n,l,p", [(128, 50.0, 0.8), (128, 25.0, 1.5)])
def test_eigenvalue_matches_locked_omega(n, l, p):
    # w = exp(-b phi): the principal eigenvalue of Lap + b eps g over b is the
    # frequency the stepper locks to from rest at the fixed step
    cfg = SimulationConfig(GridSpec2D(n, l), dt=0.5, b=1.0, t_max=2000.0,
                           steady_tol=COMPARED_TOL,
                           defect=InhomogeneitySpec(1.5, p, strength=1.0))
    start = _hopf_cole_start(cfg)
    omega = start.start_omega
    cold = _zero_start(cfg)
    warm = _relax(cfg, start.uhat)
    assert cold.converged and warm.converged
    assert omega == pytest.approx(cold.omega_drift, rel=1e-4)
    assert warm.omega_drift == pytest.approx(cold.omega_drift, rel=1e-4)
    assert warm.steps < cold.steps


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("p", [0.8, 1.5])
def test_eigenpair_matches_arpack(n, p):
    # an independent solver on the same operator: ARPACK's Lanczos on
    # B = -Lap - b eps g over the full grid, smallest algebraic eigenvalue,
    # no preconditioner
    cfg = SimulationConfig(GridSpec2D(n, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(1.5, p, strength=1.0))
    pot = cfg.b * cfg.defect.strength * _defect_field(cfg.grid, cfg.defect)
    kx = 2.0 * np.pi * np.fft.fftfreq(n, d=50.0 / n)
    minus_ksq = -(kx[:, None] ** 2 + kx[None, : n // 2 + 1] ** 2)

    def apply_b(x):
        u = x.reshape(n, n)
        return (-np.fft.irfft2(minus_ksq * np.fft.rfft2(u), s=(n, n)) - pot * u).ravel()

    lam, vec = eigsh(LinearOperator((n * n, n * n), matvec=apply_b, dtype=float),
                     k=1, which="SA", v0=np.ones(n * n))
    oracle = vec[:, 0].reshape(n, n) * np.sign(np.sum(vec))
    w, omega, _ = _hopf_cole_eigen(cfg)
    assert -omega * cfg.b == pytest.approx(lam[0], rel=1e-11)
    assert np.max(np.abs(_mirror(w) - oracle / np.max(oracle))) <= 1e-8


def test_eigen_solve_takes_few_iterations_on_the_figure1_presets():
    # the Ritz-shifted preconditioner (|k|^2 - lam)^-1: 8-10 iterations per
    # figure-1 member at N=256, where the fixed shift sigma took 14-28, and
    # 8-15 per figure-2 member (A = 1.5, eps = 1), the most at p = 0.3
    mass, _ = branch_mass(1.0, 0.8)
    presets = [(InhomogeneitySpec(1.0, 0.8, strength=a / mass), 12) for a in FIG1_A_VALUES]
    presets += [(InhomogeneitySpec(1.5, p, strength=1.0), 18) for p in FIG2_P_GRID]
    for defect, bound in presets:
        cfg = SimulationConfig(GridSpec2D(256, 100.0), dt=0.5, b=1.0, defect=defect)
        w, _, iterations = _hopf_cole_eigen(cfg)
        assert w is not None and iterations <= bound, defect


# ------------------------------------------------- the eigen start's arrays
# _hopf_cole_eigen and _matched_phi work in place on the arrays they allocate.
# These are the same functions as plain expressions, each a new array: the
# in-place ones must give the same bits and hold fewer quadrants at once.


def _expression_hopf_cole_eigen(config):
    g, ghat = spectral._bare_defect(config.grid, config.defect.amplitude,
                                    config.defect.decay_exponent)
    pot = config.b * config.defect.strength * g
    sigma = 0.5 * float(np.max(pot))
    if not 0.0 < sigma * sigma < math.inf:
        return None, None, None
    geo = geometry(config.grid)
    ksq = -geo.minus_ksq
    weight = geo.weight.ravel()

    def dot(u, v):
        return float(np.einsum("i,i,i->", u.ravel(), v.ravel(), weight))

    def apply_b(x):
        return ksq * x - scipy.fft.dctn(pot * scipy.fft.idctn(x, type=1), type=1)

    with np.errstate(all="ignore"):
        x = ghat / math.sqrt(dot(ghat, ghat))
        bx = apply_b(x)
        p = bp = None
        best = [math.inf] * EIGEN_STALL_STEPS
        for step in range(EIGEN_MAXITER + 1):
            lam = dot(x, bx)
            r = bx - lam * x
            residual = math.sqrt(dot(r, r))
            if residual <= spectral.EIGEN_TOL:
                break
            best.append(min(best[-1], residual))
            if step == EIGEN_MAXITER or best[-1] > 0.5 * best[-1 - EIGEN_STALL_STEPS]:
                return None, None, step + 1
            w = r / (ksq - lam if lam < 0.0 else ksq + sigma)
            basis, images = [x], [bx]
            for v, bv in ((p, bp), (w, None)):
                if v is None:
                    continue
                for _ in range(2):
                    for s, bs in zip(basis, images):
                        c = dot(s, v)
                        v = v - c * s
                        if bv is not None:
                            bv = bv - c * bs
                norm = math.sqrt(dot(v, v))
                if bv is None or norm > 0.0:
                    basis.append(v / norm)
                    images.append(apply_b(basis[-1]) if bv is None else bv / norm)
            gram = np.array([[dot(s, bs) for bs in images] for s in basis])
            if not np.all(np.isfinite(gram)):
                return None, None, step + 2
            c = np.linalg.eigh(0.5 * (gram + gram.T))[1][:, 0]
            p = sum(cj * s for cj, s in zip(c[1:], basis[1:]))
            bp = sum(cj * bs for cj, bs in zip(c[1:], images[1:]))
            x, bx = c[0] * x + p, c[0] * bx + bp
    vec = scipy.fft.idctn(x, type=1)
    w = vec * np.sign(np.sum(vec))
    peak = float(np.max(w))
    if not peak > 0.0:
        return None, None, step + 1
    return w / peak, -lam / config.b, step + 1


def _expression_matched_phi(config, w, omega):
    grid, b = config.grid, config.b
    floor = max(1e-7, 100.0 * max(0.0, -float(np.min(w))))
    trusted = w >= 10.0 * floor
    near = -np.log(np.maximum(w, 10.0 * floor)) / b
    if np.all(trusted):
        return near
    geo = geometry(grid)
    r = geo.radius
    r_f = float(np.min(r[~trusted]))

    def slope(t):
        return np.sqrt(np.maximum(omega - evaluate_g(config.defect, t), 0.0) / b) + 0.5 / (b * t)

    weight = geo.weight * (trusted & (np.abs(r - r_f) <= grid.dx))
    phibar = float(np.sum(weight * (near + slope(r_f) * (r_f - r))) / np.sum(weight))
    s = np.linspace(r_f, math.hypot(grid.l, grid.l), 2 * grid.n + 1)
    big_f = spectral.cumulative_integral(slope, s)
    d, e = geo.offset, grid.l + geo.offset
    f0 = np.interp(r, s, big_f)
    f1, f3 = (np.interp(np.hypot(ex[:, None], ey[None, :]), s, big_f)
              for ex, ey in ((d, e), (e, e)))
    side, corner = (np.exp(-b * (fi - f0)) for fi in (f1, f3))
    far = phibar + f0 - np.log(1.0 + side + side.T + corner) / b
    return np.where(trusted, near, far)


@pytest.mark.parametrize("amplitude,p,eps", [(1.0, 0.8, 2.0), (3.0, 1.5, 1.0)])
def test_in_place_eigen_start_gives_the_expressions_bits(amplitude, p, eps):
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(amplitude, p, strength=eps))
    w, omega, iterations = _hopf_cole_eigen(cfg)
    expect_w, expect_omega, expect_iterations = _expression_hopf_cole_eigen(cfg)
    assert _same_bits(w, expect_w)
    assert (omega, iterations) == (expect_omega, expect_iterations)
    assert iterations > 2  # Ritz updates on span{x, w, p}
    assert np.min(w) < 10.0 * _noise_floor(w)  # the far branch runs
    kept = w.copy()
    assert _same_bits(_matched_phi(cfg, w, omega), _expression_matched_phi(cfg, w, omega))
    assert _same_bits(w, kept)  # the caller's w is read, never written


def test_eigen_start_holds_few_quadrants_at_once():
    # on figure 1's a = 1.05 member at N = 256, whose w reaches its noise
    # floor inside the box, the plain expressions above hold 17.04
    # quadrant-sized arrays at once (in the eigen solve), results included;
    # the in-place eigen start holds 9.04
    mass, _ = branch_mass(1.0, 0.8)
    cfg = SimulationConfig(GridSpec2D(256, 100.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(1.0, 0.8, strength=1.05 / mass))
    start = _hopf_cole_start(cfg)  # fills the geometry, bare defect and transform caches
    assert start.start == "hopf_cole"
    _, peak = peak_in_units(start.uhat.nbytes, _hopf_cole_start, cfg)
    assert peak <= 10.0


@pytest.mark.parametrize("a,pin", [(0.2, -1.1255), (0.1, -1.2000)])
def test_plane_oracle_pins_the_p15_wavenumbers(a, pin):
    # A = 1, p = 1.5 has unit mass, so a = b eps; kappa0 is the a -> 0 limit
    # log kappa + 1/a -> -gamma - log 2 of the matched expansion
    kappa0 = math.exp(-EULER_GAMMA - math.log(2.0) - 1.0 / a)
    kappa = plane_kappa(InhomogeneitySpec(1.0, 1.5, strength=a), 1.0, kappa0)
    assert math.log(kappa) + 1.0 / a == pytest.approx(pin, abs=1e-4)


def test_eigen_start_matches_the_plane_on_the_figure1_presets():
    # Omega = kappa^2/b on the plane.  The N=256 box's eigenvalue is off by
    # its grid term (+1.7e-7 to +5.4e-7 measured) where kappa L >= 22.6
    # (a >= 0.75), and at a = 0.45 (kappa L = 12.8) also by the overlap of
    # the defect's images, +1.98e-5 measured against 2.07e-5 from
    # 2 pi c^2 sum_j K0(kappa R_j) / (kappa^2 ||w||^2) over the eight
    # nearest images
    mass, _ = branch_mass(1.0, 0.8)
    for a in FIG1_A_VALUES:
        defect = InhomogeneitySpec(1.0, 0.8, strength=a / mass)
        cfg = SimulationConfig(GridSpec2D(256, 100.0), dt=0.5, b=1.0, defect=defect)
        omega = _hopf_cole_eigen(cfg)[1]
        gap = omega * cfg.b / plane_kappa(defect, cfg.b, 0.3) ** 2 - 1.0
        assert abs(gap) <= (3e-5 if a < 0.5 else 1e-6), a


# ------------------------------------------- the Rayleigh-quotient frequency


def _figure1_config(a, **kw):
    mass, _ = branch_mass(1.0, 0.8)
    return SimulationConfig(GridSpec2D(256, 100.0), dt=0.5, b=1.0,
                            defect=InhomogeneitySpec(1.0, 0.8, strength=a / mass), **kw)


@pytest.mark.parametrize("n,p", [(64, 0.8), (128, 1.5)])
def test_rayleigh_omega_is_the_full_grid_quotient(n, p):
    # the same quotient on every cell of the periodic grid, -Lap by rfft2 and
    # g evaluated afresh, with no DCT, mirror weight or Parseval sum
    cfg = SimulationConfig(GridSpec2D(n, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(1.5, p, strength=1.0))
    phi, report = run_to_steady(cfg)
    field = _mirror(phi)
    w = np.exp(-cfg.b * (field - np.min(field)))
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=cfg.grid.dx)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    x = cfg.grid.axes() - 0.5 * cfg.grid.l
    g = evaluate_g(cfg.defect, np.hypot(x[:, None], x[None, :]))
    bw = np.fft.irfft2(ksq[:, : n // 2 + 1] * np.fft.rfft2(w), s=(n, n))
    bw -= cfg.b * cfg.defect.strength * g * w
    oracle = -np.sum(w * bw) / (cfg.b * np.sum(w * w))
    assert report.omega_rq == pytest.approx(oracle, rel=1e-12)
    assert report.as_dict()["omega_rq"] == report.omega_rq


def test_rayleigh_omega_holds_one_quadrant():
    # w and its spectrum share one array; the quotient as plain expressions
    # held 4.0 quadrants at its peak (N = 512)
    cfg = SimulationConfig(GridSpec2D(512, 100.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(1.0, 0.8, strength=1.0))
    phi = scipy.fft.idctn(_hopf_cole_start(cfg).uhat, type=1)
    spectral._rayleigh_omega(cfg, phi)  # fills the bare defect and the transform's plan
    _, peak = peak_in_units(phi.nbytes, spectral._rayleigh_omega, cfg, phi)
    assert peak <= 1.5


def test_rayleigh_omega_does_not_move_with_the_steady_test():
    # its error is second order in the state's: the default steady test,
    # 10x looser, moves it by 1.9e-11 at most (measured) and k by 1.2e-4,
    # in 23 steps against 74
    steps = []
    for a in FIG1_A_VALUES:
        _, loose = run_to_steady(_figure1_config(a))
        _, tight = run_to_steady(_figure1_config(a, steady_tol=COMPARED_TOL))
        assert loose.converged and tight.converged
        assert abs(loose.omega_rq / tight.omega_rq - 1.0) <= 1e-9, a
        assert loose.k_measured == pytest.approx(tight.k_measured, rel=2e-4), a
        steps.append((loose.steps, tight.steps))
    assert sum(s for s, _ in steps) < sum(s for _, s in steps)


@pytest.mark.parametrize("a", [0.75, 1.05, 2.85])
def test_rayleigh_omega_matches_the_plane(a):
    # kappa L >= 22.6: the box's images do not reach the disk, and Omega_RQ
    # is off kappa^2 by the N=256 grid term alone (+1.7e-7 to +5.3e-7
    # measured), where omega_drift of the same run is off by up to 1.06e-4
    cfg = _figure1_config(a)
    _, report = run_to_steady(cfg)
    kappa = plane_kappa(cfg.defect, cfg.b, 0.3)
    assert report.converged
    assert abs(report.omega_rq * cfg.b / kappa**2 - 1.0) <= 1e-6


@pytest.mark.parametrize("amplitude,p", [(1e300, 1.5)])
def test_eigen_start_stays_at_rest(amplitude, p):
    # A = 1e300 overflows the operator
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(amplitude, p, strength=1.0))
    start = _hopf_cole_start(cfg)
    assert start.start_omega is None and _hopf_cole_start(cfg).eigen_iterations is None
    assert start.uhat.shape == (33, 33) and not np.any(start.uhat)


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_subcritical_runs_start_from_their_eigenstate(p):
    # p <= 1/2 lies outside the paper's theorem, but the model still binds
    # and locks there: the eigen start reaches the state the fixed step
    # reaches from rest
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0, t_max=2000.0,
                           defect=InhomogeneitySpec(1.5, p, strength=1.0))
    start = _warm_start(cfg)
    assert start.start == "hopf_cole" and start.eigen_iterations > 0
    run = _relax(cfg, start.uhat)
    fixed = _zero_start(cfg)
    assert run.converged and fixed.converged
    assert run.omega_drift == pytest.approx(fixed.omega_drift, rel=1e-4)
    assert run.steps < fixed.steps


@pytest.mark.parametrize("amplitude,at_rest", [(1.5, False), (1e150, True)])
def test_eigen_solve_leaks_no_warning(amplitude, at_rest):
    # A = 1e150 is finite but leaves the eigen solve short of its tolerance;
    # the start then stays at rest, silently
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(amplitude, 0.8, strength=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega = _hopf_cole_start(cfg).start_omega
    assert (omega is None) == at_rest


def test_unconverged_eigen_solve_records_its_iterations(monkeypatch):
    # A = 1e150 leaves the solve short of its tolerance: its best ||r|| stops
    # halving, and the stall rule ends it well before EIGEN_MAXITER steps
    # (36 iterations measured).  The run starts from rest, and its record
    # shows the iterations spent, where a zero-strength run, which solves
    # nothing, shows null
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(1e150, 0.8, strength=1.0))
    start = _warm_start(cfg)
    assert (start.start, start.start_omega) == ("rest", None) and not np.any(start.uhat)
    assert EIGEN_STALL_STEPS < start.eigen_iterations <= EIGEN_MAXITER
    # run_to_steady forwards the start by field name; this run blows up at
    # step 1, so a calm one carries the record to its report
    monkeypatch.setattr(spectral, "_warm_start", lambda config: start)
    _, report = run_to_steady(_locked_config(64, 50.0))
    assert report.as_dict()["eigen_iterations"] == start.eigen_iterations
    assert (report.start, report.start_omega, report.coarse_steps) == ("rest", None, 0)


def _noise_floor(w):
    """The eigenvector's noise floor, set as _matched_phi sets it."""
    return max(1e-7, 100.0 * max(0.0, -float(np.min(w))))


def _floor_start(cfg):
    """The eigen start without its far field: -log(max(w, 0) + floor)/b."""
    w = _mirror(_hopf_cole_eigen(cfg)[0])
    return to_spectrum(-np.log(np.maximum(w, 0.0) + _noise_floor(w)) / cfg.b)


@pytest.mark.parametrize("amplitude,p,eps", [(1.0, 0.8, 2.0), (3.0, 1.5, 1.0)])
def test_far_field_match_locks_in_fewer_steps(amplitude, p, eps):
    # w reaches its noise floor inside the box; the floor-only start is flat
    # beyond it, and the ladder must walk the front out to the disk edge
    cfg = SimulationConfig(GridSpec2D(128, 50.0), dt=0.5, b=1.0, t_max=2000.0,
                           steady_tol=COMPARED_TOL,
                           defect=InhomogeneitySpec(amplitude, p, strength=eps))
    w, omega, _ = _hopf_cole_eigen(cfg)
    assert np.min(w) < 10.0 * _noise_floor(w)
    hopf_cole = _hopf_cole_start(cfg)
    start = hopf_cole.uhat
    assert hopf_cole.start_omega == omega
    assert np.array_equal(start, to_spectrum(_mirror(_matched_phi(cfg, w, omega))))
    floor_start = _floor_start(cfg)
    fixed = _constant_dt_loop(cfg, floor_start)
    floor = _relax(cfg, floor_start)
    matched = _relax(cfg, start)
    assert fixed.converged and floor.converged and matched.converged
    assert matched.omega_drift == pytest.approx(fixed.omega_drift, rel=1e-5)
    assert _k(cfg, matched) == pytest.approx(_k(cfg, fixed), rel=1e-5)
    assert matched.steps < floor.steps


@pytest.mark.parametrize("amplitude,p,eps", [(1.0, 0.8, 2.0), (3.0, 1.5, 1.0)])
def test_far_field_match_keeps_log_w_where_w_is_trusted(amplitude, p, eps):
    cfg = SimulationConfig(GridSpec2D(128, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(amplitude, p, strength=eps))
    w, omega, _ = _hopf_cole_eigen(cfg)
    phi0 = _mirror(_matched_phi(cfg, w, omega))
    w = _mirror(w)
    trusted = w >= 10.0 * _noise_floor(w)
    assert np.array_equal(phi0[trusted], -np.log(w[trusted]) / cfg.b)
    # beyond the cut phi0 keeps rising with r, at about the far-field slope
    # sqrt(Omega/b) along the x axis (g is below 1e-2 of Omega out there)
    r = _mirror(geometry(cfg.grid).radius)
    row = r[:, 64]
    far = ~trusted[:, 64] & (np.arange(128) >= 64)
    slope = np.diff(phi0[far, 64]) / np.diff(row[far])
    assert np.all(np.isfinite(phi0)) and np.all(slope > 0.0)
    assert np.median(slope) == pytest.approx(math.sqrt(omega / cfg.b), rel=0.1)


def test_weak_defect_gets_no_far_field_continuation():
    # a weak defect's w stays far above its noise over the whole box
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(1.0, 0.8, strength=0.5))
    w, omega, _ = _hopf_cole_eigen(cfg)
    assert np.min(w) >= 10.0 * _noise_floor(w)
    assert np.array_equal(_matched_phi(cfg, w, omega), -np.log(w) / cfg.b)


def _radial_only_phi(cfg, w, omega):
    """The matched start before the image sum: the far branch is the plane's
    radial asymptote, started from the plain mean of the trusted cells within
    one dx of r_f (the reference the periodic far field must beat)."""
    grid, b = cfg.grid, cfg.b
    floor = _noise_floor(w)
    trusted = w >= 10.0 * floor
    near = -np.log(np.maximum(w, 10.0 * floor)) / b
    geo = geometry(grid)
    r = geo.radius
    r_f = float(np.min(r[~trusted]))
    weight = geo.weight * (trusted & (np.abs(r - r_f) <= grid.dx))
    phibar = float(np.sum(weight * near) / np.sum(weight))
    s = np.linspace(r_f, np.max(r), grid.n + 1)
    slope = np.sqrt(np.maximum(omega - evaluate_g(cfg.defect, s), 0.0) / b) + 0.5 / (b * s)
    far = phibar + np.interp(r, s, cumulative_trapezoid(slope, s, initial=0.0))
    return np.where(trusted, near, far)


# the strong members whose w reaches its noise floor well inside the box
_FAR_CASES = [(1.0, 0.8, 2.0), (3.0, 1.5, 1.0)]


def _far_config(amplitude, p, eps):
    return SimulationConfig(GridSpec2D(128, 50.0), dt=0.5, b=1.0, t_max=2000.0,
                            defect=InhomogeneitySpec(amplitude, p, strength=eps))


@pytest.mark.parametrize("amplitude,p,eps", _FAR_CASES)
def test_matched_start_is_flat_across_the_box_edge(amplitude, p, eps):
    # the waves of neighbouring images meet on the box edge, where the
    # locked state is even: the quadrant's edge row (x = L/2) and the row
    # inside it differ by about kappa^2 dx/(2b), not the radial kappa dx/b
    cfg = _far_config(amplitude, p, eps)
    w, omega, _ = _hopf_cole_eigen(cfg)
    assert not np.any(w[0] >= 10.0 * _noise_floor(w))  # the edge row is untrusted
    kappa_b = math.sqrt(omega / cfg.b)  # kappa/b with kappa^2 = b Omega
    for phi0, low, high in ((_matched_phi(cfg, w, omega), 0.0, 0.2),
                            (_radial_only_phi(cfg, w, omega), 0.9, 1.1)):
        edge = (phi0[0] - phi0[1]) / cfg.grid.dx
        assert low * kappa_b <= np.max(np.abs(edge)) <= high * kappa_b


@pytest.mark.parametrize("amplitude,p,eps", _FAR_CASES)
def test_matched_start_has_no_jump_at_r_f(amplitude, p, eps):
    # carried to r_f along the far-field slope q(r_f), the far branch's cells
    # within one dx outside r_f meet the trusted band's within one dx inside;
    # the radial-only branch, started from the band's plain mean, is about
    # q dx/2 = 0.16 low
    cfg = _far_config(amplitude, p, eps)
    w, omega, _ = _hopf_cole_eigen(cfg)
    trusted = w >= 10.0 * _noise_floor(w)
    r, dx = geometry(cfg.grid).radius, cfg.grid.dx
    r_f = float(np.min(r[~trusted]))
    q_f = math.sqrt(omega - evaluate_g(cfg.defect, r_f)) + 0.5 / r_f  # b = 1
    inner = trusted & (r_f - r <= dx)
    outer = ~trusted & (r - r_f <= dx)
    for phi0, low, high in ((_matched_phi(cfg, w, omega), -0.01, 0.01),
                            (_radial_only_phi(cfg, w, omega), -0.2, -0.12)):
        carried = phi0 + q_f * (r_f - r)
        jump = np.mean(carried[outer]) - np.mean(carried[inner])
        assert low <= jump <= high


@pytest.mark.parametrize("amplitude,p,eps", _FAR_CASES)
def test_periodic_far_field_locks_in_fewer_steps(amplitude, p, eps):
    cfg = _far_config(amplitude, p, eps)
    w, omega, _ = _hopf_cole_eigen(cfg)
    radial = _relax(cfg, scipy.fft.dctn(_radial_only_phi(cfg, w, omega), type=1))
    matched = _relax(cfg, _hopf_cole_start(cfg).uhat)
    assert radial.converged and matched.converged
    assert matched.steps < radial.steps
    assert _k(cfg, matched) == pytest.approx(_k(cfg, radial), rel=1e-4)
    assert matched.omega_drift == pytest.approx(radial.omega_drift, rel=1e-4)


# ------------------------------------------------- dt ladder (SER)


def _constant_dt_loop(cfg, uhat, check_interval=20):
    """Reference relaxation of the quadrant spectrum uhat: step at cfg.dt,
    check on the full grid after step 1, every check_interval steps and at
    t_max; returns uhat, steps, t_final, omega_drift and converged as _relax
    names them.  A non-finite field fails the test."""
    grid, b, eps = cfg.grid, cfg.b, cfg.defect.strength
    plan = make_plan(grid, cfg.dt)
    ghat = to_spectrum(_defect_field(grid, cfg.defect))
    disk = _mirror(geometry(grid).radius) <= 0.45 * grid.l
    n_max = math.ceil(cfg.t_max / cfg.dt)
    converged, omega = False, math.nan
    n0 = _nonlinear_hat(uhat, plan, b, eps, ghat)
    for step in range(1, n_max + 1):
        uhat = _step_hat(uhat, plan, b, eps, ghat, n0)
        n0 = _nonlinear_hat(uhat, plan, b, eps, ghat)
        if step == 1 or step % check_interval == 0 or step == n_max:
            sel = to_field(full_rhs_hat(uhat, plan, n0))[disk]
            assert np.all(np.isfinite(sel)), f"non-finite field after step {step}"
            omega = -float(np.mean(sel))
            if np.max(np.abs(sel + omega)) < cfg.steady_tol:
                converged = True
                break
    return SimpleNamespace(uhat=uhat, steps=step, t_final=step * cfg.dt,
                           omega_drift=omega, converged=converged)


@pytest.mark.parametrize("amplitude,eps", [(0.0, 1.0), (1.5, 0.0)])
def test_zero_strength_runs_start_from_rest(amplitude, eps):
    # no defect, no eigen solve: phi = 0 is already the locked state, and
    # the ladder takes its one step at dt
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0, t_max=2000.0,
                           defect=InhomogeneitySpec(amplitude, 1.5, strength=eps))
    phi, report = run_to_steady(cfg)
    assert (report.start, report.start_omega, report.coarse_steps) == ("rest", None, 0)
    assert report.converged and report.steps == 1 and not np.any(phi)
    assert (report.dt_steps, report.dt_rejections, report.t_final) == (
        [[cfg.dt, 1]], 0, cfg.dt)
    record = report.as_dict()
    assert record["start_residual"] == 0.0 and record["eigen_iterations"] is None


def test_rest_start_locks_on_the_ladder():
    # a start from rest takes the same SER ladder as a warm one and locks to
    # the fixed step's state
    cfg = _locked_config(64, 50.0)
    fixed = _zero_start(cfg)
    ladder = _relax(cfg, np.zeros((33, 33)))
    assert fixed.converged and ladder.converged
    assert ladder.steps < fixed.steps
    assert max(dt for dt, _ in ladder.dt_steps) == 2**LADDER_TOP * cfg.dt
    assert _k(cfg, ladder) == pytest.approx(_k(cfg, fixed), rel=1e-5)
    assert ladder.omega_drift == pytest.approx(fixed.omega_drift, rel=1e-5)
    assert ladder.start_residual > cfg.steady_tol


@pytest.mark.parametrize("l,p", [(50.0, 0.8), (50.0, 1.5)])
def test_ser_ladder_locks_to_the_fixed_step_state(l, p):
    # from the start without its far field, which the ladder must walk out
    cfg = SimulationConfig(GridSpec2D(128, l), dt=0.5, b=1.0, t_max=2000.0,
                           steady_tol=COMPARED_TOL,
                           defect=InhomogeneitySpec(1.5, p, strength=1.0))
    start = _floor_start(cfg)
    fixed = _constant_dt_loop(cfg, start)
    ser = _relax(cfg, start)
    assert fixed.converged and ser.converged
    assert ser.steps < fixed.steps
    assert _k(cfg, ser) == pytest.approx(_k(cfg, fixed), rel=1e-5)
    assert ser.omega_drift == pytest.approx(fixed.omega_drift, rel=1e-5)
    assert max(dt for dt, _ in ser.dt_steps) == 2**LADDER_TOP * cfg.dt  # the ceiling is reached
    assert sum(n for _, n in ser.dt_steps) == ser.steps
    assert ser.t_final == sum(dt * n for dt, n in ser.dt_steps)


@pytest.mark.parametrize("amplitude,p,dt", [(2.5, 0.8, 1.5), (3.0, 1.5, 2.0)])
def test_marginal_dt_runs_out_its_time_on_the_ladder(amplitude, p, dt):
    # neither locks at its own dt; from the start without its far field the
    # ladder ended in a blow-up at dt (t = 85.5 and 68), from the matched
    # start it runs out the time as the fixed step does
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=dt, b=1.0, t_max=200.0,
                           defect=InhomogeneitySpec(amplitude, p, strength=1.0))
    start = _hopf_cole_start(cfg).uhat
    fixed = _constant_dt_loop(cfg, start)
    ladder = _relax(cfg, start)
    assert not fixed.converged and not ladder.converged
    assert ladder.t_final == fixed.t_final == math.ceil(cfg.t_max / dt) * dt
    assert ladder.dt_rejections == 0


def _failing_steps(monkeypatch, fails):
    """Make _step_hat return NaN wherever fails(plan.dt) holds."""
    real = spectral._step_hat

    def step(uhat, plan, *args):
        out = real(uhat, plan, *args)
        return np.full_like(out, np.nan) if fails(plan.dt) else out

    monkeypatch.setattr(spectral, "_step_hat", step)


def test_blow_up_on_the_top_level_rolls_back(monkeypatch):
    # a blow-up above dt is dropped: the last accepted state is kept and the
    # level and ceiling come down, so the run still locks to the same state
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0, t_max=2000.0,
                           steady_tol=COMPARED_TOL,
                           defect=InhomogeneitySpec(1.5, 0.8, strength=1.0))
    start = _hopf_cole_start(cfg).uhat
    clean = _relax(cfg, start)
    _failing_steps(monkeypatch, lambda dt: dt == 2**LADDER_TOP * cfg.dt)
    rolled = _relax(cfg, start)
    assert rolled.converged and rolled.dt_rejections == 1
    assert max(dt for dt, _ in rolled.dt_steps) == 2**(LADDER_TOP - 1) * cfg.dt
    assert rolled.t_final == sum(dt * n for dt, n in rolled.dt_steps)
    assert _k(cfg, rolled) == pytest.approx(_k(cfg, clean), rel=1e-5)
    assert rolled.omega_drift == pytest.approx(clean.omega_drift, rel=1e-5)


def test_blow_up_at_the_base_step_reports_where(monkeypatch):
    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0, t_max=2000.0,
                           defect=InhomogeneitySpec(1.5, 0.8, strength=1.0))
    start = _hopf_cole_start(cfg).uhat
    _failing_steps(monkeypatch, lambda dt: True)
    with pytest.raises(BlowUpError) as info:
        _relax(cfg, start)
    assert (info.value.step_index, info.value.t) == (1, cfg.dt)
    # on the ladder the start's residual is taken before step 1
    assert info.value.residual > cfg.steady_tol
