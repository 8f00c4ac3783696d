"""Radial machinery: grids, quadrature, corrector, L_lambda, far field, shooting."""
import gc
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from eikolab import radial
from eikolab.errors import (
    ConfigError,
    DomainError,
    NonContractionError,
    NumericalError,
    RangeError,
)
from eikolab.profiles import CutoffSpec, InhomogeneitySpec, evaluate_g, smooth_cutoff
from eikolab.radial import (
    FarFieldAnsatz,
    RadialGrid,
    RadialProfile,
    _phi0_terms,
    _source,
    apply_inverse_L_lambda,
    cumulative_integral,
    far_field_phi0_grad,
    fd_derivative,
    hopf_cole_residual,
    radial_laplacian_fd,
    shoot_spiral_amplitude,
    solve_corrector_K,
    solve_far_field_correction,
)
from eikolab.specfun import bessel_k0, bessel_k0_scaled, log_k0_ratio


# ------------------------------------------------------------------ grids


def test_grid_validation():
    with pytest.raises(ConfigError):
        RadialGrid(np.array([0.0]))
    with pytest.raises(ConfigError):
        RadialGrid(np.array([-0.1, 1.0]))
    with pytest.raises(ConfigError):
        RadialGrid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ConfigError):
        RadialGrid(np.array([0.0, np.inf]))
    g = RadialGrid.uniform(10.0, 101)
    assert g.has_origin and g.r_max == 10.0
    w = RadialGrid(np.linspace(2.0, 5.0, 31))
    assert not w.has_origin


def test_profile_validation():
    g = RadialGrid.uniform(1.0, 11)
    with pytest.raises(ConfigError):
        RadialProfile(g, np.zeros(5))
    with pytest.raises(ConfigError):
        RadialProfile(g, np.full(11, np.nan))


# --------------------------------------------------------------- quadrature


def test_cumulative_integral_polynomial():
    nodes = np.linspace(0.0, 3.0, 61)
    vals = cumulative_integral(lambda t: 3.0 * t * t, nodes)
    assert np.max(np.abs(vals - nodes**3)) < 1e-12


def test_fd_derivative_trig():
    nodes = np.linspace(0.0, 2.0, 201)
    d = fd_derivative(nodes, np.sin(nodes), 1)
    assert np.max(np.abs(d - np.cos(nodes))) < 1e-9


def test_radial_laplacian_on_powers():
    nodes = np.linspace(0.1, 2.0, 191)
    # Laplacian_0 r^2 = 4, Laplacian_0 r^4 = 16 r^2
    lap2 = radial_laplacian_fd(nodes, nodes**2)
    assert np.max(np.abs(lap2 - 4.0)) < 1e-8
    lap4 = radial_laplacian_fd(nodes, nodes**4)
    assert np.max(np.abs(lap4 - 16.0 * nodes**2)) < 1e-7


_SEEDED = np.concatenate(([0.0], np.cumsum(np.random.default_rng(17).uniform(0.01, 0.09, 400))))


@pytest.mark.parametrize("nodes", [np.linspace(0.0, 20.0, 401), _SEEDED],
                         ids=["uniform", "nonuniform"])
def test_panel_node_evaluation_matches_the_spline(nodes):
    # the fixed offset-power table gives what CubicSpline's searched
    # evaluation gives at the panel nodes, for the value, the first
    # derivative and the antiderivative, and at the breakpoints
    spl = CubicSpline(nodes, np.sin(nodes) + nodes / (1.0 + nodes))
    anti = spl.antiderivative()
    xs, _ = radial._panel_nodes(nodes[:-1], nodes[1:])
    for pp, expect in ((spl, spl(xs)), (spl.derivative(), spl(xs, 1)), (anti, anti(xs))):
        got = radial._at_panel_nodes(pp)
        assert got.shape == xs.shape
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))
        at_nodes = pp(nodes)
        got = radial._at_breakpoints(pp)
        assert np.max(np.abs(got - at_nodes)) <= 1e-14 * np.max(np.abs(at_nodes))


def test_fd_weights_cached_bitwise_and_read_only():
    nodes = np.geomspace(0.5, 30.0, 301)
    idx = radial._stencils(nodes.size)
    for order in (1, 2):
        cached = radial._stencil_weights(nodes.tobytes(), order)
        direct = radial.fd_weights(nodes[idx], nodes, order)
        assert np.array_equal(cached.view(np.int64), direct.view(np.int64))
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0
        vals = np.cos(nodes)
        expect = np.sum(direct * vals[idx], axis=1)
        assert np.array_equal(fd_derivative(nodes, vals, order), expect)


def test_fd_weights_cache_is_bounded_and_keyed_by_node_values():
    radial._stencil_weights.cache_clear()
    bound = radial._stencil_weights.cache_info().maxsize
    grids = [np.linspace(0.0, 1.0 + k, 101) for k in range(bound + 3)]
    for nodes in grids:
        # same length, different node values: each grid gets its own weights
        assert np.max(np.abs(fd_derivative(nodes, nodes**2, 1) - 2.0 * nodes)) < 1e-10
    info = radial._stencil_weights.cache_info()
    assert info.misses == len(grids) and info.hits == 0
    assert info.currsize == bound
    # a copy of a cached grid's nodes finds its entry
    fd_derivative(grids[-1].copy(), grids[-1], 1)
    assert radial._stencil_weights.cache_info().hits == 1


# ---------------------------------------------------------------- corrector


def test_corrector_exact_c1_source():
    # g_far = (s-1)^2 s^-6 on [1, inf), C^1 at the junction with the node at 1:
    # m(s) = F(s) + 1/12 with F = -s^-2/2 + 2s^-3/3 - s^-4/4, and
    # K(r) = -b (G(r) - 13/144 + log(r)/12), G = s^-2/4 - 2s^-3/9 + s^-4/16
    grid = RadialGrid(np.linspace(0.0, 40.0, 4001))

    def src(s):
        s = np.asarray(s, dtype=float)
        return np.where(s >= 1.0, (s - 1.0) ** 2 * s**-6.0, 0.0)

    for b in (1.0, 2.5):
        prof = solve_corrector_K(src, b=b, grid=grid)
        r = grid.nodes[grid.nodes >= 1.0]
        g_of = r**-2.0 / 4.0 - 2.0 * r**-3.0 / 9.0 + r**-4.0 / 16.0
        exact = -b * (g_of - 13.0 / 144.0 + np.log(r) / 12.0)
        got = prof.values[grid.nodes >= 1.0]
        assert np.max(np.abs(got - exact)) < 1e-13


def test_corrector_exact_log_squared_tail():
    # g_far = s^-2 on [1, inf) with a node at 1: m(r) = log r and
    # n(r) = (log r)^2 / 2, so K = -(log r)^2 / 2 outside and 0 inside
    grid = RadialGrid.uniform(220.0, 8801)

    def tail(s):
        s = np.asarray(s, dtype=float)
        return np.where(s >= 1.0, 1.0 / np.maximum(s, 1.0) ** 2, 0.0)

    prof = solve_corrector_K(tail, b=1.0, grid=grid)
    r = grid.nodes
    outside = r >= 1.0
    assert np.max(np.abs(prof.values[outside] + 0.5 * np.log(r[outside]) ** 2)) <= 1e-12
    assert np.all(prof.values[r <= 1.0] == 0.0)


def test_corrector_gauge_and_inner_behavior():
    grid = RadialGrid(np.linspace(0.0, 30.0, 3001))
    spec = InhomogeneitySpec(1.0, 1.0)
    chi = CutoffSpec("chi")
    gf = lambda s: smooth_cutoff(chi, np.asarray(s)) * evaluate_g(spec, s)
    prof = solve_corrector_K(gf, b=1.0, grid=grid)
    f = prof.interpolator()
    assert abs(f(1.0)) < 1e-10  # K(1) = 0 gauge
    inner = grid.nodes < 1.0
    assert np.max(np.abs(prof.values[inner])) < 1e-10  # harmonic and bounded inside


def test_corrector_source_support_enforced():
    grid = RadialGrid(np.linspace(0.0, 10.0, 1001))
    bad = RadialProfile(grid, np.ones_like(grid.nodes))
    with pytest.raises(DomainError):
        solve_corrector_K(bad, b=1.0)
    with pytest.raises(ConfigError):
        solve_corrector_K(lambda s: np.zeros_like(np.asarray(s)), b=1.0)  # no grid
    off = RadialGrid(np.linspace(1.0, 10.0, 901))
    with pytest.raises(ConfigError):
        solve_corrector_K(lambda s: np.zeros_like(np.asarray(s)), b=1.0, grid=off)


# ------------------------------------------------------------- L_lam inverse


def test_inverse_l_lambda_constant_source():
    # f = 1: u(r) = ((lam r - 1) + e^{-lam r}) / (lam^2 r) -> 1/lam
    lam = 0.7
    grid = RadialGrid(np.concatenate(([0.0], np.geomspace(1e-3, 60.0, 3000))))
    u = apply_inverse_L_lambda(lambda s: np.ones_like(np.asarray(s)), lam, grid)
    r = grid.nodes[1:]
    exact = ((lam * r - 1.0) + np.exp(-lam * r)) / (lam * lam * r)
    assert np.max(np.abs(u.values[1:] - exact)) < 1e-10


def test_inverse_l_lambda_round_trip():
    # L_lam u = u' + u/r + lam u must reproduce the source away from endpoints
    rng = np.random.default_rng(7)
    grid = RadialGrid(np.linspace(0.0, 20.0, 4001))
    r = grid.nodes
    for _ in range(5):
        c = rng.uniform(-1.0, 1.0, 4)
        f = c[0] + c[1] * np.cos(0.3 * r) + c[2] / (1.0 + r) + c[3] * np.exp(-0.1 * r)
        lam = float(rng.uniform(0.05, 2.0))
        u = apply_inverse_L_lambda(RadialProfile(grid, f), lam)
        du = fd_derivative(r, u.values, 1)
        resid = du[1:] + u.values[1:] / r[1:] + lam * u.values[1:] - f[1:]
        assert np.max(np.abs(resid[10:-10])) < 1e-6


def _forward_loop(panel, decay):
    """Reference for apply_inverse_L_lambda: acc[i] = acc[i-1] decay[i-1] + panel[i-1]."""
    acc = np.zeros(panel.size + 1)
    for i in range(1, acc.size):
        acc[i] = acc[i - 1] * decay[i - 1] + panel[i - 1]
    return acc


def _backward_loop(panel, decay):
    """Reference for the Newton sweep: bb[i] = decay[i] bb[i+1] + panel[i], bb[-1] = 0."""
    bb = np.zeros(panel.size + 1)
    for i in range(panel.size - 1, -1, -1):
        bb[i] = decay[i] * bb[i + 1] + panel[i]
    return bb


_UNIFORM = np.linspace(0.0, 20.0, 4001)
_GRADED = np.concatenate(([0.0], np.geomspace(1e-3, 60.0, 3000)))


@pytest.mark.parametrize("nodes", [_UNIFORM, _GRADED], ids=["uniform", "graded"])
@pytest.mark.parametrize("lam", [0.05, 0.7, 2.0])
def test_forward_scan_matches_the_loop(nodes, lam):
    # the L_lambda recurrence; its exponent lam r spans 1 to 120, so 1 to 4 blocks
    panel = np.random.default_rng(3).normal(size=nodes.size - 1)
    expect = _forward_loop(panel, np.exp(-lam * np.diff(nodes)))
    got = radial._decay_scan(panel, nodes, lam)
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("nodes", [_UNIFORM[1:], _GRADED[1:]], ids=["uniform", "graded"])
@pytest.mark.parametrize("dip", [0.0, 3.0])
def test_backward_scan_matches_the_loop(nodes, dip):
    # the Newton sweep's recurrence with w = 2 b (phi0 + int psi): increasing,
    # or with a dip where psi < 0 makes some factors e^{w_i - w_{i+1}} exceed 1
    w = 1.2 * nodes + np.log(nodes) - dip * np.exp(-((nodes - 10.0) ** 2))
    panel = np.random.default_rng(5).normal(size=nodes.size - 1)
    expect = _backward_loop(panel, np.exp(w[:-1] - w[1:]))
    got = radial._decay_scan(panel[::-1], w[::-1], -1.0)[::-1]
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_scan_spans_many_blocks_without_overflow():
    # lam r_max = 5000: a single block's e^{lam r} overflows, the blocked scan
    # neither overflows nor loses accuracy, in the helper and in L_lambda^{-1}
    lam, nodes = 2.0, np.linspace(0.0, 2500.0, 50001)
    with np.errstate(over="ignore"):
        assert np.exp(lam * nodes[-1]) == np.inf
    panel = np.random.default_rng(11).normal(size=nodes.size - 1)
    expect = _forward_loop(panel, np.exp(-lam * np.diff(nodes)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = radial._decay_scan(panel, nodes, lam)
        u = apply_inverse_L_lambda(lambda s: np.ones_like(np.asarray(s)), lam,
                                   RadialGrid(nodes))
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
    r = nodes[1:]
    exact = ((lam * r - 1.0) + np.exp(-lam * r)) / (lam * lam * r)
    assert np.max(np.abs(u.values[1:] - exact)) < 1e-12


def test_inverse_l_lambda_validation():
    grid = RadialGrid(np.linspace(0.0, 5.0, 501))
    with pytest.raises(DomainError):
        apply_inverse_L_lambda(lambda s: np.asarray(s), 0.0, grid)
    with pytest.raises(ConfigError):
        apply_inverse_L_lambda(lambda s: np.asarray(s), 1.0)  # callable without grid
    off = RadialGrid(np.linspace(1.0, 5.0, 401))
    with pytest.raises(ConfigError):
        apply_inverse_L_lambda(lambda s: np.asarray(s), 1.0, off)


# ----------------------------------------------------------------- far field


def _phi0(ansatz, r):
    return _phi0_terms(ansatz, np.atleast_1d(np.asarray(r, dtype=float)))[0]


def test_phi0_plateau_and_far_value():
    a = FarFieldAnsatz(decay_rate=0.5, b=2.0)
    assert _phi0(a, 0.0) == 0.0
    assert _phi0(a, 1.9) == 0.0  # z = 0.95 < 1
    r = 9.0  # z = 4.5 past the collar
    assert _phi0(a, r)[0] == pytest.approx(-math.log(bessel_k0(0.5 * r)) / 2.0, rel=1e-12)


def test_phi0_grad_matches_difference_quotient():
    a = FarFieldAnsatz(decay_rate=0.8, b=1.0)
    r = np.linspace(1.5, 12.0, 300)
    h = 1e-6
    fd = (_phi0(a, r + h) - _phi0(a, r - h)) / (2 * h)
    assert np.max(np.abs(far_field_phi0_grad(a, r) - fd)) < 1e-6


def test_phi0_grad_limit_from_above():
    # phi0' -> Lambda/b from above: -K0'/K0 = K1/K0 > 1
    a = FarFieldAnsatz(decay_rate=0.5, b=1.0)
    g30 = far_field_phi0_grad(a, 30.0)
    g60 = far_field_phi0_grad(a, 60.0)
    assert g30 > g60 > a.decay_rate / a.b
    assert g60 < 1.1 * a.decay_rate / a.b


def test_far_field_source_structure():
    # S = Laplacian_0 phi0 - b (phi0')^2 + Omega
    def source(ansatz, r):
        return _source(ansatz, *_phi0_terms(ansatz, r)[1:])

    a = FarFieldAnsatz(decay_rate=0.5, b=1.0)
    omega = a.frequency
    r = np.array([0.0, 0.5, 1.5])  # z <= 0.75: pure frequency plateau
    assert source(a, r) == pytest.approx(omega, rel=1e-14)
    # K0 solves the conjugated equation exactly past the collar
    far = source(a, np.linspace(5.0, 18.0, 200))
    assert np.max(np.abs(far)) < 1e-6 * omega
    collar = source(a, np.linspace(2.5, 3.5, 50))
    assert np.max(np.abs(collar)) > 1e-3 * omega


def test_ansatz_validation():
    with pytest.raises(ConfigError):
        FarFieldAnsatz(0.0, 1.0)
    with pytest.raises(ConfigError):
        FarFieldAnsatz(0.5, -1.0)
    assert FarFieldAnsatz(0.5, 2.0).frequency == 0.125


# -------------------------------------------------------- far-field correction


def test_correction_zero_defect_decays():
    # with eps = 0 the correction must be far below the background scale
    a = FarFieldAnsatz(decay_rate=0.5, b=1.0)
    res = solve_far_field_correction(a)
    assert res.converged
    sel = res.psi.grid.nodes * a.decay_rate >= 2.0
    assert np.max(np.abs(res.psi.values[sel])) <= 1e-3 * a.decay_rate / a.b


def test_correction_with_defect_converges():
    a = FarFieldAnsatz(decay_rate=0.5, b=1.0)
    spec = InhomogeneitySpec(1.5, 0.8)
    res = solve_far_field_correction(a, g=lambda s: evaluate_g(spec, s), eps=0.05)
    assert res.converged
    assert res.iterations <= 30
    assert res.residual_sup < 1e-5
    # Newton contraction: the late-stage rate collapses well below 1/2
    assert min(res.rates) < 0.3


def test_correction_against_conjugated_linear_ode():
    """Independent route: the full gradient solves a linear second-order ODE.

    With Psi = e^{-b phi} the steady equation at frequency Lambda^2/b becomes
    Psi'' + Psi'/r = (Lambda^2 - b eps g) Psi.  Integrating that inward (the
    decaying branch grows inward, so contamination dies off) gives an oracle
    gradient -(log Psi)'/b to compare with phi0' + psi from the Newton solve.
    """
    lam, b, eps = 0.5, 1.0, 0.05
    a = FarFieldAnsatz(decay_rate=lam, b=b)
    spec = InhomogeneitySpec(1.5, 0.8)
    g = lambda s: evaluate_g(spec, s)
    grid = RadialGrid(np.linspace(1.0, 80.0, 8001))
    res = solve_far_field_correction(a, g=g, eps=eps, grid=grid)
    assert res.converged

    def rhs(r, y):
        psi, dpsi = y
        return (dpsi, (lam * lam - b * eps * evaluate_g(spec, r)) * psi - dpsi / r)

    r_hi, r_lo = 60.0, 4.0  # z from 30 down to 2
    y0 = (1.0, lam * log_k0_ratio(lam * r_hi))  # K0-normalized launch
    sol = solve_ivp(rhs, (r_hi, r_lo), y0, method="DOP853",
                    rtol=1e-11, atol=1e-12, dense_output=True)
    assert sol.success

    probe = np.linspace(4.0, 16.0, 60)  # z in [2, 8]
    psi_vals, dpsi_vals = sol.sol(probe)
    oracle_grad = -(dpsi_vals / psi_vals) / b
    newton_grad = far_field_phi0_grad(a, probe) + res.psi.interpolator()(probe)
    assert np.max(np.abs(newton_grad - oracle_grad)) < 1e-6


def test_correction_scale_invariance():
    # the collarized problem depends only on z = Lambda r: rescaled solves agree
    spec = InhomogeneitySpec(1.5, 0.8)
    vals = {}
    for lam in (0.25, 0.5):
        a = FarFieldAnsatz(decay_rate=lam, b=1.0)
        grid = RadialGrid(np.linspace(0.5 / lam, 10.0 / lam, 4001))
        res = solve_far_field_correction(a, grid=grid)  # eps = 0: pure ansatz defect
        z = lam * grid.nodes
        vals[lam] = res.psi.values / lam  # psi scales like Lambda
        assert res.converged
    assert np.max(np.abs(vals[0.25] - vals[0.5])) < 1e-8


def test_correction_diverges_for_large_eps():
    a = FarFieldAnsatz(decay_rate=0.5, b=1.0)
    spec = InhomogeneitySpec(1.5, 0.8)
    with pytest.raises(NonContractionError) as exc:
        solve_far_field_correction(a, g=lambda s: evaluate_g(spec, s), eps=50.0,
                                    max_iter=400)
    assert isinstance(exc.value.last_iterate, RadialProfile)


def test_correction_grid_validation():
    a = FarFieldAnsatz(decay_rate=0.5, b=1.0)
    with pytest.raises(ConfigError):
        solve_far_field_correction(a, grid=RadialGrid.uniform(10.0, 1001))


# ----------------------------------------------------------------- Hopf-Cole


def test_hopf_cole_exact_profile():
    lam, b = 0.5, 1.0
    grid = RadialGrid(np.linspace(2.0 / lam, 8.0 / lam, 2001))
    phi = RadialProfile(
        grid, np.array([-math.log(bessel_k0(lam * r)) / b for r in grid.nodes])
    )
    res = hopf_cole_residual(phi, None, 0.0, omega=lam * lam / b, b=b)
    assert res < 1e-6


def test_hopf_cole_general_b():
    lam, b = 0.8, 2.0
    grid = RadialGrid(np.linspace(2.0 / lam, 8.0 / lam, 2001))
    phi = RadialProfile(
        grid, np.array([-math.log(bessel_k0(lam * r)) / b for r in grid.nodes])
    )
    assert hopf_cole_residual(phi, None, 0.0, omega=lam * lam / b, b=b) < 1e-6


def test_hopf_cole_flags_overflow():
    # e^{-b phi} overflows for phi < -709.8/b: a typed error, not a bare
    # FloatingPointError
    grid = RadialGrid(np.linspace(0.0, 10.0, 101))
    phi = RadialProfile(grid, np.full(101, -800.0))
    with pytest.raises(RangeError, match="gauge"):
        hopf_cole_residual(phi, None, 0.0, 1.0, 1.0)


def test_hopf_cole_flags_underflow():
    grid = RadialGrid(np.linspace(1.0, 10.0, 501))
    phi = RadialProfile(grid, np.full(501, 800.0))
    with pytest.raises(RangeError):
        hopf_cole_residual(phi, None, 0.0, omega=1.0, b=1.0)


# ------------------------------------------------------------------ shooting


@pytest.fixture(scope="module")
def amplitude_solution():
    return shoot_spiral_amplitude(r_max=20.0, tol=1e-8)


def test_shooting_selected_slope(amplitude_solution):
    # frozen from a slope bisection with event-located DOP853 shots, ended on
    # a bracket ~2e-16 wide
    assert amplitude_solution.slope_origin == pytest.approx(
        0.5831894958602174, abs=1e-9
    )
    assert abs(amplitude_solution.slope_origin - 0.5831894958602174) <= 1e-12


def test_shooting_profile_shape(amplitude_solution):
    prof = amplitude_solution.profile
    assert prof.values[0] == 0.0
    assert np.all(np.diff(prof.values) > -1e-9)  # monotone rise to 1
    assert np.all(prof.values <= 1.0 + 1e-9)
    assert amplitude_solution.tail_residual < 2e-3


def test_shooting_tail_law(amplitude_solution):
    # 1 - rho ~ 1/(2 r^2): the scaled tail r^2 (1 - rho^2) hovers near 1
    prof = amplitude_solution.profile
    r = prof.grid.nodes
    sel = (r >= 10.0) & (r <= 20.0)
    scaled = r[sel] ** 2 * (1.0 - prof.values[sel] ** 2)
    assert np.all((scaled > 0.8) & (scaled < 1.2))


@pytest.mark.parametrize("r_max", [20.0, 30.0])
def test_shooting_window_on_far_field_series(r_max):
    # every rho(inf) = 1 solution has 1 - rho = 1/(2 r^2) + 9/(8 r^4) + 161/(16 r^6)
    # + ..., so r^2 (1 - rho^2) = 1 + 2/r^2 + O(r^-4) falls towards 1; the
    # unstable mode e^{sqrt 2 r} would show as an upturn near r_max
    sol = shoot_spiral_amplitude(r_max=r_max, tol=1e-8)
    r = sol.profile.grid.nodes
    rho = sol.profile.values
    assert r[-1] == r_max
    assert 1.0 - rho[-1] == pytest.approx(1 / (2 * r_max**2) + 9 / (8 * r_max**4), abs=1e-6)
    sel = r >= 10.0
    scaled = r[sel] ** 2 * (1.0 - rho[sel] ** 2)
    assert np.all(np.diff(scaled) <= 0.0)


def test_shooting_raises_no_warning():
    # from the loosest tol to one below the BVP tolerance floor; the frozen
    # slope itself is known to about 1e-13
    for tol in (1e-6, 1e-8, 1e-13):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = shoot_spiral_amplitude(20.0, tol)
        assert abs(sol.slope_origin - 0.5831894958602174) <= max(tol, 1e-12), tol


def test_shooting_retains_no_memory_per_call():
    # a solve must free what it allocates: a long-lived process that solves
    # again and again must not grow
    tracemalloc.start()
    try:
        for _ in range(5):
            shoot_spiral_amplitude(20.0, 1e-8)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            shoot_spiral_amplitude(20.0, 1e-8)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / 50 < 1024, f"{retained / 50:.0f} bytes retained per call"


def test_failed_shot_raises_numerical_error(monkeypatch):
    # a failed solve must not hand out its last iterate as the profile
    monkeypatch.setattr(radial, "solve_bvp", lambda *args, **kwargs: SimpleNamespace(
        success=False, message="The maximum number of mesh nodes is exceeded."))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"amplitude BVP .* maximum number"):
            shoot_spiral_amplitude(20.0, 1e-8)


def test_shooting_validation():
    with pytest.raises(ConfigError):
        shoot_spiral_amplitude(r_max=10.0)
    with pytest.raises(ConfigError):
        shoot_spiral_amplitude(tol=1e-3)


@pytest.mark.parametrize("kwargs", [
    {"r_max": math.inf},
    {"r_max": math.nan},
    {"tol": 0.0},
    {"tol": math.nan},
    {"r_max": -math.inf},
    {"r_max": 19.9},
    {"tol": -1e-8},
    {"tol": math.inf},
    {"tol": 2e-6},
])
def test_shooting_rejects_bad_input(kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            shoot_spiral_amplitude(**kwargs)

