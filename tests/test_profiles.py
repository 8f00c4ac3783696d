"""Defect family, cut-offs, splitting, and the mass integral."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from eikolab.errors import ConfigError, DivergentMassError, ResolutionError
from eikolab.profiles import (
    CutoffSpec,
    InhomogeneitySpec,
    R_CUT,
    core_mass,
    cutoff_derivatives,
    evaluate_g,
    smooth_cutoff,
    split_defect,
)
from eikolab.radial import RadialGrid


def test_evaluate_g_examples():
    assert evaluate_g(InhomogeneitySpec(1.5, 1.0), 0.0) == 1.5
    # 1.5 / 10^0.8 = 0.23775...
    assert evaluate_g(InhomogeneitySpec(1.5, 0.8), 3.0) == pytest.approx(
        1.5 * 10.0 ** (-0.8), rel=1e-12
    )
    assert evaluate_g(InhomogeneitySpec(0.0, 0.8), 7.0) == 0.0
    # strength scales linearly
    assert evaluate_g(InhomogeneitySpec(2.0, 1.0, strength=0.25), 0.0) == 0.5


def test_spec_validation():
    with pytest.raises(ConfigError):
        InhomogeneitySpec(-1.0, 0.8)
    with pytest.raises(ConfigError):
        InhomogeneitySpec(1.0, 0.0)
    with pytest.raises(ConfigError):
        InhomogeneitySpec(1.0, 0.8, strength=-0.1)


@given(st.floats(min_value=0.0, max_value=100.0))
def test_g_positive_and_decreasing(r):
    spec = InhomogeneitySpec(1.5, 0.8)
    assert evaluate_g(spec, r) > 0.0
    assert evaluate_g(spec, r + 0.5) < evaluate_g(spec, r)


def test_g_tail_exponent():
    # log-log slope of g on [10, 40] is -2p
    for p in (0.6, 1.0, 1.7, 2.5):
        spec = InhomogeneitySpec(1.0, p)
        r = np.linspace(5.0, 50.0, 400)
        r = r[(r >= 10.0) & (r <= 40.0)]
        slope, _ = np.polyfit(np.log(r), np.log(evaluate_g(spec, r)), 1)
        assert slope == pytest.approx(-2.0 * p, abs=0.05)


# ------------------------------------------------------------------ cut-offs


def test_cutoff_plateaus():
    chi = CutoffSpec("chi")
    assert smooth_cutoff(chi, 0.5) == 0.0
    assert smooth_cutoff(chi, 1.0) == 0.0
    assert smooth_cutoff(chi, 2.0) == 1.0
    assert smooth_cutoff(chi, 3.0) == 1.0
    chim = CutoffSpec("chi_m", m=10.0)
    assert smooth_cutoff(chim, 0.5) == 0.0
    assert smooth_cutoff(chim, 5.0) == 1.0
    assert smooth_cutoff(chim, 25.0) == 0.0


def test_cutoff_monotone_on_transition():
    r = np.linspace(1.0, 2.0, 200)
    vals = smooth_cutoff(CutoffSpec("chi"), r)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_validation():
    with pytest.raises(ConfigError):
        CutoffSpec("chi_m", m=2.0)
    with pytest.raises(ConfigError):
        CutoffSpec("chi_m")
    with pytest.raises(ConfigError):
        CutoffSpec("chi", m=5.0)
    with pytest.raises(ConfigError):
        CutoffSpec("boxcar")


def test_cutoff_smooth_at_junctions():
    # C-infinity: first and second differences stay bounded through r=1 and r=2
    chi = CutoffSpec("chi")
    for r0 in (1.0, 2.0):
        _, d1, d2 = cutoff_derivatives(chi, np.array([r0 - 1e-6, r0, r0 + 1e-6]))
        assert np.all(np.abs(d1) < 1e-2)
        assert np.all(np.abs(d2) < 1e2)
    # and the derivative peaks strictly inside the transition
    _, d1_mid, _ = cutoff_derivatives(chi, 1.5)
    assert d1_mid > 1.0


# ------------------------------------------------------------------ splitting


def _grid(r_max=12.0, n=1201):
    return RadialGrid(np.linspace(0.0, r_max, n))


def test_split_reconstruction_exact():
    spec = InhomogeneitySpec(1.5, 0.8)
    grid = _grid()
    sp = split_defect(spec, grid)
    g = evaluate_g(spec, grid.nodes)
    err = np.max(np.abs(sp.g_core.values + sp.g_far.values - g))
    assert err <= 1e-12 * np.max(g)


def test_split_support():
    spec = InhomogeneitySpec(1.5, 0.8)
    sp = split_defect(spec, _grid())
    nodes = sp.g_core.grid.nodes
    # far part vanishes inside the collar, core part equals g there
    assert np.all(sp.g_far.values[nodes < 1.0] == 0.0)
    inner = nodes < 1.0
    assert sp.g_core.values[inner] == pytest.approx(
        evaluate_g(spec, nodes[inner]), rel=1e-14
    )
    # core part vanishes beyond the collar
    assert np.all(sp.g_core.values[nodes > 2.0] == 0.0)
    idx = np.searchsorted(nodes, 3.0)
    assert sp.g_far.values[idx] == pytest.approx(1.5 * 10.0 ** (-0.8), rel=1e-10)


def test_split_zero_defect():
    sp = split_defect(InhomogeneitySpec(0.0, 0.8), _grid())
    assert np.all(sp.g_core.values == 0.0)
    assert np.all(sp.g_far.values == 0.0)
    assert sp.a_signed == 0.0 and sp.a_sim == 0.0


def test_split_sign_conventions():
    sp = split_defect(InhomogeneitySpec(1.5, 0.8), _grid(), b=2.0)
    assert sp.core_mass_integral > 0.0
    assert sp.a_signed == -2.0 * sp.core_mass_integral
    assert sp.a_sim == -sp.a_signed


def test_split_coarse_grid_rejected():
    grid = RadialGrid(np.linspace(0.0, 12.0, 40))  # ~3 nodes in [1,2]
    with pytest.raises(ResolutionError):
        split_defect(InhomogeneitySpec(1.0, 0.8), grid)


# ------------------------------------------------------------------ mass


def test_core_mass_closed_form_example():
    # A/(2p-2) at A=1.5, p=1.5
    assert core_mass(InhomogeneitySpec(1.5, 1.5)) == 1.5


def test_core_mass_truncated_example():
    # (1/0.4)(10^0.2 - 1) = 1.4622329...; quoted to 5 places elsewhere as 1.4622
    val = core_mass(InhomogeneitySpec(1.0, 0.8), R_CUT)
    assert val == pytest.approx(2.5 * (10.0**0.2 - 1.0), abs=1e-10)
    assert val == pytest.approx(1.4622, abs=5e-5)


def test_core_mass_zero_strength():
    assert core_mass(InhomogeneitySpec(3.0, 0.8, strength=0.0), R_CUT) == 0.0


def test_core_mass_divergent():
    with pytest.raises(DivergentMassError):
        core_mass(InhomogeneitySpec(1.0, 1.0))
    with pytest.raises(DivergentMassError):
        core_mass(InhomogeneitySpec(1.0, 0.8))


def test_core_mass_bad_arguments():
    with pytest.raises(ConfigError):
        core_mass(InhomogeneitySpec(1.0, 0.8), 0.0)


def _mpmath_mass(a: float, p: float, r: float) -> float:
    with mpmath.workdps(50):
        return float(mpmath.quad(
            lambda t: a * t * (1 + t * t) ** (-mpmath.mpf(p)), [0, r]))


def test_quadrature_matches_antiderivative():
    # dual route: core_mass's closed antiderivative against an independent
    # 50-digit quadrature of A r (1 + r^2)^(-p) at random (A, p, R)
    rng = np.random.default_rng(20260814)
    for _ in range(40):
        a = float(rng.uniform(0.1, 3.0))
        p = float(rng.uniform(0.51, 3.0))
        r = float(rng.uniform(0.5, 8.0))
        oracle = _mpmath_mass(a, p, r)
        assert abs(core_mass(InhomogeneitySpec(a, p), r) - oracle) <= 4e-15 * oracle, (a, p, r)


def test_antiderivative_log_limit():
    # p = 1 branch: (A/2) log(1 + r^2); next to p = 1 the naive
    # ((1+R^2)^(1-p) - 1)/(2-2p) loses up to 1.9e-5 to cancellation
    assert core_mass(InhomogeneitySpec(2.0, 1.0), R_CUT) == pytest.approx(
        math.log(10.0), rel=1e-15
    )
    for p in (1.0, 1.0 - 1e-6, 1.0 + 1e-6, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 2e-12):
        for r in (R_CUT, 400.0):
            oracle = _mpmath_mass(2.0, p, r)
            assert abs(core_mass(InhomogeneitySpec(2.0, p), r) - oracle) <= 4e-15 * oracle, (p, r)


@given(
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=1.05, max_value=3.0),
)
def test_truncated_approaches_closed_form(amp, p):
    # for p > 1 the truncated mass converges to A/(2p-2) as R grows
    spec = InhomogeneitySpec(amp, p)
    full = core_mass(spec)
    trunc = core_mass(spec, 400.0)
    assert trunc < full
    assert full - trunc <= full * 400.0 ** (2.0 - 2.0 * p) * 1.01
