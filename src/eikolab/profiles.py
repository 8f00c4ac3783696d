"""Algebraically localized radial defects and their smooth core/far splitting.

The defect family is g(r) = eps * A / (1 + r^2)^p.  A smooth cut-off chi
(0 below r=1, 1 above r=2) splits it into a finite-mass core (1-chi)g and a
slowly decaying tail chi*g; the core mass integral sets the matching constant
of the frequency prediction.  core_mass gives the mass of the whole defect in
closed form, infinite for p > 1 and truncated at the fixed radius R_CUT for
p <= 1, where the infinite mass diverges.  Two sign conventions coexist: the
theorem-style a_signed = -b * integral (negative) and the simulation-style
a_sim = |a_signed|.  Every output labels which one it carries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergentMassError, ResolutionError
from .radial import RadialGrid, RadialProfile, cumulative_integral

# Tails g ~ r^-m with m = 2p <= 1 lie outside the paper's theorem (m in (1, 2]),
# so no law is predicted for them.  The model still locks such runs (in 2D
# every attractive defect binds): they start from their eigenstate like any
# other.  Their growing gradient (+24.98% at p = 0.3 in the plane profile
# itself) is a slow approach to kappa/b, not a failure to lock.
SUBCRITICAL_P = 0.5

# Radius the mass integral is truncated at where the infinite one diverges
# (p <= 1), fixed for every command.
R_CUT = 3.0


@dataclass(frozen=True)
class InhomogeneitySpec:
    """Defect g(r) = strength * amplitude / (1 + r^2)^decay_exponent."""

    amplitude: float
    decay_exponent: float
    strength: float = 1.0

    def __post_init__(self):
        if not self.amplitude >= 0.0:
            raise ConfigError(f"amplitude must be >= 0, got {self.amplitude}")
        if not self.decay_exponent > 0.0:
            raise ConfigError(
                f"decay_exponent must be > 0, got {self.decay_exponent}"
            )
        if not self.strength >= 0.0:
            raise ConfigError(f"strength must be >= 0, got {self.strength}")
        for name in ("amplitude", "decay_exponent", "strength"):
            if math.isinf(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth cut-off: kind 'chi' rises on [1,2]; 'chi_m' additionally falls on [m, 2m]."""

    kind: str = "chi"
    m: float | None = None

    def __post_init__(self):
        if self.kind not in ("chi", "chi_m"):
            raise ConfigError(f"unknown cutoff kind {self.kind!r}")
        if self.kind == "chi_m":
            if self.m is None or not self.m > 2.0:
                raise ConfigError("chi_m needs m > 2")
        elif self.m is not None:
            raise ConfigError("plain chi takes no m")


@dataclass(frozen=True)
class DefectSplit:
    """Core/far decomposition of a defect on a radial grid.

    core_mass_integral is the integral of the core part g_c r dr over its
    support; a_signed = -b * core_mass_integral is the theorem-convention
    matching constant, a_sim its absolute value.
    """

    g_core: RadialProfile
    g_far: RadialProfile
    core_mass_integral: float
    a_signed: float
    a_sim: float
    truncated_at: float | None = None


def evaluate_g(spec: InhomogeneitySpec, r):
    """Defect value(s) at radius r >= 0 (scalar or array)."""
    r = np.asarray(r, dtype=float)
    out = spec.strength * spec.amplitude * (1.0 + r * r) ** (-spec.decay_exponent)
    return float(out) if out.ndim == 0 else out


def _smoothstep(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, exp(-1/x) blend between."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    xm = x[mid]
    with np.errstate(over="ignore"):
        e1 = np.exp(-1.0 / xm)
        e2 = np.exp(-1.0 / (1.0 - xm))
    out[mid] = e1 / (e1 + e2)
    return out


def smooth_cutoff(spec: CutoffSpec, r):
    """Evaluate the cut-off at radius r (scalar or array)."""
    r = np.asarray(r, dtype=float)
    chi = _smoothstep(r - 1.0)
    if spec.kind == "chi_m":
        chi = chi * (1.0 - _smoothstep(r / spec.m - 1.0))
    return float(chi) if chi.ndim == 0 else chi


def cutoff_derivatives(spec: CutoffSpec, r):
    """(chi, chi', chi'') by centered 5-point differences of step 1e-4; chi is C-infinity."""
    h = 1e-4
    r = np.asarray(r, dtype=float)
    f : list[np.ndarray] = [
        np.asarray(smooth_cutoff(spec, r + k * h)) for k in (-2, -1, 0, 1, 2)
    ]
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    return f[2], d1, d2


def split_defect(
    spec: InhomogeneitySpec,
    grid: RadialGrid,
    cutoff: CutoffSpec | None = None,
    b: float = 1.0,
) -> DefectSplit:
    """Split g into core and far parts on the grid and compute the matching constant.

    The core mass is the integral of (1 - chi) g r dr over the whole grid by
    panel Gauss-Legendre (`cumulative_integral`).  For chi the integrand is
    exactly 0 past r = 2; for chi_m, whose (1 - chi_m) regrows past m, the
    integral is truncated at the grid's end, recorded as truncated_at.
    """
    cutoff = cutoff or CutoffSpec("chi")
    nodes = grid.nodes
    if not (grid.has_origin and grid.r_max >= 2.0):
        raise ConfigError("split grid must span [0, 2], the core's support")
    # collar resolution gate: the cut-off varies on [1, 2]
    n_collar = int(np.count_nonzero((nodes >= 1.0) & (nodes <= 2.0)))
    if n_collar < 8:
        raise ResolutionError(
            f"only {n_collar} grid nodes in the cut-off collar [1, 2]; need >= 8"
        )
    g_all = evaluate_g(spec, nodes)
    chi = smooth_cutoff(cutoff, nodes)
    mass = float(cumulative_integral(
        lambda r: (1.0 - smooth_cutoff(cutoff, r)) * evaluate_g(spec, r) * r, nodes)[-1])
    return DefectSplit(
        g_core=RadialProfile(grid, (1.0 - chi) * g_all),
        g_far=RadialProfile(grid, chi * g_all),
        core_mass_integral=mass,
        a_signed=-b * mass,
        a_sim=abs(b * mass),
        truncated_at=float(nodes[-1]) if cutoff.kind == "chi_m" else None,
    )


def core_mass(spec: InhomogeneitySpec, r_cut: float = math.inf) -> float:
    """Defect mass strength * integral_0^r_cut of A (1+r^2)^-p r dr, in closed form.

    With L = log(1 + r_cut^2) it is strength*A*expm1((1-p) L)/(2-2p), and
    strength*A*L/2 at p = 1.  expm1 keeps full precision as p -> 1, where
    ((1+r_cut^2)^(1-p) - 1)/(2-2p) cancels.  The default r_cut = inf gives
    the infinite mass strength*A/(2p-2); it diverges for p <= 1, where callers
    truncate at R_CUT.  The matching constant is b times this value under the
    simulation sign convention (a_signed = minus that).
    """
    if not r_cut > 0.0:
        raise ConfigError(f"truncation radius must be > 0, got {r_cut}")
    p, log_r = spec.decay_exponent, math.log1p(r_cut * r_cut)
    scale = spec.strength * spec.amplitude
    if p == 1.0:
        mass = 0.5 * scale * log_r
    else:
        mass = scale * math.expm1((1.0 - p) * log_r) / (2.0 - 2.0 * p)
    if not math.isfinite(mass):
        raise DivergentMassError(
            f"mass integral is not finite for p = {p} out to r = {r_cut}")
    return mass
