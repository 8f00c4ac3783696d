"""Observable extraction: radial gradient profile, wavenumber, run reports, law fits.

Everything here is a pure function of a field's quadrant [:n/2+1, :n/2+1]
of values, as a run ends with it and as a snapshot is read back (the
reader rejects a field that is not even in x and y and symmetric under
x <-> y), each cell weighted by the full-grid cells it stands for.  The
wavenumber estimate is the annulus mean of the radial component of the
spectral gradient, taken once per report from the quadrant's DCT-I
spectrum; the sweep law
k = C exp(-1/a) is probed two ways, through y = 1/(log k - 1) against a and
log k against -1/a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
import scipy.fft

from .errors import ConfigError, DomainError, StatisticsError
from .radial import RadialGrid, RadialProfile
from .spectral import STEADY_DISK, _phi_x, geometry

ANNULUS_FRACTIONS = (0.35, STEADY_DISK)
MIN_ANNULUS_CELLS = 100


def default_annulus(grid) -> tuple[float, float]:
    return (ANNULUS_FRACTIONS[0] * grid.l, ANNULUS_FRACTIONS[1] * grid.l)


def radial_gradient(grid, phi: np.ndarray) -> np.ndarray:
    """The radial component of the spectral gradient of the quadrant field
    phi [:n/2+1, :n/2+1], on that quadrant, 0 at the center."""
    geo = geometry(grid)
    m = grid.n // 2
    px = np.zeros((m + 1, m + 1))
    px[1:m] = _phi_x(scipy.fft.dctn(phi, type=1), geo.kx)
    offset, r = geo.offset, geo.radius
    # phi_y is phi_x transposed
    radial = px * offset[:, None] + px.T * offset[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(r > 0, radial / np.where(r > 0, r, 1.0), 0.0)


def radial_gradient_profile(grid, radial: np.ndarray, n_bins: int = 64) -> RadialProfile:
    """Azimuthal average of the quadrant's radial gradient (see radial_gradient):
    bin means over r <= L/2, each cell counted as the full-grid cells it
    stands for, an empty bin interpolated from its neighbours, and 0 at the
    center, where the radial derivative vanishes by symmetry."""
    if n_bins < 16:
        raise ConfigError(f"n_bins must be >= 16, got {n_bins}")
    geo = geometry(grid)
    r_max = 0.5 * grid.l
    width = r_max / n_bins
    keep = geo.radius <= r_max
    idx = np.minimum((geo.radius[keep] / width).astype(int), n_bins - 1)
    weight = geo.weight[keep]
    counts = np.bincount(idx, weights=weight, minlength=n_bins).astype(int)
    sums = np.bincount(idx, weights=weight * np.asarray(radial, dtype=float)[keep],
                       minlength=n_bins)
    empty = counts == 0
    means = np.where(empty, 0.0, sums / np.maximum(counts, 1))
    centers = (np.arange(n_bins) + 0.5) * width
    if np.any(empty):
        filled = ~empty
        means[empty] = np.interp(centers[empty], centers[filled], means[filled])
    return RadialProfile(
        RadialGrid(np.concatenate(([0.0], centers))),
        np.concatenate(([0.0], means)),
        bin_counts=np.concatenate(([1], counts)),
        interpolated=np.concatenate(([False], empty)),
    )


def measure_wavenumber(grid, radial: np.ndarray, annulus: tuple[float, float]) -> float:
    """Mean of the quadrant's radial gradient (see radial_gradient) over an annulus."""
    r_in, r_out = annulus
    if not (0.0 < r_in < r_out <= STEADY_DISK * grid.l * (1.0 + 1e-12)):
        raise ConfigError(
            f"annulus must satisfy 0 < r_in < r_out <= {STEADY_DISK} L, got {annulus}"
        )
    geo = geometry(grid)
    sel = (geo.radius >= r_in) & (geo.radius <= r_out)
    weight = geo.weight[sel]  # full-grid cells per quadrant cell
    n_cells = int(np.sum(weight))
    if n_cells < MIN_ANNULUS_CELLS:
        raise StatisticsError(
            f"annulus {annulus} holds only {n_cells} cells (< {MIN_ANNULUS_CELLS})"
        )
    return float(np.average(radial[sel], weights=weight))


@dataclass(frozen=True)
class SteadyStateReport:
    """The record of one run: its observables and how the run got there.

    as_dict is the schema of report.json and of each runs.json report.
    """

    k_measured: float
    omega_drift: float
    steady_residual: float
    annulus: tuple[float, float]
    radial_profile: RadialProfile
    converged: bool = True
    steady_tol: float = math.nan
    t_final: float = math.nan
    steps: int = 0
    dt_steps: list = field(default_factory=list)  # [dt, steps at that dt]
    dt_rejections: int = 0  # steps dropped after a blow-up on the dt ladder
    start_residual: float | None = None  # residual of the start, None if not finite
    coarse_steps: int = 0  # half-grid warm-start steps, summed over levels
    start: str = "rest"  # "half_grid", "hopf_cole" or "rest"
    start_omega: float | None = None  # lambda/b of the eigen solve that seeded the run
    eigen_iterations: int | None = None  # LOBPCG iterations of the solve, if one ran
    corner_ratio: float = math.nan
    residuals: list = field(default_factory=list)  # the residual after each step

    def as_dict(self, include_profile: bool = True) -> dict:
        """Every field in declaration order, the radial profile last (if included)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "radial_profile"}
        out["annulus"] = list(self.annulus)
        if include_profile:
            out["radial_profile"] = {
                "r": self.radial_profile.grid.nodes.tolist(),
                "value": self.radial_profile.values.tolist(),
                "count": np.asarray(self.radial_profile.bin_counts).tolist(),
                "interpolated": np.asarray(self.radial_profile.interpolated,
                                           dtype=bool).astype(int).tolist(),
            }
        return out


def build_report(grid, phi: np.ndarray, **run) -> SteadyStateReport:
    """The run record of the quadrant field phi: k over the default annulus
    and the radial gradient profile are measured here (from one gradient),
    every other SteadyStateReport field is passed through by name."""
    annulus = default_annulus(grid)
    radial = radial_gradient(grid, phi)
    return SteadyStateReport(k_measured=measure_wavenumber(grid, radial, annulus),
                             annulus=annulus,
                             radial_profile=radial_gradient_profile(grid, radial), **run)


# ------------------------------------------------------------------ fitting


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through transformed sweep points."""

    slope: float
    intercept: float
    pearson_r: float


def _line_fit(x: np.ndarray, y: np.ndarray) -> FitResult:
    sx = x - np.mean(x)
    sy = y - np.mean(y)
    ss_x = float(np.dot(sx, sx))
    ss_y = float(np.dot(sy, sy))
    if ss_x == 0.0:
        raise StatisticsError("all abscissae coincide, line fit is degenerate")
    cov = float(np.dot(sx, sy))
    slope = cov / ss_x
    intercept = float(np.mean(y)) - slope * float(np.mean(x))
    pearson = cov / math.sqrt(ss_x * ss_y) if ss_y > 0.0 else 0.0
    return FitResult(slope, intercept, pearson)


def fit_k_law(points: Sequence[tuple[float, float]]) -> FitResult:
    """Fit y = 1/(log k - 1) against a over a sweep of (a, k) pairs.

    Under k = C exp(-1/a) with log C = 1 this transform is y = -a exactly, so
    near-unit |pearson_r| is the signature of the exponential law.
    """
    if len(points) < 4:
        raise StatisticsError(f"need at least 4 sweep points, got {len(points)}")
    a = np.asarray([p[0] for p in points], dtype=float)
    k = np.asarray([p[1] for p in points], dtype=float)
    if np.any(k <= 0.0) or np.any(k >= 1.0):
        raise DomainError("transform requires 0 < k < 1 for every point")
    y = 1.0 / (np.log(k) - 1.0)
    return _line_fit(a, y)


def fit_log_k_vs_inv_a(points: Sequence[tuple[float, float]]) -> FitResult:
    """Fit log k against -1/a; slope ~ 1 and intercept = log C under the law."""
    if len(points) < 4:
        raise StatisticsError(f"need at least 4 sweep points, got {len(points)}")
    a = np.asarray([p[0] for p in points], dtype=float)
    k = np.asarray([p[1] for p in points], dtype=float)
    if np.any(k <= 0.0):
        raise DomainError("log transform requires k > 0 for every point")
    if np.any(a == 0.0):
        raise DomainError("a = 0 has no -1/a abscissa")
    return _line_fit(-1.0 / a, np.log(k))

