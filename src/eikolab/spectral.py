"""Periodic 2D pseudo-spectral ETDRK4 simulator for phi_t = Lap(phi) - b|grad phi|^2 - eps g.

The box is square and the defect centred and radial, so every field stepped
is even in x and y and symmetric under x <-> y: the one stepper path holds
the real DCT-I spectrum of the quadrant [:n/2+1, :n/2+1], and a finished
run, measure and the snapshot I/O pass that quadrant's values.  The n x n
grid exists only in a snapshot file: the writer mirrors the quadrant onto
it, and the reader takes the quadrant back, rejecting (in quadrant) a field
with an odd or asymmetric part.  The diffusive part is
integrated exactly by the exponential factors and only the quadratic term
plus forcing enter the ETDRK4 stages.  Their phi-function coefficient tables
are evaluated in closed form at each real z = -|k|^2 dt <= 0: a Taylor series
below |z| = 1, where the formulas cancel, and expm1(z) / z with the recurrence
phi_{j+1} = (phi_j - 1/j!) / z above.  The quadratic term takes phi_x alone
(phi_y^2 is the transpose of phi_x^2), dealiased by the 2/3 rule whose
dropped rows its forward transform skips; the forcing is an exact spectral
constant.  Plans, grid geometries and the bare defect are cached read-only.
run_to_steady warm-starts from the half grid's locked state where that grid
resolves the defect core, else from the Hopf-Cole eigenstate (solved on
DCT-I coefficients) continued along the periodic box's far field, summed
over the defect's nearest images so that their waves meet on the box edge,
and relaxes every start with a growing time step.
"""
from __future__ import annotations

import functools
import json
import math
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.fft

from .errors import BlowUpError, ConfigError
from .profiles import InhomogeneitySpec, evaluate_g
from .radial import cumulative_integral


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, made read-only: cached values that every run and thread shares."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


# The coarsest grid, and so the coarsest level of a half-grid start.
GRID_MIN_N = 64

# Radius, in units of L, of the centered disk on which a run is judged
# steady; the measurement annulus lies inside it.
STEADY_DISK = 0.45


@dataclass(frozen=True)
class GridSpec2D:
    """Square periodic grid: n x n cells on side length l."""

    n: int
    l: float

    def __post_init__(self):
        if self.n < GRID_MIN_N or (self.n & (self.n - 1)) != 0:
            raise ConfigError(f"n must be a power of two >= {GRID_MIN_N}, got {self.n}")
        if not self.l > 0:
            raise ConfigError(f"l must be > 0, got {self.l}")
        if math.isinf(self.l):
            raise ConfigError(f"l must be finite, got {self.l}")

    @property
    def dx(self) -> float:
        return self.l / self.n

    def axes(self):
        """Cell coordinates along one axis."""
        return np.arange(self.n) * self.dx

    def center(self) -> tuple[float, float]:
        return (0.5 * self.l, 0.5 * self.l)


class Geometry(NamedTuple):
    """One grid's quadrant [:n/2+1, :n/2+1] and its spectrum, read-only (see geometry)."""

    offset: np.ndarray  # x - L/2 of rows (and columns) 0..n/2, all <= 0
    radius: np.ndarray  # each cell's distance to the center
    weight: np.ndarray  # n-grid cells per cell: rows and columns 0, n/2 mirror onto themselves
    kx: np.ndarray  # wavenumbers 1..n/2-1, a column: 0 and n/2 have no signed derivative
    minus_ksq: np.ndarray  # -|k|^2 on the quadrant kx, ky = 0..n/2
    keep: int  # the 2/3 rule keeps modes 0..keep-1 on each axis


@functools.lru_cache(maxsize=2)  # the two grids of a half-grid ladder
def geometry(grid: GridSpec2D) -> Geometry:
    """The quadrant geometry of grid, shared by the plans, the start and the
    measurement of its runs.  No cell is farther than L/2 along an axis, so
    radius is also the periodic (min-image) distance."""
    n, m = grid.n, grid.n // 2
    offset = grid.axes()[: m + 1] - grid.center()[0]
    w = np.r_[1.0, np.full(m - 1, 2.0), 1.0]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.l / n)
    arrays = _read_only(offset, np.hypot(offset[:, None], offset[None, :]), np.outer(w, w),
                        k[1:m, None], -(k[:, None] ** 2 + k[None, :] ** 2))
    return Geometry(*arrays, -(-n // 3))  # modes < n/3


_N_TAYLOR = 20  # series terms below |z| = 1: the remainder is below 1e-19


def _phi_functions(z: np.ndarray, count: int = 3):
    """phi1..phi_count for real z <= 0: Taylor series below |z| = 1, else
    phi1 = expm1(z) / z and phi_{j+1} = (phi_j - 1/j!) / z."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1.0
    zs, zl = z[small], z[~small]
    phis = [np.empty_like(z) for _ in range(count)]
    large = np.expm1(zl) / zl
    for j, phi in enumerate(phis, start=1):
        # phi_j(z) = sum_{m>=0} z^m / (m + j)!, by Horner
        series = np.full_like(zs, 1.0 / math.factorial(_N_TAYLOR - 1 + j))
        for m in range(_N_TAYLOR - 2, -1, -1):
            series = series * zs + 1.0 / math.factorial(m + j)
        phi[small] = series
        phi[~small] = large
        large = (large - 1.0 / math.factorial(j)) / zl
    return tuple(phis)


def _reflected_blocks(m: int) -> tuple:
    """(block, source) index pairs: each block of an n x n array, n = 2m,
    beyond its quadrant [:m+1, :m+1], and the quadrant cells it repeats when
    the array is even in both indices (row or column n - j repeats j)."""
    head, tail, back = np.s_[: m + 1], np.s_[m + 1:], np.s_[m - 1: 0: -1]
    return (((head, tail), (head, back)), ((tail, head), (back, head)),
            ((tail, tail), (back, back)))


def _mirror(quadrant: np.ndarray) -> np.ndarray:
    """The n x n float64 array even in both indices from its quadrant
    [:n/2+1, :n/2+1]: row (column) n - j repeats row (column) j."""
    m = quadrant.shape[0] - 1
    full = np.empty((2 * m, 2 * m), dtype="<f8")
    full[: m + 1, : m + 1] = quadrant
    for block, source in _reflected_blocks(m):
        full[block] = quadrant[source]
    return full


def quadrant(values: np.ndarray) -> np.ndarray:
    """A copy of the quadrant [:n/2+1, :n/2+1] of a finite n x n field even in
    x and y and symmetric in x <-> y; ConfigError if it is not, beyond rounding.

    The odd part is values - _mirror(q), zero on q itself, so it is measured
    on the three reflected blocks alone."""
    values = np.asarray(values, dtype=float)
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:  # NaN would pass the checks below: NaN > bound is False
        raise ConfigError(f"field is not finite in {bad} of {values.size} cells")
    m = values.shape[0] // 2
    q = values[: m + 1, : m + 1]
    bound = 1e-10 * max(np.max(values), -np.min(values))  # 1e-10 max |values|

    def part(a, b):
        d = a - b
        return np.max(np.abs(d, out=d))

    odd = max(part(values[block], q[source]) for block, source in _reflected_blocks(m))
    for name, size in (("odd", odd), ("asymmetric", part(q, q.T))):
        if size > bound:
            raise ConfigError(f"field is not even in x and y and x <-> y symmetric: "
                              f"its {name} part reaches {size:.3e}")
    return q.copy()


@dataclass(frozen=True)
class ETDRK4Plan:
    """Precomputed exponential integrator tables (on the quadrant) for one (grid, dt) pair."""

    grid: GridSpec2D
    dt: float
    e_full: np.ndarray
    e_half: np.ndarray
    q_half: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray


# Runs relax on the dt ladder dt * 2**level, level <= LADDER_TOP:
# the locked state is a fixed point of ETDRK4 whatever the step, and the
# diffusion is integrated exactly, so the 8 dt ceiling is no stability limit.
# It was measured against 4 dt (figure 1 at N=256: 94 -> 74 steps, no step
# rejected, k within 5.2e-6); 16 dt and 32 dt took more steps (91 and 93),
# the residual oscillating at the top.
LADDER_TOP = 3

# The runs of a sweep revisit a few (grid, dt) pairs: the dt ladder
# (LADDER_TOP + 1 steps) of their grid and of each half grid, so the cache
# holds the ladders of two grids; a bound of one ladder measured a higher
# peak RSS for a 512-grid run, not a lower one.
PLAN_CACHE_SIZE = 2 * (LADDER_TOP + 1)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_plan(grid: GridSpec2D, dt: float) -> ETDRK4Plan:
    z = geometry(grid).minus_ksq * dt
    phi1, phi2, phi3 = _phi_functions(z)
    half1 = _phi_functions(0.5 * z, count=1)[0]
    e_full = np.exp(z)
    e_half = np.exp(0.5 * z)
    q_half = 0.5 * dt * half1
    # weights in phi-function form; constant forcing collapses them exactly:
    # f1 + 4 f2 + f3 = dt phi1
    f1 = dt * (phi1 - 3.0 * phi2 + 4.0 * phi3)
    f2 = dt * (phi2 - 2.0 * phi3)
    f3 = dt * (4.0 * phi3 - phi2)
    tables = _read_only(e_full, e_half, q_half, f1, f2, f3)
    return ETDRK4Plan(grid, dt, *tables)


_plan_lock = threading.Lock()


def make_plan(grid: GridSpec2D, dt: float) -> ETDRK4Plan:
    """The ETDRK4 tables for (grid, dt), cached and read-only: runs share them."""
    if not dt > 0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    with _plan_lock:  # threads that miss on one key together build it once
        return _cached_plan(grid, dt)


make_plan.cache_info, make_plan.cache_clear = _cached_plan.cache_info, _cached_plan.cache_clear


@functools.lru_cache(maxsize=2)
def _bare_defect(grid: GridSpec2D, amplitude: float, decay_exponent: float):
    """(g, ghat), read-only: the bare defect on the quadrant and its spectrum,
    shared by the eigen start and _relax of every run with this grid and shape."""
    g = evaluate_g(InhomogeneitySpec(amplitude, decay_exponent), geometry(grid).radius)
    return _read_only(g, scipy.fft.dctn(g, type=1))


def defect_corner_ratio(grid: GridSpec2D, defect: InhomogeneitySpec) -> float:
    """g(corner)/g(center): wrap-around contamination gauge, recorded in each report."""
    corner = math.hypot(0.5 * grid.l, 0.5 * grid.l)
    center = evaluate_g(defect, 0.0)  # 0 for a zero amplitude or strength
    return float(evaluate_g(defect, corner) / center if center > 0 else 0.0)


def _phi_x(uhat: np.ndarray, kx: np.ndarray) -> np.ndarray:
    """d phi/dx on quadrant rows 1..n/2-1 from the quadrant spectrum uhat.

    phi_x, odd in x, is 0 on rows 0 and n/2: an inverse DST-I along x of
    -kx uhat over modes 1..n/2-1 (the Nyquist derivative is zeroed) and an
    inverse DCT-I along y.  By x <-> y symmetry phi_y is its transpose."""
    m = uhat.shape[0] - 1
    px = scipy.fft.idst(-kx * uhat[1:m], type=1, axis=0, overwrite_x=True)
    return scipy.fft.idct(px, type=1, axis=1, overwrite_x=True)


# The kernels below work in place on the arrays they allocate, never on an
# argument, and keep the operand order of the plain expressions in their
# comments: IEEE products and sums commute, so the bits are those of the
# expressions.


def _nonlinear_hat(uhat: np.ndarray, plan: ETDRK4Plan, b: float, eps: float,
                   ghat: np.ndarray) -> np.ndarray:
    """Spectral -b|grad phi|^2 (dealiased) - eps g on the quadrant.

    phi_y^2 is (phi_x^2)^T by symmetry (see _phi_x).  The forward DCT-I runs
    along x, and along y on the rows the 2/3 rule keeps alone."""
    geo = geometry(plan.grid)
    m, keep = plan.grid.n // 2, geo.keep
    px2 = _phi_x(uhat, geo.kx)
    px2 *= px2
    out = np.zeros_like(uhat)
    out[1:m] = px2
    out[:, 1:m] += px2.T  # phi_x^2 + phi_y^2
    del px2
    out = scipy.fft.dct(out, type=1, axis=0, overwrite_x=True)
    # rows is out[:keep] itself when scipy transforms in place, a copy if not
    rows = scipy.fft.dct(out[:keep], type=1, axis=1, overwrite_x=True)
    np.multiply(rows[:, :keep], -b, out=out[:keep, :keep])
    out[:keep, keep:] = 0.0
    out[keep:] = 0.0
    if eps != 0.0:  # eps = 0 leaves out bit for bit, signed zeros included
        out -= eps * ghat
    return out


def _step_hat(uhat: np.ndarray, plan: ETDRK4Plan, b: float, eps: float,
              ghat: np.ndarray, n0: np.ndarray) -> np.ndarray:
    """One ETDRK4 step from uhat, whose nonlinear term n0 the caller holds."""
    eu = plan.e_half * uhat
    a = plan.q_half * n0
    a += eu  # a = eu + q_half n0
    na = _nonlinear_hat(a, plan, b, eps, ghat)
    a *= plan.e_half  # a is needed again only as e_half a
    eu += plan.q_half * na  # bb = eu + q_half na
    nb = _nonlinear_hat(eu, plan, b, eps, ghat)
    del eu
    na += nb  # na + nb
    nb *= 2.0
    nb -= n0
    nb *= plan.q_half
    a += nb  # c = e_half a + q_half (2 nb - n0)
    del nb
    nc = _nonlinear_hat(a, plan, b, eps, ghat)
    del a
    # e_full uhat + f1 n0 + 2 f2 (na + nb) + f3 nc, summed left to right
    out = plan.e_full * uhat
    out += plan.f1 * n0
    na *= 2.0 * plan.f2
    out += na
    nc *= plan.f3
    out += nc
    return out


def full_rhs_hat(uhat: np.ndarray, plan: ETDRK4Plan, n0: np.ndarray) -> np.ndarray:
    """Spectral phi_t = -|k|^2 phi_hat + n0, n0 the nonlinear term at uhat."""
    return geometry(plan.grid).minus_ksq * uhat + n0


@dataclass(frozen=True)
class SimulationConfig:
    """Run recipe: grid, step, eikonal coefficient b, defect, stopping rules."""

    grid: GridSpec2D
    dt: float
    b: float
    defect: InhomogeneitySpec
    t_max: float = 5000.0
    steady_tol: float = 1e-5

    def __post_init__(self):
        for name in ("dt", "b", "t_max", "steady_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
            if math.isinf(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        # the time budget counts ceil(t_max / dt) steps of dt
        if math.isinf(self.t_max / self.dt):
            raise ConfigError(f"t_max / dt must be finite, got {self.t_max} / {self.dt}")


# Nested iteration (the full-multigrid start): a grid that resolves the unit
# defect core sits within discretisation error of the continuum's locked state,
# so the half grid locks first and warm-starts the fine one.
HALF_GRID_MAX_DX = 0.5


class Relaxation(NamedTuple):
    """What _relax returns: the last spectrum and how the run got there.

    Every field but uhat is the SteadyStateReport field of the same name.
    """

    uhat: np.ndarray
    steps: int
    converged: bool
    steady_residual: float
    omega_drift: float
    t_final: float  # sum of the time steps taken
    dt_steps: list  # [dt, steps taken at that dt], by ascending dt
    dt_rejections: int  # steps dropped after a blow-up above config.dt
    start_residual: float | None  # the start's residual, None if not finite
    residuals: list  # the residual after each step


def _relax(config: SimulationConfig, uhat: np.ndarray) -> Relaxation:
    """Step the quadrant spectrum uhat on config.grid until phi_t is steady or t_max.

    Steadiness: max |phi_t - mean(phi_t)| over the centered disk of radius
    STEADY_DISK L below steady_tol, with the exact instantaneous right-hand
    side L u + N(u); N(u) is the next step's first stage, so a check costs
    one inverse DCT-I; the mean weighs each quadrant cell by its mirror weight.
    The check comes after every step, and the step is
    dt * 2**level by switched evolution relaxation: tau grows by
    min(2, r_prev / r), within [dt, 8 dt] (dt * 2**LADDER_TOP), and the
    level is tau snapped down to the ladder.  A step above dt that blows up is
    dropped and lowers the level and the ceiling; a blow-up at dt raises
    BlowUpError.  Time ends at ceil(t_max / dt) * dt, the last step
    shortened to meet it.  residuals holds the residual of each step kept.
    """
    grid, b, dt = config.grid, config.b, config.dt
    eps = config.defect.strength
    _, ghat = _bare_defect(grid, config.defect.amplitude, config.defect.decay_exponent)
    geo = geometry(grid)
    disk = geo.radius <= STEADY_DISK * grid.l
    weight = geo.weight[disk]
    n_ticks = int(math.ceil(config.t_max / dt))  # time budget in units of dt

    def steady_residual(u, n, plan):
        """(residual, omega_drift) from phi_t = L u + n, None if not finite."""
        phi_t = scipy.fft.idctn(full_rhs_hat(u, plan, n), type=1, overwrite_x=True)
        if not np.all(np.isfinite(phi_t)):
            return None
        sel = phi_t[disk]
        del phi_t
        mean_t = float(np.average(sel, weights=weight))
        sel -= mean_t
        return float(np.max(np.abs(sel, out=sel))), -mean_t

    ceiling = LADDER_TOP
    counts = [0] * (ceiling + 1)
    tau = 1.0  # in units of dt
    level = ticks = step = rejections = 0
    residuals = []
    converged = False
    omega_drift = 0.0
    # overflow on the way to a blow-up is reported by BlowUpError alone
    with np.errstate(over="ignore", invalid="ignore"):
        plan = make_plan(grid, dt)
        n0 = _nonlinear_hat(uhat, plan, b, eps, ghat)
        start = steady_residual(uhat, n0, plan)  # the first r_prev
        residual = start_residual = None if start is None else start[0]
        while ticks < n_ticks:
            level = min(level, (n_ticks - ticks).bit_length() - 1)
            plan = make_plan(grid, dt * 2**level)
            new = _step_hat(uhat, plan, b, eps, ghat, n0)
            n_new = _nonlinear_hat(new, plan, b, eps, ghat)
            checked = steady_residual(new, n_new, plan) if np.isfinite(new[0, 0]) else None
            if checked is None:
                if level == 0:
                    raise BlowUpError(f"non-finite field after step {step + 1}",
                                      step + 1, t=(ticks + 1) * dt, residual=residual)
                rejections += 1
                ceiling = level - 1
                level, tau = ceiling, float(1 << ceiling)
                continue
            uhat, n0 = new, n_new
            step += 1
            ticks += 1 << level
            counts[level] += 1
            r, omega_drift = checked
            residuals.append(r)
            if r < config.steady_tol:
                residual, converged = r, True
                break
            if residual is not None:
                tau = min(max(tau * min(2.0, residual / r), 1.0), float(1 << ceiling))
                level = math.frexp(tau)[1] - 1  # floor(log2(tau))
            residual = r
    dt_steps = [[dt * 2**j, c] for j, c in enumerate(counts) if c]
    return Relaxation(uhat, step, converged, residual, omega_drift, ticks * dt,
                      dt_steps, rejections, start_residual, residuals)


def _zero_pad(coarse_hat: np.ndarray, n: int) -> np.ndarray:
    """An (n/2)-grid quadrant spectrum on the n-grid quadrant.

    The transform is unnormalised, so the coefficients scale by 4; the coarse
    Nyquist row and column have no signed counterpart and are dropped.
    """
    h = n // 4  # coarse Nyquist index
    out = np.zeros((n // 2 + 1, n // 2 + 1))
    out[:h, :h] = 4.0 * coarse_hat[:h, :h]
    return out


EIGEN_TOL = 1e-9  # on ||Bx - lam x|| for unit x
EIGEN_MAXITER = 200
# A solve stops unconverged once its best ||r|| has not halved over the last
# EIGEN_STALL_STEPS iterations: converging solves halve it every step or two,
# while a hopeless one (A = 1e150) would spend all EIGEN_MAXITER.
EIGEN_STALL_STEPS = 10


def _hopf_cole_eigen(config: SimulationConfig) -> tuple:
    """(w, Omega, iterations): the Hopf-Cole eigenstate (quadrant w scaled to
    max 1, Omega = lambda/b) and the applications of B its solve took.

    w = exp(-b phi) turns the PDE into w_t = Lap w + b eps g w, whose principal
    eigenpair (lambda, w) is the locked state, the smallest of B = -Lap - b eps g.
    It is solved on the quadrant's DCT-I coefficients (-Lap is |k|^2, the inner
    product the full grid's by Parseval) by LOBPCG with block size 1 (Knyazev,
    SIAM J. Sci. Comput. 23, 2001) from the defect's spectrum: each step takes
    the lowest Ritz pair on span{x, w, p}, w the residual r = Bx - lam x
    preconditioned by (|k|^2 - lam)^-1 once the Ritz value lam < 0, else by
    (|k|^2 + max(b eps g)/2)^-1, and p the last update.  p, then w, are
    Gram-Schmidt'd twice and normalised (p dropped if nothing of it is left);
    B images w alone.  w and Omega are None for a zero-strength defect, an
    operator whose square overflows, a non-finite Gram matrix, a solve that
    stalls or spends EIGEN_MAXITER steps short of EIGEN_TOL, or a w nowhere
    positive; iterations is None when no solve ran.
    """
    g, ghat = _bare_defect(config.grid, config.defect.amplitude, config.defect.decay_exponent)
    pot = config.b * config.defect.strength * g
    sigma = 0.5 * float(np.max(pot))
    if not 0.0 < sigma * sigma < math.inf:
        return None, None, None
    geo = geometry(config.grid)
    ksq = -geo.minus_ksq
    weight = geo.weight.ravel()

    def dot(u, v):
        # by einsum's own loop: OpenBLAS would thread a dot of this size on
        # helper threads that busy-wait, taking the pool's second core
        return float(np.einsum("i,i,i->", u.ravel(), v.ravel(), weight))

    def apply_b(x):  # ksq x - dctn(pot idctn(x)), in a new array
        y = scipy.fft.idctn(x, type=1)
        y *= pot
        y = scipy.fft.dctn(y, type=1, overwrite_x=True)
        return np.subtract(ksq * x, y, out=y)

    def combine(c, arrays):  # sum(cj * a for cj, a in zip(c, arrays)), in arrays[0]
        out = arrays[0]
        out *= c[0]
        out += 0.0  # sum() starts from the integer 0, and 0 + (-0.0) is +0.0
        for cj, a in zip(c[1:], arrays[1:]):
            a *= cj
            out += a
        return out

    # in place on the arrays the solve allocates, in the operand order of the
    # expressions in the comments (see the step kernels)
    with np.errstate(all="ignore"):
        x = ghat / math.sqrt(dot(ghat, ghat))
        bx = apply_b(x)
        p = bp = None
        best = [math.inf] * EIGEN_STALL_STEPS  # the least ||r|| so far, per step
        for step in range(EIGEN_MAXITER + 1):
            lam = dot(x, bx)
            r = lam * x
            np.subtract(bx, r, out=r)  # r = bx - lam x
            residual = math.sqrt(dot(r, r))
            if residual <= EIGEN_TOL:
                break
            best.append(min(best[-1], residual))
            if step == EIGEN_MAXITER or best[-1] > 0.5 * best[-1 - EIGEN_STALL_STEPS]:
                return None, None, step + 1
            w = r
            w /= ksq - lam if lam < 0.0 else ksq + sigma
            basis, images = [x], [bx]
            for v, bv in ((p, bp), (w, None)):  # w is imaged once deflated
                if v is None:  # the first step has no p
                    continue
                for _ in range(2):
                    for s, bs in zip(basis, images):
                        c = dot(s, v)
                        v -= c * s  # v = v - c s
                        if bv is not None:
                            bv -= c * bs
                norm = math.sqrt(dot(v, v))
                if bv is None or norm > 0.0:  # else p lies in span{x}
                    v /= norm
                    basis.append(v)
                    if bv is None:
                        images.append(apply_b(v))
                    else:
                        bv /= norm
                        images.append(bv)
            gram = np.array([[dot(s, bs) for bs in images] for s in basis])
            if not np.all(np.isfinite(gram)):
                return None, None, step + 2  # with this step's application of B
            c = np.linalg.eigh(0.5 * (gram + gram.T))[1][:, 0]
            p, bp = combine(c[1:], basis[1:]), combine(c[1:], images[1:])
            del basis, images  # frees the scaled w and its image
            x *= c[0]  # x = c0 x + p
            x += p
            bx *= c[0]  # bx = c0 bx + bp
            bx += bp
    w = scipy.fft.idctn(x, type=1)  # finite: a non-finite x has a NaN residual
    w *= np.sign(np.sum(w))
    peak = float(np.max(w))
    if not peak > 0.0:
        return None, None, step + 1
    w /= peak
    return w, -lam / config.b, step + 1


def _matched_phi(config: SimulationConfig, w: np.ndarray, omega: float) -> np.ndarray:
    """phi0 on the quadrant from the eigenstate w, matched to the periodic box's far field.

    On the trusted set, w >= 10 floor with floor = max(1e-7, 100 max(0, -min w))
    above the eigenvector's noise, phi0 = -log(w)/b, and a box trusted
    throughout ends there.  Beyond r_f, the smallest radius of an untrusted
    cell, each of the defect's images contributes the far field of
    w ~ exp(-int q)/sqrt(r), q^2 = b (Omega - eps g), and their waves meet on
    the box edge: with F(s) = int_{r_f}^s sqrt(max(Omega - eps g, 0)/b)
    + 1/(2 b t) dt (a cumulative_integral on 2n panels, interpolated),
    phi0 = phibar + F(r0) - log sum_i exp(-b (F(r_i) - F(r0)))/b
    over the four nearest images (axis offsets 0 and -L), r0 the cell's own
    radius, so the own term is 1 and each other one at most 1.  phibar is
    the mean over the trusted cells within one dx of r_f of phi0 carried to
    r_f along the slope F'(r_f) (quadrant cells weighed by their mirror weight).
    """
    grid, b = config.grid, config.b
    floor = max(1e-7, 100.0 * max(0.0, -float(np.min(w))))
    trusted = w >= 10.0 * floor
    # in place on the arrays it allocates, in the operand order of the
    # expressions in the comments (see the step kernels)
    near = np.maximum(w, 10.0 * floor)
    np.log(near, out=near)
    np.negative(near, out=near)
    near /= b  # near = -log(max(w, 10 floor)) / b
    if np.all(trusted):
        return near
    geo = geometry(grid)
    r = geo.radius
    r_f = float(np.min(r[~trusted]))

    def slope(t):  # d phi0/dr = q/b + 1/(2 b r)
        return np.sqrt(np.maximum(omega - evaluate_g(config.defect, t), 0.0) / b) + 0.5 / (b * t)

    ring = r - r_f
    ring = np.abs(ring, out=ring) <= grid.dx
    ring &= trusted
    weight = geo.weight * ring  # weight (trusted & (|r - r_f| <= dx))
    carried = np.subtract(r_f, r)
    carried *= slope(r_f)
    np.add(near, carried, out=carried)
    carried *= weight  # weight (near + slope(r_f) (r_f - r))
    phibar = float(np.sum(carried) / np.sum(weight))
    del ring, weight, carried
    s = np.linspace(r_f, math.hypot(grid.l, grid.l), 2 * grid.n + 1)
    big_f = cumulative_integral(slope, s)
    d, e = geo.offset, grid.l + geo.offset  # axis offsets from the defect and its image at -L
    f0 = np.interp(r, s, big_f)
    side, corner = (np.interp(np.hypot(ex[:, None], ey[None, :]), s, big_f)
                    for ex, ey in ((d, e), (e, e)))
    for term in (side, corner):  # exp(-b (F(r_i) - f0))
        term -= f0
        term *= -b
        np.exp(term, out=term)
    # hypot is symmetric, so the (e, d) image's term is the (d, e) one's transpose
    total = 1.0 + side
    total += side.T
    total += corner  # 1 + side + side^T + corner
    del side, corner, term
    np.log(total, out=total)
    total /= b
    f0 += phibar
    f0 -= total  # far = phibar + f0 - log(total) / b
    np.copyto(f0, near, where=trusted)  # np.where(trusted, near, far)
    return f0


class Start(NamedTuple):
    """A run's initial quadrant spectrum and how it was found.

    Every field but uhat is the SteadyStateReport field of the same name.
    """

    uhat: np.ndarray
    coarse_steps: int  # half-grid steps, summed over levels
    start: str  # "half_grid", "hopf_cole" or "rest"
    start_omega: float | None  # lambda/b of the eigen solve that seeded the run
    eigen_iterations: int | None  # that solve's iterations, None when none ran


def _hopf_cole_start(config: SimulationConfig) -> Start:
    """The start from the Hopf-Cole eigenstate and its Omega = lambda/b.

    phi0 is -log(w)/b where w is above its noise and the far-field asymptote
    beyond (see _matched_phi).  The start stays at rest (zero, start_omega
    None) where _hopf_cole_eigen finds no usable eigenstate.
    """
    w, omega, iterations = _hopf_cole_eigen(config)
    if w is None:
        m = config.grid.n // 2
        return Start(np.zeros((m + 1, m + 1)), 0, "rest", None, iterations)
    uhat = scipy.fft.dctn(_matched_phi(config, w, omega), type=1)
    return Start(uhat, 0, "hopf_cole", omega, iterations)


def _warm_start(config: SimulationConfig) -> Start:
    """The run's start: the half grid's locked state, else the Hopf-Cole start.

    The half grid comes first: when it (n/2 >= 64) still resolves the defect
    core, spacing 2L/n <= 0.5, the same config is locked there, itself
    warm-started the same way, and its spectrum is zero-padded onto
    config.grid ("half_grid"; coarse_steps sums the steps of all levels, and
    start_omega and eigen_iterations are those of the coarsest level's
    solve).  When the half grid is too coarse or does not lock by t_max, the
    start is _hopf_cole_start's.  A half-grid blow-up raises BlowUpError.
    """
    grid = config.grid
    half = grid.n // 2
    coarse_steps = 0
    if half >= GRID_MIN_N and grid.l / half <= HALF_GRID_MAX_DX:
        coarse = replace(config, grid=GridSpec2D(half, grid.l))
        seed = _warm_start(coarse)
        run = _relax(coarse, seed.uhat)
        coarse_steps = seed.coarse_steps + run.steps
        if run.converged:
            return seed._replace(uhat=_zero_pad(run.uhat, grid.n),
                                 coarse_steps=coarse_steps, start="half_grid")
    return _hopf_cole_start(config)._replace(coarse_steps=coarse_steps)


def run_to_steady(config: SimulationConfig):
    """Advance phi from rest until phi_t is spatially uniform on the measurement disk.

    The run starts from the half grid's locked state where that grid resolves
    the defect core, else from the Hopf-Cole eigenstate, else from phi = 0
    (see _warm_start); every start relaxes on the dt ladder, and steadiness
    is judged on config.grid alone (see _relax).  Returns (phi,
    SteadyStateReport), phi the locked field's quadrant [:n/2+1, :n/2+1];
    a timeout is reported, not raised.
    """
    from .measure import build_report  # late import; measure depends on this module

    grid = config.grid
    start = _warm_start(config)
    run = _relax(config, start.uhat)

    phi = scipy.fft.idctn(run.uhat, type=1)
    record = {**start._asdict(), **run._asdict()}
    del record["uhat"]
    report = build_report(grid, phi, **record, steady_tol=config.steady_tol,
                          corner_ratio=defect_corner_ratio(grid, config.defect))
    return phi, report


# ------------------------------------------------------------- snapshot I/O


def write_field_snapshot(grid: GridSpec2D, phi: np.ndarray,
                         prefix: str | Path) -> tuple[Path, Path]:
    """Write <prefix>.bin, the n x n field of the quadrant phi (row-major
    float64), and its <prefix>.json header."""
    prefix = Path(prefix)
    bin_path = prefix.with_suffix(".bin")
    json_path = prefix.with_suffix(".json")
    _mirror(phi).tofile(bin_path)
    header = {
        "n": grid.n,
        "l": grid.l,
        "dealias": "two_thirds",
        "dtype": "float64",
        "order": "C",
        "layout": "row-major x-index first",
    }
    json_path.write_text(json.dumps(header, indent=2) + "\n")
    return bin_path, json_path


def read_field_snapshot(prefix: str | Path) -> tuple[GridSpec2D, np.ndarray]:
    """(grid, quadrant) of the field written by write_field_snapshot;
    ConfigError if it is not one or not even and x <-> y symmetric."""
    prefix = Path(prefix)
    if prefix.suffix in (".bin", ".json"):
        prefix = prefix.with_suffix("")
    try:
        header = json.loads(prefix.with_suffix(".json").read_text())
        n, l, dealias = header["n"], float(header["l"]), header["dealias"]
        vals = np.fromfile(prefix.with_suffix(".bin"), dtype="<f8")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read snapshot {prefix}: {exc}") from exc
    if type(n) is not int:  # a float or a bool is no cell count
        raise ConfigError(f"snapshot {prefix} has n = {n!r}, not an integer")
    grid = GridSpec2D(n, l)
    if dealias != "two_thirds":
        raise ConfigError(f"snapshot {prefix} has dealias {dealias!r}, not 'two_thirds'")
    if vals.size != grid.n * grid.n:
        raise ConfigError(f"snapshot {prefix}.bin holds {vals.size} values, "
                          f"not n^2 = {grid.n * grid.n}")
    try:
        return grid, quadrant(vals.reshape(grid.n, grid.n))
    except ConfigError as exc:
        raise ConfigError(f"{exc} (snapshot {prefix})") from exc
