"""One-dimensional radial machinery.

Contents: the corrector K solving Laplacian_0 K + b g_far = 0, the explicit
inverse of L_lam = d/dr + 1/r + lam, the far-field first-order approximation
phi0 = -(1/b) chi(Lr) log K0(Lr) with its damped Newton correction, a
Hopf-Cole residual check and the amplitude-equation BVP.

All cumulative integrals run panel-by-panel with Gauss-Legendre nodes so the
exponential weights of L_lam^{-1} stay bounded by one.  Finite differences for
residual checks use Fornberg weights on sliding stencils (4th order and up on
the interior).  scipy's splines and BVP solver load on first use (a spline
built, a shot fired), so a 2D run that only integrates never imports them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NonContractionError,
    NumericalError,
    RangeError,
)
from .specfun import bessel_k0_scaled, bessel_k1_scaled

if TYPE_CHECKING:  # annotations only: scipy's splines load where one is built
    from scipy.interpolate import CubicSpline, PPoly


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes, usually anchored at r = 0.

    Windowed profiles (for example a collar-free far-field sample) may start
    at any r >= 0; operations that integrate from the origin check
    has_origin themselves.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ConfigError("radial grid needs at least two nodes")
        if nodes[0] < 0.0:
            raise ConfigError("radial grid nodes must be nonnegative")
        if not np.all(np.diff(nodes) > 0):
            raise ConfigError("radial grid nodes must be strictly increasing")
        if not np.all(np.isfinite(nodes)):
            raise ConfigError("radial grid nodes must be finite")

    @property
    def has_origin(self) -> bool:
        return self.nodes[0] == 0.0

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @classmethod
    def uniform(cls, r_max: float, n: int) -> "RadialGrid":
        if not (r_max > 0 and n >= 2):
            raise ConfigError("uniform grid needs r_max > 0 and n >= 2")
        return cls(np.linspace(0.0, r_max, n))


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial function.

    bin_counts/interpolated are populated only by azimuthal binning: cells per
    bin and which bins were empty and filled from neighbours.
    """

    grid: RadialGrid
    values: np.ndarray
    bin_counts: np.ndarray | None = None
    interpolated: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.nodes.shape:
            raise ConfigError("profile values must match grid nodes")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("profile values must be finite")
        for name in ("bin_counts", "interpolated"):
            extra = getattr(self, name)
            if extra is not None and np.asarray(extra).shape != vals.shape:
                raise ConfigError(f"{name} must match profile length")

    def interpolator(self) -> CubicSpline:
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.grid.nodes, self.values)


def _as_callable(f, name: str = "f") -> Callable[[np.ndarray], np.ndarray]:
    if callable(f):
        return f
    if isinstance(f, RadialProfile):
        return f.interpolator()
    raise ConfigError(f"{name} must be a RadialProfile or callable")


# ---------------------------------------------------------------- quadrature

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_GL_T = 0.5 * (1.0 + _GL_X)  # the nodes' offsets as fractions of their panel


def _panel_nodes(a: np.ndarray, b: np.ndarray):
    """Gauss-Legendre nodes/weights for each panel [a_i, b_i]; shapes (n, 10)."""
    half = 0.5 * (b - a)[:, None]
    mid = 0.5 * (b + a)[:, None]
    return mid + half * _GL_X[None, :], half * _GL_W[None, :]


def _at_panel_nodes(pp: PPoly) -> np.ndarray:
    """pp at the Gauss-Legendre nodes of each interval between its breakpoints; shape (n, 10).

    Those nodes sit at the offsets h_i t_q with the same t_q in every
    interval, so the value is sum_p c[d-p, i] h_i^p t_q^p: per-interval
    coefficients times a fixed table of offset powers, with no interval
    search.  Serves a CubicSpline, its derivative() and its antiderivative().
    The terms are summed by ufuncs, so no BLAS call is made, on a (10, n)
    layout whose inner loops run along the intervals, then transposed once.
    """
    c = pp.c
    h = np.diff(pp.x)
    out = np.empty((_GL_T.size, h.size))
    out[:] = c[-1]
    term = np.empty_like(out)
    hp = np.ones_like(h)
    for p in range(1, c.shape[0]):
        hp *= h
        np.multiply((_GL_T**p)[:, None], c[-1 - p] * hp, out=term)
        out += term
    result = term.reshape(h.size, _GL_T.size)  # term's buffer, laid out (n, 10)
    np.copyto(result, out.T)
    return result


def _at_breakpoints(pp: PPoly) -> np.ndarray:
    """pp at its breakpoints: the constant row of its coefficients, then its end value."""
    return np.append(pp.c[-1], pp(pp.x[-1]))


def _on_panel_nodes(f, xs: np.ndarray, name: str = "f") -> np.ndarray:
    """f at the panel nodes xs of its own grid: a RadialProfile's spline by
    _at_panel_nodes, a callable called on xs."""
    if isinstance(f, RadialProfile):
        return _at_panel_nodes(f.interpolator())
    return np.asarray(_as_callable(f, name)(xs))


def cumulative_integral(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """F(nodes[i]) = integral_{nodes[0]}^{nodes[i]} f, panelwise Gauss-Legendre.

    f is called once, on the (n - 1, 10) array of panel nodes.
    """
    xs, ws = _panel_nodes(nodes[:-1], nodes[1:])
    panels = np.sum(np.asarray(f(xs)) * ws, axis=1)
    out = np.empty_like(nodes)
    out[0] = 0.0
    np.cumsum(panels, out=out[1:])
    return out


_SCAN_SPAN = 32.0  # exponent range per scan block; e^{+-32} is far from over- and underflow


def _decay_scan(panel: np.ndarray, x: np.ndarray, scale: float) -> np.ndarray:
    """acc with acc[0] = 0 and acc[i] = e^{-(E_i - E_{i-1})} acc[i-1] + panel[i-1], E = scale x.

    Solved in closed form block by block: with t the block's last node and s
    its first (whose acc is the carry),

        acc_i = e^{E_t - E_i} (e^{-(E_t - E_s)} acc_s + sum_{s <= j < i} panel_j e^{-(E_t - E_{j+1})}),

    where a block adds steps until the variation of E past its first step
    reaches _SCAN_SPAN.  Every factor but the carry's is then within e^{+-32},
    so nothing overflows unless the recurrence itself does, and each exponent
    is formed as scale (x_t - x_i) from nodes within the block, so it carries
    no rounding from far-away nodes.
    """
    acc = np.empty(x.size)
    acc[0] = 0.0
    var = np.cumsum(np.abs(scale * np.diff(x)))
    s = 0
    while s < panel.size:
        t = int(np.searchsorted(var, var[s] + _SCAN_SPAN, side="right"))
        to_end = scale * (x[t] - x[s : t + 1])  # E_t - E_i for i = s .. t
        acc[s + 1 : t + 1] = np.exp(to_end[1:]) * (
            np.exp(-to_end[0]) * acc[s] + np.cumsum(panel[s:t] * np.exp(-to_end[1:])))
        s = t
    return acc


# -------------------------------------------------------- finite differences


def fd_weights(xs: np.ndarray, x0, m: int) -> np.ndarray:
    """Fornberg weights for the m-th derivative at x0 from nodes xs.

    Batched over leading axes: xs of shape (..., n) and x0 of shape (...)
    give weights of shape (..., n); each set takes the same floating-point
    steps as a call for that stencil alone.
    """
    xs = np.asarray(xs, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = xs.shape[-1]
    w = np.zeros((m + 1, n) + xs.shape[:-1])
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[..., 0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[..., i] - x0
        for j in range(i):
            c3 = xs[..., i] - xs[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = (c4 * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return np.moveaxis(w[m], 0, -1)


_STENCIL = 7  # nodes per finite-difference stencil


def _stencils(n: int) -> np.ndarray:
    """Node indices of each node's sliding stencil; shape (n, min(7, n))."""
    stencil = min(_STENCIL, n)
    lo = np.clip(np.arange(n) - stencil // 2, 0, n - stencil)
    return lo[:, None] + np.arange(stencil)


@lru_cache(maxsize=8)
def _stencil_weights(nodes_key: bytes, order: int) -> np.ndarray:
    """Read-only fd_derivative weights for the float nodes whose bytes are nodes_key."""
    nodes = np.frombuffer(nodes_key)
    weights = np.ascontiguousarray(fd_weights(nodes[_stencils(nodes.size)], nodes, order))
    weights.flags.writeable = False
    return weights


def fd_derivative(nodes: np.ndarray, values: np.ndarray, order: int) -> np.ndarray:
    """m-th derivative on an arbitrary grid via sliding 7-node Fornberg stencils.

    The weights are built once per (node values, order) and kept in a small
    cache, so repeated derivatives on one grid share them.
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = _stencil_weights(nodes.tobytes(), order)
    return np.sum(weights * np.asarray(values)[_stencils(nodes.size)], axis=1)


def radial_laplacian_fd(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """u'' + u'/r by finite differences; 2 u''(0) at an origin node (regularity)."""
    d1 = fd_derivative(nodes, values, 1)
    d2 = fd_derivative(nodes, values, 2)
    out = np.empty_like(d1)
    if nodes[0] == 0.0:
        out[0] = 2.0 * d2[0]
        out[1:] = d2[1:] + d1[1:] / nodes[1:]
    else:
        out = d2 + d1 / nodes
    return out


# -------------------------------------------------------------- corrector K


def solve_corrector_K(g_far, b: float, grid: RadialGrid | None = None) -> RadialProfile:
    """Solve Laplacian_0 K = -b g_far with K(1) = 0.

    K(r) = -b * integral_1^r (1/s) m(s) ds with m(s) = integral_0^s g_far t dt,
    taken by parts: K(r) = -b (m(r) log r - (n(r) - n(1))) with
    n(s) = integral_0^s g_far t log t dt.  m and n are two cumulative_integral
    passes; n(1) is interpolated linearly between the nodes, exact when r = 1
    is a node.  g_far may be a RadialProfile (grid taken from it) or a
    callable with an explicit grid.  The source must vanish on [0, 1).
    """
    if isinstance(g_far, RadialProfile):
        grid = g_far.grid
        inside = g_far.grid.nodes < 1.0
        if np.any(np.abs(g_far.values[inside]) > 0.0):
            raise DomainError("corrector source must vanish for r < 1")
    elif grid is None:
        raise ConfigError("callable source needs an explicit grid")
    nodes = grid.nodes
    if not grid.has_origin:
        raise ConfigError("corrector grid must be anchored at r = 0")
    if grid.r_max <= 1.0:
        raise ConfigError("corrector grid must extend past r = 1")

    xs, _ = _panel_nodes(nodes[:-1], nodes[1:])
    gs = _on_panel_nodes(g_far, xs, "g_far") * xs
    m = cumulative_integral(lambda _: gs, nodes)
    n = cumulative_integral(lambda _: gs * np.log(xs), nodes)
    # m(0) = 0, so log r may read 0 at the origin
    log_r = np.log(nodes, out=np.zeros_like(nodes), where=nodes > 0.0)
    return RadialProfile(grid, -b * (m * log_r - (n - np.interp(1.0, nodes, n))))


# ------------------------------------------------------------- L_lam inverse


def apply_inverse_L_lambda(f: RadialProfile, lam: float) -> RadialProfile:
    """u = L_lam^{-1} f with L_lam = d/dr + 1/r + lam, lam > 0, on f's grid.

    u(r) = (1/r) e^{-lam r} integral_0^r e^{lam s} f(s) s ds, accumulated
    panelwise with the factor e^{lam (s - r_panel_end)} kept inside each panel
    and the panels summed by a blocked scan (_decay_scan), so nothing overflows.
    """
    if not lam > 0.0:
        raise DomainError(f"L_lambda inverse needs lam > 0, got {lam}")
    grid = f.grid
    if not grid.has_origin:
        raise ConfigError("L_lambda inverse integrates from the origin; "
                          "the grid must start at r = 0")
    nodes = grid.nodes

    xs, ws = _panel_nodes(nodes[:-1], nodes[1:])
    # integral over panel i of e^{lam (s - nodes[i+1])} f(s) s ds; exponent <= 0
    fs = _at_panel_nodes(f.interpolator())
    panel = np.sum(np.exp(lam * (xs - nodes[1:, None])) * fs * xs * ws, axis=1)
    # acc[i] = e^{-lam r_i} integral_0^{r_i} e^{lam s} f s ds
    acc = _decay_scan(panel, nodes, lam)
    u = np.empty_like(nodes)
    u[0] = 0.0
    u[1:] = acc[1:] / nodes[1:]
    return RadialProfile(grid, u)


# ----------------------------------------------------------------- far field


@dataclass(frozen=True)
class FarFieldAnsatz:
    """Far-field profile parameters: phi0 = -(1/b) chi(L r) log K0(L r)."""

    decay_rate: float  # Lambda
    b: float

    def __post_init__(self):
        if not self.decay_rate > 0.0:
            raise ConfigError(f"decay_rate must be > 0, got {self.decay_rate}")
        if not self.b > 0.0:
            raise ConfigError(f"b must be > 0, got {self.b}")

    @property
    def frequency(self) -> float:
        """Omega with Lambda^2 = b Omega."""
        return self.decay_rate**2 / self.b


def _phi0_terms(ansatz: FarFieldAnsatz, r: np.ndarray):
    """(phi0, phi0', Laplacian_0 phi0) on r > 0, analytic except chi-derivatives.

    phi0 is zero inside the cut-off and -(1/b) log K0(L r) far out.
    """
    from .profiles import CutoffSpec, cutoff_derivatives

    lam, b = ansatz.decay_rate, ansatz.b
    z = lam * r
    phi = np.zeros_like(r)
    dphi = np.zeros_like(r)
    lap = np.zeros_like(r)
    act = z > 1.0
    if not np.any(act):
        return phi, dphi, lap
    za = z[act]
    ra = r[act]
    # chi and its r-derivatives; each rebinding frees the array it replaces
    c, dc, d2c = cutoff_derivatives(CutoffSpec("chi"), za)
    dc = lam * dc
    d2c = lam * lam * d2c
    u = bessel_k0_scaled(za)
    rat = -bessel_k1_scaled(za) / u  # K0'/K0, as log_k0_ratio
    u = np.log(u) - za  # log K0
    du = lam * rat
    d2u = lam * lam * (1.0 - rat / za - rat * rat)
    phi[act] = -(c * u) / b
    dphi[act] = -(dc * u + c * du) / b
    d2 = -(d2c * u + 2.0 * dc * du + c * d2u) / b
    lap[act] = d2 + dphi[act] / ra
    return phi, dphi, lap


def far_field_phi0_grad(ansatz: FarFieldAnsatz, r):
    """d phi0 / dr; tends to Lambda/b from above as r grows."""
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    _, dphi, _ = _phi0_terms(ansatz, r)
    return float(dphi[0]) if scalar else dphi


def _source(ansatz: FarFieldAnsatz, dphi: np.ndarray, lap: np.ndarray) -> np.ndarray:
    """S = Laplacian_0 phi0 - b (phi0')^2 + Omega from two of _phi0_terms."""
    return lap - ansatz.b * dphi**2 + ansatz.frequency


@dataclass(frozen=True)
class CorrectionResult:
    """Newton solve output: psi = d(phi1)/dr plus iteration diagnostics."""

    psi: RadialProfile
    iterations: int
    converged: bool
    rates: tuple[float, ...]
    residual_sup: float


# the Newton sweeps stop once the sup of an update is below FAR_FIELD_TOL,
# and give up unconverged after FAR_FIELD_MAX_ITER of them
FAR_FIELD_TOL = 1e-8
FAR_FIELD_MAX_ITER = 200


def solve_far_field_correction(
    ansatz: FarFieldAnsatz,
    g=None,
    eps: float = 0.0,
    grid: RadialGrid | None = None,
) -> CorrectionResult:
    """Newton solve of the first-order correction equation.

    Solves, for psi = d(phi1)/dr,

        psi' + psi/r - 2 b phi0' psi - b psi^2 + S - eps g = 0

    on the decay-at-infinity solution branch, by Newton sweeps whose
    linearized operators are inverted exactly through their integrating
    factors (backward accumulation keeps every exponent bounded; phi0 is
    nondecreasing).  Lagging the linear terms behind an L_{2 lam}
    preconditioner instead is not an option: that map's far-field Neumann
    gain is (2 lam + 2 b phi0')/(2 lam) -> 2, so it diverges for any source.
    The source is weighted by the cut-off shape so only the far region
    lam r >= 1 drives it (the core is matched separately, so the constant
    frequency part inside the cut-off must not enter).
    """
    b = ansatz.b
    if grid is None:
        lam0 = ansatz.decay_rate
        grid = RadialGrid(np.linspace(0.5 / lam0, 10.0 / lam0, 4001))
    if grid.has_origin:
        raise ConfigError(
            "far-field correction grid must start at r > 0: the decaying "
            "branch grows like 1/r toward the origin"
        )
    nodes = grid.nodes
    # the ansatz once per grid: (phi0, phi0', Laplacian_0 phi0) on the nodes
    # and on the panel nodes
    phi0, dphi0, lap0 = _phi0_terms(ansatz, nodes)
    coef = -2.0 * b * dphi0
    src = _source(ansatz, dphi0, lap0)
    if g is not None and eps != 0.0:
        src = src - eps * np.asarray(_as_callable(g, "g")(nodes), dtype=float)
    # restrict smoothly to the far region with the same cut-off shape the
    # ansatz uses; a hard mask would put a kink into psi and pollute the
    # residual diagnostic near lam r = 1
    from scipy.interpolate import CubicSpline

    from .profiles import CutoffSpec, smooth_cutoff

    src = smooth_cutoff(CutoffSpec(), ansatz.decay_rate * nodes) * src

    # Newton sweeps: each update solves
    #   delta' + delta/r - 2 b (phi0' + psi) delta = -R(psi)
    # through the integrating factor mu = r e^{-w}, w = 2 b (phi0 + int psi),
    # accumulated backward panel by panel so exponents stay bounded.  Lagging
    # only the quadratic term is not enough: its feedback gain scales like
    # eps A Lambda^{2p-2}/2 near the collar and exceeds one in exactly the
    # slowly-decaying regimes this family is about.
    w_phi0_nodes = 2.0 * b * phi0
    xs, ws = _panel_nodes(nodes[:-1], nodes[1:])
    phi0_xs, dphi0_xs, _ = _phi0_terms(ansatz, xs)
    w_phi0_xs = 2.0 * b * phi0_xs
    src_xs = _at_panel_nodes(CubicSpline(nodes, src))

    def newton_step(psi: np.ndarray) -> np.ndarray:
        spl = CubicSpline(nodes, psi)
        anti = spl.antiderivative()
        w_nodes = w_phi0_nodes + 2.0 * b * _at_breakpoints(anti)
        w_xs = w_phi0_xs + 2.0 * b * _at_panel_nodes(anti)
        psi_xs = _at_panel_nodes(spl)
        dpsi_xs = _at_panel_nodes(spl.derivative())
        resid = (dpsi_xs + psi_xs / xs - 2.0 * b * dphi0_xs * psi_xs
                 - b * psi_xs * psi_xs + src_xs)
        # a diverging iterate overflows these exponents; the caller turns the
        # resulting non-finite update into a NonContractionError
        with np.errstate(over="ignore", invalid="ignore"):
            panel = np.sum(np.exp(w_nodes[:-1, None] - w_xs) * xs * ws * resid, axis=1)
            # bb[i] = e^{w_i - w_{i+1}} bb[i+1] + panel[i] from bb[-1] = 0
            bb = _decay_scan(panel[::-1], w_nodes[::-1], -1.0)[::-1]
        return bb / nodes

    psi = np.zeros_like(nodes)
    damping = 1.0
    diffs: list[float] = []
    grow = 0
    shrink = 0
    converged = False
    it = 0
    for it in range(1, FAR_FIELD_MAX_ITER + 1):
        delta = newton_step(psi)
        if not np.all(np.isfinite(delta)):
            raise NonContractionError(
                "fixed-point iteration diverged; reduce eps",
                last_iterate=RadialProfile(grid, psi),
            )
        diff = float(np.max(np.abs(delta)))
        if diffs and diff > diffs[-1]:
            grow += 1
            shrink = 0
            damping = 0.5
        else:
            grow = 0
            shrink += 1
            if shrink >= 3:
                damping = 1.0
        diffs.append(diff)
        psi = psi + damping * delta
        if grow >= 5:
            raise NonContractionError(
                "fixed-point iteration diverged; reduce eps",
                last_iterate=RadialProfile(grid, psi),
            )
        if diff < FAR_FIELD_TOL:
            converged = True
            break

    profile = RadialProfile(grid, psi)
    residual = correction_residual(profile, coef, b, src)
    rates = tuple(
        diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1) if diffs[i] > 0
    )
    return CorrectionResult(profile, it, converged, rates, residual)


def correction_residual(psi: RadialProfile, coef: np.ndarray, b: float, src: np.ndarray) -> float:
    """sup |psi' + psi/r + coef psi - b psi^2 ... | on the interior nodes."""
    nodes = psi.grid.nodes
    vals = psi.values
    dpsi = fd_derivative(nodes, vals, 1)
    res = dpsi[1:] + vals[1:] / nodes[1:] + coef[1:] * vals[1:] - b * vals[1:] ** 2 + src[1:]
    # one-sided stencils at the very ends are noisier; report the interior
    k = min(4, len(res) // 8)
    return float(np.max(np.abs(res[k : len(res) - k if k else None])))


# ----------------------------------------------------------------- Hopf-Cole


def hopf_cole_residual(phi: RadialProfile, g, eps: float, omega: float, b: float) -> float:
    """Residual of the conjugated eigenproblem for Psi = e^{-b phi}.

    Checks sup |Laplacian Psi + b eps g Psi - b omega Psi| / sup |Psi| with a
    finite-difference radial Laplacian (for b = 1 this is the familiar
    Omega Psi = Laplacian Psi + eps g Psi).
    """
    nodes = phi.grid.nodes
    try:
        with np.errstate(over="raise"):
            psi = np.exp(-b * phi.values)
    except FloatingPointError:
        raise RangeError(
            "e^{-b phi} overflows on the grid; shift phi by its gauge constant"
        ) from None
    if np.count_nonzero(psi == 0.0) > psi.size / 2:
        raise RangeError(
            "e^{-b phi} underflows on most of the grid; shift phi by its gauge constant"
        )
    gv = np.zeros_like(nodes) if g is None else np.asarray(_as_callable(g, "g")(nodes), dtype=float)
    lap = radial_laplacian_fd(nodes, psi)
    resid = lap + b * eps * gv * psi - b * omega * psi
    return float(np.max(np.abs(resid)) / np.max(np.abs(psi)))


# ------------------------------------------------------------------ shooting


@dataclass(frozen=True)
class ShootingSolution:
    """Amplitude BVP solution: profile rho*, slope at the origin, and |rho(r_max) - 1|.

    `tail_residual` is about 1/(2 r_max^2) by design (1.257e-3 at r_max = 20):
    the separatrix approaches 1 only algebraically, so it measures the window
    end's distance from the far-field value, not a solver error.
    """

    profile: RadialProfile
    slope_origin: float
    tail_residual: float
    # always 0: the slope comes from one boundary-value solve, not a bisection;
    # kept only because perfbench/tracer.py notes it
    bisections: int = 0


# far-field series rho = 1 - sum_{k>=1} c_k / r^(2k) of every solution with rho(inf) = 1
_FAR_SERIES = (0.5, 9.0 / 8.0, 161.0 / 16.0)


def _amplitude_rhs(r, y):
    rho, drho = y
    return (drho, rho / (r * r) - drho / r - rho + rho**3)


def solve_bvp(*args, **kwargs):
    """scipy.integrate.solve_bvp, imported on the first shot: scipy.integrate
    pulls in scipy.optimize, linalg, sparse and spatial, which no run needs."""
    from scipy.integrate import solve_bvp

    return solve_bvp(*args, **kwargs)


# the launch radius of the BVP and the node count of the reported profile
_R0 = 1e-3
_N_PROFILE = 2001
# solve_bvp's tolerance is tol / 100, floored at 1e-10: below it only the node
# count grows (about 1900 nodes at 1e-10, 8900 at 1e-12, beyond max_nodes at
# 2.3e-14).  At 1e-12 a solve took 0.34 s against 23 ms on 2 vCPU, for a
# slope 1.5e-13 instead of 2.0e-13 off its frozen value
_BVP_TOL_MIN = 1e-10


def validate_shooting(r_max: float, tol: float) -> None:
    """ConfigError unless 20 <= r_max <= 1e4 and 0 < tol <= 1e-6.

    The BVP mesh has ten nodes per unit length, so r_max bounds its cost:
    r_max = 1e4 took 2.6 s and a 261 MB peak RSS on a 2-vCPU machine."""
    if not 20.0 <= r_max <= 1e4:
        raise ConfigError(f"r_max must be finite and >= 20 and <= 1e4, got {r_max}")
    if not 0.0 < tol <= 1e-6:
        raise ConfigError(f"tol must be in (0, 1e-6], got {tol}")


def shoot_spiral_amplitude(r_max: float = 20.0, tol: float = 1e-8) -> ShootingSolution:
    """Solve rho'' + rho'/r - rho/r^2 + rho - rho^3 = 0, rho(0)=0, rho(inf)=1.

    One collocation solve (scipy's solve_bvp, tolerance max(tol/100, 1e-10))
    on [r0, r_max + 10], r0 = 1e-3.  At r0 the regular-origin condition
    rho'(r0) (r0 - r0^3/8) = rho(r0) (1 - 3 r0^2/8) puts the solution on the
    origin series rho = s (r - r^3/8) + O(r^5) of some slope s; at
    r_max + 10 the three-term far-field series
    rho = 1 - 1/(2 r^2) - 9/(8 r^4) - 161/(16 r^6) fixes the value.  The
    initial guess is the one-dimensional kink tanh(r/sqrt 2) on a mesh of ten
    nodes per unit length.

    Nothing is integrated outward along the unstable mode e^{sqrt 2 r}, which
    no launch slope in double precision can suppress out to r_max (a slope
    ulp grows to 3e-5 in 1 - rho(20)).  The error of the series end
    condition decays inward as e^{-sqrt 2 (r_max + 10 - r)}, so the reported
    window sits on the separatrix tail: 1 - rho(20) = 1.2572e-3, within
    1.7e-7 of 1/(2 r^2) + 9/(8 r^4).  The slope at the origin is
    s = rho(r0) / (r0 - r0^3/8), and the profile below r0 is s r.  A failed
    solve raises NumericalError; inputs are checked by `validate_shooting`.
    """
    validate_shooting(r_max, tol)
    r_far = r_max + 10.0
    rho_far = 1.0 - sum(c / r_far ** (2 * k + 2) for k, c in enumerate(_FAR_SERIES))
    # the origin series rho = s (r - r^3/8) + O(r^5) and its slope at r0, per unit s
    c_rho, c_drho = _R0 - _R0**3 / 8.0, 1.0 - 3.0 * _R0**2 / 8.0
    mesh = np.linspace(_R0, r_far, int(10 * (r_far - _R0)) + 1)
    kink = mesh / math.sqrt(2.0)
    # cosh overflows past 710; the guess cosh^-2 is 0 there either way
    bvp = solve_bvp(
        _amplitude_rhs,
        lambda ya, yb: np.array([ya[1] * c_rho - ya[0] * c_drho, yb[0] - rho_far]),
        mesh,
        np.vstack((np.tanh(kink), np.cosh(np.minimum(kink, 700.0)) ** -2 / math.sqrt(2.0))),
        tol=max(tol / 100.0, _BVP_TOL_MIN),
        max_nodes=100 * mesh.size,
    )
    if not bvp.success:
        raise NumericalError(f"amplitude BVP on [{_R0:g}, {r_far:g}] failed: {bvp.message}")

    slope = float(bvp.y[0, 0]) / c_rho
    nodes = np.linspace(0.0, r_max, _N_PROFILE)
    vals = np.zeros_like(nodes)
    solved = nodes >= _R0
    vals[solved] = bvp.sol(nodes[solved])[0]
    # fill the gap below _R0 linearly (rho ~ s r there)
    gap = (nodes > 0) & ~solved
    vals[gap] = slope * nodes[gap]
    profile = RadialProfile(RadialGrid(nodes), vals)
    return ShootingSolution(profile, slope, abs(float(vals[-1]) - 1.0))
