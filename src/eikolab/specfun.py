"""Modified Bessel functions K0, K1 and the logarithmic-derivative ratio.

Three regimes stitched together for ~1e-14 relative accuracy on (0, inf):

* z <= 2          ascending series with explicit harmonic-number sums,
* 2 < z < 16      Chebyshev fits of e^z sqrt(z) K_nu(z) (coefficients frozen
                  below, computed once against a high-precision series oracle),
* z >= 16         divergent asymptotic series truncated at its useful depth.

The plain asymptotic series saturates near 1.6e-8 at z = 8, so the middle
region is carried by the Chebyshev fits up to 16 instead.  Scaled variants
e^z K0(z), e^z K1(z) avoid underflow in far-field work; K0 itself underflows
to 0 around z ~ 745 and bessel_eval flags that case.

Float/array contract: bessel_k0_scaled, bessel_k1_scaled and log_k0_ratio
take a float or an array_like.  A float (or any scalar) in gives a float out
through an `if` on the regime; an array in gives an array of the same shape,
each regime evaluated once on its mask, so nothing loops over points.  Both
paths run the same regime kernels.  They agree bitwise for z > 2; in the
series regime np.log/np.exp may round differently from math.log/math.exp,
which the cancellation near z = 2 magnifies to a few tens of ulp at most.
An array with any element <= 0, NaN or inf raises DomainError.
bessel_eval, bessel_k0 and bessel_k1 take floats only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.57721566490153286061

_SERIES_HI = 2.0
_ASYM_LO = 16.0
# exp(-z) underflows to subnormal-free zero past this point
_UNDERFLOW_Z = 746.0

REGIME_SERIES = "series"
REGIME_UNIFORM = "uniform"
REGIME_ASYMPTOTIC = "asymptotic"

# Chebyshev coefficients of e^z sqrt(z) K_nu(z) on [2, 16], T_j(x) basis with
# x = (z - 9) / 7.  Frozen from a 60-digit ascending-series evaluation.
_CHEB_LO, _CHEB_HI = 2.0, 16.0
_CHEB_K0 = (
    1.228921688974335,
    0.021531971640245676,
    -0.00954408877252118,
    0.004246830914310162,
    -0.0018963724864440605,
    0.0008495261453452613,
    -0.0003816857836115127,
    0.00017195167520462113,
    -7.765772494370708e-05,
    3.515259778628043e-05,
    -1.5945940234791636e-05,
    7.247627441953945e-06,
    -3.3001552915575814e-06,
    1.5052592924077068e-06,
    -6.876659004858706e-07,
    3.146214039271718e-07,
    -1.441461519782309e-07,
    6.612791825466533e-08,
    -3.0373850058421487e-08,
    1.3967448138899339e-08,
    -6.4299574504541776e-09,
    2.9631033664199004e-09,
    -1.3668129676342957e-09,
    6.31063014500954e-10,
    -2.9161989210288735e-10,
    1.3487246149588148e-10,
    -6.242714220350336e-11,
    2.8916865177017803e-11,
    -1.3404210377720657e-11,
    6.217692475433114e-12,
    -2.8860365783331147e-12,
    1.3404367051108467e-12,
    -6.229453473748856e-13,
    2.8966562035212007e-13,
    -1.347580958934901e-13,
    6.270643610924915e-14,
    -2.9153516517127706e-14,
    1.3474573622747055e-14,
    -6.046140721026375e-15,
    2.315555393357034e-15,
)
_CHEB_K1 = (
    1.3306556118909518,
    -0.07074331288146936,
    0.03244649861379326,
    -0.014919498695532893,
    0.006875877546085943,
    -0.003175331550789844,
    0.0014690953989742474,
    -0.0006808244017666969,
    0.0003159935275559446,
    -0.00014686594047073163,
    6.834592168577737e-05,
    -3.1842519690268796e-05,
    1.485132962592095e-05,
    -6.933467900251345e-06,
    3.23989483425428e-06,
    -1.515227439878419e-06,
    7.091945822988734e-07,
    -3.3217760337957594e-07,
    1.5569388134617475e-07,
    -7.302135098538689e-08,
    3.426793161513488e-08,
    -1.6090507877445202e-08,
    7.559288722824389e-09,
    -3.5531057934372237e-09,
    1.670856533490717e-09,
    -7.860728001148486e-10,
    3.699717871923263e-10,
    -1.7419958342773704e-10,
    8.205204881066953e-11,
    -3.8662269372541795e-11,
    1.8223557843311356e-11,
    -8.592500082692402e-12,
    4.052645423459444e-12,
    -1.911958909136402e-12,
    9.022114764932929e-13,
    -4.2570559709129546e-13,
    2.0061745031728155e-13,
    -9.392694813289497e-14,
    4.2631935944730034e-14,
    -1.646541489159996e-14,
)
# K_nu(z) ~ sqrt(pi/(2z)) e^{-z} sum_k c_k / z^k
_ASYM_K0 = (
    1.0,
    -0.125,
    0.0703125,
    -0.0732421875,
    0.112152099609375,
    -0.22710800170898438,
    0.5725014209747314,
    -1.7277275025844574,
    6.074042001273483,
    -24.380529699556064,
    110.01714026924674,
    -551.3358961220206,
    3038.090510922384,
    -18257.755474293175,
    118838.42625678325,
    -832859.3040162893,
    6252951.493434797,
    -50069589.531988926,
    425939216.5047669,
    -3836255180.2304335,
    36468400807.06556,
    -364901081884.98334,
    3833534661393.9443,
    -42189715702840.97,
    485401468685290.06,
    -5827244631566907.0,
)
_ASYM_K1 = (
    1.0,
    0.375,
    -0.1171875,
    0.1025390625,
    -0.144195556640625,
    0.2775764465332031,
    -0.6765925884246826,
    1.993531733751297,
    -6.883914268109947,
    27.248827311268542,
    -121.59789187653587,
    603.8440767050702,
    -3302.2722944808525,
    19718.37591223663,
    -127641.2726461746,
    890297.8767070678,
    -6656367.718817688,
    53104110.10968523,
    -450278600.3050393,
    4043620325.107754,
    -38338575207.427895,
    382701134659.8606,
    -4011838599133.1978,
    44064814178522.79,
    -506056850331472.6,
    6065091351222699.0,
)


@dataclass(frozen=True)
class BesselEval:
    """One evaluation of K0 and K1 with the regime that produced it."""

    z: float
    k0: float
    k1: float
    regime: str
    underflow: bool = False


def _check_domain(z):
    """z as a float (scalar input) or a float ndarray (array_like input).

    Every element must be > 0 and finite; one bad element rejects the call.
    """
    if isinstance(z, float) or np.ndim(z) == 0:
        z = float(z)
        if not z > 0.0 or math.isinf(z) or math.isnan(z):
            _reject(z)
        return z
    z = np.asarray(z, dtype=float)
    bad = ~((z > 0.0) & np.isfinite(z))
    if bad.any():
        _reject(z[bad][0])
    return z


def _reject(z):
    from .errors import DomainError

    raise DomainError(f"K0/K1 need z > 0 and finite, got {z}")


def _settled(done) -> bool:
    """True once a convergence test holds: a bool on the float path, a mask on arrays."""
    return done if isinstance(done, bool) else bool(done.all())


# Each regime kernel below is plain arithmetic on a float or an ndarray; xp is
# the math module on the float path and numpy on the array path.  The series
# loops run until every point has converged: terms past a point's own stopping
# test are below half an ulp of its sums.


def _k0_series(z, xp):
    q = 0.25 * z * z
    term, i0, s, h = 1.0, 1.0, 0.0, 0.0
    k = 0
    while True:
        k += 1
        term *= q / (k * k)
        h += 1.0 / k
        i0 += term
        s += term * h
        if _settled(term * (h + 1.0) < 1e-18 * (i0 + abs(s))):
            break
    return -(xp.log(0.5 * z) + EULER_GAMMA) * i0 + s


def _k1_series(z, xp):
    # K1 = 1/z + log(z/2) I1 - (z/4) sum (psi(k+1)+psi(k+2)) q^k / (k! (k+1)!)
    q = 0.25 * z * z
    term, i1s, h = 1.0, 1.0, 0.0
    s = 1.0 - 2.0 * EULER_GAMMA
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + 1))
        h += 1.0 / k
        coef = 2.0 * h + 1.0 / (k + 1) - 2.0 * EULER_GAMMA
        i1s += term
        s += term * coef
        if _settled(term * (abs(coef) + 1.0) < 1e-18 * (i1s + abs(s))):
            break
    i1 = 0.5 * z * i1s
    return 1.0 / z + xp.log(0.5 * z) * i1 - 0.25 * z * s


def _cheb(coeffs, z):
    # Clenshaw on [2, 16]
    x = (2.0 * z - (_CHEB_LO + _CHEB_HI)) / (_CHEB_HI - _CHEB_LO)
    b0 = b1 = 0.0
    for c in reversed(coeffs):
        b0, b1 = c + 2.0 * x * b0 - b1, b0
    return b0 - x * b1


def _asym_sum(coeffs, z):
    s, zk = 0.0, 1.0
    for c in coeffs:
        s += c / zk
        zk *= z
    return s


def _series_pair(z, xp):
    ez = xp.exp(z)
    return ez * _k0_series(z, xp), ez * _k1_series(z, xp)


def _uniform_pair(z, xp):
    rs = 1.0 / xp.sqrt(z)
    return _cheb(_CHEB_K0, z) * rs, _cheb(_CHEB_K1, z) * rs


def _asymptotic_pair(z, xp):
    pref = xp.sqrt(xp.pi / (2.0 * z))
    return pref * _asym_sum(_ASYM_K0, z), pref * _asym_sum(_ASYM_K1, z)


def _scaled_pair(z: float) -> tuple[float, float, str]:
    """(e^z K0, e^z K1, regime) for one float."""
    if z <= _SERIES_HI:
        return (*_series_pair(z, math), REGIME_SERIES)
    if z < _ASYM_LO:
        return (*_uniform_pair(z, math), REGIME_UNIFORM)
    return (*_asymptotic_pair(z, math), REGIME_ASYMPTOTIC)


def _scaled(z):
    """(e^z K0, e^z K1) for a checked float or ndarray, one regime mask at a time."""
    if isinstance(z, float):
        return _scaled_pair(z)[:2]
    s0, s1 = np.empty_like(z), np.empty_like(z)
    series = z <= _SERIES_HI
    asym = z >= _ASYM_LO
    for mask, pair in ((series, _series_pair), (~(series | asym), _uniform_pair),
                       (asym, _asymptotic_pair)):
        if mask.any():
            s0[mask], s1[mask] = pair(z[mask], np)
    return s0, s1


def bessel_k0_scaled(z):
    """e^z K0(z); stays O(1/sqrt(z)) for large z.  Elementwise on arrays."""
    return _scaled(_check_domain(z))[0]


def bessel_k1_scaled(z):
    """e^z K1(z).  Elementwise on arrays."""
    return _scaled(_check_domain(z))[1]


def bessel_eval(z: float) -> BesselEval:
    """Evaluate K0 and K1 together, recording regime and underflow."""
    z = _check_domain(float(z))
    s0, s1, regime = _scaled_pair(z)
    if z >= _UNDERFLOW_Z:
        return BesselEval(z, 0.0, 0.0, regime, underflow=True)
    damp = math.exp(-z)
    return BesselEval(z, s0 * damp, s1 * damp, regime)


def bessel_k0(z: float) -> float:
    """K0(z) for z > 0; returns 0.0 once e^{-z} underflows."""
    return bessel_eval(z).k0


def bessel_k1(z: float) -> float:
    """K1(z) for z > 0; returns 0.0 once e^{-z} underflows."""
    return bessel_eval(z).k1


def log_k0_ratio(z):
    """d/dz log K0(z) = -K1(z)/K0(z), evaluated without overflow.

    Strictly below -1 for all z > 0 and tends to -1 from below as z grows.
    Elementwise on arrays.
    """
    s0, s1 = _scaled(_check_domain(z))
    return -s1 / s0
