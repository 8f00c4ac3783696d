"""Modified Bessel functions K0, K1 and the logarithmic-derivative ratio.

Values come from scipy.special.k0e/k1e, the exponentially scaled e^z K0(z)
and e^z K1(z), which stay O(1/sqrt(z)) where the bare functions underflow.
Against the frozen 60-digit series table in tests/data they agree to a few
ulp on (0, 700].  K0 itself rounds to 0 from z = 742.09 on, and bessel_eval
flags that case.

Float/array contract: bessel_k0_scaled, bessel_k1_scaled and log_k0_ratio
take a float or an array_like.  A float (or any scalar) in gives a float out;
an array in gives an array of the same shape.  Both paths run the same
compiled ufuncs, so they agree bitwise.  An array with any element <= 0, NaN
or inf raises DomainError.  bessel_eval, bessel_k0 and bessel_k1 take floats
only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import k0e, k1e

from .errors import DomainError

EULER_GAMMA = 0.57721566490153286061


@dataclass(frozen=True)
class BesselEval:
    """One evaluation of K0 and K1, flagged when K0 underflows to 0."""

    z: float
    k0: float
    k1: float
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
    raise DomainError(f"K0/K1 need z > 0 and finite, got {z}")


def _scaled(ufunc, z):
    """ufunc (k0e or k1e) on a checked float or ndarray, a float for a float."""
    out = ufunc(z)
    return float(out) if isinstance(z, float) else out


def bessel_k0_scaled(z):
    """e^z K0(z); stays O(1/sqrt(z)) for large z.  Elementwise on arrays."""
    return _scaled(k0e, _check_domain(z))


def bessel_k1_scaled(z):
    """e^z K1(z).  Elementwise on arrays."""
    return _scaled(k1e, _check_domain(z))


def bessel_eval(z: float) -> BesselEval:
    """Evaluate K0 and K1 together, recording underflow."""
    z = _check_domain(float(z))
    s0, s1 = _scaled(k0e, z), _scaled(k1e, z)
    damp = math.exp(-z)
    k0 = s0 * damp
    return BesselEval(z, k0, s1 * damp, underflow=k0 == 0.0)


def bessel_k0(z: float) -> float:
    """K0(z) for z > 0; returns 0.0 once it underflows."""
    return bessel_eval(z).k0


def bessel_k1(z: float) -> float:
    """K1(z) for z > 0; returns 0.0 once it underflows."""
    return bessel_eval(z).k1


def log_k0_ratio(z):
    """d/dz log K0(z) = -K1(z)/K0(z), evaluated without overflow.

    Strictly below -1 for all z > 0 and tends to -1 from below as z grows.
    Elementwise on arrays.
    """
    z = _check_domain(z)
    return -_scaled(k1e, z) / _scaled(k0e, z)
