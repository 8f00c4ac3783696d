"""The plane's locked frequency, an oracle independent of the periodic stepper.

w = exp(-b phi) turns phi_t = Lap phi - b|grad phi|^2 - eps g into
w_t = Lap w + b eps g w.  On the plane the locked state is the radial ground
state w'' + w'/r + (b eps g - kappa^2) w = 0, bounded at 0 and decaying like
K0(kappa r), with Omega = kappa^2/b and far-field wavenumber kappa/b.  One
`solve_bvp` finds it for v = r w'/w in s = log r, with log kappa the unknown
parameter:

    v_s = r^2 (kappa^2 - b eps g) - v^2,

from the regular start v = (kappa^2 - b eps g(r0)) r0^2 / 2 at r0 = 1e-3 to
the decaying tail v = -qR K1(qR)/K0(qR), q^2 = kappa^2 - b eps g(R), at
R = max(60/kappa0, 300).  At tol 1e-10 the collocation refines the 400
starting nodes to a few thousand (about 3800 at p = 0.8, a = 1.05), past
solve_bvp's default max_nodes of 1000.
"""
import math

import numpy as np
from scipy.integrate import solve_bvp
from scipy.special import k0e, k1e

from eikolab.profiles import evaluate_g

R0 = 1e-3


def plane_kappa(defect, b: float, kappa0: float) -> float:
    """kappa of the plane's locked state for the defect (its strength is eps),
    from the guess v = -kappa0 r tanh(kappa0 r) on 400 log-spaced nodes."""
    big_r = max(60.0 / kappa0, 300.0)
    s = np.linspace(math.log(R0), math.log(big_r), 400)

    def pot(r):  # b eps g
        return b * evaluate_g(defect, r)

    def rhs(s, v, p):
        r = np.exp(s)
        return r * r * (math.exp(2.0 * p[0]) - pot(r)) - v * v

    def ends(va, vb, p):
        kappa2 = math.exp(2.0 * p[0])
        qr = math.sqrt(kappa2 - pot(big_r)) * big_r
        return np.array([va[0] - 0.5 * (kappa2 - pot(R0)) * R0 * R0,
                         vb[0] + qr * k1e(qr) / k0e(qr)])

    r = np.exp(s)
    guess = -kappa0 * r * np.tanh(kappa0 * r)
    sol = solve_bvp(rhs, ends, s, guess[None, :], p=[math.log(kappa0)], tol=1e-10,
                    max_nodes=100_000)
    assert sol.success, sol.message
    return math.exp(sol.p[0])
