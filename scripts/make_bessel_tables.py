#!/usr/bin/env python3
"""Regenerate the frozen Bessel reference table.

tests/data/bessel_oracle.json holds K0 and K1 on the 200-point log-spaced
test grid on [1e-3, 50] plus probes, 32 significant digits each.  The values
are computed from first principles with mpmath arbitrary-precision arithmetic
(ascending series with explicit harmonic sums; never mpmath.besselk, so the
reference stays independent of any library implementation).

Run from the repository root:

    python3 scripts/make_bessel_tables.py
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 60


def k0_reference(z) -> mp.mpf:
    """K0 by the ascending series; working precision grows with z.

    K0 = -(log(z/2) + gamma) I0(z) + sum_k H_k q^k / (k!)^2,  q = z^2/4.
    The series alternates against the exponentially large I0 for big z, so
    the working precision carries ~0.9 z/ln(10) guard digits.
    """
    z = mp.mpf(z)
    extra = int(0.9 * float(z)) + 30
    with mp.workdps(60 + extra):
        q = z * z / 4
        term = mp.mpf(1)
        i0 = mp.mpf(1)
        s = mp.mpf(0)
        h = mp.mpf(0)
        k = 0
        while True:
            k += 1
            term *= q / (k * k)
            h += mp.mpf(1) / k
            i0 += term
            s += term * h
            if term * (h + 1) < mp.mpf(10) ** (-(60 + extra)) * (abs(s) + i0):
                break
        return -(mp.log(z / 2) + mp.euler) * i0 + s


def k1_reference(z) -> mp.mpf:
    """K1 = 1/z + log(z/2) I1(z) - (z/4) sum_k (H_k + H_{k+1} - 2 gamma) ...

    Same ascending-series construction as k0_reference; the digamma values
    psi(k+1) + psi(k+2) are carried as explicit harmonic numbers.
    """
    z = mp.mpf(z)
    extra = int(0.9 * float(z)) + 30
    with mp.workdps(60 + extra):
        q = z * z / 4
        term = mp.mpf(1)
        i1s = mp.mpf(1)
        h = mp.mpf(0)
        s = -2 * mp.euler + mp.mpf(1)
        k = 0
        while True:
            k += 1
            term *= q / (k * (k + 1))
            h += mp.mpf(1) / k
            coef = -2 * mp.euler + 2 * h + mp.mpf(1) / (k + 1)
            i1s += term
            s += term * coef
            if term * (abs(coef) + 1) < mp.mpf(10) ** (-(60 + extra)) * (abs(s) + i1s):
                break
        i1 = (z / 2) * i1s
        return 1 / z + mp.log(z / 2) * i1 - (z / 4) * s


def grid_points() -> list[float]:
    return np.geomspace(1e-3, 50.0, 200).tolist()


def probe_points() -> list[float]:
    # tiny-argument log behaviour, points straddling z = 2 and 16, the asymptotic
    # tail and the underflow edge
    return [1e-6, 1e-4, 0.5, 1.999, 2.0, 2.001, 15.999, 16.0, 16.001, 100.0, 700.0]


def build_table() -> dict:
    def entry(z: float) -> dict:
        return {
            "z": repr(float(z)),
            "k0": mp.nstr(k0_reference(z), 32),
            "k1": mp.nstr(k1_reference(z), 32),
        }

    return {
        "dps": 60,
        "method": "ascending series, explicit harmonic sums, guard digits ~0.9 z",
        "grid": [entry(z) for z in grid_points()],
        "probes": [entry(z) for z in probe_points()],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="tests/data/bessel_oracle.json")
    args = ap.parse_args()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(build_table(), indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
