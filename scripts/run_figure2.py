#!/usr/bin/env python3
"""Wavenumber selection across decay exponents, subcritical to supercritical.

Sweeps p over {0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0} at fixed
amplitude, writes the k(p) table with the fitted prefactor comparison and
the three reference radial profiles (p = 0.3, 0.8, 1.5) to results/figure2/.
The p = 0.3 row has the heaviest tail: it locks like every other row, but its
gradient keeps climbing slowly past the core towards its far value.
"""
import sys

from eikolab.cli import main

if __name__ == "__main__":
    args = ["figure2", "--out", "results/figure2"]
    sys.exit(main(args + sys.argv[1:]))
