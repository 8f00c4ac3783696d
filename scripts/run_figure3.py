#!/usr/bin/env python3
"""Vortex amplitude profile behind the core matching argument.

Solves the radial amplitude equation as one boundary-value problem from a
regular origin to the rho -> 1 far-field series, then writes the profile,
the tail diagnostic r^2 (1 - rho^2), and the origin slope to
results/figure3/. Cheap (well under a second); no spectral simulation
involved.
"""
import sys

from eikolab.cli import main

if __name__ == "__main__":
    args = ["figure3", "--out", "results/figure3"]
    sys.exit(main(args + sys.argv[1:]))
