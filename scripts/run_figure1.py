#!/usr/bin/env python3
"""Full wavenumber-vs-inhomogeneity sweep at publication resolution.

Runs the nine-point a-grid on a 512x512 box and writes the sweep CSV,
per-run radial profiles, the exponential-law fit, and the manifest to
results/figure1/. The N = 512 default took about 2 s on a 2-vCPU
machine; pass --N 256 (or lower) for a quicker look, or --dry-run to only
write the manifest.
"""
import sys

from eikolab.cli import main

if __name__ == "__main__":
    args = ["figure1", "--out", "results/figure1"]
    sys.exit(main(args + sys.argv[1:]))
