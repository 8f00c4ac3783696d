"""Regenerate perfbench/reference.json: k, Omega and steps of every spectral member.

    python3 perfbench/make_reference.py

Run from the repository root.  It runs mass_sweep (preset member order) and
single_n512 once each and stores what their members measured; the benchmark's
ref_dev is the largest relative deviation of a later run from these values.
"""
from __future__ import annotations

import json
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

from workloads import REFERENCE, MassSweep, SingleN512  # noqa: E402


def main() -> int:
    reference = {"regenerate": "python3 perfbench/make_reference.py",
                 "environment": run.environment()}
    for cls in (MassSweep, SingleN512):
        wl = cls(0, None)
        out = run.WORK / f"reference-{wl.name}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        wl.execute(out)
        reference[wl.name] = {
            key: {"k": r["k_measured"], "omega": r["omega_drift"], "steps": r["steps"],
                  "converged": r["converged"]}
            for key, r in wl.members(out).items()
        }
        shutil.rmtree(out)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
