"""The benchmark's tracer wraps eikolab names listed in perfbench/tracer.py.

The list is read from the source, not imported, so the check runs nothing
from perfbench/.  A deletion or rename of a wrapped name fails here instead
of at `perfbench/run.py --trace 1`.
"""
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import scipy.fft

from eikolab import cli
from eikolab.profiles import InhomogeneitySpec
from eikolab.radial import CorrectionResult, ShootingSolution
from eikolab.spectral import (GridSpec2D, SimulationConfig, _hopf_cole_eigen,
                              _nonlinear_hat, _step_hat, make_plan)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points() -> list[tuple[str, str]]:
    """(module, attribute) of every ENTRY_POINTS row in the tracer's source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no ENTRY_POINTS list in {TRACER}")


def test_every_traced_entry_point_resolves():
    points = _entry_points()
    assert len(points) >= 30
    missing = [(module, attr) for module, attr in points
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_run_member_takes_a_sim_fourth():
    # the tracer's _note_a_sim reads a_sim positionally, as args[3]
    assert list(inspect.signature(cli._run_member).parameters)[3] == "a_sim"


def test_noted_result_fields_exist():
    # _note_iterations and _note_bisections read these fields of the results
    # of solve_far_field_correction and shoot_spiral_amplitude
    for result, field in ((CorrectionResult, "iterations"), (ShootingSolution, "bisections")):
        assert field in {f.name for f in dataclasses.fields(result)}, (result, field)


def test_quadrant_transforms_are_scipy_fft_attributes(monkeypatch):
    # the eigen start's and the stepper's quadrant transforms must be looked
    # up as scipy.fft attributes at call time, so a tracer can wrap them there
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    cfg = SimulationConfig(GridSpec2D(64, 50.0), dt=0.5, b=1.0,
                           defect=InhomogeneitySpec(1.5, 0.8, strength=1.0))
    # the first solve also fills the cached defect spectrum (one dctn)
    iterations = _hopf_cole_eigen(cfg)[2]
    for name in ("dctn", "idctn", "dct", "idct", "idst"):
        monkeypatch.setattr(scipy.fft, name, counted(name, getattr(scipy.fft, name)))
    assert _hopf_cole_eigen(cfg)[2] == iterations
    # one idctn/dctn pair per iteration (B on DCT-I coefficients), and one
    # idctn for the eigenvector's field
    assert (calls.count("dctn"), calls.count("idctn")) == (iterations, iterations + 1)
    uhat = ghat = np.zeros((33, 33))
    plan = make_plan(cfg.grid, cfg.dt)
    calls.clear()
    # per step: four nonlinear terms, one inverse DST-I and DCT-I pair each
    # (phi_x alone) and a forward DCT-I along each axis
    n0 = _nonlinear_hat(uhat, plan, 1.0, 1.0, ghat)
    _step_hat(uhat, plan, 1.0, 1.0, ghat, n0)
    assert {name: calls.count(name) for name in ("idst", "idct", "dct", "dctn")} == {
        "idst": 4, "idct": 4, "dct": 8, "dctn": 0}
