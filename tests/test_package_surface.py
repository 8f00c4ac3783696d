"""Every public function and class of the package has a use outside tests/,
and no module reaches into another's private names.

A public name that only tests reach is test-only code in src/: the test
should reach the production path instead.  A private name imported by another
module is an interface nobody declared.  The checks parse the sources and
import nothing from scripts/ or perfbench/; the start-up check imports the
CLI in a fresh interpreter.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eikolab"

# module.name -> why it stays although only tests call it
ALLOWED = {}


# "importer <- module._name" -> why the importer shares that private name
ALLOWED_PRIVATE = {
    "measure <- spectral._phi_x": "the stepper's gradient kernel: a run and its "
                                  "snapshot measure the same gradient",
}


def _references(paths) -> set[str]:
    """Every name, attribute, imported name and string constant in `paths`."""
    refs = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


def test_no_public_name_is_test_only():
    sources = sorted(PACKAGE.glob("*.py"))
    refs = _references(sources + sorted((ROOT / "scripts").rglob("*.py"))
                       + sorted((ROOT / "perfbench").rglob("*.py")))
    unused = {f"{path.stem}.{node.name}" for path in sources
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in refs}
    assert sorted(unused - set(ALLOWED)) == []
    # an allowed name that has gained a use leaves the list
    assert sorted(set(ALLOWED) - unused) == []


def _imported_modules(path) -> set[str]:
    """Every absolute module and `module.name` that `path` imports."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    return imported


def test_spectral_takes_nothing_from_scipy_but_its_transforms():
    # the stepper and its eigen start need scipy.fft alone: the eigen
    # solve's 3x3 Ritz problem is numpy's, its far field a cumulative_integral
    imported = _imported_modules(PACKAGE / "spectral.py")
    assert sorted(m for m in imported if m.split(".")[0] == "scipy") == ["scipy.fft"]


def test_no_module_imports_warnings():
    # numerical trouble is a typed error and the box's wrap-around a report
    # field (corner_ratio): nothing in the package emits a warning
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if any(m.split(".")[0] == "warnings" for m in _imported_modules(path))]
    assert importers == []


def test_cli_start_up_loads_no_bvp_solver_or_splines():
    # scipy.integrate (which pulls in optimize, linalg, sparse and spatial)
    # and scipy.interpolate load where radial first shoots or builds a
    # spline, so a CLI call that only steps the 2D field never loads them
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    probe = ("import sys, eikolab.cli; print(' '.join(m for m in "
             "('scipy.integrate', 'scipy.interpolate') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _private_uses(path) -> set[str]:
    """'importer <- module._name' for each private name of another package
    module that `path` imports, or reads as an attribute of that module."""
    uses, modules, tree = set(), {}, ast.parse(path.read_text())
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module is None:  # from . import spectral
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif node.level == 1 or (node.module or "").startswith("eikolab."):
            module = node.module.removeprefix("eikolab.")
            uses |= {f"{path.stem} <- {module}.{a.name}" for a in node.names
                     if a.name.startswith("_") and not a.name.startswith("__")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            uses.add(f"{path.stem} <- {modules[node.value.id]}.{node.attr}")
    return uses


def test_no_module_imports_another_modules_private_names():
    uses = set().union(*(_private_uses(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert sorted(uses - set(ALLOWED_PRIVATE)) == []
    # an allowed name that is no longer imported leaves the list
    assert sorted(set(ALLOWED_PRIVATE) - uses) == []
