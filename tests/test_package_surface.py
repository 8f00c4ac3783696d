"""Every public function and class of the package has a use outside tests/,
and no module reaches into another's private names.

A public name that only tests reach is test-only code in src/: the test
should reach the production path instead.  A private name imported by another
module is an interface nobody declared.  The checks parse the sources and
import nothing from scripts/ or perfbench/.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eikolab"

# module.name -> why it stays although only tests call it
ALLOWED = {
    "cli.verify_manifest": "the manifest oracle of the CLI tests: it re-hashes "
                           "a run directory against its manifest.json",
}


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


def test_spectral_takes_nothing_from_scipy_but_its_transforms():
    # the stepper and its eigen start need scipy.fft alone: the eigen
    # solve's 3x3 Ritz problem is numpy's, its far field a cumulative_integral
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "spectral.py").read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert sorted(m for m in imported if m.split(".")[0] == "scipy") == ["scipy.fft"]


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
