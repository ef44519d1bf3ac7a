"""The package binds only its version; the library lives in its modules."""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
import qsobolev
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "submodules": sorted(m for m in sys.modules if m.startswith("qsobolev.")),
    "names": sorted(n for n in vars(qsobolev) if not n.startswith("__") or n in ("__all__", "__version__")),
}))
"""

#: Public top-level names of ``src/qsobolev`` that only tests reference, each with its reason.
TEST_ONLY_NAMES = {
    "replay": "rebuilds a reported witness; ROADMAP item 8's --metrics sidecar is to call it",
}


def test_import_loads_no_numpy_and_no_submodule(tmp_path):
    # A fresh interpreter, so no module that this test session imported counts.
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["numpy"] is False
    assert found["submodules"] == []
    assert found["names"] == ["__version__"]


def public_definitions(path: Path) -> set[str]:
    """Functions, classes and assigned names at the top level of a module, minus private ones."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def referenced_names(path: Path) -> set[str]:
    """Every name a file reads, as a bare name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_public_names_reached_only_by_tests_are_listed():
    # A name counts as used if any file in src/, demos/ or bench/ reads it by name.
    public = set().union(*map(public_definitions, (ROOT / "src" / "qsobolev").glob("*.py")))
    used = set().union(*(referenced_names(path) for folder in ("src", "demos", "bench")
                         for path in (ROOT / folder).rglob("*.py")))
    assert public - used == set(TEST_ONLY_NAMES)
