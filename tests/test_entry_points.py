"""The scripts outside the package (``perfbench/``, ``benchmarks/``,
``jobs/``, ``tools/``) import from ``repro``; no other tier-1 test
imports them. Every name they import must resolve, so deleting a helper
they use fails here rather than in a benchmark run. Starts no Spark."""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT_DIRS = ("perfbench", "benchmarks", "jobs", "tools")


def _repro_imports():
    """(file, module, name) for every ``from repro... import name``."""
    for d in SCRIPT_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.ImportFrom) and node.level == 0
                        and node.module.split(".")[0] == "repro"):
                    for alias in node.names:
                        yield path.relative_to(ROOT), node.module, alias.name


def _resolves(module: str, name: str) -> bool:
    try:
        if hasattr(importlib.import_module(module), name):
            return True
        importlib.import_module(f"{module}.{name}")  # a submodule
        return True
    except ImportError:
        return False


def test_script_imports_from_repro_resolve():
    imports = list(_repro_imports())
    assert len({path for path, _, _ in imports}) > 10
    missing = [f"{path}: from {module} import {name}"
               for path, module, name in imports if not _resolves(module, name)]
    assert not missing, "\n".join(missing)
