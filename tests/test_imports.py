"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import physlp

SRC = Path(physlp.__file__).parent

# Imported and unused on purpose: benchmarks/physbench/layers.targets()
# wraps these names on these modules for its per-layer timings, and its
# tests require every target to exist.  ROADMAP item 1 (benchmark
# upkeep) drops them with the targets.
WRAPPED_BY_THE_BENCHMARK = {
    ("solver", "validate"),
    ("autodiff", "validate"),
    ("autodiff", "spd_solve_adjoint"),
    ("problems", "validate"),
}

# __init__.py imports to re-export
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("module", MODULES)
def test_a_module_uses_what_it_imports(module):
    kept = {name for mod, name in WRAPPED_BY_THE_BENCHMARK if mod == module}
    assert unused_imports(SRC / f"{module}.py") == kept


def test_the_guard_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\nimport os.path\nfrom os import sep, getcwd as cwd\n"
                     "print(sep, os.path)\n")
    assert unused_imports(probe) == {"math", "cwd"}
