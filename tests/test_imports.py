"""Every module of the package, test module and demo uses each name it
imports, and the package raises or catches every error class it
defines."""

import ast
from pathlib import Path

import pytest

import physlp
from physlp import errors

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
TESTS = Path(__file__).parent
SCRIPTS = sorted([*TESTS.glob("*.py"), *(TESTS.parent / "demos").glob("*.py")])


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


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_a_test_or_demo_uses_what_it_imports(path):
    assert unused_imports(path) == set()


def test_the_guard_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\nimport os.path\nfrom os import sep, getcwd as cwd\n"
                     "print(sep, os.path)\n")
    assert unused_imports(probe) == {"math", "cwd"}


def raised_or_caught(paths):
    """The names of the classes that the modules at paths raise or
    catch: X in raise X, raise X(...) and except X, or (X, Y), or
    errors.X."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                found = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                found = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            else:
                continue
            names |= {n.id if isinstance(n, ast.Name) else n.attr for n in found
                      if isinstance(n, (ast.Name, ast.Attribute))}
    return names


def idle_errors(paths):
    """The classes of physlp.errors that the modules at paths neither
    raise nor catch, and that are no base of one they do."""
    names = raised_or_caught(paths)
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    used = [c for c in classes if c.__name__ in names]
    return {c.__name__ for c in classes if not any(issubclass(u, c) for u in used)}


def test_the_package_raises_or_catches_every_error_it_defines():
    assert idle_errors(SRC.glob("*.py")) == set()


def test_the_guard_sees_an_idle_error(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("try:\n    raise errors.Breakdown('x')\nexcept (TooLarge, ValueError):\n"
                     "    raise InvalidConfig\n")
    idle = idle_errors([probe])
    assert {"Breakdown", "TooLarge", "InvalidConfig", "PhyslpError"}.isdisjoint(idle)
    assert {"NegativeCost", "Unreachable"} <= idle
