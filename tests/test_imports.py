"""Every module of the package, test module and demo uses each name it
imports, every definition of the package is reached from outside the
tests, every field of its classes is read there, the package raises
or catches every error class it defines, in cli.py only main catches
one, and only core compares an array's shape; tests/code_size.py
counts only code lines, and the tests' too; and tests/output_digest.py
prints one repeatable digest per benchmark workload."""

import ast
import sys
from pathlib import Path

import pytest

import physlp
from physlp import errors

from . import code_size

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

# Definitions that nothing outside the tests reaches, and why they stay
UNREACHED_ON_PURPOSE = {
    "core.save_lp": "the writer of the file format that load_lp reads",
    "problems.Graph.to_dict": "the writer of the file format that Graph.from_dict reads",
}

# Functions outside core.py that compare an array's shape with !=, and why
SHAPE_COMPARED_ON_PURPOSE = {
    "linalg.spd_solve_adjoint": "linalg cannot import core, which imports it; "
                                "ROADMAP item 1 removes the function",
    "problems.assignment_to_vector": "its input is an integer map",
}

# __init__.py imports to re-export
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
ROOT = TESTS.parent
SCRIPTS = sorted([*TESTS.glob("*.py"), *(ROOT / "demos").glob("*.py")])


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


def imported_modules(path):
    """The last dotted part of the name of each module that the module
    at path imports or imports from: solver for from .solver import x,
    from . import solver and import physlp.solver."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name.rpartition(".")[2] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= ({node.module.rpartition(".")[2]} if node.module
                      else {a.name for a in node.names})
    return found


def test_the_builders_import_nothing_of_the_solver():
    # pure functions from instance data to StandardFormLP: a caller
    # solves the LP and hands its x to a decoder
    assert imported_modules(SRC / "problems.py").isdisjoint({"solver", "autodiff", "cli"})


def exports(node):
    """Whether node assigns the export list __all__."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def referenced(node, skip=None):
    """The names that the code at node refers to, outside the subtree
    skip and outside an __all__ export list: names, attribute names,
    imported names, and string constants that are identifiers, as a
    getattr holds them."""
    if node is skip or exports(node):
        return set()
    if isinstance(node, ast.Name):
        names = {node.id}
    elif isinstance(node, ast.Attribute):
        names = {node.attr}
    elif isinstance(node, ast.alias):
        names = {node.name}
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names = {node.value} if node.value.isidentifier() else set()
    else:
        names = set()
    for child in ast.iter_child_nodes(node):
        names |= referenced(child, skip)
    return names


def definitions(tree):
    """(name, node) of each top-level function and class of the module
    tree, and ("Class.method", node) of each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def unreached(modules, others):
    """The definitions of the modules at the paths modules, as
    "module.name", whose name no code refers to: not another of the
    modules, nor their own module outside the definition itself, nor
    the files at the paths others.  Being exported is no reference."""
    trees = {path.stem: ast.parse(path.read_text()) for path in modules}
    outside = set().union(*(referenced(ast.parse(p.read_text())) for p in others))
    found = set()
    for stem, tree in trees.items():
        elsewhere = outside.union(*(referenced(t) for s, t in trees.items() if s != stem))
        for name, node in definitions(tree):
            if node.name not in elsewhere and node.name not in referenced(tree, node):
                found.add(f"{stem}.{name}")
    return found


def test_every_definition_is_reached_outside_the_tests():
    # from another definition of the package, a demo or the benchmark;
    # physlp/__init__.py, which imports and exports the public names,
    # is none of them: what only the tests call belongs in the tests
    modules = [SRC / f"{module}.py" for module in MODULES]
    others = [*(ROOT / "demos").glob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]
    assert unreached(modules, others) == set(UNREACHED_ON_PURPOSE)


def test_the_guard_sees_an_unreached_definition(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("__all__ = ['used', 'exported']\n\n"
                   "def used():\n    return Kit().run()\n\n"
                   "def loop():\n    return loop()\n\n"
                   "def exported():\n    pass\n\n"
                   "class Kit:\n    def run(self):\n        return self.stop\n\n"
                   "    def stop(self):\n        pass\n\n"
                   "    def idle(self):\n        return self.idle()\n\n"
                   "    def __len__(self):\n        return 0\n\n"
                   "    def _hidden(self):\n        pass\n")
    user.write_text("from lib import used\nused()\n")
    # exported is named only in the export list
    assert unreached([lib], [user]) == {"lib.loop", "lib.exported", "lib.Kit.idle"}
    assert unreached([lib], []) == {"lib.used", "lib.loop", "lib.exported", "lib.Kit.idle"}


def annotated_fields(tree):
    """("Class.field", field) of each annotated field of each top-level
    class of the module tree: a dataclass or NamedTuple field."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.target.id}", item.target.id) for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))


def unread_fields(modules, others):
    """The fields of the classes of the modules at the paths modules, as
    "module.Class.field", whose name is read as an attribute (x.field,
    not an assignment to it) nowhere in the modules or in the files at
    the paths others.  Names are matched, not types: a field counts as
    read where any object's attribute of its name is."""
    read = set()
    for path in [*modules, *others]:
        read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {f"{path.stem}.{qualified}" for path in modules
            for qualified, name in annotated_fields(ast.parse(path.read_text()))
            if name not in read}


def test_every_field_is_read_outside_the_tests():
    # a field that only its constructor writes is data no caller uses
    modules = [SRC / f"{module}.py" for module in MODULES]
    others = [*(ROOT / "demos").glob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]
    assert unread_fields(modules, others) == set()


def test_the_guard_sees_an_unread_field(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("from dataclasses import dataclass\nfrom typing import NamedTuple\n\n"
                   "@dataclass\nclass Report:\n    p: float\n    spent: float\n"
                   "    kept: int = 0\n    LIMIT = 3\n\n"
                   "    def bump(self):\n        self.kept = self.LIMIT\n\n"
                   "class Pair(NamedTuple):\n    left: int\n    right: int\n\n"
                   "def make():\n    return Report(1.0, 2.0).p, Pair(1, 2).left\n")
    user.write_text("from lib import make\nreport = make()\nreport.spent = 0.0\n")
    assert unread_fields([lib], [user]) == {"lib.Report.spent", "lib.Report.kept",
                                            "lib.Pair.right"}
    user.write_text("print(make().right)\n")
    assert unread_fields([lib], [user]) == {"lib.Report.spent", "lib.Report.kept"}


def class_names(node):
    """The class names in the exception expression node: X, errors.X,
    or a tuple of them."""
    found = node.elts if isinstance(node, ast.Tuple) else [node]
    return {n.id if isinstance(n, ast.Name) else n.attr for n in found
            if isinstance(n, (ast.Name, ast.Attribute))}


def raised_or_caught(paths):
    """The names of the classes that the modules at paths raise or
    catch: X in raise X, raise X(...) and except X, or (X, Y), or
    errors.X."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names |= class_names(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                names |= class_names(node.type)
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
    probe.write_text("try:\n    raise errors.Breakdown('x')\n"
                     "except (NonPositiveInit, ValueError):\n    raise InvalidConfig\n")
    idle = idle_errors([probe])
    assert {"Breakdown", "NonPositiveInit", "InvalidConfig", "PhyslpError"}.isdisjoint(idle)
    assert {"NegativeCost", "Unreachable"} <= idle


def library_errors_caught(path, outside):
    """The names of PhyslpError and its subclasses that an except clause
    of the module at path names, outside the function named outside."""
    library = {c.__name__ for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.PhyslpError)}
    tree = ast.parse(path.read_text())
    skipped = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == outside
               for n in ast.walk(f)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type and id(node) not in skipped:
            names |= class_names(node.type)
    return names & library


def test_only_cli_main_turns_a_library_error_into_an_exit_code():
    # a command lets the library's errors pass, and main maps an
    # InputError to exit 1 and any other PhyslpError to exit 2; the
    # commands once kept their own lists of the input faults
    assert library_errors_caught(SRC / "cli.py", outside="main") == set()


def test_the_guard_sees_a_library_error_caught_outside_main(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def cmd():\n    try:\n        pass\n"
                     "    except (OSError, errors.Breakdown, ValueError):\n        pass\n\n"
                     "def main():\n    try:\n        cmd()\n"
                     "    except (OSError, InputError):\n        pass\n"
                     "    except PhyslpError:\n        pass\n\n"
                     "try:\n    main()\nexcept NegativeCost:\n    pass\n")
    assert library_errors_caught(probe, outside="main") == {"Breakdown", "NegativeCost"}


def shape_compared(paths):
    """Where the modules at paths compare an attribute .shape with !=:
    "module.function", the innermost function or class around the
    comparison, or "module" for one at module level."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Compare) and any(isinstance(op, ast.NotEq) for op in node.ops) \
                and any(isinstance(side, ast.Attribute) and side.attr == "shape"
                        for side in (node.left, *node.comparators)):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in paths:
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_core_compares_an_array_shape():
    # every array from the caller passes core.checked_array, which
    # compares its shape and tests its entries; the same check was once
    # written out by hand in seven functions
    paths = [SRC / f"{module}.py" for module in MODULES if module != "core"]
    assert shape_compared(paths) == set(SHAPE_COMPARED_ON_PURPOSE)


def test_the_guard_sees_a_shape_compared(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def check(x, n):\n    if x.shape != (n,):\n        raise ValueError\n\n"
                     "class Box:\n    def fit(self, y):\n"
                     "        return y.shape == self.shape and self.size != y.size\n\n"
                     "    def same(self, y):\n        return (1,) != y.T.shape\n\n"
                     "if len(z) != 2 or np.asarray(z).shape != ():\n    pass\n")
    assert shape_compared([probe]) == {"probe.check", "probe.Box.same", "probe"}


def test_code_size_counts_only_code_lines(tmp_path):
    # tests/code_size.py's count: blank lines, comments and docstrings
    # are not code; every non-blank line of a statement or a string is
    probe = tmp_path / "probe.py"
    probe.write_text('"""Module\n\ndocstring."""\n\nimport math  # trailing comment\n\n'
                     "# a comment line\n"
                     'def f(x):\n    """One line."""\n    text = """two\n\nlines"""\n'
                     "    return (math.sqrt(x),\n            text)\n")
    assert code_size.code_lines(probe.read_text()) == 6


def test_code_size_totals_the_tests_with_the_vertex_oracle(capsys):
    # a move from src/physlp into tests/ shows in the tests/*.py total
    code_size.main()
    row = [line.split() for line in capsys.readouterr().out.splitlines()][-1]
    files = sorted(TESTS.glob("*.py"))
    assert TESTS / "vertex_oracle.py" in files
    assert row[0] == "tests/*.py"
    assert [int(v) for v in row[1:]] == [sum(v) for v in zip(*map(code_size.size, files))]


def test_output_digest_repeats_and_tells_pools_apart(capsys, monkeypatch):
    # a repeatability check only: the tiny pools run every workload on
    # the direct route (tiny path_large has m = 9), not the CG route.
    # Imported here, with sys.path restored after the test, as it puts
    # benchmarks/ on sys.path.
    monkeypatch.setattr(sys, "path", list(sys.path))
    from . import output_digest
    for name in output_digest.workloads.WORKLOADS:
        assert output_digest.digest(name, 3, tiny=True) == output_digest.digest(name, 3, tiny=True)
    assert output_digest.digest("grad", 3, tiny=True) != output_digest.digest("grad", 4, tiny=True)
    monkeypatch.setattr(output_digest, "digest", lambda name, seed: f"{name}:{seed}")
    output_digest.main()
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        [name, f"{name}:3"] for name in output_digest.workloads.WORKLOADS]
