"""Code size of the physlp package and of its tests.

For each module of src/physlp and in total, and in total for
tests/*.py, prints the line count, as wc -l gives it, and the code
lines: the non-blank lines outside docstrings and # comments.  Every
non-blank line of a multi-line statement, or of a string that is not a
docstring, is a code line.  The tests' total shows code that moves
from src/physlp into tests/, which the package's total alone would
count as removed.

    python -m tests.code_size
"""

import ast
import io
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "physlp"

# tokens that are not code: a comment, the end of a line, indentation
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The numbers of the lines that the docstrings of the module tree,
    and of its classes and functions, span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines of the Python source text."""
    rows = text.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for i in lines - docstring_lines(ast.parse(text)) if rows[i - 1].strip())


def size(path):
    """(wc -l, code lines) of the Python file at path."""
    text = path.read_text()
    return text.count("\n"), code_lines(text)


def main():
    modules = {path.name: size(path) for path in sorted(SRC.glob("*.py"))}
    rows = [*modules.items(), ("total", [sum(v) for v in zip(*modules.values())]),
            ("tests/*.py", [sum(v) for v in zip(*map(size, TESTS.glob("*.py")))])]
    print(f"{'module':<16}{'wc -l':>7}{'code':>7}")
    for name, (wc, code) in rows:
        print(f"{name:<16}{wc:>7}{code:>7}")


if __name__ == "__main__":
    main()
