"""Code size of the physlp package.

For each module of src/physlp and in total, prints the line count, as
wc -l gives it, and the code lines: the non-blank lines outside
docstrings and # comments.  Every non-blank line of a multi-line
statement, or of a string that is not a docstring, is a code line.

    python -m tests.code_size
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "physlp"

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


def main():
    total_wc = total_code = 0
    print(f"{'module':<16}{'wc -l':>7}{'code':>7}")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        wc, code = text.count("\n"), code_lines(text)
        total_wc += wc
        total_code += code
        print(f"{path.name:<16}{wc:>7}{code:>7}")
    print(f"{'total':<16}{total_wc:>7}{total_code:>7}")


if __name__ == "__main__":
    main()
