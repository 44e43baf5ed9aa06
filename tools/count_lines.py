"""Print the size of each module of src/symplie, and the total: its lines
as `wc -l` counts them, and its lines of code, which leave out docstrings,
comments and blank lines.  Run from the repository root:

    python3 tools/count_lines.py

A line of code holds a token of code (a line inside a multi-line string
that is not a docstring counts; a line holding only a comment does not).
A docstring is the string expression that opens a module, class or
function body, counted over all its lines.  Standard library only (ast and
tokenize); it only prints.
"""

import ast
import glob
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "symplie")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(path):
    """(lines, lines of code) of the Python file at path."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    code = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text, path)))


def main():
    total = [0, 0]
    print("%-20s %6s %6s" % ("module", "lines", "code"))
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        lines, code = count(path)
        total[0] += lines
        total[1] += code
        print("%-20s %6d %6d" % (os.path.basename(path), lines, code))
    print("%-20s %6d %6d" % ("total", *total))


if __name__ == "__main__":
    main()
