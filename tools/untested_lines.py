"""List every statement inside a function of src/symplie that the test suite
never runs.  Run from the repository root:

    python3 tools/untested_lines.py [pytest arguments]

It runs pytest -q --continue-on-collection-errors in this process, on the
arguments given or else on the tests directory (Tier-1), under
sys.settrace, which is stdlib, tracing only the frames whose code lives in
src/symplie.  A statement ran when any line it spans got a line event.  Only
statements inside a function body count (module and class bodies run on
import), and a docstring is no statement.  Each statement that never ran is
printed as `path:line: source`, its first line; the count goes to stderr.
The exit status is pytest's when the suite fails, else 1 when any statement
is listed and 0 when none is.  Tracing slows the suite about threefold.
"""

import ast
import os
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "symplie")

_BLOCKS = ("body", "orelse", "finalbody", "handlers")


def _statements(node, in_function=False):
    """The simple statements inside function bodies, in source order,
    skipping each function's docstring; a compound statement counts through
    the statements it holds, and a nested def or class is no statement."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        in_function = True
        body = node.body
        if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        children = body
    else:
        children = [child for name in _BLOCKS for child in getattr(node, name, ())]
    if in_function and not children and not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node
    for child in children:  # an except clause, too, holds its statements in body
        yield from _statements(child, in_function)


def _trace_pytest(args):
    """pytest.main(args) under a tracer that records, per file of the
    package, the line numbers that got a line event; (status, lines)."""
    import pytest

    hits = defaultdict(set)

    def trace_calls(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        lines = hits[path]

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    sys.settrace(trace_calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), hits


def main(argv):
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    status, hits = _trace_pytest(["-q", "--continue-on-collection-errors", *(argv or ["tests"])])
    missed = 0
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, fname)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines, ran = source.splitlines(), hits[path]
        for stmt in _statements(ast.parse(source, path)):
            if not ran.intersection(range(stmt.lineno, stmt.end_lineno + 1)):
                missed += 1
                print("%s:%d: %s" % (os.path.relpath(path, ROOT), stmt.lineno,
                                     lines[stmt.lineno - 1].strip()))
    print("%d statements inside functions never ran" % missed, file=sys.stderr)
    return status or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
