"""List every module-level function in src/symplie that nothing refers to.
Run from the repository root:

    python3 tools/check_dead.py

A function counts as used when its name is read (as a name or as an
attribute) anywhere in src/ outside its own body and outside functions that
bind that name as a local variable, when __init__.py
re-exports it, or when bench/tracer.py wraps it by name (its LAYERS table,
from which it builds TRACED).  Tests do not count: a function that only
tests call is dead.  Exits 1 if any function is unused.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "symplie")
TRACER = os.path.join(ROOT, "bench", "tracer.py")


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _names_read(node, bound=frozenset()):
    """Every name a subtree reads, as a name or as an attribute.  A name that
    a function binds itself (a parameter, or an assignment, `for` or
    comprehension target) is a local variable there, not a reference to the
    module-level function of that name, so its reads inside that function
    do not count."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound = bound | {sub.id for sub in ast.walk(node)
                         if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
        bound |= {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    if isinstance(node, ast.Name):
        if node.id not in bound:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _names_read(child, bound)


def _python_files():
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for fname in sorted(files):
            if fname.endswith(".py"):
                yield os.path.join(dirpath, fname)


def _traced():
    """The "module.function" names in bench/tracer.py's LAYERS, read from its
    source without importing it."""
    for node in _parse(TRACER).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return {"%s.%s" % (mod, fn)
                    for mod, fns in ast.literal_eval(node.value).items() for fn in fns}
    raise SystemExit("bench/tracer.py has no LAYERS table")


def dead_functions():
    """(file, line, name) for each unreferenced module-level function."""
    defs = []  # (fname, line, name, names read inside the def)
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "__init__.py":
            for node in _parse(os.path.join(SRC, fname)).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((fname, node.lineno, node.name, list(_names_read(node))))
    reads = {}
    for path in _python_files():
        for name in _names_read(_parse(path)):
            reads[name] = reads.get(name, 0) + 1
    exported = {alias.asname or alias.name
                for node in _parse(os.path.join(SRC, "__init__.py")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    traced = _traced()
    return [(fname, line, name) for fname, line, name, inner in defs
            if name not in exported and "%s.%s" % (fname[:-3], name) not in traced
            and reads.get(name, 0) == inner.count(name)]


def main():
    found = dead_functions()
    for fname, line, name in found:
        print("src/symplie/%s:%d: %s has no reference" % (fname, line, name))
    print("%d unreferenced functions" % len(found))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
