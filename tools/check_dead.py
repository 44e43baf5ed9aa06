"""List every module-level function in src/symplie that nothing refers to.
Run from the repository root:

    python3 tools/check_dead.py

A function counts as used when its name is read (as a name or as an
attribute) anywhere in src/ or tests/ outside its own body, or when
__init__.py re-exports it.  Exits 1 if any function is unused.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "symplie")
SCANNED = (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _names_read(node):
    """Every name a subtree reads, as a name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _python_files():
    for top in SCANNED:
        for dirpath, _, files in os.walk(top):
            for fname in sorted(files):
                if fname.endswith(".py"):
                    yield os.path.join(dirpath, fname)


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
    return [(fname, line, name) for fname, line, name, inner in defs
            if name not in exported and reads.get(name, 0) == inner.count(name)]


def main():
    found = dead_functions()
    for fname, line, name in found:
        print("src/symplie/%s:%d: %s has no reference" % (fname, line, name))
    print("%d unreferenced functions" % len(found))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
