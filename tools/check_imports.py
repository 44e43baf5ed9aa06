"""List every name a src/symplie module imports and never uses.  Run from
the repository root:

    python3 tools/check_imports.py

__init__.py is skipped, since its imports are the package's re-exports.
Exits 1 if any module has an unused import.
"""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "symplie")


def unused_imports(path):
    """(line, name) for each name bound by an import in path and never read."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def main():
    found = 0
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "__init__.py":
            for line, name in unused_imports(os.path.join(SRC, fname)):
                found += 1
                print("src/symplie/%s:%d: %s imported but unused" % (fname, line, name))
    print("%d unused imports" % found)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
