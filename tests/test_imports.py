"""Every imported name is used.

No linter ships with the project, so this walks the syntax tree of each
source file and fails on a name that an import binds but no expression
reads. The package's __init__.py is skipped: its imports are the public
re-exports listed in __all__.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/hpid", "tests", "demos", "tools")


def _sources():
    for sub in SCANNED:
        for path in sorted((ROOT / sub).rglob("*.py")):
            if path.relative_to(ROOT).as_posix() != "src/hpid/__init__.py":
                yield path


def _unused_imports(tree):
    bound = []  # (line, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound.append((node.lineno, a.asname or a.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    bound.append((node.lineno, a.asname or a.name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_scan_flags_an_unused_name():
    tree = ast.parse("import os\nfrom math import pi, tau as t\nprint(pi)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "t")]


def test_no_unused_imports():
    files = {p.relative_to(ROOT).as_posix() for p in _sources()}
    assert {"src/hpid/cli.py", "demos/01_gaussian_closed_form.py"} <= files
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _sources()
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
