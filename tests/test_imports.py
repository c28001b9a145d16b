"""Every imported name is used, and every private helper of the package.

No linter ships with the project, so this walks the syntax tree of each
source file and fails on a name that an import binds but no expression
reads. The package's __init__.py is skipped: its imports are the public
re-exports listed in __all__. It also fails on a module-level private
function, class or constant of src/hpid that no file of src/hpid reads, so
that a helper or a setting is not kept alive by the tests alone.
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


def _module_names(node):
    """Names a module-level statement defines: a def or class, or the plain
    names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unread_private_defs(trees):
    """(module, line, name) of each module-level private def, class or
    constant in trees (module -> syntax tree) that no tree reads by name,
    by attribute or by import."""
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
    return [
        (module, node.lineno, name)
        for module, tree in trees.items()
        for node in tree.body
        for name in _module_names(node)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_scan_flags_an_unread_private_def():
    trees = {
        "a": ast.parse("def _used():\n    pass\ndef _dead():\n    pass\n"),
        "b": ast.parse("from a import _used\nclass _Gone:\n    pass\n_used()\n"),
    }
    assert _unread_private_defs(trees) == [("a", 3, "_dead"), ("b", 2, "_Gone")]


def test_scan_flags_an_unread_private_constant():
    trees = {
        "a": ast.parse("_USED = 1\n_DEAD = 2\n_TYPED: int = 3\n__all__ = []\n"),
        "b": ast.parse("from a import _USED\n_LOCAL = _USED\nprint(_LOCAL)\n"),
    }
    assert _unread_private_defs(trees) == [("a", 2, "_DEAD"), ("a", 3, "_TYPED")]


def test_no_unread_private_defs():
    package = sorted((ROOT / "src/hpid").rglob("*.py"))
    trees = {
        p.relative_to(ROOT).as_posix(): ast.parse(p.read_text(), str(p))
        for p in package
    }
    assert "src/hpid/control.py" in trees
    unread = [f"{m}:{line}: {name}" for m, line, name in _unread_private_defs(trees)]
    assert not unread, "private but never read in src/hpid:\n" + "\n".join(unread)
