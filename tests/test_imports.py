"""Every imported name is used and exists, and every private helper of the
package is read.

No linter ships with the project, so this walks the syntax tree of each
source file and fails on a name that an import binds but no expression
reads. The package's __init__.py is skipped: its imports are the public
re-exports listed in __all__. It fails, too, on a name that a demo, tool
or test takes from hpid, by import or by an attribute chain such as
hpid.control.name, that the package does not have: tests/test_demos.py
does not run every demo, so a removed public name could otherwise break
one unseen. And it fails on a module-level private function, class or
constant of src/hpid that no file of src/hpid reads, so that a helper or
a setting is not kept alive by the tests alone. Last, it fails on any use
of json.dump or np.savetxt outside src/hpid/targets.py: every JSON file
and table the package writes has its format there, once. And it fails on
a call in src/hpid that passes where= to a ufunc: a masked ufunc leaves
numpy's vector loop, so a mask is applied by a multiply or a select.
And it fails on a scipy import in src/hpid that runs when its module is
imported, one outside every function body: scipy takes longer to import
than the package itself, so it loads where it is first needed.
"""

import ast
import importlib
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


def _package_references(tree):
    """(line, dotted path) of each name tree takes from hpid: a
    ``from hpid... import name`` or an attribute chain rooted at hpid."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "hpid" or node.module.startswith("hpid."):
                refs += [(node.lineno, f"{node.module}.{a.name}") for a in node.names]
        elif isinstance(node, ast.Attribute):
            parts = [node.attr]
            root = node.value
            while isinstance(root, ast.Attribute):
                parts.append(root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id == "hpid":
                refs.append((node.lineno, ".".join(["hpid", *reversed(parts)])))
    return refs


def _resolves(dotted):
    """Whether dotted names an attribute or submodule that can be reached."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def test_scan_flags_a_missing_package_name():
    tree = ast.parse(
        "import hpid.control\n"
        "from hpid.control import UhisConfig, uhis_control\n"
        "from hpid import run, no_such_name\n"
        "hpid.control.log_kernel_ratio(hpid.control.quadrature_control)\n"
    )
    refs = _package_references(tree)
    assert (4, "hpid.control.log_kernel_ratio") in refs
    missing = [(line, ref) for line, ref in refs if not _resolves(ref)]
    assert missing == [
        (2, "hpid.control.uhis_control"),
        (3, "hpid.no_such_name"),
        (4, "hpid.control.quadrature_control"),
    ]


def test_names_taken_from_the_package_exist():
    missing = [
        f"{path.relative_to(ROOT)}:{line}: {ref}"
        for path in _sources()
        if not path.relative_to(ROOT).as_posix().startswith("src/")
        for line, ref in _package_references(ast.parse(path.read_text(), str(path)))
        if not _resolves(ref)
    ]
    assert not missing, "taken from hpid but not defined there:\n" + "\n".join(missing)


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


FORMATS = "src/hpid/targets.py"  # the one module that writes JSON and tables
_FORMAT_WRITERS = {"json": "dump", "np": "savetxt", "numpy": "savetxt"}


def _format_writes(tree):
    """(line, name) of each json.dump or np.savetxt that tree reads or
    imports by name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if _FORMAT_WRITERS.get(node.value.id) == node.attr:
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in _FORMAT_WRITERS:
            writer = _FORMAT_WRITERS[node.module]
            if any(a.name == writer for a in node.names):
                found.append((node.lineno, f"{node.module}.{writer}"))
    return sorted(found)


def test_scan_flags_a_format_write():
    tree = ast.parse(
        "import json\nimport numpy as np\nfrom json import dump, load\n"
        "json.dump({}, f)\nnp.savetxt(p, a)\njson.dumps({})\nnp.save(p, a)\n"
    )
    assert _format_writes(tree) == [(3, "json.dump"), (4, "json.dump"), (5, "np.savetxt")]


def test_only_the_format_module_writes_json_and_tables():
    files = {p.relative_to(ROOT).as_posix() for p in _sources()}
    assert FORMATS in files
    writes = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _sources()
        if path.relative_to(ROOT).as_posix() != FORMATS
        for line, name in _format_writes(ast.parse(path.read_text(), str(path)))
    ]
    assert not writes, f"written outside {FORMATS}:\n" + "\n".join(writes)


def _masked_calls(tree):
    """(line, callee) of each call in tree that passes where= by keyword."""
    return sorted(
        (node.lineno, ast.unparse(node.func))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(k.arg == "where" for k in node.keywords)
    )


def test_scan_flags_a_masked_ufunc():
    tree = ast.parse(
        "np.exp(a, out=a, where=m)\nnp.where(m, a, 0.0)\n"
        "a.sum(where=m)\nnp.maximum(a, 0.0, out=a)\n"
    )
    assert _masked_calls(tree) == [(1, "np.exp"), (3, "a.sum")]


def test_package_passes_no_where_to_a_ufunc():
    masked = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src/hpid").rglob("*.py"))
        for line, name in _masked_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert not masked, "where= passed in src/hpid:\n" + "\n".join(masked)


def _import_time_scipy(tree):
    """(line, module) of each scipy import that runs when tree's module is
    imported: one that no function body holds."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
            found.extend((node.lineno, n) for n in names if n.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "scipy":
                found.append((node.lineno, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_scan_flags_an_import_time_scipy():
    tree = ast.parse(
        "import scipy.special as sp\nfrom .rng import ndtri\n"
        "def f():\n    from scipy.special import ndtri\n"
        "class A:\n    from scipy import stats\n"
        "if True:\n    import numpy, scipy\n"
        "g = lambda: __import__('scipy')\n"
    )
    assert _import_time_scipy(tree) == [(1, "scipy.special"), (6, "scipy"), (8, "scipy")]


def test_package_imports_scipy_only_where_it_is_used():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src/hpid").rglob("*.py"))
        for line, name in _import_time_scipy(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "scipy imported with its module in src/hpid:\n" + "\n".join(found)
