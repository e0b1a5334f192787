"""Every module under src/, tests/ and scripts/ reads each name it imports.

Package ``__init__.py`` files are skipped (their imports are re-exports),
and so are ``from __future__`` imports.  A name counts as read when it
appears in an expression, in a quoted annotation, or in ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for tree in ("src", "tests", "scripts")
    for path in (ROOT / tree).rglob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The name each import binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= read_names(ast.parse(part.value, mode="eval"))
    return names


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = read_names(tree)
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported_names(tree).items()
            if name not in read
        ]
    assert not unused, "imported names never read: " + ", ".join(unused)


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b as c, d\nx: 'd' = 1\n")
    unused = set(imported_names(tree)) - read_names(tree)
    assert unused == {"os", "c"}
