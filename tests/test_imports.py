"""No module in src/ or tests/ imports a name it never uses, and no module in
src/ defines a module-level private name it never reads.

No linter is installed, so these AST scans stand in for one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))
SRC_MODULES = [p for p in MODULES if (ROOT / "src") in p.parents]


def _ids(path: Path) -> str:
    return str(path.relative_to(ROOT))


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def unread_privates(path: Path) -> list[str]:
    """Module-level `_name` functions, classes and constants the module
    itself never loads: private, so nothing else should read them."""
    tree = ast.parse(path.read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(private - loaded)


@pytest.mark.parametrize("path", MODULES, ids=_ids)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", SRC_MODULES, ids=_ids)
def test_no_unread_private_names(path):
    assert unread_privates(path) == []
