"""Package surface tests."""

import ast
import pathlib

import lincoder


def test_every_exported_name_resolves():
    missing = [name for name in lincoder.__all__ if not hasattr(lincoder, name)]
    assert missing == []
    assert len(set(lincoder.__all__)) == len(lincoder.__all__)


def _unused_imports(path):
    """Names a module imports but never references (stdlib-only lint)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    package = pathlib.Path(lincoder.__file__).parent
    unused = {
        path.stem: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert unused == {}
