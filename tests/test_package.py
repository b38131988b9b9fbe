"""Package surface tests."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import lincoder

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
README = BENCH.parent / "README.md"
#: Exported names that nothing reads outside __init__.py in the package, the
#: benchmark or the README, each with the reason it stays public.
UNREAD_EXPORTS = {
    "rdf_small_distortion": "log-det shortcut, the oracle of acceptance criterion 4",
}


def test_every_exported_name_resolves():
    missing = [name for name in lincoder.__all__ if not hasattr(lincoder, name)]
    assert missing == []
    assert len(set(lincoder.__all__)) == len(lincoder.__all__)


def _imported_names(tree):
    """Names a module binds by import statements, __future__ imports aside."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return imported


def _unused_imports(path):
    """Names a module imports but never references (stdlib-only lint)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(_imported_names(tree) - used)


def test_no_unused_imports():
    package = pathlib.Path(lincoder.__file__).parent
    unused = {
        path.stem: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert unused == {}


def test_init_imports_exactly_the_exported_names():
    # test_no_unused_imports skips __init__.py, whose imports are read through __all__.
    path = pathlib.Path(lincoder.__file__)
    imported = _imported_names(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(imported ^ set(lincoder.__all__)) == []


def _references(tree, root):
    """Dotted names under package ``root`` that a module imports or loads (stdlib-only lint)."""
    bound, references = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == root:
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == root:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                references.add(f"{node.module}.{alias.name}")
    # Only the outermost node of an attribute chain names the whole reference.
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Name, ast.Attribute)) or id(node) in inner:
            continue
        attributes = []
        while isinstance(node, ast.Attribute):
            attributes.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            references.add(".".join([bound[node.id], *reversed(attributes)]))
    return references


def test_scipy_runtime_surface():
    # numpy is the only runtime dependency; tests and the benchmark use scipy as an oracle.
    sample = "import scipy.linalg as sl\nfrom scipy import linalg\nsl.expm(a)\nlinalg.eig(a)"
    found = _references(ast.parse(sample), "scipy")
    assert found == {"scipy.linalg", "scipy.linalg.expm", "scipy.linalg.eig"}
    used = {
        stem: sorted(names)
        for stem, tree in _package_trees().items()
        if (names := _references(tree, "scipy"))
    }
    assert used == {}


def _random_references(tree):
    """Dotted numpy.random names a module imports or loads."""
    return {name for name in _references(tree, "numpy") if name.split(".")[1:2] == ["random"]}


def test_random_draws_only_from_rng_cells():
    # Every draw comes from a seeded Philox cell, so rng.py alone may build generators.
    sample = (
        "import numpy as np\nfrom numpy.random import default_rng\n"
        "np.random.Philox(key)\nnp.random.normal(1)\nnp.linalg.norm(a)"
    )
    found = _random_references(ast.parse(sample))
    assert found == {"numpy.random.default_rng", "numpy.random.Philox", "numpy.random.normal"}
    used = {
        stem: sorted(names)
        for stem, tree in _package_trees().items()
        if (names := _random_references(tree))
    }
    # ISeedSequence is the interface through which rng.py hands Philox its key; it draws nothing.
    interface = "numpy.random.bit_generator.ISeedSequence"
    assert used == {"rng": ["numpy.random.Generator", "numpy.random.Philox", interface]}


def test_import_loads_no_scipy():
    # A fresh interpreter also sees imports the ast lint cannot, such as transitive ones.
    code = (
        "import sys, lincoder, lincoder.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = [str(pathlib.Path(lincoder.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _module_constants(tree):
    """Module-level UPPER_CASE names a module assigns."""
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    return {t.id for t in targets if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()}


def _package_trees():
    package = pathlib.Path(lincoder.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def _read_names(trees):
    """Every name or attribute the package loads anywhere."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return read


def test_no_unread_constants():
    trees = _package_trees()
    read = _read_names(trees)
    unread = {
        stem: sorted(names)
        for stem, tree in trees.items()
        if (names := _module_constants(tree) - read)
    }
    assert unread == {}


def test_no_uncalled_private_functions():
    trees = _package_trees()
    read = _read_names(trees)
    uncalled = {}
    for stem, tree in trees.items():
        private = {
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        }
        if names := private - read:
            uncalled[stem] = sorted(names)
    assert uncalled == {}


def _bench_constant(filename, name):
    """Literal value of a module-level assignment in a bench script, read without importing it."""
    tree = ast.parse((BENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in bench/{filename}")


def test_traced_benchmark_names_resolve():
    layers = _bench_constant("tracer.py", "LAYERS")
    functions = [name for name, _ in _bench_constant("run.py", "FUNCTION_METRICS")]
    modules = {layer: importlib.import_module(f"lincoder.{layer}") for layer in layers}
    missing = []
    for qualified in functions:
        layer, function = qualified.split(".")
        if not callable(getattr(modules.get(layer), function, None)):
            missing.append(qualified)
    assert missing == []


def test_every_export_is_read_or_listed():
    package = {stem: tree for stem, tree in _package_trees().items() if stem != "__init__"}
    bench = {path.stem: ast.parse(path.read_text()) for path in sorted(BENCH.glob("*.py"))}
    # The benchmark traces the functions of FUNCTION_METRICS by name.
    traced = {name.split(".")[1] for name, _ in _bench_constant("run.py", "FUNCTION_METRICS")}
    read = _read_names(package) | _read_names(bench) | traced
    read |= set(re.findall(r"\w+", README.read_text()))
    assert sorted(set(lincoder.__all__) - read) == sorted(UNREAD_EXPORTS)
