"""Import hygiene, checked with `ast` alone: exports resolve, imports and
definitions are used."""

import ast
import importlib
from pathlib import Path

import coptrans

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [path for d in ("src/coptrans", "tests", "tools")
           for path in sorted((ROOT / d).glob("*.py"))]

# (file relative to the repo root, imported name): why it stays without a use
UNUSED_ALLOWED = {
    ("src/coptrans/cli.py", "centroid_report"):
        "perfbench/tracer.py patches coptrans.cli.centroid_report",
}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its first binding."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)


def test_every_exported_name_resolves():
    modules = [coptrans] + [
        importlib.import_module(f"coptrans.{path.stem}")
        for path in SOURCES if path.parent.name == "coptrans" and path.stem != "__init__"
    ]
    missing = [(module.__name__, name) for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        unused += [f"{rel}:{line} {name}" for name, line in _imported(tree).items()
                   if name not in used and (rel, name) not in UNUSED_ALLOWED]
    assert unused == []


def _referenced(nodes) -> set[str]:
    """Every name the nodes load, read as an attribute or import."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
    return names


def test_every_definition_is_exported_or_referenced():
    # a module-level function or class outside its module's __all__ must be
    # referenced somewhere in the package beyond its own definition
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES if path.parent.name == "coptrans"}
    unreferenced = []
    for path, tree in trees.items():
        exported = _exported(tree)
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name in exported):
                continue
            rest = [n for n in tree.body if n is not node]
            rest += [t for p, t in trees.items() if p != path]
            if node.name not in _referenced(rest):
                unreferenced.append(f"{path.relative_to(ROOT).as_posix()}:{node.lineno} "
                                    f"{node.name}")
    assert unreferenced == []
