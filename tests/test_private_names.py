"""No orphaned private code: every private module-level function or class,
and every private method, of ``src/ocran`` is used somewhere in ``src/ocran``
beyond its own definition, or is a span that ``bench/tracing.py`` traces."""

import ast
import pathlib

from test_bench_tracing import load_tracing

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ocran"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree: ast.Module):
    """The private module-level functions and classes of ``tree`` and the
    private methods of its module-level classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and _private(node.name):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, kinds) and _private(item.name))


def _uses(node: ast.AST) -> list[str]:
    """Every name that ``node`` reads, as a bare name or as an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def test_every_private_definition_is_used_or_traced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [name for tree in trees.values() for name in _uses(tree)]
    traced = {part for _, _, path, _ in load_tracing().LAYERS for part in path.split(".")}
    orphans = [f"{module}:{node.name}"
               for module, tree in trees.items() for node in _definitions(tree)
               if uses.count(node.name) == _uses(node).count(node.name)
               and node.name not in traced]
    assert orphans == []
