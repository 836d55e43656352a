"""No orphaned library code: every private module-level function or class,
and every private method, of ``src/ocran`` is used somewhere in ``src/ocran``
beyond its own definition, or is a span that ``bench/tracing.py`` traces;
so is every public module-level function or class, unless it is a command
or verify suite that its module looks up by name.  What only the tests use
lives under ``tests/``."""

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


# (module, name prefix) of the subcommands and verify suites, which
# ``cli.main`` and ``verify.run_suites`` look up by name in their globals
ENTRY_POINTS = (("cli.py", "cmd_"), ("verify.py", "suite_"))


def _entry_point(module: str, name: str) -> bool:
    return any(module == m and name.startswith(prefix) for m, prefix in ENTRY_POINTS)


def test_every_public_definition_is_used_traced_or_an_entry_point():
    """Every public module-level function and class of ``src/ocran`` is used
    in ``src/ocran`` beyond its own definition, is part of a path that
    ``bench/tracing.py`` traces, or is one of the ``ENTRY_POINTS``."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = [name for tree in trees.values() for name in _uses(tree)]
    traced = {part for _, _, path, _ in load_tracing().LAYERS for part in path.split(".")}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = [f"{module}:{node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, kinds) and not node.name.startswith("_")
              and uses.count(node.name) == _uses(node).count(node.name)
              and node.name not in traced and not _entry_point(module, node.name)]
    assert unused == []
