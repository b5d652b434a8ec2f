"""The package runs on the standard library alone, as the README promises."""

import ast
import sys
from pathlib import Path

import dcascan

SOURCES = sorted(Path(dcascan.__file__).parent.glob("*.py"))


def _imported_modules(tree: ast.AST):
    """Top-level names of every module a parsed file imports; relative imports are ``dcascan``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "dcascan" if node.level else node.module.partition(".")[0]


def test_package_imports_only_itself_and_the_standard_library():
    assert len(SOURCES) >= 10
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        outside = {name for name in _imported_modules(tree)
                   if name != "dcascan" and name not in sys.stdlib_module_names}
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_analysis_imports_neither_the_engine_nor_the_event_type():
    """Scoring knows a presentation only by the log's columns, not by the shape
    the engine presents it in; the two meet only at the log."""
    path = Path(dcascan.__file__).parent / "analysis.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("dcascan" + (f".{node.module}" if node.module else "")) if node.level \
                else node.module
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    forbidden = {name for name in imported if name == "dcascan.engine"
                 or name.startswith("dcascan.engine.") or name == "dcascan.events.ProcessEvent"}
    assert not forbidden, f"analysis.py imports {sorted(forbidden)}"


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function, method and class, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, f"{prefix}{node.name}.")
        else:
            yield from _definitions(node, prefix)


def test_every_definition_in_the_package_is_used_by_the_package():
    """Code that only tests reach belongs in the tests.

    Exempt: dunders, the public ``dcascan.__all__``, names the bench wraps by
    their string name, the CLI's ``main``, and argparse's ``error`` hook.
    """
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    bench = Path(__file__).resolve().parents[1] / "bench"
    by_string = {node.value for path in bench.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    known = used | set(dcascan.__all__) | by_string | {"main"}
    unused = [f"{path.name}: {qualname}"
              for path, tree in zip(SOURCES, trees)
              for qualname, node in _definitions(tree)
              if not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in known and qualname != "_Parser.error"]
    assert not unused, f"defined but never used in src/: {unused}"


def _owned_nodes(tree: ast.AST, owner: str = ""):
    """(qualified name of the innermost enclosing definition, node) of every node."""
    for node in ast.iter_child_nodes(tree):
        inner = owner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{owner}.{node.name}" if owner else node.name
        yield inner, node
        yield from _owned_nodes(node, inner)


def _write_mode(call: ast.Call) -> bool:
    """Whether an ``open`` call may write: a mode with w, a, x or +, or one not spelled out."""
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
        or bool(set(mode.value) & set("wax+"))


def test_every_file_is_written_through_one_part_writer():
    """Only ``events.replacing`` opens a file to write and renames one; the
    pipe ends of ``cli._in_child`` are the one other write-mode ``open``."""
    writers, renames = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for owner, node in _owned_nodes(tree):
            where = f"{path.stem}.{owner}"
            if isinstance(node, ast.Call) and _write_mode(node) and (
                    isinstance(node.func, ast.Name) and node.func.id == "open"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "open"):
                writers.append(where)
            if isinstance(node, ast.Attribute) and node.attr in ("replace", "rename") \
                    and isinstance(node.value, ast.Name) and node.value.id == "os":
                renames.append(where)
    assert set(writers) - {"cli._in_child"} == {"events.replacing"}
    assert renames == ["events.replacing"]


def test_every_bucket_is_made_by_one_bucketer():
    """Only ``events.iter_buckets`` calls ``TickBucket`` or passes it on, as
    ``map(TickBucket, ...)`` does: every command buckets its stream there."""
    makers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for owner, node in _owned_nodes(tree):
            if isinstance(node, ast.Call) and any(
                    isinstance(arg, ast.Name) and arg.id == "TickBucket"
                    or isinstance(arg, ast.Attribute) and arg.attr == "TickBucket"
                    for arg in [node.func, *node.args, *(kw.value for kw in node.keywords)]):
                makers.append(f"{path.stem}.{owner}")
    assert set(makers) == {"events.iter_buckets"}
