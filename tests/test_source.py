"""Checks on the source text of the package and its tests."""

import ast
import contextlib
import sys
from pathlib import Path

import ksbcfd.cli

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """The names that a module imports and never reads, as ``file:line: name``.

    A name is read when it appears as a loaded ``Name`` anywhere in the
    module (an attribute chain reads its first name) or is listed in
    ``__all__``.  ``from __future__`` imports are directives, not names.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in read]


def test_every_imported_name_is_read():
    # __init__.py re-exports the package's names, which it imports only to bind
    paths = [path for folder in (ROOT / "src" / "ksbcfd", ROOT / "tests")
             for path in sorted(folder.glob("*.py")) if path.name != "__init__.py"]
    assert len(paths) > 10
    assert [found for path in paths for found in unused_imports(path)] == []


def private_reads(path: Path) -> list[str]:
    """Where a module reads another ksbcfd module's private name, as
    ``file:line: module._name``.

    A private name starts with one underscore (``__version__`` is public).
    It is read as an attribute of a name bound to a ksbcfd module (``from .
    import linalg``, ``import ksbcfd.linalg``) or imported from one (``from
    .linalg import _name``).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    private = lambda name: name.startswith("_") and not name.startswith("__")
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "ksbcfd")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ksbcfd"):
            for alias in node.names:
                if private(alias.name):
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                                 f"{node.module}.{alias.name}")
                elif node.module in (None, "ksbcfd"):
                    modules.add(alias.asname or alias.name)
    found += [f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}"
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and private(node.attr)
              and ast.unparse(node.value) in modules]
    return found


def test_no_module_reads_another_modules_private_names():
    paths = sorted((ROOT / "src" / "ksbcfd").glob("*.py"))
    assert len(paths) > 5
    assert [found for path in paths for found in private_reads(path)] == []


def test_the_benchmark_spans_bind_names_that_exist():
    # bench/ is on the path for the import only; run.py is not imported,
    # since it sets the BLAS thread variables when it loads
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import layers
        import spans
    finally:
        sys.path.remove(str(ROOT / "bench"))
    bicgstab = ksbcfd.linalg.bicgstab
    with contextlib.ExitStack() as stack:
        layers.install_layers(stack, spans.Tracer(), ksbcfd)
        assert ksbcfd.linalg.bicgstab.__wrapped__ is bicgstab
    assert ksbcfd.linalg.bicgstab is bicgstab
