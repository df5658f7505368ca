"""Surface guard: every public function and class of an ``htvseg`` module
is read somewhere in the package or in the acceptance gate. A name that
only its own tests reach is surface to delete, not to keep."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import htvseg

SOURCES = [*Path(htvseg.__file__).parent.glob("*.py"),
           Path(__file__).with_name("test_acceptance.py")]


def _referenced_names() -> set[str]:
    """Names read through AST names, attributes or imports in SOURCES."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _public_surface() -> list[str]:
    """'module.name' of each public function and class an htvseg module
    defines."""
    surface = []
    for info in pkgutil.iter_modules(htvseg.__path__):
        module = importlib.import_module(f"htvseg.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__):
                surface.append(f"{info.name}.{name}")
    return sorted(surface)


def test_every_public_name_has_a_reader():
    read = _referenced_names()
    unread = [q for q in _public_surface() if q.split(".", 1)[1] not in read]
    assert unread == [], (f"read by neither htvseg nor the acceptance gate: "
                          f"{', '.join(unread)}")
