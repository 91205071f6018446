"""Every public name and member is reached by the package, a demo or the benchmark.

A name in a module's ``__all__`` that only the tests use is test-only code
in the shipped package: no experiment, CSV or summary reaches it.  The same
holds for the members of each public class: a dataclass field, attribute,
property or method that nothing reads as ``expr.member`` outside the tests
is computed for no one.  There the acceptance criteria count as readers, since
they are the spec.

Both checks read code, not prose: a use is an ``ast.Name`` or
``ast.Attribute`` in a reader file, so a mention in a docstring or comment
reaches nothing.  The benchmark's string constants ``"<module>.<name>..."``
count as uses of ``name`` as well, since its tracer resolves the layers it
times by those names.  A member is matched by name alone, so one whose name
is read elsewhere on another object escapes the check: a ``wavenumber``
field would pass through ``self.wavenumber`` of the probes, and a ``name``
field through ``path.name``.
"""
import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "laxlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCHMARK = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
READERS = (
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + BENCHMARK
    + [ROOT / "tests" / "test_acceptance.py"]
)
LAYER = re.compile(rf"^(?:{'|'.join(MODULES)})\.(\w+)")


def _references() -> tuple:
    """(names, attributes): the identifiers the readers load, the benchmark's
    layer names counted among the names."""
    names, attrs = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif path in BENCHMARK and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(LAYER.findall(node.value))
    return names, attrs


NAMES, ATTRIBUTES = _references()


def _public(module):
    mod = importlib.import_module(f"laxlab.{module}")
    return {name: getattr(mod, name) for name in getattr(mod, "__all__", ())}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_used_outside_the_tests(module):
    unused = [name for name in _public(module) if name not in NAMES | ATTRIBUTES]
    assert unused == []


def _members(cls) -> set:
    """Dataclass fields plus the public names the class body defines."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return fields | {name for name in vars(cls) if not name.startswith("_")}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_member_is_read_outside_the_tests(module):
    unread = [
        f"{obj.__name__}.{member}"
        for obj in _public(module).values()
        if isinstance(obj, type)
        for member in sorted(_members(obj))
        if member not in ATTRIBUTES
    ]
    assert unread == []


def _raised_names() -> set:
    """The names that an ``ast.Raise`` in the package raises, called or bare."""
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return raised


def test_every_error_class_but_the_base_is_raised():
    """An exception class that nothing raises is a dead branch in every
    ``except`` that names it; the base ``LaxlabError`` is only caught."""
    errors = importlib.import_module("laxlab.errors")
    classes = [
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception) and name != "LaxlabError"
    ]
    assert classes
    assert [name for name in classes if name not in _raised_names()] == []
