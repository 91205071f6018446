"""Every public name and member is reached by the package, a demo or the benchmark.

A name in a module's ``__all__`` that only the tests use is test-only code
in the shipped package: no experiment, CSV or summary reaches it.  The same
holds for the members of each public class: a dataclass field, attribute,
property or method that nothing reads as ``expr.member`` outside the tests
is computed for no one.  There the acceptance criteria count as readers, since
they are the spec.  The member check is textual, so a member whose name is
read elsewhere on another object escapes it: ``VonNeumannReport.wavenumber``
passes through ``self.wavenumber`` of the probes, and a ``name`` field would
pass through ``path.name``.
"""
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "laxlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + [
    p for d in ("demos", "perfbench") for p in (ROOT / d).glob("*.py") if not p.name.startswith("test_")
]
MEMBER_READERS = USERS + [ROOT / "tests" / "test_acceptance.py"]


def _lines(paths=USERS):
    return [line for path in paths for line in path.read_text().splitlines()]


def _public(module):
    mod = importlib.import_module(f"laxlab.{module}")
    return {name: getattr(mod, name) for name in getattr(mod, "__all__", ())}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_used_outside_the_tests(module):
    lines = _lines()
    unused = []
    for name in _public(module):
        word = re.compile(rf"\b{re.escape(name)}\b")
        # The name's own def/class line or assignment, and the __all__ lines.
        own = re.compile(rf"\s*(?:(?:def|class)\s+{name}\b|{name}\s*[:=]|__all__\b|\"{name}\",?\s*$)")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []


def _members(cls) -> set:
    """Dataclass fields plus the public names the class body defines."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return fields | {name for name in vars(cls) if not name.startswith("_")}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_member_is_read_outside_the_tests(module):
    text = "\n".join(_lines(MEMBER_READERS))
    unread = [
        f"{obj.__name__}.{member}"
        for obj in _public(module).values()
        if isinstance(obj, type)
        for member in sorted(_members(obj))
        if not re.search(rf"(?<=[\w)\]])\.{re.escape(member)}\b", text)
    ]
    assert unread == []
