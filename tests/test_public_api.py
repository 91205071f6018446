"""Every public name is reached by the package, a demo or the benchmark.

A name in a module's ``__all__`` that only the tests use is test-only code
in the shipped package: no experiment, CSV or summary reaches it.
"""
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


def _lines():
    return [line for path in USERS for line in path.read_text().splitlines()]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_used_outside_the_tests(module):
    lines = _lines()
    unused = []
    for name in getattr(importlib.import_module(f"laxlab.{module}"), "__all__", ()):
        word = re.compile(rf"\b{re.escape(name)}\b")
        # The name's own def/class line or assignment, and the __all__ lines.
        own = re.compile(rf"\s*(?:(?:def|class)\s+{name}\b|{name}\s*[:=]|__all__\b|\"{name}\",?\s*$)")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
