"""The package's public names: sorted, unique, and each reached by a program path."""

import functools
import re
from pathlib import Path

import pytest

import dsmseq

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dsmseq"


@functools.cache
def program_text() -> str:
    """The package outside __init__.py, the demos, the README and the
    benchmark harness (not its tests): the code and docs that reach a name."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]
    paths += [p for p in (ROOT / "benchmarks").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts]
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


def test_all_is_sorted_and_unique():
    assert dsmseq.__all__ == sorted(set(dsmseq.__all__))


@pytest.mark.parametrize("name", dsmseq.__all__)
def test_exported_name_is_used_outside_tests(name):
    # a top-level def, class or assignment is the name's definition, not a use
    uses = re.sub(rf"^(?:def |class )?{name}\b", "", program_text(), flags=re.M)
    assert re.search(rf"\b{name}\b", uses), f"{name} is exported but only tests reach it"
