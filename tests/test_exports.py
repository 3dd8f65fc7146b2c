"""The package's public names: sorted, unique, each reached by a program
path, and each loading its home module only when first read."""

import functools
import importlib
import json
import os
import re
import subprocess
import sys
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


def fresh_modules(code: str) -> list[str]:
    """Run code in a new interpreter; the numpy and dsmseq modules it left loaded."""
    report = (
        "import json, sys; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'dsmseq'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout)


def test_import_loads_no_module():
    assert fresh_modules("import dsmseq") == ["dsmseq"]


def test_a_name_loads_only_its_home_module():
    loaded = fresh_modules(
        "import dsmseq\n"
        f"dsmseq.build_adjacency(dsmseq.load_case({str(PACKAGE / 'data' / 'demo_gearbox_7.json')!r}))"
    )
    assert [m for m in loaded if m.startswith("dsmseq")] == ["dsmseq", "dsmseq.model"]


@pytest.mark.parametrize("name", dsmseq.__all__)
def test_name_is_its_home_module_attribute(name):
    home = importlib.import_module(f"dsmseq.{dsmseq._HOME[name]}")
    assert getattr(dsmseq, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from dsmseq import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == dsmseq.__all__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'dsmseq' has no attribute 'no_such_name'$"):
        dsmseq.no_such_name


def test_dir_lists_every_name():
    assert set(dsmseq.__all__) <= set(dir(dsmseq))
