"""The names the benchmark harness imports or wraps still exist.

``perfbench/checks.py`` imports from the package, and ``perfbench/tracer.py``
wraps the functions of its ``SPANNED`` table and the ``COUNTED`` methods of
``LaurentPoly`` by name.  A rename breaks the benchmark; these tests report it
within the suite under ``tests/``, which does not run the benchmark's own
``perfbench/test_smoke.py``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look up a module
    spec.loader.exec_module(module)
    return module


TRACER = _load("tracer")


def test_checks_imports_resolve():
    _load("checks")


@pytest.mark.parametrize("target", TRACER.SPANNED.values(), ids=TRACER.SPANNED.keys())
def test_spanned_target_resolves(target):
    modname, qualname = target
    owner = importlib.import_module(modname)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("method", TRACER.COUNTED)
def test_counted_method_resolves(method):
    from arczeta.ring import LaurentPoly

    assert callable(getattr(LaurentPoly, method))
