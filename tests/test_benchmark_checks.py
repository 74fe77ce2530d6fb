"""The benchmark's output checks pass on one pass over its workloads.

``perfbench/checks.py`` compares every benchmark call's output with an
independent route: ``zeta-germ`` with the expanded ``closed_form``,
``zeta-res`` and ``ts`` with the jet route, and so on.  These tests run one
deep-series cycle at its base orders and the cli-corpus calls through
``arczeta.cli.main`` in-process and apply the same checks, so a route that
drifts from the other fails here rather than as a failed benchmark call.
The benchmark's files are only read.
"""

import contextlib
import io
from pathlib import Path

import pytest

from arczeta import cli, closed_form, parse_germ

from test_benchmark_names import _load

ROOT = Path(__file__).resolve().parent.parent
CHECKS = _load("checks")
WORKLOADS = _load("workloads")


def _run(call) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(call.argv))
    return rc, out.getvalue()


def _failed(calls) -> list[str]:
    """The calls with an expected exit code whose check does not read ok."""
    refs = CHECKS.References()
    failed = []
    for call in calls:
        rc, out = _run(call)
        if call.expect_rc is not None and CHECKS.check(call, rc, out, refs) != "ok":
            failed.append(" ".join(call.argv))
    return failed


def test_deep_series_cycle(tmp_path):
    files = WORKLOADS.write_resolution_files(tmp_path)
    calls = [WORKLOADS._deep_call(t, t[3], files) for t in WORKLOADS.deep_templates()]
    assert _failed(calls) == []


@pytest.mark.parametrize("germ", sorted({
    t[1] for t in WORKLOADS.deep_templates() if t[0] == "zeta-germ"}))
def test_deep_series_germs_have_closed_forms(germ):
    # so the zeta-germ checks compare with the form, not with the route itself
    for variant in ("naive", "plus", "minus"):
        closed_form(parse_germ(germ), variant)


def test_cli_corpus(monkeypatch):
    monkeypatch.chdir(ROOT)
    calls = WORKLOADS.corpus()
    assert len(calls) == 24
    assert _failed(calls) == []
