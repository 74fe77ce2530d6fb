"""Smoke tests of the benchmark: schema, output checks and exact counters.

They run the smallest slice of each workload and assert no timing, which
would flake.  Run from the root of a checkout:

    python -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402  (oracle-cap too, run on request)
EXACT = ("jets.strata", "ring.poly_ops", "brieskorn.reference_calls",
         "oracle.combine_rows", "oracle.power_rows")


def _run(workload, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_schema_and_checks(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat(workload):
    first, second = (_result(_run(workload, 1))["metrics"] for _ in range(2))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_series_text_round_trip():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    from arczeta import format_series, parse_germ, zeta_direct
    from checks import parse_series

    for germ, variant in (("x^3", "naive"), ("x^2+y^4", "plus"), ("x^2*y^3", "minus"),
                          ("x^3-y^5", "naive")):
        z = zeta_direct(parse_germ(germ), 24, variant)
        coeffs = parse_series(format_series(z))
        assert coeffs == {n: z.coeff(n) for n in z.support()}
