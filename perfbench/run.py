#!/usr/bin/env python3
"""Benchmark of the arczeta command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deep-series --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py and METRICS.md for why each exists):

* ``cli-corpus``  every call is a fresh ``python -m arczeta.cli`` process;
* ``deep-series`` calls run in this process through ``arczeta.cli.main``;
* ``oracle-cap``  in-process ``oracle`` calls on the F_q jet enumerator,
  run on request only: BENCHMARK.json lists the first two.

Load model: closed loop, one client, one call at a time.  ``--trace 0``
times whole cycles of the workload's calls for at least ``--seconds``
seconds and prints the end-to-end metrics.  ``--trace 1`` replays one cycle
in this process, each call plain and with spans (tracer.py), and prints
the per-layer metrics.  Every output is checked, outside the timed section
(checks.py).  The last line of stdout is one JSON object: correct,
attempted, failed, metrics; the lines above it are the full report.
``--smoke`` runs the smallest slice of a workload for a schema check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import workloads  # noqa: E402  (the benchmark's own module, beside this file)

#: end-to-end metrics (--trace 0), name -> unit
END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (--trace 1) that cli-corpus and deep-series both
#: exercise, name -> unit; the report lines above the result hold the full
#: layer table
PER_LAYER = {
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "oracle.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "jets.parse_germ_ms": "ms",
    "jets.self_ms": "ms",
    "ring.format_ms": "ms",
    "ring.self_ms": "ms",
    "jets.zeta_direct_ms": "ms",
    "ring.series_mul_ms": "ms",
    "ring.expand_ms": "ms",
    "zeta.dl_ms": "ms",
    "zeta.resolution_parse_ms": "ms",
    "zeta.ts_convolve_ms": "ms",
    "zeta.germ_invariants_ms": "ms",
    "zeta.compare_ms": "ms",
    "brieskorn.classify_ms": "ms",
    "brieskorn.classify_self_ms": "ms",
    "cli.exit1_calls": "count",
    "cli.exit2_calls": "count",
    "cli.unsound_verdicts": "count",
    "jets.zeta_direct_calls": "count",
    "jets.jet_strata_calls": "count",
    "jets.strata": "count",
    "jets.zeta_direct_dup_share": "ratio",
    "ring.poly_ops": "count",
    "ring.series_mul_calls": "count",
    "brieskorn.reference_calls": "count",
    "oracle.count_calls": "count",
    "oracle.power_rows": "count",
    "oracle.combine_rows": "count",
    "oracle.bytes_computed": "bytes",
    "trace.overhead_frac": "ratio",
}

SUBCOMMAND_METRICS = {
    "zeta-germ": "zeta_germ_ms", "zeta-res": "zeta_res_ms", "ts": "ts_ms",
    "classify": "classify_ms", "compare": "compare_ms", "oracle": "oracle_ms",
    "beta": "beta_ms",
}

SETUP_CHILDREN = 8  # set-ups in fresh interpreters, besides this process's own
STARTUP_REPS = 5  # subprocesses per startup metric in a traced run
CALL_TIMEOUT_S = 120
MIN_CALLS = 100  # calls per timed run, so that ten lie beyond call_ms_p90

_SETUP_SNIPPET = """
import sys
from time import perf_counter
sys.path[:0] = [{bench!r}, {src!r}]
import run
t0 = perf_counter()
run.setup({workload!r}, {seed!r}, run.Path({workdir!r}))
print(perf_counter() - t0)
"""


# ---------------------------------------------------------------------------
# running one call
# ---------------------------------------------------------------------------


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_subprocess(argv, workdir: Path) -> tuple[int, str, float, float]:
    """One fresh ``python -m arczeta.cli`` process: rc, stdout, ms, peak RSS MB."""
    out_path = workdir / "stdout"
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        t0 = perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, "-m", "arczeta.cli", *argv],
            _cli_env(), file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                      (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        watchdog = threading.Timer(CALL_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - t0
    rc = os.waitstatus_to_exitcode(status)
    return rc, out_path.read_text(encoding="utf-8"), elapsed * 1000, usage.ru_maxrss / 1024


def run_inprocess(argv) -> tuple[int, str, float]:
    """One ``arczeta.cli.main`` call with stdout captured: rc, stdout, ms."""
    cli = sys.modules["arczeta.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:  # a traceback is a failed call, not a stopped benchmark
            rc = -1
        elapsed = perf_counter() - t0
    return rc, out.getvalue(), elapsed * 1000


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, generate the inputs and warm up; returns the call stream."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cli-corpus":
        stream = workloads.corpus_stream(seed)
        run_subprocess(workloads.warmup_calls()[0], workdir)
        return stream
    import arczeta.cli  # noqa: F401  (timed: this is the program's import)
    if workload == "deep-series":
        files = workloads.write_resolution_files(workdir / "resolutions")
        stream = workloads.deep_stream(seed, files)
    else:
        stream = workloads.oracle_stream(seed)
    for argv in workloads.warmup_calls():
        run_inprocess(argv)
    return stream


def _setup_in_child(workload: str, seed: int, workdir: Path) -> float:
    code = _SETUP_SNIPPET.format(bench=str(BENCH), src=str(SRC), workload=workload,
                                 seed=seed, workdir=str(workdir))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=CALL_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed in a fresh interpreter:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _execute(workload, call, workdir):
    if workload == "cli-corpus":
        return run_subprocess(call.argv, workdir)
    rc, out, ms = run_inprocess(call.argv)
    return rc, out, ms, 0.0


def _judge(records):
    """Check every (call, rc, out) after the timed section: ok/failed/unsound."""
    import checks

    refs = checks.References()
    return [checks.check(call, rc, out, refs) for call, rc, out, *_ in records]


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(workload, seed, seconds, workdir, smoke):
    setup_t0 = perf_counter()
    stream = setup(workload, seed, workdir)
    setup_samples = [perf_counter() - setup_t0]
    if not smoke:
        for i in range(SETUP_CHILDREN):
            setup_samples.append(_setup_in_child(workload, seed, workdir / f"setup{i}"))

    # each output is checked as soon as its call returns, with the clock
    # stopped, so no output is held and no check is timed
    import checks

    refs = checks.References()
    records, verdicts = [], []
    wall = 0.0
    peak_mb = 0.0
    cycle = workloads.cycle_length(workload)
    while True:
        t0 = perf_counter()
        call = next(stream)
        rc, out, ms, child_mb = _execute(workload, call, workdir)
        wall += perf_counter() - t0
        records.append((call, rc, ms))
        peak_mb = max(peak_mb, child_mb)
        verdicts.append(checks.check(call, rc, out, refs))
        if smoke:
            if len(records) == 3:
                break
        # stop on a cycle boundary, so that every run times the same mix of
        # calls whatever the seed; p90 needs ten samples beyond it
        elif wall >= seconds and len(records) >= MIN_CALLS and \
                len(records) % cycle == 0:
            break
    if workload != "cli-corpus":
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    latencies = [r[2] for r in records]
    n = len(records)
    table = {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "calls_per_s": (n / wall, "1/s", n),
        "call_ms_p50": (statistics.median(latencies), "ms", n),
        "call_ms_p90": (_p90(latencies), "ms", n),
        "peak_rss_mb": (peak_mb, "MB", n if workload == "cli-corpus" else 1),
        "timed_s": (wall, "s", n),
    }
    for sub, name in SUBCOMMAND_METRICS.items():
        own = [ms for call, _, ms in records if call.subcommand == sub]
        if own:
            table[name] = (statistics.median(own), "ms", len(own))
    table["failed_frac"] = (sum(v != "ok" for v in verdicts) / n, "ratio", n)
    return records, verdicts, table


def _startup_probes(reps):
    """Interpreter start, ``import arczeta.cli`` and the cumulative import of oracle."""
    env = _cli_env()
    start, imports, oracle = [], [], []
    timed_import = ("from time import perf_counter; t = perf_counter(); "
                    "import arczeta.cli; print(perf_counter() - t)")
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env,
                       timeout=CALL_TIMEOUT_S)
        start.append(1000 * (perf_counter() - t0))
        proc = subprocess.run([sys.executable, "-c", timed_import], check=True,
                              env=env, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
        imports.append(1000 * float(proc.stdout))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import arczeta.cli"], check=True, env=env,
                              capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        m = re.search(r"\|\s*(\d+)\s*\|\s*arczeta\.oracle\s*$", proc.stderr, re.M)
        oracle.append(int(m.group(1)) / 1000 if m else 0.0)
    return {
        "cli.interp_start_ms": (statistics.median(start), "ms", reps),
        "cli.import_ms": (statistics.median(imports), "ms", reps),
        "oracle.import_ms": (statistics.median(oracle), "ms", reps),
    }


def traced_run(workload, seed, workdir, smoke):
    import arczeta.cli  # noqa: F401  (cli-corpus replays in this process too)
    from tracer import Tracer

    stream = setup(workload, seed, workdir)
    calls = [next(stream) for _ in range(3 if smoke else workloads.cycle_length(workload))]
    layers = _startup_probes(1 if smoke else STARTUP_REPS)
    for argv in workloads.warmup_calls():
        run_inprocess(argv)

    # each call runs plain and traced back to back, alternating which goes
    # first, so drift in machine speed and second-run effects fall on both
    # sides of trace.overhead_frac alike
    tracer = Tracer()
    plain, traced = [], []

    def run_traced(i, call):
        tracer.call_id = i
        tracer.install()
        try:
            traced.append((call, *run_inprocess(call.argv)))
        finally:
            tracer.uninstall()

    for i, call in enumerate(calls):
        if i % 2:
            run_traced(i, call)
        plain.append((call, *run_inprocess(call.argv)))
        if not i % 2:
            run_traced(i, call)
    records = plain + traced
    verdicts = _judge(records)
    layers.update(tracer.layers())
    layers["cli.unsound_verdicts"] = (verdicts[len(plain):].count("unsound"),
                                      "count", len(traced))
    plain_ms, traced_ms = (sum(r[3] for r in side) for side in (plain, traced))
    layers["trace.overhead_frac"] = (1 - plain_ms / traced_ms, "ratio", len(calls))
    return records, verdicts, layers


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def provenance(workload, seed, trace, calls):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
    return {
        "workload": workload, "seed": seed, "trace": trace, "calls": calls,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest slice only, for a schema check")
    args = parser.parse_args(argv)

    if not (SRC / "arczeta" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no arczeta sources under {SRC}\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.trace:
            records, verdicts, table = traced_run(args.workload, args.seed, workdir,
                                                  args.smoke)
        else:
            records, verdicts, table = timed_run(args.workload, args.seed, args.seconds,
                                                 workdir, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed = verdicts.count("failed")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, args.trace,
                                                len(records))))
    for (call, rc, *_), verdict in zip(records, verdicts):
        if verdict != "ok":
            print(f"{verdict.upper()}: {' '.join(call.argv)} (exit {rc})")
    for name, (value, unit, n) in table.items():
        print(f"  {name:30s} {value:>16.6f} {unit:6s} n={n}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": table[name][0], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END).items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
