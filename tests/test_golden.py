"""Byte-identical CLI output on a fixed corpus.

``golden_cli.json`` maps each argv below to the exit code, stdout and stderr
that ``arczeta.cli.main`` produced for it.  The corpus is the README
examples, every ``sample_data/`` file in each ``--sign`` and ``--format``,
the error exits, and each variant on one germ of every shape, so a refactor
that changes any of these bytes fails here.

To record the file again after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root.
"""

import contextlib
import functools
import io
import json
import pathlib
import sys

import pytest

from arczeta import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"

README = [
    ["zeta-germ", "--germ", "x^3", "--order", "9"],
    ["zeta-germ", "--germ", "x^2+y^2", "--order", "8", "--sign", "plus"],
    ["zeta-res", "--file", "sample_data/resolution_x2_y4.json", "--order", "12"],
    ["beta", "--script", "sample_data/whitney_umbrella.json"],
    ["classify", "--germ", "x^3+y^6", "--format", "json"],
    ["ts", "--left", "x^2", "--right", "x^4", "--order", "20"],
    ["compare", "--left", "x^2+y^2+z^2", "--right", "x^2+y^4+z^4", "--order", "12"],
    ["oracle", "--germ", "x^2*y^3", "--n", "5", "--q", "3,5"],
]

FORMATS = ("text", "json")
SIGNS = ("naive", "plus", "minus")


def _with_format(argv: list[str], fmt: str) -> list[str]:
    if "--format" in argv:
        i = argv.index("--format")
        return argv[:i] + ["--format", fmt] + argv[i + 2:]
    return argv + ["--format", fmt]


def corpus() -> list[list[str]]:
    calls = [_with_format(argv, fmt) for argv in README for fmt in FORMATS]
    for name in ("resolution_x2_y2", "resolution_x2_y4"):
        calls += [["zeta-res", "--file", f"sample_data/{name}.json", "--sign", sign,
                   "--format", fmt] for sign in SIGNS for fmt in FORMATS]
    for name in ("whitney_umbrella", "singular_curves"):
        calls += [["beta", "--script", f"sample_data/{name}.json", "--format", fmt]
                  for fmt in FORMATS]
    # every variant on one germ of each shape
    for germ in ("-x^3", "x^4", "x^2*y^3", "-x^2*y^2*z^4", "x^2+y^2", "x^4-y^6",
                 "x^3+y^5", "x^2+y^4+z^6", "-x^2-y^2-z^4"):
        calls += [["zeta-germ", f"--germ={germ}", "--order", "24", "--sign", sign]
                  for sign in SIGNS]
    calls += [
        ["zeta-germ", "--germ", "x^2-y^4", "--order", "16", "--format", "json"],
        ["classify", "--germ", "x^4-y^6"],
        ["classify", "--germ", "x^2+y^5", "--format", "json"],
        ["compare", "--left", "x^3+y^5", "--right", "x^3-y^5", "--format", "json"],
        ["compare", "--left", "x^2+y^3", "--right", "x^2+y^4", "--order", "16"],
        ["ts", "--left=-x^4", "--right=-x^6", "--order", "30"],
        ["ts", "--left", "x^2", "--right", "x^2", "--order", "12", "--format", "json"],
        ["oracle", "--germ", "x^2-y^2", "--n", "3", "--q", "7", "--format", "json"],
        ["oracle", "--germ", "x^2+y^4", "--n", "3", "--q", "7,11"],
        # error exits
        ["zeta-germ", "--germ", "x^2+*y"],
        ["zeta-germ", "--germ", "x^3-y^3+z^3"],
        ["zeta-germ", "--germ", "x^2", "--order", "0"],
        ["zeta-germ", "--germ", "x^2", "--sign", "both"],
        ["zeta-res", "--file", "sample_data/resolution_x2_y2.json", "--sign", "zero"],
        ["zeta-res", "--file", "sample_data/missing.json"],
        ["beta", "--script", "sample_data/resolution_x2_y2.json"],
        ["classify", "--germ", "x^2*y^3"],
        ["classify", "--germ", "x^2+y^3+z^5", "--order", "16"],
        ["oracle", "--germ", "x^2*y^3", "--n", "5", "--q", "3,5,7"],
        ["oracle", "--germ", "x^2+y^2", "--n", "2", "--q", "5"],
        ["oracle", "--germ", "x^2", "--n", "0", "--q", "5"],
    ]
    # the README's beta example is also a sample_data call
    return [list(argv) for argv in dict.fromkeys(map(tuple, calls))]


def _key(argv: list[str]) -> str:
    return " ".join(argv)


@functools.cache
def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_matches_the_recorded_calls():
    assert sorted(_load()) == sorted(_key(argv) for argv in corpus())


@pytest.mark.parametrize("argv", corpus(), ids=_key)
def test_output_is_byte_identical(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert [code, out, err] == _load()[_key(argv)]


def _call(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def test_one_parser_serves_every_call_in_any_order(monkeypatch):
    # the reversed pass starts with the error exits (--order 0, --sign both,
    # a missing file, ...), so they fall between successful calls
    monkeypatch.chdir(ROOT)
    cli.build_parser.cache_clear()
    for argv in corpus() + corpus()[::-1]:
        assert _call(argv) == _load()[_key(argv)], argv
    assert cli.build_parser.cache_info().misses == 1


def _record() -> dict:
    return {_key(argv): _call(argv) for argv in corpus()}


if __name__ == "__main__":
    if pathlib.Path.cwd() != ROOT:
        sys.exit(f"run from {ROOT.name}/, so that the sample_data paths resolve")
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n", encoding="utf-8")
