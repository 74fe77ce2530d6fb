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
import hashlib
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


# sha256 of stdout at orders past the recorded corpus, where coefficients
# have hundreds of terms; recorded before the one-pass term writer
DEEP = {
    ("zeta-germ", "--germ=x^3-y^7", "--order", "512"): (
        "94079af6fd32c828add2855184eee580c01d80afc614a2868af92d2067651944",
        "e25f445309d24d91596e09da39e2c7c0f5a057038ea39ea8872c9796145636d0"),
    ("zeta-germ", "--germ=-x^3*y^4*z^5", "--order", "160", "--sign", "minus"): (
        "4c361562f53f01208ee6d6fa301e9797a4cf2a38d70171349f84fc9f751866ea",
        "4c2ad27b3d4931cb9c269a0b1ef83ea095b0be3f72c4454170050628bc94a787"),
    ("zeta-res", "--file", "sample_data/resolution_x2_y4.json", "--order", "2048",
     "--sign", "plus"): (
        "ebeffc4e5877648f046f6d36512005f3f8e4ac288feb15628728c3f35d6a5d1b",
        "64f08fba4d7364f9553a9541235853c252111372ef0b69aeaa29a9af5b9c8d7b"),
    ("ts", "--left", "x^2", "--right", "x^4", "--order", "448"): (
        "27443bb6f29df87de69c0843b97b6d970075ed67ce11f9090ad955bd8b570283",
        "7a8a8432427ff6fd4bb9b6154d4532efd578f679299789fcf019ae12357a0931"),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", list(DEEP), ids=_key)
def test_deep_order_output_is_byte_identical(argv, fmt, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, err = _call(list(argv) + ["--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP[argv][FORMATS.index(fmt)]


def _record() -> dict:
    return {_key(argv): _call(argv) for argv in corpus()}


if __name__ == "__main__":
    if pathlib.Path.cwd() != ROOT:
        sys.exit(f"run from {ROOT.name}/, so that the sample_data paths resolve")
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n", encoding="utf-8")
