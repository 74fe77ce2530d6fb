"""Command-line behavior: formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from arczeta.cli import main

RESOLUTION_X2_Y2 = {
    "dimension": 2,
    "components": [{"id": "E1", "N": 2, "nu": 2, "over_origin": True}],
    "strata": [{"I": ["E1"], "beta0": "u+1", "beta_plus": "u+1", "beta_minus": "0"}],
}

WHITNEY = {
    "defs": [
        {"name": "P", "expr": {"atom": {"custom": {"name": "parabola", "beta": "u", "dim": 1}}}},
        {
            "name": "W_minus_L",
            "expr": {
                "difference": [
                    {"product": [{"atom": {"affine": 1}}, {"ref": "P"}]},
                    {"ref": "P"},
                ]
            },
        },
        {
            "name": "W",
            "expr": {
                "union": [
                    {"ref": "W_minus_L"},
                    {"atom": {"custom": {"name": "line", "beta": "u", "dim": 1}}},
                ]
            },
        },
    ]
}

# a constant beta of 4300 digits, the most Python prints by default
_LONG_BETA = {"atom": {"custom": {"name": "B", "beta": "9" * 4300, "dim": 0}}}


def run_cli(*args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "arczeta.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestZetaGerm:
    def test_pure_power_text(self):
        rc, out, _ = run_cli("zeta-germ", "--germ", "x^3", "--order", "9")
        assert rc == 0
        assert out == "(u-1)*u^-1*T^3 + (u-1)*u^-2*T^6 + (u-1)*u^-3*T^9\n"

    def test_sign_variant(self):
        rc, out, _ = run_cli(
            "zeta-germ", "--germ", "x^2", "--order", "4", "--sign", "plus"
        )
        assert rc == 0
        assert out == "(2)*u^-1*T^2 + (2)*u^-2*T^4\n"

    def test_monomial_with_inert_variable(self):
        rc, out, _ = run_cli("zeta-germ", "--germ", "x^2*y^5*z^0", "--order", "3")
        assert rc == 0
        assert out == "0\n"

    def test_unsupported_exit_2(self):
        rc, out, err = run_cli("zeta-germ", "--germ", "x^3-y^3+z^3", "--order", "9")
        assert rc == 2
        assert "unsupported" in err and "indefinite three-way tie" in err

    def test_malformed_germ_exit_1(self):
        rc, _, err = run_cli("zeta-germ", "--germ", "x^3+w^2")
        assert rc == 1 and "error" in err

    def test_bad_flag_exit_1(self):
        rc, _, _ = run_cli("zeta-germ", "--germ", "x^2", "--order", "zero")
        assert rc == 1
        rc, _, _ = run_cli("zeta-germ", "--germ", "x^2", "--order", "0")
        assert rc == 1

    def test_determinism(self):
        runs = {
            run_cli("zeta-germ", "--germ", "x^2+y^4", "--order", "16")[1]
            for _ in range(3)
        }
        assert len(runs) == 1

    def test_order_prefix_monotonicity(self):
        _, small, _ = run_cli("zeta-germ", "--germ", "x^2+y^4", "--order", "8")
        _, large, _ = run_cli("zeta-germ", "--germ", "x^2+y^4", "--order", "16")
        assert large.startswith(small.strip())

    def test_json_fixed_point(self):
        rc, out, _ = run_cli(
            "zeta-germ", "--germ", "x^2+y^4", "--order", "12", "--format", "json"
        )
        assert rc == 0
        data = json.loads(out)
        assert json.dumps(data, indent=2) + "\n" == out
        from arczeta.ring import ZetaSeries

        series = ZetaSeries.from_json_dict(data["series"])
        assert series.to_json_dict() == data["series"]

    def test_out_file(self, tmp_path):
        target = tmp_path / "series.txt"
        rc, out, _ = run_cli(
            "zeta-germ", "--germ", "x^3", "--order", "6", "--out", str(target)
        )
        assert rc == 0 and out == ""
        assert target.read_text() == "(u-1)*u^-1*T^3 + (u-1)*u^-2*T^6\n"

    def test_unwritable_out_file_is_one_error_line(self, tmp_path):
        target = tmp_path / "missing" / "series.txt"
        rc, out, err = run_cli(
            "zeta-germ", "--germ", "x^3", "--order", "6", "--out", str(target),
            timeout=5,
        )
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and str(target) in err
        assert "Traceback" not in err and err.count("\n") == 1


class TestZetaRes:
    def test_naive_and_sign(self, tmp_path):
        path = tmp_path / "res.json"
        path.write_text(json.dumps(RESOLUTION_X2_Y2))
        rc, out, _ = run_cli("zeta-res", "--file", str(path), "--order", "6")
        assert rc == 0
        assert out == "(u^2-1)*u^-2*T^2 + (u^2-1)*u^-4*T^4 + (u^2-1)*u^-6*T^6\n"
        rc, out, _ = run_cli(
            "zeta-res", "--file", str(path), "--order", "6", "--sign", "minus"
        )
        assert rc == 0 and out == "0\n"

    def test_missing_file_exit_1(self):
        rc, _, err = run_cli("zeta-res", "--file", "/nonexistent.json")
        assert rc == 1

    def test_bad_document_exit_1(self, tmp_path):
        path = tmp_path / "res.json"
        path.write_text('{"dimension": 2, "components": []}')
        rc, _, err = run_cli("zeta-res", "--file", str(path))
        assert rc == 1

    @pytest.mark.parametrize("path, key, where", [
        (("dimension",), "dimension", "the top level"),
        (("components",), "components", "the top level"),
        (("components", 0, "id"), "id", "component 1"),
        (("components", 0, "N"), "N", "component 1"),
        (("components", 0, "nu"), "nu", "component 1"),
        (("strata", 0, "I"), "I", "stratum 1"),
    ], ids=["dimension", "components", "id", "N", "nu", "I"])
    def test_missing_key_is_named(self, tmp_path, path, key, where):
        doc = json.loads(json.dumps(RESOLUTION_X2_Y2))
        holder = doc
        for step in path[:-1]:
            holder = holder[step]
        del holder[path[-1]]
        target = tmp_path / "res.json"
        target.write_text(json.dumps(doc))
        rc, out, err = run_cli("zeta-res", "--file", str(target), timeout=5)
        assert (rc, out) == (1, "")
        assert err == f"error: bad resolution document: {where} has no {key!r} key\n"

    @pytest.mark.parametrize("path, value, field", [
        (("components", 0, "N"), 2.9, "component 1 N"),
        (("components", 0, "nu"), True, "component 1 nu"),
        (("dimension",), 2.0, "dimension"),
    ], ids=["float-N", "bool-nu", "float-dimension"])
    def test_non_integer_field_is_one_error_line(self, tmp_path, path, value, field):
        doc = json.loads(json.dumps(RESOLUTION_X2_Y2))
        holder = doc
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = value
        target = tmp_path / "res.json"
        target.write_text(json.dumps(doc))
        rc, out, err = run_cli("zeta-res", "--file", str(target), timeout=5)
        assert (rc, out) == (1, "")
        assert err == f"error: {field} must be an integer, not {value!r}\n"

    @pytest.mark.parametrize("beta, message", [
        ("u^-3000000000", "u-exponent -3000000000 out of supported range"),
        ("u^1048576+1", "exceeds the bound of 1048576 coefficients"),
        ("u^-1000000000+1", "exceeds the bound of 1048576 coefficients"),
    ], ids=["exponent", "span", "wide-span"])
    def test_ring_bounds_end_in_one_line(self, tmp_path, beta, message):
        # rejected while the file is read, before any series storage exists
        doc = json.loads(json.dumps(RESOLUTION_X2_Y2))
        doc["strata"][0]["beta_plus"] = beta
        path = tmp_path / "res.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli("zeta-res", "--file", str(path), "--sign", "plus",
                               timeout=5)
        assert rc == 2 and out == ""
        assert err.startswith("unsupported: ") and message in err and "Traceback" not in err and err.count("\n") == 1


class TestBeta:
    def test_whitney_script(self, tmp_path):
        path = tmp_path / "whitney.json"
        path.write_text(json.dumps(WHITNEY))
        rc, out, _ = run_cli("beta", "--script", str(path))
        assert rc == 0
        assert out == "P = u\nW_minus_L = u^2-u\nW = u^2\n"

    def test_json_output(self, tmp_path):
        path = tmp_path / "whitney.json"
        path.write_text(json.dumps(WHITNEY))
        rc, out, _ = run_cli("beta", "--script", str(path), "--format", "json")
        assert json.loads(out)["betas"]["W"] == "u^2"

    @pytest.mark.parametrize("kind", ["proj_space", "punctured_affine", "torus", "sphere"])
    def test_oversized_atom_rejected_at_once(self, tmp_path, kind):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"defs": [{"name": "P", "expr": {"atom": {kind: 10000000}}}]}))
        rc, out, err = run_cli("beta", "--script", str(path), timeout=5)
        assert rc == 2 and out == ""
        assert err.startswith("unsupported: ") and "1048576 coefficients" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_torus_beyond_printable_coefficients_rejected_at_once(self, tmp_path):
        path = tmp_path / "torus.json"
        path.write_text(json.dumps(
            {"defs": [{"name": "T", "expr": {"atom": {"torus": 20000}}}]}))
        rc, out, err = run_cli("beta", "--script", str(path), timeout=5)
        assert rc == 2 and out == ""
        assert err == ("unsupported: torus rank 20000 exceeds 14291: the coefficients "
                       "of (u-1)^20000 would have more than 4300 digits\n")

    def test_large_product_rejected_at_once(self, tmp_path):
        path = tmp_path / "product.json"
        torus = {"atom": {"torus": 3000}}
        path.write_text(json.dumps(
            {"defs": [{"name": "P", "expr": {"product": [torus, torus]}}]}))
        rc, out, err = run_cli("beta", "--script", str(path), timeout=5)
        assert rc == 2 and out == ""
        assert err.startswith("unsupported: ") and "work bound" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("defn", [
        {"name": "S", "expr": {"union": [_LONG_BETA, _LONG_BETA]}},
        {"name": "S", "expr": {"difference": [_LONG_BETA, {"atom": {"custom": {
            "name": "N", "beta": "-" + "9" * 4300, "dim": 0}}}]}},
        {"name": "S", "blowup": {"Bl": _LONG_BETA, "X": {"atom": {"points": 1}},
                                 "C": _LONG_BETA, "solve_for": "E"}},
    ], ids=["union", "difference", "blowup"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_sum_beyond_printable_coefficients_is_one_line(self, tmp_path, capsys,
                                                           defn, fmt):
        # each summand prints, but their sum has 4301 digits
        path = tmp_path / "sum.json"
        path.write_text(json.dumps({"defs": [defn]}))
        assert main(["beta", "--script", str(path), "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("unsupported: a coefficient of more than 4300 digits "
                       "cannot be printed\n")

    @pytest.mark.parametrize("text", [
        json.dumps({"defs": [{"name": "A", "expr": {"atom": {"affine": "x"}}}]}),
        json.dumps({"defs": [{"name": "A", "expr": {"atom": {"affine": -1}}}]}),
        '{"defs": [{"name": "A", "expr": ' + '{"union": [' * 3000
        + '{"atom": {"affine": 1}}' + ']}' * 3000 + '}]}',
        json.dumps({"defs": [{"name": "A", "expr": {"atom": {"affine": 2.5}}}]}),
        json.dumps({"defs": [{"name": "A", "expr": {"atom": {"torus": True}}}]}),
        json.dumps({"defs": [{"name": "A", "expr": {"atom": {"custom": {
            "name": "C", "beta": "u", "dim": 1.5}}}}]}),
    ], ids=["non-integer", "negative", "deep", "float", "bool", "float-dim"])
    def test_malformed_script_is_one_error_line(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        rc, out, err = run_cli("beta", "--script", str(path), timeout=5)
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert err.count("\n") == 1

    def test_large_affine_atom_is_one_term(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"defs": [{"name": "P", "expr": {"atom": {"affine": 10000000}}}]}))
        rc, out, _ = run_cli("beta", "--script", str(path), timeout=5)
        assert rc == 0 and out == "P = u^10000000\n"

    def test_custom_count_key_is_ignored(self, tmp_path, capsys):
        # a custom atom's "count" rule was once read; it is an ignored extra
        # key now, and the betas are those of the script without it
        with_count = json.loads(json.dumps(WHITNEY))
        with_count["defs"][0]["expr"]["atom"]["custom"]["count"] = "u^2+1"
        outputs = []
        for document in (WHITNEY, with_count):
            path = tmp_path / "script.json"
            path.write_text(json.dumps(document))
            assert main(["beta", "--script", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[1].out == "P = u\nW_minus_L = u^2-u\nW = u^2\n"


def _count_sweeps(monkeypatch):
    """The zeta_direct calls made from now on, on a fresh triple cache."""
    from arczeta import brieskorn, jets, zeta

    # triples kept from an earlier call would lower the count
    zeta._kept_invariants.cache_clear()
    calls = []
    original = jets.zeta_direct

    def counted(g, order, variant="naive"):
        calls.append((g, order, variant))
        return original(g, order, variant)

    for module in (jets, zeta, brieskorn):
        monkeypatch.setattr(module, "zeta_direct", counted)
    return calls


class TestClassify:
    def test_open_case_report(self):
        rc, out, _ = run_cli("classify", "--germ", "x^3+y^6", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["status"] == "open_case"
        assert (data["p"], data["q"]) == (3, 6)

    def test_text_report(self):
        rc, out, _ = run_cli("classify", "--germ", "x^4-y^6")
        assert rc == 0
        assert "p = 4" in out and "q = 6" in out
        assert "eps_p = plus" in out and "eps_q = minus" in out

    @pytest.mark.parametrize("germ, order", [
        ("x^2*y^3", "64"),
        ("x^2+y^3+z^5", "16"),
        ("x^4", "64"),
    ], ids=["monomial", "three-variable", "one-variable"])
    def test_germ_must_be_two_variable_diagonal(self, germ, order):
        rc, out, err = run_cli("classify", "--germ", germ, "--order", order, timeout=5)
        assert rc == 2 and out == ""
        assert err == ("unsupported: classify --germ needs a two-variable diagonal "
                       f"germ e1*x^p + e2*y^q, got {germ}\n")

    def test_series_files(self, tmp_path):
        from arczeta import germ_invariants, parse_germ

        inv = germ_invariants(parse_germ("x^2+y^4"), 12)
        paths = []
        for name, series in [
            ("naive", inv.naive),
            ("plus", inv.plus),
            ("minus", inv.minus),
        ]:
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(series.to_json_dict()))
            paths.append(str(p))
        args = ["classify", "--format", "json"]
        for p in paths:
            args += ["--series-file", p]
        rc, out, _ = run_cli(*args)
        assert rc == 0
        data = json.loads(out)
        assert (data["p"], data["q"], data["eps_p"], data["eps_q"]) == (
            2,
            4,
            "plus",
            "plus",
        )

    def test_series_files_no_germ_rebuilds_are_inconsistent(self, tmp_path):
        from arczeta import germ_invariants, parse_germ

        # the three series of the monomial x^2*y^3 read as p = q = 5, and no
        # germ +-x^5 +- y^5 reproduces them
        inv = germ_invariants(parse_germ("x^2*y^3"), 40)
        args = ["classify"]
        for name in ("naive", "plus", "minus"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(getattr(inv, name).to_json_dict()))
            args += ["--series-file", str(path)]
        rc, out, err = run_cli(*args, timeout=10)
        assert (rc, err) == (0, "")
        assert out.splitlines()[:5] == [
            "p = 5", "q = 5", "eps_p = undetermined", "eps_q = undetermined",
            "status = inconsistent",
        ]

    @pytest.mark.parametrize("germ, sweeps", [
        pytest.param(germ, sweeps, id=germ) for germ, sweeps in (
            # the input's three series, the x^p reference, and the other
            # representative's three
            ("x^4-y^6", 7), ("x^4+y^6", 7), ("-x^4+y^6", 7), ("-x^4-y^6", 7),
            ("x^6-y^4", 7),
            # p = q even: x <-> y maps x^p - y^p to its negation, so its
            # two sign series are one
            ("-x^4+y^4", 6), ("x^2-y^2", 6),
            # one odd exponent: x -> -x or y -> -y leaves two representatives
            ("x^2+y^5", 4), ("x^3-y^8", 4), ("x^3+y^6", 4),
            # both odd: one representative, its Z- read as its Z+
            ("x^5+y^9", 3), ("x^7+y^7", 3),
        )
    ])
    def test_each_germ_is_computed_once(self, germ, sweeps, monkeypatch, capsys):
        calls = _count_sweeps(monkeypatch)
        assert main(["classify", f"--germ={germ}"]) == 0
        assert "status = " in capsys.readouterr().out
        assert len(calls) == len(set(calls)) == sweeps

    def test_series_files_are_computed_once(self, tmp_path, monkeypatch, capsys):
        from arczeta import germ_invariants, parse_germ

        argv = ["classify"]
        inv = germ_invariants(parse_germ("-x^4+y^6"), 64)
        for name in ("naive", "plus", "minus"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(getattr(inv, name).to_json_dict()))
            argv += ["--series-file", str(path)]
        calls = _count_sweeps(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["p = 4", "q = 6"]
        # the x^p reference and the three series of x^4+y^6 and of x^4-y^6;
        # the two germs with a negative first term reuse them
        assert len(calls) == len(set(calls)) == 7

    def test_series_file_lists_do_not_carry_over(self, tmp_path, capsys):
        from arczeta import germ_invariants, parse_germ

        inv = germ_invariants(parse_germ("x^2+y^4"), 12)
        three = ["classify"]
        for name in ("naive", "plus", "minus"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(getattr(inv, name).to_json_dict()))
            three += ["--series-file", str(path)]
        one = three[:3]
        # --germ leaves the append default in place, so it follows a list
        germ = ["classify", "--germ", "x^2+y^4", "--order", "12"]
        results = []
        for argv in (three, one, germ) * 2:
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        assert results[:3] == results[3:]
        assert results[0] == results[2] and results[0][0] == 0
        assert results[1] == (
            1, "", "error: classify needs --germ or exactly three --series-file\n")

    def test_wrong_series_file_count(self, tmp_path):
        p = tmp_path / "one.json"
        p.write_text("{}")
        rc, _, err = run_cli("classify", "--series-file", str(p))
        assert rc == 1


    @pytest.mark.parametrize("document, message", [
        ({"order": 0, "terms": []}, "truncation order must be a positive integer"),
        ({"order": 8, "terms": [{"n": "x", "coeff": "u"}]}, "invalid literal"),
        ({"order": 8, "terms": [{"n": 2.7, "coeff": "u"}]},
         "n must be an integer, not 2.7"),
        ({"order": True, "terms": []}, "order must be an integer, not True"),
    ], ids=["order-0", "non-integer-n", "float-n", "bool-order"])
    def test_bad_series_document_is_one_error_line(self, tmp_path, document, message):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(document))
        rc, out, err = run_cli("classify", *["--series-file", str(path)] * 3, timeout=5)
        assert (rc, out) == (1, "")
        assert err.startswith("error: bad series document: ") and message in err
        assert "Traceback" not in err and err.count("\n") == 1


class TestTS:
    def test_convolution_with_caveat(self):
        rc, out, _ = run_cli("ts", "--left", "x^2", "--right", "x^2", "--order", "8")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == (
            "(u^2-1)*u^-2*T^2 + (u^2-1)*u^-4*T^4 + "
            "(u^2-1)*u^-6*T^6 + (u^2-1)*u^-8*T^8"
        )
        assert lines[1].startswith("note:")

    def test_json_carries_note(self):
        rc, out, _ = run_cli(
            "ts", "--left", "x^2", "--right", "x^4", "--order", "8", "--format", "json"
        )
        data = json.loads(out)
        assert data["notes"]


    @pytest.mark.parametrize("left, right", [
        ("x^3", "x^3"),
        ("x^2", "-x^2"),
        ("x^2", "x^3"),
        ("x^2+y^3", "x^2"),
        ("x^2-y^2", "x^2"),
        ("x^2*y^2", "x^2"),
        ("-x^4", "x^2*y^4"),
    ], ids=["odd", "opposite-signs", "odd-right", "odd-term", "indefinite",
            "monomial", "monomial-right"])
    def test_pairs_outside_the_hypothesis_are_refused(self, left, right):
        rc, out, err = run_cli("ts", f"--left={left}", f"--right={right}",
                               "--order", "8", timeout=5)
        assert (rc, out) == (2, "")
        assert err.startswith("unsupported: ts needs two positive or two negative")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("left, right, total", [
        ("x^2+y^2", "x^4", "x^2+y^2+z^4"),
        ("-x^2-y^4", "-x^6", "-x^2-y^4-z^6"),
    ])
    def test_admitted_pair_is_the_zeta_function_of_the_sum(self, left, right, total):
        rc, out, _ = run_cli("ts", f"--left={left}", f"--right={right}",
                             "--order", "12")
        assert rc == 0
        _, expected, _ = run_cli("zeta-germ", f"--germ={total}", "--order", "12")
        assert out.splitlines()[0] == expected.rstrip("\n")


class TestCompare:
    def test_distinguished(self):
        rc, out, _ = run_cli(
            "compare", "--left", "x^2+y^2", "--right", "x^2+y^4", "--order", "12"
        )
        assert rc == 0
        assert "distinguished at T^2 in the naive series" in out

    def test_distinguished_json_keeps_the_germs(self):
        rc, out, _ = run_cli(
            "compare", "--left", "x^2+y^2", "--right", "x^2+y^4", "--order", "8",
            "--format", "json",
        )
        assert rc == 0
        assert json.loads(out) == {
            "left": "x^2+y^2", "right": "x^2+y^4", "distinguished": True,
            "series": "naive", "index": 2, "left_coeff": "1-u^-2",
            "right_coeff": "1-u^-1",
        }

    @pytest.mark.parametrize("left, right, sweeps", [
        # y -> -y maps one germ to the other, and each to its negation
        ("x^3+y^5", "x^3-y^5", 2),
        ("x^2+y^4", "x^2-y^4", 6),
        # permuting a monomial's variables: one kept triple for both sides
        ("x^2*y^3", "x^3*y^2", 2),
        ("x^2*y^4", "x^4*y^2", 3),
    ])
    def test_each_class_is_computed_once(self, left, right, sweeps, monkeypatch,
                                         capsys):
        calls = _count_sweeps(monkeypatch)
        assert main(["compare", f"--left={left}", f"--right={right}"]) == 0
        assert capsys.readouterr().err == ""
        assert len(calls) == len(set(calls)) == sweeps

    def test_not_distinguished(self):
        rc, out, _ = run_cli(
            "compare", "--left", "x^3+y^4", "--right", "x^3+y^4", "--order", "12"
        )
        assert rc == 0 and "not distinguished up to order 12" in out


class TestOracle:
    def test_pass_lines(self):
        rc, out, _ = run_cli("oracle", "--germ", "x^2*y^3", "--n", "5", "--q", "3,5")
        assert rc == 0
        assert out.count("PASS") == 2 and "FAIL" not in out

    # x^2+y^2 at n = 2 counts beta(q) at q = 3 and 7 but not at q = 5
    @pytest.mark.parametrize("qs, rc", [("3,7", 0), ("5", 3), ("3,5,7", 3)])
    @pytest.mark.parametrize("fmt", ["text", "json", "out"])
    def test_failed_row_exits_3(self, qs, rc, fmt, tmp_path, capsys):
        out_file = tmp_path / "rows.txt"
        extra = {"text": [], "json": ["--format", "json"],
                 "out": ["--out", str(out_file)]}[fmt]
        assert main(["oracle", "--germ", "x^2+y^2", "--n", "2", "--q", qs, *extra]) == rc
        out, err = capsys.readouterr()
        if fmt == "out":
            assert out == ""
            out = out_file.read_text()
        # every row still prints, the failed ones included
        rows = json.loads(out)["results"] if fmt == "json" else out.splitlines()
        assert err == "" and len(rows) == len(qs.split(","))

    def test_cap_exit_2(self):
        rc, _, err = run_cli("oracle", "--germ", "x^2+y^2+z^2", "--n", "4", "--q", "7")
        assert rc == 2 and "cap" in err

    def test_huge_n_rejected_in_bounded_time(self):
        # the cap is checked without forming q^(d*n)
        rc, out, err = run_cli(
            "oracle", "--germ", "x^2", "--n", "100000000", "--q", "3", timeout=5
        )
        assert rc == 2 and out == "" and "cap" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_nonpositive_n_exit_1(self):
        rc, out, err = run_cli("oracle", "--germ", "x^2", "--n", "0", "--q", "3", timeout=5)
        assert rc == 1 and out == "" and "--n must be a positive integer" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("q", [65537, 999983, 9999991])
    def test_large_fields_do_not_wrap(self, q):
        # x^1 at n = 1 counts the q - 1 jets with a_1 != 0
        rc, out, err = run_cli("oracle", "--germ", "x^1", "--n", "1", "--q", str(q), timeout=5)
        assert (rc, err) == (0, "")
        assert out == f"q={q}: jets={q - 1} beta={q - 1} PASS\n"

    # shapes at the jet-space cap; x^1 at q = 9999991 is the last case above
    @pytest.mark.parametrize("germ, n, q, count", [
        ("x^2", 14, 3, 2 * 3**7),
        ("x^2", 2, 2999, 2998 * 2999),
    ])
    def test_cap_shapes_answer_in_bounded_time(self, germ, n, q, count):
        rc, out, err = run_cli(
            "oracle", "--germ", germ, "--n", str(n), "--q", str(q), timeout=5
        )
        assert (rc, err) == (0, "")
        assert out == f"q={q}: jets={count} beta={count} PASS\n"


def _address_space_limit():
    import resource

    limit = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("argv", [
    ("zeta-germ", "--germ", "x^3+y^5"),
    ("compare", "--left", "x^3+y^5", "--right", "x^2+y^4"),
    ("classify", "--germ", "x^3+y^5"),
], ids=["zeta-germ", "compare", "classify"])
def test_out_of_memory_is_one_line_and_exit_2(argv):
    # the limit applies to the child only, so the suite keeps its memory
    proc = subprocess.run(
        [sys.executable, "-m", "arczeta.cli", *argv, "--order", "100000000"],
        capture_output=True, text=True, timeout=60,
        preexec_fn=_address_space_limit,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "unsupported: out of memory; choose a smaller --order\n"


# -- an option value of exactly "--" -------------------------------------------

@pytest.mark.parametrize("argv, option", [
    (["zeta-germ", "--germ=--"], "--germ"),
    (["zeta-res", "--file=--"], "--file"),
    (["beta", "--script=--"], "--script"),
    (["compare", "--left=--", "--right=x^2"], "--left"),
    (["oracle", "--germ=x^2", "--n", "2", "--q=--"], "--q"),
    (["classify", *["--series-file=--"] * 3], "--series-file"),
    (["classify", "--germ=--"], "--germ"),
    (["zeta-germ", "--germ=x^2", "--out=--"], "--out"),
    (["zeta-germ", "--germ"], "--germ"),
])
def test_double_dash_value_is_a_missing_value(argv, option, capsys):
    # argparse drops an attached "--" and would store an empty list
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", f"error: argument {option}: expected one argument\n")


# -- germ strings and option values through main ---------------------------------

FUZZ_TEXT = st.just("--") | st.text(alphabet="xyz^+-*0123456789 ", max_size=12)
FUZZ_CALLS = {
    "zeta-germ": lambda left, right: ["zeta-germ", f"--germ={left}", "--order=12"],
    "classify": lambda left, right: ["classify", f"--germ={left}", "--order=16"],
    "compare": lambda left, right: ["compare", f"--left={left}", f"--right={right}",
                                    "--order=8"],
    "oracle": lambda left, right: ["oracle", f"--germ={left}", "--n", "2",
                                   "--q", "3"],
}


@settings(max_examples=200, deadline=3000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(FUZZ_CALLS)), left=FUZZ_TEXT, right=FUZZ_TEXT,
       fmt=st.sampled_from(["text", "json", "--"]))
@example(command="zeta-germ", left="--", right="x^2", fmt="text")
@example(command="zeta-germ", left="x^2", right="x^2", fmt="--")
def test_fuzzed_calls_end_in_output_or_one_error_line(command, left, right, fmt,
                                                      capsys):
    code = main([*FUZZ_CALLS[command](left, right), f"--format={fmt}"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
    else:
        # exit 3 is an oracle verdict, printed on stdout with the rows
        assert err == "" and ("FAIL" in out) == (code == 3)


# -- the JSON readers on random small documents --------------------------------

SMALL_INT = st.integers(-2, 6)
JSON_ANY = st.recursive(
    st.none() | st.booleans() | SMALL_INT | st.sampled_from(["", "a", "u", "1.5"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "n", "I", "id"]), inner, max_size=2),
    max_leaves=6,
)
POLY = st.sampled_from(["0", "1", "u", "u-1", "2*u+1", "u^-1", "u^2-u", "x", "u^"])


def _shaped(**fields):
    """A dict of the given fields, each at times absent or any JSON; or any JSON."""
    field = {key: value | JSON_ANY for key, value in fields.items()}
    return st.fixed_dictionaries({}, optional=field) | JSON_ANY


SERIES_DOC = _shaped(
    order=SMALL_INT,
    terms=st.lists(_shaped(n=SMALL_INT, coeff=POLY), max_size=3),
)
RESOLUTION_DOC = _shaped(
    dimension=SMALL_INT,
    components=st.lists(_shaped(id=st.sampled_from(["E1", "E2"]), N=SMALL_INT,
                                nu=SMALL_INT, over_origin=st.booleans()),
                        max_size=3),
    strata=st.lists(_shaped(I=st.lists(st.sampled_from(["E1", "E2"]), max_size=2),
                            beta0=POLY, beta_plus=POLY, beta_minus=POLY),
                    max_size=3),
)
ATOM = st.one_of(
    st.dictionaries(st.sampled_from(["affine", "torus", "punctured_affine", "points",
                                     "proj_space", "sphere", "cube"]),
                    SMALL_INT | JSON_ANY, min_size=1, max_size=1),
    st.builds(lambda body: {"custom": body},
              _shaped(name=st.just("c"), beta=POLY, dim=SMALL_INT, count=POLY)),
)
EXPR = st.recursive(
    st.builds(lambda atom: {"atom": atom}, ATOM)
    | st.builds(lambda name: {"ref": name}, st.sampled_from(["A", "B"]) | JSON_ANY),
    lambda inner: st.builds(
        lambda key, parts: {key: parts},
        st.sampled_from(["union", "product", "difference"]),
        st.lists(inner, max_size=3) | JSON_ANY,
    ),
    max_leaves=5,
)
SLOTS = ("X", "C", "E", "Bl")
SCRIPT_DOC = _shaped(defs=st.lists(st.one_of(
    _shaped(name=st.sampled_from(["A", "B"]), expr=EXPR),
    _shaped(name=st.sampled_from(["A", "B"]), blowup=st.builds(
        lambda given, solve_for: {**given, "solve_for": solve_for},
        st.dictionaries(st.sampled_from(SLOTS), EXPR, max_size=4),
        st.sampled_from(SLOTS) | JSON_ANY,
    )),
), max_size=3))

READER_SETTINGS = settings(
    max_examples=150, deadline=2000,
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.too_slow],
)


def _run_main(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
    return code, err


class TestJsonReaders:
    """Every document a reader can be given ends in output or one error line."""

    @READER_SETTINGS
    @given(documents=st.lists(SERIES_DOC, min_size=3, max_size=3))
    @example(documents=[{"order": 0, "terms": []}] * 3)
    @example(documents=[{"order": 8, "terms": [{"n": "x", "coeff": "u"}]}] * 3)
    def test_series_files(self, tmp_path, capsys, documents):
        argv = ["classify"]
        for i, document in enumerate(documents):
            path = tmp_path / f"series{i}.json"
            path.write_text(json.dumps(document))
            argv += ["--series-file", str(path)]
        _run_main(argv, capsys)

    @READER_SETTINGS
    @given(document=RESOLUTION_DOC, sign=st.sampled_from(["naive", "plus", "minus"]))
    def test_resolution_file(self, tmp_path, capsys, document, sign):
        path = tmp_path / "res.json"
        path.write_text(json.dumps(document))
        _run_main(["zeta-res", "--file", str(path), "--order", "8", "--sign", sign],
                  capsys)

    @READER_SETTINGS
    @given(document=SCRIPT_DOC)
    def test_beta_script(self, tmp_path, capsys, document):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(document))
        _run_main(["beta", "--script", str(path)], capsys)
