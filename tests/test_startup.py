"""What a command-line call loads, and the package surface lazy loading keeps.

Each case runs ``arczeta.cli.main`` in a fresh interpreter and reports which
modules ended up in ``sys.modules``.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import arczeta

ROOT = Path(__file__).resolve().parent.parent

# json is imported only after the module list is taken
_PROBE = """
import contextlib, io, sys
import arczeta.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = arczeta.cli.main(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps({"rc": rc, "loaded": loaded}))
"""


def loaded_after(*argv):
    """The exit code and every module in sys.modules after the call."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True,
                          text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout)
    return result["rc"], set(result["loaded"])


def package_modules(loaded):
    """numpy and the arczeta modules among those loaded."""
    return {m for m in loaded if m == "numpy" or m.startswith("arczeta")}


SAMPLE = ROOT / "sample_data"

NO_NUMPY = {
    "zeta-germ": ("zeta-germ", "--germ", "x^2+y^4", "--order", "8"),
    "zeta-res": ("zeta-res", "--file", str(SAMPLE / "resolution_x2_y4.json"),
                 "--order", "8", "--sign", "plus"),
    "beta": ("beta", "--script", str(SAMPLE / "whitney_umbrella.json")),
    "classify": ("classify", "--germ", "x^4-y^6", "--order", "16"),
    "ts": ("ts", "--left", "x^2", "--right", "x^4", "--order", "8"),
    "compare": ("compare", "--left", "x^2+y^2", "--right", "x^2+y^4", "--order", "8"),
}


@pytest.mark.parametrize("argv", NO_NUMPY.values(), ids=list(NO_NUMPY))
def test_subcommands_without_enumeration_skip_numpy(argv):
    rc, loaded = loaded_after(*argv)
    assert rc == 0
    assert "numpy" not in loaded


ENUMERATING_ORACLE = ("oracle", "--germ", "x^2", "--n", "2", "--q", "3")


# dataclasses pulls in inspect, ast, dis and tokenize; fractions is needed only
# for a value that is not an integer, which no subcommand prints
@pytest.mark.parametrize("argv", [*NO_NUMPY.values(), ENUMERATING_ORACLE],
                         ids=[*NO_NUMPY, "oracle"])
def test_subcommands_skip_dataclasses_fractions_and_inspect(argv):
    rc, loaded = loaded_after(*argv)
    assert rc == 0
    assert not loaded & {"dataclasses", "fractions", "inspect"}


def test_text_zeta_germ_skips_json():
    rc, loaded = loaded_after(*NO_NUMPY["zeta-germ"])
    assert rc == 0
    assert "json" not in loaded


def test_zeta_germ_loads_only_jets_and_ring():
    rc, loaded = loaded_after(*NO_NUMPY["zeta-germ"])
    assert rc == 0
    assert package_modules(loaded) == {"arczeta", "arczeta._value", "arczeta.cli",
                                       "arczeta.errors", "arczeta.jets", "arczeta.ring"}


def test_beta_loads_only_vpoly_and_ring():
    rc, loaded = loaded_after(*NO_NUMPY["beta"])
    assert rc == 0
    assert package_modules(loaded) == {"arczeta", "arczeta._value", "arczeta.cli",
                                       "arczeta.errors", "arczeta.ring", "arczeta.vpoly"}


def test_enumerating_oracle_loads_only_jets_ring_and_oracle():
    rc, loaded = loaded_after(*ENUMERATING_ORACLE)
    assert rc == 0
    assert package_modules(loaded) == {"arczeta", "arczeta._value", "arczeta.cli",
                                       "arczeta.errors", "arczeta.jets", "arczeta.ring",
                                       "arczeta.oracle"}


@pytest.mark.parametrize("argv, expect_rc", [
    (("--n", "4", "--q", "31"), 2),  # over the jet-space cap
    (("--n", "2", "--q", "9"), 2),  # not a prime field
    (("--n", "0", "--q", "3"), 1),  # n < 1
], ids=["cap", "non-prime", "n<1"])
def test_oracle_rejections_skip_numpy(argv, expect_rc):
    rc, loaded = loaded_after("oracle", "--germ", "x^2+y^2", *argv)
    assert rc == expect_rc
    assert "numpy" not in loaded


# the package surface: defining submodule -> names exported from it
SURFACE = {
    "brieskorn": "BrieskornClass ClassStatus SignValue classify recover_p recover_q "
                 "recover_signs",
    "errors": "ArczetaError ClassifyError InputError UnsupportedComputationError",
    "jets": "DiagonalGerm Germ JetStratum MonomialGerm TieCurveRule "
            "UnsupportedGermError germ_to_str jet_beta jet_beta_sign jet_strata "
            "parse_germ tie_curve_rule zeta_direct",
    "oracle": "JET_SPACE_CAP count_jets_with_order",
    "ring": "DEFAULT_ORDER LaurentPoly ZetaExpr ZetaSeries ZetaTerm format_poly "
            "format_series parse_poly zeta_expr zeta_term",
    "vpoly": "Affine BetaScript BlowupDef Custom Difference DisjointUnion ExprDef "
             "Points Product ProjSpace PuncturedAffine Ref Sphere Torus beta_atom "
             "beta_expr blowup_solve difference product run_script script_from_json "
             "union",
    "zeta": "Component Distinguished InvariantTriple NotDistinguished "
            "ResolutionDatum StratumData closed_form compare_invariants dl_expr "
            "dl_naive dl_sign germ_invariants resolution_from_json ts_convolve",
}


def test_package_surface():
    names = {name for names in SURFACE.values() for name in names.split()}
    assert len(arczeta.__all__) == 79
    assert set(arczeta.__all__) == names | set(SURFACE)
    for module_name, exported in SURFACE.items():
        module = importlib.import_module(f"arczeta.{module_name}")
        assert getattr(arczeta, module_name) is module
        for name in exported.split():
            assert getattr(arczeta, name) is getattr(module, name), name
    assert set(arczeta.__all__) <= set(dir(arczeta))
    assert not hasattr(arczeta, "no_such_name")


def test_star_import():
    namespace = {}
    exec("from arczeta import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(arczeta.__all__)
    assert namespace["zeta_direct"] is arczeta.jets.zeta_direct
