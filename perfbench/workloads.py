"""The three seeded workloads: argv lists for ``arczeta.cli.main`` and their checks.

A :class:`Call` carries the argv list the program receives, the exit code
it must end with, and the name and parameters of the output check that
:mod:`checks` applies after the timed section.  Nothing here imports
arczeta, so the benchmark's own import of the program is what set-up times.

* ``cli-corpus``: the README examples, every ``sample_data/`` file, a few
  ``--format json`` variants, two error probes and the two wrong-verdict
  probes of ROADMAP item 4.  The seed sets the order of each pass.
* ``deep-series``: cycles of templates (jet routes at high order,
  ``zeta-res`` on generated resolution data, ``ts``, ``classify`` and
  ``compare``).  The seed shuffles each cycle and picks each call's order;
  no (subcommand, germ, order, variant) request repeats within a run.
* ``oracle-cap``: seeded passes over the admissible (germ, n, q) catalogue
  of the F_q jet enumerator.

A pass over the corpus or the catalogue, or one deep-series cycle, is a
workload's cycle: timed runs stop on a cycle boundary, so every seed times
the same mix of calls.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

WORKLOADS = ("cli-corpus", "deep-series", "oracle-cap")


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its output must pass."""

    argv: tuple[str, ...]
    expect_rc: int | None  # None: the call is a known-defect probe
    check: str
    params: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _germ_arg(flag: str, germ: str) -> str:
    # "--germ=-x^2": a separate "-x^2" argument would parse as an option
    return f"--{flag}={germ}"


# ---------------------------------------------------------------------------
# cli-corpus
# ---------------------------------------------------------------------------


def corpus() -> list[Call]:
    """Every entry states its expected exit code (None for the probes)."""
    res = {
        "x2_y2": ("sample_data/resolution_x2_y2.json", "x^2+y^2"),
        "x2_y4": ("sample_data/resolution_x2_y4.json", "x^2+y^4"),
    }
    calls = [
        # README examples, in README order
        Call(("zeta-germ", "--germ", "x^3", "--order", "9"), 0, "exact_text",
             {"text": "(u-1)*u^-1*T^3 + (u-1)*u^-2*T^6 + (u-1)*u^-3*T^9\n"}),
        Call(("zeta-germ", "--germ", "x^2+y^2", "--order", "8", "--sign", "plus"),
             0, "series_vs_resolution",
             {"file": res["x2_y2"][0], "variant": "plus", "order": 8}),
        Call(("zeta-res", "--file", res["x2_y4"][0], "--order", "12"), 0,
             "series_vs_germ", {"germ": "x^2+y^4", "variant": "naive", "order": 12}),
        Call(("beta", "--script", "sample_data/whitney_umbrella.json"), 0,
             "exact_text", {"text": "P = u\nW_minus_L = u^2-u\nW = u^2\n"}),
        Call(("classify", "--germ", "x^3+y^6", "--format", "json"), 0,
             "classify_json", {"p": 3, "q": 6, "status": "open_case"}),
        Call(("ts", "--left", "x^2", "--right", "x^4", "--order", "20"), 0,
             "ts", {"sum": "x^2+y^4", "order": 20}),
        Call(("compare", "--left", "x^2+y^2+z^2", "--right", "x^2+y^4+z^4",
              "--order", "12"), 0, "compare",
             {"left": "x^2+y^2+z^2", "right": "x^2+y^4+z^4", "order": 12}),
        # README defect: 7^10 exceeds the documented jet-space cap
        Call(("oracle", "--germ", "x^2*y^3", "--n", "5", "--q", "3,5,7"), 2,
             "exit_only"),
        # the other sample_data runs
        Call(("beta", "--script", "sample_data/singular_curves.json"), 0,
             "exact_text", {"text": "C1 = u\nC2 = 2*u-1\n"}),
        # --format json variants
        Call(("zeta-germ", "--germ", "x^2-y^4", "--order", "16", "--format", "json"),
             0, "series_json", {"germ": "x^2-y^4", "variant": "naive", "order": 16}),
        Call(("zeta-res", "--file", res["x2_y2"][0], "--sign", "plus",
              "--format", "json"), 0, "series_json",
             {"germ": "x^2+y^2", "variant": "plus", "order": 64}),
        Call(("classify", "--germ", "x^4-y^6", "--format", "json"), 0,
             "classify_json", {"p": 4, "q": 6, "status": "determined"}),
        Call(("compare", "--left", "x^3+y^5", "--right", "x^3-y^5", "--format",
              "json"), 0, "compare_json",
             {"left": "x^3+y^5", "right": "x^3-y^5", "order": 64}),
        Call(("oracle", "--germ", "x^2-y^2", "--n", "3", "--q", "7",
              "--format", "json"), 0, "oracle_json", {"qs": 1}),
        Call(("oracle", "--germ", "x^2+y^4", "--n", "3", "--q", "7,11"), 0,
             "oracle", {"qs": 2}),
        # error exits
        Call(("zeta-germ", "--germ", "x^2+*y"), 1, "exit_only"),
        Call(("zeta-germ", "--germ", "x^3-y^3+z^3"), 2, "exit_only"),
        # wrong-verdict probes (ROADMAP item 4), judged by the sound-verdict check
        Call(("classify", "--germ", "x^2*y^3"), None, "sound_classify"),
        Call(("oracle", "--germ", "x^2+y^2", "--n", "2", "--q", "5"), None,
             "sound_oracle"),
    ]
    # zeta-res on both sample resolution files in all three --sign variants
    for file, germ in res.values():
        for variant in ("naive", "plus", "minus"):
            if file == res["x2_y4"][0] and variant == "naive":
                continue  # the README example above
            calls.append(Call(("zeta-res", "--file", file, "--sign", variant),
                              0, "series_vs_germ",
                              {"germ": germ, "variant": variant, "order": 64}))
    return calls


def _passes(entries: list[Call], seed: int) -> Iterator[Call]:
    """Endless passes over the entries, each in a seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(entries)
        rng.shuffle(order)
        yield from order


def corpus_stream(seed: int) -> Iterator[Call]:
    return _passes(corpus(), seed)


# ---------------------------------------------------------------------------
# deep-series
# ---------------------------------------------------------------------------


def _diag(terms: list[tuple[int, int]]) -> str:
    """Diagonal germ text from (sign, exponent) terms in x, y, z order."""
    return "".join(("-" if sign < 0 else "+" if i else "") + f"{'xyz'[i]}^{p}"
                   for i, (sign, p) in enumerate(terms))


def _exponents(germ: str) -> list[int]:
    return [int(e) for e in re.findall(r"\^(\d+)", germ)]


def resolution_data() -> dict[str, tuple[str, dict, tuple[str, ...]]]:
    """name -> (germ, resolution document, variants the document carries).

    These are the resolutions the test fixtures encode, one of each kind:
    x^k - y^k, x^a*y^b, x^2+y^4 (corrected sign coverings) and the chain
    for x^p+y^(kp)+z^(kp), which carries the naive series only.
    """

    def doc(dim, comps, strata):
        return {
            "dimension": dim,
            "components": [{"id": c, "N": n, "nu": nu, "over_origin": o}
                           for c, n, nu, o in comps],
            "strata": [dict(zip(("I", "beta0", "beta_plus", "beta_minus"), s))
                       for s in strata],
        }

    all3 = ("naive", "plus", "minus")
    return {
        "curve_x4_my4": ("x^4-y^4", doc(
            2, [("E1", 4, 2, True), ("E2", 1, 1, False), ("E3", 1, 1, False)],
            [(["E1"], "u-1", "u-1", "u-1"), (["E1", "E2"], "1", "1", "1"),
             (["E1", "E3"], "1", "1", "1")]), all3),
        "mono_x2y4": ("x^2*y^4", doc(
            2, [("D1", 2, 1, True), ("D2", 4, 1, True)],
            [(["D1", "D2"], "1", "2", "0")]), all3),
        "x2_y4": ("x^2+y^4", doc(
            2, [("E1", 2, 2, True), ("E2", 4, 3, True)],
            [(["E1"], "u", "2*u", "0"), (["E2"], "u", "u-1", "0"),
             (["E1", "E2"], "1", "2", "0")]), all3),
        "chain_p2_k3": ("x^2+y^6+z^6", doc(
            3, [("E1", 2, 3, True), ("E2", 4, 4, True), ("E3", 6, 5, True)],
            [(["E1"], "u^2", "0", "0"), (["E2"], "u^2-1", "0", "0"),
             (["E3"], "u^2+u", "0", "0"), (["E1", "E2"], "u+1", "0", "0"),
             (["E2", "E3"], "u+1", "0", "0")]), ("naive",)),
    }


def write_resolution_files(workdir: Path) -> dict[str, str]:
    """Write the generated resolution documents; name -> file path."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (_, document, _) in resolution_data().items():
        path = workdir / f"res_{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        paths[name] = str(path)
    return paths


_VARIANTS = ("naive", "plus", "minus")


def deep_templates() -> list[tuple[str, object, str, int]]:
    """One cycle of deep-series: (subcommand, germ or input, variant, order).

    Every family of the workload is in each cycle, so a run of a few cycles
    does nearly the same mix of work whatever the seed.
    """
    t = [("zeta-germ", g, "naive", 768)
         for g in ("x^2", "-x^3", "x^4", "-x^5", "x^6", "x^7")]
    # two variables: definite, indefinite, mixed parity and odd, all variants
    t += [("zeta-germ", g, v, 256)
          for g in ("x^2+y^2", "-x^2-y^4", "x^4-y^6", "x^3+y^4", "x^2-y^5", "x^5+y^7")
          for v in _VARIANTS]
    t += [("zeta-germ", g, v, 224) for g, v in (
        ("x^2+y^2+z^2", "naive"), ("x^2+y^4+z^4", "plus"),
        ("-x^2-y^4-z^6", "minus"), ("x^4+y^4+z^6", "naive"))]
    t += [("zeta-germ", g, v, 448) for g, v in (
        ("x^2*y^3", "naive"), ("-x^2*y^2", "plus"), ("x^3*y^5", "minus"),
        ("x^4*y^6", "naive"))]
    t += [("zeta-germ", g, v, 112) for g, v in (
        ("x^2*y^3*z^4", "naive"), ("x^2*y^2*z^5", "plus"),
        ("-x^3*y^4*z^5", "minus"), ("x^2*y^4*z^4", "naive"))]
    # the x^4-y^4 datum has two-component strata, whose factor series are
    # multiplied in O(order^2), so it runs at a lower order than the rest
    t += [("zeta-res", name, v, 512 if name == "curve_x4_my4" else 1024)
          for name, (_, _, carried) in resolution_data().items() for v in carried]
    # same-sign even pairs, the hypothesis of the convolution identity
    t += [("ts", terms, "naive", 448)
          for terms in ((1, 2, 4), (-1, 4, 6), (1, 2, 2))]
    # the classify census 2 <= p <= q <= 9, both signs
    t += [("classify", g, "all", 96)
          for g in ("x^2+y^5", "x^3-y^8", "x^4-y^6", "x^5+y^9", "x^2-y^2", "x^7+y^7")]
    t += [("compare", pair, "all", 112) for pair in (
        ("x^2+y^4", "x^2-y^4"), ("x^3+y^5", "x^3-y^5"), ("x^2+y^3", "x^2+y^4"),
        ("x^4-y^6", "x^4-y^7"))]
    return t


def _deep_call(template, order: int, files: dict[str, str]) -> Call:
    sub, what, variant, _ = template
    if sub == "zeta-germ":
        return Call(("zeta-germ", _germ_arg("germ", what), "--order", str(order),
                     "--sign", variant), 0, "series_prefix",
                    {"germ": what, "variant": variant, "order": order})
    if sub == "zeta-res":
        germ = resolution_data()[what][0]
        return Call(("zeta-res", "--file", files[what], "--order", str(order),
                     "--sign", variant), 0, "series_vs_germ",
                    {"germ": germ, "variant": variant, "order": order})
    if sub == "ts":
        sign, p, q = what
        left, right = _diag([(sign, p)]), _diag([(sign, q)])
        return Call(("ts", _germ_arg("left", left), _germ_arg("right", right),
                     "--order", str(order)), 0, "ts",
                    {"sum": _diag([(sign, p), (sign, q)]), "order": order})
    if sub == "classify":
        p, q = _exponents(what)
        return Call(("classify", _germ_arg("germ", what), "--order", str(order)),
                    0, "classify_text", {"p": p, "q": q})
    left, right = what
    return Call(("compare", _germ_arg("left", left), _germ_arg("right", right),
                 "--order", str(order)), 0, "compare",
                {"left": left, "right": right, "order": order})


_JITTER = 8  # order offsets -8..8 steps of order // 128


def deep_stream(seed: int, files: dict[str, str]) -> Iterator[Call]:
    """Endless seeded cycles; within a run no request repeats.

    The seed shuffles each cycle and picks each call's order offset; a
    template's offsets run through a seeded permutation, shifted once
    exhausted, so (subcommand, germ, order, variant) never repeats.
    """
    rng = random.Random(seed)
    templates = deep_templates()
    offsets = []
    for _ in templates:
        perm = list(range(-_JITTER, _JITTER + 1))
        rng.shuffle(perm)
        offsets.append(perm)
    width = 2 * _JITTER + 1
    cycle = 0
    while True:
        calls = []
        for template, perm in zip(templates, offsets):
            base = template[3]
            offset = perm[cycle % width] + width * (cycle // width)
            calls.append(_deep_call(template, base + max(1, base // 128) * offset,
                                    files))
        rng.shuffle(calls)
        yield from calls
        cycle += 1


# ---------------------------------------------------------------------------
# oracle-cap
# ---------------------------------------------------------------------------

_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def oracle_catalogue() -> list[Call]:
    """Admissible (germ, n, q) with q^(d*n) in [10^5, 10^7].

    Admissibility follows the field rules in
    tests/test_jets.py::test_enumerator_battery: definite and split pairs
    and fourth powers at q = 3 (mod 4); odd ties where cubing is a bijection
    (q = 2 mod 3); monomials, where counts are polynomial, at any prime; one
    variable x^p only where gcd(p, q-1) = 1, kept at or below 4*10^5 jets;
    three variables only as monomials, the one three-variable family with
    an established PASS.
    """
    cases = []

    def add(germ, dim, qs, high=10**7):
        for q in qs:
            for n in range(1, 30):
                if 10**5 <= q ** (dim * n) <= high:
                    cases.append((germ, n, q))

    q3 = [q for q in _PRIMES if q % 4 == 3]
    for germ in ("x^2+y^2", "x^2-y^2", "x^2+y^4", "x^2-y^4", "x^4+y^4", "x^4-y^4"):
        add(germ, 2, q3)
    for germ in ("x^3+y^3", "x^3-y^3"):
        add(germ, 2, [q for q in _PRIMES if q % 3 == 2])
    for germ in ("x^2*y^3", "x^1*y^1", "x^3*y^4", "-x^2*y^2"):
        add(germ, 2, _PRIMES[:5])
    for germ in ("x^1*y^1*z^1", "x^1*y^2*z^2"):
        add(germ, 3, _PRIMES[:3])
    for p in (2, 3, 4, 5):
        add(f"x^{p}", 1, [q for q in _PRIMES if math.gcd(p, q - 1) == 1],
            high=4 * 10**5)
    return [
        Call(("oracle", _germ_arg("germ", g), "--n", str(n), "--q", str(q)), 0,
             "oracle", {"qs": 1})
        for g, n, q in cases
    ]


def oracle_stream(seed: int) -> Iterator[Call]:
    return _passes(oracle_catalogue(), seed)


def cycle_length(workload: str) -> int:
    """Calls in one full pass over a workload's mix: what a traced run replays.

    The replayed list is fixed per seed, not timed, so that the exact
    counters repeat between two traced runs.
    """
    if workload == "cli-corpus":
        return len(corpus())
    if workload == "deep-series":
        return len(deep_templates())
    return len(oracle_catalogue())


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------


def warmup_calls() -> list[tuple[str, ...]]:
    """One small call per subcommand, run before the first timed call."""
    return [
        ("zeta-germ", "--germ", "x^2+y^3", "--order", "8"),
        ("zeta-res", "--file", "sample_data/resolution_x2_y2.json", "--order", "8"),
        ("beta", "--script", "sample_data/singular_curves.json"),
        ("classify", "--germ", "x^2+y^3", "--order", "8"),
        ("ts", "--left", "x^2", "--right", "x^2", "--order", "8"),
        ("oracle", "--germ", "x^2", "--n", "2", "--q", "3"),
        ("compare", "--left", "x^2", "--right", "x^3", "--order", "8"),
    ]
