"""Output checks, applied to every call outside the timed section.

Where two routes compute the same series, a call's output is compared with
the other route: ``zeta-res`` and ``ts`` with the jet route, ``zeta-germ``
with the closed-form catalogue where it has the germ.  Series outputs are
compared on their first :data:`PREFIX` coefficients, so a check costs far
less than the call it checks.

A check returns ``"ok"``, ``"failed"`` or, for the two wrong-verdict
probes of ROADMAP item 4, ``"unsound"`` while the defect is present.
"""

from __future__ import annotations

import json
import re

from arczeta import (
    UnsupportedComputationError,
    closed_form,
    dl_naive,
    dl_sign,
    germ_invariants,
    parse_germ,
    parse_poly,
    resolution_from_json,
    zeta_direct,
)
from arczeta.ring import ZERO, ZetaSeries

PREFIX = 64

_TERM = re.compile(r"\((?P<body>[^()]*)\)(?P<u>\*u(?:\^(?P<e>-?\d+))?)?\*T\^(?P<n>\d+)")


def parse_series(text: str) -> dict:
    """Coefficients {n: LaurentPoly} of a series printed by ``format_series``."""
    text = text.strip()
    if text == "0":
        return {}
    coeffs = {}
    for term in text.split(" + "):  # coefficients print without spaces
        m = _TERM.fullmatch(term)
        if not m:
            raise ValueError(f"unparsed series term {term[:60]!r}")
        exp = int(m["e"]) if m["e"] else (1 if m["u"] else 0)
        coeffs[int(m["n"])] = parse_poly(m["body"]).shift(exp)
    return coeffs


class References:
    """Reference series by the independent routes, cached per request."""

    def __init__(self):
        self._cache: dict = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def jets(self, germ: str, order: int, variant: str) -> ZetaSeries:
        return self._get(("jets", germ, order, variant),
                         lambda: zeta_direct(parse_germ(germ), order, variant))

    def closed_or_jets(self, germ: str, order: int, variant: str) -> ZetaSeries:
        def compute():
            try:
                return closed_form(parse_germ(germ), variant).expand(order)
            except UnsupportedComputationError:
                return self.jets(germ, order, variant)
        return self._get(("closed", germ, order, variant), compute)

    def resolution(self, path: str, order: int, variant: str) -> ZetaSeries:
        def compute():
            with open(path, encoding="utf-8") as fh:
                datum = resolution_from_json(fh.read())
            if variant == "naive":
                return dl_naive(datum, order)
            return dl_sign(datum, 1 if variant == "plus" else -1, order)
        return self._get(("res", path, order, variant), compute)

    def invariants(self, germ: str, order: int):
        return self._get(("inv", germ, order),
                         lambda: germ_invariants(parse_germ(germ), order))


def _prefix_equal(coeffs: dict, ref: ZetaSeries, order: int) -> bool:
    if any(n > order for n in coeffs):
        return False
    k = min(order, ref.order)
    return all(coeffs.get(n, ZERO) == ref.coeff(n)
               for n in range(1, k + 1))


def _series_check(out: str, ref: ZetaSeries, order: int) -> bool:
    return _prefix_equal(parse_series(out.splitlines()[0]), ref, order)


def _json_series_check(out: str, ref: ZetaSeries) -> bool:
    z = ZetaSeries.from_json_dict(json.loads(out)["series"])
    return z == ref


def _classify_fields(out: str) -> dict:
    fields = dict(line.split(" = ", 1) for line in out.splitlines()
                  if " = " in line and not line.startswith("note"))
    return {"p": int(fields["p"]), "q": int(fields["q"]),
            "status": fields["status"]}


def _compare_check(refs: References, p: dict, distinguished: bool,
                   index: int | None) -> bool:
    """``distinguished`` at T^index must hold exactly when the series differ."""
    order = index if distinguished else p["order"]
    left = refs.invariants(p["left"], order)
    right = refs.invariants(p["right"], order)
    pairs = [(left.naive, right.naive), (left.plus, right.plus),
             (left.minus, right.minus)]
    differ = any(a != b for a, b in pairs)
    if not distinguished:
        return not differ
    agree_before = index == 1 or all(
        a.truncate(index - 1) == b.truncate(index - 1) for a, b in pairs)
    return differ and agree_before


def check(call, rc: int, out: str, refs: References) -> str:
    """Judge one call's exit code and stdout."""
    try:
        ok = _check(call, rc, out, refs)
    except (ValueError, KeyError, IndexError, TypeError):
        ok = False  # an unreadable output is a wrong output
    if call.expect_rc is None:
        return "ok" if ok else "unsound"
    return "ok" if ok else "failed"


def _check(call, rc: int, out: str, refs: References) -> bool:
    kind, p = call.check, call.params
    if kind == "sound_classify":
        # a monomial is not a Brieskorn germ: never a confident class
        return rc != 0 or _classify_fields(out)["status"] != "determined"
    if kind == "sound_oracle":
        return rc != 0 or "FAIL" not in out
    if rc != call.expect_rc:
        return False
    if kind == "exit_only":
        return True
    if kind == "exact_text":
        return out == p["text"]
    if kind == "series_prefix":
        return _series_check(out, refs.closed_or_jets(
            p["germ"], min(p["order"], PREFIX), p["variant"]), p["order"])
    if kind == "series_vs_germ":
        return _series_check(out, refs.jets(
            p["germ"], min(p["order"], PREFIX), p["variant"]), p["order"])
    if kind == "series_vs_resolution":
        return _series_check(out, refs.resolution(
            p["file"], p["order"], p["variant"]), p["order"])
    if kind == "series_json":
        return _json_series_check(out, refs.jets(p["germ"], p["order"], p["variant"]))
    if kind == "ts":
        lines = out.splitlines()
        return (len(lines) == 2 and lines[1].startswith("note:")
                and _series_check(lines[0], refs.jets(
                    p["sum"], min(p["order"], PREFIX), "naive"), p["order"]))
    if kind == "classify_json":
        payload = json.loads(out)
        return all(payload[k] == p[k] for k in ("p", "q", "status"))
    if kind == "classify_text":
        fields = _classify_fields(out)
        return (fields["p"], fields["q"]) == (p["p"], p["q"]) and \
            fields["status"] != "inconsistent"
    if kind == "compare":
        m = re.match(r"distinguished at T\^(\d+) in the (\w+) series", out)
        if m:
            return _compare_check(refs, p, True, int(m.group(1)))
        return out.startswith("not distinguished") and \
            _compare_check(refs, p, False, None)
    if kind == "compare_json":
        payload = json.loads(out)
        return _compare_check(refs, p, payload["distinguished"],
                              payload.get("index"))
    if kind == "oracle":
        lines = out.splitlines()
        return len(lines) == p["qs"] and all(line.endswith(" PASS") for line in lines)
    if kind == "oracle_json":
        rows = json.loads(out)["results"]
        return len(rows) == p["qs"] and all(row["ok"] for row in rows)
    raise ValueError(f"unknown check {kind!r}")
