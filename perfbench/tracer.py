"""Spans and exact counters around arczeta's public functions.

:meth:`Tracer.install` replaces each listed function under every module
attribute that holds it (``cli.zeta_direct``, ``zeta.zeta_direct``,
``brieskorn.zeta_direct``, ...), so calls between modules are seen as well
as calls from the benchmark.  Each span records name, start, end, parent
span and call id; spans stay in memory and are reduced to the per-layer
table by :meth:`Tracer.layers` when the run ends.  ``LaurentPoly`` ring
operations are only counted: a span on each would cost more than the work.

Nothing in the program changes; :meth:`Tracer.uninstall` restores every
attribute.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: span name -> (module, function or Class.method)
SPANNED = {
    "cli.main": ("arczeta.cli", "main"),
    "jets.parse_germ": ("arczeta.jets", "parse_germ"),
    "jets.zeta_direct": ("arczeta.jets", "zeta_direct"),
    "jets.jet_strata": ("arczeta.jets", "jet_strata"),
    "jets.jet_beta": ("arczeta.jets", "jet_beta"),
    "jets.jet_beta_sign": ("arczeta.jets", "jet_beta_sign"),
    "ring.format_series": ("arczeta.ring", "format_series"),
    "ring.format_poly": ("arczeta.ring", "format_poly"),
    "ring.to_json_dict": ("arczeta.ring", "ZetaSeries.to_json_dict"),
    "ring.series_mul": ("arczeta.ring", "ZetaSeries.__mul__"),
    "ring.expand": ("arczeta.ring", "ZetaExpr.expand"),
    "zeta.dl_naive": ("arczeta.zeta", "dl_naive"),
    "zeta.dl_sign": ("arczeta.zeta", "dl_sign"),
    "zeta.resolution_from_json": ("arczeta.zeta", "resolution_from_json"),
    "zeta.ts_convolve": ("arczeta.zeta", "ts_convolve"),
    "zeta.germ_invariants": ("arczeta.zeta", "germ_invariants"),
    "zeta.compare_invariants": ("arczeta.zeta", "compare_invariants"),
    "brieskorn.classify": ("arczeta.brieskorn", "classify"),
    "vpoly.script_from_json": ("arczeta.vpoly", "script_from_json"),
    "vpoly.run_script": ("arczeta.vpoly", "run_script"),
    "oracle.count_jets_with_order": ("arczeta.oracle", "count_jets_with_order"),
}

#: LaurentPoly operations counted into ring.poly_ops
COUNTED = ("__add__", "__sub__", "__mul__", "__rmul__", "shift")

# bytes per element of the enumerator's arrays: int64 coordinate jets,
# int32 power tables, int16 combined rows
_JET_BYTES, _POWER_BYTES, _ROW_BYTES = 8, 4, 2


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, call id, outermost of its name]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._seen_zeta: set = set()
        self._undo: list = []
        self.call_id = 0

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        for name, (modname, qualname) in SPANNED.items():
            module = sys.modules[modname]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._span(name, getattr(cls, meth)))
            else:
                original = getattr(module, qualname)
                wrapper = self._span(name, original)
                for holder in _arczeta_modules():
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, attr, wrapper)
        poly = sys.modules["arczeta.ring"].LaurentPoly
        for meth in COUNTED:
            self._replace(poly, meth, self._counted(getattr(poly, meth)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counted(self, original):
        counts = self.counts

        def op(*args):
            counts["ring.poly_ops"] += 1
            return original(*args)

        return op

    def _span(self, name, original):
        signature = inspect.signature(original)
        spans, stack, active = self.spans, self._stack, self._active
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter(), None, stack[-1] if stack else -1,
                      tracer.call_id, active[name] == 0]
            spans.append(record)
            stack.append(index)
            active[name] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                record[2] = perf_counter()
            tracer._observe(name, signature, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- counters ---------------------------------------------------------------

    def _observe(self, name, signature, args, kwargs, result) -> None:
        if name == "jets.jet_strata":
            self.counts["jets.strata"] += len(result)
        elif name == "jets.zeta_direct":
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            germ_to_str = sys.modules["arczeta.jets"].germ_to_str
            a = bound.arguments
            key = (germ_to_str(a["g"]), a["order"], a["variant"])
            if key in self._seen_zeta:
                self.counts["jets.zeta_direct_dups"] += 1
            self._seen_zeta.add(key)
            if self._active["brieskorn.classify"]:
                self.counts["brieskorn.reference_calls"] += 1
        elif name == "oracle.count_jets_with_order":
            bound = signature.bind(*args, **kwargs)
            g, n, q = bound.arguments["g"], bound.arguments["n"], bound.arguments["q"]
            d = g.dim
            self.counts["oracle.power_rows"] += d * q**n
            self.counts["oracle.jet_space"] += q ** (d * n)
            combine = q ** (d * n) if d >= 2 else 0
            self.counts["oracle.combine_rows"] += combine
            self.counts["oracle.bytes_computed"] += (
                q**n * n * _JET_BYTES + d * q**n * (n + 1) * _POWER_BYTES
                + combine * (n + 1) * _ROW_BYTES)
        elif name == "cli.main" and result in (1, 2):
            self.counts[f"cli.exit{result}_calls"] += 1

    # -- reduction ----------------------------------------------------------------

    def layers(self) -> dict[str, tuple[float, str, int]]:
        """Per-layer table: name -> (value, unit, sample count).

        Times are summed over the traced call list: ``_ms`` of a function
        is the time inside its outermost spans, ``self_ms`` excludes the
        time covered by child spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _, outer) in enumerate(self.spans):
            calls[name] += 1
            if outer:
                total[name] += end - start
            own[name] += end - start - child[i]
        module_self = defaultdict(float)
        for name, value in own.items():
            module_self[name.split(".")[0]] += value

        def ms(*names, self_time=False):
            source = own if self_time else total
            return (1000 * sum(source[n] for n in names), "ms",
                    sum(calls[n] for n in names))

        c = self.counts
        zeta_calls = calls["jets.zeta_direct"]
        count_s = total["oracle.count_jets_with_order"]
        formats = ("ring.format_series", "ring.format_poly", "ring.to_json_dict")
        return {
            "cli.main_ms": ms("cli.main"),
            "cli.self_ms": ms("cli.main", self_time=True),
            "cli.exit1_calls": (c["cli.exit1_calls"], "count", calls["cli.main"]),
            "cli.exit2_calls": (c["cli.exit2_calls"], "count", calls["cli.main"]),
            "jets.parse_germ_ms": ms("jets.parse_germ"),
            "jets.zeta_direct_ms": ms("jets.zeta_direct"),
            "jets.zeta_direct_calls": (zeta_calls, "count", zeta_calls),
            "jets.jet_strata_calls": (calls["jets.jet_strata"], "count",
                                      calls["jets.jet_strata"]),
            "jets.strata": (c["jets.strata"], "count", calls["jets.jet_strata"]),
            "jets.zeta_direct_dup_share": (
                c["jets.zeta_direct_dups"] / zeta_calls if zeta_calls else 0.0,
                "ratio", zeta_calls),
            "jets.jet_beta_ms": ms("jets.jet_beta", "jets.jet_beta_sign"),
            "jets.self_ms": (1000 * module_self["jets"], "ms",
                             sum(v for k, v in calls.items() if k.startswith("jets."))),
            "ring.poly_ops": (c["ring.poly_ops"], "count", c["ring.poly_ops"]),
            "ring.series_mul_ms": ms("ring.series_mul"),
            "ring.series_mul_calls": (calls["ring.series_mul"], "count",
                                      calls["ring.series_mul"]),
            "ring.expand_ms": ms("ring.expand"),
            "ring.format_ms": ms(*formats, self_time=True),
            "ring.self_ms": (1000 * module_self["ring"], "ms",
                             sum(v for k, v in calls.items() if k.startswith("ring."))),
            "zeta.dl_ms": ms("zeta.dl_naive", "zeta.dl_sign", self_time=True),
            "zeta.resolution_parse_ms": ms("zeta.resolution_from_json"),
            "zeta.ts_convolve_ms": ms("zeta.ts_convolve"),
            "zeta.germ_invariants_ms": ms("zeta.germ_invariants"),
            "zeta.compare_ms": ms("zeta.compare_invariants", self_time=True),
            "brieskorn.classify_ms": ms("brieskorn.classify"),
            "brieskorn.classify_self_ms": ms("brieskorn.classify", self_time=True),
            "brieskorn.reference_calls": (c["brieskorn.reference_calls"], "count",
                                          calls["brieskorn.classify"]),
            "vpoly.script_parse_ms": ms("vpoly.script_from_json"),
            "vpoly.run_script_ms": ms("vpoly.run_script"),
            "oracle.count_ms": ms("oracle.count_jets_with_order"),
            "oracle.count_calls": (calls["oracle.count_jets_with_order"], "count",
                                   calls["oracle.count_jets_with_order"]),
            "oracle.power_rows": (c["oracle.power_rows"], "count",
                                  calls["oracle.count_jets_with_order"]),
            "oracle.combine_rows": (c["oracle.combine_rows"], "count",
                                    calls["oracle.count_jets_with_order"]),
            "oracle.jets_per_s": (c["oracle.jet_space"] / count_s if count_s else 0.0,
                                  "1/s", calls["oracle.count_jets_with_order"]),
            "oracle.bytes_computed": (c["oracle.bytes_computed"], "bytes",
                                      calls["oracle.count_jets_with_order"]),
        }


def _arczeta_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "arczeta" or name.startswith("arczeta."))]
