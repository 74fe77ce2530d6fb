"""Command-line front end.

Subcommands: zeta-germ, zeta-res, beta, classify, ts, oracle, compare.
Outputs are deterministic (identical inputs give byte-identical output).
Exit codes: 0 success, 1 malformed input, 2 unsupported computation (out of
memory included), 3 an oracle count differed from beta(q).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ArczetaError, InputError, UnsupportedComputationError, loads
from .ring import DEFAULT_ORDER, ZetaSeries, format_poly, format_series

# each handler imports the modules it runs, so a call loads only those:
# zeta-germ needs jets and ring, beta vpoly and ring, oracle jets, ring and
# oracle; json is imported only to read or write a JSON document.  The
# parser is built once per process and shared by every main() call: parsing
# leaves nothing on it, as each call gets a fresh namespace and append copies
# its default list before adding to it

TS_CAVEAT = (
    "note: the convolution identity assumes both summand germs are positive "
    "or both are negative"
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; malformed input is exit 1
    def error(self, message):
        raise InputError(message)

    # argparse drops an attached value of exactly "--" (--germ=--) and
    # stores an empty list; it is a missing value, as in "--germ --"
    def _get_values(self, action, arg_strings):
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            self.error(f"argument {'/'.join(action.option_strings)}: "
                       "expected one argument")
        return super()._get_values(action, arg_strings)


def _add_common(p: argparse.ArgumentParser, *, sign: bool = False):
    p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                   help="truncation order (default %(default)s)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the output to FILE instead of stdout")
    if sign:
        p.add_argument("--sign", choices=("naive", "plus", "minus"),
                       default="naive")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arczeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta-germ", help="zeta series of a germ, by jets")
    p.add_argument("--germ", required=True)
    _add_common(p, sign=True)

    p = sub.add_parser("zeta-res", help="zeta series from a resolution file")
    p.add_argument("--file", required=True)
    _add_common(p, sign=True)

    p = sub.add_parser("beta", help="run a beta script file")
    p.add_argument("--script", required=True)
    _add_common(p)

    p = sub.add_parser("classify", help="Brieskorn classification report")
    p.add_argument("--germ")
    p.add_argument("--series-file", action="append", default=[],
                   metavar="FILE",
                   help="three files: naive, plus, minus series")
    _add_common(p)

    p = sub.add_parser("ts", help="convolve the zeta series of two germs")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_common(p)

    p = sub.add_parser("oracle", help="compare F_q jet counts with beta")
    p.add_argument("--germ", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", required=True, help="comma-separated primes")
    _add_common(p)

    p = sub.add_parser("compare", help="compare the invariants of two germs")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_common(p)

    return parser


def _series_output(
    z: ZetaSeries, extra: dict, notes: tuple[str, ...] = ()
) -> tuple[str, dict]:
    """Text and JSON payload of a series; notes print after the series."""
    payload = dict(extra)
    if notes:
        payload["notes"] = list(notes)
    payload["order"] = z.order
    payload["series"] = z.to_json_dict()
    return "".join(f"{line}\n" for line in (format_series(z), *notes)), payload


def _cmd_zeta_germ(args) -> tuple[str, dict]:
    from .jets import germ_to_str, parse_germ, zeta_direct

    germ = parse_germ(args.germ)
    z = zeta_direct(germ, args.order, args.sign)
    return _series_output(z, {"germ": germ_to_str(germ), "variant": args.sign})


def _cmd_zeta_res(args) -> tuple[str, dict]:
    from .jets import variant_level
    from .zeta import dl_naive, dl_sign, resolution_from_json

    with open(args.file, "r", encoding="utf-8") as fh:
        datum = resolution_from_json(fh.read())
    level = variant_level(args.sign)
    z = dl_sign(datum, level, args.order) if level else dl_naive(datum, args.order)
    return _series_output(z, {"file": args.file, "variant": args.sign})


def _cmd_beta(args) -> tuple[str, dict]:
    from .vpoly import run_script, script_from_json

    with open(args.script, "r", encoding="utf-8") as fh:
        script = script_from_json(fh.read())
    betas = {name: format_poly(b) for name, b in run_script(script).items()}
    text = "\n".join(f"{name} = {beta}" for name, beta in betas.items()) + "\n"
    return text, {"betas": betas}


def _load_series_file(path: str) -> ZetaSeries:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return ZetaSeries.from_json_dict(loads(text, f"bad series file {path}"))


def _cmd_classify(args) -> tuple[str, dict]:
    from .brieskorn import classify
    from .jets import DiagonalGerm, germ_to_str, parse_germ
    from .zeta import germ_invariants

    if args.germ and args.series_file:
        raise InputError("give either --germ or --series-file, not both")
    if args.germ:
        germ = parse_germ(args.germ)
        if not (isinstance(germ, DiagonalGerm) and germ.dim == 2):
            raise UnsupportedComputationError(
                f"classify --germ needs a two-variable diagonal germ "
                f"e1*x^p + e2*y^q, got {germ_to_str(germ)}"
            )
        inv = germ_invariants(germ, args.order)
        z, zp, zm = inv.naive, inv.plus, inv.minus
    elif len(args.series_file) == 3:
        z, zp, zm = (_load_series_file(p) for p in args.series_file)
    else:
        raise InputError("classify needs --germ or exactly three --series-file")
    payload = classify(z, zp, zm).to_json_dict()
    keys = ("p", "q", "eps_p", "eps_q", "status")
    lines = [f"{key} = {payload[key]}" for key in keys]
    lines.extend(f"note: {n}" for n in payload["notes"])
    return "\n".join(lines) + "\n", payload


def _cmd_ts(args) -> tuple[str, dict]:
    from .jets import DiagonalGerm, _is_definite, germ_to_str, parse_germ, zeta_direct
    from .zeta import ts_convolve

    left = parse_germ(args.left)
    right = parse_germ(args.right)
    # the convolution identity needs two positive or two negative germs:
    # diagonal, with every exponent even and one sign throughout
    diagonal = isinstance(left, DiagonalGerm) and isinstance(right, DiagonalGerm)
    if not diagonal or not _is_definite(left.terms + right.terms):
        raise UnsupportedComputationError(
            "ts needs two positive or two negative diagonal germs (every "
            f"exponent even, every sign equal), got {germ_to_str(left)} and "
            f"{germ_to_str(right)}"
        )
    zf = zeta_direct(left, args.order)
    zg = zeta_direct(right, args.order)
    z = ts_convolve(zf, zg)
    return _series_output(
        z, {"left": germ_to_str(left), "right": germ_to_str(right)}, (TS_CAVEAT,)
    )


def _cmd_oracle(args) -> tuple[str, dict]:
    from .jets import germ_to_str, jet_beta, parse_germ
    from .oracle import check_jet_space, count_jets_with_order

    if args.n < 1:
        raise InputError("--n must be a positive integer")
    germ = parse_germ(args.germ)
    try:
        qs = [int(part) for part in args.q.split(",") if part]
    except ValueError as exc:
        raise InputError(f"bad q list {args.q!r}") from exc
    if not qs:
        raise InputError("no q values given")
    for q in qs:
        check_jet_space(q, germ.dim, args.n)
    beta = jet_beta(germ, args.n)
    rows = []
    for q in qs:
        count = count_jets_with_order(germ, args.n, q)
        expected = beta.evaluate(q)
        ok = expected == count
        rows.append({"q": q, "count": count, "beta": int(expected),
                     "ok": bool(ok)})
    lines = [
        f"q={row['q']}: jets={row['count']} beta={row['beta']} "
        + ("PASS" if row["ok"] else "FAIL")
        for row in rows
    ]
    text = "\n".join(lines) + "\n"
    payload = {
        "germ": germ_to_str(germ),
        "n": args.n,
        "beta": format_poly(beta),
        "results": rows,
    }
    return text, payload


def _cmd_compare(args) -> tuple[str, dict]:
    from .jets import germ_to_str, parse_germ
    from .zeta import Distinguished, compare_invariants, germ_invariants

    left = parse_germ(args.left)
    right = parse_germ(args.right)
    result = compare_invariants(
        germ_invariants(left, args.order), germ_invariants(right, args.order)
    )
    payload = {"left": germ_to_str(left), "right": germ_to_str(right)}
    if isinstance(result, Distinguished):
        payload.update(
            distinguished=True,
            series=result.series,
            index=result.index,
            left_coeff=format_poly(result.left),
            right_coeff=format_poly(result.right),
        )
        text = ("distinguished at T^{index} in the {series} series: "
                "left = {left_coeff}, right = {right_coeff}\n")
    else:
        payload.update(distinguished=False, order=result.order)
        text = "not distinguished up to order {order}\n"
    return text.format_map(payload), payload


_COMMANDS = {
    "zeta-germ": _cmd_zeta_germ,
    "zeta-res": _cmd_zeta_res,
    "beta": _cmd_beta,
    "classify": _cmd_classify,
    "ts": _cmd_ts,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
}


def _emit(args, text: str, payload: dict) -> None:
    if args.format == "json":
        import json

        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "order", 1) < 1:
            raise InputError("--order must be a positive integer")
        text, payload = _COMMANDS[args.command](args)
        _emit(args, text, payload)
        # only oracle rows carry a verdict; a failed one is printed, then exit 3
        return 0 if all(row["ok"] for row in payload.get("results", ())) else 3
    except UnsupportedComputationError as exc:
        sys.stderr.write(f"unsupported: {exc}\n")
        return 2
    except (ArczetaError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        pass
    # written only here, outside the handler: leaving it frees the frames
    # that the traceback holds, and with them the partial result
    sys.stderr.write("unsupported: out of memory; choose a smaller --order\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
