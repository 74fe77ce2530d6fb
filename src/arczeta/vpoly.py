"""Virtual Poincare polynomial calculus on constructible piece descriptions.

A piece description is a tree of disjoint unions, products and asserted
differences over a small alphabet of atoms (affine spaces, tori, punctured
affine spaces, finite point sets, projective spaces, spheres, and custom
pieces with a stored value).  The invariant beta assigns to each piece a
Laurent polynomial that is additive over disjoint unions and differences and
multiplicative over products, with deg(beta) equal to the dimension.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

from typing import Union

from ._value import frozen
from .errors import InputError, RingBoundError, json_int, loads
from .ring import ONE, ZERO, LaurentPoly, check_span, format_poly, parse_poly

# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def _check_size(size: int, what: str, span: bool = True) -> None:
    """Refuse a negative atom size and, with ``span``, a beta spanning
    u^0 .. u^size that the ring cannot store."""
    if size < 0:
        raise ValueError(f"{what} must be nonnegative")
    if span:
        check_span(0, size)


@frozen
class Affine:
    """R^m; beta = u^m."""

    m: int

    def __post_init__(self):
        _check_size(self.m, "dimension", span=False)


# The largest coefficient of (u-1)^k is the middle binomial C(k, k//2); from
# k = 14292 on it has more than 4300 digits, Python's default int-to-str
# limit, so such a beta could not be printed.
_MAX_TORUS_RANK = 14291


@frozen
class Torus:
    """(R*)^k; beta = (u-1)^k."""

    k: int

    def __post_init__(self):
        _check_size(self.k, "rank")
        if self.k > _MAX_TORUS_RANK:
            raise RingBoundError(
                f"torus rank {self.k} exceeds {_MAX_TORUS_RANK}: the coefficients "
                f"of (u-1)^{self.k} would have more than 4300 digits"
            )


@frozen
class PuncturedAffine:
    """R^m minus the origin; beta = u^m - 1."""

    m: int

    def __post_init__(self):
        _check_size(self.m, "dimension")


@frozen
class Points:
    """c isolated points; beta = c."""

    c: int

    def __post_init__(self):
        _check_size(self.c, "point count", span=False)


@frozen
class ProjSpace:
    """Real projective k-space; beta = 1 + u + ... + u^k."""

    k: int

    def __post_init__(self):
        _check_size(self.k, "dimension")


@frozen
class Sphere:
    """The k-sphere; beta = u^k + 1.

    The value follows from invariance of beta under Nash isomorphisms: any
    definite diagonal level set is Nash-isomorphic to the round sphere, and
    a compact nonsingular set takes its mod-2 Betti numbers as beta.  This
    is a derived rule of the calculus, not a counting formula: the F_q
    points of a sphere's quadric number beta(q) only in dimension at most 1
    and at q = 3 (mod 4).
    """

    k: int

    def __post_init__(self):
        _check_size(self.k, "dimension")


@frozen
class Custom:
    """A piece with externally supplied invariant."""

    name: str
    beta: LaurentPoly
    dim: int

    def __post_init__(self):
        if self.beta and self.beta.degree != self.dim:
            raise ValueError(
                f"custom piece {self.name!r}: deg(beta) = {self.beta.degree} "
                f"does not equal the declared dimension {self.dim}"
            )


Atom = Union[Affine, Torus, PuncturedAffine, Points, ProjSpace, Sphere, Custom]


@frozen
class DisjointUnion:
    parts: tuple["PieceExpr", ...]


@frozen
class Product:
    parts: tuple["PieceExpr", ...]


@frozen
class Difference:
    """whole minus part; containment is asserted by the caller.

    Only the necessary degree conditions are checked (containment of
    abstract descriptions is not decidable at this level).
    """

    whole: "PieceExpr"
    part: "PieceExpr"


PieceExpr = Union[Atom, DisjointUnion, Product, Difference]


def union(*parts: PieceExpr) -> DisjointUnion:
    return DisjointUnion(tuple(parts))


def product(*parts: PieceExpr) -> Product:
    return Product(tuple(parts))


def difference(whole: PieceExpr, part: PieceExpr) -> Difference:
    return Difference(whole, part)


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------


def beta_atom(a: Atom) -> LaurentPoly:
    """The virtual Poincare polynomial of a single atom."""
    if isinstance(a, Affine):
        return LaurentPoly.u_power(a.m)
    if isinstance(a, Torus):
        # the binomial row: c_i = (-1)^(k-i) * C(k, i)
        row = [(-1) ** a.k]
        for i in range(a.k):
            row.append(-row[i] * (a.k - i) // (i + 1))
        return LaurentPoly(dict(enumerate(row)))
    if isinstance(a, PuncturedAffine):
        return LaurentPoly.u_power(a.m) - ONE
    if isinstance(a, Points):
        return LaurentPoly.const(a.c)
    if isinstance(a, ProjSpace):
        return LaurentPoly({i: 1 for i in range(a.k + 1)})
    if isinstance(a, Sphere):
        return LaurentPoly.u_power(a.k) + ONE
    if isinstance(a, Custom):
        return a.beta
    raise TypeError(f"not an atom: {a!r}")


def beta_expr(
    e: ScriptExpr, symbols: dict[str, LaurentPoly] | None = None
) -> LaurentPoly:
    """Structural evaluation: unions add, products multiply, differences subtract.

    A :class:`Ref` reads its value from ``symbols``, the names a script has
    defined so far.
    """
    if isinstance(e, Ref):
        if symbols is None or e.name not in symbols:
            raise InputError(f"undefined symbol {e.name!r}")
        return symbols[e.name]
    if isinstance(e, DisjointUnion):
        total = ZERO
        for p in e.parts:
            total = total + beta_expr(p, symbols)
        return total
    if isinstance(e, Product):
        total = ONE
        for p in e.parts:
            total = _bounded_product(total, beta_expr(p, symbols))
        return total
    if isinstance(e, Difference):
        bw = beta_expr(e.whole, symbols)
        bp = beta_expr(e.part, symbols)
        if bp and (not bw or bp.degree > bw.degree):
            raise InputError(
                f"difference degree check failed in script "
                f"({format_poly(bw)} minus {format_poly(bp)})"
            )
        return bw - bp
    return beta_atom(e)


# A coefficient of a * b is a sum of at most min(len a, len b) products of a
# coefficient of a and one of b.  Where that bound reaches 10^4300, the
# product could have coefficients of more than 4300 digits, which the torus
# rule already refuses because they cannot be printed.
_MAX_COEFF = 10**4300

# LaurentPoly.__mul__ walks the nonzero coefficients of the shorter factor
# and multiplies each into the whole longer one, so it costs about
# nnz(shorter) * len(longer) products of coefficients, each roughly
# proportional to the 256-bit blocks of its two factors; 2^25 such units take
# about a second.
_MAX_PRODUCT_WORK = 2**25


def _bounded_product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b, refused with RingBoundError before any work if it is too large."""
    if not a or not b:
        return ZERO
    # a * b checks the span too; checking it before the other bounds makes an
    # over-wide product name the span bound, whichever bound it also exceeds
    check_span(a.low_degree + b.low_degree, a.degree + b.degree)
    len_a, len_b = (p.degree - p.low_degree + 1 for p in (a, b))
    max_a, max_b = (max(abs(c) for _, c in p.items()) for p in (a, b))
    if max_a * max_b * min(len_a, len_b) >= _MAX_COEFF:
        raise RingBoundError(
            "a product of betas could have coefficients of more than 4300 digits"
        )
    bits_a, bits_b = max_a.bit_length(), max_b.bit_length()
    nonzero = sum(1 for _ in (a if len_a <= len_b else b).items())
    work = nonzero * max(len_a, len_b) * -(-bits_a // 256) * -(-bits_b // 256)
    if work > _MAX_PRODUCT_WORK:
        raise RingBoundError(
            f"a product of betas with {len_a} and {len_b} coefficients of up to "
            f"{max(bits_a, bits_b)} bits exceeds the work bound"
        )
    return a * b


# ---------------------------------------------------------------------------
# blow-up relation
# ---------------------------------------------------------------------------


#: the blow-up relation beta(X) - beta(C) + beta(E) - beta(Bl) = 0, by slot
_BLOWUP_SIGNS = {"X": 1, "C": -1, "E": 1, "Bl": -1}


def blowup_solve(
    beta_x: LaurentPoly | None = None,
    beta_c: LaurentPoly | None = None,
    beta_e: LaurentPoly | None = None,
    beta_bl: LaurentPoly | None = None,
) -> LaurentPoly:
    """Solve the blow-up relation beta(Bl) - beta(E) = beta(X) - beta(C).

    Exactly three of the four values must be given; returns the fourth.
    """
    values = {"X": beta_x, "C": beta_c, "E": beta_e, "Bl": beta_bl}
    missing = [k for k, v in values.items() if v is None]
    if len(missing) != 1:
        raise ValueError(
            f"exactly one unknown required, got {len(missing)} "
            f"({', '.join(missing) or 'none'})"
        )
    # the signed betas sum to zero, so the missing one is fixed by the rest
    given = (b * _BLOWUP_SIGNS[k] for k, b in values.items() if b is not None)
    return sum(given, ZERO) * -_BLOWUP_SIGNS[missing[0]]


# ---------------------------------------------------------------------------
# scripts: named chains of beta computations
# ---------------------------------------------------------------------------


@frozen
class Ref:
    """Reference to a previously defined script symbol."""

    name: str


ScriptExpr = Union[PieceExpr, Ref, DisjointUnion, Product, Difference]


@frozen
class ExprDef:
    name: str
    expr: ScriptExpr


@frozen
class BlowupDef:
    """One blow-up relation step; the solved slot is bound to ``name``."""

    name: str
    solve_for: str  # one of X, C, E, Bl
    given: tuple[tuple[str, ScriptExpr], ...]  # the other three slots


@frozen
class BetaScript:
    defs: tuple[Union[ExprDef, BlowupDef], ...] = ()


#: blow-up slot -> the keyword of :func:`blowup_solve` that takes its value
_BLOWUP_SLOTS = {"X": "beta_x", "C": "beta_c", "E": "beta_e", "Bl": "beta_bl"}


def run_script(script: BetaScript) -> dict[str, LaurentPoly]:
    """Evaluate the definitions top to bottom; returns every named value."""
    values: dict[str, LaurentPoly] = {}
    for d in script.defs:
        if d.name in values:
            raise InputError(f"symbol {d.name!r} defined twice")
        if isinstance(d, ExprDef):
            values[d.name] = beta_expr(d.expr, values)
            continue
        if d.solve_for not in _BLOWUP_SLOTS:
            raise InputError(f"blow-up step solves for unknown slot {d.solve_for!r}")
        given = dict(d.given)
        if set(given) != set(_BLOWUP_SLOTS) - {d.solve_for}:
            raise InputError(
                f"blow-up step for {d.name!r} must give exactly the three "
                f"slots other than {d.solve_for!r}"
            )
        values[d.name] = blowup_solve(**{
            keyword: beta_expr(given[slot], values)
            for slot, keyword in _BLOWUP_SLOTS.items()
            if slot in given
        })
    return values


# ---------------------------------------------------------------------------
# reading scripts and expressions from JSON
# ---------------------------------------------------------------------------

_ATOM_KEYS = {
    "affine": Affine,
    "torus": Torus,
    "punctured_affine": PuncturedAffine,
    "points": Points,
    "proj_space": ProjSpace,
    "sphere": Sphere,
}


def atom_from_json(obj: dict) -> Atom:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError(f"an atom object must have exactly one key: {obj!r}")
    (key, value), = obj.items()
    if key in _ATOM_KEYS:
        try:
            return _ATOM_KEYS[key](json_int(value, f"{key} size"))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad {key} atom {value!r}: {exc}") from exc
    if key == "custom":
        if not isinstance(value, dict):
            raise InputError(f"a custom atom needs an object: {value!r}")
        try:
            return Custom(
                name=value["name"],
                beta=parse_poly(value["beta"]),
                dim=json_int(value["dim"], "custom atom dim"),
            )
        except InputError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"bad custom atom {value!r}: {exc}") from exc
    raise InputError(f"unknown atom kind {key!r}")


def expr_from_json(node: dict) -> ScriptExpr:
    if not isinstance(node, dict) or len(node) != 1:
        raise InputError(f"an expression node must have exactly one key: {node!r}")
    (key, value), = node.items()
    if key == "atom":
        return atom_from_json(value)
    if key == "ref":
        return Ref(str(value))
    if key in ("union", "product", "difference") and not isinstance(value, list):
        raise InputError(f"{key} takes a list of expressions: {value!r}")
    if key == "union":
        return DisjointUnion(tuple(expr_from_json(v) for v in value))
    if key == "product":
        return Product(tuple(expr_from_json(v) for v in value))
    if key == "difference":
        if len(value) != 2:
            raise InputError("difference takes exactly [whole, part]")
        return Difference(expr_from_json(value[0]), expr_from_json(value[1]))
    raise InputError(f"unknown expression node {key!r}")


def script_from_json(data: dict | str) -> BetaScript:
    if isinstance(data, str):
        data = loads(data, "bad script JSON")
    raw_defs = data.get("defs") if isinstance(data, dict) else None
    if not isinstance(raw_defs, list):
        raise InputError("a script document needs a 'defs' list")
    defs: list[ExprDef | BlowupDef] = []
    for raw in raw_defs:
        name = raw.get("name") if isinstance(raw, dict) else None
        if not isinstance(name, str):
            raise InputError(f"script definition without a name: {raw!r}")
        if "expr" in raw:
            defs.append(ExprDef(name=name, expr=expr_from_json(raw["expr"])))
        elif "blowup" in raw:
            if not isinstance(raw["blowup"], dict):
                raise InputError(f"blow-up step {name!r} needs an object of slots")
            blow = dict(raw["blowup"])
            solve_for = blow.pop("solve_for", None)
            if not isinstance(solve_for, str):
                raise InputError(f"blow-up step {name!r} lacks 'solve_for'")
            given = tuple(
                (slot, expr_from_json(node)) for slot, node in sorted(blow.items())
            )
            defs.append(BlowupDef(name=name, solve_for=solve_for, given=given))
        else:
            raise InputError(f"definition {name!r} needs 'expr' or 'blowup'")
    return BetaScript(defs=tuple(defs))
