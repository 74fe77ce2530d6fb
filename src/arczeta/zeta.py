"""Zeta functions from resolution data, closed forms, and convolution.

The evaluator consumes purely combinatorial resolution data: for each
exceptional component a pair (N, nu) of multiplicities, and for each set I
of components the invariant of the corresponding boundary stratum over the
origin (plus its two sign coverings).  The naive zeta function is

    sum over nonempty I of (u-1)^|I| * beta0(I) * prod_{i in I} F(nu_i, N_i)

with F(nu, N) = u^-nu T^N / (1 - u^-nu T^N), and the sign variants replace
(u-1)^|I| * beta0 by (u-1)^(|I|-1) * beta_sign.  Whether the data really
comes from a resolution is the caller's responsibility; no normal-crossing
condition can be checked from the combinatorics alone.

A germ's :func:`closed_form` sums the strata of :mod:`jets` over one period
of its tie sets into the same kind of rational function.
"""

from __future__ import annotations

import functools
import math

from ._value import frozen
from .errors import InputError, json_int, loads
from .jets import (
    DiagonalGerm,
    Germ,
    MonomialGerm,
    _monomial_condition,
    _tie_betas,
    sign_variant,
    variant_level,
    zeta_direct,
)
from .ring import (
    ONE,
    U,
    LaurentPoly,
    ZetaExpr,
    ZetaSeries,
    parse_poly,
    zeta_expr,
    zeta_term,
)

# ---------------------------------------------------------------------------
# resolution data
# ---------------------------------------------------------------------------


@frozen
class Component:
    """One exceptional or strict-transform component with its multiplicities."""

    id: str
    N: int
    nu: int
    over_origin: bool

    def __post_init__(self):
        if self.N < 1 or self.nu < 1:
            raise ValueError(f"component {self.id!r}: N and nu must be >= 1")


@frozen
class StratumData:
    """Invariants attached to the boundary stratum of a component set I."""

    components: tuple[str, ...]
    beta0: LaurentPoly
    beta_plus: LaurentPoly
    beta_minus: LaurentPoly

    def __post_init__(self):
        if not self.components:
            raise ValueError("a stratum needs a nonempty component set")


@frozen
class ResolutionDatum:
    dimension: int
    components: tuple[Component, ...]
    strata: tuple[StratumData, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise ValueError("component ids must be unique")
        if not any(c.over_origin for c in self.components):
            raise ValueError("at least one component must lie over the origin")
        known = set(ids)
        seen: set[frozenset[str]] = set()
        for st in self.strata:
            key = frozenset(st.components)
            if len(key) != len(st.components):
                raise ValueError(f"stratum {st.components} repeats a component")
            if not key <= known:
                raise ValueError(
                    f"stratum references unknown component "
                    f"{sorted(key - known)}"
                )
            if key in seen:
                raise ValueError(f"duplicate stratum for {sorted(key)}")
            seen.add(key)
            if st.beta0 and st.beta0.degree > self.dimension - len(key):
                raise ValueError(
                    f"stratum {sorted(key)}: deg(beta0) exceeds the "
                    f"dimension bound {self.dimension - len(key)}"
                )

    def component(self, cid: str) -> Component:
        for c in self.components:
            if c.id == cid:
                return c
        raise KeyError(cid)


def resolution_from_json(data: dict | str) -> ResolutionDatum:
    if isinstance(data, str):
        data = loads(data, "bad resolution JSON")
    try:
        components = tuple(
            Component(
                id=_required(c, "id", f"component {i}"),
                N=json_int(_required(c, "N", f"component {i}"), f"component {i} N"),
                nu=json_int(_required(c, "nu", f"component {i}"), f"component {i} nu"),
                over_origin=bool(c.get("over_origin", True)),
            )
            for i, c in enumerate(_required(data, "components", "the top level"), 1)
        )
        strata = tuple(
            StratumData(
                components=tuple(_required(s, "I", f"stratum {i}")),
                beta0=parse_poly(s.get("beta0", "0")),
                beta_plus=parse_poly(s.get("beta_plus", "0")),
                beta_minus=parse_poly(s.get("beta_minus", "0")),
            )
            for i, s in enumerate(data.get("strata", []), 1)
        )
        datum = ResolutionDatum(
            dimension=json_int(
                _required(data, "dimension", "the top level"), "dimension"
            ),
            components=components,
            strata=strata,
        )
    except TypeError as exc:
        raise InputError(f"bad resolution document: {exc}") from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return datum


def _required(obj: dict, key: str, where: str):
    """obj[key], or an InputError that names the key and where it is missing."""
    try:
        return obj[key]
    except KeyError:
        raise InputError(
            f"bad resolution document: {where} has no {key!r} key"
        ) from None


def dl_expr(r: ResolutionDatum, variant: str = "naive") -> ZetaExpr:
    """The exact rational form of the zeta function of a resolution datum."""
    level = variant_level(variant)
    terms = []
    for st in r.strata:
        beta = {0: st.beta0, 1: st.beta_plus, -1: st.beta_minus}[level]
        coef = (U - ONE) ** (len(st.components) - (level != 0)) * beta
        if not coef:
            continue
        factors = []
        for cid in st.components:
            comp = r.component(cid)
            factors.append((comp.nu, comp.N))
        terms.append(zeta_term(coef, factors))
    return zeta_expr(terms)


def dl_naive(r: ResolutionDatum, order: int) -> ZetaSeries:
    """Naive zeta series of the datum, expanded to the given order."""
    return dl_expr(r, "naive").expand(order)


def dl_sign(r: ResolutionDatum, sign: int, order: int) -> ZetaSeries:
    """Sign zeta series (+1 or -1 variant) of the datum."""
    return dl_expr(r, sign_variant(sign)).expand(order)


# ---------------------------------------------------------------------------
# closed forms from the stratification
# ---------------------------------------------------------------------------


def closed_form(g: Germ, variant: str = "naive") -> ZetaExpr:
    """The exact rational form of the series :func:`jets.zeta_direct` sums.

    A monomial germ's strata share one leading-coefficient condition: the
    form is that condition times F(1, N_i) per positive exponent N_i, with
    F(nu, N) = u^-nu T^N / (1 - u^-nu T^N).  A diagonal germ's tie sets
    repeat with period L = lcm(p_i), and drop(s) = sum(s // p_i) grows by
    D = sum(L // p_i) per period, so the sweep's lead and cancellation sums
    of each s in 1..L with a nonempty tie set become
    (lead + cancel * F(1, 1)) * u^(D - drop(s)) * T^(s - L) * F(D, L).
    An indefinite three-way tie raises as the sweep does, at its first T^s.
    """
    level = variant_level(variant)
    if isinstance(g, MonomialGerm):
        cond = _monomial_condition(g, level)
        factors = [(1, e) for e in g.exponents if e]
        return zeta_expr([zeta_term(cond, factors)] if cond else [])
    exps = g.exponents
    period = math.lcm(*exps)
    lift = sum(period // p for p in exps)
    base = (lift, period)
    terms = []
    for s in range(1, period + 1):
        tied = [g.terms[i] for i, p in enumerate(exps) if s % p == 0]
        if tied:
            lead, cancel = _tie_betas(tied, level, s)
            up = lift - sum(s // p for p in exps)
            for beta, factors in ((lead, [base]), (cancel, [base, (1, 1)])):
                if beta:
                    terms.append(zeta_term(beta.shift(up), factors, s - period))
    return zeta_expr(terms)


# ---------------------------------------------------------------------------
# convolution for sums of same-sign germs
# ---------------------------------------------------------------------------


def ts_convolve(zf: ZetaSeries, zg: ZetaSeries) -> ZetaSeries:
    """Coefficientwise convolution c_n = C_(n-1) - C_n of the tail products.

    A_n = 1 - sum(a_j, j <= n), likewise B_n, and C_n = A_n * B_n; A_n,
    scaled by the jet-space volume, is the invariant of the arcs whose
    composed order exceeds n, so C_n is that of the pairs whose sum does.
    Expanding C_(n-1) with A_(n-1) = A_n + a_n gives exactly
    c_n = a_n B_n + A_n b_n + a_n b_n, one product per n instead of three.
    The identity computes the zeta function of f(x) + g(y) and is valid only
    when f and g are both positive or both negative; that hypothesis cannot
    be read off the series and remains the caller's responsibility.
    """
    if zf.order != zg.order:
        raise ValueError(
            f"mismatched truncation orders {zf.order} and {zg.order}"
        )
    coeffs: dict[int, LaurentPoly] = {}
    A = B = C = ONE
    for n in range(1, zf.order + 1):
        A, B = A - zf.coeff(n), B - zg.coeff(n)
        previous, C = C, A * B
        c = previous - C
        if c:
            coeffs[n] = c
    return ZetaSeries(zf.order, coeffs)


# ---------------------------------------------------------------------------
# invariant comparison
# ---------------------------------------------------------------------------


@frozen
class InvariantTriple:
    """The three series attached to one germ."""

    naive: ZetaSeries
    plus: ZetaSeries
    minus: ZetaSeries


def germ_invariants(g: Germ, order: int) -> InvariantTriple:
    """The naive, plus and minus series of g up to the given order.

    The series are blow-Nash invariants, so g is first moved to one
    representative of its class under three symmetries: x_i -> -x_i makes
    the sign of every odd power +, permuting variables sorts a monomial's
    exponents and puts + before - among a diagonal germ's equal exponents,
    and of g and -g the one with the larger sign tuple is kept.
    -g has the naive series of g with the two sign series swapped, so a germ
    whose representative is that of -g reads the triple of -g swapped.  The
    last four triples are kept: classify reads each of its candidate germs,
    and a ``--germ`` input is one of them.
    """
    rep, swapped = _representative(g)
    inv = _kept_invariants(rep, order)
    return InvariantTriple(inv.naive, inv.minus, inv.plus) if swapped else inv


def _representative(g: Germ) -> tuple[Germ, bool]:
    """The germ of g's class that g reads, and whether it is that of -g."""
    rep, neg = _moved(g, 1), _moved(g, -1)
    if isinstance(g, MonomialGerm):
        swapped = neg.unit_sign > rep.unit_sign
    else:
        swapped = neg.signs > rep.signs
    return (neg, True) if swapped else (rep, False)


def _moved(g: Germ, sign: int) -> Germ:
    """sign*g with every odd power's sign +, a monomial's exponents sorted
    and, per exponent of a diagonal germ, + before -."""
    if isinstance(g, MonomialGerm):
        exps = tuple(sorted(g.exponents))
        return MonomialGerm(exps, 1 if any(e % 2 for e in exps) else sign * g.unit_sign)
    terms = ((1 if p % 2 else sign * s, p) for s, p in g.terms)
    return DiagonalGerm(tuple(sorted(terms, key=lambda t: (t[1], -t[0]))))


@functools.lru_cache(maxsize=4)
def _kept_invariants(g: Germ, order: int) -> InvariantTriple:
    """The triple of a representative; when -g has the same representative,
    its minus series is its plus series, the same object, swept once."""
    naive, plus = (zeta_direct(g, order, v) for v in ("naive", "plus"))
    if _moved(g, -1) == g:
        return InvariantTriple(naive, plus, plus)
    return InvariantTriple(naive, plus, zeta_direct(g, order, "minus"))


@frozen
class Distinguished:
    """First witnessing coefficient where the two invariant triples differ."""

    series: str  # "naive", "plus" or "minus"
    index: int
    left: LaurentPoly
    right: LaurentPoly


@frozen
class NotDistinguished:
    """All compared coefficients agree up to the truncation order.

    This never certifies equivalence; the invariants are necessary, not
    sufficient.
    """

    order: int


def compare_invariants(
    left: InvariantTriple, right: InvariantTriple
) -> Distinguished | NotDistinguished:
    """Scan for the first differing coefficient, n ascending, naive first."""
    series = [
        ("naive", left.naive, right.naive),
        ("plus", left.plus, right.plus),
        ("minus", left.minus, right.minus),
    ]
    orders = {s.order for _, l, r in series for s in (l, r)}
    if len(orders) != 1:
        raise ValueError("the six series must share a truncation order")
    (order,) = orders
    for n in range(1, order + 1):
        for name, l, r in series:
            cl = l.coeff(n)
            cr = r.coeff(n)
            if cl != cr:
                return Distinguished(series=name, index=n, left=cl, right=cr)
    return NotDistinguished(order=order)
