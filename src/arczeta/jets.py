"""Direct computation of zeta coefficients from truncated-arc decompositions.

For a germ f in d variables and a truncation order n, the set of arc jets
gamma with ord(f o gamma) exactly n is constructible, and its virtual
Poincare polynomial is assembled from finitely many strata.  Writing p_i for
the exponent of the i-th variable and k_i for the vanishing order of the
i-th coordinate arc, the term of coordinate i first contributes at order
p_i * k_i, so the strata are indexed by the level s = min_i p_i k_i at which
leading terms interact:

* s = n: the jets realizing order n at once.  The coordinates able to tie at
  level n are D = {i : p_i | n}; the leading coefficients (a_i, i in D) must
  not make the leading form vanish, every other coordinate vanishes past
  n // p_i, and the remaining sum(n - n//p_i) jet coefficients are free.
* s < n (diagonal germs only): the leading form vanishes at level s and
  cancellation continues for exactly j = n - s further steps.  Over the
  (smooth) punctured zero set of the leading form, each intermediate step
  cuts one affine dimension (one new coefficient is solved for), and the
  final step lands on a nonzero value (naive case, one torus factor) or on
  a prescribed value +-1 (sign case, one affine solve).

Products never cancel, so monomial germs only have s = n strata, indexed by
the compositions sum(N_i k_i) = n.

The zero sets of leading forms that the bookkeeping needs are plane curves
{e1*a^p + e2*b^q = level} (the rule table in :func:`tie_curve_rule`) and, in
three variables, sign-definite forms only; an indefinite three-way tie has
no supported rule and raises instead of guessing.

:func:`jet_strata` lists the strata of one order n and is the reference
for the sums.  :func:`zeta_direct` does not call it: summed over a whole
series, the strata telescope into one pass over n (see :func:`_diagonal_sweep`
and :func:`_monomial_sweep`), so its cost follows the size of the series it
returns.  :func:`jet_beta` and :func:`jet_beta_sign` read one coefficient of
that series, so the F_q oracle checks the route that ``zeta-germ`` prints.
All functions are pure.
"""

from __future__ import annotations

import math
import re
from typing import Literal, Union

from ._value import frozen
from .errors import InputError, UnsupportedComputationError
from .ring import ONE, U, ZERO, LaurentPoly, ZetaSeries

Variant = Literal["naive", "plus", "minus"]

_VARIANT_LEVEL = {"naive": 0, "plus": 1, "minus": -1}


def variant_level(variant: str) -> int:
    """The level 0, +1 or -1 that the naive, plus or minus variant fixes."""
    if variant not in _VARIANT_LEVEL:
        raise ValueError(f"unknown variant {variant!r}")
    return _VARIANT_LEVEL[variant]


class UnsupportedGermError(UnsupportedComputationError):
    """A coefficient request hit a regime with no supported evaluation rule."""

    def __init__(self, message: str, n: int | None = None):
        super().__init__(message)
        self.n = n


# ---------------------------------------------------------------------------
# germ descriptions
# ---------------------------------------------------------------------------


@frozen
class MonomialGerm:
    """f = unit_sign * x1^N1 * ... * xd^Nd (zero exponents allowed)."""

    exponents: tuple[int, ...]
    unit_sign: int = 1

    def __post_init__(self):
        if not 1 <= len(self.exponents) <= 3:
            raise ValueError("one to three variables are supported")
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be nonnegative")
        if not any(self.exponents):
            raise ValueError("at least one exponent must be positive")
        if self.unit_sign not in (1, -1):
            raise ValueError("unit sign must be +1 or -1")

    @property
    def dim(self) -> int:
        return len(self.exponents)


@frozen
class DiagonalGerm:
    """f = sum of eps_i * x_i^{p_i}, one term per variable.

    Terms are kept sorted by exponent (ties keep construction order), so the
    exponents read p <= q <= r.
    """

    terms: tuple[tuple[int, int], ...]  # (sign, exponent)

    def __post_init__(self):
        if not 1 <= len(self.terms) <= 3:
            raise ValueError("one to three variables are supported")
        for sign, exp in self.terms:
            if sign not in (1, -1):
                raise ValueError("term signs must be +1 or -1")
            if exp < 1:
                raise ValueError("term exponents must be positive")
        object.__setattr__(
            self, "terms", tuple(sorted(self.terms, key=lambda t: t[1]))
        )

    @property
    def dim(self) -> int:
        return len(self.terms)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(exp for _, exp in self.terms)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(sign for sign, _ in self.terms)


Germ = Union[MonomialGerm, DiagonalGerm]


# -- germ grammar -------------------------------------------------------------

_VAR_INDEX = {"x": 0, "y": 1, "z": 2}
_MONO_FACTOR = re.compile(r"^([xyz])\^(\d+)$")
_DIAG_TERM = re.compile(r"^([+-]?)([xyz])\^(\d+)$")


def parse_germ(text: str) -> Germ:
    """Parse ``x^3+y^4`` (diagonal) or ``x^2*y^5*z^0`` (monomial) germs.

    Variables must appear in x, y, z order without repetition.  A lone
    ``x^k`` or ``-x^k`` parses as a one-variable diagonal germ.
    """
    s = text.replace(" ", "")
    if not s:
        raise InputError("empty germ")
    if "*" in s:
        return _parse_monomial(s)
    return _parse_diagonal(s)


def _parse_monomial(s: str) -> MonomialGerm:
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    exps: dict[int, int] = {}
    last = -1
    for factor in s.split("*"):
        m = _MONO_FACTOR.match(factor)
        if not m:
            raise InputError(f"bad monomial factor {factor!r}")
        idx = _VAR_INDEX[m.group(1)]
        if idx <= last:
            raise InputError("variables must appear once, in x, y, z order")
        last = idx
        exps[idx] = int(m.group(2))
    d = last + 1
    try:
        return MonomialGerm(
            exponents=tuple(exps.get(i, 0) for i in range(d)), unit_sign=sign
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_diagonal(s: str) -> DiagonalGerm:
    pieces = re.findall(r"[+-]?[^+-]+", s)
    if "".join(pieces) != s:
        snippet = s if len(s) < 40 else s[:37] + "..."
        raise InputError(f"cannot parse germ {snippet!r}")
    terms = []
    last = -1
    for piece in pieces:
        m = _DIAG_TERM.match(piece)
        if not m:
            raise InputError(f"bad germ term {piece!r}")
        idx = _VAR_INDEX[m.group(2)]
        if idx != last + 1:
            raise InputError("diagonal germs use consecutive variables x, y, z")
        last = idx
        terms.append((-1 if m.group(1) == "-" else 1, int(m.group(3))))
    try:
        return DiagonalGerm(terms=tuple(terms))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def germ_to_str(g: Germ) -> str:
    """Canonical text form accepted back by :func:`parse_germ`."""
    names = "xyz"
    if isinstance(g, MonomialGerm):
        parts = []
        for i, e in enumerate(g.exponents):
            if e or i == len(g.exponents) - 1:
                parts.append(f"{names[i]}^{e}")
        body = "*".join(parts)
        # a starless single factor would reparse as diagonal; that is fine
        # only when the meaning agrees, i.e. for a plain positive power
        return ("-" if g.unit_sign < 0 else "") + body
    parts = []
    for i, (sign, exp) in enumerate(g.terms):
        lead = "-" if sign < 0 else ("" if i == 0 else "+")
        parts.append(f"{lead}{names[i]}^{exp}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# plane tie curves
# ---------------------------------------------------------------------------


@frozen
class TieCurveRule:
    """Invariant of {e1*a^p + e2*b^q = level} in the plane, with its mechanism."""

    beta: LaurentPoly
    mechanism: str


def tie_curve_rule(p: int, q: int, e1: int, e2: int, level: int) -> TieCurveRule:
    """Rule table for diagonal plane curves and their unit level sets.

    Level 0: a definite pair vanishes at the origin only; an odd exponent
    makes the curve the bijective image of a line; an indefinite pair of
    even exponents gives two irreducible branches through the origin.

    Level +-1: a definite pair is an oval (or empty, for the wrong sign);
    an odd exponent gives a global graph over the other axis.  For an
    indefinite even pair the curve is two graph branches over the full
    axis of the non-dominant variable (the dominant one is the term whose
    sign equals the level).  How the branches close up through infinity on
    the normalization decides the invariant: with m = (non-dominant
    exponent) / gcd(p, q), even m closes each branch into its own circle
    (beta = 2u), odd m runs both branches around one circle through two
    points at infinity (beta = u - 1, the hyperbola {st = 1} being the
    basic case).
    """
    if p < 1 or q < 1:
        raise ValueError("exponents must be positive")
    if e1 not in (1, -1) or e2 not in (1, -1) or level not in (0, 1, -1):
        raise ValueError("signs must be +1 or -1, and the level 0, +1 or -1")
    even = p % 2 == 0 and q % 2 == 0
    if level == 0:
        if even and e1 == e2:
            beta, how = ONE, "definite pair: the origin only"
        elif even:
            beta, how = 2 * U - ONE, "two branches through the origin"
        else:
            beta, how = U, "bijective image of a line"
    elif even and e1 == e2:
        if e1 == level:
            beta, how = U + ONE, "oval, Nash-isomorphic to a circle"
        else:
            beta, how = ZERO, "empty: definite form of the opposite sign"
    elif even:
        other = q if e1 == level else p
        if (other // math.gcd(p, q)) % 2 == 0:
            beta, how = 2 * U, "two branches, each its own circle minus a point"
        else:
            beta, how = U - ONE, "one circle through infinity minus two points"
    else:
        beta, how = U, "graph over the odd-exponent axis"
    return TieCurveRule(beta=beta, mechanism=how)


# ---------------------------------------------------------------------------
# leading-form invariants for tied coordinate sets
# ---------------------------------------------------------------------------


def _is_definite(terms: list[tuple[int, int]]) -> bool:
    signs = {s for s, _ in terms}
    return all(p % 2 == 0 for _, p in terms) and len(signs) == 1


def _real_root_count(m: int, target: int) -> int:
    """Number of real solutions t of t^m = target, for target 0, +1 or -1."""
    if target == 0 or m % 2 == 1:
        return 1
    return 2 if target == 1 else 0


def _level_set_beta(terms: list[tuple[int, int]], level: int, n: int) -> LaurentPoly:
    """beta of {leading form = level} in R^len(terms), level 0, +1 or -1."""
    if len(terms) == 1:
        s, p = terms[0]
        return LaurentPoly.const(_real_root_count(p, s * level))
    if len(terms) == 2:
        (s1, p1), (s2, p2) = terms
        return tie_curve_rule(p1, p2, s1, s2, level).beta
    if _is_definite(terms):
        if not level:
            return ONE  # the origin only
        # definite surface of matching sign: Nash-isomorphic to a sphere
        return LaurentPoly.u_power(2) + ONE if terms[0][0] == level else ZERO
    raise UnsupportedGermError(f"indefinite three-way tie at T^{n}", n=n)


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------


@frozen
class JetStratum:
    """One stratum of the order-n jet set.

    ``orders[i]`` is the least possible vanishing order of coordinate i on
    the stratum; None means no finite order is forced (the coordinate is
    inert, or it must vanish past the truncation).  ``condition_beta`` is
    the invariant of the leading-coefficient condition, including the
    cancellation-step factors when the leading form cancels below n, and
    ``free_dims`` counts the unconstrained jet coefficients, so that the
    stratum contributes condition_beta * u^free_dims.
    """

    orders: tuple[int | None, ...]
    condition_beta: LaurentPoly
    free_dims: int

    @property
    def contribution(self) -> LaurentPoly:
        return self.condition_beta.shift(self.free_dims)


def _monomial_condition(g: MonomialGerm, level: int) -> LaurentPoly:
    """beta of the leading-coefficient condition, the same for every n.

    Level 0 asks each leading coefficient to be nonzero; level +-1 asks
    their product to be normalized to that sign.
    """
    exps = [e for e in g.exponents if e > 0]
    if level == 0:
        return (U - ONE) ** len(exps)
    count = _real_root_count(math.gcd(*exps), level * g.unit_sign)
    return LaurentPoly.const(count) * (U - ONE) ** (len(exps) - 1)


def _monomial_strata(g: MonomialGerm, n: int, level: int) -> list[JetStratum]:
    active = [i for i, e in enumerate(g.exponents) if e > 0]
    exps = [g.exponents[i] for i in active]
    dummies = g.dim - len(active)
    cond_beta = _monomial_condition(g, level)

    strata: list[JetStratum] = []

    def compositions(remaining: int, idx: int, chosen: list[int]):
        if idx == len(active) - 1:
            e = exps[idx]
            if remaining >= e and remaining % e == 0:
                yield chosen + [remaining // e]
            return
        e = exps[idx]
        k = 1
        while k * e <= remaining - sum(exps[idx + 1 :]):
            yield from compositions(remaining - k * e, idx + 1, chosen + [k])
            k += 1

    for ks in compositions(n, 0, []):
        orders: list[int | None] = [None] * g.dim
        free = n * dummies
        for pos, k in zip(active, ks):
            orders[pos] = k
            free += n - k
        if cond_beta:
            strata.append(
                JetStratum(
                    orders=tuple(orders), condition_beta=cond_beta, free_dims=free
                )
            )
    return strata


def _diagonal_strata(g: DiagonalGerm, n: int, level: int) -> list[JetStratum]:
    exps = g.exponents
    strata: list[JetStratum] = []
    for s in range(1, n + 1):
        tied = [i for i, p in enumerate(exps) if s % p == 0]
        if not tied:
            continue
        lead, cancel = _tie_betas([g.terms[i] for i in tied], level, n)
        # per coordinate, the s//p_i lowest slots are constrained (zero for
        # untied coordinates, zero below a leading slot that belongs to the
        # condition variety for tied ones); the rest are free
        free = sum(n - s // p for p in exps)
        orders_list: list[int | None] = []
        for i, p in enumerate(exps):
            k_min = s // p if i in tied else s // p + 1
            orders_list.append(k_min if k_min <= n else None)
        # below s = n the leading form cancels through n - s steps, each
        # cutting one free slot, then meets the value the variant asks for
        cond_beta = lead if s == n else cancel
        if cond_beta:
            strata.append(
                JetStratum(
                    orders=tuple(orders_list),
                    condition_beta=cond_beta,
                    free_dims=free - (n - s),
                )
            )
    return strata


def jet_strata(g: Germ, n: int, variant: Variant = "naive") -> list[JetStratum]:
    """Disjoint strata of the order-n jet set; contributions sum to its beta.

    Raises :class:`UnsupportedGermError` for regimes with no evaluation rule
    (indefinite three-way ties) rather than returning a wrong answer.
    """
    if n < 1:
        raise ValueError("the order n must be a positive integer")
    level = variant_level(variant)
    if isinstance(g, MonomialGerm):
        return _monomial_strata(g, n, level)
    if isinstance(g, DiagonalGerm):
        return _diagonal_strata(g, n, level)
    raise TypeError(f"not a germ: {g!r}")


def sign_variant(sign: int) -> Variant:
    """The variant, plus or minus, whose series counts f o gamma = sign * t^n."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return "plus" if sign == 1 else "minus"


def jet_beta(g: Germ, n: int) -> LaurentPoly:
    """beta of the set of jets gamma with ord(f o gamma) exactly n.

    Read off the series :func:`zeta_direct` prints, so a check against this
    value checks that route.
    """
    return zeta_direct(g, n).coeff(n).shift(n * g.dim)


def jet_beta_sign(g: Germ, n: int, sign: int) -> LaurentPoly:
    """beta of the jets with f o gamma = sign * t^n + higher order terms."""
    return zeta_direct(g, n, sign_variant(sign)).coeff(n).shift(n * g.dim)


def zeta_direct(g: Germ, order: int, variant: Variant = "naive") -> ZetaSeries:
    """The zeta series sum(beta_n * u^(-n*d) * T^n) up to the given order.

    Equal to summing the :func:`jet_strata` contributions order by order
    (the test suite keeps that loop as the reference), in one pass over n.
    """
    if order < 1:
        raise ValueError("truncation order must be a positive integer")
    level = variant_level(variant)
    if isinstance(g, MonomialGerm):
        return ZetaSeries(order, _monomial_sweep(g, order, level))
    if isinstance(g, DiagonalGerm):
        return ZetaSeries(order, _diagonal_sweep(g, order, level))
    raise TypeError(f"not a germ: {g!r}")


def _diagonal_sweep(g: DiagonalGerm, order: int, level: int) -> dict[int, LaurentPoly]:
    """Normalized coefficients of a diagonal germ, n = 1..order.

    With drop(s) = sum(s // p_i), the order-n strata normalize to
    lead(D_n) * u^-drop(n) at level s = n and to
    cancel(D_s) * u^(s - drop(s)) * u^-n at each level s < n, where D_s is
    the tie set of s.  So the T^n coefficient is the s = n term plus u^-n
    times P(n), the running sum of the cancellation terms of all s < n.
    Tie sets repeat, so each one's betas are evaluated once, at the first n
    that meets it: an unsupported tie raises exactly when the per-order
    strata first would.
    """
    exps = g.exponents
    betas: dict[tuple[int, ...], tuple[LaurentPoly, LaurentPoly]] = {}
    coeffs: dict[int, LaurentPoly] = {}
    pending = ZERO  # P(n)
    for n in range(1, order + 1):
        total = pending.shift(-n)
        tied = tuple(i for i, p in enumerate(exps) if n % p == 0)
        if tied:
            if tied not in betas:
                betas[tied] = _tie_betas([g.terms[i] for i in tied], level, n)
            lead, cancel = betas[tied]
            drop = sum(n // p for p in exps)
            total = total + lead.shift(-drop)
            pending = pending + cancel.shift(n - drop)
        if total:
            coeffs[n] = total
    return coeffs


def _tie_betas(
    terms: list[tuple[int, int]], level: int, n: int
) -> tuple[LaurentPoly, LaurentPoly]:
    """(s = n condition beta, per-level cancellation beta) of one tie set."""
    zero_set = _level_set_beta(terms, 0, n)
    if level == 0:
        lead = LaurentPoly.u_power(len(terms)) - zero_set
    else:
        lead = _level_set_beta(terms, level, n)
    if len(terms) == 1:
        return lead, ZERO  # a single leading term cannot cancel
    cancel = zero_set - ONE
    return lead, cancel * (U - ONE) if level == 0 else cancel


def _monomial_sweep(g: MonomialGerm, order: int, level: int) -> dict[int, LaurentPoly]:
    """Normalized coefficients of a monomial germ, n = 1..order.

    A composition sum(e_i * k_i) = n of the active exponents is one stratum,
    normalized to cond * u^-(sum k_i).  Summing them by their last part
    gives C_j(n) = u^-1 * (C_(j-1)(n - e_j) + C_j(n - e_j)), with C_0 = cond
    at n = 0 and zero elsewhere, so each level keeps its last max(e) values.
    This is the recurrence of ``ZetaExpr.expand`` written out on purpose:
    the closed forms are checked against this route, so it must not share
    their code.
    """
    cond = _monomial_condition(g, level)
    if not cond:
        return {}
    exps = [e for e in g.exponents if e > 0]
    width = max(exps)
    sums = [[ZERO] * width for _ in exps]
    coeffs: dict[int, LaurentPoly] = {}
    for n in range(1, order + 1):
        new = []
        for j, e in enumerate(exps):
            m = n - e
            if m > 0:
                c = sums[j][m % width]
                if j:
                    c = sums[j - 1][m % width] + c
            else:
                c = cond if m == 0 and j == 0 else ZERO
            new.append(c.shift(-1))
        for j, c in enumerate(new):
            sums[j][n % width] = c
        if new[-1]:
            coeffs[n] = new[-1]
    return coeffs
