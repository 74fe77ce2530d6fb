"""Exact arithmetic in Z[u, u^-1] and in truncated power series over it.

Three value types live here:

* ``LaurentPoly``: an integer Laurent polynomial in the single variable u,
  stored densely as u^low * (c_0 + c_1*u + c_2*u^2 + ...), an int tuple
  trimmed at both ends, so that multiplying by u^k shares the tuple.
* ``ZetaSeries``: a series sum(c_n * T^n, n = 1..order) truncated at a fixed
  order, with ``LaurentPoly`` coefficients and no constant term.
* ``ZetaExpr``: an exact rational form, a sum of terms
  coef * prod_i u^(-nu_i) T^(N_i) / (1 - u^(-nu_i) T^(N_i)),
  compared only through expansion to a chosen truncation order.

Storage is bounded: a polynomial whose exponents leave +-2^31, or whose
coefficient tuple would exceed 2^20 entries, raises
:class:`~arczeta.errors.RingBoundError` before anything is allocated.

All values are immutable after construction and every operation is a pure
function, so they are safe to share between threads.
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING, Iterator, Mapping

from ._value import frozen
from .errors import InputError, RingBoundError, json_int

if TYPE_CHECKING:
    from fractions import Fraction

#: Truncation order used by callers that do not pick one explicitly.
DEFAULT_ORDER = 64

# Exponents stay tiny in practice; a hard bound turns runaway exponent
# growth into an explicit failure instead of silent memory exhaustion.
_MAX_EXPONENT = 2**31

# Largest number of coefficient slots, u^low through u^high, one polynomial
# may occupy: 8 MB of tuple at the bound.  A zeta_direct coefficient at T^n
# spans at most d*n + 1 slots, so the bound only stops inputs that ask for
# huge gaps, such as u^-1000000000 + 1.
_MAX_SPAN = 2**20


def check_span(low: int, high: int) -> None:
    """Raise RingBoundError unless u^low .. u^high fits both storage bounds."""
    if low < -_MAX_EXPONENT or high > _MAX_EXPONENT:
        e = low if low < -_MAX_EXPONENT else high
        raise RingBoundError(f"u-exponent {e} out of supported range")
    if high - low >= _MAX_SPAN:
        raise RingBoundError(
            f"a polynomial from u^{low} to u^{high} exceeds the bound of "
            f"{_MAX_SPAN} coefficients"
        )


def _poly(low: int, coeffs) -> "LaurentPoly":
    """The polynomial u^low * coeffs, trimmed; the caller checked the bounds."""
    start, end = 0, len(coeffs)
    while start < end and not coeffs[start]:
        start += 1
    while end > start and not coeffs[end - 1]:
        end -= 1
    res = LaurentPoly.__new__(LaurentPoly)
    if start == end:
        res._low, res._coeffs = 0, ()
    else:
        res._low = low + start
        res._coeffs = tuple(coeffs[start:end])
    return res


class LaurentPoly:
    """Element of Z[u, u^-1] in canonical dense form.

    ``_coeffs[i]`` is the coefficient of u^(_low + i); the first and last
    entries are nonzero, and zero is the empty tuple with ``_low == 0``, so
    equal values have equal fields.
    """

    __slots__ = ("_low", "_coeffs")

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                e = int(e)
                c = int(c)
                if c:
                    clean[e] = c
        if not clean:
            self._low, self._coeffs = 0, ()
            return
        low, high = min(clean), max(clean)
        check_span(low, high)
        coeffs = [0] * (high - low + 1)
        for e, c in clean.items():
            coeffs[e - low] = c
        self._low, self._coeffs = low, tuple(coeffs)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def u_power(e: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({e: coeff})

    # -- structure -------------------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """Copy of the exponent -> nonzero coefficient map."""
        low = self._low
        return {low + i: c for i, c in enumerate(self._coeffs) if c}

    def items(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs, nonzero only, exponent decreasing."""
        cs, low = self._coeffs, self._low
        return ((low + i, cs[i]) for i in range(len(cs) - 1, -1, -1) if cs[i])

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @property
    def degree(self) -> int:
        """Largest exponent; only defined for nonzero values."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return self._low + len(self._coeffs) - 1

    @property
    def low_degree(self) -> int:
        """Smallest exponent; only defined for nonzero values."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no low degree")
        return self._low

    def coeff(self, e: int) -> int:
        i = e - self._low
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else 0

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not b:
            return self
        if not a:
            return other
        la, lb = self._low, other._low
        if lb < la:
            a, b, la, lb = b, a, lb, la
        off, na, nb = lb - la, len(a), len(b)
        check_span(la, max(na, off + nb) + la - 1)
        if off >= na:
            # disjoint supports: nothing cancels and both ends stay nonzero
            res = LaurentPoly.__new__(LaurentPoly)
            res._low, res._coeffs = la, a + (0,) * (off - na) + b
            return res
        out = list(a[:off])
        out += [x + y for x, y in zip(a[off:], b)]
        out += a[off + nb:] if off + nb < na else b[na - off:]
        return _poly(la, out)

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res._low, res._coeffs = self._low, tuple([-c for c in self._coeffs])
        return res

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            res = LaurentPoly.__new__(LaurentPoly)
            res._low, res._coeffs = self._low, tuple([c * other for c in self._coeffs])
            return res
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return LaurentPoly()
        low = self._low + other._low
        check_span(low, low + len(a) + len(b) - 2)
        if len(a) > len(b):
            a, b = b, a
        # Z is a domain: the end coefficients of a product are nonzero
        res = LaurentPoly.__new__(LaurentPoly)
        res._low = low
        if len(a) == 1:
            c = a[0]
            res._coeffs = b if c == 1 else tuple([c * y for y in b])
            return res
        nb = len(b)
        out = [0] * (len(a) + nb - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + nb] = [x + c * y for x, y in zip(out[i:i + nb], b)]
        res._coeffs = tuple(out)
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by u^k; the result shares this polynomial's tuple."""
        cs = self._coeffs
        if not cs or not k:
            return self
        low = self._low + k
        check_span(low, low + len(cs) - 1)
        res = LaurentPoly.__new__(LaurentPoly)
        res._low, res._coeffs = low, cs
        return res

    def evaluate(self, q: "int | Fraction") -> "int | Fraction":
        """Exact value at u = q.

        The value is an int when q is an int and no exponent is negative,
        and a Fraction otherwise.  q = 0 is a domain error whenever a
        negative exponent is present.
        """
        cs, low = self._coeffs, self._low
        if isinstance(q, int) and low >= 0:
            x = q
        else:
            from fractions import Fraction

            q = Fraction(q)
            if q == 0 and low < 0:
                raise ValueError("cannot evaluate at 0: negative exponents present")
            x = q.numerator if q.denominator == 1 else q
        acc = 0
        for c in reversed(cs):
            acc = acc * x + c
        return acc * q**low

    # -- equality / hashing / text ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            if not other:
                return not self._coeffs
            return self._low == 0 and self._coeffs == (other,)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._low == other._low and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._low, self._coeffs))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


#: Shared constants.
ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
U = LaurentPoly.u_power(1)


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form: terms in decreasing exponent, e.g. ``u^2-1``."""
    return _format_terms(p._coeffs, p._low)


def _format_terms(cs: tuple[int, ...], low: int) -> str:
    """Text of u^low * (cs[0] + cs[1]*u + ...), one f-string per nonzero term.

    A negative int prints its own sign, so only a positive term adds one.  A
    coefficient longer than Python's int-to-str digit limit raises
    RingBoundError: sums of betas are not bounded before they are printed.
    """
    if not cs:
        return "0"
    parts: list[str] = []
    append = parts.append
    try:
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
            if not c:
                continue
            e = low + i
            if e != 0 and e != 1:
                if c > 0:
                    append(f"+u^{e}" if c == 1 else f"+{c}*u^{e}")
                else:
                    append(f"-u^{e}" if c == -1 else f"{c}*u^{e}")
            elif e:
                if c > 0:
                    append("+u" if c == 1 else f"+{c}*u")
                else:
                    append("-u" if c == -1 else f"{c}*u")
            else:
                append(f"+{c}" if c > 0 else f"{c}")
    except ValueError:
        raise RingBoundError(
            f"a coefficient of more than {sys.get_int_max_str_digits()} digits "
            "cannot be printed"
        ) from None
    out = "".join(parts)
    return out[1:] if out[0] == "+" else out


# one term is [sign][digits][*]u^[exponent] with digits or u present; the
# sign is optional on the first term only
_POLY_TERM = r"(?=[\du])(?:\d+\*?)?(?:u(?:\^-?\d+)?)?"
_POLY_RE = re.compile(rf"[+-]?{_POLY_TERM}(?:[+-]{_POLY_TERM})*")
# sign, digits, u and exponent of each term of a string _POLY_RE accepted
_TERM_RE = re.compile(r"(?!\Z)([+-]?)(\d*)\*?(u?)(?:\^(-?\d+))?")
# before every sign that starts a new term; a sign directly after '^'
# belongs to the exponent
_SPLIT_RE = re.compile(r"(?<!\^)(?=[+-])")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the grammar emitted by :func:`format_poly`.

    Terms are ``[sign][integer][*]u^[integer]`` with ``u`` alone meaning u^1
    and a bare integer meaning u^0.
    """
    if not isinstance(text, str):
        raise InputError(f"a polynomial must be a string, got {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise InputError("empty polynomial string")
    if not _POLY_RE.fullmatch(s):
        # the split serves only to name the first bad term
        bad = next(p for p in _SPLIT_RE.split(s) if p and not _POLY_RE.fullmatch(p))
        raise InputError(f"bad term {bad!r} in polynomial {text!r}")
    terms: dict[int, int] = {}
    for sign, digits, upart, exponent in _TERM_RE.findall(s):
        expo = int(exponent) if exponent else 1 if upart else 0
        coeff = int(digits) if digits else 1
        terms[expo] = terms.get(expo, 0) + (-coeff if sign == "-" else coeff)
    return LaurentPoly(terms)


class ZetaSeries:
    """Truncated element of Z[u,u^-1][[T]] with zero constant term.

    Absent coefficients are zero; the truncation order is part of the value.
    Arithmetic between series of different orders truncates to the smaller
    order rather than claiming precision the inputs lack.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Mapping[int, LaurentPoly] | None = None):
        if not isinstance(order, int) or order < 1:
            raise ValueError("truncation order must be a positive integer")
        clean: dict[int, LaurentPoly] = {}
        if coeffs:
            for n, c in coeffs.items():
                n = int(n)
                if n < 1:
                    raise ValueError("series coefficients start at T^1")
                if n > order:
                    continue
                if not isinstance(c, LaurentPoly):
                    raise TypeError("coefficients must be LaurentPoly values")
                if c:
                    clean[n] = c
        self._order = order
        self._coeffs = clean

    @property
    def order(self) -> int:
        return self._order

    def coeff(self, n: int) -> LaurentPoly:
        if n < 1 or n > self._order:
            raise ValueError(f"T^{n} is outside the truncation order {self._order}")
        return self._coeffs.get(n, ZERO)

    def support(self) -> tuple[int, ...]:
        """Indices with nonzero coefficient, increasing."""
        return tuple(sorted(self._coeffs))

    def is_zero(self) -> bool:
        return not self._coeffs

    def truncate(self, order: int) -> "ZetaSeries":
        if order > self._order:
            raise ValueError("cannot extend a truncated series")
        return ZetaSeries(order, {n: c for n, c in self._coeffs.items() if n <= order})

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "ZetaSeries") -> "ZetaSeries":
        if not isinstance(other, ZetaSeries):
            return NotImplemented
        order = min(self._order, other._order)
        out: dict[int, LaurentPoly] = {}
        for n in range(1, order + 1):
            c = self._coeffs.get(n, ZERO) + other._coeffs.get(n, ZERO)
            if c:
                out[n] = c
        return ZetaSeries(order, out)

    def __mul__(self, other: "ZetaSeries") -> "ZetaSeries":
        if not isinstance(other, ZetaSeries):
            return NotImplemented
        order = min(self._order, other._order)
        out: dict[int, LaurentPoly] = {}
        for i, ci in self._coeffs.items():
            for j, cj in other._coeffs.items():
                n = i + j
                if n > order:
                    continue
                s = out.get(n, ZERO) + ci * cj
                if s:
                    out[n] = s
                else:
                    out.pop(n, None)
        return ZetaSeries(order, out)

    def scale(self, poly: LaurentPoly) -> "ZetaSeries":
        return ZetaSeries(
            self._order, {n: c * poly for n, c in self._coeffs.items()}
        )

    # -- equality / text ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, frozenset(self._coeffs.items())))

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"ZetaSeries(order={self._order}, {format_series(self)!r})"

    # -- serialization --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self._order,
            "terms": [
                {"n": n, "coeff": _format_terms(c._coeffs, c._low)}
                for n, c in sorted(self._coeffs.items())
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ZetaSeries":
        try:
            order = json_int(data["order"], "bad series document: order")
            coeffs = {
                json_int(t["n"], "bad series document: n"): parse_poly(t["coeff"])
                for t in data["terms"]
            }
            return ZetaSeries(order, coeffs)
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad series document: {exc}") from exc


def format_series(z: ZetaSeries) -> str:
    """Text form ``(coef)*u^e*T^n + ...`` in increasing n.

    Each coefficient is factored as p * u^e with p having a nonzero constant
    term, so e.g. the coefficient (u-1)u^-1 of T^6 prints as ``(u-1)*u^-1``.
    """
    if z.is_zero():
        return "0"
    parts = []
    append = parts.append
    for n, c in sorted(z._coeffs.items()):
        low = c._low
        body = _format_terms(c._coeffs, 0)
        if low == 0:
            append(f"({body})*T^{n}")
        elif low == 1:
            append(f"({body})*u*T^{n}")
        else:
            append(f"({body})*u^{low}*T^{n}")
    return " + ".join(parts)


@frozen
class ZetaTerm:
    """One summand coef * T^t_shift * prod of (nu, N) geometric factors.

    The shift is zero or negative and leaves the lowest power of T, that is
    t_shift + sum(N), at 1 or above: a zeta series carries no T^0 constant.
    """

    coef: LaurentPoly
    factors: tuple[tuple[int, int], ...]
    t_shift: int = 0

    def __post_init__(self):
        for nu, N in self.factors:
            if nu < 1 or N < 1:
                raise ValueError("factor parameters must be positive integers")
        if self.t_shift > 0 or self.t_shift + sum(N for _, N in self.factors) < 1:
            raise ValueError(
                "a term needs t_shift <= 0 and its lowest power of T, "
                "t_shift + sum(N), at 1 or above"
            )


@frozen
class ZetaExpr:
    """Exact rational form of a zeta function; compared via expansion only."""

    terms: tuple[ZetaTerm, ...]

    def expand(self, order: int) -> ZetaSeries:
        """The series to the given order, one T^n coefficient at a time.

        In a term coef * F_1 * ... * F_K with F_k = x_k / (1 - x_k) and
        x_k = u^(-nu_k) T^(N_k), the partial products S_k = coef * F_1 * ...
        * F_k satisfy S_k = x_k * (S_(k-1) + S_k), that is

            S_k(n) = u^(-nu_k) * (S_(k-1)(n - N_k) + S_k(n - N_k)),

        with S_0 = coef at n = t_shift and zero elsewhere.  The sweep starts
        at the least t_shift, so a partial product that is nonzero below
        T^1 is still stored; S_K itself starts at t_shift + sum(N) >= 1.
        Each level keeps only its last max(N) values, and the T^n
        coefficient, the sum of S_K(n) over the terms, is final before
        n + 1 starts, so no truncated product series is ever built.
        """
        if not isinstance(order, int) or order < 1:
            raise ValueError("truncation order must be a positive integer")
        plans = []
        for term in self.terms:
            width = max(N for _, N in term.factors)
            levels = [[ZERO] * width for _ in term.factors]
            plans.append((term.coef, term.factors, term.t_shift, width, levels))
        start = min((term.t_shift for term in self.terms), default=0) + 1
        coeffs: dict[int, LaurentPoly] = {}
        for n in range(start, order + 1):
            total = ZERO
            for coef, factors, t_shift, width, levels in plans:
                # every S_k(n) from values stored at earlier n, then store them
                values = []
                for k, (nu, N) in enumerate(factors):
                    m = n - N
                    if m > t_shift:
                        s = levels[k][m % width]
                        if k:
                            s = levels[k - 1][m % width] + s
                    else:
                        s = coef if m == t_shift and k == 0 else ZERO
                    values.append(s.shift(-nu))
                for k, value in enumerate(values):
                    levels[k][n % width] = value
                total = total + values[-1]
            if total:
                coeffs[n] = total
        return ZetaSeries(order, coeffs)


def zeta_term(coef: LaurentPoly, factors: list[tuple[int, int]], t_shift=0) -> ZetaTerm:
    return ZetaTerm(coef, tuple((int(a), int(b)) for a, b in factors), t_shift)


def zeta_expr(terms: list[ZetaTerm]) -> ZetaExpr:
    return ZetaExpr(terms=tuple(terms))
