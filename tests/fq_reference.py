"""F_q point counts of piece descriptions, a test reference for beta.

beta is defined by additivity over arc-symmetric pieces, not by counting
points; but for the atoms below, the number of F_q points of the obvious
model of a description is beta evaluated at q, so counting at a few q and
interpolating gives an independent check on the symbolic values.

The count equals beta(q) exactly when

* every atom is polynomial-count: affine spaces, tori, punctured affine
  spaces, point sets, projective spaces, and custom pieces whose count rule
  (given in ``counts``, by piece name) is their beta;
* every sphere has dimension at most 1 and q = 3 (mod 4).  Spheres are
  counted from the genuine quadric x^2 + y^2 = 1 (or x^2 = 1), and at
  q = 3 (mod 4) x^2 + y^2 = 0 forces x = y = 0, so the count matches the
  real constructible structure; higher spheres have no uniform count
  matching beta and are refused;
* q is prime: arithmetic is carried out in Z/q, which is the field F_q only
  then (the rule of :mod:`arczeta.oracle`), so other q are refused.

Also here: :func:`expr_dim`, the dimension read off a description, and
:func:`expand_term`, one geometric factor of a zeta term as a whole series.
"""

from __future__ import annotations

from fractions import Fraction

from arczeta._value import frozen
from arczeta.errors import UnsupportedComputationError
from arczeta.oracle import _least_factor
from arczeta.ring import LaurentPoly, ZetaSeries, format_poly
from arczeta.vpoly import (
    Affine,
    Custom,
    Difference,
    DisjointUnion,
    PieceExpr,
    Points,
    Product,
    ProjSpace,
    PuncturedAffine,
    Sphere,
    Torus,
    beta_expr,
)


def expr_dim(e: PieceExpr) -> int:
    """Dimension read off the structure of the description (-1 for empty)."""
    if isinstance(e, DisjointUnion):
        dims = [expr_dim(p) for p in e.parts]
        return max(dims, default=-1)
    if isinstance(e, Product):
        dims = [expr_dim(p) for p in e.parts]
        if any(d < 0 for d in dims):
            return -1
        return sum(dims)
    if isinstance(e, Difference):
        return expr_dim(e.whole)
    if isinstance(e, Affine):
        return e.m
    if isinstance(e, Torus):
        return e.k
    if isinstance(e, PuncturedAffine):
        return e.m if e.m >= 1 else -1
    if isinstance(e, Points):
        return 0 if e.c >= 1 else -1
    if isinstance(e, ProjSpace):
        return e.k
    if isinstance(e, Sphere):
        return e.k
    if isinstance(e, Custom):
        return e.dim if e.beta else -1
    raise TypeError(f"not a piece expression: {e!r}")


def _count_circle(q: int) -> int:
    # honest enumeration of x^2 + y^2 = 1 over F_q
    squares = [x * x % q for x in range(q)]
    return sum(1 for x in range(q) for y in range(q) if (squares[x] + squares[y]) % q == 1)


def count_points(
    e: PieceExpr, q: int, counts: dict[str, LaurentPoly] | None = None
) -> int:
    """Number of F_q points of the piece description, for prime q.

    ``counts`` maps a custom piece's name to its count rule, a polynomial
    evaluated at q; a custom piece without one is refused.
    """
    if not isinstance(q, int) or q < 2 or _least_factor(q) != q:
        raise ValueError(f"q must be a prime, got {q!r}")
    if isinstance(e, DisjointUnion):
        return sum(count_points(p, q, counts) for p in e.parts)
    if isinstance(e, Product):
        total = 1
        for p in e.parts:
            total *= count_points(p, q, counts)
        return total
    if isinstance(e, Difference):
        return count_points(e.whole, q, counts) - count_points(e.part, q, counts)
    if isinstance(e, Affine):
        return q**e.m
    if isinstance(e, Torus):
        return (q - 1) ** e.k
    if isinstance(e, PuncturedAffine):
        return q**e.m - 1
    if isinstance(e, Points):
        return e.c
    if isinstance(e, ProjSpace):
        return sum(q**i for i in range(e.k + 1))
    if isinstance(e, Sphere):
        if q % 4 != 3:
            raise UnsupportedComputationError(
                f"sphere counting requires q = 3 mod 4, got q = {q}"
            )
        if e.k == 0:
            return sum(1 for x in range(q) if x * x % q == 1)
        if e.k == 1:
            return _count_circle(q)
        raise UnsupportedComputationError(
            f"no uniform F_q count matches beta for Sphere({e.k}); "
            "only k <= 1 is countable"
        )
    if isinstance(e, Custom):
        rule = (counts or {}).get(e.name)
        if rule is None:
            raise UnsupportedComputationError(
                f"custom piece {e.name!r} carries no count rule"
            )
        value = rule.evaluate(q)
        if value.denominator != 1:
            raise UnsupportedComputationError(
                f"count rule of {e.name!r} is not integral at q = {q}"
            )
        return int(value)
    raise TypeError(f"not a piece expression: {e!r}")


def _lagrange_interpolate(points: list[tuple[int, int]]) -> list[Fraction]:
    """Coefficients (ascending) of the interpolating polynomial."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (X - xj), built incrementally
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                new[k] -= b * xj
                new[k + 1] += b
            basis = new
        scale = Fraction(yi) / denom
        for k, b in enumerate(basis):
            coeffs[k] += b * scale
    return coeffs


@frozen
class VerificationResult:
    ok: bool
    witness: LaurentPoly | None
    expected: LaurentPoly
    counts: tuple[tuple[int, int], ...]
    message: str = ""


def verify_polynomial_count(
    e: PieceExpr, qs: list[int], counts: dict[str, LaurentPoly] | None = None
) -> VerificationResult:
    """Interpolate F_q counts to a polynomial in q and compare with beta.

    Needs at least deg(beta) + 1 pairwise distinct primes; ``counts`` is
    passed on to :func:`count_points`.
    """
    if len(set(qs)) != len(qs):
        raise ValueError("q values must be pairwise distinct")
    expected = beta_expr(e)
    needed = (expected.degree if expected else 0) + 1
    if len(qs) < needed:
        raise ValueError(
            f"interpolation degree exceeded: need at least {needed} q values, "
            f"got {len(qs)}"
        )
    pairs = tuple((q, count_points(e, q, counts)) for q in sorted(qs))
    coeffs = _lagrange_interpolate(list(pairs))
    if any(c.denominator != 1 for c in coeffs):
        return VerificationResult(
            ok=False,
            witness=None,
            expected=expected,
            counts=pairs,
            message="counts do not interpolate to an integer polynomial",
        )
    witness = LaurentPoly({i: int(c) for i, c in enumerate(coeffs)})
    if witness == expected:
        return VerificationResult(True, witness, expected, pairs)
    return VerificationResult(
        ok=False,
        witness=witness,
        expected=expected,
        counts=pairs,
        message=f"interpolated {format_poly(witness)} but beta is {format_poly(expected)}",
    )


def expand_term(nu: int, N: int, order: int) -> ZetaSeries:
    """Geometric expansion of u^-nu T^N / (1 - u^-nu T^N) to the given order.

    The T^n coefficient is u^(-m*nu) when n = m*N <= order and zero otherwise.
    """
    if nu < 1 or N < 1:
        raise ValueError("factor parameters must be positive integers")
    if order < 1:
        raise ValueError("truncation order must be a positive integer")
    coeffs = {}
    m = 1
    while m * N <= order:
        coeffs[m * N] = LaurentPoly.u_power(-m * nu)
        m += 1
    return ZetaSeries(order, coeffs)
