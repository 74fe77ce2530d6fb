"""The one-pass series kernels against their per-order references.

``zeta_direct`` sweeps n once; the reference here sums the
:func:`jet_strata` contributions order by order, the loop ``zeta_direct``
itself ran before.  ``ZetaExpr.expand`` streams coefficients; its reference
multiplies whole ``expand_term`` series with ``ZetaSeries.__mul__``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta import (
    MonomialGerm,
    UnsupportedGermError,
    germ_to_str,
    jet_strata,
    parse_germ,
    zeta_direct,
)
from arczeta.ring import ZERO, LaurentPoly, ZetaSeries, zeta_expr, zeta_term

from fq_reference import expand_term

VARIANTS = ("naive", "plus", "minus")


def per_order_series(g, order, variant):
    """sum(beta_n * u^(-n*d) * T^n), each beta_n summed from its own strata."""
    coeffs = {}
    for n in range(1, order + 1):
        total = ZERO
        for st_ in jet_strata(g, n, variant):
            total = total + st_.contribution
        if total:
            coeffs[n] = total.shift(-n * g.dim)
    return ZetaSeries(order, coeffs)


def product_series(expr, order):
    """Each term as the product of its truncated geometric factor series."""
    total = ZetaSeries(order)
    for term in expr.terms:
        prod = None
        for nu, N in term.factors:
            factor = expand_term(nu, N, order)
            prod = factor if prod is None else prod * factor
        total = total + prod.scale(term.coef)
    return total


def _lcm(exps):
    return math.lcm(*[e for e in exps if e > 0])


def _signed(p, q, e1, e2):
    return f"{'-' if e1 < 0 else ''}x^{p}{'-' if e2 < 0 else '+'}y^{q}"


ONE_VARIABLE = [f"{s}x^{p}" for p in range(1, 10) for s in ("", "-")]
CENSUS = [
    _signed(p, q, e1, e2)
    for p in range(2, 10)
    for q in range(p, 10)
    for e1 in (1, -1)
    for e2 in (1, -1)
]
THREE_VARIABLES = [
    "x^2+y^2+z^2", "-x^2-y^2-z^2", "x^2+y^4+z^4", "-x^2-y^4-z^6", "x^4+y^4+z^6",
    "x^2+y^4+z^6", "x^2+y^6+z^6", "x^4+y^12+z^12", "x^2+y^2+z^4", "-x^4-y^6-z^6",
]
MONOMIALS = [
    "x^2*y^3", "-x^2*y^2", "x^3*y^5", "x^4*y^6", "x^1*y^1", "x^2*y^0", "-x^1*y^2",
    "x^2*y^3*z^4", "x^2*y^2*z^5", "-x^3*y^4*z^5", "x^2*y^4*z^4", "x^1*y^1*z^1",
    "x^2*y^0*z^3",
]


def _germs(texts):
    return [parse_germ(t) for t in texts]


ALL_SUPPORTED = (
    _germs(ONE_VARIABLE + CENSUS + THREE_VARIABLES + MONOMIALS)
    + [MonomialGerm((p,), s) for p in (1, 2, 3, 4, 6) for s in (1, -1)]
)


@pytest.mark.parametrize("g", ALL_SUPPORTED, ids=germ_to_str)
def test_sweep_matches_per_order_strata(g):
    order = 3 * _lcm(g.exponents)
    for variant in VARIANTS:
        assert zeta_direct(g, order, variant) == per_order_series(g, order, variant), (
            variant
        )


@pytest.mark.parametrize("g", _germs(CENSUS[:8] + MONOMIALS[:4]), ids=germ_to_str)
def test_every_prefix_order_agrees(g):
    # the sweep must not depend on where the series is cut
    full = zeta_direct(g, 40, "naive")
    for order in (1, 2, 3, 7, 39):
        assert zeta_direct(g, order, "naive") == full.truncate(order)


INDEFINITE_TIES = [
    "x^3-y^3+z^3", "x^3+y^3+z^3", "x^2+y^2-z^2", "x^2+y^2-z^4", "x^2-y^4+z^6",
    "-x^2+y^3+z^6", "x^2+y^4-z^4", "x^2-y^4+z^8", "x^3-y^4+z^5",
]


def _first_error(g, order, variant):
    try:
        per_order_series(g, order, variant)
    except UnsupportedGermError as exc:
        return str(exc), exc.n
    return None


@pytest.mark.parametrize("g", _germs(INDEFINITE_TIES), ids=germ_to_str)
def test_indefinite_three_way_tie_raises_when_reached(g):
    first = _lcm(g.exponents)  # the first level where all three terms tie
    for variant in VARIANTS:
        below = first - 1
        assert zeta_direct(g, below, variant) == per_order_series(g, below, variant)
        expected = _first_error(g, first, variant)
        assert expected == (f"indefinite three-way tie at T^{first}", first)
        for order in (first, first + 1, 3 * first):
            with pytest.raises(UnsupportedGermError) as exc:
                zeta_direct(g, order, variant)
            assert (str(exc.value), exc.value.n) == expected


def test_unknown_variant_and_non_germ_rejected():
    with pytest.raises(ValueError):
        zeta_direct(parse_germ("x^2"), 4, "both")
    with pytest.raises(TypeError):
        zeta_direct("x^2", 4)


small_coefs = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-5, max_value=5),
    min_size=1,
    max_size=4,
).map(LaurentPoly)

factor_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(small_coefs, factor_lists), max_size=4),
    st.integers(min_value=1, max_value=30),
)
def test_streaming_expand_equals_product_of_factor_series(raw_terms, order):
    expr = zeta_expr([zeta_term(c, fs) for c, fs in raw_terms])
    assert expr.expand(order) == product_series(expr, order)
