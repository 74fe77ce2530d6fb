"""The F_q jet counts against pure-Python enumeration of every jet.

``brute_force_diagonal_jets`` and ``brute_force_monomial_jets`` compose the
germ with each of the q^(d*n) jets by plain multiplication, so they share
no shortcut with the oracle: not the prefix weights, the unit scaling nor
the marginal sums.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta import (
    DiagonalGerm,
    MonomialGerm,
    count_jets_with_order,
    germ_to_str,
    parse_germ,
)

from conftest import brute_force_diagonal_jets, brute_force_monomial_jets

QS = (2, 3, 5)


def small_orders(d, q, size=729):
    """The orders n >= 1 whose jet space q^(d*n) stays within size."""
    return [n for n in range(1, 12) if q ** (d * n) <= size]


def jet_spaces(d):
    return [(n, q) for q in QS for n in small_orders(d, q)]


DIAGONAL = [
    tuple(zip(signs, exps))
    for exps in [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3),
                 (1, 1, 1), (1, 2, 2), (2, 2, 2)]
    for signs in itertools.product((1, -1), repeat=len(exps))
]


@pytest.mark.parametrize("terms", DIAGONAL, ids=lambda t: germ_to_str(DiagonalGerm(t)))
def test_diagonal_counts_match_brute_force(terms):
    germ = DiagonalGerm(terms=terms)
    for n, q in jet_spaces(germ.dim):
        brute = brute_force_diagonal_jets(germ.terms, n, q)
        assert count_jets_with_order(germ, n, q) == brute, (n, q)


MONOMIAL = [(1,), (2,), (3,), (1, 1), (2, 1), (0, 2), (2, 3), (1, 1, 1), (1, 0, 2)]


@pytest.mark.parametrize("exponents", MONOMIAL, ids=str)
def test_monomial_counts_match_brute_force(exponents):
    for n, q in jet_spaces(len(exponents)):
        brute = brute_force_monomial_jets(exponents, n, q)
        for unit_sign in (1, -1):
            germ = MonomialGerm(exponents=exponents, unit_sign=unit_sign)
            assert count_jets_with_order(germ, n, q) == brute, (n, q, unit_sign)


@st.composite
def germ_jet_spaces(draw):
    d = draw(st.integers(1, 3))
    q = draw(st.sampled_from(QS))
    n = draw(st.sampled_from(small_orders(d, q, size=512)))
    if draw(st.booleans()):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(d))
        if not any(exps):
            exps = (1, *exps[1:])
        return MonomialGerm(exponents=exps, unit_sign=draw(st.sampled_from((1, -1)))), n, q
    terms = tuple(
        (draw(st.sampled_from((1, -1))), draw(st.integers(1, 4))) for _ in range(d)
    )
    return DiagonalGerm(terms=terms), n, q


@settings(max_examples=60, deadline=None)
@given(germ_jet_spaces())
def test_counts_match_brute_force_property(case):
    germ, n, q = case
    if isinstance(germ, MonomialGerm):
        brute = brute_force_monomial_jets(germ.exponents, n, q)
    else:
        brute = brute_force_diagonal_jets(germ.terms, n, q)
    assert count_jets_with_order(germ, n, q) == brute


# one-variable shapes at the jet-space cap, where a full enumeration of the
# q^n jets was slow and large
CAP_SHAPES = [("x^2", 14, 3), ("x^2", 2, 2999), ("x^1", 1, 9999991)]


@pytest.mark.parametrize("text, n, q", CAP_SHAPES)
def test_cap_shapes_count_in_little_memory(text, n, q):
    germ = parse_germ(text)
    tracemalloc.start()
    try:
        count = count_jets_with_order(germ, n, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # ord(gamma^p) = n exactly when a_(n/p) is the first nonzero coefficient
    p = germ.terms[0][1]
    assert count == (q - 1) * q ** (n - n // p)
    assert peak < 1_000_000
