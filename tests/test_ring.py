"""Laurent polynomial and truncated series arithmetic."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arczeta.errors import InputError, RingBoundError, UnsupportedComputationError
from arczeta.ring import (
    ONE,
    U,
    ZERO,
    LaurentPoly,
    ZetaSeries,
    format_poly,
    format_series,
    parse_poly,
    zeta_expr,
    zeta_term,
)

from conftest import poly
from fq_reference import expand_term


class TestLaurentPoly:
    def test_product_of_conjugates(self):
        assert poly("u-1") * poly("u+1") == poly("u^2-1")

    def test_additive_inverse(self):
        assert poly("u^2") + poly("-u^2") == ZERO

    def test_self_subtraction(self):
        p = poly("u^3-1")
        assert p - p == ZERO
        assert not (p - p)

    def test_canonical_no_zero_terms(self):
        assert LaurentPoly({2: 0, 1: 3}).terms == {1: 3}

    def test_degree_bounds(self):
        p = poly("u^2-u^-3")
        assert p.degree == 2
        assert p.low_degree == -3
        with pytest.raises(ValueError):
            _ = ZERO.degree

    def test_pow_and_shift(self):
        assert (U - ONE) ** 3 == poly("u^3-3*u^2+3*u-1")
        assert poly("u-1").shift(-2) == poly("u^-1-u^-2")

    def test_eval_examples(self):
        assert poly("u^3-1").evaluate(3) == 26
        assert poly("u-1").evaluate(1) == 0
        assert poly("2*u-1").evaluate(-1) == -3
        assert poly("u^-2").evaluate(Fraction(1, 2)) == 4

    def test_eval_at_zero_with_negative_exponent_is_domain_error(self):
        with pytest.raises(ValueError):
            poly("u^-1+1").evaluate(0)
        assert poly("u^2+1").evaluate(0) == 1

    def test_format_grammar_samples(self):
        assert format_poly(poly("u^2-1")) == "u^2-1"
        assert format_poly(poly("2*u-1")) == "2*u-1"
        assert format_poly(poly("u^-3")) == "u^-3"
        assert format_poly(ZERO) == "0"
        assert format_poly(poly("-u+3")) == "-u+3"

    def test_parse_rejects_garbage(self):
        for bad in ["", "u^", "2**u", "u^2^3", "x+1", "+"]:
            with pytest.raises(InputError):
                parse_poly(bad)

    def test_parse_optional_star_and_spaces(self):
        assert parse_poly("2u^3 - 1") == poly("2*u^3-1")


small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


class TestRingLaws:
    @settings(max_examples=1000, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO

    @settings(max_examples=300, deadline=None)
    @given(small_polys, small_polys, st.sampled_from([2, 3, -1, 5, Fraction(1, 3)]))
    def test_evaluation_is_a_ring_homomorphism(self, a, b, q):
        assert (a * b).evaluate(q) == a.evaluate(q) * b.evaluate(q)
        assert (a + b).evaluate(q) == a.evaluate(q) + b.evaluate(q)

    @settings(max_examples=500, deadline=None)
    @given(small_polys)
    def test_text_round_trip(self, a):
        assert parse_poly(format_poly(a)) == a


# parse_poly as it was before the one-pass grammar: split before every sign
# not after '^', then match each whole piece (\Z: no final newline) against
# the term pattern
_SPLIT_TERM_RE = re.compile(r"^([+-]?)(?:(\d+)\*?)?(u(?:\^(-?\d+))?)?\Z")
_SPLIT_RE = re.compile(r"(?<!\^)(?=[+-])")


def _split_parse_poly(text):
    if not isinstance(text, str):
        raise InputError(f"a polynomial must be a string, got {text!r}")
    s = text.replace(" ", "")
    if not s:
        raise InputError("empty polynomial string")
    if s == "0":
        return ZERO
    pieces = _SPLIT_RE.split(s)
    if not pieces[0]:
        del pieces[0]
    terms = {}
    for piece in pieces:
        m = _SPLIT_TERM_RE.match(piece)
        if not m:
            raise InputError(f"bad term {piece!r} in polynomial {text!r}")
        sign, digits, upart, exponent = m.groups()
        if digits is None and upart is None:
            raise InputError(f"bad term {piece!r} in polynomial {text!r}")
        coeff = int(digits) if digits is not None else 1
        if upart is None:
            expo = 0
        elif exponent is None:
            expo = 1
        else:
            expo = int(exponent)
        terms[expo] = terms.get(expo, 0) + (-coeff if sign == "-" else coeff)
    return LaurentPoly(terms)


def _outcome(parse, text):
    try:
        return parse(text)
    except (InputError, RingBoundError) as exc:
        return type(exc), str(exc)


poly_texts = st.one_of(
    st.text(alphabet="0123456789u^+-* \n", max_size=16),
    st.lists(st.sampled_from(["u", "^", "-", "+", "*", " ", "\n", "0", "1", "2",
                              "12", "u^-3", "3000000"]), max_size=10).map("".join),
)


class TestParseGrammar:
    @settings(max_examples=1500, deadline=None)
    @given(poly_texts)
    @example("u^3000000-u^3000000+1")  # past the span bound until cancelled
    @example("0*u^-9999999999+u")
    @example("u^-3000000000")
    @example("u\n+1")  # a newline ends no term: both parsers reject it
    @example("u\n\n")
    @example("2*")
    @example("-0")
    def test_same_as_the_split_parser(self, text):
        assert _outcome(parse_poly, text) == _outcome(_split_parse_poly, text)


# format_poly as it was before the one-pass term writer: a sign and an abs()
# body per term, joined, with a leading '+' stripped
def _branchy_format_poly(p):
    cs, low = p._coeffs, p._low
    if not cs:
        return "0"
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if not c:
            continue
        e = low + i
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            upart = "u" if e == 1 else f"u^{e}"
            body = upart if mag == 1 else f"{mag}*{upart}"
        parts.append(sign + body)
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


# the largest magnitude str() prints by default has 4300 digits
_LONGEST = 10**4300 - 1
format_coeffs = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(min_value=-10**12, max_value=10**12),
    st.builds(lambda k, s: s * (_LONGEST - k), st.integers(0, 10**6),
              st.sampled_from([1, -1])),
)
# exponents near -1, 0 and 1, where the writer branches, and away from them
format_polys = st.dictionaries(
    st.one_of(st.integers(min_value=-3, max_value=3),
              st.integers(min_value=-60, max_value=60)),
    format_coeffs,
    max_size=8,
).map(LaurentPoly)


class TestFormat:
    @settings(max_examples=500, deadline=None)
    @given(format_polys)
    @example(LaurentPoly({1: 1, 0: -1, -1: 1}))
    @example(LaurentPoly({1: -1, 0: 1, -1: -1}))
    @example(LaurentPoly({1: -_LONGEST, 0: _LONGEST}))
    def test_same_as_the_branchy_formatter(self, p):
        assert format_poly(p) == _branchy_format_poly(p)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(min_value=1, max_value=12),
                           format_polys.filter(bool), max_size=6))
    def test_series_bodies_match_the_branchy_formatter(self, coeffs):
        z = ZetaSeries(12, coeffs)
        parts = []
        for n in z.support():
            c = z.coeff(n)
            low = c.low_degree
            suffix = "" if low == 0 else "*u" if low == 1 else f"*u^{low}"
            parts.append(f"({_branchy_format_poly(c.shift(-low))}){suffix}*T^{n}")
        assert format_series(z) == (" + ".join(parts) or "0")
        assert z.to_json_dict()["terms"] == [
            {"n": n, "coeff": _branchy_format_poly(z.coeff(n))} for n in z.support()
        ]

    @pytest.mark.parametrize("value", [_LONGEST + 1, -_LONGEST - 1],
                             ids=["positive", "negative"])
    def test_a_coefficient_too_long_to_print_is_a_bound_error(self, value):
        p = LaurentPoly({3: 1, 0: value})
        with pytest.raises(RingBoundError, match="more than 4300 digits cannot"):
            format_poly(p)
        with pytest.raises(RingBoundError):
            format_series(ZetaSeries(2, {2: p}))


def _sparse(p):
    return {e: c for e, c in p.terms.items()}


def _sparse_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _sparse_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


wide_polys = st.dictionaries(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-3, max_value=3),
    max_size=8,
).map(LaurentPoly)


class TestDenseStore:
    """The dense tuple store against exponent -> coefficient dictionaries."""

    @settings(max_examples=400, deadline=None)
    @given(wide_polys, wide_polys, st.integers(min_value=-50, max_value=50))
    def test_operations_match_sparse_reference(self, a, b, k):
        sa, sb = _sparse(a), _sparse(b)
        assert (a + b).terms == _sparse_add(sa, sb)
        assert (a - b).terms == _sparse_add(sa, {e: -c for e, c in sb.items()})
        assert (a * b).terms == _sparse_mul(sa, sb)
        assert (a * k).terms == {e: c * k for e, c in sa.items() if c * k}
        assert a.shift(k).terms == {e + k: c for e, c in sa.items()}
        assert list(a.items()) == sorted(sa.items(), reverse=True)
        for e in range(-45, 46):
            assert a.coeff(e) == sa.get(e, 0)

    @settings(max_examples=500, deadline=None)
    @given(wide_polys, wide_polys)
    def test_canonical_form_makes_equal_values_identical(self, a, b):
        c = (a + b) - b
        assert c == a and hash(c) == hash(a)
        assert (c._low, c._coeffs) == (a._low, a._coeffs)
        if a:
            assert a._coeffs[0] and a._coeffs[-1]
            assert (a.low_degree, a.degree) == (min(a.terms), max(a.terms))
        else:
            assert (a._low, a._coeffs) == (0, ())

    def test_shift_shares_the_coefficients(self):
        p = poly("u^3-2*u+1")
        assert p.shift(-7)._coeffs is p._coeffs
        assert p.shift(-7) == poly("u^-4-2*u^-6+u^-7")

    def test_integer_comparison(self):
        assert LaurentPoly.const(3) == 3 and ZERO == 0
        assert poly("3*u") != 3 and ONE != 0


class TestStorageBounds:
    def test_one_error_type_for_both_bounds(self):
        assert issubclass(RingBoundError, UnsupportedComputationError)
        with pytest.raises(RingBoundError, match="u-exponent"):
            LaurentPoly({2**31 + 1: 1})
        with pytest.raises(RingBoundError, match="bound of 1048576 coefficients"):
            LaurentPoly({-(10**9): 1, 0: 1})
        assert LaurentPoly({2**31: 1, 2**31 - 5: 2}).degree == 2**31

    def test_operations_check_before_building(self):
        wide = LaurentPoly({0: 1, 2**19: 1})
        with pytest.raises(RingBoundError):
            wide * wide  # would span 2^20 + 1 slots
        with pytest.raises(RingBoundError):
            wide + wide.shift(2**19 + 1)
        with pytest.raises(RingBoundError, match="u-exponent"):
            U.shift(2**31)
        with pytest.raises(RingBoundError):
            parse_poly("u^-1000000000+1")


class TestZetaSeries:
    def test_expand_term_examples(self):
        z = expand_term(1, 2, 5)
        assert z.coeff(2) == poly("u^-1")
        assert z.coeff(4) == poly("u^-2")
        assert z.support() == (2, 4)
        assert expand_term(2, 3, 3) == ZetaSeries(3, {3: poly("u^-2")})
        assert expand_term(2, 7, 6).is_zero()

    def test_expand_term_validation(self):
        with pytest.raises(ValueError):
            expand_term(0, 2, 5)
        with pytest.raises(ValueError):
            expand_term(1, 2, 0)

    def test_single_surviving_cross_term(self):
        a = ZetaSeries(6, {2: poly("u^-2"), 4: poly("u^-4")})
        b = ZetaSeries(6, {4: poly("u^-3")})
        assert a * b == ZetaSeries(6, {6: poly("u^-5")})

    def test_scale(self):
        a = ZetaSeries(6, {2: poly("u^-1")})
        assert a.scale(poly("u-1")) == ZetaSeries(6, {2: poly("1-u^-1")})

    def test_add_identity(self):
        a = ZetaSeries(6, {2: poly("u^-1")})
        assert a + ZetaSeries(6) == a

    def test_mismatched_orders_truncate_to_minimum(self):
        a = ZetaSeries(10, {2: ONE, 9: ONE})
        b = ZetaSeries(5, {3: ONE})
        assert (a + b).order == 5
        assert (a + b).support() == (2, 3)
        assert (a * b).order == 5
        assert (a * b).support() == (5,)

    def test_no_constant_term(self):
        with pytest.raises(ValueError):
            ZetaSeries(5, {0: ONE})

    def test_coeff_beyond_truncation(self):
        with pytest.raises(ValueError):
            ZetaSeries(5).coeff(6)

    def test_series_text_form(self):
        z = zeta_expr([zeta_term(U - ONE, [(1, 3)])]).expand(9)
        assert (
            format_series(z)
            == "(u-1)*u^-1*T^3 + (u-1)*u^-2*T^6 + (u-1)*u^-3*T^9"
        )
        assert format_series(ZetaSeries(4)) == "0"

    def test_series_json_round_trip(self):
        z = zeta_expr([zeta_term(U - ONE, [(2, 2)])]).expand(8)
        assert ZetaSeries.from_json_dict(z.to_json_dict()) == z


class TestZetaExpr:
    def test_simpl_expansion(self):
        # single term (u-1) * u^-1 T^k/(1 - u^-1 T^k) at k = 2
        e = zeta_expr([zeta_term(U - ONE, [(1, 2)])])
        z = e.expand(6)
        assert z == ZetaSeries(
            6,
            {
                2: poly("1-u^-1"),
                4: poly("u^-1-u^-2"),
                6: poly("u^-2-u^-3"),
            },
        )

    def test_empty_expr_is_zero(self):
        assert zeta_expr([]).expand(5).is_zero()

    def test_even_plane_curve_form(self):
        e = zeta_expr([zeta_term(poly("u^2-1"), [(2, 2)])])
        z = e.expand(4)
        assert z.coeff(2) == poly("u^2-1") * poly("u^-2")
        assert z.coeff(4) == poly("u^2-1") * poly("u^-4")

    def test_factor_free_term_rejected(self):
        with pytest.raises(ValueError):
            zeta_term(ONE, [])

    @pytest.mark.parametrize("shift", [1, -5, -6])
    def test_shift_bounds(self, shift):
        # positive, or leaving the lowest power of T at T^0 or below
        with pytest.raises(ValueError):
            zeta_term(ONE, [(1, 2), (1, 3)], shift)

    def test_shifted_expansion(self):
        # T^-4 * F(1, 1) * F(2, 5) is the unshifted term moved down by four;
        # its first partial product is nonzero from T^-3 on
        factors = [(1, 1), (2, 5)]
        other = zeta_term(U, [(1, 3)])
        shifted = zeta_expr([zeta_term(U - ONE, factors, -4), other]).expand(20)
        plain = zeta_expr([zeta_term(U - ONE, factors)]).expand(24)
        moved = {n - 4: plain.coeff(n) for n in range(5, 25)}
        assert shifted == ZetaSeries(20, moved) + zeta_expr([other]).expand(20)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                small_polys,
                st.lists(
                    st.tuples(
                        st.integers(min_value=1, max_value=4),
                        st.integers(min_value=1, max_value=5),
                    ),
                    min_size=1,
                    max_size=3,
                ),
            ),
            max_size=3,
        ),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
    )
    def test_truncation_prefix_property(self, raw_terms, m, big):
        big = max(m, big)
        e = zeta_expr([zeta_term(c, fs) for c, fs in raw_terms])
        assert e.expand(big).truncate(m) == e.expand(m)
