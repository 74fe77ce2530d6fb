"""Resolution-data evaluation, closed forms, convolution, comparison."""

import itertools
import math
import tracemalloc

import pytest

from arczeta import (
    Component,
    DiagonalGerm,
    Distinguished,
    MonomialGerm,
    NotDistinguished,
    ResolutionDatum,
    UnsupportedGermError,
    closed_form,
    compare_invariants,
    dl_naive,
    dl_sign,
    germ_invariants,
    germ_to_str,
    parse_germ,
    resolution_from_json,
    ts_convolve,
    zeta_direct,
    zeta_expr,
    zeta_term,
)
from arczeta.errors import InputError
from arczeta.ring import ONE, U, ZetaSeries

from conftest import (
    datum_f_pk,
    datum_monomial_plane,
    datum_plane_curve_signed,
    datum_plane_curve_xkyk,
    datum_x2_y2,
    datum_x2_y4,
    poly,
    stratum,
)


class TestResolutionDatum:
    def test_unknown_component_rejected(self):
        with pytest.raises(InputError):
            resolution_from_json(
                {
                    "dimension": 2,
                    "components": [{"id": "E1", "N": 2, "nu": 2, "over_origin": True}],
                    "strata": [{"I": ["E9"], "beta0": "u"}],
                }
            )

    def test_multiplicities_positive(self):
        with pytest.raises(ValueError):
            Component("E1", N=0, nu=1, over_origin=True)

    def test_needs_component_over_origin(self):
        with pytest.raises(ValueError):
            ResolutionDatum(
                dimension=2,
                components=(Component("E1", N=1, nu=1, over_origin=False),),
                strata=(),
            )

    def test_stratum_dimension_bound(self):
        with pytest.raises(ValueError):
            ResolutionDatum(
                dimension=2,
                components=(Component("E1", N=1, nu=1, over_origin=True),),
                strata=(stratum(["E1"], beta0="u^2"),),
            )

    def test_missing_strata_mean_zero(self):
        datum = ResolutionDatum(
            dimension=2,
            components=(Component("E1", N=2, nu=2, over_origin=True),),
            strata=(),
        )
        assert dl_naive(datum, 10).is_zero()


class TestDLNaive:
    def test_blowup_of_sum_of_squares(self):
        z = dl_naive(datum_x2_y2(), 12)
        e = zeta_expr([zeta_term(poly("u^2-1"), [(2, 2)])])
        assert z == e.expand(12)

    def test_odd_plane_curve_two_term_form(self):
        k = 5
        z = dl_naive(datum_plane_curve_xkyk(k), 30)
        e = zeta_expr(
            [
                zeta_term(poly("u^2-u"), [(2, k)]),
                zeta_term(poly("u^2-2*u+1"), [(2, k), (1, 1)]),
            ]
        )
        assert z == e.expand(30)

    def test_x2_y4_three_term_form(self):
        z = dl_naive(datum_x2_y4(), 24)
        e = zeta_expr(
            [
                zeta_term((U - ONE) ** 2, [(2, 2), (3, 4)]),
                zeta_term((U - ONE) * U, [(2, 2)]),
                zeta_term((U - ONE) * U, [(3, 4)]),
            ]
        )
        assert z == e.expand(24)

    def test_agrees_with_direct_route(self):
        pairs = [
            (datum_plane_curve_xkyk(2), "x^2+y^2"),
            (datum_plane_curve_xkyk(3), "x^3+y^3"),
            (datum_plane_curve_xkyk(6), "x^6+y^6"),
            (datum_x2_y4(), "x^2+y^4"),
            (datum_f_pk(2, 2), "x^2+y^4+z^4"),
            (datum_f_pk(2, 3), "x^2+y^6+z^6"),
            (datum_f_pk(4, 1), "x^4+y^4+z^4"),
        ]
        for datum, text in pairs:
            assert dl_naive(datum, 25) == zeta_direct(parse_germ(text), 25), text

    def test_all_variants_agree_with_direct_on_the_germ_families(self):
        # both routes, naive and both signs, over x^k +- y^k and monomials
        for k in range(2, 8):
            for e2 in (1, -1):
                germ = parse_germ(f"x^{k}{'+' if e2 == 1 else '-'}y^{k}")
                datum = datum_plane_curve_signed(k, e2)
                assert dl_naive(datum, 30) == zeta_direct(germ, 30)
                for sgn, variant in [(1, "plus"), (-1, "minus")]:
                    assert dl_sign(datum, sgn, 30) == zeta_direct(
                        germ, 30, variant
                    ), (k, e2, variant)
        for a, b in [(1, 1), (2, 3), (2, 4), (1, 4), (3, 3)]:
            germ = parse_germ(f"x^{a}*y^{b}")
            datum = datum_monomial_plane(a, b)
            assert dl_naive(datum, 24) == zeta_direct(germ, 24)
            for sgn, variant in [(1, "plus"), (-1, "minus")]:
                assert dl_sign(datum, sgn, 24) == zeta_direct(germ, 24, variant)

    def test_example_coefficients_have_nonpositive_top_degree(self):
        data = [
            datum_plane_curve_xkyk(2),
            datum_plane_curve_xkyk(5),
            datum_x2_y4(),
            datum_f_pk(2, 2),
            datum_f_pk(4, 3),
        ]
        for datum in data:
            z = dl_naive(datum, 25)
            for n in z.support():
                assert z.coeff(n).degree <= 0

    def test_monomial_is_its_own_resolution(self):
        datum = ResolutionDatum(
            dimension=2,
            components=(
                Component("D1", N=2, nu=1, over_origin=True),
                Component("D2", N=3, nu=1, over_origin=True),
            ),
            strata=(stratum(["D1", "D2"], beta0="1"),),
        )
        assert dl_naive(datum, 20) == zeta_direct(parse_germ("x^2*y^3"), 20)


class TestDLSign:
    def test_positive_quadric(self):
        z = dl_sign(datum_x2_y2(), 1, 20)
        assert z == zeta_expr([zeta_term(poly("u+1"), [(2, 2)])]).expand(20)
        assert dl_sign(datum_x2_y2(), -1, 20).is_zero()

    def test_x2_y4_sign_agrees_with_direct(self):
        datum = datum_x2_y4()
        g = parse_germ("x^2+y^4")
        assert dl_sign(datum, 1, 24) == zeta_direct(g, 24, "plus")
        assert dl_sign(datum, -1, 24).is_zero()
        assert zeta_direct(g, 24, "minus").is_zero()

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            dl_sign(datum_x2_y2(), 0, 10)


class TestExpansionMemory:
    """Streaming expansion holds a few factor values per level, not whole
    product series: the peak follows the size of the result."""

    @staticmethod
    def _peak_mb(datum, order):
        dl_naive(datum, 8)  # first-use allocations stay out of the figure
        tracemalloc.start()
        try:
            dl_naive(datum, order)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_two_component_chain(self):
        assert self._peak_mb(datum_x2_y4(), 1024) < 1.5

    def test_indefinite_curve_with_two_branches(self):
        assert self._peak_mb(datum_plane_curve_signed(4, -1), 512) < 3.0


def _census() -> list:
    """+-x^p and +-x^p +- y^q for 1 <= p <= q <= 9, eight three-variable
    germs (three of them indefinite) and five monomials."""
    germs = []
    for p in range(1, 10):
        germs += [DiagonalGerm(terms=((e, p),)) for e in (1, -1)]
        germs += [
            DiagonalGerm(terms=((e1, p), (e2, q)))
            for q in range(p, 10)
            for e1 in (1, -1)
            for e2 in (1, -1)
        ]
    germs += [
        parse_germ(text)
        for text in (
            "x^2+y^2+z^2", "x^2+y^4+z^4", "-x^2-y^4-z^6", "x^4+y^4+z^6",
            "x^2-y^2+z^2", "x^3-y^3+z^3", "x^2+y^3+z^5", "x^2-y^4+z^3",
            "x^2*y^3", "-x^2*y^2", "-x^3*y^5", "x^2*y^3*z^4", "x^2*y^0*z^5",
        )
    ]
    return germs


def _form_or_raise(route):
    try:
        return route(), None
    except UnsupportedGermError as exc:
        return None, exc.n


class TestClosedForm:
    def test_census_matches_the_sweep(self):
        # to three periods past the first, every germ's form expands to the
        # series zeta-germ prints, or both routes raise at the same T^n
        mismatched, raised = [], 0
        for g in _census():
            order = 3 * math.lcm(*g.exponents) + 4
            for variant in ("naive", "plus", "minus"):
                form = _form_or_raise(lambda: closed_form(g, variant).expand(order))
                swept = _form_or_raise(lambda: zeta_direct(g, order, variant))
                raised += form[1] is not None
                if form != swept:
                    mismatched.append((germ_to_str(g), variant))
        assert mismatched == []
        assert raised == 12  # x^2-y^2+z^2, x^3-y^3+z^3, x^2-y^4+z^3, per variant

    def test_one_variable_power(self):
        e = closed_form(parse_germ("x^3"))
        assert e.terms == (zeta_term(U - ONE, [(1, 3)]),)
        assert e.expand(30) == zeta_direct(parse_germ("x^3"), 30)

    def test_monomial(self):
        e = closed_form(parse_germ("x^2*y^5"))
        assert e.terms[0].coef == (U - ONE) ** 2
        assert set(e.terms[0].factors) == {(1, 2), (1, 5)}
        assert e.expand(20) == zeta_direct(parse_germ("x^2*y^5"), 20)

    def test_even_pair(self):
        e = closed_form(parse_germ("x^4+y^4"))
        assert e.terms == (zeta_term(poly("u^2-1"), [(2, 4)]),)

    def test_odd_pair(self):
        e = closed_form(parse_germ("x^5+y^5"))
        assert {(t.coef, frozenset(t.factors), t.t_shift) for t in e.terms} == {
            ((U - ONE) * U, frozenset({(2, 5)}), 0),
            ((U - ONE) ** 2, frozenset({(2, 5), (1, 1)}), 0),
        }
        assert e.expand(30) == zeta_direct(parse_germ("x^5+y^5"), 30)

    def test_sign_forms(self):
        assert closed_form(parse_germ("x^4"), "plus").terms[0].coef == poly("2")
        assert closed_form(parse_germ("x^4"), "minus").terms == ()
        assert closed_form(parse_germ("x^3"), "plus").terms[0].coef == ONE
        assert closed_form(parse_germ("x^2+y^2"), "plus").terms[0].coef == poly("u+1")
        assert closed_form(parse_germ("x^2+y^2"), "minus").terms == ()
        assert closed_form(parse_germ("-x^2"), "minus").terms[0].coef == poly("2")

    def test_outside_catalogue(self):
        # unequal exponents and sign forms of definite pairs have forms too;
        # an indefinite three-way tie raises at its first T^n, as the sweep does
        for text, variant in (("x^2+y^4", "naive"), ("x^4+y^4", "plus")):
            g = parse_germ(text)
            assert closed_form(g, variant).expand(40) == zeta_direct(g, 40, variant)
        with pytest.raises(UnsupportedGermError) as info:
            closed_form(parse_germ("x^3-y^3+z^3"))
        assert info.value.n == 3


class TestConvolution:
    def test_squares(self):
        zf = zeta_direct(parse_germ("x^2"), 20)
        c = ts_convolve(zf, zf)
        assert c == zeta_direct(parse_germ("x^2+y^2"), 20)
        for n in range(1, 21):
            if n % 2 == 0:
                assert c.coeff(n) == poly("u^2-1").shift(-n)
            else:
                assert c.coeff(n).is_zero()

    def test_square_and_fourth_power(self):
        c = ts_convolve(
            zeta_direct(parse_germ("x^2"), 20), zeta_direct(parse_germ("x^4"), 20)
        )
        assert c == zeta_direct(parse_germ("x^2+y^4"), 20)
        for m in range(1, 6):
            if 4 * m <= 20:
                assert c.coeff(4 * m) == poly("u^2-1").shift(-3 * m)
            if 4 * m + 2 <= 20:
                assert c.coeff(4 * m + 2) == poly("u-1").shift(-(3 * m + 1))
        assert c.coeff(2) == poly("u-1").shift(-1)

    def test_zero_series(self):
        # with b identically zero, B_n stays 1 and c_n = a_n
        zero = ZetaSeries(10)
        assert ts_convolve(zero, zero).is_zero()
        z = zeta_direct(parse_germ("x^2"), 10)
        assert ts_convolve(z, zero) == z
        assert ts_convolve(zero, z) == z

    def test_mismatched_orders_error(self):
        with pytest.raises(ValueError):
            ts_convolve(ZetaSeries(10), ZetaSeries(12))


class TestCompare:
    def test_family_distinguished_at_first_index(self):
        left = germ_invariants(parse_germ("x^2+y^2+z^2"), 10)
        right = germ_invariants(parse_germ("x^2+y^4+z^4"), 10)
        res = compare_invariants(left, right)
        assert isinstance(res, Distinguished)
        assert res.series == "naive"
        assert res.index == 2
        assert res.left == poly("u^3-1").shift(-3)
        assert res.right == poly("u-1").shift(-1)

    def test_sign_only_difference(self):
        left = germ_invariants(parse_germ("x^3+y^4"), 24)
        right = germ_invariants(parse_germ("x^3-y^4"), 24)
        res = compare_invariants(left, right)
        assert isinstance(res, Distinguished)
        assert res.series in ("plus", "minus") and res.index == 4

    def test_identical(self):
        left = germ_invariants(parse_germ("x^2+y^2"), 10)
        res = compare_invariants(left, left)
        assert res == NotDistinguished(order=10)

    def test_never_claims_equivalence(self):
        # truncating below the first difference reports failure to
        # distinguish, nothing stronger
        left = germ_invariants(parse_germ("x^4+y^4"), 3)
        right = germ_invariants(parse_germ("x^4+y^6"), 3)
        assert compare_invariants(left, right) == NotDistinguished(order=3)

    def test_order_mismatch(self):
        left = germ_invariants(parse_germ("x^2"), 10)
        right = germ_invariants(parse_germ("x^2"), 12)
        with pytest.raises(ValueError):
            compare_invariants(left, right)


def _negation_cases():
    """Every diagonal germ in one to three variables with exponents 1..6
    and every sign pattern, and every two-variable monomial with exponents
    0..3 and either unit sign, each with its negation."""
    cases = []
    for d in (1, 2, 3):
        for exps in itertools.combinations_with_replacement(range(1, 7), d):
            for signs in itertools.product((1, -1), repeat=d):
                cases.append((
                    DiagonalGerm(tuple(zip(signs, exps))),
                    DiagonalGerm(tuple(zip((-s for s in signs), exps))),
                ))
    for exps in itertools.product(range(4), repeat=2):
        if any(exps):
            for sign in (1, -1):
                cases.append((MonomialGerm(exps, sign), MonomialGerm(exps, -sign)))
    return cases


class TestNegation:
    def test_negation_swaps_the_sign_series(self):
        # computed by the sweep itself: -g has the naive series of g, and
        # its plus and minus series are those of g exchanged
        swap = {"naive": "naive", "plus": "minus", "minus": "plus"}
        checked = 0
        for g, negated in _negation_cases():
            try:
                series = {v: zeta_direct(g, 40, v) for v in swap}
            except UnsupportedGermError as exc:
                with pytest.raises(UnsupportedGermError) as neg_exc:
                    zeta_direct(negated, 40, "naive")
                assert neg_exc.value.n == exc.n
                continue
            for v, w in swap.items():
                assert zeta_direct(negated, 40, v) == series[w], (g, v)
            checked += 1
        assert checked == 162

    def test_germ_invariants_reads_the_negation(self):
        g, negated = parse_germ("x^4-y^6"), parse_germ("-x^4+y^6")
        inv, neg = germ_invariants(g, 24), germ_invariants(negated, 24)
        assert (neg.naive, neg.plus, neg.minus) == (inv.naive, inv.minus, inv.plus)
        assert neg.plus == zeta_direct(negated, 24, "plus")

    def test_kept_triples_are_bounded(self):
        from arczeta import zeta

        for order in range(1, 40):
            germ_invariants(parse_germ("x^2+y^3"), order)
        info = zeta._kept_invariants.cache_info()
        assert info.currsize <= info.maxsize == 4


def _reflection_cases():
    """The germs of :func:`_negation_cases`, and every three-variable
    monomial with exponents 0..3 and either unit sign."""
    germs = [g for g, _ in _negation_cases()]
    for exps in itertools.product(range(4), repeat=3):
        if any(exps):
            germs += [MonomialGerm(exps, 1), MonomialGerm(exps, -1)]
    return germs


def _sweeps(g, order=40):
    """The three series zeta_direct sums for g, or the .n it raises with."""
    try:
        return {v: zeta_direct(g, order, v) for v in ("naive", "plus", "minus")}
    except UnsupportedGermError as exc:
        return exc.n


class TestReflection:
    def test_sweep_agrees_with_the_representative(self):
        # computed by zeta_direct itself: the representative germ_invariants
        # reads has the series of g, plus and minus exchanged when it is
        # that of -g, and Z+ == Z- wherever g and -g share it
        from arczeta import zeta

        checked, unforced = 0, set()
        for g in _reflection_cases():
            rep, swapped = zeta._representative(g)
            series, expected = _sweeps(rep), _sweeps(g)
            if isinstance(expected, int):
                assert series == expected, g
                continue
            if swapped:
                expected = {**expected, "plus": expected["minus"],
                            "minus": expected["plus"]}
            assert series == expected, g
            if zeta._moved(g, 1) == zeta._moved(g, -1):
                assert series["plus"] == series["minus"], g
            elif series["plus"] == series["minus"]:
                unforced.add(g.exponents)
            checked += 1
        assert checked == 288
        # a term x^1 makes the germ a coordinate, and x^3 +- y^6 is
        # classify's open case: there Z+ = Z- with no symmetry forcing it
        assert unforced == {(1, 2), (1, 4), (1, 6), (3, 6)}

    @pytest.mark.parametrize("text, symmetric", [
        ("x^3+y^5", True), ("-x^2+y^2", True), ("x^2*y^3", True),
        ("x^2+y^4", False), ("-x^2*y^2", False), ("x^3-y^6", False),
    ])
    def test_a_sign_series_is_swept_once_when_g_and_minus_g_share_it(
            self, text, symmetric):
        inv = germ_invariants(parse_germ(text), 24)
        assert (inv.minus is inv.plus) == symmetric

    def test_a_class_shares_one_kept_triple(self):
        from arczeta import zeta

        zeta._kept_invariants.cache_clear()
        for text in ("x^3+y^5", "x^3-y^5", "-x^3+y^5", "-x^3-y^5"):
            germ_invariants(parse_germ(text), 24)
        info = zeta._kept_invariants.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

    @pytest.mark.parametrize("left, right", [
        ("x^2*y^3", "x^3*y^2"), ("x^2*y^4", "-x^4*y^2"),
        ("x^1*y^2*z^3", "x^3*y^1*z^2"),
    ])
    def test_permuted_monomials_share_one_kept_triple(self, left, right):
        from arczeta import zeta

        zeta._kept_invariants.cache_clear()
        triples = [germ_invariants(parse_germ(text), 24) for text in (left, right)]
        info = zeta._kept_invariants.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        swept = [_sweeps(parse_germ(text), 24) for text in (left, right)]
        for inv, series in zip(triples, swept):
            assert (inv.naive, inv.plus, inv.minus) == tuple(series.values())

    @pytest.mark.parametrize("order", [104, 112, 120])
    def test_the_shared_triple_holds_at_high_order(self, order):
        # x^3 +- y^5 read one kept triple, so a check built on germ_invariants
        # cannot tell them apart; the per-germ sweeps can, at the orders a
        # deep compare call runs at
        from arczeta import zeta

        zeta._kept_invariants.cache_clear()
        left, right = parse_germ("x^3+y^5"), parse_germ("x^3-y^5")
        swept = _sweeps(left, order)
        assert swept == _sweeps(right, order)
        assert swept["plus"] == swept["minus"]
        for g in (left, right):
            inv = germ_invariants(g, order)
            assert (inv.naive, inv.plus, inv.minus) == tuple(swept.values())
