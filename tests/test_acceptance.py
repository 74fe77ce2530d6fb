"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import itertools

import pytest

from arczeta import (
    JET_SPACE_CAP,
    ClassStatus,
    DiagonalGerm,
    Distinguished,
    LaurentPoly,
    MonomialGerm,
    SignValue,
    classify,
    compare_invariants,
    count_jets_with_order,
    dl_naive,
    dl_sign,
    germ_invariants,
    jet_beta,
    jet_strata,
    parse_germ,
    ts_convolve,
    zeta_direct,
    zeta_expr,
    zeta_term,
)
from arczeta.ring import ONE, U
from arczeta.vpoly import (
    Affine,
    Points,
    ProjSpace,
    PuncturedAffine,
    Sphere,
    Torus,
    beta_atom,
    beta_expr,
    product,
    run_script,
    script_from_json,
    union,
)

from conftest import (
    datum_plane_curve_xkyk,
    datum_x2_y2,
    datum_x2_y4,
    poly,
)
from fq_reference import count_points, verify_polynomial_count
from test_brieskorn import expected_class
from test_vpoly import CUSP_CURVE, TWO_BRANCH_CURVE, WHITNEY


def _report(n, text):
    print(f"criterion {n:>2}: PASS  ({text})")


def test_criterion_01_one_variable_powers():
    order = 30
    for k in range(1, 7):
        g = parse_germ(f"x^{k}")
        naive = zeta_direct(g, order)
        assert naive == zeta_expr([zeta_term(U - ONE, [(1, k)])]).expand(order)
        plus = zeta_direct(g, order, "plus")
        minus = zeta_direct(g, order, "minus")
        if k % 2 == 0:
            two = LaurentPoly.const(2)
            assert plus == zeta_expr([zeta_term(two, [(1, k)])]).expand(order)
            assert minus.is_zero()
        else:
            both = zeta_expr([zeta_term(ONE, [(1, k)])]).expand(order)
            assert plus == both and minus == both
    _report(1, "x^k closed forms, k = 1..6, order 30, naive and signs")


def test_criterion_02_plane_curves_from_blowup_data():
    order = 30
    series = {}
    for k in range(2, 8):
        direct = zeta_direct(parse_germ(f"x^{k}+y^{k}"), order)
        assert dl_naive(datum_plane_curve_xkyk(k), order) == direct
        series[k] = direct
    for k, kk in itertools.combinations(range(2, 8), 2):
        left = germ_invariants(parse_germ(f"x^{k}+y^{k}"), order)
        right = germ_invariants(parse_germ(f"x^{kk}+y^{kk}"), order)
        res = compare_invariants(left, right)
        assert isinstance(res, Distinguished)
        assert res.index == min(k, kk)
    _report(2, "x^k+y^k: resolution data = direct, k = 2..7, pairwise distinguished")


def test_criterion_03_x2_y4_three_way():
    order = 24
    g = parse_germ("x^2+y^4")
    direct = zeta_direct(g, order)
    printed = zeta_expr(
        [
            zeta_term((U - ONE) ** 2, [(2, 2), (3, 4)]),
            zeta_term((U - ONE) * U, [(2, 2)]),
            zeta_term((U - ONE) * U, [(3, 4)]),
        ]
    )
    datum = datum_x2_y4()
    assert dl_naive(datum, order) == direct == printed.expand(order)

    plus = zeta_direct(g, order, "plus")
    assert dl_sign(datum, 1, order) == plus
    assert dl_sign(datum, -1, order).is_zero()
    assert zeta_direct(g, order, "minus").is_zero()
    # the corrected sign data expand to 2u*A + (u-1)*B + 2(u-1)*A*B
    corrected = zeta_expr(
        [
            zeta_term(2 * U, [(2, 2)]),
            zeta_term(U - ONE, [(3, 4)]),
            zeta_term(2 * (U - ONE), [(2, 2), (3, 4)]),
        ]
    )
    assert plus == corrected.expand(order)

    # the asserted inequalities, coefficientwise
    assert direct != plus.scale(U - ONE)
    assert direct.scale(LaurentPoly.const(2)) != plus.scale(U - ONE)
    _report(3, "x^2+y^4: naive three-way agreement, sign data, inequalities")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the transcribed rational form for the plus-series of x^2+y^4 "
        "((u-1)A + (u-1)B + 2(u-1)AB) contradicts the direct jet computation "
        "already at T^2, where the jets with leading coefficient +1 form two "
        "affine lines (coefficient 2u^-1, not (u-1)u^-2); the corrected "
        "covering data are exercised in criterion 3"
    ),
)
def test_criterion_03_transcribed_sign_form():
    order = 24
    plus = zeta_direct(parse_germ("x^2+y^4"), order, "plus")
    transcribed = zeta_expr(
        [
            zeta_term(2 * (U - ONE), [(2, 2), (3, 4)]),
            zeta_term(U - ONE, [(2, 2)]),
            zeta_term(U - ONE, [(3, 4)]),
        ]
    )
    assert plus == transcribed.expand(order)


def test_criterion_04_positive_quadric_signs():
    order = 20
    g = parse_germ("x^2+y^2")
    datum = datum_x2_y2()
    expected_plus = zeta_expr([zeta_term(U + ONE, [(2, 2)])]).expand(order)
    assert zeta_direct(g, order, "plus") == expected_plus
    assert dl_sign(datum, 1, order) == expected_plus
    assert zeta_direct(g, order, "minus").is_zero()
    assert dl_sign(datum, -1, order).is_zero()
    _report(4, "x^2+y^2: Z- = 0 and Z+ = (u+1)u^-2T^2/(1-u^-2T^2), both routes")


def test_criterion_05_convolution():
    order = 20
    za = zeta_direct(parse_germ("x^2"), order)
    zb = zeta_direct(parse_germ("x^4"), order)
    c22 = ts_convolve(za, za)
    c24 = ts_convolve(za, zb)
    assert c22 == zeta_direct(parse_germ("x^2+y^2"), order)
    assert c24 == zeta_direct(parse_germ("x^2+y^4"), order)
    for n in range(1, order + 1):
        if n % 2 == 0:
            assert c22.coeff(n) == poly("u^2-1").shift(-n)
        else:
            assert c22.coeff(n).is_zero()
    for m in range(1, order // 4 + 1):
        assert c24.coeff(4 * m) == poly("u^2-1").shift(-3 * m)
    for m in range(0, (order - 2) // 4 + 1):
        assert c24.coeff(4 * m + 2) == poly("u-1").shift(-(3 * m + 1))
    _report(5, "convolution reproduces x^2+y^2 and x^2+y^4 with the stated coefficients")


def test_criterion_06_three_variable_family():
    for p in (2, 4):
        for k in (1, 2, 3):
            g = parse_germ(f"x^{p}+y^{k * p}+z^{k * p}")
            order = 2 * k * p + p
            z = zeta_direct(g, order)
            for n in range(1, order + 1):
                c = z.coeff(n)
                if n % p:
                    assert c.is_zero()
                    continue
                m, r = divmod(n // p, k)
                if r == 0:
                    assert c == poly("u^3-1").shift(-(m * k) - 2 * m)
                else:
                    assert c == poly("u-1").shift(-(m * k + r) - 2 * m)
    for p in (2, 4):
        for k, kk in itertools.combinations((1, 2, 3), 2):
            order = 2 * p * kk + 2
            left = germ_invariants(parse_germ(f"x^{p}+y^{k*p}+z^{k*p}"), order)
            right = germ_invariants(parse_germ(f"x^{p}+y^{kk*p}+z^{kk*p}"), order)
            res = compare_invariants(left, right)
            assert isinstance(res, Distinguished)
            assert res.series == "naive" and res.index == p * k
            assert res.left == poly("u^3-1").shift(-k - 2)
            assert res.right == poly("u-1").shift(-k)
    _report(6, "x^p+y^kp+z^kp coefficient table and index-pk witnesses")


def test_criterion_07_classification_census():
    count = 0
    for p in range(2, 10):
        for q in range(p, 10):
            for e1, e2 in itertools.product((1, -1), repeat=2):
                germ = DiagonalGerm(terms=((e1, p), (e2, q)))
                inv = germ_invariants(germ, 2 * q + 2)
                got = classify(inv.naive, inv.plus, inv.minus)
                assert (
                    got.p,
                    got.q,
                    got.eps_p,
                    got.eps_q,
                    got.status,
                ) == expected_class(p, q, e1, e2), (p, q, e1, e2)
                count += 1
    assert count == 144
    _report(7, "round trip over all 144 germs with 2 <= p <= q <= 9")


def test_criterion_08_sign_twins():
    order = 24
    plus = germ_invariants(parse_germ("x^3+y^4"), order)
    minus = germ_invariants(parse_germ("x^3-y^4"), order)
    assert plus.naive == minus.naive
    assert plus.plus.coeff(4) != minus.plus.coeff(4)
    assert plus.minus.coeff(4) != minus.minus.coeff(4)
    cp = classify(plus.naive, plus.plus, plus.minus)
    cm = classify(minus.naive, minus.plus, minus.minus)
    assert cp.eps_q is SignValue.PLUS and cm.eps_q is SignValue.MINUS
    assert cp.status is ClassStatus.DETERMINED
    _report(8, "x^3+-y^4: equal naive series, sign series split at T^4")


def test_criterion_09_beta_examples():
    for k in range(0, 5):
        assert beta_atom(ProjSpace(k)) == LaurentPoly({i: 1 for i in range(k + 1)})
        assert beta_atom(Affine(k)) == LaurentPoly.u_power(k)
    assert run_script(script_from_json(WHITNEY))["W"] == poly("u^2")
    assert run_script(script_from_json(CUSP_CURVE))["C1"] == poly("u")
    assert run_script(script_from_json(TWO_BRANCH_CURVE))["C2"] == poly("2*u-1")
    # evaluation at u = -1 on the fixed list, against the Euler
    # characteristics with compact support computed by hand
    fixed = [
        (poly("u"), -1),       # the affine line
        (poly("u^2"), 1),      # the affine plane
        (poly("u^3"), -1),     # affine 3-space
        (beta_atom(ProjSpace(2)), 1),
        (beta_atom(ProjSpace(3)), 0),
        (beta_atom(ProjSpace(4)), 1),
        (beta_atom(Sphere(1)), 0),
        (beta_atom(Sphere(2)), 2),
        (beta_atom(Torus(1)) * poly("u") + poly("u"), 1),  # umbrella: (u-1)u + u
        (poly("u"), -1),       # one-branch singular curve
        (poly("2*u-1"), -3),   # two branches through a point
    ]
    for b, chi in fixed:
        assert b.evaluate(-1) == chi
    _report(9, "projective spaces, umbrella and curve scripts, u = -1 evaluations")


def test_criterion_10_oracle_suite():
    # jets of monomial germs against the exact enumerator
    for a in range(1, 6):
        for b in range(0, 6 - a):
            exps = (a,) if b == 0 else (a, b)
            germ = MonomialGerm(exponents=exps)
            d = len(exps)
            for q in (3, 5, 7):
                for n in range(1, 5):
                    if q ** (d * n) > JET_SPACE_CAP:
                        continue
                    assert count_jets_with_order(germ, n, q) == jet_beta(
                        germ, n
                    ).evaluate(q), (exps, q, n)
    # piece descriptions: counts match beta and interpolation recovers it
    pieces = [
        Torus(2),
        PuncturedAffine(2),
        PuncturedAffine(3),
        product(Torus(2), Affine(1)),
        product(PuncturedAffine(1), Torus(1)),
        union(Torus(1), Points(1)),
    ]
    for e in pieces:
        b = beta_expr(e)
        for q in (3, 5, 7, 11):
            assert count_points(e, q) == b.evaluate(q)
        result = verify_polynomial_count(e, [3, 5, 7, 11])
        assert result.ok and result.witness == b
    _report(10, "jet counts and piece counts match beta; interpolation recovers it")


def test_criterion_11_property_suite():
    import random

    rng = random.Random(20240803)

    def rand_poly():
        return LaurentPoly(
            {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))}
        )

    for _ in range(1000):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    # truncation prefix property on random rational forms
    for _ in range(200):
        terms = [
            zeta_term(
                rand_poly(),
                [
                    (rng.randint(1, 4), rng.randint(1, 5))
                    for _ in range(rng.randint(1, 3))
                ],
            )
            for _ in range(rng.randint(0, 3))
        ]
        e = zeta_expr(terms)
        big, small = 14, rng.randint(1, 14)
        assert e.expand(big).truncate(small) == e.expand(small)

    # stratum dimensions
    for text in ["x^2+y^4", "x^3-y^3", "x^2-y^4", "x^3+y^4", "x^2+y^2+z^2", "x^2*y^3"]:
        germ = parse_germ(text)
        for n in range(1, 13):
            strata = jet_strata(germ, n)
            total = jet_beta(germ, n)
            if strata:
                dim = max(s.condition_beta.degree + s.free_dims for s in strata)
                assert total.degree == dim
            else:
                assert total.is_zero()

    # nonzero coefficients of Z(x^k) sit exactly at the multiples of k
    for k in range(1, 7):
        z = zeta_direct(parse_germ(f"x^{k}"), 30)
        assert z.support() == tuple(range(k, 31, k))
    _report(11, "ring laws (1000 cases), truncation prefix, stratum dims, exponents")
