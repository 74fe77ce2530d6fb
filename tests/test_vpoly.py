"""Virtual Poincare calculus, point counting, scripts."""

import itertools
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta import (
    Affine,
    Custom,
    Points,
    ProjSpace,
    PuncturedAffine,
    Sphere,
    Torus,
    UnsupportedComputationError,
    beta_atom,
    beta_expr,
    blowup_solve,
    difference,
    product,
    run_script,
    script_from_json,
    union,
)
from arczeta.errors import InputError, RingBoundError
from arczeta.ring import ONE, U
from arczeta.vpoly import BetaScript, ExprDef

from conftest import poly
from fq_reference import count_points, expr_dim, verify_polynomial_count


class TestAtoms:
    @pytest.mark.parametrize(
        "atom,expected",
        [
            (ProjSpace(1), "u+1"),
            (ProjSpace(4), "u^4+u^3+u^2+u+1"),
            (Affine(2), "u^2"),
            (Affine(0), "1"),
            (PuncturedAffine(3), "u^3-1"),
            (PuncturedAffine(0), "0"),
            (Sphere(2), "u^2+1"),
            (Sphere(0), "2"),
            (Torus(2), "u^2-2*u+1"),
            (Points(3), "3"),
        ],
    )
    def test_beta_atom(self, atom, expected):
        assert beta_atom(atom) == poly(expected)

    def test_custom_degree_must_match_dim(self):
        Custom("ok", poly("u^2+1"), 2)
        with pytest.raises(ValueError):
            Custom("bad", poly("u^2+1"), 3)

    def test_torus_binomial_row(self):
        power = ONE
        for k in range(30):
            assert beta_atom(Torus(k)) == power, k
            power = power * (U - ONE)

    def test_torus_rank_bound(self):
        # the bound is where the middle binomial first passes 4300 digits
        assert math.comb(14291, 14291 // 2) < 10**4300 <= math.comb(14292, 14292 // 2)
        beta = beta_atom(Torus(14291))
        assert beta.degree == 14291
        assert beta.coeff(7145) == math.comb(14291, 7145)  # (-1)^(k-i) * C(k, i)
        with pytest.raises(RingBoundError, match="torus rank 14292 exceeds 14291"):
            Torus(14292)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            Affine(-1)
        with pytest.raises(ValueError):
            Points(-2)


class TestBetaExpr:
    def test_union_adds(self):
        assert beta_expr(union(Affine(1), Points(1))) == poly("u+1")

    def test_product_multiplies(self):
        assert beta_expr(product(Torus(1), Affine(1))) == poly("u^2-u")

    def test_difference_subtracts(self):
        P = Custom("P", poly("u"), 1)
        assert beta_expr(difference(product(Affine(1), P), P)) == poly("u^2-u")

    def test_difference_degree_check(self):
        with pytest.raises(ValueError):
            beta_expr(difference(Affine(1), Affine(2)))

    @pytest.mark.parametrize("parts", [
        (Torus(3), ProjSpace(2), Sphere(1)),
        (Torus(1000), Torus(10)),
        (ProjSpace(1500), ProjSpace(1500)),
        (Torus(14291), Affine(5)),
        (Affine(3), PuncturedAffine(0)),
        # sparse: dense rows far over the work bound, but few nonzero terms
        (Sphere(100000), Sphere(100000)),
        (PuncturedAffine(10000), PuncturedAffine(10000)),
        (Custom("g", poly("u^500000+u^250000-1"), 500000),
         Custom("h", poly("u^3000-u^1500+1"), 3000)),
    ], ids=["mixed", "torus", "long", "largest-torus", "zero", "sparse-sphere",
            "sparse-punctured", "sparse-custom"])
    def test_products_within_the_bounds_are_plain_products(self, parts):
        expected = ONE
        for part in parts:
            expected = expected * beta_atom(part)
        assert beta_expr(product(*parts)) == expected
        script = BetaScript((ExprDef("P", product(*parts)),))
        assert run_script(script)["P"] == expected

    @pytest.mark.parametrize("parts, message", [
        ((Torus(3000), Torus(3000)), "exceeds the work bound"),
        ((Custom("g", poly("u^600000+1"), 600000),
          Custom("g", poly("u^600000+1"), 600000)), "1048576 coefficients"),
        ((Affine(2**30 + 1), Affine(2**30 + 1)), "out of supported range"),
        ((Custom("c", poly("9" * 4000), 0), Custom("c", poly("9" * 4000), 0)),
         "more than 4300 digits"),
    ], ids=["work", "span", "exponent", "digits"])
    def test_oversized_products_refused_before_multiplying(self, parts, message):
        start = time.perf_counter()
        with pytest.raises(RingBoundError, match=message):
            beta_expr(product(*parts))
        assert time.perf_counter() - start < 1

    def test_dimension_is_degree(self):
        e = union(product(Torus(2), Affine(1)), ProjSpace(2))
        assert expr_dim(e) == 3
        assert beta_expr(e).degree == 3

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_degree_equals_structural_dimension(self, data):
        atoms = st.one_of(
            st.integers(0, 3).map(Affine),
            st.integers(0, 3).map(Torus),
            st.integers(1, 3).map(PuncturedAffine),
            st.integers(1, 3).map(Points),
            st.integers(0, 3).map(ProjSpace),
            st.integers(0, 3).map(Sphere),
        )

        def build(depth):
            if depth == 0:
                return data.draw(atoms)
            kind = data.draw(st.sampled_from(["atom", "union", "product"]))
            if kind == "atom":
                return data.draw(atoms)
            parts = tuple(build(depth - 1) for _ in range(data.draw(st.integers(1, 3))))
            return union(*parts) if kind == "union" else product(*parts)

        e = build(2)
        assert beta_expr(e).degree == expr_dim(e)


class TestBlowup:
    def test_solve_for_blowup(self):
        assert blowup_solve(
            beta_x=poly("u^2+u+1"), beta_c=ONE, beta_e=poly("u+1")
        ) == poly("u^2+2*u+1")

    def test_divisor_like_trivial_case(self):
        b = poly("u^3+2")
        assert blowup_solve(beta_bl=b, beta_e=poly("u"), beta_c=poly("u")) == b

    def test_whitney_final_step(self):
        # beta(W) = (u-1)u + u = u^2 via the additivity step
        assert poly("u^2-u") + poly("u") == poly("u^2")

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            blowup_solve(beta_x=ONE, beta_c=ONE)
        with pytest.raises(ValueError):
            blowup_solve(beta_x=ONE, beta_c=ONE, beta_e=ONE, beta_bl=ONE)

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=4),
        st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=4),
        st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=4),
    )
    def test_solve_twice_is_identity(self, x, c, e):
        from arczeta.ring import LaurentPoly

        bx, bc, be = LaurentPoly(x), LaurentPoly(c), LaurentPoly(e)
        bl = blowup_solve(beta_x=bx, beta_c=bc, beta_e=be)
        assert blowup_solve(beta_bl=bl, beta_c=bc, beta_e=be) == bx
        assert blowup_solve(beta_x=bx, beta_bl=bl, beta_e=be) == bc
        assert blowup_solve(beta_x=bx, beta_c=bc, beta_bl=bl) == be


WHITNEY = {
    "defs": [
        {"name": "P", "expr": {"atom": {"custom": {"name": "parabola", "beta": "u", "dim": 1}}}},
        {
            "name": "W_minus_L",
            "expr": {
                "difference": [
                    {"product": [{"atom": {"affine": 1}}, {"ref": "P"}]},
                    {"ref": "P"},
                ]
            },
        },
        {
            "name": "W",
            "expr": {
                "union": [
                    {"ref": "W_minus_L"},
                    {"atom": {"custom": {"name": "line", "beta": "u", "dim": 1}}},
                ]
            },
        },
    ]
}

CUSP_CURVE = {
    "defs": [
        {
            "name": "C1",
            "blowup": {
                "Bl": {"atom": {"affine": 1}},
                "E": {"atom": {"points": 1}},
                "C": {"atom": {"points": 1}},
                "solve_for": "X",
            },
        }
    ]
}

TWO_BRANCH_CURVE = {
    "defs": [
        {
            "name": "C2",
            "blowup": {
                "Bl": {"union": [{"atom": {"affine": 1}}, {"atom": {"affine": 1}}]},
                "E": {"atom": {"points": 2}},
                "C": {"atom": {"points": 1}},
                "solve_for": "X",
            },
        }
    ]
}


class TestScripts:
    def test_whitney_umbrella(self):
        values = run_script(script_from_json(json.dumps(WHITNEY)))
        assert values["W_minus_L"] == poly("u^2-u")
        assert values["W"] == poly("u^2")

    def test_one_branch_resolution(self):
        assert run_script(script_from_json(CUSP_CURVE))["C1"] == poly("u")

    def test_two_branch_resolution(self):
        assert run_script(script_from_json(TWO_BRANCH_CURVE))["C2"] == poly("2*u-1")

    def test_undefined_symbol(self):
        bad = {"defs": [{"name": "A", "expr": {"ref": "missing"}}]}
        with pytest.raises(InputError):
            run_script(script_from_json(bad))

    def test_duplicate_symbol(self):
        bad = {
            "defs": [
                {"name": "A", "expr": {"atom": {"affine": 1}}},
                {"name": "A", "expr": {"atom": {"affine": 2}}},
            ]
        }
        with pytest.raises(InputError):
            run_script(script_from_json(bad))

    def test_blowup_step_needs_three_slots(self):
        bad = {
            "defs": [
                {
                    "name": "A",
                    "blowup": {"Bl": {"atom": {"affine": 1}}, "solve_for": "X"},
                }
            ]
        }
        with pytest.raises(InputError):
            run_script(script_from_json(bad))


class TestCounting:
    def test_examples(self):
        assert count_points(Torus(1), 5) == 4
        assert count_points(PuncturedAffine(3), 3) == 26
        assert count_points(product(Torus(2), Affine(1)), 7) == 252

    def test_product_against_exhaustive_enumeration(self):
        # pairs in (F_7*)^2 x F_7, listed one by one
        description = product(Torus(2), Affine(1))
        brute = sum(
            1
            for a, b, c in itertools.product(range(7), repeat=3)
            if a != 0 and b != 0
        )
        assert count_points(description, 7) == brute == 252

    def test_count_matches_beta_on_countable_atoms(self):
        exprs = [
            Affine(3),
            Torus(2),
            PuncturedAffine(2),
            union(Affine(1), Torus(1)),
            product(PuncturedAffine(1), Affine(2)),
            difference(Affine(2), Points(1)),
            ProjSpace(3),
        ]
        for e in exprs:
            b = beta_expr(e)
            for q in (3, 5, 7, 11):
                assert count_points(e, q) == b.evaluate(q)

    def test_sphere_counting(self):
        # honest conic counts at q = 3 mod 4
        assert count_points(Sphere(1), 7) == 8
        assert count_points(Sphere(1), 11) == 12
        assert count_points(Sphere(0), 3) == 2
        with pytest.raises(UnsupportedComputationError):
            count_points(Sphere(1), 5)
        with pytest.raises(UnsupportedComputationError):
            count_points(Sphere(2), 7)

    def test_custom_needs_count_rule(self):
        with pytest.raises(UnsupportedComputationError):
            count_points(Custom("P", poly("u"), 1), 5)
        assert count_points(Custom("P", poly("u"), 1), 5, {"P": poly("u")}) == 5

    def test_q_must_be_prime(self):
        with pytest.raises(ValueError):
            count_points(Affine(1), 6)
        # Z/9 and Z/27 are not fields: the circle would count 36 points in
        # Z/27, where x^2 + y^2 = 1 has 28 over F_27
        with pytest.raises(ValueError):
            count_points(Affine(2), 9)
        with pytest.raises(ValueError):
            count_points(Sphere(1), 27)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_count_equals_beta_on_random_countable_trees(self, data):
        atoms = st.one_of(
            st.integers(0, 3).map(Affine),
            st.integers(0, 3).map(Torus),
            st.integers(0, 3).map(PuncturedAffine),
            st.integers(0, 4).map(Points),
        )

        def build(depth):
            if depth == 0:
                return data.draw(atoms)
            kind = data.draw(st.sampled_from(["atom", "union", "product"]))
            if kind == "atom":
                return data.draw(atoms)
            parts = tuple(
                build(depth - 1) for _ in range(data.draw(st.integers(1, 3)))
            )
            return union(*parts) if kind == "union" else product(*parts)

        e = build(2)
        b = beta_expr(e)
        for q in (3, 5, 7, 11):
            assert count_points(e, q) == b.evaluate(q)


class TestInterpolation:
    def test_punctured_plane(self):
        r = verify_polynomial_count(PuncturedAffine(2), [3, 5, 7])
        assert r.ok
        assert r.witness == poly("u^2-1")
        assert r.counts == ((3, 8), (5, 24), (7, 48))

    def test_affine_space(self):
        r = verify_polynomial_count(Affine(3), [3, 5, 7, 11])
        assert r.ok and r.witness == poly("u^3")

    def test_torus(self):
        r = verify_polynomial_count(Torus(1), [3, 5])
        assert r.ok and r.witness == poly("u-1")

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            verify_polynomial_count(Affine(3), [3, 5])
        with pytest.raises(ValueError):
            verify_polynomial_count(Affine(1), [3, 3])

    def test_mismatch_reported_not_raised(self):
        lying = Custom("liar", poly("u^2"), 2)
        r = verify_polynomial_count(lying, [3, 5, 7], {"liar": poly("u^2+1")})
        assert not r.ok and r.witness == poly("u^2+1") and r.message
