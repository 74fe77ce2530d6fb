"""Shared builders and small brute-force oracles for the test suite."""

import itertools
import os
from pathlib import Path

import pytest

from arczeta import (
    Component,
    LaurentPoly,
    ResolutionDatum,
    StratumData,
)
from arczeta.ring import ONE, U, ZERO, parse_poly

# pytest puts src/ on sys.path; the CLI runs that the tests start in child
# interpreters find the package through PYTHONPATH the same way
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)


def poly(s: str) -> LaurentPoly:
    return parse_poly(s)


def stratum(ids, beta0="0", beta_plus="0", beta_minus="0"):
    return StratumData(
        components=tuple(ids),
        beta0=poly(beta0),
        beta_plus=poly(beta_plus),
        beta_minus=poly(beta_minus),
    )


def datum_plane_curve_xkyk(k: int) -> ResolutionDatum:
    """Blow-up datum for x^k + y^k: one exceptional line, plus the strict
    transform crossing it when k is odd."""
    if k % 2 == 0:
        return ResolutionDatum(
            dimension=2,
            components=(Component("E1", N=k, nu=2, over_origin=True),),
            strata=(stratum(["E1"], beta0="u+1"),),
        )
    return ResolutionDatum(
        dimension=2,
        components=(
            Component("E1", N=k, nu=2, over_origin=True),
            Component("E2", N=1, nu=1, over_origin=False),
        ),
        strata=(stratum(["E1"], beta0="u"), stratum(["E1", "E2"], beta0="1")),
    )


def datum_plane_curve_signed(k: int, e2: int) -> ResolutionDatum:
    """Blow-up datum for x^k + e2*y^k with sign coverings included.

    For even k the positive form has the projective-line covering (u+1);
    the indefinite form has two real strict-transform branches, the
    covering over the punctured exceptional line being a circle through
    infinity minus two points (u-1).  For odd k every covering is a single
    sheet.
    """
    if k % 2 == 0 and e2 == 1:
        return ResolutionDatum(
            dimension=2,
            components=(Component("E1", N=k, nu=2, over_origin=True),),
            strata=(stratum(["E1"], beta0="u+1", beta_plus="u+1"),),
        )
    if k % 2 == 0:
        return ResolutionDatum(
            dimension=2,
            components=(
                Component("E1", N=k, nu=2, over_origin=True),
                Component("E2", N=1, nu=1, over_origin=False),
                Component("E3", N=1, nu=1, over_origin=False),
            ),
            strata=(
                stratum(["E1"], beta0="u-1", beta_plus="u-1", beta_minus="u-1"),
                stratum(["E1", "E2"], beta0="1", beta_plus="1", beta_minus="1"),
                stratum(["E1", "E3"], beta0="1", beta_plus="1", beta_minus="1"),
            ),
        )
    return ResolutionDatum(
        dimension=2,
        components=(
            Component("E1", N=k, nu=2, over_origin=True),
            Component("E2", N=1, nu=1, over_origin=False),
        ),
        strata=(
            stratum(["E1"], beta0="u", beta_plus="u", beta_minus="u"),
            stratum(["E1", "E2"], beta0="1", beta_plus="1", beta_minus="1"),
        ),
    )


def datum_monomial_plane(a: int, b: int) -> ResolutionDatum:
    """x^a*y^b is its own resolution; the sign covering has gcd(a, b)-th
    roots of the unit, so 2 or 0 sheets for even gcd and 1 for odd."""
    import math

    m = math.gcd(a, b)
    plus = "2" if m % 2 == 0 else "1"
    minus = "0" if m % 2 == 0 else "1"
    return ResolutionDatum(
        dimension=2,
        components=(
            Component("D1", N=a, nu=1, over_origin=True),
            Component("D2", N=b, nu=1, over_origin=True),
        ),
        strata=(
            stratum(["D1", "D2"], beta0="1", beta_plus=plus, beta_minus=minus),
        ),
    )


def datum_x2_y2() -> ResolutionDatum:
    return ResolutionDatum(
        dimension=2,
        components=(Component("E1", N=2, nu=2, over_origin=True),),
        strata=(stratum(["E1"], beta0="u+1", beta_plus="u+1"),),
    )


def datum_x2_y4() -> ResolutionDatum:
    """Two-step resolution of x^2 + y^4.

    The sign-covering invariants are the corrected values forced by
    agreement with the direct jet computation: the covering over the first
    component is two disjoint lines (2u), over the second a circle minus
    two points (u-1), and over the crossing point two points (2).
    """
    return ResolutionDatum(
        dimension=2,
        components=(
            Component("E1", N=2, nu=2, over_origin=True),
            Component("E2", N=4, nu=3, over_origin=True),
        ),
        strata=(
            stratum(["E1"], beta0="u", beta_plus="2*u"),
            stratum(["E2"], beta0="u", beta_plus="u-1"),
            stratum(["E1", "E2"], beta0="1", beta_plus="2"),
        ),
    )


def datum_f_pk(p: int, k: int) -> ResolutionDatum:
    """Chain datum for x^p + y^(kp) + z^(kp), p even: k successive blow-ups
    give components E_j with N = j*p and nu = j + 2; single strata are the
    plane (u^2), ruled pieces (u^2 - 1 in the middle, u^2 + u at the end),
    and each consecutive pair meets in a projective line (u + 1)."""
    comps = tuple(
        Component(f"E{j}", N=j * p, nu=j + 2, over_origin=True)
        for j in range(1, k + 1)
    )
    strata = []
    if k == 1:
        strata.append(stratum(["E1"], beta0="u^2+u+1"))
    else:
        for j in range(1, k + 1):
            b = "u^2" if j == 1 else ("u^2-1" if j < k else "u^2+u")
            strata.append(stratum([f"E{j}"], beta0=b))
        for j in range(1, k):
            strata.append(stratum([f"E{j}", f"E{j+1}"], beta0="u+1"))
    return ResolutionDatum(dimension=3, components=comps, strata=tuple(strata))


def _mul(a, b, n, q):
    """a*b mod (q, t^(n+1)) for coefficient lists indexed t^0 .. t^n."""
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                out[i + j] = (out[i + j] + ai * bj) % q
    return out


def _jet_power(coeffs, p, n, q):
    """(a_1 t + ... + a_n t^n)^p mod (q, t^(n+1)) by p plain multiplications."""
    base = [0] + list(coeffs)
    acc = [1] + [0] * n
    for _ in range(p):
        acc = _mul(acc, base, n, q)
    return acc


def _coordinate_jets(d, n, q):
    return itertools.product(itertools.product(range(q), repeat=n), repeat=d)


def brute_force_diagonal_jets(terms, n, q, target=None):
    """Pure-python jet count over F_q (q prime); target picks a coefficient
    value at t^n, None counts any nonzero value."""
    count = 0
    for jets in _coordinate_jets(len(terms), n, q):
        comp = [0] * (n + 1)
        for (sign, p), coeffs in zip(terms, jets):
            acc = _jet_power(coeffs, p, n, q)
            for i in range(n + 1):
                comp[i] = (comp[i] + sign * acc[i]) % q
        if any(comp[i] for i in range(1, n)):
            continue
        if target is None:
            if comp[n] % q:
                count += 1
        elif comp[n] % q == target % q:
            count += 1
    return count


def brute_force_monomial_jets(exponents, n, q):
    """Pure-python count of the jets over F_q (q prime) with
    ord(x1^N1 * ... * xd^Nd o gamma) exactly n."""
    count = 0
    for jets in _coordinate_jets(len(exponents), n, q):
        comp = [1] + [0] * n
        for e, coeffs in zip(exponents, jets):
            comp = _mul(comp, _jet_power(coeffs, e, n, q), n, q)
        if not any(comp[:n]) and comp[n]:
            count += 1
    return count


@pytest.fixture
def u():
    return U


@pytest.fixture
def one():
    return ONE


@pytest.fixture
def zero():
    return ZERO
