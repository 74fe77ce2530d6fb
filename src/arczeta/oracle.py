"""Exact F_q jet counting, the independent check on the jet calculus.

A coordinate jet is a vector (a_1 .. a_n) over F_q, standing for the arc
gamma = a_1*t + ... + a_n*t^n; a germ jet is a d-tuple of those.  The oracle
counts the germ jets whose composite f o gamma has order exactly n.  For
every germ handled by the symbolic side whose strata are polynomial-count
sets, this count equals the jet-set invariant evaluated at q.

Every power gamma^p mod (q, t^(n+1)) is computed by explicit multiplication,
but the q^(d*n) germ jets are never listed one by one:

* gamma^p mod t^(n+1) reads only the prefix a_1 .. a_(n-p+1), so a
  coordinate enumerates those q^(n-p+1) prefixes, each standing for q^(p-1)
  jets, and histograms its power by coefficient vector.
* ord(f o gamma) >= k holds exactly when the coefficients at t^1 .. t^(k-1)
  of the summed powers cancel, so #{ord >= k} = sum_w H_1(w) * H_2(-w) over
  the marginals on those coefficients; three summands fold the first two
  into one histogram of sums first.  Then #{ord = n} is
  #{ord >= n} - #{ord >= n+1}.
* A single summand, or a monomial factor, needs only the order of its power.
  A depth-first walk over prefixes stops at the first nonzero coefficient and
  counts all its completions at once.  It takes the first nonzero a_i as 1
  with weight q-1, since scaling gamma by a unit keeps ord(gamma^p).  The
  orders of a product add (F_q is a domain), so the factors' order
  histograms combine by convolution.

The work is about d*q^(n-p+1) power evaluations plus the marginal sums, and
all arithmetic is on Python ints, so no entry can wrap.  Only prime q is
accepted: arithmetic is carried out in Z/q, which is the field F_q exactly
when q is prime.  The jet space q^(d*n) stays capped, so the admitted inputs
are those of a full enumeration; oversized requests are rejected with a
sizing message rather than attempted.
"""

from __future__ import annotations

import itertools

from .errors import UnsupportedComputationError
from .jets import DiagonalGerm, Germ, MonomialGerm

JET_SPACE_CAP = 10**7

# a coefficient vector at t^1 .. t^k, and the weighted number of jets per vector
Histogram = dict[tuple[int, ...], int]


def _least_factor(q: int) -> int:
    """The least factor d >= 2 of q >= 2; q itself when q is prime."""
    d = 2
    while d * d <= q:
        if q % d == 0:
            return d
        d += 1
    return q


def check_jet_space(q: int, d: int, n: int) -> None:
    """Reject q unless it is prime and the jet space q^(d*n) is within the cap.

    The size is multiplied up one factor at a time and stops at the first
    product over the cap, so a huge q or n costs a few steps and never a
    huge power; the cap then keeps the primality test short.
    """
    size = 1
    # q < 2 never grows the product and is no prime: the last check rejects it
    for _ in range(d * n if q >= 2 else 0):
        size *= q
        if size > JET_SPACE_CAP:
            raise UnsupportedComputationError(
                f"jet space size q^(d*n) = {q}^{d * n} exceeds the cap "
                f"{JET_SPACE_CAP}; choose a smaller q or n"
            )
    if q < 2 or _least_factor(q) != q:
        raise UnsupportedComputationError(
            f"jet enumeration works over prime fields only, got q = {q}"
        )


def _trunc_mul(a: list[int], b: list[int], q: int, n: int) -> list[int]:
    """a*b mod (q, t^(n+1)) for coefficient lists indexed t^0 .. t^n."""
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(n + 1 - i):
                out[i + j] += ai * b[j]
    return [c % q for c in out]


def _truncated_power(gamma: list[int], p: int, q: int, n: int) -> list[int]:
    """gamma^p mod (q, t^(n+1)) by squaring, coefficients t^0 .. t^n."""
    result = [1] + [0] * n
    while p:
        if p & 1:
            result = _trunc_mul(result, gamma, q, n)
        p >>= 1
        if p:
            gamma = _trunc_mul(gamma, gamma, q, n)
    return result


def count_jets_with_order(g: Germ, n: int, q: int) -> int:
    """Number of jets gamma over F_q with ord(f o gamma) exactly n."""
    if n < 1:
        raise ValueError("the order n must be a positive integer")
    check_jet_space(q, g.dim, n)
    if isinstance(g, MonomialGerm):
        return _count_monomial(g, n, q)
    if isinstance(g, DiagonalGerm):
        return _count_diagonal(g, n, q)
    raise TypeError(f"not a germ: {g!r}")


def _order_histogram(p: int, q: int, n: int) -> dict[int, int]:
    """hist[o]: the number of coordinate jets with ord(gamma^p) = o <= n.

    Jets whose power vanishes mod t^(n+1) are left out.  The walk sets
    a_1 .. a_m.  With a_k the first nonzero one (k = m+1 if there is none),
    gamma = t^k * delta and gamma^p = t^(p*k) * delta^p, where the
    coefficients of delta^p up to t^(m-k) read only a_k .. a_m.  So the
    prefix fixes gamma^p up to t^(p*k+m-k), and a nonzero coefficient there
    decides the order for all q^(n-m) completions.
    """
    hist: dict[int, int] = {}
    gamma = [0] * (n + 1)

    def walk(m: int, k: int, weight: int) -> None:
        top = min(n, (p - 1) * k + m)
        power = _truncated_power(gamma[: top + 1], p, q, top)
        for o in range(1, top + 1):
            if power[o]:
                hist[o] = hist.get(o, 0) + weight * q ** (n - m)
                return
        if top == n:
            return
        leading = k > m
        # up to the first nonzero a_i, a unit scaling makes it 1.  Over a
        # field the walk ends right at a nonzero a_k, whose power a_k^p sits
        # at t^(p*k); trying every a_(m+1) after it keeps the count from
        # resting on that fact
        for a in (0, 1) if leading else range(q):
            gamma[m + 1] = a
            if leading and a:
                walk(m + 1, m + 1, weight * (q - 1))
            else:
                walk(m + 1, m + 2 if leading else k, weight)
        gamma[m + 1] = 0

    walk(0, 1, 1)
    return hist


def _count_monomial(g: MonomialGerm, n: int, q: int) -> int:
    # ord of a product is the sum of the factor orders (F_q is a domain),
    # so per-coordinate order histograms combine by convolution
    histograms = [
        {0: q**n} if e == 0 else _order_histogram(e, q, n) for e in g.exponents
    ]
    total = 0

    def walk(idx: int, order_left: int, ways: int):
        nonlocal total
        if idx == len(histograms):
            if order_left == 0:
                total += ways
            return
        for o, c in histograms[idx].items():
            if o <= order_left:
                walk(idx + 1, order_left - o, ways * c)

    walk(0, n, 1)
    return total


def _power_histogram(sign: int, p: int, q: int, n: int) -> Histogram:
    """sign*gamma^p mod (q, t^(n+1)) over all q^n coordinate jets, by its
    coefficients at t^1 .. t^n."""
    free = n - p + 1  # gamma^p mod t^(n+1) reads a_1 .. a_free only
    if free < 1:
        return {(0,) * n: q**n}
    weight = q ** (p - 1)
    hist: Histogram = {}
    for prefix in itertools.product(range(q), repeat=free):
        power = _truncated_power([0, *prefix, *[0] * (p - 1)], p, q, n)
        key = tuple(sign * c % q for c in power[1:])
        hist[key] = hist.get(key, 0) + weight
    return hist


def _marginal(hist: Histogram, m: int) -> Histogram:
    out: Histogram = {}
    for key, count in hist.items():
        out[key[:m]] = out.get(key[:m], 0) + count
    return out


def _cancelling(hists: list[Histogram], m: int, q: int) -> int:
    """Germ jets whose summed powers vanish at t^1 .. t^m."""
    first, *middle, last = [_marginal(h, m) for h in hists]
    for hist in middle:  # three summands: fold the first two into sums
        folded: Histogram = {}
        for w1, c1 in first.items():
            for w2, c2 in hist.items():
                key = tuple((x + y) % q for x, y in zip(w1, w2))
                folded[key] = folded.get(key, 0) + c1 * c2
        first = folded
    return sum(
        count * last.get(tuple(-x % q for x in w), 0) for w, count in first.items()
    )


def _count_diagonal(g: DiagonalGerm, n: int, q: int) -> int:
    if g.dim == 1:  # the sign never moves the order
        return _order_histogram(g.terms[0][1], q, n).get(n, 0)
    hists = [_power_histogram(sign, p, q, n) for sign, p in g.terms]
    return _cancelling(hists, n - 1, q) - _cancelling(hists, n, q)
