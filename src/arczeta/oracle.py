"""Brute-force F_q jet counting, the independent check on the jet calculus.

A coordinate jet is a vector of n coefficients over F_q; a germ jet is a
d-tuple of those.  The oracle composes f with every jet (exactly, mod q)
and counts the jets realizing order exactly n.  For every germ handled by
the symbolic side whose strata are polynomial-count sets, this count equals
the jet-set invariant evaluated at q.

Only prime q is accepted: arithmetic is carried out in Z/q, which is the
field F_q exactly when q is prime.  The total jet space q^(d*n) is capped;
oversized requests are rejected with a sizing message rather than attempted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import UnsupportedComputationError
from .jets import DiagonalGerm, Germ, MonomialGerm

# numpy is imported inside the enumerator functions only: the input checks,
# and every caller that never enumerates, skip its start-up cost
if TYPE_CHECKING:
    import numpy as np

JET_SPACE_CAP = 10**7


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


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
    if not _is_prime(q):
        raise UnsupportedComputationError(
            f"jet enumeration works over prime fields only, got q = {q}"
        )


def _coordinate_jets(q: int, n: int) -> np.ndarray:
    """All q^n coordinate jets as rows of coefficients (t^1 .. t^n)."""
    import numpy as np

    count = q**n
    idx = np.arange(count)
    cols = []
    for j in range(n):
        cols.append((idx // q**j) % q)
    return np.stack(cols, axis=1).astype(np.int64)


def _trunc_mul(a: np.ndarray, b: np.ndarray, q: int, n: int) -> np.ndarray:
    import numpy as np

    out = np.zeros_like(a)
    for i in range(n + 1):
        col = a[:, i]
        if not col.any():
            continue
        out[:, i:] = (out[:, i:] + col[:, None] * b[:, : n + 1 - i]) % q
    return out


def _truncated_power(jets: np.ndarray, p: int, q: int, n: int) -> np.ndarray:
    """Coefficient rows of jet(t)^p mod (q, t^(n+1)), indexed t^0 .. t^n.

    Exponentiation by squaring; int32 is safe since entries stay below
    q^2 * (n + 1) for the field sizes the cap admits.
    """
    import numpy as np

    rows = jets.shape[0]
    base = np.zeros((rows, n + 1), dtype=np.int32)
    base[:, 1:] = jets
    result = np.zeros((rows, n + 1), dtype=np.int32)
    result[:, 0] = 1
    while p:
        if p & 1:
            result = _trunc_mul(result, base, q, n)
        p >>= 1
        if p:
            base = _trunc_mul(base, base, q, n)
    return result


def _order_exact(coeff_rows: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask: first nonzero coefficient sits exactly at t^n."""
    below = coeff_rows[:, 1:n]
    lead = coeff_rows[:, n]
    return (below == 0).all(axis=1) & (lead != 0)


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


def _count_monomial(g: MonomialGerm, n: int, q: int) -> int:
    # ord of a product is the sum of the factor orders (F_q is a domain),
    # so per-coordinate order histograms combine by convolution
    import numpy as np

    jets = _coordinate_jets(q, n)
    histograms = []
    for e in g.exponents:
        if e == 0:
            histograms.append({0: q**n})
            continue
        powered = _truncated_power(jets, e, q, n)
        hist: dict[int, int] = {}
        remaining = np.ones(jets.shape[0], dtype=bool)
        for o in range(1, n + 1):
            mask = remaining & (powered[:, o] != 0)
            hist[o] = int(mask.sum())
            remaining &= powered[:, o] == 0
        histograms.append(hist)
    total = 0

    def walk(idx: int, order_left: int, ways: int):
        nonlocal total
        if idx == len(histograms):
            if order_left == 0:
                total += ways
            return
        for o, c in histograms[idx].items():
            if o <= order_left and c:
                walk(idx + 1, order_left - o, ways * c)

    walk(0, n, 1)
    return total


def _count_diagonal(g: DiagonalGerm, n: int, q: int) -> int:
    import numpy as np

    jets = _coordinate_jets(q, n)
    tables = []
    for sign, p in g.terms:
        powered = _truncated_power(jets, p, q, n)
        # q <= 31 and at most three summands keep every entry within int16
        tables.append(((sign * powered) % q).astype(np.int16))
    # fold the first table in blocks to bound the working set
    rest_rows = 1
    for table in tables[1:]:
        rest_rows *= table.shape[0]
    block = max(1, 2_000_000 // max(rest_rows, 1))
    total = 0
    first = tables[0]
    for start in range(0, first.shape[0], block):
        acc = first[start : start + block]
        for table in tables[1:]:
            acc = (acc[:, None, :] + table[None, :, :]).reshape(-1, n + 1) % q
        total += int(_order_exact(acc, n).sum())
    return total
