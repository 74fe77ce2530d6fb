"""Classification of two-variable Brieskorn germs e1*x^p + e2*y^q from zeta data.

The naive series determines the exponents: p is the first index with a
nonzero coefficient, and q is read off from the first index l where the
series stops agreeing with the reference series of a one-variable power x^p.
With normalized coefficients (each T^n coefficient carries the u^(-n*d)
factor), adding an inert variable leaves the coefficients unchanged, so the
reference comparison is plain equality g_n = a_n; the case split is

    q = l - 1  when p is odd, p divides l - 1, and the coefficient at l is
               not a single term (u-1)*u^k (k any integer),
    q = l      otherwise.

The signs are read off the germs that reproduce the input.  Of the four
germs +-x^p +- y^q, a sign pair is kept when the germ's invariant triple
equals all three series; each sign is the one the kept pairs share, and
undetermined when they disagree.  So every reported class has been checked
against the input, which is the three series alone, and a triple that no
pair rebuilds is reported as inconsistent.  Replacing x by -x flips the
sign of an odd power without moving the germ, so an odd exponent never
determines its sign; :func:`zeta.germ_invariants` reads both such germs
from one computed triple.  The one genuinely open case is p odd with q an
even multiple of p, where whether the sign of the second term moves the
class is not known.
"""

from __future__ import annotations

from enum import Enum

from ._value import frozen
from .errors import ClassifyError
from .jets import DiagonalGerm, zeta_direct
from .ring import ONE, U, LaurentPoly, ZetaSeries
from .zeta import InvariantTriple, germ_invariants


class SignValue(str, Enum):
    PLUS = "plus"
    MINUS = "minus"
    UNDETERMINED = "undetermined"


class ClassStatus(str, Enum):
    DETERMINED = "determined"
    OPEN_CASE = "open_case"
    INCONSISTENT = "inconsistent"


_SIGN = {1: SignValue.PLUS, -1: SignValue.MINUS}

#: Note emitted when no sign pair reproduces the input series.
NO_MATCHING_SIGN_NOTE = (
    "no candidate sign reproduces the sign series; the input may not come "
    "from a two-variable Brieskorn germ"
)


@frozen
class BrieskornClass:
    p: int | None
    q: int | None
    eps_p: SignValue
    eps_q: SignValue
    status: ClassStatus
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "eps_p": self.eps_p.value,
            "eps_q": self.eps_q.value,
            "status": self.status.value,
            "notes": list(self.notes),
        }


def _is_single_u_minus_1_term(c: LaurentPoly) -> bool:
    # matches (u-1) * u^k for some integer k
    if c.is_zero():
        return False
    low = c.low_degree
    return c.shift(-low) == U - ONE


def recover_p(z: ZetaSeries) -> int:
    """Smallest index with a nonzero coefficient."""
    support = z.support()
    if not support:
        raise ClassifyError(
            f"all coefficients vanish up to order {z.order}; cannot classify"
        )
    return support[0]


def _reference_power_series(p: int, order: int) -> ZetaSeries:
    # naive zeta of a one-variable p-th power (sign irrelevant for naive)
    return zeta_direct(DiagonalGerm(terms=((1, p),)), order)


def recover_q(z: ZetaSeries, p: int) -> int:
    """Recover q by comparing against the reference series of x^p."""
    ref = _reference_power_series(p, z.order)
    l = None
    for n in range(1, z.order + 1):
        if z.coeff(n) != ref.coeff(n):
            l = n
            break
    if l is None:
        raise ClassifyError(
            f"series agrees with a pure power of order {p} up to T^{z.order}; "
            "truncation too small to recover q"
        )
    if p % 2 == 1 and (l - 1) % p == 0 and not _is_single_u_minus_1_term(z.coeff(l)):
        return l - 1
    return l


def _open_case(p: int, q: int) -> bool:
    """p odd with q an even multiple of p: the class of the sign is unknown."""
    return p % 2 == 1 and q % p == 0 and (q // p) % 2 == 0


def recover_signs(
    z: ZetaSeries, zplus: ZetaSeries, zminus: ZetaSeries, p: int, q: int
) -> tuple[SignValue, SignValue, tuple[str, ...]] | None:
    """The signs shared by every germ e1*x^p + e2*y^q that rebuilds the input.

    A sign pair is kept when :func:`zeta.germ_invariants` of its germ equals
    all three series; a sign the kept pairs do not agree on is undetermined.
    Returns None when no pair is kept.
    """
    given = InvariantTriple(z, zplus, zminus)
    kept = {
        # for p = q, x <-> y makes the two mixed orders one germ
        (1, -1) if p == q and e1 != e2 else (e1, e2)
        for e1 in (1, -1)
        for e2 in (1, -1)
        if germ_invariants(DiagonalGerm(((e1, p), (e2, q))), z.order) == given
    }
    if not kept:
        return None
    eps_p, eps_q = (
        _SIGN[signs.pop()] if len(signs) == 1 else SignValue.UNDETERMINED
        for signs in map(set, zip(*kept))
    )
    # an odd q, or the open case, already explains an undetermined eps_q
    if eps_q is not SignValue.UNDETERMINED:
        notes = (
            "eps_q determined by matching all three series against the four "
            "germs +-x^p +- y^q (a vanishing test at a single fixed index is "
            "not reliable for every sign pattern)",
        )
    elif q % 2 == 0 and not _open_case(p, q):
        notes = ("both candidate signs reproduce the sign series",)
    else:
        notes = ()
    return eps_p, eps_q, notes


def classify(z: ZetaSeries, zplus: ZetaSeries, zminus: ZetaSeries) -> BrieskornClass:
    """Assemble the full classification report from the three series alone."""

    def inconsistent(note: str, p=None, q=None) -> BrieskornClass:
        return BrieskornClass(
            p=p,
            q=q,
            eps_p=SignValue.UNDETERMINED,
            eps_q=SignValue.UNDETERMINED,
            status=ClassStatus.INCONSISTENT,
            notes=(note,),
        )

    if not (z.order == zplus.order == zminus.order):
        return inconsistent("the three series must share a truncation order")
    try:
        p = recover_p(z)
    except ClassifyError as exc:
        return inconsistent(str(exc))
    if p == 1:
        return inconsistent(
            "p = 1: the germ is equivalent to a coordinate and lies outside "
            "the classification", p=1,
        )
    try:
        q = recover_q(z, p)
    except ClassifyError as exc:
        return inconsistent(str(exc), p=p)
    if z.order < 2 * q + 2:
        return inconsistent(
            f"truncation order {z.order} too small: classification needs at "
            f"least {2 * q + 2}", p=p, q=q,
        )
    signs = recover_signs(z, zplus, zminus, p, q)
    if signs is None:
        return inconsistent(NO_MATCHING_SIGN_NOTE, p=p, q=q)
    eps_p, eps_q, notes = signs
    open_case = _open_case(p, q)
    if open_case:
        notes = notes + (
            "p odd with q an even multiple of p: whether the sign of the "
            "second term moves the class is not known",
        )
    return BrieskornClass(
        p=p,
        q=q,
        eps_p=eps_p,
        eps_q=eps_q,
        status=ClassStatus.OPEN_CASE if open_case else ClassStatus.DETERMINED,
        notes=notes,
    )
