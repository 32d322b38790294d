"""Countable-scale decomposition labellings with symbolic class-size bounds.

An ordinal below epsilon_0 is split into countably many classes whose order
types stay below w^(n+1); the same recursion lifts to composite order terms
through an injective pairing of the index and summand labels.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Tuple

from .errors import ScatterCalcError
from .ordinal import (
    CnfOrdinal,
    ZERO,
    ensure_ordinal,
    fundamental_sequence,
    from_int,
    omega_power,
    ord_add,
    ord_mul,
)
from .terms import (
    Fin,
    Ord,
    OrderTerm,
    Rev,
    Scaled,
    SumList,
    validate_element,
)


class MilnerRadoError(ScatterCalcError):
    pass


class ElementOutOfRange(MilnerRadoError):
    pass


class UnsupportedConstructor(MilnerRadoError):
    pass


class LabelTooLarge(MilnerRadoError):
    """A composite label outgrew LABEL_BIT_LIMIT."""


# Work limit for term labels: each nesting level pairs two labels, roughly
# squaring them, so nested sums would otherwise grow the label's bit length
# geometrically with the depth.  4096 bits stays below Python's default limit
# on int-to-text conversion (4300 digits), so every label can be printed.
LABEL_BIT_LIMIT = 4096


def cantor1(m: int, n: int) -> int:
    """The pairing of index and summand labels, the one schema
    ``scatter-calc.v4`` fixes: the Cantor pairing shifted up by one,
    injective and at least m + n + 1."""
    return (m + n) * (m + n + 1) // 2 + n + 1


# -- ordinal labelling ----------------------------------------------------------

def _split_finite(exponent: CnfOrdinal) -> Tuple[CnfOrdinal, int]:
    """(delta, k) with exponent = delta + k, delta zero or a limit, k finite."""
    if exponent.is_successor():
        return CnfOrdinal(exponent.terms[:-1]), exponent.terms[-1][1]
    return exponent, 0


def _label_within_power(exponent: CnfOrdinal, xi: CnfOrdinal) -> int:
    """Label of position xi inside a block of type w^exponent.

    A successor exponent gamma + 1 adds 1 and keeps the part of xi below
    w^gamma, so the finite part k of the exponent adds k in one step; a
    limit exponent adds 1 and descends to the first member of its
    fundamental sequence whose power lies above xi.
    """
    label = 0
    while True:
        delta, k = _split_finite(exponent)
        if k:
            label += k
            xi = CnfOrdinal(tuple(t for t in xi.terms if t[0].key < delta.key))
        if delta.is_zero():
            return label
        exponent = fundamental_sequence(delta, _first_power_above(delta, xi))
        label += 1


def _first_power_above(delta: CnfOrdinal, xi: CnfOrdinal) -> int:
    """Least i with xi < w^(delta[i]) for a limit delta.  The powers increase
    with i, so after i = 0 the search doubles i past the answer and bisects."""
    def above(i: int) -> bool:
        return xi.key < omega_power(fundamental_sequence(delta, i)).key

    if above(0):
        return 0
    high = 1
    while not above(high):
        high *= 2
    return bisect.bisect_left(range(high), True, lo=high // 2 + 1, key=above)


def mr_label_ordinal(alpha, xi) -> int:
    """Class index of xi in the decomposition of alpha.

    xi lies in the block w^e_j * c_j of alpha at the first index j where
    their normal forms part, at the position given by its terms below w^e_j.
    Successor-exponent blocks descend one power per level and limit
    exponents descend along their fundamental sequence; a finite block gets
    label 0.  The class of label n always has order type below w^(n+1).
    """
    alpha, xi = ensure_ordinal(alpha), ensure_ordinal(xi)
    if xi.key >= alpha.key:
        raise ElementOutOfRange(f"{xi} is not an element of {alpha}")
    j = next((j for j, (a, x) in enumerate(zip(alpha.terms, xi.terms)) if a != x), len(xi.terms))
    exponent = alpha.terms[j][0]
    return _label_within_power(
        exponent, CnfOrdinal(tuple(t for t in xi.terms if t[0].key < exponent.key)))


def _bound_within_power(exponent: CnfOrdinal, n: int) -> CnfOrdinal:
    """Bound on class n of a block of type w^(delta + k), delta zero or a
    limit.  Each of the k successor steps takes 1 from n and multiplies by w,
    so the bound is w^n when class n - k of w^delta is bounded by w^(n - k)
    and 0 otherwise.  For delta = 0 that class is the one point of class 0;
    for a limit delta, omega-many segment pieces each below w^(n - k) sum to
    at most w^(n - k), and no class below 2 gets a piece."""
    delta, k = _split_finite(exponent)
    nonzero = n == k if delta.is_zero() else n - k >= 2
    return omega_power(from_int(n)) if nonzero else ZERO


def mr_class_type_bound(alpha, n: int) -> CnfOrdinal:
    """Ordinal B with otp(class n of alpha) <= B and B < w^(n+1).

    Exact for finite ordinals and successor-exponent blocks; limit-exponent
    blocks are capped at w^n, the value of the omega-fold segment sum.
    """
    alpha = ensure_ordinal(alpha)
    if n < 0:
        raise ValueError("class index must be a natural number")
    total = ZERO
    for exponent, coefficient in alpha.terms:
        piece = _bound_within_power(exponent, n)
        total = ord_add(total, ord_mul(piece, coefficient))
    return total


# -- term labelling ---------------------------------------------------------------

def _term_label(term: OrderTerm, elem: Any, trace: List[Tuple[int, int, int]]) -> int:
    if isinstance(term, Fin):
        return 0
    if isinstance(term, Ord):
        return mr_label_ordinal(term.ordinal, elem)
    if isinstance(term, Rev):       # the same classes, each with its type reversed
        return _term_label(term.inner, elem, trace)
    if isinstance(term, SumList):
        k, inner_elem = elem
        return _pair(0, _term_label(term.children[k], inner_elem, trace), trace)
    if isinstance(term, Scaled):
        index_elem, inner_elem = elem
        m = _term_label(term.index, index_elem, [])
        return _pair(m, _term_label(term.inner, inner_elem, trace), trace)
    raise UnsupportedConstructor(
        f"{type(term).__name__} terms are outside the labelled fragment")


def _pair(m: int, n: int, trace: List[Tuple[int, int, int]]) -> int:
    value = cantor1(m, n)
    if value.bit_length() > LABEL_BIT_LIMIT:
        raise LabelTooLarge(f"label exceeds {LABEL_BIT_LIMIT} bits")
    trace.append((m, n, value))
    return value


def mr_label_term(term: OrderTerm, elem: Any) -> int:
    """Label of a term element: base blocks via mr_label_ordinal, composite
    constructors via cantor1(index label, inner label)."""
    return mr_label_term_trace(term, elem)[0]


def mr_label_term_trace(term: OrderTerm, elem: Any
                        ) -> Tuple[int, List[Tuple[int, int, int]]]:
    """Label plus the (m, n, cantor1(m, n)) combination executed at each level,
    innermost first."""
    if not validate_element(term, elem):
        raise ElementOutOfRange(f"{elem!r} is not an element of {term.format()}")
    trace: List[Tuple[int, int, int]] = []
    label = _term_label(term, elem, trace)
    return label, trace


def mr_labeling(term: OrderTerm, elements) -> Dict[int, List[Any]]:
    """The label classes of the elements: each label maps to the elements
    carrying it, in input order."""
    classes: Dict[int, List[Any]] = {}
    for e in elements:
        classes.setdefault(mr_label_term(term, e), []).append(e)
    return classes


# -- verification-only subset check -------------------------------------------------


def ks_omega_check(classes: Dict[int, List[Any]], n: int) -> bool:
    """True iff class n has fewer than 4^n points.

    4^n is the size of the n-th power of the down-up pattern (two points
    descending, then two ascending), and a sorted sample holds a copy of a
    finite chain exactly when it has at least as many points.  So this is a
    necessary check for avoidance on the sample only: it certifies nothing
    about the infinite order.
    """
    if type(n) is not int or n < 0:
        raise ValueError("class index must be a natural number")
    return len(classes.get(n, ())).bit_length() <= 2 * n
