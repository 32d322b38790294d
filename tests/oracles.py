"""Independent test-side oracles.

These deliberately avoid the library's comparator code paths: finite orders
are materialized directly from the textbook construction rules, so that
sorting with the library comparator can be checked against them.  The
reference comparators walk the Cantor normal form recursively and never
read an ordinal's canonical key, hash or ``==``.  The structural facts of
a term (size, depth, well-ordered flags) are recomputed by walking it as a
tree, never read off its nodes.  The grid-graph checkers sort a plain set
of edges themselves and never read a ``GridGraph``, and the C-sets are
rebuilt with plain sets.  The step-up colour is rebuilt from the README's
formula with no library code at all.  The reference sampler draws as the
sampler did when it built random ordinals by ordinal sums of omega-powers
and de-duplicated its pool by each element's JSON text.  The reference
``compare_elements`` validates both arguments on every call, as the library
did before it remembered the elements it had checked.  The Milner-Rado block
label and class bound recurse once per successor step of the exponent, as
the library did before it took the finite part of an exponent in one step.
The Milner-Rado block walk sums the CNF blocks of an ordinal and subtracts on
the left, as the library did before it read the block off the normal forms.
The Milner-Rado avoidance check builds the n-th power of the down-up pattern
as a term and searches the class for a copy of it, as the library did before
it compared the class size with 4^n.  The value-tree check compares every
pair of entries, as the library did before it sorted the children of each
parent.  The eta embedding builds shuffle sequences from the tree recursion
alone, with no library comparator.
"""

import functools
import hashlib
import itertools
import json
import random
from typing import Tuple

from scatter_calc import Fin, FinSupp, Ord, Rev, Scaled, Shuffle, SumList
from scatter_calc.milner_rado import ElementOutOfRange, MilnerRadoError
from scatter_calc.ordinal import (
    ZERO,
    CnfOrdinal,
    OrdinalError,
    OrdinalLike,
    ensure_ordinal,
    from_int,
    fundamental_sequence,
    omega_power,
    ord_add,
    ord_mul,
    parse_ordinal,
)
from scatter_calc.terms import (
    InvalidElement,
    finsupp_elem,
    pow_term,
    search_embedding,
)


def reference_ord_compare(a, b):
    """Recursive CNF comparison: the leading terms decide, exponent first."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = reference_ord_compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


def reference_shuffle_compare(s, t):
    """Parity order: at the first disagreement d, even d favours the later
    sequence being a prefix or smaller, odd d the reverse."""
    d = None
    for i in range(max(len(s), len(t))):
        if i >= len(s) or i >= len(t) or reference_ord_compare(s[i], t[i]) != 0:
            d = i
            break
    if d is None:
        return 0
    if d % 2 == 0:
        if d == len(t):
            return -1
        if d == len(s):
            return 1
        return -1 if reference_ord_compare(t[d], s[d]) < 0 else 1
    if d == len(s):
        return -1
    if d == len(t):
        return 1
    return -1 if reference_ord_compare(s[d], t[d]) < 0 else 1


def reference_disagreement(inner, zero, x, y):
    """(position, x's value, y's value) at the largest position where two
    finite-support maps differ, or None: the union of both supports sorted
    in decreasing order, then a lookup of each map at every position."""
    positions = sorted([p for p, _ in x] + [p for p, _ in y],
                       key=functools.cmp_to_key(reference_ord_compare), reverse=True)

    def value_at(f, position):
        for p, v in f:
            if reference_ord_compare(p, position) == 0:
                return v
        return zero

    for position in positions:
        vx, vy = value_at(x, position), value_at(y, position)
        if reference_cmp(inner, vx, vy) != 0:
            return position, vx, vy
    return None


def reference_cmp(term, x, y):
    """The element order of term, built on the reference comparators."""
    if isinstance(term, Fin):
        return (x > y) - (x < y)
    if isinstance(term, Ord):
        return reference_ord_compare(x, y)
    if isinstance(term, Rev):
        return -reference_cmp(term.inner, x, y)
    if isinstance(term, SumList):
        if x[0] != y[0]:
            return -1 if x[0] < y[0] else 1
        return reference_cmp(term.children[x[0]], x[1], y[1])
    if isinstance(term, Scaled):
        return (reference_cmp(term.index, x[0], y[0])
                or reference_cmp(term.inner, x[1], y[1]))
    if isinstance(term, Shuffle):
        return reference_shuffle_compare(x, y)
    if isinstance(term, FinSupp):
        found = reference_disagreement(term.inner, term.zero, x, y)
        return 0 if found is None else reference_cmp(term.inner, found[1], found[2])
    raise AssertionError(f"not an OrderTerm: {term}")


def reference_compare_elements(term, x, y):
    """compare_elements without its memo: both arguments validated on every
    call, then their sort keys compared."""
    for elem in (x, y):
        if not term.validate(elem):
            raise InvalidElement(f"{elem!r} is not an element of {term.format()}")
    kx, ky = term._key(x), term._key(y)
    return (kx > ky) - (kx < ky)


def reference_depth(term):
    """Constructor nesting depth, walking the term as a tree; fin, ord and
    shuffle count 1."""
    if isinstance(term, (Rev, FinSupp)):
        return 1 + reference_depth(term.inner)
    if isinstance(term, SumList):
        return 1 + max(map(reference_depth, term.children))
    if isinstance(term, Scaled):
        return 1 + max(reference_depth(term.inner), reference_depth(term.index))
    return 1


def reference_finite_size(term):
    """Number of elements when the denotation is finite, else None."""
    if isinstance(term, Fin):
        return term.size
    if isinstance(term, Ord):
        return term.ordinal.as_int() if term.ordinal.is_finite() else None
    if isinstance(term, Rev):
        return reference_finite_size(term.inner)
    if isinstance(term, SumList):
        sizes = [reference_finite_size(c) for c in term.children]
        return None if None in sizes else sum(sizes)
    if isinstance(term, Scaled):
        a, b = reference_finite_size(term.inner), reference_finite_size(term.index)
        if a == 0 or b == 0:   # no copies, or copies of the empty order
            return 0
        return None if a is None or b is None else a * b
    if isinstance(term, Shuffle):
        return None
    if isinstance(term, FinSupp):
        # only the empty support when the length is 0 or the inner order has
        # one point, even if the other is infinite
        inner = reference_finite_size(term.inner)
        if term.length.is_zero() or inner == 1:
            return 1
        if inner is None or not term.length.is_finite():
            return None
        return inner ** term.length.as_int()
    raise AssertionError(f"not a term: {term}")


def reference_well_ordered(term):
    if isinstance(term, (Fin, Ord)):
        return True
    if isinstance(term, Rev):
        return reference_anti_well_ordered(term.inner)
    if isinstance(term, SumList):
        return all(reference_well_ordered(c) for c in term.children)
    if isinstance(term, Scaled):
        return reference_finite_size(term) == 0 or (
            reference_well_ordered(term.inner) and reference_well_ordered(term.index))
    return reference_finite_size(term) is not None


def reference_anti_well_ordered(term):
    if isinstance(term, Fin):
        return True
    if isinstance(term, Ord):
        return term.ordinal.is_finite()
    if isinstance(term, Rev):
        return reference_well_ordered(term.inner)
    if isinstance(term, SumList):
        return all(reference_anti_well_ordered(c) for c in term.children)
    if isinstance(term, Scaled):
        return reference_finite_size(term) == 0 or (
            reference_anti_well_ordered(term.inner) and reference_anti_well_ordered(term.index))
    return reference_finite_size(term) is not None


def reference_admissible_index(term):
    """Admissible index of a scaled sum: finite, well- or anti-well-ordered."""
    return (reference_finite_size(term) is not None or reference_well_ordered(term)
            or reference_anti_well_ordered(term))


def textbook_materialize(term):
    """The denoted finite order as a list in ascending order, built without
    consulting any library comparator."""
    if isinstance(term, Fin):
        return list(range(term.size))
    if isinstance(term, Ord):
        return [from_int(i) for i in range(term.ordinal.as_int())]
    if isinstance(term, Rev):
        return list(reversed(textbook_materialize(term.inner)))
    if isinstance(term, SumList):
        out = []
        for k, child in enumerate(term.children):
            out.extend((k, e) for e in textbook_materialize(child))
        return out
    if isinstance(term, Scaled):
        if reference_finite_size(term) == 0:   # one side may be infinite
            return []
        inner = textbook_materialize(term.inner)
        return [(ie, e) for ie in textbook_materialize(term.index) for e in inner]
    if isinstance(term, FinSupp):
        if term.length.is_zero():   # the inner order may be infinite
            return [()]
        inner = textbook_materialize(term.inner)
        if len(inner) == 1:
            return [()]
        # the value at the largest position is the most significant
        positions = [from_int(i) for i in range(term.length.as_int())][::-1]
        rows = [[]]
        for p in positions:
            rows = [row + [(p, v)] for row in rows for v in inner]
        return [tuple((p, v) for p, v in row if v != term.zero) for row in rows]
    raise AssertionError(f"not finite: {term}")


def grid_vertices(k, l):
    """Every vertex (column, row) of the k-by-l grid, in sorted order."""
    return [(c, r) for c in range(k) for r in range(l)]


def reference_triangle_free(k, l, edges):
    """Triangle scan over a set of edges: the first edge in sorted order
    with a common neighbour, completed by its least common neighbour, as a
    sorted triple; None when there is no triangle."""
    verts = grid_vertices(k, l)
    index = {v: i for i, v in enumerate(verts)}
    masks = [0] * len(verts)
    for a, b in edges:
        ia, ib = index[a], index[b]
        masks[ia] |= 1 << ib
        masks[ib] |= 1 << ia
    for a, b in sorted(edges):
        common = masks[index[a]] & masks[index[b]]
        if common:
            low = common & -common
            c = verts[low.bit_length() - 1]
            return tuple(sorted((a, b, c)))
    return None


def reference_corner_invariant(edges, csets):
    """The least misshapen edge in sorted order, else the least edge of the
    first group of edges from one vertex into one column that outnumbers
    the C-set of that row and column; None when neither exists."""
    overfull = None
    key = None
    for edge in sorted(edges):
        (a, ra), (b, rb) = edge
        if not (a < b and rb < ra):
            return edge
        if key != (a, ra, b):
            key, first, count = (a, ra, b), edge, 0
        count += 1
        if overfull is None and count > len(csets.get((ra, b), ())):
            overfull = first
    return overfull


def reference_csets(params, subtract=True):
    """The C-sets of the grid recursion with plain sets, written from the
    ``build_neg_graph`` docstring, as a dict from (row, col) to a sorted
    tuple.  ``subtract=False`` switches the subtraction off, which is what
    keeps the graph triangle-free, so these mutant C-sets have triangles."""
    k, l = params.k, params.l
    C = {}
    for rho in range(l):
        for zeta in range(k):
            used = set()
            for nu in range(zeta if subtract else 0):
                for theta in C.get((rho, nu), ()):
                    used |= C.get((theta, zeta), set())
            entries = set()
            grho = params.g.get(rho)
            for iota in range(zeta if grho else 0):
                ginner = params.g.get(grho[iota])
                for mu in range(min(params.u[rho][zeta], k) if ginner else 0):
                    candidates = params.d.get(ginner[mu], frozenset()) - used
                    if candidates:
                        entries.add(min(candidates))
            if entries:
                C[(rho, zeta)] = entries
    return {key: tuple(sorted(v)) for key, v in C.items()}


def reference_cset_edges(csets):
    """The set of edges ((iota, rho), (nu, xi)) for xi in C[rho, nu], iota < nu."""
    return {((i, r), (n, x)) for (r, n), xs in csets.items() for x in xs for i in range(n)}


def _ord_sub_left(a: OrdinalLike, b: OrdinalLike) -> CnfOrdinal:
    """The unique s with a + s = b; requires a <= b."""
    a, b = ensure_ordinal(a), ensure_ordinal(b)
    for i, (ta, tb) in enumerate(zip(a.terms, b.terms)):
        if ta == tb:
            continue
        if ta[0].key < tb[0].key:
            return CnfOrdinal(b.terms[i:])
        if ta[0].key > tb[0].key:
            raise OrdinalError(f"{a} > {b}: left subtraction undefined")
        if ta[1] < tb[1]:
            return CnfOrdinal(((tb[0], tb[1] - ta[1]),) + b.terms[i + 1:])
        raise OrdinalError(f"{a} > {b}: left subtraction undefined")
    if len(a.terms) > len(b.terms):
        raise OrdinalError(f"{a} > {b}: left subtraction undefined")
    return CnfOrdinal(b.terms[len(a.terms):])


def _split_at_exponent(xi: OrdinalLike, gamma: OrdinalLike) -> Tuple[int, CnfOrdinal]:
    """Write xi < w^(gamma+1) as w^gamma*i + rest with rest < w^gamma."""
    xi, gamma = ensure_ordinal(xi), ensure_ordinal(gamma)
    count = 0
    rest = []
    for exponent, coefficient in xi.terms:
        if exponent.key > gamma.key:
            raise OrdinalError(f"{xi} is not below w^({gamma}+1)")
        if exponent.key == gamma.key:
            count = coefficient
        else:
            rest.append((exponent, coefficient))
    return count, CnfOrdinal(tuple(rest))


def reference_label_ordinal(alpha, xi, within):
    """Class index of xi in the decomposition of alpha, found by summing
    alpha's CNF blocks with ``ord_add`` until one passes xi; ``within``
    labels the position inside that block."""
    alpha, xi = ensure_ordinal(alpha), ensure_ordinal(xi)
    if xi.key >= alpha.key:
        raise ElementOutOfRange(f"{xi} is not an element of {alpha}")
    if alpha.is_finite():
        return 0
    running = ZERO
    for exponent, coefficient in alpha.terms:
        nxt = ord_add(running, omega_power(exponent, coefficient))
        if xi.key < nxt.key:
            delta = _ord_sub_left(running, xi)
            _, rest = _split_at_exponent(delta, exponent)
            return within(exponent, rest)
        running = nxt
    raise MilnerRadoError("unreachable: xi below alpha but in no block")


def reference_label_within_power(exponent, xi):
    """Label of position xi inside a block of type w^exponent, one recursion
    level per successor step and per fundamental-sequence descent."""
    if exponent.is_zero():
        return 0
    if exponent.is_successor():
        gamma = exponent.predecessor()
        _, rest = _split_at_exponent(xi, gamma)
        return 1 + reference_label_within_power(gamma, rest)
    i = 0
    while xi.key >= omega_power(fundamental_sequence(exponent, i)).key:
        i += 1
    return 1 + reference_label_within_power(fundamental_sequence(exponent, i), xi)


def reference_bound_within_power(exponent, n):
    """Bound on class n of a block of type w^exponent, one recursion level
    per successor step."""
    if exponent.is_zero():
        return from_int(1) if n == 0 else ZERO
    if n == 0:
        return ZERO
    if exponent.is_successor():
        inner = reference_bound_within_power(exponent.predecessor(), n - 1)
        if inner.is_zero():
            return ZERO
        return ord_mul(inner, omega_power(from_int(1)))
    if n <= 1:
        return ZERO
    return omega_power(from_int(n))


def reference_down_up_power(n):
    """Finite stand-in for the n-th power of (2 points descending + 2 ascending)."""
    if n == 0:
        return Fin(1)
    return pow_term(SumList((Rev(Fin(2)), Fin(2))), n)


def reference_ks_omega_check(classes, n):
    """True iff the down-up pattern's n-th power does not embed into class n."""
    return search_embedding(reference_down_up_power(n), classes.get(n, [])) is None


def reference_step_up_colour(seed, x, y):
    """The ``step-up`` verb's colour of the pair {x, y} of P x R, written from
    the README: the low bit of the one-byte BLAKE2b digest of the UTF-8 text
    ``[seed, [a, [b1, ..., bk]], [a', [b'1, ..., b'k]]]``, comma-space
    separated, with (a, b) before (a', b') in the lexicographic order."""
    low, high = sorted([(x[0], tuple(x[1])), (y[0], tuple(y[1]))])

    def text(point):
        a, b = point
        return f"[{a}, [{', '.join(str(v) for v in b)}]]"

    data = f"[{seed}, {text(low)}, {text(high)}]".encode("utf-8")
    return hashlib.blake2b(data, digest_size=1).digest()[0] & 1


def reference_validate_alpha_tree(tree):
    """The value-tree check with every pair of entries compared: None when
    coherent, otherwise the first violation found, as a tuple of its kind
    and the sequences involved."""
    for seq in tree.entries:
        if len(seq) == 0:
            return ("empty-sequence", seq)
        for x in seq:
            if x.key >= tree.alpha.key:
                return ("entry-above-alpha", seq)
        for i in range(len(seq) - 1):
            if seq[i].key <= seq[i + 1].key:
                return ("sequence-not-decreasing", seq)
    for seq, val in tree.entries.items():
        if len(seq) > 1:
            parent = seq[:-1]
            if parent in tree.entries and val.key >= tree.entries[parent].key:
                return ("child-not-below-parent", seq, parent)
    for seq_a, seq_b in itertools.combinations(tree.entries, 2):
        if len(seq_a) != len(seq_b) or seq_a[:-1] != seq_b[:-1]:
            continue
        ca, cb = seq_a[-1], seq_b[-1]
        va, vb = tree.entries[seq_a], tree.entries[seq_b]
        if ca.key < cb.key and va.key >= vb.key:
            return ("siblings-not-increasing", seq_a, seq_b)
        if ca.key > cb.key and va.key <= vb.key:
            return ("siblings-not-increasing", seq_b, seq_a)
    return None


# -- the shuffle order ---------------------------------------------------------------------

def eta_embedding(depth, m=()):
    """The image, in in-order, of the complete binary tree of this depth under
    the embedding E(m, depth) into the shuffle order.  The root goes to m.0;
    when len(m) is odd, E(m.0.0) lies below it and E(m.1) above, and when
    len(m) is even, E(m.1) lies below and E(m.0.0) above.  In-order on the
    tree is the order of the dyadic rationals, which is eta, and the image at
    depth d is every other point of the image at depth d + 1, so the union
    over all depths is a copy of eta."""
    if depth == 0:
        return []
    low = eta_embedding(depth - 1, m + (ZERO, ZERO))
    high = eta_embedding(depth - 1, m + (from_int(1),))
    if len(m) % 2 == 0:
        low, high = high, low
    return low + [m + (ZERO,)] + high


# -- sampling ---------------------------------------------------------------------------

def element_key(term, elem):
    """An element's JSON text, the key the reference sampler de-duplicates by."""
    return json.dumps(term.encode(elem), sort_keys=True, separators=(",", ":"))


def _reference_random_below_power(exponent, rng, depth):
    if depth > 4 or rng.random() < 0.3:
        return from_int(rng.randrange(200))
    smaller = reference_random_ordinal_below(exponent, rng, depth + 1)
    value = omega_power(smaller, rng.randrange(1, 5))
    if not smaller.is_zero() and rng.random() < 0.5:
        value = ord_add(value, from_int(rng.randrange(10)))
    return value


def reference_random_ordinal_below(a, rng, depth=0):
    """A random ordinal below a, summed up with ``ord_add``: a's terms before
    a drawn j, then w^e_j*c for a drawn c < c_j, then, for e_j > 0, either a
    number below 200 or w^(a random ordinal below e_j)*m plus maybe a number
    below 10.  A draw below 1 is 0 and reads nothing."""
    n = len(a.terms)
    j = rng.randrange(n) if n > 1 else 0
    exponent, coefficient = a.terms[j]
    c = rng.randrange(coefficient) if coefficient > 1 else 0
    value = ord_add(CnfOrdinal(a.terms[:j]), omega_power(exponent, c))
    if exponent.is_zero():
        return value
    return ord_add(value, _reference_random_below_power(exponent, rng, depth))


SHUFFLE_LETTERS = [parse_ordinal(text) for text in
                   [str(i) for i in range(10)]
                   + [f"w*{c} + {k}" for c in (1, 2, 3) for k in (0, 1, 5)]
                   + ["w^2", "w^2 + 3"]]


def reference_random_element(term, rng):
    """One random draw of an element of term, walking it as a tree.  A sum
    draws among its non-empty children."""
    if isinstance(term, Fin):
        return rng.randrange(term.size)
    if isinstance(term, Ord):
        return reference_random_ordinal_below(term.ordinal, rng)
    if isinstance(term, Rev):
        return reference_random_element(term.inner, rng)
    if isinstance(term, SumList):
        live = [k for k, child in enumerate(term.children) if reference_finite_size(child) != 0]
        k = live[rng.randrange(len(live))]
        return k, reference_random_element(term.children[k], rng)
    if isinstance(term, Scaled):
        index = reference_random_element(term.index, rng)
        return index, reference_random_element(term.inner, rng)
    if isinstance(term, Shuffle):
        length = rng.randrange(0, 8)
        menu = [x for x in SHUFFLE_LETTERS if reference_ord_compare(x, term.alphabet) < 0]
        return tuple(rng.choice(menu) for _ in range(length))
    if isinstance(term, FinSupp):
        if term.length.is_zero():
            return ()
        values = [v for v in (reference_random_element(term.inner, rng) for _ in range(8))
                  if reference_cmp(term.inner, v, term.zero) != 0]
        if not values:
            return ()
        mapping = {}
        for _ in range(rng.randrange(0, 4)):
            mapping[reference_random_ordinal_below(term.length, rng)] = rng.choice(values)
        return finsupp_elem(mapping)
    raise AssertionError(f"not a term: {term}")


def reference_sample(term, budget, seed=0):
    """The sampler's output: the term's canonical witnesses, then seeded
    draws until the pool, de-duplicated by JSON text, holds 3 * budget
    elements (or all of a finite term) or 12 * budget draws are spent; the
    pool sorted, then thinned evenly to budget elements."""
    size = reference_finite_size(term)
    if size == 0:
        return []
    rng = random.Random(seed)
    pool = {}
    for elem in term.canonical(budget):
        pool.setdefault(element_key(term, elem), elem)
    target = 3 * budget if size is None else min(3 * budget, size)
    for _ in range(12 * budget):
        if len(pool) >= target:
            break
        elem = reference_random_element(term, rng)
        pool.setdefault(element_key(term, elem), elem)
    ordered = sorted(pool.values(),
                     key=functools.cmp_to_key(lambda x, y: reference_cmp(term, x, y)))
    if len(ordered) <= budget:
        return ordered
    if budget == 1:
        return ordered[:1]
    step = (len(ordered) - 1) / (budget - 1)
    return [ordered[i] for i in sorted({round(i * step) for i in range(budget)})]
