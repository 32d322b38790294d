"""Term algebra denoting countable scattered linear order types.

Terms are built from finite chains, well-orders in Cantor normal form,
reversal, finite concatenation, index-scaled sums, the parity shuffle order
on finite ordinal sequences, and anti-lexicographic finite-support sums.
Every term carries an explicit element model and an exact comparator, so
finite fragments of the denoted order can be materialized, sampled and
searched.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import weakref
from operator import attrgetter, neg
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .errors import ScatterCalcError
from .ordinal import (
    TERM_DEPTH_LIMIT,
    CnfOrdinal,
    OMEGA,
    ONE,
    SHARED_NATURALS,
    ZERO,
    _NATURALS,
    _OrdinalParser,
    ensure_ordinal,
    format_ordinal,
    fundamental_sequence,
    from_int,
    from_terms,
    ord_add,
    ord_mul,
    omega_power,
    parse_ordinal,
)


class TermError(ScatterCalcError):
    pass


class TermSyntaxError(TermError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TermTooDeep(TermError):
    """A pow() expansion would nest deeper than TERM_DEPTH_LIMIT."""


class InvalidIndexTerm(TermError):
    pass


class InvalidElement(TermError):
    pass


class PatternNotFinite(TermError):
    pass


# Work limit for term text, in characters.  The text writes a shared subterm
# once per occurrence, so fin(2) inside d nested pow(..., 2) prints 2^d copies
# of fin(2): 268M characters at d = 24.  2^20 characters hold the text of any
# term typed on a command line without pow.
TERM_TEXT_LIMIT = 2 ** 20

# Output-size limit for sample_elements: the most elements a sample holds.
# Sampling time grows with the budget; at this limit the slowest corpus term,
# finsupp(w, rev(ord(w)), "0"), samples in about 1.0 s (0.9-1.4 s over five
# runs) on a 2-CPU Intel Xeon host with Python 3.11.7.
SAMPLE_BUDGET_LIMIT = 10 ** 4

# The largest finite size a term states exactly: Python writes integers of at
# most 4300 digits as text by default.  A larger finite size is stored as
# SIZE_LIMIT + 1, and sizes are counted from the children's stored ones, so
# no count grows much past this.
SIZE_LIMIT = 10 ** 4300 - 1

# Elements compare_elements remembers per term as checked: a sample pool at
# the benchmark's budget (48) plus a materialisation of up to 8 points fits.
CHECKED_LIMIT = 64


# -- term constructors --------------------------------------------------------

_FACTS = ("finite_size", "depth", "well_ordered", "anti_well_ordered")


def _clamp(size: int) -> int:
    """size, or SIZE_LIMIT + 1 when it is larger."""
    return size if size <= SIZE_LIMIT else SIZE_LIMIT + 1


class OrderTerm:
    """A term node.  Constructors intern their nodes in a weak table, so
    structurally equal terms are one object, ``==`` is identity and a shared
    subterm is built, hashed and compared once.

    Every call checks its arguments and derives the node's facts from its
    children's (``_facts``): the ``finite_size`` (None when the denotation
    is infinite, and SIZE_LIMIT + 1 for any finite size above SIZE_LIMIT:
    fin(2) inside d nested pow(..., 2) has 2^(2^d) elements), the ``depth``
    (constructor nesting; fin, ord and shuffle count 1) and the
    ``well_ordered`` and ``anti_well_ordered`` flags.  ``finite`` and
    ``empty`` are read from the size.  A new node is built complete: it
    stores its facts, its hash, its key kernel (``_key``), its draw kernel
    (``_draw``, None when the node is empty) and the empty memo of
    ``compare_elements`` (``_checked``).

    Every subclass implements the element model: validate, encode, _decode,
    _format (its text, given a function that writes each child),
    _materialize, _canonical, _compile (its draw kernel, a function of a
    ``random.Random`` returning one element, built from its children's) and
    _compile_key (its key kernel, likewise).  A key kernel maps a valid
    element to its sort key, a flat tuple of ints whose tuple order is the
    element order.  No key is a proper prefix of another key of the same
    term, so a parent may splice a child's key between tokens of its own,
    and a negated key sorts in reverse.  No kernel holds its own node, so a
    node dies with its last reference.
    """

    __slots__ = _FACTS + ("_hash", "_checked", "_draw", "_key", "__weakref__")
    fields: Tuple[str, ...] = ()
    _table: "weakref.WeakValueDictionary[tuple, OrderTerm]" = weakref.WeakValueDictionary()

    def __new__(cls, *args):
        facts = cls._facts(*args)
        key = (cls,) + args
        node = OrderTerm._table.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.fields + _FACTS, args + facts):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_hash", hash(key))
            object.__setattr__(node, "_key", node._compile_key())
            object.__setattr__(node, "_draw", None if node.empty else node._compile())
            object.__setattr__(node, "_checked", {})
            OrderTerm._table[key] = node
        return node

    def _frozen(self, *args):
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    __setattr__ = __delattr__ = _frozen

    def __hash__(self):
        return self._hash

    def __reduce__(self):   # copies and unpickled terms are interned too
        return type(self), tuple(getattr(self, name) for name in self.fields)

    @property
    def finite(self) -> bool:
        return self.finite_size is not None

    @property
    def empty(self) -> bool:
        return self.finite_size == 0

    def format(self) -> str:
        """The term's text.  Its length is counted first, once per distinct
        subterm, and a text longer than TERM_TEXT_LIMIT is refused unbuilt."""
        lengths = {}

        def length(term):
            if term not in lengths:
                children = []
                shell = term._format(lambda child: children.append(child) or "")
                lengths[term] = len(shell) + sum(length(c) for c in children)
            return lengths[term]

        if length(self) > TERM_TEXT_LIMIT:
            raise TermError(f"term text of {length(self)} characters exceeds the limit "
                            f"of {TERM_TEXT_LIMIT}")
        return self._text()

    def _text(self) -> str:
        return self._format(OrderTerm._text)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{type(self).__name__}({args})"

    def decode(self, data: Any) -> Any:
        """The element encoded by data.  Composite terms decode their
        children with ``_decode``, so the element is validated once, here."""
        elem = self._decode(data)
        if not self.validate(elem):
            raise self._undecodable(data, "decoded value is not a valid element")
        return elem

    def _undecodable(self, data: Any, reason: str) -> InvalidElement:
        return InvalidElement(f"cannot decode {data!r} for {self.format()}: {reason}")

    def materialize(self) -> List[Any]:
        """All elements of a finite-denotation term, ascending, built structurally."""
        if not self.finite:
            raise PatternNotFinite(f"{self.format()} does not denote a finite order")
        return self._materialize()

    def canonical(self, want: int) -> List[Any]:
        """At most max(want, 8) small witnesses of the order: all of it when
        it is that small and finite, else its own witnesses thinned evenly."""
        cap = max(want, 8)
        size = self.finite_size
        if size is not None and size <= cap:
            return self.materialize()
        return _thin(self._canonical(want), cap)


def _decode_ordinal(term: OrderTerm, data: Any) -> CnfOrdinal:
    """The ordinal that data, a natural number or ordinal text, encodes; a
    refusal names term, whose element data is part of."""
    if type(data) is int and data >= 0:
        return from_int(data)
    if isinstance(data, str):
        try:
            return parse_ordinal(data)
        except ScatterCalcError as exc:
            raise term._undecodable(data, str(exc)) from exc
    raise term._undecodable(data, "expected a natural number or an ordinal string")


class Fin(OrderTerm):
    __slots__ = fields = ("size",)

    @staticmethod
    def _facts(size):
        if type(size) is not int or size < 0:
            raise TermError(f"fin() needs a natural number, got {size!r}")
        return _clamp(size), 1, True, True

    def validate(self, elem): return type(elem) is int and 0 <= elem < self.size
    def _compile_key(self): return lambda x: (x,)
    def encode(self, elem): return elem
    def _format(self, text): return f"fin({self.size})"
    def _materialize(self): return list(range(self.size))
    def _canonical(self, want): return list(range(min(self.size, want)))

    def _decode(self, data):
        if type(data) is not int:
            raise self._undecodable(data, "expected an integer")
        return data

    def _compile(self):
        size, width = self.size, self.size.bit_length()
        return lambda rng: _below(rng.getrandbits, size, width)


class Ord(OrderTerm):
    __slots__ = fields = ("ordinal",)

    @staticmethod
    def _facts(ordinal):
        if not isinstance(ordinal, CnfOrdinal):
            raise TermError("ord() needs a CnfOrdinal")
        finite = ordinal.is_finite()
        return _clamp(ordinal.as_int()) if finite else None, 1, True, finite

    def validate(self, elem): return isinstance(elem, CnfOrdinal) and elem.key < self.ordinal.key
    def _compile_key(self): return attrgetter("key")
    def encode(self, elem): return format_ordinal(elem)
    def _format(self, text): return f"ord({format_ordinal(self.ordinal)})"
    def _materialize(self): return [from_int(i) for i in range(self.ordinal.as_int())]
    def _canonical(self, want): return _canonical_ordinals(self.ordinal, want)
    def _compile(self): return _ordinal_kernel(self.ordinal)
    def _decode(self, data): return _decode_ordinal(self, data)


class Rev(OrderTerm):
    __slots__ = fields = ("inner",)

    @staticmethod
    def _facts(inner):
        return inner.finite_size, inner.depth + 1, inner.anti_well_ordered, inner.well_ordered

    def validate(self, elem): return self.inner.validate(elem)
    def encode(self, elem): return self.inner.encode(elem)
    def _decode(self, data): return self.inner._decode(data)
    def _format(self, text): return f"rev({text(self.inner)})"
    def _materialize(self): return list(reversed(self.inner.materialize()))
    def _canonical(self, want): return self.inner.canonical(want)
    def _compile(self): return self.inner._draw

    def _compile_key(self):
        # the inner keys are prefix-free, so the first entry where two differ
        # decides, and negating every entry reverses the order exactly
        inner = self.inner._key
        return lambda x: tuple(map(neg, inner(x)))


class SumList(OrderTerm):
    __slots__ = fields = ("children",)

    @staticmethod
    def _facts(children):
        if not children:
            raise TermError("sum[] needs at least one child")
        sizes = [c.finite_size for c in children]
        return (None if None in sizes else _clamp(sum(sizes)),
                1 + max(c.depth for c in children),
                all(c.well_ordered for c in children),
                all(c.anti_well_ordered for c in children))

    def encode(self, elem): return {"i": elem[0], "e": self.children[elem[0]].encode(elem[1])}
    def _format(self, text): return "sum[" + ", ".join(text(c) for c in self.children) + "]"

    def validate(self, elem):
        if not (isinstance(elem, tuple) and len(elem) == 2):
            return False
        k, inner = elem
        return (type(k) is int and 0 <= k < len(self.children)
                and self.children[k].validate(inner))

    def _decode(self, data):
        if not (isinstance(data, dict) and set(data) == {"i", "e"}):
            raise self._undecodable(data, 'expected {"i": k, "e": ...}')
        k = data["i"]
        if not (type(k) is int and 0 <= k < len(self.children)):
            raise self._undecodable(data, "child index out of range")
        return k, self.children[k]._decode(data["e"])

    def _materialize(self):
        return [(k, e) for k, child in enumerate(self.children) for e in child.materialize()]

    def _canonical(self, want):
        per = max(1, want // len(self.children))
        return [(k, e) for k, child in enumerate(self.children) for e in child.canonical(per)]

    def _compile(self):
        # draws pick among the non-empty children, keeping their indices; with
        # none empty this is randrange(len(children))
        live = tuple((k, child._draw) for k, child in enumerate(self.children) if not child.empty)
        n, width = len(live), len(live).bit_length()

        def draw(rng):
            k, child = live[_below(rng.getrandbits, n, width)]
            return k, child(rng)
        return draw

    def _compile_key(self):
        keys = tuple(child._key for child in self.children)
        return lambda x: (x[0],) + keys[x[0]](x[1])


class Scaled(OrderTerm):
    """The sum of copies of inner along index, an admissible index: finite,
    well-ordered or anti-well-ordered (finite orders are both)."""

    __slots__ = fields = ("inner", "index")

    @staticmethod
    def _facts(inner, index):
        if not (index.well_ordered or index.anti_well_ordered):
            raise InvalidIndexTerm(
                f"scaled() index must be finite, well-ordered or anti-well-ordered: "
                f"{index.format()}")
        depth = 1 + max(inner.depth, index.depth)
        if inner.empty or index.empty:   # the empty order, as fin(0) is
            return 0, depth, True, True
        a, b = inner.finite_size, index.finite_size
        return (None if a is None or b is None else _clamp(a * b),
                depth,
                inner.well_ordered and index.well_ordered,
                inner.anti_well_ordered and index.anti_well_ordered)

    def _format(self, text): return f"scaled({text(self.inner)}, {text(self.index)})"

    def validate(self, elem):
        if not (isinstance(elem, tuple) and len(elem) == 2):
            return False
        return self.index.validate(elem[0]) and self.inner.validate(elem[1])

    def encode(self, elem):
        return {"i": self.index.encode(elem[0]), "e": self.inner.encode(elem[1])}

    def _decode(self, data):
        if not (isinstance(data, dict) and set(data) == {"i", "e"}):
            raise self._undecodable(data, 'expected {"i": idx, "e": ...}')
        return self.index._decode(data["i"]), self.inner._decode(data["e"])

    def _materialize(self):
        if self.empty:   # the other side may be infinite
            return []
        inner = self.inner.materialize()
        return [(ie, e) for ie in self.index.materialize() for e in inner]

    def _canonical(self, want):
        half = max(2, int(want ** 0.5) + 1)
        inner = self.inner.canonical(half)
        return [(ie, e) for ie in self.index.canonical(half) for e in inner]

    def _compile(self):
        index, inner = self.index._draw, self.inner._draw
        return lambda rng: (index(rng), inner(rng))

    def _compile_key(self):
        index, inner = self.index._key, self.inner._key
        return lambda x: index(x[0]) + inner(x[1])


class Shuffle(OrderTerm):
    __slots__ = fields = ("alphabet",)

    @staticmethod
    def _facts(alphabet):
        if not isinstance(alphabet, CnfOrdinal) or alphabet < 2:
            raise TermError("shuffle() needs an ordinal alphabet of size >= 2")
        return None, 1, False, False

    def encode(self, elem): return [format_ordinal(x) for x in elem]
    def _format(self, text): return f"shuffle({format_ordinal(self.alphabet)})"

    def validate(self, elem):
        if not isinstance(elem, tuple):
            return False
        bound = self.alphabet.key
        return all(isinstance(x, CnfOrdinal) and x.key < bound for x in elem)

    def _decode(self, data):
        if not isinstance(data, list):
            raise self._undecodable(data, "expected a list of ordinal strings")
        return tuple(_decode_ordinal(self, x) for x in data)

    def _canonical(self, want):
        letters = [x for x in (ZERO, ONE) if x.key < self.alphabet.key]
        out = [()]
        for length in (1, 2, 3):
            out.extend(tuple(p) for p in itertools.product(letters, repeat=length))
        return out

    def _compile(self):
        menu = _SMALL_ORDINAL_MENU[:bisect.bisect_left(_SMALL_ORDINAL_KEYS, self.alphabet.key)]
        n, width = len(menu), len(menu).bit_length()

        def draw(rng):   # randrange(0, 8) letters, each a choice(menu)
            bits = rng.getrandbits
            return tuple([menu[_below(bits, n, width)] for _ in range(_below(bits, 8, 4))])
        return draw

    def _compile_key(self): return _shuffle_key


class FinSupp(OrderTerm):
    """Anti-lexicographic sum of ``length`` copies of inner with finite
    support away from the designated ``zero``.  An element is its support:
    a tuple of (position, inner element) pairs with positions strictly
    decreasing and no value equal to ``zero``."""

    __slots__ = fields = ("length", "inner", "zero")

    @staticmethod
    def _facts(length, inner, zero):
        if not isinstance(length, CnfOrdinal):
            raise TermError("finsupp() length must be a CnfOrdinal")
        if not inner.validate(zero):
            raise InvalidElement(
                f"designated zero {zero!r} is not an element of {inner.format()}")
        size = inner.finite_size
        if length.is_zero() or size == 1:   # only the empty support: one point
            size = 1
        elif size is not None and length.is_finite():
            # size^length >= 2^((bits(size) - 1) * length), so past the limit's
            # bit length the power passes it; short of it the power has at most
            # twice its bits
            n = length.as_int()
            size = (SIZE_LIMIT + 1 if (size.bit_length() - 1) * n >= SIZE_LIMIT.bit_length()
                    else _clamp(size ** n))
        else:
            size = None
        return size, inner.depth + 1, size is not None, size is not None

    def validate(self, elem):
        # a tuple of 2-tuples: a valid element is immutable, as the memo of
        # compare_elements needs
        if type(elem) is not tuple:
            return False
        bound = self.length
        for entry in elem:
            if not (type(entry) is tuple and len(entry) == 2):
                return False
            position, value = entry
            if not (isinstance(position, CnfOrdinal) and position.key < bound.key
                    and self.inner.validate(value) and value != self.zero):
                return False
            bound = position
        return True

    def encode(self, elem):
        return {"supp": [{"pos": format_ordinal(p), "e": self.inner.encode(v)}
                         for p, v in elem]}

    def _decode(self, data):
        if not (isinstance(data, dict) and set(data) == {"supp"}
                and isinstance(data["supp"], list)):
            raise self._undecodable(data, 'expected {"supp": [...]}')
        entries = []
        for item in data["supp"]:
            if not (isinstance(item, dict) and set(item) == {"pos", "e"}):
                raise self._undecodable(data, 'support items must be {"pos": ..., "e": ...}')
            entries.append((_decode_ordinal(self, item["pos"]), self.inner._decode(item["e"])))
        return tuple(entries)

    def _format(self, text):
        zero = json.dumps(self.inner.encode(self.zero), sort_keys=True, separators=(",", ":"))
        return f"finsupp({format_ordinal(self.length)}, {text(self.inner)}, {zero})"

    def _materialize(self):
        if self.finite_size == 1:   # only the empty support; inner may be infinite
            return [()]
        inner = self.inner.materialize()
        positions = [from_int(i) for i in range(self.length.as_int())]
        positions.reverse()  # most significant first
        out = [()]
        for position in positions:
            out = [prefix + ((position, v),) for prefix in out for v in inner]
        return [tuple(p for p in entry if p[1] != self.zero) for entry in out]

    def _canonical(self, want):
        nonzero = [v for v in self.inner.canonical(4) if v != self.zero][:2]
        positions = _canonical_ordinals(self.length, 3) if not self.length.is_zero() else []
        out = [()]
        for p in positions:
            for v in nonzero:
                out.append(finsupp_elem({p: v}))
        if len(positions) >= 2 and nonzero:
            out.append(finsupp_elem({positions[0]: nonzero[0], positions[1]: nonzero[0]}))
        return out

    def _compile(self):
        if self.length.is_zero():
            return lambda rng: ()
        inner, zero = self.inner._draw, self.zero
        position = _ordinal_kernel(self.length)

        def draw(rng):
            values = []
            for _ in range(8):
                v = inner(rng)
                if v != zero:
                    values.append(v)
            if not values:
                return ()
            bits = rng.getrandbits
            n, width = len(values), len(values).bit_length()
            mapping = {}
            for _ in range(_below(bits, 4, 3)):
                # as in mapping[position] = choice(values): the value is drawn first
                value = values[_below(bits, n, width)]
                mapping[position(rng)] = value
            return _from_entries(mapping.items())
        return draw

    def _compile_key(self):
        # a block (s, key(p), key(v)) per support entry, largest position
        # first, where s is 1 when v lies above the zero and -1 below it, and
        # key(p) is negated when s is -1; a closing 0 stands for the zeros of
        # every smaller position
        inner = self.inner._key
        zero = inner(self.zero)

        def key(elem):
            out = []
            for position, value in elem:
                value_key = inner(value)
                if value_key > zero:
                    out.append(1)
                    out += position.key
                else:
                    out.append(-1)
                    out += map(neg, position.key)
                out += value_key
            out.append(0)
            return tuple(out)
        return key


def finsupp_elem(mapping) -> tuple:
    """The finite-support element of {position: value}, its entries sorted
    by decreasing position; positions may be ints."""
    return _from_entries([(ensure_ordinal(p), v) for p, v in dict(mapping).items()])


def _from_entries(entries) -> tuple:
    """The support of (position, value) pairs with distinct positions."""
    return tuple(sorted(entries, key=lambda entry: entry[0].key, reverse=True))


def pow_term(base: OrderTerm, n: int) -> OrderTerm:
    """n-fold lexicographic power, first coordinate major.  pow(t, 0) is a point."""
    if n < 0:
        raise TermError("pow() exponent must be a natural number")
    if n == 0:
        return Fin(1)
    if base.depth + n - 1 > TERM_DEPTH_LIMIT:
        raise TermTooDeep(f"pow() expansion nests deeper than {TERM_DEPTH_LIMIT}")
    result = base
    for _ in range(n - 1):
        result = Scaled(result, base)
    return result


# -- elements and comparators ---------------------------------------------------

def validate_element(term: OrderTerm, elem: Any) -> bool:
    """True iff elem structurally denotes a point of term."""
    return term.validate(elem)


def _shuffle_key(s: Sequence[CnfOrdinal]) -> tuple:
    """The sort key of a shuffle sequence: a block (0, -key(s_d)) at even d
    and (1, key(s_d)) at odd d, closed by 1 after an even length and by 0
    after an odd one.  At the first position d where two sequences disagree,
    in entries or in domain, an even d thus puts the smaller entry, or the
    sequence that ends at d, above, and an odd d puts it below: the parity
    order."""
    out = []
    for d, x in enumerate(s):
        if d % 2:
            out.append(1)
            out += x.key
        else:
            out.append(0)
            out += map(neg, x.key)
    out.append(0 if len(s) % 2 else 1)
    return tuple(out)


def compare_elements(term: OrderTerm, x: Any, y: Any) -> int:
    """Strict total order on the valid elements of term: -1, 0 or 1.

    Each distinct element object is validated, and its sort key built by
    the term's key kernel, once per term.  The term's ``_checked``, set
    empty when the node is interned, maps ``id(elem)`` to (elem, key) for
    each of the last elements that passed, at most CHECKED_LIMIT of them,
    and a compare is one comparison of two int tuples.  The memo holds the
    elements, so no other live object has their ids: an argument whose id
    is in it is the element recorded.  The memo is keyed by identity, not
    equality, because an equal look-alike need not be valid: True == 1 and
    1.0 == 1, but fin(3) refuses both.  Valid elements are immutable, so
    one that passed stays valid and keeps its key."""
    checked = term._checked
    try:
        kx = checked[id(x)][1]
    except KeyError:
        kx = _check_element(term, checked, x)
    try:
        ky = checked[id(y)][1]
    except KeyError:
        ky = _check_element(term, checked, y)
    return (kx > ky) - (kx < ky)


def _check_element(term: OrderTerm, checked: dict, elem: Any,
                   key: Optional[tuple] = None) -> tuple:
    """Validate elem, record it with its sort key (built here unless given),
    and return the key."""
    if not term.validate(elem):
        raise InvalidElement(f"{elem!r} is not an element of {term.format()}")
    if len(checked) >= CHECKED_LIMIT:
        checked.clear()
    if key is None:
        key = term._key(elem)
    checked[id(elem)] = elem, key
    return key


# -- text form --------------------------------------------------------------------

class _TermParser(_OrdinalParser):
    syntax_error = TermSyntaxError
    depth_limit = TERM_DEPTH_LIMIT

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a term constructor")
        return self.text[start:self.pos]

    def json_value(self) -> Any:
        self.skip_ws()
        decoder = json.JSONDecoder()
        try:
            value, end = decoder.raw_decode(self.text, self.pos)
        except json.JSONDecodeError as exc:
            raise TermSyntaxError(f"bad JSON element: {exc.msg}", self.pos) from exc
        except (ValueError, RecursionError) as exc:   # a long integer or deep nesting
            raise TermSyntaxError(f"bad JSON element: {exc}", self.pos) from exc
        self.pos = end
        return value

    # constructor name -> (builder, brackets, readers of its arguments)
    grammar = {
        "fin": (Fin, "()", ("natural",)),
        "ord": (Ord, "()", ("literal",)),
        "rev": (Rev, "()", ("term",)),
        "sum": (SumList, "[]", ("terms",)),
        "scaled": (Scaled, "()", ("term", "term")),
        "shuffle": (Shuffle, "()", ("literal",)),
        "finsupp": (lambda length, inner, raw: FinSupp(length, inner, inner.decode(raw)),
                    "()", ("literal", "term", "json_value")),
        "pow": (pow_term, "()", ("term", "natural")),
    }

    def terms(self) -> Tuple[OrderTerm, ...]:
        children = [self.term()]
        while self.peek() == ",":
            self.take(",")
            children.append(self.term())
        return tuple(children)

    def term(self) -> OrderTerm:
        name = self.identifier()
        if name not in self.grammar:
            raise self.error(f"unknown constructor {name!r}")
        build, brackets, readers = self.grammar[name]
        self.open(brackets[0])
        args = []
        for i, reader in enumerate(readers):
            if i:
                self.take(",")
            args.append(getattr(self, reader)())
        self.close(brackets[1])
        return build(*args)


def parse_term(text: str) -> OrderTerm:
    parser = _TermParser(text)
    term = parser.term()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after term")
    return term


# -- stable element encoding (JSON) --------------------------------------------------

def encode_element(term: OrderTerm, elem: Any) -> Any:
    return term.encode(elem)


def decode_element(term: OrderTerm, data: Any) -> Any:
    return term.decode(data)


def materialize(term: OrderTerm) -> List[Any]:
    """All elements of a finite-denotation term, ascending, built structurally."""
    return term.materialize()


# -- sampling ---------------------------------------------------------------------------

_SMALL_ORDINAL_MENU = tuple(
    [from_int(i) for i in range(10)]
    + [ord_add(ord_mul(OMEGA, c), k) for c in (1, 2, 3) for k in (0, 1, 5)]
    + [omega_power(2), ord_add(omega_power(2), 3)]
)

_SMALL_ORDINAL_KEYS = [x.key for x in _SMALL_ORDINAL_MENU]   # ascending


def _below(bits: Callable[[int], int], n: int, width: int) -> int:
    """A uniform draw below n from ``bits = rng.getrandbits``, with width
    n.bit_length(): CPython's rule for randrange(n), randrange(a, a + n) and
    choice (``Random._randbelow_with_getrandbits``), which redraws width
    bits until they fall below n.  The width is n's bit length even when n
    is a power of two, so a draw reads the same words randrange would and a
    kernel's samples match the randrange-based reference draw for draw."""
    r = bits(width)
    while r >= n:
        r = bits(width)
    return r


def _ordinal_kernel(a: CnfOrdinal, depth: int = 0) -> Callable[[random.Random], CnfOrdinal]:
    """A kernel drawing an ordinal below a > 0, read for read as the
    reference draw: a's terms before a drawn j, then w^e_j*c for a drawn
    c < c_j, then for e_j > 0 a part below w^e_j.  The part is, with
    probability 0.3 and always past depth 4 (where no random() is read), a
    natural below SHARED_NATURALS; else w^smaller*m for a drawn smaller <
    e_j, plus a natural below 10 with probability 0.5 when smaller > 0.  A
    draw below 1 (j for a one-term bound, c for a coefficient of 1, and the
    smaller ordinal below w^1) is 0 and reads nothing, as in the reference.
    A finite draw is a shared natural, and an infinite one constructs one
    ordinal besides its infinite exponents.  Only an exponent above 1, at
    depth 4 or less, gets a kernel for its smaller ordinal, so compiling
    walks a's normal form once, down to depth 5."""
    bound, n = a.terms, len(a.terms)
    width, capped, natural_width = n.bit_length(), depth > 4, SHARED_NATURALS.bit_length()
    parts = tuple((exponent, coefficient, coefficient.bit_length(),
                   None if capped or exponent.key <= ONE.key
                   else _ordinal_kernel(exponent, depth + 1))
                  for exponent, coefficient in bound)

    def draw(rng):
        bits = rng.getrandbits
        j = _below(bits, n, width) if n > 1 else 0
        exponent, coefficient, c_width, smaller_kernel = parts[j]
        # a's terms before j are sliced per draw: a table of every prefix
        # would be quadratic in the number of terms
        head = bound[:j] if j else ()
        # k is c, then the natural that ends the draw
        k = _below(bits, coefficient, c_width) if coefficient > 1 else 0
        if exponent.terms:   # the part below w^exponent
            if k:
                head += ((exponent, k),)
            if capped or rng.random() < 0.3:
                k = _below(bits, SHARED_NATURALS, natural_width)
            else:   # below w^1 the smaller ordinal is 0
                smaller = ZERO if smaller_kernel is None else smaller_kernel(rng)
                k = 1 + _below(bits, 4, 3)   # randrange(1, 5)
                if smaller.terms:
                    head += ((smaller, k),)
                    k = _below(bits, 10, 4) if rng.random() < 0.5 else 0
        if head:
            return CnfOrdinal(head + ((ZERO, k),) if k else head)
        return _NATURALS[k] if k < SHARED_NATURALS else CnfOrdinal(((ZERO, k),))
    return draw


def _canonical_ordinals(a: CnfOrdinal, want: int) -> List[CnfOrdinal]:
    out = [from_int(i) for i in range(3)]
    if a.is_limit():
        out += [fundamental_sequence(a, i) for i in range(3)]
    for j, (exponent, coefficient) in enumerate(a.terms):
        coeffs = sorted({c for c in (0, 1, coefficient // 2, coefficient - 1)
                         if 0 <= c < coefficient})
        for c in coeffs:
            base = from_terms(a.terms[:j] + ((exponent, c),) if c else a.terms[:j])
            out.append(base)
            out.append(ord_add(base, 1))
    uniq = list(dict.fromkeys(x for x in out if x.key < a.key))
    return uniq[: max(want, 1)]


def sample_elements(term: OrderTerm, budget: int, seed: int = 0) -> List[Any]:
    """Deterministic sorted sample of at most ``budget`` distinct elements.

    Mixes small canonical witnesses with seeded deep paths, then thins the
    sorted pool evenly so both ends of the order stay represented.  Each
    draw is one call of the term's draw kernel, set when the node is
    interned; an empty term samples to [] before any draw.  The budget and
    the seed are ints: a seed of None would draw from OS entropy.
    """
    for name, value in (("budget", budget), ("seed", seed)):
        if type(value) is not int:
            raise TermError(f"sample {name} must be an int, got {value!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if budget > SAMPLE_BUDGET_LIMIT:
        raise TermError(f"budget {budget} exceeds the limit of {SAMPLE_BUDGET_LIMIT}")
    size = term.finite_size
    if size == 0:
        return []
    rng = random.Random(seed)
    # keyed by the elements themselves, which are equal exactly when their
    # encodings are; the first of equal elements stays
    pool = dict.fromkeys(term.canonical(budget))
    # a pool holding every element of a finite term cannot grow
    target = 3 * budget if size is None else min(3 * budget, size)
    draw = term._draw
    attempts = 0
    while len(pool) < target and attempts < 12 * budget:
        attempts += 1
        pool.setdefault(draw(rng))
    # distinct elements have distinct keys, so the sort never compares two
    # elements, and the kept ones go to the compare memo with their keys
    kept = _thin(sorted((term._key(elem), elem) for elem in pool), budget)
    checked = term._checked
    for key, elem in kept[:CHECKED_LIMIT]:
        _check_element(term, checked, elem, key)
    return [elem for _, elem in kept]


def _thin(items: List[Any], most: int) -> List[Any]:
    """At most ``most`` of items, spaced evenly from the first to the last."""
    if len(items) <= most or most == 1:
        return items[:most]
    step = (len(items) - 1) / (most - 1)
    return [items[i] for i in sorted({round(i * step) for i in range(most)})]


# -- finite pattern search ----------------------------------------------------------------

def search_embedding(pattern: OrderTerm, target: Sequence[Any],
                     target_cmp: Optional[Callable[[Any, Any], int]] = None
                     ) -> Optional[List[Tuple[Any, Any]]]:
    """Monotone injection of a finite-denotation pattern term into a sorted
    sample, or None.  Both sides are linear orders, so an embedding exists
    exactly when the pattern fits; None is exhaustive for the given sample.
    """
    size = pattern.finite_size
    if size is None:
        raise PatternNotFinite(f"{pattern.format()} is not a finite pattern")
    if size > len(target):
        return None
    elems = pattern.materialize()
    mapping = list(zip(elems, list(target)[:size]))
    if target_cmp is not None:
        for (_, u), (_, v) in zip(mapping, mapping[1:]):
            if target_cmp(u, v) >= 0:
                raise TermError("target sample is not strictly sorted")
    return mapping
