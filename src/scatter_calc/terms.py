"""Term algebra denoting countable scattered linear order types.

Terms are built from finite chains, well-orders in Cantor normal form,
reversal, finite concatenation, index-scaled sums, the parity shuffle order
on finite ordinal sequences, and anti-lexicographic finite-support sums.
Every term carries an explicit element model and an exact comparator, so
finite fragments of the denoted order can be materialized, sampled and
searched.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from .errors import ScatterCalcError
from .ordinal import (
    TERM_DEPTH_LIMIT,
    CnfOrdinal,
    OMEGA,
    ONE,
    ZERO,
    _OrdinalParser,
    ensure_ordinal,
    format_ordinal,
    fundamental_sequence,
    from_int,
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


class EntryOutOfRange(TermError):
    pass


class PatternNotFinite(TermError):
    pass


# -- term constructors --------------------------------------------------------

@dataclass(frozen=True)
class Fin:
    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 0:
            raise TermError(f"fin() needs a natural number, got {self.size!r}")


@dataclass(frozen=True)
class Ord:
    ordinal: CnfOrdinal

    def __post_init__(self):
        if not isinstance(self.ordinal, CnfOrdinal):
            raise TermError("ord() needs a CnfOrdinal")


@dataclass(frozen=True)
class Rev:
    inner: "OrderTerm"


@dataclass(frozen=True)
class SumList:
    children: Tuple["OrderTerm", ...]

    def __post_init__(self):
        if not self.children:
            raise TermError("sum[] needs at least one child")


@dataclass(frozen=True)
class Scaled:
    inner: "OrderTerm"
    index: "OrderTerm"

    def __post_init__(self):
        if not is_bl_index(self.index):
            raise InvalidIndexTerm(
                f"scaled() index must be finite, well-ordered or anti-well-ordered: "
                f"{format_term(self.index)}")


@dataclass(frozen=True)
class Shuffle:
    alphabet: CnfOrdinal

    def __post_init__(self):
        if not isinstance(self.alphabet, CnfOrdinal) or self.alphabet < 2:
            raise TermError("shuffle() needs an ordinal alphabet of size >= 2")


@dataclass(frozen=True)
class FinSupp:
    length: CnfOrdinal
    inner: "OrderTerm"
    zero: Any

    def __post_init__(self):
        if not isinstance(self.length, CnfOrdinal):
            raise TermError("finsupp() length must be a CnfOrdinal")
        if not validate_element(self.inner, self.zero):
            raise InvalidElement(
                f"designated zero {self.zero!r} is not an element of {format_term(self.inner)}")


OrderTerm = Union[Fin, Ord, Rev, SumList, Scaled, Shuffle, FinSupp]


@dataclass(frozen=True)
class FinSuppElem:
    """Finite support map: ((position, inner element), ...) with positions
    strictly decreasing."""

    entries: Tuple[Tuple[CnfOrdinal, Any], ...] = ()

    def __post_init__(self):
        prev = None
        for position, _ in self.entries:
            if not isinstance(position, CnfOrdinal):
                raise InvalidElement("support positions must be CnfOrdinal")
            if prev is not None and prev.key <= position.key:
                raise InvalidElement("support positions must be strictly decreasing")
            prev = position

    def value_at(self, position: CnfOrdinal, zero: Any) -> Any:
        for p, v in self.entries:
            if p == position:
                return v
        return zero

    def first_disagreement(self, other: "FinSuppElem",
                           zero: Any) -> Optional[Tuple[CnfOrdinal, Any, Any]]:
        """(position, own value, other's value) at the largest position where
        the two maps differ, or None when they are equal.  Both supports are
        decreasing, so one merge visits the positions largest first."""
        xs, ys = self.entries, other.entries
        i = j = 0
        while i < len(xs) or j < len(ys):
            if j == len(ys) or (i < len(xs) and xs[i][0].key > ys[j][0].key):
                position, vx, vy = xs[i][0], xs[i][1], zero
                i += 1
            elif i == len(xs) or ys[j][0].key > xs[i][0].key:
                position, vx, vy = ys[j][0], zero, ys[j][1]
                j += 1
            else:
                position, vx, vy = xs[i][0], xs[i][1], ys[j][1]
                i += 1
                j += 1
            if vx != vy:
                return position, vx, vy
        return None


def finsupp_elem(mapping) -> FinSuppElem:
    """Build a FinSuppElem from {position: value}; positions may be ints."""
    items = [(ensure_ordinal(p), v) for p, v in dict(mapping).items()]
    items.sort(key=lambda item: item[0].key, reverse=True)
    return FinSuppElem(tuple(items))


def pow_term(base: OrderTerm, n: int) -> OrderTerm:
    """n-fold lexicographic power, first coordinate major.  pow(t, 0) is a point."""
    if n < 0:
        raise TermError("pow() exponent must be a natural number")
    if n == 0:
        return Fin(1)
    if term_depth(base) + n - 1 > TERM_DEPTH_LIMIT:
        raise TermTooDeep(f"pow() expansion nests deeper than {TERM_DEPTH_LIMIT}")
    result = base
    for _ in range(n - 1):
        result = Scaled(result, base)
    return result


# -- structural classification -------------------------------------------------

def term_depth(term: OrderTerm) -> int:
    """Constructor nesting depth; fin, ord and shuffle count 1."""
    if isinstance(term, (Rev, FinSupp)):
        return 1 + term_depth(term.inner)
    if isinstance(term, SumList):
        return 1 + max(map(term_depth, term.children))
    if isinstance(term, Scaled):
        return 1 + max(term_depth(term.inner), term_depth(term.index))
    return 1


def finite_size(term: OrderTerm) -> Optional[int]:
    """Number of elements when the denotation is finite, else None."""
    if isinstance(term, Fin):
        return term.size
    if isinstance(term, Ord):
        return term.ordinal.as_int() if term.ordinal.is_finite() else None
    if isinstance(term, Rev):
        return finite_size(term.inner)
    if isinstance(term, SumList):
        total = 0
        for child in term.children:
            size = finite_size(child)
            if size is None:
                return None
            total += size
        return total
    if isinstance(term, Scaled):
        a, b = finite_size(term.inner), finite_size(term.index)
        if a is None or b is None:
            return None
        return a * b
    if isinstance(term, Shuffle):
        return None
    if isinstance(term, FinSupp):
        inner = finite_size(term.inner)
        if inner is None:
            return None
        if inner <= 1:
            return 1
        if not term.length.is_finite():
            return None
        return inner ** term.length.as_int()
    raise TermError(f"not an OrderTerm: {term!r}")


def is_well_ordered(term: OrderTerm) -> bool:
    if isinstance(term, (Fin, Ord)):
        return True
    if isinstance(term, Rev):
        return is_anti_well_ordered(term.inner)
    if isinstance(term, SumList):
        return all(is_well_ordered(c) for c in term.children)
    if isinstance(term, Scaled):
        return is_well_ordered(term.inner) and is_well_ordered(term.index)
    return finite_size(term) is not None


def is_anti_well_ordered(term: OrderTerm) -> bool:
    if isinstance(term, Fin):
        return True
    if isinstance(term, Ord):
        return term.ordinal.is_finite()
    if isinstance(term, Rev):
        return is_well_ordered(term.inner)
    if isinstance(term, SumList):
        return all(is_anti_well_ordered(c) for c in term.children)
    if isinstance(term, Scaled):
        return is_anti_well_ordered(term.inner) and is_anti_well_ordered(term.index)
    return finite_size(term) is not None


def is_bl_index(term: OrderTerm) -> bool:
    """Admissible index of a scaled sum: finite, well- or anti-well-ordered."""
    return finite_size(term) is not None or is_well_ordered(term) or is_anti_well_ordered(term)


# -- element validation ---------------------------------------------------------

def validate_element(term: OrderTerm, elem: Any) -> bool:
    """True iff elem structurally denotes a point of term."""
    if isinstance(term, Fin):
        return isinstance(elem, int) and 0 <= elem < term.size
    if isinstance(term, Ord):
        return isinstance(elem, CnfOrdinal) and elem.key < term.ordinal.key
    if isinstance(term, Rev):
        return validate_element(term.inner, elem)
    if isinstance(term, SumList):
        if not (isinstance(elem, tuple) and len(elem) == 2):
            return False
        k, inner = elem
        return (isinstance(k, int) and 0 <= k < len(term.children)
                and validate_element(term.children[k], inner))
    if isinstance(term, Scaled):
        if not (isinstance(elem, tuple) and len(elem) == 2):
            return False
        ie, inner = elem
        return validate_element(term.index, ie) and validate_element(term.inner, inner)
    if isinstance(term, Shuffle):
        if not isinstance(elem, tuple):
            return False
        bound = term.alphabet.key
        return all(isinstance(x, CnfOrdinal) and x.key < bound for x in elem)
    if isinstance(term, FinSupp):
        if not isinstance(elem, FinSuppElem):
            return False
        bound = term.length.key
        for position, value in elem.entries:
            if position.key >= bound:
                return False
            if not validate_element(term.inner, value):
                return False
            if value == term.zero:
                return False
        return True
    raise TermError(f"not an OrderTerm: {term!r}")


# -- comparators -----------------------------------------------------------------

def compare_shuffle(alphabet, s: Sequence, t: Sequence) -> int:
    """Parity order on finite sequences below alphabet.

    With d the least position where the sequences disagree (in entries or in
    domain): at even d the later sequence wins if it is a proper prefix or its
    entry is smaller; at odd d the roles are swapped.
    """
    alphabet = ensure_ordinal(alphabet)
    s = tuple(ensure_ordinal(x) for x in s)
    t = tuple(ensure_ordinal(x) for x in t)
    for x in itertools.chain(s, t):
        if x.key >= alphabet.key:
            raise EntryOutOfRange(f"entry {x} is not below {alphabet}")
    return _cmp_shuffle(s, t)


def _cmp_shuffle(s: Sequence[CnfOrdinal], t: Sequence[CnfOrdinal]) -> int:
    """The parity order on sequences whose entries are already checked."""
    d = 0
    for x, y in zip(s, t):
        if x.key != y.key:
            break
        d += 1
    if d == len(s) == len(t):
        return 0
    if d % 2 == 0:
        if d == len(t):          # t is a proper prefix of s
            return -1
        if d == len(s):
            return 1
        return -1 if t[d].key < s[d].key else 1
    if d == len(s):              # s is a proper prefix of t
        return -1
    if d == len(t):
        return 1
    return -1 if s[d].key < t[d].key else 1


def _cmp(term: OrderTerm, x: Any, y: Any) -> int:
    if isinstance(term, Fin):
        return (x > y) - (x < y)
    if isinstance(term, Ord):
        x, y = x.key, y.key
        return (x > y) - (x < y)
    if isinstance(term, Rev):
        return -_cmp(term.inner, x, y)
    if isinstance(term, SumList):
        if x[0] != y[0]:
            return -1 if x[0] < y[0] else 1
        return _cmp(term.children[x[0]], x[1], y[1])
    if isinstance(term, Scaled):
        c = _cmp(term.index, x[0], y[0])
        if c != 0:
            return c
        return _cmp(term.inner, x[1], y[1])
    if isinstance(term, Shuffle):
        return _cmp_shuffle(x, y)
    if isinstance(term, FinSupp):
        disagreement = x.first_disagreement(y, term.zero)
        if disagreement is None:
            return 0
        return _cmp(term.inner, disagreement[1], disagreement[2])
    raise TermError(f"not an OrderTerm: {term!r}")


def compare_elements(term: OrderTerm, x: Any, y: Any) -> int:
    """Strict total order on the valid elements of term: -1, 0 or 1."""
    if not validate_element(term, x):
        raise InvalidElement(f"{x!r} is not an element of {format_term(term)}")
    if not validate_element(term, y):
        raise InvalidElement(f"{y!r} is not an element of {format_term(term)}")
    return _cmp(term, x, y)


def sort_elements(term: OrderTerm, elems: Sequence[Any]) -> List[Any]:
    return sorted(elems, key=functools.cmp_to_key(lambda a, b: _cmp(term, a, b)))


def reverse_term(term: OrderTerm) -> OrderTerm:
    """Order-reversal; peeling a top-level Rev keeps reverse an involution."""
    if isinstance(term, Rev):
        return term.inner
    return Rev(term)


# -- text form --------------------------------------------------------------------

def format_term(term: OrderTerm) -> str:
    if isinstance(term, Fin):
        return f"fin({term.size})"
    if isinstance(term, Ord):
        return f"ord({format_ordinal(term.ordinal)})"
    if isinstance(term, Rev):
        return f"rev({format_term(term.inner)})"
    if isinstance(term, SumList):
        return "sum[" + ", ".join(format_term(c) for c in term.children) + "]"
    if isinstance(term, Scaled):
        return f"scaled({format_term(term.inner)}, {format_term(term.index)})"
    if isinstance(term, Shuffle):
        return f"shuffle({format_ordinal(term.alphabet)})"
    if isinstance(term, FinSupp):
        zero = json.dumps(encode_element(term.inner, term.zero),
                          sort_keys=True, separators=(",", ":"))
        return f"finsupp({format_ordinal(term.length)}, {format_term(term.inner)}, {zero})"
    raise TermError(f"not an OrderTerm: {term!r}")


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
        self.pos = end
        return value

    def term(self) -> OrderTerm:
        name = self.identifier()
        if name == "fin":
            self.open("(")
            size = self.natural()
            self.close(")")
            return Fin(size)
        if name == "ord":
            self.open("(")
            ordinal = self.literal()
            self.close(")")
            return Ord(ordinal)
        if name == "rev":
            self.open("(")
            inner = self.term()
            self.close(")")
            return Rev(inner)
        if name == "sum":
            self.open("[")
            children = [self.term()]
            while self.peek() == ",":
                self.take(",")
                children.append(self.term())
            self.close("]")
            return SumList(tuple(children))
        if name == "scaled":
            self.open("(")
            inner = self.term()
            self.take(",")
            index = self.term()
            self.close(")")
            return Scaled(inner, index)
        if name == "shuffle":
            self.open("(")
            alphabet = self.literal()
            self.close(")")
            return Shuffle(alphabet)
        if name == "finsupp":
            self.open("(")
            length = self.literal()
            self.take(",")
            inner = self.term()
            self.take(",")
            raw = self.json_value()
            self.close(")")
            return FinSupp(length, inner, decode_element(inner, raw))
        if name == "pow":
            self.open("(")
            base = self.term()
            self.take(",")
            n = self.natural()
            self.close(")")
            return pow_term(base, n)
        raise self.error(f"unknown constructor {name!r}")


def parse_term(text: str) -> OrderTerm:
    parser = _TermParser(text)
    term = parser.term()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after term")
    return term


# -- stable element encoding (JSON) --------------------------------------------------

def encode_element(term: OrderTerm, elem: Any) -> Any:
    if isinstance(term, Fin):
        return elem
    if isinstance(term, Ord):
        return format_ordinal(elem)
    if isinstance(term, Rev):
        return encode_element(term.inner, elem)
    if isinstance(term, SumList):
        return {"i": elem[0], "e": encode_element(term.children[elem[0]], elem[1])}
    if isinstance(term, Scaled):
        return {"i": encode_element(term.index, elem[0]),
                "e": encode_element(term.inner, elem[1])}
    if isinstance(term, Shuffle):
        return [format_ordinal(x) for x in elem]
    if isinstance(term, FinSupp):
        return {"supp": [{"pos": format_ordinal(p), "e": encode_element(term.inner, v)}
                         for p, v in elem.entries]}
    raise TermError(f"not an OrderTerm: {term!r}")


def decode_element(term: OrderTerm, data: Any) -> Any:
    def bad(reason: str) -> InvalidElement:
        return InvalidElement(f"cannot decode {data!r} for {format_term(term)}: {reason}")

    if isinstance(term, Fin):
        if not isinstance(data, int):
            raise bad("expected an integer")
        elem = data
    elif isinstance(term, Ord):
        if isinstance(data, int):
            elem = from_int(data)
        elif isinstance(data, str):
            try:
                elem = parse_ordinal(data)
            except ScatterCalcError as exc:
                raise bad(str(exc)) from exc
        else:
            raise bad("expected an ordinal string")
    elif isinstance(term, Rev):
        return decode_element(term.inner, data)
    elif isinstance(term, SumList):
        if not (isinstance(data, dict) and set(data) == {"i", "e"}):
            raise bad('expected {"i": k, "e": ...}')
        k = data["i"]
        if not (isinstance(k, int) and 0 <= k < len(term.children)):
            raise bad("child index out of range")
        elem = (k, decode_element(term.children[k], data["e"]))
    elif isinstance(term, Scaled):
        if not (isinstance(data, dict) and set(data) == {"i", "e"}):
            raise bad('expected {"i": idx, "e": ...}')
        elem = (decode_element(term.index, data["i"]),
                decode_element(term.inner, data["e"]))
    elif isinstance(term, Shuffle):
        if not isinstance(data, list):
            raise bad("expected a list of ordinal strings")
        elem = tuple(decode_element(Ord(term.alphabet), x) for x in data)
    elif isinstance(term, FinSupp):
        if not (isinstance(data, dict) and set(data) == {"supp"}):
            raise bad('expected {"supp": [...]}')
        entries = []
        for item in data["supp"]:
            if not (isinstance(item, dict) and set(item) == {"pos", "e"}):
                raise bad('support items must be {"pos": ..., "e": ...}')
            pos = decode_element(Ord(term.length), item["pos"]) if not isinstance(item["pos"], int) \
                else from_int(item["pos"])
            entries.append((pos, decode_element(term.inner, item["e"])))
        elem = FinSuppElem(tuple(entries))
    else:
        raise TermError(f"not an OrderTerm: {term!r}")
    if not validate_element(term, elem):
        raise bad("decoded value is not a valid element")
    return elem


def element_key(term: OrderTerm, elem: Any) -> str:
    return json.dumps(encode_element(term, elem), sort_keys=True, separators=(",", ":"))


# -- finite materialization ------------------------------------------------------------

def materialize(term: OrderTerm) -> List[Any]:
    """All elements of a finite-denotation term, ascending, built structurally."""
    size = finite_size(term)
    if size is None:
        raise PatternNotFinite(f"{format_term(term)} does not denote a finite order")
    if isinstance(term, Fin):
        return list(range(term.size))
    if isinstance(term, Ord):
        return [from_int(i) for i in range(size)]
    if isinstance(term, Rev):
        return list(reversed(materialize(term.inner)))
    if isinstance(term, SumList):
        out = []
        for k, child in enumerate(term.children):
            out.extend((k, e) for e in materialize(child))
        return out
    if isinstance(term, Scaled):
        inner = materialize(term.inner)
        return [(ie, e) for ie in materialize(term.index) for e in inner]
    if isinstance(term, FinSupp):
        inner = materialize(term.inner)
        if len(inner) <= 1 or term.length.is_zero():
            return [FinSuppElem()]
        positions = [from_int(i) for i in range(term.length.as_int())]
        positions.reverse()  # most significant first
        out = [()]
        for position in positions:
            out = [prefix + ((position, v),) for prefix in out for v in inner]
        return [FinSuppElem(tuple(p for p in entry if p[1] != term.zero))
                for entry in out]
    raise TermError(f"not an OrderTerm: {term!r}")


# -- sampling ---------------------------------------------------------------------------

_SMALL_ORDINAL_MENU = tuple(
    [from_int(i) for i in range(10)]
    + [ord_add(ord_mul(OMEGA, c), k) for c in (1, 2, 3) for k in (0, 1, 5)]
    + [omega_power(2), ord_add(omega_power(2), 3)]
)


def _random_below_power(exponent: CnfOrdinal, rng: random.Random, depth: int) -> CnfOrdinal:
    """Random ordinal strictly below w^exponent (exponent > 0)."""
    if depth > 4 or rng.random() < 0.3:
        return from_int(rng.randrange(200))
    smaller = _random_ordinal_below(exponent, rng, depth + 1)
    value = omega_power(smaller, rng.randrange(1, 5))
    if not smaller.is_zero() and rng.random() < 0.5:
        value = ord_add(value, from_int(rng.randrange(10)))
    return value


def _random_ordinal_below(a: CnfOrdinal, rng: random.Random, depth: int = 0) -> CnfOrdinal:
    n = len(a.terms)
    if n == 0:
        raise TermError("no ordinal below 0")
    j = rng.randrange(n)
    exponent, coefficient = a.terms[j]
    prefix = CnfOrdinal(a.terms[:j])
    c = rng.randrange(coefficient)
    value = ord_add(prefix, omega_power(exponent, c))
    if exponent.is_zero():
        return value
    return ord_add(value, _random_below_power(exponent, rng, depth))


def _canonical_ordinals(a: CnfOrdinal, want: int) -> List[CnfOrdinal]:
    out = []
    for i in range(3):
        out.append(from_int(i))
    if a.is_limit():
        for i in range(3):
            out.append(fundamental_sequence(a, i))
    running = ZERO
    for exponent, coefficient in a.terms:
        coeffs = sorted({c for c in (0, 1, coefficient // 2, coefficient - 1)
                         if 0 <= c < coefficient})
        for c in coeffs:
            base = ord_add(running, omega_power(exponent, c))
            out.append(base)
            out.append(ord_add(base, 1))
        running = ord_add(running, omega_power(exponent, coefficient))
    uniq = []
    seen = set()
    for x in out:
        if x.key < a.key and x not in seen:
            seen.add(x)
            uniq.append(x)
    return uniq[: max(want, 1)]


def _canonical_elements(term: OrderTerm, want: int) -> List[Any]:
    size = finite_size(term)
    if size is not None and size <= max(want, 8):
        return materialize(term)
    if isinstance(term, Fin):
        return list(range(min(term.size, want)))
    if isinstance(term, Ord):
        return _canonical_ordinals(term.ordinal, want)
    if isinstance(term, Rev):
        return _canonical_elements(term.inner, want)
    if isinstance(term, SumList):
        per = max(1, want // len(term.children))
        out = []
        for k, child in enumerate(term.children):
            out.extend((k, e) for e in _canonical_elements(child, per))
        return out
    if isinstance(term, Scaled):
        half = max(2, int(want ** 0.5) + 1)
        inner = _canonical_elements(term.inner, half)
        return [(ie, e) for ie in _canonical_elements(term.index, half) for e in inner]
    if isinstance(term, Shuffle):
        letters = [x for x in (ZERO, ONE) if x.key < term.alphabet.key]
        out = [()]
        for length in (1, 2, 3):
            out.extend(tuple(p) for p in itertools.product(letters, repeat=length))
        return out
    if isinstance(term, FinSupp):
        inner = _canonical_elements(term.inner, 4)
        nonzero = [v for v in inner if v != term.zero][:2]
        positions = _canonical_ordinals(term.length, 3) if not term.length.is_zero() else []
        out = [FinSuppElem()]
        for p in positions:
            for v in nonzero:
                out.append(finsupp_elem({p: v}))
        if len(positions) >= 2 and nonzero:
            out.append(finsupp_elem({positions[0]: nonzero[0], positions[1]: nonzero[0]}))
        return out
    raise TermError(f"not an OrderTerm: {term!r}")


def _random_element(term: OrderTerm, rng: random.Random) -> Any:
    if isinstance(term, Fin):
        if term.size == 0:
            raise TermError("fin(0) has no elements")
        return rng.randrange(term.size)
    if isinstance(term, Ord):
        return _random_ordinal_below(term.ordinal, rng)
    if isinstance(term, Rev):
        return _random_element(term.inner, rng)
    if isinstance(term, SumList):
        k = rng.randrange(len(term.children))
        return (k, _random_element(term.children[k], rng))
    if isinstance(term, Scaled):
        return (_random_element(term.index, rng), _random_element(term.inner, rng))
    if isinstance(term, Shuffle):
        length = rng.randrange(0, 8)
        menu = [x for x in _SMALL_ORDINAL_MENU if x.key < term.alphabet.key]
        return tuple(rng.choice(menu) for _ in range(length))
    if isinstance(term, FinSupp):
        if term.length.is_zero():
            return FinSuppElem()
        values = []
        for _ in range(8):
            v = _random_element(term.inner, rng)
            if v != term.zero:
                values.append(v)
        if not values:
            return FinSuppElem()
        mapping = {}
        for _ in range(rng.randrange(0, 4)):
            mapping[_random_ordinal_below(term.length, rng)] = rng.choice(values)
        return finsupp_elem(mapping)
    raise TermError(f"not an OrderTerm: {term!r}")


def sample_elements(term: OrderTerm, budget: int, seed: int = 0) -> List[Any]:
    """Deterministic sorted sample of at most ``budget`` distinct elements.

    Mixes small canonical witnesses with seeded deep paths, then thins the
    sorted pool evenly so both ends of the order stay represented.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    size = finite_size(term)
    if size == 0:
        return []
    rng = random.Random(seed)
    pool = {}
    for elem in _canonical_elements(term, budget):
        pool.setdefault(element_key(term, elem), elem)
    # a pool holding every element of a finite term cannot grow
    target = 3 * budget if size is None else min(3 * budget, size)
    attempts = 0
    while len(pool) < target and attempts < 12 * budget:
        attempts += 1
        elem = _random_element(term, rng)
        pool.setdefault(element_key(term, elem), elem)
    ordered = sort_elements(term, pool.values())
    if len(ordered) <= budget:
        return ordered
    if budget == 1:
        return [ordered[0]]
    step = (len(ordered) - 1) / (budget - 1)
    picks = sorted({round(i * step) for i in range(budget)})
    return [ordered[i] for i in picks]


# -- finite pattern search ----------------------------------------------------------------

def search_embedding(pattern, target: Sequence[Any],
                     target_cmp: Optional[Callable[[Any, Any], int]] = None
                     ) -> Optional[List[Tuple[Any, Any]]]:
    """Monotone injection of a finite pattern into a sorted sample, or None.

    The pattern may be an OrderTerm with finite denotation, an integer
    (an abstract chain of that size) or an explicit list.  Both sides are
    linear orders, so an embedding exists exactly when the pattern fits;
    None is exhaustive for the given sample.
    """
    if isinstance(pattern, int):
        size = pattern
        elems = None
    elif isinstance(pattern, (list, tuple)):
        size = len(pattern)
        elems = list(pattern)
    else:
        size = finite_size(pattern)
        if size is None:
            raise PatternNotFinite(f"{format_term(pattern)} is not a finite pattern")
        elems = None
    if size > len(target):
        return None
    if elems is None:
        if isinstance(pattern, int):
            elems = list(range(size))
        else:
            elems = materialize(pattern)
    mapping = list(zip(elems, list(target)[:size]))
    if target_cmp is not None:
        for (_, u), (_, v) in zip(mapping, mapping[1:]):
            if target_cmp(u, v) >= 0:
                raise TermError("target sample is not strictly sorted")
    return mapping
