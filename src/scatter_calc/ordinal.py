"""Ordinals below epsilon_0 in Cantor normal form.

A value is a finite sum ``w^e1*c1 + ... + w^em*cm`` with strictly decreasing
exponents (themselves ordinals of the same kind) and positive integer
coefficients.  The empty sum is 0.  Each value carries its canonical key,
the flat tuple of ints ``(1, *key(e1), c1, ..., 1, *key(em), cm, 0)``: each
term opens with 1 and the sum closes with 0, so no key is a proper prefix of
another, and Python's tuple order on keys is exactly the ordinal order.
Comparison, equality and hashing all go through the key, and an element
order on terms splices it into its own flat keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

from .errors import ScatterCalcError

# Resource guard: exponent towers nested deeper than this are rejected as
# "not representable" even though CNF arithmetic is formally closed below
# epsilon_0.
EXPONENT_DEPTH_LIMIT = 64

# Resource guard for order terms: the parser refuses deeper bracket nesting
# and pow() refuses deeper expansions, so a parsed term nests at most about
# twice this deep, which the recursive walkers handle within Python's default
# recursion limit.
TERM_DEPTH_LIMIT = 128

# from_int shares one object for each natural below this bound, and the term
# sampler draws its finite tails below it, so every such draw is shared.
SHARED_NATURALS = 200


class OrdinalError(ScatterCalcError):
    pass


class OverflowBeyondEpsilon0(OrdinalError):
    """Result would need an exponent tower deeper than the supported limit."""


class NotALimit(OrdinalError):
    pass


class OrdinalSyntaxError(OrdinalError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, eq=False, slots=True)
class CnfOrdinal:
    """Cantor normal form ordinal; ``terms`` is a tuple of (exponent, coefficient).

    ``key`` is the canonical key, a flat tuple of ints: for each term 1, the
    exponent's key and the coefficient, then a closing 0.  The tokens make
    it prefix-free (no key is a proper prefix of another), so two ordinals
    compare as their keys do, and a negated key sorts in reverse."""

    terms: Tuple[Tuple["CnfOrdinal", int], ...] = ()
    key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        key, previous = [], None
        for exponent, coefficient in self.terms:
            if not isinstance(exponent, CnfOrdinal):
                raise OrdinalError(f"exponent must be a CnfOrdinal, got {exponent!r}")
            if type(coefficient) is not int or coefficient < 1:
                raise OrdinalError(f"coefficient must be a positive int, got {coefficient!r}")
            if previous is not None and previous <= exponent.key:
                raise OrdinalError("exponents must be strictly decreasing")
            previous = exponent.key
            key.append(1)
            key += previous
            key.append(coefficient)
        key.append(0)
        key = tuple(key)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def as_int(self) -> int:
        if not self.terms:
            return 0
        if self.is_finite():
            return self.terms[0][1]
        raise OrdinalError(f"{self} is not finite")

    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero()

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero()

    def predecessor(self) -> "CnfOrdinal":
        if not self.is_successor():
            raise OrdinalError(f"{self} is not a successor")
        exp, c = self.terms[-1]
        rest = self.terms[:-1]
        if c > 1:
            rest = rest + ((exp, c - 1),)
        return from_terms(rest)

    def depth(self) -> int:
        if not self.terms:
            return 0
        return 1 + max(e.depth() for e, _ in self.terms)

    # -- operators ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CnfOrdinal):
            return self.key == other.key
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __lt__(self, other): return self.key < ensure_ordinal(other).key
    def __le__(self, other): return self.key <= ensure_ordinal(other).key
    def __gt__(self, other): return self.key > ensure_ordinal(other).key
    def __ge__(self, other): return self.key >= ensure_ordinal(other).key
    def __add__(self, other): return ord_add(self, other)
    def __mul__(self, other): return ord_mul(self, other)
    def __pow__(self, other): return ord_pow(self, other)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"CnfOrdinal<{format_ordinal(self)}>"


OrdinalLike = Union[CnfOrdinal, int]

ZERO = CnfOrdinal()
_NATURALS = (ZERO,) + tuple(CnfOrdinal(((ZERO, n),)) for n in range(1, SHARED_NATURALS))
ONE = _NATURALS[1]
OMEGA = CnfOrdinal(((ONE, 1),))


def from_int(n: int) -> CnfOrdinal:
    """The finite ordinal n.  Below SHARED_NATURALS it is one shared object,
    but only ``==``, not identity, is promised."""
    if type(n) is not int:   # ahead of the lookup: _NATURALS[True] is ONE
        raise OrdinalError(f"{n!r} is not an integer")
    if n < 0:
        raise OrdinalError("ordinals are non-negative")
    if n < SHARED_NATURALS:
        return _NATURALS[n]
    return CnfOrdinal(((ZERO, n),))


def from_terms(terms: tuple) -> CnfOrdinal:
    """The ordinal with these normal-form terms; a finite one is from_int's."""
    if not terms:
        return ZERO
    if len(terms) == 1 and terms[0][0].is_zero():
        return from_int(terms[0][1])
    return CnfOrdinal(terms)


def ensure_ordinal(value: OrdinalLike) -> CnfOrdinal:
    """Public coercion helper: ints become finite ordinals."""
    if isinstance(value, CnfOrdinal):
        return value
    if isinstance(value, int):
        return from_int(value)
    raise OrdinalError(f"cannot interpret {value!r} as an ordinal")


def omega_power(exponent: OrdinalLike, coefficient: int = 1) -> CnfOrdinal:
    exponent = ensure_ordinal(exponent)
    if coefficient == 0:
        return ZERO
    return from_terms(((exponent, coefficient),))


def ord_compare(a: OrdinalLike, b: OrdinalLike) -> int:
    """Total ordinal order: -1, 0 or 1."""
    a, b = ensure_ordinal(a).key, ensure_ordinal(b).key
    return (a > b) - (a < b)


def ord_add(a: OrdinalLike, b: OrdinalLike) -> CnfOrdinal:
    a, b = ensure_ordinal(a), ensure_ordinal(b)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    eb = b.terms[0][0]
    keep = []
    merged = None
    for exponent, coefficient in a.terms:
        if exponent.key > eb.key:
            keep.append((exponent, coefficient))
        else:
            if exponent.key == eb.key:
                merged = coefficient
            break
    if merged is not None:
        head = (eb, merged + b.terms[0][1])
        return from_terms(tuple(keep) + (head,) + b.terms[1:])
    if not keep:    # b absorbs a
        return b
    return CnfOrdinal(tuple(keep) + b.terms)


def ord_mul(a: OrdinalLike, b: OrdinalLike) -> CnfOrdinal:
    a, b = ensure_ordinal(a), ensure_ordinal(b)
    if a.is_zero() or b.is_zero():
        return ZERO
    e1, c1 = a.terms[0]
    out = []
    for exponent, coefficient in b.terms:
        if exponent.is_zero():
            out.append((e1, c1 * coefficient))
            out.extend(a.terms[1:])
        else:
            out.append((ord_add(e1, exponent), coefficient))
    return from_terms(tuple(out))


def _finite_pow(a: CnfOrdinal, n: int) -> CnfOrdinal:
    result = ONE
    base = a
    while n:
        if n & 1:
            result = ord_mul(result, base)
        base_needed = n >> 1
        if base_needed:
            base = ord_mul(base, base)
        n >>= 1
    return result


def ord_pow(a: OrdinalLike, b: OrdinalLike) -> CnfOrdinal:
    a, b = ensure_ordinal(a), ensure_ordinal(b)
    if b.is_zero():
        return ONE
    if a.is_zero():
        return ZERO
    if a == ONE:
        return ONE
    if b.is_finite():
        result = _finite_pow(a, b.as_int())
    else:
        infinite = CnfOrdinal(tuple(t for t in b.terms if not t[0].is_zero()))
        finite_part = b.terms[-1][1] if b.terms[-1][0].is_zero() else 0
        if a.is_finite():
            # k^(w^e*d) = w^(w^e'*d) with e' = e-1 for finite e, e' = e for limit e
            image_terms = []
            for exponent, coefficient in infinite.terms:
                if exponent.is_finite():
                    shifted = from_int(exponent.as_int() - 1)
                else:
                    shifted = exponent
                image_terms.append((shifted, coefficient))
            head = omega_power(from_terms(tuple(image_terms)))
        else:
            head = omega_power(ord_mul(a.terms[0][0], infinite))
        result = ord_mul(head, _finite_pow(a, finite_part))
    if result.depth() > EXPONENT_DEPTH_LIMIT:
        raise OverflowBeyondEpsilon0(
            f"exponent tower deeper than {EXPONENT_DEPTH_LIMIT} is not representable")
    return result


def fundamental_sequence(a: OrdinalLike, i: int) -> CnfOrdinal:
    """i-th member of the canonical increasing sequence converging to limit a.

    Rules: (s+t)[i] = s + t[i] for t the last CNF term;
    (w^(g+1)*c)[i] = w^(g+1)*(c-1) + w^g*(i+1);
    (w^l*c)[i] = w^l*(c-1) + w^(l[i]) for limit l.
    """
    a = ensure_ordinal(a)
    if not a.is_limit():
        raise NotALimit(f"{a} is not a limit ordinal")
    if i < 0:
        raise OrdinalError("index must be a natural number")
    if len(a.terms) > 1:
        prefix = CnfOrdinal(a.terms[:-1])
        return ord_add(prefix, fundamental_sequence(CnfOrdinal(a.terms[-1:]), i))
    exponent, coefficient = a.terms[0]
    prefix = omega_power(exponent, coefficient - 1)
    if exponent.is_successor():
        step = omega_power(exponent.predecessor(), i + 1)
    else:
        step = omega_power(fundamental_sequence(exponent, i))
    return ord_add(prefix, step)


# -- text form ---------------------------------------------------------------

def format_ordinal(a: OrdinalLike) -> str:
    a = ensure_ordinal(a)
    if a.is_zero():
        return "0"
    parts = []
    for exponent, coefficient in a.terms:
        if exponent.is_zero():
            parts.append(str(coefficient))
            continue
        if exponent == ONE:
            body = "w"
        elif exponent.is_finite():
            body = f"w^{exponent.as_int()}"
        elif exponent == OMEGA:
            body = "w^w"
        else:
            body = f"w^({format_ordinal(exponent)})"
        if coefficient > 1:
            body += f"*{coefficient}"
        parts.append(body)
    return " + ".join(parts)


class _OrdinalParser:
    """Scanner and ordinal grammar; the term parser extends both."""

    syntax_error = OrdinalSyntaxError
    depth_limit = EXPONENT_DEPTH_LIMIT

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ScatterCalcError:
        return self.syntax_error(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def open(self, ch: str):
        """Take an opening bracket, refusing nesting beyond ``depth_limit``
        before the recursive descent can exhaust the interpreter stack."""
        self.take(ch)
        self.depth += 1
        if self.depth > self.depth_limit:
            raise self.error(f"nesting deeper than {self.depth_limit}")

    def close(self, ch: str):
        self.take(ch)
        self.depth -= 1

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a natural number")
        try:   # int() refuses more than 4300 digits and some that isdigit() accepts
            return int(self.text[start:self.pos])
        except ValueError as exc:
            raise self.syntax_error(f"bad natural number: {exc}", start) from exc

    def exponent(self) -> CnfOrdinal:
        ch = self.peek()
        if ch == "(":
            self.open("(")
            value = self.ordinal()
            self.close(")")
            return value
        if ch == "w":
            self.pos += 1
            return OMEGA
        return from_int(self.natural())

    def cnf_term(self) -> CnfOrdinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            exponent = ONE
            if self.peek() == "^":
                self.take("^")
                exponent = self.exponent()
            coefficient = 1
            if self.peek() == "*":
                self.take("*")
                coefficient = self.natural()
            return omega_power(exponent, coefficient)
        if ch.isdigit():
            return from_int(self.natural())
        raise self.error("expected 'w' or a natural number")

    def ordinal(self) -> CnfOrdinal:
        value = self.cnf_term()
        while self.peek() == "+":
            self.take("+")
            value = ord_add(value, self.cnf_term())
        return value

    def literal(self) -> CnfOrdinal:
        """An ordinal whose exponent tower fits EXPONENT_DEPTH_LIMIT."""
        self.skip_ws()
        start = self.pos
        value = self.ordinal()
        if value.depth() > EXPONENT_DEPTH_LIMIT:
            raise self.syntax_error("ordinal literal nests too deep", start)
        return value


def parse_ordinal(text: str) -> CnfOrdinal:
    parser = _OrdinalParser(text)
    value = parser.literal()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after ordinal")
    return value

