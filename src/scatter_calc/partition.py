"""Explicit pair colourings and constructive homogeneous-set extraction.

Everything here works on finite sorted domains.  The two extractors follow
their defining recursions step by step and re-verify every witness before
returning it; ``find_homogeneous`` is the exhaustive brute-force oracle the
rest of the package checks itself against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import ScatterCalcError


class PartitionError(ScatterCalcError):
    pass


class NonInjectiveTag(PartitionError):
    pass


class BadColouringDomain(PartitionError):
    pass


class RealizerContractViolation(PartitionError):
    pass


# Work limit for lexicographic powers, counted in tuple entries (tuples times
# their length).  The step-up verb builds its p^(p-1) domain once and
# extract_unary may visit every tuple of its power, at roughly 100 bytes a
# tuple.  2^20 entries admit step-up p = 7 (7^6 tuples of 6, 705,894 entries)
# and refuse p = 8 (8^7 tuples of 7, 14.7M entries, several hundred MB).
LEX_POWER_LIMIT = 2 ** 20

# Work limit for Sierpinski colourings, counted in tags.  Every pair of tags
# is tabulated: 256 tags are 32,640 pairs (about 0.5 s and 55 MB for the
# sierpinski verb), while 1000 tags took 4.8 s and 571 MB.
SIERPINSKI_TAG_LIMIT = 256


@dataclass
class PairColoring:
    """Total colouring of the 2-subsets of a finite sorted domain.

    ``table`` maps index pairs (i, j) with i < j to colours below
    ``colour_count``; indices refer to positions in ``elements``.
    """

    elements: List[Any]
    colour_count: int
    table: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def validate(self) -> None:
        n = len(self.elements)
        expected = n * (n - 1) // 2
        if len(self.table) != expected:
            raise BadColouringDomain(
                f"colouring has {len(self.table)} pairs, needs {expected}")
        for (i, j), colour in self.table.items():
            if not (0 <= i < j < n):
                raise BadColouringDomain(f"bad index pair ({i}, {j})")
            if not (0 <= colour < self.colour_count):
                raise BadColouringDomain(f"colour {colour} out of range")

    def colour(self, i: int, j: int) -> int:
        if i == j:
            raise BadColouringDomain("pairs need two distinct points")
        if i > j:
            i, j = j, i
        return self.table[(i, j)]

    @classmethod
    def from_function(cls, elements: Sequence[Any], colour_count: int,
                      fn: Callable[[int, int], int]) -> "PairColoring":
        elements = list(elements)
        table = {(i, j): fn(i, j)
                 for i in range(len(elements)) for j in range(i + 1, len(elements))}
        colouring = cls(elements, colour_count, table)
        colouring.validate()
        return colouring

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "colour_count": self.colour_count,
            "pairs": [{"a": i, "b": j, "c": c}
                      for (i, j), c in sorted(self.table.items())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PairColoring":
        table = {(p["a"], p["b"]): p["c"] for p in data["pairs"]}
        count = data.get("colour_count", max(table.values(), default=0) + 1)
        colouring = cls(list(data["elements"]), count, table)
        colouring.validate()
        return colouring


@dataclass
class Labeling:
    """Total point labelling of a finite sorted domain."""

    elements: List[Any]
    labels: List[int]

    def validate(self) -> None:
        if len(self.elements) != len(self.labels):
            raise BadColouringDomain("labels must cover the whole domain")

    def class_indices(self, label: int) -> List[int]:
        return [i for i, l in enumerate(self.labels) if l == label]

    def realized_labels(self) -> List[int]:
        return sorted(set(self.labels))


# -- the folklore blocking colouring -------------------------------------------

def sierpinski_color(tags: Sequence[int], i: int, j: int) -> int:
    """0 iff the domain order and the tag order agree on positions i < j."""
    if i == j:
        raise PartitionError("pairs need two distinct points")
    if i > j:
        i, j = j, i
    return 0 if tags[i] < tags[j] else 1


def sierpinski_coloring(elements: Sequence[Any], tags: Sequence[int]) -> PairColoring:
    if len(tags) > SIERPINSKI_TAG_LIMIT:
        raise PartitionError(
            f"{len(tags)} tags exceed the limit of {SIERPINSKI_TAG_LIMIT} tags")
    if len(set(tags)) != len(tags):
        raise NonInjectiveTag("tags must be injective")
    if len(tags) != len(elements):
        raise NonInjectiveTag("one tag per element required")
    return PairColoring.from_function(
        elements, 2, lambda i, j: sierpinski_color(tags, i, j))


# -- exhaustive homogeneous search ------------------------------------------------

def find_homogeneous(coloring: PairColoring, k: int, colour: int
                     ) -> Optional[Tuple[int, ...]]:
    """Lexicographically least colour-homogeneous k-subset (indices), or None."""
    n = len(coloring.elements)
    if k > n:
        raise ValueError(f"pattern size {k} exceeds domain size {n}")
    if k <= 0:
        raise ValueError("pattern size must be >= 1")
    if k == 1:
        return (0,)
    masks = [0] * n
    for (i, j), c in coloring.table.items():
        if c == colour:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    def extend(chosen: List[int], candidates: int) -> Optional[Tuple[int, ...]]:
        if len(chosen) == k:
            return tuple(chosen)
        i = chosen[-1] + 1 if chosen else 0
        while i < n:
            if candidates >> i & 1:
                got = extend(chosen + [i], candidates & masks[i])
                if got is not None:
                    return got
            i += 1
        return None
    return extend([], (1 << n) - 1)


# -- singleton extraction over lexicographic powers ---------------------------------

def _checked_colour(F: Callable, g: tuple, nu: int) -> int:
    try:
        c = F(g)
    except Exception as exc:
        raise BadColouringDomain(f"colouring undefined at {g!r}: {exc}") from exc
    if not isinstance(c, int) or not (0 <= c < nu):
        raise BadColouringDomain(f"colouring value {c!r} at {g!r} not a colour below {nu}")
    return c


def extract_unary(P: Sequence[Any], nu: int, F: Callable[[tuple], int]
                  ) -> Tuple[List[tuple], int]:
    """Monochromatic copy of P inside the nu-fold lexicographic power of P.

    Runs the step-by-step selector recursion: at stage ``alpha`` either every
    point a of P admits an extension with colour alpha (then the family
    {g_a} is returned) or the least failing a is pinned and the recursion
    moves on.  Completing all nu stages would contradict the stage
    guarantees, so the early exit always happens.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    points = list(P)
    if not points:
        raise ValueError("P must be nonempty")

    prefix: List[Any] = []
    for alpha in range(nu):
        free = nu - alpha - 1
        family = {}
        missing = None
        for a in points:
            hit = None
            for tail in itertools.product(points, repeat=free):
                g = tuple(prefix) + (a,) + tail
                if _checked_colour(F, g, nu) == alpha:
                    hit = g
                    break
            if hit is None:
                missing = a
                break
            family[a] = hit
        if missing is None:
            witness = [family[a] for a in points]
            for g in witness:
                if _checked_colour(F, g, nu) != alpha:
                    raise PartitionError("internal: unverified unary witness")
            return witness, alpha
        prefix.append(missing)
    raise PartitionError(
        "internal: selector recursion completed, contradicting its own stages")


def check_lex_power(base_size: int, nu: int) -> None:
    """Refuse a lexicographic power past LEX_POWER_LIMIT before building any of it."""
    # for a base of two or more points an exponent past the limit's bit
    # length already exceeds it, so the power is never computed in full
    if nu > 0 and base_size ** min(nu, LEX_POWER_LIMIT.bit_length()) * nu > LEX_POWER_LIMIT:
        raise PartitionError(
            f"{base_size}^{nu} tuples of length {nu} exceed the limit of "
            f"{LEX_POWER_LIMIT} entries")


def lex_power_domain(T: Sequence[Any], nu: int) -> List[tuple]:
    """All nu-tuples over the sorted base, ascending in the first-major order."""
    check_lex_power(len(T), nu)
    return [tuple(g) for g in itertools.product(T, repeat=nu)]


def make_unary_realizer(T: Sequence[Any], nu: int):
    """Realizer for point colourings of the lexicographic power of T.

    The returned callback accepts (R, num_colours, g) where R must be the
    ascending enumeration of the nu-fold power of T, and yields a subset of R
    order-isomorphic to T on which g is constant.
    """
    base = list(T)
    check_lex_power(len(base), nu)

    def realize(R: Sequence[Any], num_colours: int, g: Callable[[Any], int]):
        # compared tuple by tuple, so the power is never held a second time
        end = object()
        if any(r != t for r, t in itertools.zip_longest(
                R, itertools.product(base, repeat=nu), fillvalue=end)):
            raise RealizerContractViolation(
                "unary realizer needs the ascending lexicographic power domain")
        if num_colours > nu:
            raise RealizerContractViolation(
                f"realizer supports at most {nu} colours, got {num_colours}")
        witness, colour = extract_unary(base, nu, lambda t: g(t))
        return witness, colour

    return realize


def trivial_pair_realizer(target_size: int):
    """Realizer of the 2-case pair relation: any 1-pair, else a chain copy."""

    def realize(B: Sequence[Any], colour: Callable[[Any, Any], int], n: int):
        if n != 2:
            raise RealizerContractViolation("trivial realizer only handles n = 2")
        points = list(B)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if colour(points[i], points[j]) == 1:
                    return "one", [points[i], points[j]]
        if len(points) < target_size:
            raise RealizerContractViolation(
                f"need {target_size} points for a chain copy, have {len(points)}")
        return "zero", points[:target_size]

    return realize


# -- pair extraction through the greedy product recursion ---------------------------


@dataclass
class StepUpResult:
    side: str                 # "zero" or "one"
    witness: List[Tuple[Any, Any]]


def step_up_extract(P: Sequence[Any], R: Sequence[Any], n: int, colour,
                    unary_extract, pair_extract) -> StepUpResult:
    """Extract from a 2-colouring of the product P x R (lexicographic order)
    either a 0-homogeneous copy of P or a 1-homogeneous (n+1)-set.

    ``colour(x, y)`` gives 0 or 1 for two points (a, b) of P x R; it is
    called only on the pairs the recursion inspects.

    Greedily grows {(a_z, b_z)} taking the least admissible b each step;
    when blocked, colours R by the first failure index, applies the unary
    realizer, then the pair realizer on the resulting fibre.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not callable(colour):
        raise BadColouringDomain("pair colouring must be a callable")
    points = list(P)
    pool = list(R)

    def check_01(x, y) -> int:
        c = colour(x, y)
        if c not in (0, 1):
            raise BadColouringDomain(f"pair colour {c!r} is not 0 or 1")
        return c

    chosen: List[Any] = []
    for zi, a in enumerate(points):
        admissible = None
        for b in pool:
            if all(check_01((points[xi], chosen[xi]), (a, b)) == 0 for xi in range(zi)):
                admissible = b
                break
        if admissible is not None:
            chosen.append(admissible)
            continue

        def first_failure(b) -> int:
            for xi in range(zi):
                if check_01((points[xi], chosen[xi]), (a, b)) == 1:
                    return xi
            raise PartitionError("internal: blocked stage has an admissible point")

        B, xi = unary_extract(pool, zi, first_failure)
        B = list(B)
        if not B or not (0 <= xi < zi):
            raise RealizerContractViolation("unary realizer returned a bad colour or empty set")
        pool_pos = {b: i for i, b in enumerate(pool)}
        try:
            order = [pool_pos[b] for b in B]
        except KeyError:
            raise RealizerContractViolation("unary realizer left the ground set") from None
        if any(p >= q for p, q in zip(order, order[1:])):
            raise RealizerContractViolation("unary realizer output is not ascending")
        if any(first_failure(b) != xi for b in B):
            raise RealizerContractViolation("unary realizer returned a non-homogeneous set")

        side, sub = pair_extract(B, lambda x, y: check_01((a, x), (a, y)), n)
        sub = list(sub)
        if side == "zero":
            if len(sub) != len(points):
                raise RealizerContractViolation(
                    f"pair realizer chain copy has size {len(sub)}, needs {len(points)}")
            witness = [(a, b) for b in sub]
            _verify_homogeneous(check_01, witness, 0)
            return StepUpResult("zero", witness)
        if side == "one":
            if len(sub) != n:
                raise RealizerContractViolation(
                    f"pair realizer 1-set has size {len(sub)}, needs {n}")
            witness = [(points[xi], chosen[xi])] + [(a, b) for b in sub]
            _verify_homogeneous(check_01, witness, 1)
            return StepUpResult("one", witness)
        raise RealizerContractViolation(f"pair realizer returned unknown side {side!r}")

    witness = list(zip(points, chosen))
    _verify_homogeneous(check_01, witness, 0)
    return StepUpResult("zero", witness)


def _verify_homogeneous(col, witness: List[Tuple[Any, Any]], colour: int) -> None:
    for x, y in itertools.combinations(witness, 2):
        if col(x, y) != colour:
            raise PartitionError("internal: witness failed its homogeneity re-check")
