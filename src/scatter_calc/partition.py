"""Pair colourings and constructive homogeneous-set extraction.

Everything here works on finite sorted domains.  A pair colouring is a
function of two points, or of two index positions, asked only for the pairs
a computation needs.  The two extractors follow their defining recursions
step by step and re-verify every witness before returning it;
``find_homogeneous`` is the exhaustive brute-force oracle the rest of the
package checks itself against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .errors import ScatterCalcError


class PartitionError(ScatterCalcError):
    pass


class NonInjectiveTag(PartitionError):
    pass


class BadColouringDomain(PartitionError):
    pass


# Work limit for lexicographic powers, counted in tuple entries (tuples times
# their length).  No power is built: extract_unary and the greedy stages of
# step_up_extract walk one tuple at a time, but may visit every tuple of it,
# so the limit bounds their work.  2^20 entries admit step-up p = 7 (7^6
# tuples of 6, 705,894 entries) and refuse p = 8 (8^7 tuples of 7, 14.7M).
LEX_POWER_LIMIT = 2 ** 20

# Work limit for Sierpinski colourings, counted in tags.  The colouring
# tabulates nothing, but the sierpinski verb lists every pair of tags in its
# certificate: 256 tags are 32,640 pairs.
SIERPINSKI_TAG_LIMIT = 256


# -- the folklore blocking colouring -------------------------------------------

def sierpinski_coloring(tags: Sequence[int]) -> Callable[[int, int], int]:
    """The colour of a pair of distinct positions of an injective tag list:
    0 iff the domain order and the tag order agree on them."""
    if len(tags) > SIERPINSKI_TAG_LIMIT:
        raise PartitionError(
            f"{len(tags)} tags exceed the limit of {SIERPINSKI_TAG_LIMIT} tags")
    if len(set(tags)) != len(tags):
        raise NonInjectiveTag("tags must be injective")

    def colour(i: int, j: int) -> int:
        if i == j:
            raise PartitionError("pairs need two distinct points")
        if i > j:
            i, j = j, i
        return 0 if tags[i] < tags[j] else 1

    return colour


# -- exhaustive homogeneous search ------------------------------------------------

def find_homogeneous(n: int, pair_colour: Callable[[int, int], int], k: int,
                     colour: int) -> Optional[Tuple[int, ...]]:
    """Lexicographically least colour-homogeneous k-subset of range(n), or
    None; ``pair_colour(i, j)`` is asked once for each i < j."""
    if k > n:
        raise ValueError(f"pattern size {k} exceeds domain size {n}")
    if k <= 0:
        raise ValueError("pattern size must be >= 1")
    if k == 1:
        return (0,)
    masks = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if pair_colour(i, j) == colour:
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

def _guarded(colour: Callable[..., int], bound: int) -> Callable[..., int]:
    """colour, refusing with BadColouringDomain any value that is not an int
    below bound (True and 1.0 are not colours) and any exception it raises.
    A BadColouringDomain from a guard inside colour passes as it is."""
    def checked(*at) -> int:
        try:
            c = colour(*at)
        except BadColouringDomain:
            raise
        except Exception as exc:
            raise BadColouringDomain(
                f"colouring undefined at {', '.join(map(repr, at))}: {exc}") from exc
        if type(c) is not int or not 0 <= c < bound:
            raise BadColouringDomain(f"colouring value {c!r} at {', '.join(map(repr, at))} "
                                     f"not a colour below {bound}")
        return c
    return checked


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
    check_lex_power(_length(P), nu)
    points = list(P)
    if not points:
        raise ValueError("P must be nonempty")
    F = _guarded(F, nu)

    prefix: List[Any] = []
    for alpha in range(nu):
        free = nu - alpha - 1
        family = {}
        missing = None
        for a in points:
            hit = None
            for tail in itertools.product(points, repeat=free):
                g = tuple(prefix) + (a,) + tail
                if F(g) == alpha:
                    hit = g
                    break
            if hit is None:
                missing = a
                break
            family[a] = hit
        if missing is None:
            witness = [family[a] for a in points]
            for g in witness:
                if F(g) != alpha:
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


def _length(P: Sequence[Any]) -> int:
    """len(P), also for a range longer than len() can count (sys.maxsize)."""
    if isinstance(P, range):
        return max(0, -((P.start - P.stop) // P.step))   # (stop - start) / step, rounded up
    return len(P)


# -- pair extraction through the greedy product recursion ---------------------------


@dataclass
class StepUpResult:
    side: str                 # "zero" or "one"
    witness: List[Tuple[Any, Any]]


def step_up_extract(P: Sequence[Any], colour: Callable[[Any, Any], int]) -> StepUpResult:
    """Extract from a 2-colouring of P x R, where R is the (|P|-1)-fold
    lexicographic power of P and P x R is ordered lexicographically, either
    a 0-homogeneous copy of P or a 1-homogeneous triangle.

    ``colour(x, y)`` gives 0 or 1 for two points (a, b) of P x R; it is
    called only on the pairs the recursion inspects.

    Greedily grows {(a_z, b_z)} taking the least admissible b each step,
    walking R in order without building it.  When stage z is blocked, R is
    coloured by the first failure index and ``extract_unary`` gives a copy B
    of P inside R on which that index is some constant x.  The fibre
    {a_z} x B then holds either a 1-pair, which closes a 1-homogeneous
    triangle with (a_x, b_x), or none, and then it is a 0-homogeneous copy of
    P.  The returned witness is re-checked on its own before it is returned.
    """
    size = _length(P)
    check_lex_power(size, size - 1)
    points = list(P)
    if not points:
        raise ValueError("P must be nonempty")
    nu = len(points) - 1
    check_01 = _guarded(colour, 2)

    chosen: List[Any] = []
    for zi, a in enumerate(points):
        admissible = next(
            (b for b in itertools.product(points, repeat=nu)
             if all(check_01((points[xi], chosen[xi]), (a, b)) == 0 for xi in range(zi))),
            None)
        if admissible is not None:
            chosen.append(admissible)
            continue

        def first_failure(b) -> int:
            for xi in range(zi):
                if check_01((points[xi], chosen[xi]), (a, b)) == 1:
                    return xi
            raise PartitionError("internal: blocked stage has an admissible point")

        B, xi = extract_unary(points, nu, first_failure)
        pair = next((xy for xy in itertools.combinations(B, 2)
                     if check_01((a, xy[0]), (a, xy[1])) == 1), None)
        if pair is None:
            result = StepUpResult("zero", [(a, b) for b in B])
        else:
            result = StepUpResult("one", [(points[xi], chosen[xi])] + [(a, b) for b in pair])
        break
    else:
        result = StepUpResult("zero", list(zip(points, chosen)))
    _verify_witness(points, check_01, result)
    return result


def _verify_witness(points: List[Any], col, result: StepUpResult) -> None:
    """The witness has its side's size, ascends strictly in P x R and is
    homogeneous in its side's colour."""
    size, want = (len(points), 0) if result.side == "zero" else (3, 1)
    if len(result.witness) != size:
        raise PartitionError(
            f"{result.side} witness has {len(result.witness)} points, needs {size}")
    rank = {a: i for i, a in enumerate(points)}
    keys = []
    for a, b in result.witness:
        key = [rank.get(c) for c in (a,) + tuple(b)]
        if None in key or len(key) != len(points):
            raise PartitionError(f"witness point {(a, b)!r} is not in P x R")
        keys.append(key)
    if any(k >= l for k, l in zip(keys, keys[1:])):
        raise PartitionError("witness is not strictly ascending in P x R")
    for x, y in itertools.combinations(result.witness, 2):
        if col(x, y) != want:
            raise PartitionError("witness failed its homogeneity re-check")
