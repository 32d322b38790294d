"""Finite-support functions under the largest-disagreement order, strictly
branching value trees over decreasing sequences, and the support-chain
embedding that collapses point colourings to few colours.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .errors import InvalidInput, ScatterCalcError
from .ordinal import CnfOrdinal, ensure_ordinal, format_ordinal, from_int, parse_ordinal
from .terms import FinSupp, InvalidElement, compare_elements, validate_element


class AntilexError(ScatterCalcError):
    pass


class EqualInputs(AntilexError):
    pass


class HostMismatch(AntilexError):
    pass


class NotSorted(AntilexError):
    pass


class TreeDomainMiss(AntilexError):
    def __init__(self, prefix):
        super().__init__(f"tree has no value for prefix {prefix}")
        self.prefix = prefix


class FragmentIncomplete(AntilexError):
    pass


class UnsupportedHost(AntilexError):
    pass


def _check_host(host: Any, role: str = "host") -> None:
    if not isinstance(host, FinSupp):
        raise UnsupportedHost(f"{role} must be a finite-support term")


@dataclass(frozen=True)
class FinSuppFn:
    """An element of an anti-lexicographic finite-support sum, tied to its
    host and validated when built."""

    host: FinSupp
    elem: tuple

    def __post_init__(self):
        _check_host(self.host)
        if not validate_element(self.host, self.elem):
            raise InvalidElement(
                f"{self.elem!r} is not an element of {self.host.format()}")


def first_disagreement(x: tuple, y: tuple,
                       zero: Any) -> Optional[Tuple[CnfOrdinal, Any, Any]]:
    """(position, x's value, y's value) at the largest position where two
    finite-support elements differ, or None when they are equal.  Both
    supports are decreasing, so one merge visits the positions largest first."""
    i = j = 0
    while i < len(x) or j < len(y):
        if j == len(y) or (i < len(x) and x[i][0].key > y[j][0].key):
            position, vx, vy = x[i][0], x[i][1], zero
            i += 1
        elif i == len(x) or y[j][0].key > x[i][0].key:
            position, vx, vy = y[j][0], zero, y[j][1]
            j += 1
        else:
            position, vx, vy = x[i][0], x[i][1], y[j][1]
            i += 1
            j += 1
        if vx != vy:
            return position, vx, vy
    return None


def delta_prime(host: FinSupp, x: tuple, y: tuple) -> CnfOrdinal:
    """Largest position where x and y, elements of host, disagree."""
    _check_host(host)
    if compare_elements(host, x, y) == 0:
        raise EqualInputs("equal functions have no disagreement")
    return first_disagreement(x, y, host.zero)[0]


def compare_antilex(f: FinSuppFn, g: FinSuppFn) -> int:
    """Order decided at the largest disagreement: the host's element order,
    which ``compare_elements`` gives."""
    if f.host != g.host:
        raise HostMismatch("both functions must live in the same sum")
    return compare_elements(f.host, f.elem, g.elem)


def check_antilex_lemma(f: FinSuppFn, g: FinSuppFn, h: FinSuppFn) -> bool:
    """For f < g < h: max of the two adjacent disagreements is at most the
    outer one.  Always true; a False signals a build defect."""
    if not (compare_antilex(f, g) < 0 and compare_antilex(g, h) < 0):
        raise NotSorted("inputs must satisfy f < g < h")
    # the three are valid and distinct, so each pair disagrees somewhere
    zero = f.host.zero
    left = first_disagreement(f.elem, g.elem, zero)[0]
    right = first_disagreement(g.elem, h.elem, zero)[0]
    outer = first_disagreement(f.elem, h.elem, zero)[0]
    return max(left.key, right.key) <= outer.key


# -- decreasing sequences and value trees ------------------------------------------


def dec_seq(values) -> Tuple[CnfOrdinal, ...]:
    """The tree node of values, which may be ints: a strictly decreasing
    tuple of ordinals, checked here for callers outside the library."""
    seq = tuple(ensure_ordinal(v) for v in values)
    if not _decreasing(seq):
        raise AntilexError(f"sequence {list(map(format_ordinal, seq))} is not strictly decreasing")
    return seq


def _decreasing(seq: Tuple[CnfOrdinal, ...]) -> bool:
    return all(a.key > b.key for a, b in zip(seq, seq[1:]))


@dataclass
class AlphaTree:
    """Partial assignment of ordinal values to nonempty decreasing sequences
    below alpha, increasing across siblings and decreasing into parents; a
    node is a tuple of ordinals, as a prefix of a support's positions is."""

    alpha: CnfOrdinal
    entries: Dict[Tuple[CnfOrdinal, ...], CnfOrdinal] = field(default_factory=dict)

    def value(self, seq: Tuple[CnfOrdinal, ...]) -> CnfOrdinal:
        if seq not in self.entries:
            raise TreeDomainMiss(tuple(format_ordinal(x) for x in seq))
        return self.entries[seq]

    def to_json(self) -> dict:
        items = sorted(self.entries.items(),
                       key=lambda kv: (len(kv[0]), [format_ordinal(x) for x in kv[0]]))
        return {
            "alpha": format_ordinal(self.alpha),
            "entries": [{"seq": [format_ordinal(x) for x in seq],
                         "val": format_ordinal(val)} for seq, val in items],
        }

    @classmethod
    def from_json(cls, data: Any) -> "AlphaTree":
        """Inverse of ``to_json`` that checks the shape of outside input; a
        sequence given twice with different values is refused."""
        if not (isinstance(data, dict) and isinstance(data.get("alpha"), str)):
            raise InvalidInput("tree", 'expected {"alpha": ordinal string, "entries": [...]}')
        if not isinstance(data.get("entries"), list):
            raise InvalidInput("entries", "expected a list")
        entries = {}
        for item in data["entries"]:
            if not (isinstance(item, dict) and isinstance(item.get("seq"), list)
                    and all(isinstance(s, str) for s in item["seq"])
                    and isinstance(item.get("val"), str)):
                raise InvalidInput("entries", f'{item!r} is not {{"seq": [ordinal strings], '
                                              f'"val": ordinal string}}')
            seq = dec_seq([parse_ordinal(s) for s in item["seq"]])
            val = parse_ordinal(item["val"])
            if entries.setdefault(seq, val) != val:
                raise InvalidInput("entries", f"sequence {list(map(format_ordinal, seq))} "
                                              f"is given twice with different values")
        return cls(parse_ordinal(data["alpha"]), entries)


def validate_alpha_tree(tree: AlphaTree) -> Optional[tuple]:
    """None when coherent; otherwise a witness describing the violation."""
    for seq in tree.entries:
        if len(seq) == 0:
            return ("empty-sequence", seq)
        for x in seq:
            if x.key >= tree.alpha.key:
                return ("entry-above-alpha", seq)
        if not _decreasing(seq):
            return ("sequence-not-decreasing", seq)
    for seq, val in tree.entries.items():
        parent = seq[:-1]
        if parent in tree.entries and val.key >= tree.entries[parent].key:
            return ("child-not-below-parent", seq, parent)
    # values increase along the siblings of a parent, ordered by their last
    # entry, iff they increase between neighbours in that order
    siblings: Dict[Tuple[CnfOrdinal, ...], List[Tuple[CnfOrdinal, ...]]] = {}
    for seq in tree.entries:
        siblings.setdefault(seq[:-1], []).append(seq)
    for family in siblings.values():
        family.sort(key=lambda s: s[-1].key)
        for seq_a, seq_b in zip(family, family[1:]):
            if tree.entries[seq_a].key >= tree.entries[seq_b].key:
                return ("siblings-not-increasing", seq_a, seq_b)
    return None


# -- the support-chain embedding -----------------------------------------------------


def ks_embed(tree: AlphaTree, source: FinSupp, x: tuple, target: FinSupp) -> tuple:
    """Transport x, an element of source, along the tree: the i-th support
    position (in decreasing order) moves to the tree value of its prefix
    chain, keeping its value.  Of the elements only the image is checked:
    it must be an element of target."""
    _check_host(source, "source host")
    _check_host(target, "target host")
    if target.inner != source.inner or target.zero != source.zero:
        raise HostMismatch("source and target must share inner order and zero")
    positions = tuple(position for position, _ in x)
    image = tuple((tree.value(positions[:i + 1]), v) for i, (_, v) in enumerate(x))
    if not validate_element(target, image):
        raise InvalidElement(f"{image!r} is not an element of {target.format()}")
    return image


def induced_seq_coloring(H: Callable[[tuple], Any], host: FinSupp,
                         seq: Sequence[CnfOrdinal], alphabet: Sequence[Any]) -> Dict[tuple, Any]:
    """Restrict a point colouring of the host to the fragment spanned by the
    positions of seq: value tuples over the alphabet map to H of the element
    with those values (zero entries dropped from the support).  Each entry
    of a point is an entry of seq filled with one nonzero letter throughout,
    so checking those supports, once, up front, checks every point."""
    _check_host(host)
    alphabet = list(alphabet)
    for v in alphabet:
        full = tuple((p, v) for p in seq)
        if v != host.zero and not validate_element(host, full):
            raise InvalidElement(f"{full!r} is not an element of {host.format()}")
    out: Dict[tuple, Any] = {}
    for values in itertools.product(alphabet, repeat=len(seq)):
        point = tuple((p, v) for p, v in zip(seq, values) if v != host.zero)
        try:
            colour = H(point)
        except Exception as exc:
            raise FragmentIncomplete(f"colouring undefined at {values!r}: {exc}") from exc
        if colour is None:
            raise FragmentIncomplete(f"colouring undefined at {values!r}")
        out[values] = colour
    return out


# -- exhaustive tree search ------------------------------------------------------------


# Work limit for search_alpha_tree, counted in tree nodes (decreasing
# sequences).  The search assigns the nodes by one recursion level each, so
# the limit also bounds its stack; 512 admits delta = level_bound = 9 (511
# nodes) and refuses delta = level_bound = 10 (1023 nodes).
ALPHA_TREE_NODE_LIMIT = 512


def _universe(delta: int, level_bound: int) -> List[Tuple[int, ...]]:
    lengths = range(1, min(delta, level_bound) + 1)
    count = 0
    for length in lengths:
        count += math.comb(delta, length)
        if count > ALPHA_TREE_NODE_LIMIT:
            raise AntilexError(
                f"delta {delta} and level bound {level_bound} give more than "
                f"{ALPHA_TREE_NODE_LIMIT} tree nodes")
    nodes = []
    for length in lengths:
        for combo in itertools.combinations(range(delta), length):
            nodes.append(tuple(sorted(combo, reverse=True)))
    nodes.sort(key=lambda s: (len(s), s))
    return nodes


def search_alpha_tree(F: Callable[[Tuple[int, ...]], Any], delta: int,
                      mu_range: int, level_bound: int
                      ) -> Optional[Tuple[AlphaTree, Dict[int, Any]]]:
    """Backtracking search for a coherent value tree whose chains are
    level-constant under F.

    The universe is every nonempty decreasing sequence over range(delta) of
    length at most level_bound; values range over range(mu_range).  Returns
    the lexicographically least witness with its level pattern, or None
    after exhausting the space.
    """
    if delta < 1 or mu_range < 1 or level_bound < 1:
        raise ValueError("delta, mu_range and level_bound must be >= 1")
    nodes = _universe(delta, level_bound)
    values: Dict[Tuple[int, ...], int] = {}
    colours: Dict[int, Any] = {}

    def admissible(node: Tuple[int, ...], v: int) -> bool:
        if len(node) > 1:
            parent = node[:-1]
            if v >= values[parent]:
                return False
        gamma = node[-1]
        if gamma > 0:
            sibling = node[:-1] + (gamma - 1,)
            if sibling in values and v <= values[sibling]:
                return False
        return True

    def assign(i: int) -> bool:
        if i == len(nodes):
            return True
        node = nodes[i]
        for v in range(mu_range):
            if not admissible(node, v):
                continue
            chain = tuple(values[node[: j + 1]] for j in range(len(node) - 1)) + (v,)
            colour = F(chain)
            level = len(node) - 1
            if level in colours:
                if colours[level] != colour:
                    continue
                owned = False
            else:
                colours[level] = colour
                owned = True
            values[node] = v
            if assign(i + 1):
                return True
            del values[node]
            if owned:
                del colours[level]
        return False

    if not assign(0):
        return None
    tree = AlphaTree(from_int(delta),
                     {tuple(map(from_int, node)): from_int(values[node]) for node in nodes})
    return tree, dict(colours)


def verify_color_collapse(H: Callable[[tuple], Any], tree: AlphaTree,
                          colours: Dict[int, Dict[tuple, Any]], source: FinSupp,
                          sample: Sequence[tuple], target: FinSupp) -> Tuple[bool, Set[Any]]:
    """Check H(embedded x) against the level pattern for each element x of
    source in sample and collect the realized colour set.  A level pattern
    is the dict from value tuples to colours ``induced_seq_coloring`` returns."""
    ok = True
    realized: Set[Any] = set()
    for x in sample:
        got = H(ks_embed(tree, source, x, target))
        realized.add(got)
        if not x:
            continue
        level = len(x) - 1
        if level not in colours:
            raise FragmentIncomplete(f"no level pattern for support size {len(x)}")
        key = tuple(v for _, v in x)
        expected = colours[level].get(key)
        if expected is None:
            raise FragmentIncomplete(f"pattern lacks value tuple {key!r}")
        if got != expected:
            ok = False
    return ok, realized
