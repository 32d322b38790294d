"""Parametric triangle-free graph recursion on a columns-by-rows grid.

Vertices are pairs (column, row) with column < k and row < l.  Row by row,
finite guess sets are combined through injections and an increasing family
to produce candidate sets C, and every edge joins a smaller column at a
higher row to a larger column at a lower row.  The subtraction built into
the C recursion makes the edge set triangle-free for every parameter
choice; the checkers verify this exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from operator import ne
from types import MappingProxyType
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from .errors import InvalidInput, ScatterCalcError

Vertex = Tuple[int, int]            # (column, row)
Edge = Tuple[Vertex, Vertex]        # canonical: smaller column first


class NegGraphError(ScatterCalcError):
    pass


class InvalidParams(NegGraphError, InvalidInput):
    """Grid-graph parameters from outside the program are malformed."""


class InvalidGraph(InvalidParams):
    """Grid-graph JSON from outside the program is malformed."""


class DomainMismatch(NegGraphError):
    pass


@dataclass(frozen=True)
class NegGraphParams:
    """Finite mock of the hypothesis families behind the recursion, checked
    when built.  It keeps read-only copies of d, u and g, so a checked
    object stays valid whatever happens to the mappings it was built from.

    d: guess sets, one finite subset of rho per row rho in [k, l);
    u: per-row strictly increasing k-tuples of naturals;
    g: per-row injections of the column set into the rows below.
    """

    k: int
    l: int
    d: Mapping[int, FrozenSet[int]]
    u: Mapping[int, Tuple[int, ...]]
    g: Mapping[int, Tuple[int, ...]]

    def __post_init__(self) -> None:
        for name, freeze in (("d", frozenset), ("u", tuple), ("g", tuple)):
            rows = {r: freeze(v) for r, v in getattr(self, name).items()}
            object.__setattr__(self, name, MappingProxyType(rows))
        if self.k < 1:
            raise InvalidParams("k", "need at least one column")
        if self.l < self.k:
            raise InvalidParams("l", "need at least k rows")
        for rho, dset in self.d.items():
            if not (self.k <= rho < self.l):
                raise InvalidParams("d", f"row {rho} outside [k, l)")
            if any(not (0 <= x < rho) for x in dset):
                raise InvalidParams("d", f"d({rho}) not a subset of {rho}")
        for rho, seq in self.u.items():
            if not (0 <= rho < self.l):
                raise InvalidParams("u", f"row {rho} outside [0, l)")
            if len(seq) != self.k:
                raise InvalidParams("u", f"u_{rho} must have length k")
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise InvalidParams("u", f"u_{rho} is not strictly increasing")
            if any(x < 0 for x in seq):
                raise InvalidParams("u", f"u_{rho} has negative entries")
        for gamma, seq in self.g.items():
            if not (self.k <= gamma < self.l):
                raise InvalidParams("g", f"row {gamma} outside [k, l)")
            if len(seq) != self.k:
                raise InvalidParams("g", f"g_{gamma} must have length k")
            if len(set(seq)) != len(seq):
                raise InvalidParams("g", f"g_{gamma} is not injective")
            if any(not (0 <= x < gamma) for x in seq):
                raise InvalidParams("g", f"g_{gamma} does not map into {gamma}")
        for rho in range(self.l):
            if rho not in self.u:
                raise InvalidParams("u", f"missing u_{rho}")

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "d": {str(r): sorted(s) for r, s in sorted(self.d.items())},
            "u": {str(r): list(s) for r, s in sorted(self.u.items())},
            "g": {str(r): list(s) for r, s in sorted(self.g.items())},
        }

    @classmethod
    def from_json(cls, data: Any) -> "NegGraphParams":
        """Inverse of ``to_json``: checks the shape of outside input, and
        the constructor checks the values."""
        if not isinstance(data, dict):
            raise InvalidParams("params", "expected a JSON object")
        for name in ("k", "l"):
            if type(data.get(name)) is not int:
                raise InvalidParams(name, f"expected an integer, got {data.get(name)!r}")
        rows = {name: _row_lists(name, data.get(name)) for name in ("d", "u", "g")}
        return cls(k=data["k"], l=data["l"], **rows)


def _row_lists(name: str, value: Any) -> Dict[int, List[int]]:
    """A JSON object from row numbers to lists of integers, keyed by int.
    A row is written in canonical decimal, so no two keys name one row."""
    if not isinstance(value, dict):
        raise InvalidParams(name, "expected an object from rows to lists of integers")
    rows = {}
    for row, entries in value.items():
        try:
            canonical = isinstance(row, str) and row.isdecimal() and row == str(int(row))
        except ValueError:   # int() reads at most 4300 digits, more than any l has
            raise InvalidParams(name, f"row {row[:10]}... of {len(row)} digits is past l") from None
        if not canonical:
            raise InvalidParams(name, f"row {row!r} is not a natural number in canonical decimal")
        if not (isinstance(entries, list) and all(type(x) is int for x in entries)):
            raise InvalidParams(name, f"row {row}: {entries!r} is not a list of integers")
        rows[int(row)] = entries
    return rows


def _below(value: Any, bound: int) -> bool:
    return type(value) is int and 0 <= value < bound


class GridGraph:
    """Corner-shaped edges on the k-by-l grid and the C-sets of the
    recursion.

    A graph built by ``build_neg_graph``, or read from JSON whose C-sets are
    canonical (keys and entries strictly increasing) and whose edge list is,
    in order, exactly their edge list, is its C-sets: ``csets`` maps (row, col)
    to a sorted tuple of distinct entries, and ``edges`` is derived from it,
    the edges ((iota, rho), (nu, xi)) with xi in C[rho, nu] and iota < nu.
    Any other graph keeps the edges it is given, sorted and without
    duplicates; read from JSON, its edges share one tuple per vertex.
    Either way ``edges`` is a sorted, duplicate-free tuple, the order in
    which ``to_json`` prints them and the checkers scan them, and the work
    of ``to_json`` and the checkers follows the edges and the C-sets, never
    the k x l grid."""

    def __init__(self, k: int, l: int, edges: Optional[Iterable[Edge]] = None,
                 csets: Optional[Dict[Tuple[int, int], Tuple[int, ...]]] = None) -> None:
        self.k, self.l = k, l
        self.csets = {} if csets is None else csets
        # None for a graph that is its C-sets
        self._edges = None if edges is None else tuple(dict.fromkeys(sorted(edges)))

    @property
    def edges(self) -> Tuple[Edge, ...]:
        if self._edges is None:
            return tuple(((i, r), (n, x)) for i, r, cols in _edge_groups(self.csets)
                         for n, xs in cols for x in xs)
        return self._edges

    def to_json(self) -> dict:
        if self._edges is None:
            edges = _json_edges(self.csets)
        else:
            edges = [[list(a), list(b)] for a, b in self._edges]
        return {
            "k": self.k,
            "l": self.l,
            "edges": edges,
            "csets": [
                {"row": row, "col": col, "entries": list(entries)}
                for (row, col), entries in sorted(self.csets.items())
            ],
        }

    @classmethod
    def from_json(cls, data: Any) -> "GridGraph":
        """Inverse of ``to_json`` that checks every field of outside input;
        unknown keys, such as those of schema v1 certificates, are ignored,
        and a C-set key given twice with different entries is refused."""
        if not isinstance(data, dict):
            raise InvalidGraph("graph", "expected a JSON object")
        k, l = data.get("k"), data.get("l")
        for name, value in (("k", k), ("l", l)):
            if type(value) is not int or value < 0:
                raise InvalidGraph(name, f"expected a natural number, got {value!r}")
        edges, csets = data.get("edges"), data.get("csets", [])
        if not isinstance(edges, list):
            raise InvalidGraph("edges", "expected a list of vertex pairs")
        if not isinstance(csets, list):
            raise InvalidGraph("csets", "expected a list of C-sets")
        table: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        canonical, last = True, (-1, -1)   # keys and entries strictly increasing
        for c in csets:
            row, col, xs = ((c.get("row"), c.get("col"), c.get("entries"))
                            if isinstance(c, dict) else (None, None, None))
            if not (_below(row, l) and _below(col, k) and isinstance(xs, list)
                    and all(type(x) is int and 0 <= x < l for x in xs)):
                raise InvalidGraph("csets", f"{c!r} is not a C-set of the {k} x {l} grid")
            key, entries = (row, col), tuple(xs)
            if table.setdefault(key, entries) != entries:
                raise InvalidGraph("csets", f"C-set {key} is given twice with different entries")
            if canonical:
                canonical = key > last and all(map(int.__lt__, entries, entries[1:]))
            last = key
        derived = ([[i, r], [n, x]] for i, r, cols in _edge_groups(table)
                   for n, xs in cols for x in xs)
        if (canonical and len(edges) == sum(col * len(xs) for (_, col), xs in table.items())
                and not any(map(ne, edges, derived))
                # == lets true and 1.0 stand for 1, which the edge loop rejects
                and not set(map(type, chain.from_iterable(chain.from_iterable(edges)))) - {int}):
            return cls(k, l, csets=table)
        pairs = []
        vertex: Dict[Vertex, Vertex] = {}   # one shared tuple per vertex met so far
        prev = start = None                 # the last source read, and its vertex
        for e in edges:
            if isinstance(e, list) and len(e) == 2:
                a, b = e
                if isinstance(a, list) and isinstance(b, list) and len(a) == len(b) == 2:
                    (ca, ra), (cb, rb) = a, b
                    if (type(ca) is type(ra) is type(cb) is type(rb) is int
                            and 0 <= ca < k and 0 <= cb < k and 0 <= ra < l and 0 <= rb < l):
                        if ca == cb and ra == rb:
                            raise InvalidGraph("edges", f"{e!r} is a self-loop")
                        if a != prev:   # sorted edges from one source are adjacent
                            prev, start = a, (ca, ra)
                            start = vertex.setdefault(start, start)
                        b = (cb, rb)
                        pairs.append((start, vertex.setdefault(b, b)))
                        continue
            raise InvalidGraph("edges", f"{e!r} is not a pair of vertices of the {k} x {l} grid")
        return cls(k, l, pairs, table)


def _edge_groups(csets: Dict[Tuple[int, int], Tuple[int, ...]]):
    """(iota, rho, [(nu, C[rho, nu]), ...]) for each vertex (iota, rho) that
    starts an edge, with the non-empty C-sets of row rho past column iota,
    ordered so that the edges ((iota, rho), (nu, xi)) for xi in C[rho, nu]
    come out sorted.  Columns past the largest non-empty C-set column start
    no edge."""
    rows: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
    for (rho, nu), xs in sorted(csets.items()):
        if xs:
            rows.setdefault(rho, []).append((nu, xs))
    for iota in range(max((cols[-1][0] for cols in rows.values()), default=0)):
        for rho, cols in rows.items():
            if cols and cols[0][0] <= iota:   # columns are distinct, so one leaves at a time
                cols = rows[rho] = cols[1:]
            if cols:
                yield iota, rho, cols


def _json_edges(csets: Dict[Tuple[int, int], Tuple[int, ...]]) -> List[list]:
    """The edges in JSON form.  Edges share their vertex lists: one list per
    vertex (iota, rho) that starts an edge, and one per vertex (nu, xi) with
    xi in a C-set of column nu >= 1, which ends an edge.  So the work
    follows the C-sets, not the k x l grid."""
    entries: Dict[int, set] = {}
    for (_, nu), xs in csets.items():
        if nu:
            entries.setdefault(nu, set()).update(xs)
    target = {nu: {x: [nu, x] for x in xs} for nu, xs in entries.items()}
    return [[start, column[x]] for iota, rho, cols in _edge_groups(csets)
            for start in [[iota, rho]] for nu, xs in cols for column in [target[nu]] for x in xs]


def build_neg_graph(params: NegGraphParams) -> GridGraph:
    """Run the row recursion; the graph is the resulting C-sets.

    For each row rho and column zeta, every pair (iota < zeta, mu below
    u_rho(zeta)) contributes the minimum of the guess set reached through the
    composed injections, after subtracting the C-sets of rows already used at
    this column; undefined lookups and empty differences contribute nothing.
    Sets are int bitsets, so subtracting is an OR and the minimum is the
    lowest set bit.
    """
    k, l = params.k, params.l
    guesses = {row: sum(1 << x for x in dset) for row, dset in params.d.items() if dset}
    csets: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    bits: List[Dict[int, int]] = [{} for _ in range(k)]   # bits[zeta][rho] is C[rho, zeta]
    for rho in range(l):
        grho = params.g.get(rho)
        if grho is None:
            continue
        urow = params.u[rho]
        used = set()   # the rows in C[rho, nu] for nu < zeta
        for zeta in range(1, k):
            used.update(csets.get((rho, zeta - 1), ()))
            width = min(urow[zeta], k)
            reached = set()
            for iota in range(zeta):
                ginner = params.g.get(grho[iota])
                if ginner is not None:
                    reached.update(ginner[:width])
            column = bits[zeta]
            keep = 0
            for theta in used:
                keep |= column.get(theta, 0)
            keep = ~keep
            entries = set()
            for row in reached:
                candidates = guesses.get(row, 0) & keep
                if candidates:
                    entries.add((candidates & -candidates).bit_length() - 1)
            if entries:
                csets[(rho, zeta)] = tuple(sorted(entries))
                column[rho] = sum(1 << x for x in entries)
    return GridGraph(k, l, csets=csets)


def _cset_triangle(graph: GridGraph) -> bool:
    """Whether a graph that is its C-sets has a triangle: some rho,
    1 <= b < c and r in C[rho, b] with C[r, c] and C[rho, c] meeting.  Row
    by row, the r of C[rho, b] for 1 <= b < c form the bitset ``below``, and
    x in C[rho, c] completes a triangle iff some r in ``below`` has x in
    C[r, c].  Only the rows of C-sets can hold an x, so a row's bit is its
    rank among them."""
    rank = {r: i for i, r in enumerate(sorted({r for r, _ in graph.csets}))}
    holders: Dict[int, Dict[int, int]] = {}   # [c][x]: r with x in C[r, c]
    for (r, c), xs in graph.csets.items():
        column, bit = holders.setdefault(c, {}), 1 << rank[r]
        for x in xs:
            column[x] = column.get(x, 0) | bit
    row, below = -1, 0
    for (rho, c), xs in sorted(graph.csets.items()):
        if rho != row:
            row, below = rho, 0
        if below and any(holders[c][x] & below for x in xs):
            return True
        if c >= 1:
            below |= sum(1 << rank[x] for x in xs if x in rank)
    return False


def _cset_corners(graph: GridGraph) -> bool:
    """Whether a graph that is its C-sets keeps the corner invariant.  It
    has len(C[rho, nu]) edges from each (iota, rho) into column nu, so it
    does iff every entry of a C-set past the first column is below its row."""
    return all(not xs or xs[-1] < rho for (rho, col), xs in graph.csets.items() if col >= 1)


def check_triangle_free(graph: GridGraph) -> Optional[Tuple[Vertex, Vertex, Vertex]]:
    """Exhaustive triangle scan: None when triangle-free, otherwise the
    least witness, the first edge that lies on a triangle completed by the
    least common neighbour of its ends, as a sorted triple.  A graph that is
    its C-sets is first tested on them, and scanned only when the test
    finds a triangle.  A vertex on an edge is the bit of its rank among
    them in the adjacency masks, so bit order is vertex order."""
    if graph._edges is None and not _cset_triangle(graph):
        return None
    edges = graph.edges
    vertices = sorted(set(chain.from_iterable(edges)))
    rank = dict(zip(vertices, count()))
    masks = [0] * len(vertices)
    prev = None   # the sorted edges from a vertex are adjacent, and share it if read from JSON
    for a, b in edges:
        if a is not prev:
            prev, ia = a, rank[a]
        ib = rank[b]
        masks[ia] |= 1 << ib
        masks[ib] |= 1 << ia
    prev = None
    for a, b in edges:
        if a is not prev:
            prev, mask = a, masks[rank[a]]
        common = mask & masks[rank[b]]
        if common:
            c = vertices[(common & -common).bit_length() - 1]
            return tuple(sorted((a, b, c)))
    return None


def check_corner_invariant(graph: GridGraph) -> Optional[Edge]:
    """Every edge must join a smaller column at a higher row to a larger
    column at a lower row, and per-column down-degrees must stay within the
    recorded C-set sizes.  Returns a witness edge on failure: the least
    misshapen edge, else the least edge of the first over-full column.  A
    graph that is its C-sets is first tested on them, and scanned only when
    the test fails."""
    if graph._edges is None and _cset_corners(graph):
        return None
    overfull = None
    source, column = None, -1
    for edge in graph.edges:
        start, (b, rb) = edge
        a, ra = start
        if not (a < b and rb < ra):
            return edge
        if b != column or start != source:   # sorted edges from a vertex into a column are adjacent
            source, column, first, room = start, b, edge, len(graph.csets.get((ra, b), ()))
        room -= 1
        if room < 0 and overfull is None:
            overfull = first
    return overfull


def compose_negative_coloring(graph: GridGraph, correspondence: Sequence[Vertex]
                              ) -> Callable[[int, int], int]:
    """The colour of a pair of distinct indices of the correspondence: 1
    exactly when their grid vertices are joined by an edge."""
    edges = set(graph.edges)
    corr = [tuple(v) for v in correspondence]
    if len(set(corr)) != len(corr):
        raise DomainMismatch("correspondence must be injective")
    if not all(len(v) == 2 and _below(v[0], graph.k) and _below(v[1], graph.l) for v in corr):
        raise DomainMismatch("correspondence leaves the vertex grid")

    def colour(i: int, j: int) -> int:
        a, b = corr[i], corr[j]
        return 1 if (a, b) in edges or (b, a) in edges else 0

    return colour
