"""Unit tests for the grid-graph recursion and its checkers."""

import random

import pytest

from scatter_calc.neg_graph import (
    DomainMismatch,
    GridGraph,
    InvalidGraph,
    InvalidParams,
    NegGraphParams,
    NotABijection,
    build_neg_graph,
    check_corner_invariant,
    check_triangle_free,
    column_lift,
    compose_negative_coloring,
)
from scatter_calc.partition import Labeling, find_homogeneous


def random_params(rng: random.Random, max_k=5, max_l=40) -> NegGraphParams:
    k = rng.randint(1, max_k)
    l = rng.randint(k, max_l)
    d = {}
    g = {}
    for rho in range(k, l):
        take = min(rho, rng.randint(0, 4))
        if take:
            d[rho] = frozenset(rng.sample(range(rho), take))
        g[rho] = tuple(sorted(rng.sample(range(rho), k)))
    u = {}
    for rho in range(l):
        seq = []
        v = rng.randint(0, 3)
        for _ in range(k):
            v += rng.randint(1, 3)
            seq.append(v)
        u[rho] = tuple(seq)
    return NegGraphParams(k=k, l=l, d=d, u=u, g=g)


def small_params() -> NegGraphParams:
    return NegGraphParams(
        k=2, l=6,
        d={2: frozenset({0, 1}), 3: frozenset({1, 2}), 4: frozenset({0, 3}),
           5: frozenset({2, 4})},
        u={r: (1, 3) for r in range(6)},
        g={2: (0, 1), 3: (0, 2), 4: (1, 3), 5: (2, 4)},
    )


def random_corpus():
    rng = random.Random(7)
    return [build_neg_graph(random_params(rng)) for _ in range(40)]


def test_empty_guess_sets_give_empty_graph():
    p = NegGraphParams(k=2, l=4, d={}, u={r: (1, 2) for r in range(4)},
                       g={2: (0, 1), 3: (0, 2)})
    assert build_neg_graph(p).edges == frozenset()


def test_single_column_gives_empty_graph():
    p = NegGraphParams(k=1, l=3, d={1: frozenset({0}), 2: frozenset({1})},
                       u={r: (3,) for r in range(3)}, g={1: (0,), 2: (1,)})
    assert build_neg_graph(p).edges == frozenset()


def test_invalid_params_name_the_field():
    with pytest.raises(InvalidParams) as err:
        NegGraphParams(k=2, l=4, d={1: frozenset()}, u={r: (1, 2) for r in range(4)},
                       g={}).validate()
    assert err.value.field_name == "d"
    with pytest.raises(InvalidParams) as err:
        NegGraphParams(k=2, l=4, d={}, u={r: (2, 2) for r in range(4)},
                       g={}).validate()
    assert err.value.field_name == "u"
    with pytest.raises(InvalidParams) as err:
        NegGraphParams(k=2, l=4, d={}, u={r: (1, 2) for r in range(4)},
                       g={2: (0, 0), 3: (0, 1)}).validate()
    assert err.value.field_name == "g"


def test_build_is_deterministic():
    p = small_params()
    a, b = build_neg_graph(p), build_neg_graph(p)
    assert a.edges == b.edges
    assert a.csets == b.csets


def test_edges_are_their_csets():
    for graph in [build_neg_graph(small_params())] + random_corpus():
        assert graph.edges == {((i, r), (n, x)) for (r, n), xs in graph.csets.items()
                               for x in xs for i in range(n)}


def test_triangle_detector_sanity():
    graph = build_neg_graph(small_params())
    assert check_triangle_free(graph) is None
    # inject a triangle by hand
    tri = {((0, 5), (1, 4)), ((0, 5), (1, 3)), ((1, 4), (1, 3))}
    bad = GridGraph(graph.k, graph.l, frozenset(graph.edges | tri))
    witness = check_triangle_free(bad)
    assert witness is not None and len(witness) == 3


def test_corner_detector_sanity():
    graph = build_neg_graph(small_params())
    assert check_corner_invariant(graph) is None
    bad = GridGraph(graph.k, graph.l,
                    frozenset(graph.edges | {((1, 5), (1, 2))}), graph.csets)
    assert check_corner_invariant(bad) == ((1, 5), (1, 2))


def test_random_corpus_invariants():
    seen_edges = 0
    for graph in random_corpus():
        seen_edges += len(graph.edges)
        assert check_triangle_free(graph) is None
        assert check_corner_invariant(graph) is None
    assert seen_edges > 100   # the recursion is genuinely exercised


def test_column_lift():
    graph = build_neg_graph(small_params())
    same = column_lift(graph, list(range(graph.l)))
    assert same.edges == graph.edges
    rev = column_lift(graph, list(reversed(range(graph.l))))
    assert len(rev.edges) == len(graph.edges)
    assert check_triangle_free(rev) is None
    swap = {r: r for r in range(graph.l)}
    swap[0], swap[1] = 1, 0
    swapped = column_lift(graph, swap)
    assert check_triangle_free(swapped) is None
    assert swapped.csets == {(swap[r], c): xs for (r, c), xs in graph.csets.items()}
    with pytest.raises(NotABijection):
        column_lift(graph, {r: 0 for r in range(graph.l)})


def test_compose_negative_coloring():
    graph = build_neg_graph(small_params())
    verts = graph.vertices()
    labeling = Labeling(list(range(len(verts))), [0] * len(verts))
    col = compose_negative_coloring(labeling, graph, verts)
    assert sum(col.table.values()) == len(graph.edges)
    assert find_homogeneous(col, 3, 1) is None
    with pytest.raises(DomainMismatch):
        compose_negative_coloring(labeling, graph, verts[:-1])


def test_compose_detects_injected_triangle():
    graph = build_neg_graph(small_params())
    tri = {((0, 5), (1, 4)), ((0, 5), (1, 3)), ((1, 4), (1, 3))}
    bad = GridGraph(graph.k, graph.l, frozenset(graph.edges | tri))
    verts = bad.vertices()
    labeling = Labeling(list(range(len(verts))), [0] * len(verts))
    col = compose_negative_coloring(labeling, bad, verts)
    assert find_homogeneous(col, 3, 1) is not None


def test_json_roundtrip():
    params = small_params()
    assert NegGraphParams.from_json(params.to_json()) == params
    graph = build_neg_graph(params)
    again = GridGraph.from_json(graph.to_json())
    assert again.edges == graph.edges
    assert again.csets == graph.csets
    assert set(graph.to_json()) == {"k", "l", "edges", "csets"}


@pytest.mark.parametrize("data, field_name", [
    ({"k": "2", "l": 3, "edges": [], "csets": []}, "k"),
    ([1, 2], "graph"),
    ({"k": 2, "l": 3, "edges": [[[0, 2], [5, 9]]], "csets": []}, "edges"),
    ({"k": 2, "l": 3, "edges": [[0, 1]], "csets": []}, "edges"),
    ({"k": 2, "l": 3, "edges": [], "csets": [{"row": 2, "col": 1, "entries": [7]}]}, "csets"),
])
def test_from_json_rejects_malformed_graphs(data, field_name):
    with pytest.raises(InvalidGraph) as err:
        GridGraph.from_json(data)
    assert err.value.field_name == field_name
