"""Unit tests for the grid-graph recursion and its checkers."""

import itertools
import json
import random
import time

import pytest

from oracles import (
    grid_vertices,
    reference_cset_edges,
    reference_csets,
    reference_corner_invariant,
    reference_triangle_free,
)
from scatter_calc.neg_graph import (
    DomainMismatch,
    GridGraph,
    InvalidGraph,
    InvalidParams,
    NegGraphParams,
    _cset_corners,
    _cset_triangle,
    build_neg_graph,
    check_corner_invariant,
    check_triangle_free,
    compose_negative_coloring,
)
from scatter_calc.partition import find_homogeneous


def random_params(rng: random.Random, max_k=5, max_l=40) -> NegGraphParams:
    k = rng.randint(1, max_k)
    return grid_params(rng, k, rng.randint(k, max_l))


def grid_params(rng: random.Random, k: int, l: int) -> NegGraphParams:
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
        g={2: (0, 1), 3: (2, 0), 4: (3, 2), 5: (4, 3)},
    )


def test_small_params_graph_has_edges():
    graph = build_neg_graph(small_params())
    assert graph.edges == (((0, 4), (1, 0)), ((0, 5), (1, 0)), ((0, 5), (1, 1)))


def random_corpus():
    rng = random.Random(7)
    return [build_neg_graph(random_params(rng)) for _ in range(40)]


def random_json_graph(rng: random.Random) -> dict:
    """A graph in JSON form read off random C-sets, then perturbed: planted
    triangles, duplicate edges, non-corner edges (some in one column),
    C-sets with their last entry dropped and a shuffled edge list."""
    k, l = rng.randint(1, 4), rng.randint(1, 9)
    csets, edges = [], []
    for r in range(1, l):
        for n in range(1, k):
            if rng.random() < 0.4:
                entries = sorted(rng.sample(range(r), rng.randint(1, min(r, 3))))
                csets.append({"row": r, "col": n, "entries": entries})
                edges += [[[i, r], [n, x]] for x in entries for i in range(n)]
    verts = [[c, r] for c in range(k) for r in range(l)]
    if len(verts) >= 3 and rng.random() < 0.3:
        a, b, c = rng.sample(verts, 3)
        edges += [[a, b], [c, a], [b, c]]
    if edges and rng.random() < 0.3:
        edges += [list(rng.choice(edges)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.15:
        c = rng.randrange(k)
        edges.append([[c, rng.randrange(l)], [c, rng.randrange(l)]])
    if edges and rng.random() < 0.15:
        edges.append(rng.choice(edges)[::-1])
    if csets and rng.random() < 0.3:
        entry = rng.choice(csets)
        entry["entries"] = entry["entries"][:-1]
    rng.shuffle(edges)
    return {"k": k, "l": l, "edges": edges, "csets": csets}


def test_empty_guess_sets_give_empty_graph():
    p = NegGraphParams(k=2, l=4, d={}, u={r: (1, 2) for r in range(4)},
                       g={2: (0, 1), 3: (0, 2)})
    assert build_neg_graph(p).edges == ()


def test_single_column_gives_empty_graph():
    p = NegGraphParams(k=1, l=3, d={1: frozenset({0}), 2: frozenset({1})},
                       u={r: (3,) for r in range(3)}, g={1: (0,), 2: (1,)})
    assert build_neg_graph(p).edges == ()


def test_invalid_params_name_the_field():
    with pytest.raises(InvalidParams) as err:
        NegGraphParams(k=2, l=4, d={1: frozenset()}, u={r: (1, 2) for r in range(4)}, g={})
    assert err.value.field_name == "d"
    with pytest.raises(InvalidParams) as err:
        NegGraphParams(k=2, l=4, d={}, u={r: (2, 2) for r in range(4)}, g={})
    assert err.value.field_name == "u"
    with pytest.raises(InvalidParams) as err:
        NegGraphParams(k=2, l=4, d={}, u={r: (1, 2) for r in range(4)},
                       g={2: (0, 0), 3: (0, 1)})
    assert err.value.field_name == "g"


U4 = {r: (1, 2) for r in range(4)}


@pytest.mark.parametrize("fields, field_name, detail", [
    (dict(k=0, l=0, u={}), "k", "need at least one column"),
    (dict(l=1, u={0: (1, 2)}), "l", "need at least k rows"),
    (dict(d={3: frozenset({1, 3})}), "d", "d(3) not a subset of 3"),
    (dict(u=U4 | {4: (1, 2)}), "u", "row 4 outside [0, l)"),
    (dict(u=U4 | {2: (1,)}), "u", "u_2 must have length k"),
    (dict(u=U4 | {1: (-1, 2)}), "u", "u_1 has negative entries"),
    (dict(g={1: (0, 1)}), "g", "row 1 outside [k, l)"),
    (dict(g={3: (0, 1, 2)}), "g", "g_3 must have length k"),
    (dict(g={3: (0, 3)}), "g", "g_3 does not map into 3"),
    (dict(u={r: (1, 2) for r in (0, 1, 3)}), "u", "missing u_2"),
])
def test_building_invalid_params_raises(fields, field_name, detail):
    with pytest.raises(InvalidParams) as err:
        NegGraphParams(**(dict(k=2, l=4, d={}, u=U4, g={}) | fields))
    assert err.value.field_name == field_name
    assert str(err.value) == f"invalid {field_name}: {detail}"


PARAMS_JSON = {"k": 2, "l": 4, "d": {}, "u": {str(r): [1, 2] for r in range(4)}, "g": {}}


@pytest.mark.parametrize("fields, field_name, detail", [
    ({"d": [1]}, "d", "expected an object from rows to lists of integers"),
    ({"u": {"x": [1, 2]}}, "u", "row 'x' is not a natural number in canonical decimal"),
    ({"g": {"2": [0, "1"]}}, "g", "row 2: [0, '1'] is not a list of integers"),
])
def test_params_json_of_the_wrong_shape_names_the_field(fields, field_name, detail):
    with pytest.raises(InvalidParams) as err:
        NegGraphParams.from_json(PARAMS_JSON | fields)
    assert err.value.field_name == field_name
    assert str(err.value) == f"invalid {field_name}: {detail}"


@pytest.mark.parametrize("name", ["d", "u", "g"])
def test_params_rows_are_canonical_decimals(name):
    # "02" and the fullwidth "２" both read as int 2, and would replace row 2
    rows = {"d": {"2": [1]}, "u": {"2": [0, 3]}, "g": {"2": [0, 1]}}[name]
    base = PARAMS_JSON | {name: PARAMS_JSON[name] | rows}
    assert NegGraphParams.from_json(base).to_json() == base
    for spelling in ("02", "２"):
        for order in ({**rows, spelling: rows["2"]}, {spelling: rows["2"], **rows}):
            with pytest.raises(InvalidParams) as err:
                NegGraphParams.from_json(base | {name: PARAMS_JSON[name] | order})
            assert err.value.field_name == name
            assert str(err.value) == (f"invalid {name}: row {spelling!r} is not a natural "
                                      "number in canonical decimal")


@pytest.mark.parametrize("name", ["d", "u", "g"])
def test_params_row_past_the_int_digit_limit_is_refused(name):
    # int() refuses more than 4300 digits; the row is past any l
    row = "1" * 5000
    with pytest.raises(InvalidParams) as err:
        NegGraphParams.from_json(PARAMS_JSON | {name: PARAMS_JSON[name] | {row: [0, 1]}})
    assert err.value.field_name == name
    assert str(err.value) == f"invalid {name}: row 1111111111... of 5000 digits is past l"


def test_checked_params_cannot_be_changed():
    d, u, g = {2: [1], 3: [0, 2]}, {r: (1, 3) for r in range(4)}, {2: (0, 1), 3: (2, 0)}
    p = NegGraphParams(k=2, l=4, d=d, u=u, g=g)
    edges = build_neg_graph(p).edges
    for rows in (p.d, p.u, p.g):
        with pytest.raises(TypeError):
            del rows[2]
        with pytest.raises(TypeError):
            rows[2] = (0, 1)
        with pytest.raises(AttributeError):
            rows.pop(2)
    # the caller's mappings, and the lists in them, are copied, not shared
    u.pop(2)
    g[2] = (1, 1)
    d[3].append(1)
    assert build_neg_graph(p).edges == edges
    assert p == NegGraphParams.from_json(p.to_json())
    assert p.d[3] == frozenset({0, 2})


def test_build_is_deterministic():
    p = small_params()
    a, b = build_neg_graph(p), build_neg_graph(p)
    assert a.edges == b.edges
    assert a.csets == b.csets


def test_edges_are_their_csets():
    for graph in [build_neg_graph(small_params())] + random_corpus():
        expected = {((i, r), (n, x)) for (r, n), xs in graph.csets.items()
                    for x in xs for i in range(n)}
        assert set(graph.edges) == expected
        assert graph.edges == tuple(sorted(expected))


def test_triangle_detector_sanity():
    graph = build_neg_graph(small_params())
    assert check_triangle_free(graph) is None
    # inject a triangle by hand
    tri = {((0, 5), (1, 4)), ((0, 5), (1, 3)), ((1, 4), (1, 3))}
    bad = GridGraph(graph.k, graph.l, set(graph.edges) | tri)
    witness = check_triangle_free(bad)
    assert witness is not None and len(witness) == 3
    assert witness == ((0, 5), (1, 3), (1, 4))
    # a second triangle on smaller vertices, listed last, is the least witness
    low = [((1, 1), (1, 0)), ((0, 2), (1, 1)), ((0, 2), (1, 0))]
    both = GridGraph(graph.k, graph.l, list(bad.edges) + low)
    assert check_triangle_free(both) == ((0, 2), (1, 0), (1, 1))


def test_corner_detector_sanity():
    graph = build_neg_graph(small_params())
    assert check_corner_invariant(graph) is None
    bad = GridGraph(graph.k, graph.l, graph.edges + (((1, 5), (1, 2)),), graph.csets)
    assert check_corner_invariant(bad) == ((1, 5), (1, 2))


def test_checkers_match_sorted_edge_references():
    rng = random.Random(11)
    triangles = corner_failures = clean = self_loops = 0
    for _ in range(3000):
        data = random_json_graph(rng)
        if any(a == b for a, b in data["edges"]):
            # a same-column edge may join a vertex to itself
            with pytest.raises(InvalidGraph, match="self-loop"):
                GridGraph.from_json(data)
            self_loops += 1
            continue
        k, l = data["k"], data["l"]
        edges = {(tuple(a), tuple(b)) for a, b in data["edges"]}
        csets = {(c["row"], c["col"]): tuple(c["entries"]) for c in data["csets"]}
        graph = GridGraph.from_json(data)
        assert graph.edges == tuple(sorted(edges))
        assert graph.csets == csets
        witness, corner = check_triangle_free(graph), check_corner_invariant(graph)
        assert witness == reference_triangle_free(k, l, edges)
        assert corner == reference_corner_invariant(edges, csets)
        triangles += witness is not None
        corner_failures += corner is not None
        clean += witness is None and corner is None
        reordered = dict(data, edges=data["edges"][::-1] + data["edges"][:1])
        assert GridGraph.from_json(reordered).to_json() == graph.to_json()
    # both checkers fail on some graphs and pass on others
    assert triangles > 300 and corner_failures > 300 and clean > 300 and self_loops > 10


@pytest.mark.parametrize("bad", [
    [[0, 0]], [[0, 0], [1, 0], [1, 1]], [[0, 0], [1]], [[0, 0], [0, 3]], [[0, 0], [2, 0]],
    [[0, 3], [1, 0]], [[2, 0], [1, 0]], [[-1, 0], [1, 0]], [[0, 0], [1, -1]],
    [[0, 0], [-1, 0]], [[True, 0], [1, 0]], [[0.0, 1], [1, 0]], [[0, 1], [1, 0.0]],
    [[0, 1], [1, None]], [(0, 1), [1, 0]], "ab", 7,
])
def test_from_json_names_the_first_bad_edge(bad):
    edges = [[[0, 2], [1, 1]], bad, [[0, 1], [1, 0]], [[0, 0], [1, 9]]]
    with pytest.raises(InvalidGraph) as err:
        GridGraph.from_json({"k": 2, "l": 3, "edges": edges})
    assert err.value.field_name == "edges"
    assert str(err.value) == f"invalid edges: {bad!r} is not a pair of vertices of the 2 x 3 grid"


def test_from_json_rejects_self_loops():
    edges = [[[0, 2], [1, 1]], [[0, 1], [0, 1]]]
    with pytest.raises(InvalidGraph) as err:
        GridGraph.from_json({"k": 2, "l": 3, "edges": edges})
    assert err.value.field_name == "edges"
    assert str(err.value) == "invalid edges: [[0, 1], [0, 1]] is a self-loop"


def add_corner_edge(data: dict, edge) -> None:
    """Append a corner-shaped edge to a graph in JSON form and grow the
    C-set of its source row and target column to hold it, so the degree
    bound of every column still holds."""
    (a, ra), (b, rb) = edge
    data["edges"].append([[a, ra], [b, rb]])
    for c in data["csets"]:
        if (c["row"], c["col"]) == (ra, b):
            c["entries"] = sorted(set(c["entries"]) | {rb})
            return
    data["csets"].append({"row": ra, "col": b, "entries": [rb]})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_edge_path_at_workload_scale(seed):
    """Built graphs of benchmark size with a planted corner-shaped triangle
    and a few extra edges, piped through JSON, take the edge path; both
    checkers agree with the references, and each vertex is one shared tuple."""
    rng = random.Random(seed)
    verdicts = set()
    for k in range(4, 9):
        l = round(110 * 64 / (k * k))   # 440 rows at k = 4, 110 at k = 8
        data = build_neg_graph(grid_params(rng, k, l)).to_json()
        cols = sorted(rng.sample(range(k), 3))
        rows = sorted(rng.sample(range(l), 3), reverse=True)
        for u, v in itertools.combinations(list(zip(cols, rows)), 2):
            add_corner_edge(data, (u, v))
        for _ in range(3):
            (a, b), (ra, rb) = sorted(rng.sample(range(k), 2)), rng.sample(range(l), 2)
            if k % 2:   # misshapen edges, in either direction, outside the C-sets
                data["edges"].append(rng.choice([[[a, ra], [b, rb]], [[b, rb], [a, ra]]]))
            else:
                add_corner_edge(data, ((a, max(ra, rb)), (b, min(ra, rb))))
        data = json.loads(json.dumps(data))
        graph = GridGraph.from_json(data)
        assert not is_cset_graph(graph)
        edges = {(tuple(a), tuple(b)) for a, b in data["edges"]}
        csets = {(c["row"], c["col"]): tuple(c["entries"]) for c in data["csets"]}
        assert graph.edges == tuple(sorted(edges)) and graph.csets == csets
        vertices = [v for edge in graph.edges for v in edge]
        assert len({id(v) for v in vertices}) == len(set(vertices))
        witness, corner = check_triangle_free(graph), check_corner_invariant(graph)
        assert witness is not None
        assert witness == reference_triangle_free(k, l, edges)
        assert corner == reference_corner_invariant(edges, csets)
        verdicts.add(corner is None)
        reordered = dict(data, edges=data["edges"][::-1] + data["edges"][:2])
        assert GridGraph.from_json(reordered).to_json() == graph.to_json()
    assert verdicts == {True, False}


def test_random_corpus_invariants():
    seen_edges = 0
    for graph in random_corpus():
        seen_edges += len(graph.edges)
        assert check_triangle_free(graph) is None
        assert check_corner_invariant(graph) is None
        assert graph.edges == tuple(sorted(set(graph.edges)))
    assert seen_edges > 100   # the recursion is genuinely exercised


def test_compose_negative_coloring():
    graph = build_neg_graph(small_params())
    verts = grid_vertices(graph.k, graph.l)
    n = len(verts)
    col = compose_negative_coloring(graph, verts)
    assert sum(col(i, j) for i, j in itertools.combinations(range(n), 2)) == len(graph.edges)
    assert find_homogeneous(n, col, 3, 1) is None
    with pytest.raises(DomainMismatch, match="injective"):
        compose_negative_coloring(graph, verts + verts[:1])
    for outside in [(graph.k, 0), (0, graph.l), (-1, 0)]:
        with pytest.raises(DomainMismatch, match="leaves the vertex grid"):
            compose_negative_coloring(graph, verts[:-1] + [outside])


def test_compose_detects_injected_triangle():
    graph = build_neg_graph(small_params())
    tri = {((0, 5), (1, 4)), ((0, 5), (1, 3)), ((1, 4), (1, 3))}
    bad = GridGraph(graph.k, graph.l, set(graph.edges) | tri)
    verts = grid_vertices(bad.k, bad.l)
    col = compose_negative_coloring(bad, verts)
    assert find_homogeneous(len(verts), col, 3, 1) is not None


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


@pytest.mark.parametrize("data, field_name, detail", [
    ({"k": 2, "l": 3, "edges": {}, "csets": []}, "edges", "expected a list of vertex pairs"),
    ({"k": 2, "l": 3, "edges": [], "csets": {}}, "csets", "expected a list of C-sets"),
    # a malformed C-set is named before a malformed edge
    ({"k": 2, "l": 3, "edges": [[[0, 9], [1, 1]]],
      "csets": [{"row": 3, "col": 1, "entries": []}]},
     "csets", "{'row': 3, 'col': 1, 'entries': []} is not a C-set of the 2 x 3 grid"),
])
def test_from_json_names_the_field_and_the_problem(data, field_name, detail):
    with pytest.raises(InvalidGraph) as err:
        GridGraph.from_json(data)
    assert err.value.field_name == field_name
    assert str(err.value) == f"invalid {field_name}: {detail}"


def test_from_json_refuses_a_cset_given_twice_with_different_entries():
    # with the later copy winning, C[2, 1] = {1} or {} and the corner check
    # passed or failed by input order
    a = {"row": 2, "col": 1, "entries": [1]}
    b = {"row": 2, "col": 1, "entries": []}
    edges = [[[0, 2], [1, 1]]]
    for csets in ([a, b], [b, a]):
        with pytest.raises(InvalidGraph) as err:
            GridGraph.from_json({"k": 2, "l": 3, "edges": edges, "csets": csets})
        assert err.value.field_name == "csets"
        assert str(err.value).endswith("C-set (2, 1) is given twice with different entries")
    # an identical repeat is not canonical, so the graph keeps its edges
    graph = GridGraph.from_json({"k": 2, "l": 3, "edges": edges, "csets": [a, dict(a)]})
    assert not is_cset_graph(graph) and graph.csets == {(2, 1): (1,)}
    assert check_corner_invariant(graph) is None


# -- graphs that are their C-sets -------------------------------------------------


def is_cset_graph(graph: GridGraph) -> bool:
    return graph._edges is None


def random_csets(rng: random.Random, k: int, l: int, density: float, high=0.0) -> dict:
    """Random C-sets, sorted tuples keyed by (row, col); with probability
    ``high`` a C-set also gets an entry at or above its row."""
    csets = {}
    for r in range(l):
        for n in range(k):
            if rng.random() < density:
                entries = set(rng.sample(range(r), min(r, rng.randint(1, 3))))
                if rng.random() < high:
                    entries.add(rng.randrange(r, l))
                if entries:
                    csets[(r, n)] = tuple(sorted(entries))
    return csets


def assert_matches_references(k, l, csets):
    """A graph made of the C-sets agrees with the edge-list graph of the same
    edges and with the reference checkers; returns the two verdicts."""
    edges = reference_cset_edges(csets)
    graph = GridGraph(k, l, csets=csets)
    listed = GridGraph(k, l, edges, csets)
    assert graph.edges == listed.edges == tuple(sorted(edges))
    assert json.dumps(graph.to_json()) == json.dumps(listed.to_json())
    witness, corner = check_triangle_free(graph), check_corner_invariant(graph)
    assert witness == check_triangle_free(listed) == reference_triangle_free(k, l, edges)
    assert corner == check_corner_invariant(listed) == reference_corner_invariant(edges, csets)
    # the C-set tests alone, which decide whether the edges are scanned
    assert _cset_triangle(graph) == (witness is not None)
    assert _cset_corners(graph) == (corner is None)
    again = GridGraph.from_json(json.loads(json.dumps(graph.to_json())))
    assert is_cset_graph(again)
    assert again.csets == csets and again.edges == graph.edges
    assert (check_triangle_free(again), check_corner_invariant(again)) == (witness, corner)
    return witness, corner


def test_build_matches_the_plain_set_recursion():
    rng = random.Random(3)
    for _ in range(150):
        params = random_params(rng, max_k=6, max_l=50)
        graph = build_neg_graph(params)
        assert is_cset_graph(graph)
        assert graph.csets == reference_csets(params)


def test_random_csets_match_the_edge_checkers():
    rng = random.Random(5)
    triangles = corner_failures = clean = 0
    for _ in range(600):
        k, l = rng.randint(1, 5), rng.randint(1, 12)
        witness, corner = assert_matches_references(
            k, l, random_csets(rng, k, l, rng.choice((0.1, 0.3, 0.6)), high=0.05))
        triangles += witness is not None
        corner_failures += corner is not None
        clean += witness is None and corner is None
    assert triangles > 100 and corner_failures > 50 and clean > 100


def test_mutant_csets_without_subtraction_have_triangles():
    rng = random.Random(9)
    triangles = 0
    for _ in range(300):
        params = random_params(rng, max_k=6, max_l=50)
        mutant = reference_csets(params, subtract=False)
        witness, corner = assert_matches_references(params.k, params.l, mutant)
        assert corner is None
        triangles += witness is not None
        # the subtraction is what keeps the built graph triangle-free
        assert assert_matches_references(params.k, params.l, reference_csets(params)) \
            == (None, None)
    assert triangles > 30


def test_from_json_takes_the_cset_path_only_for_canonical_input():
    rng = random.Random(13)
    for _ in range(200):
        params = random_params(rng, max_k=5, max_l=30)
        graph = build_neg_graph(params)
        text = json.dumps(graph.to_json())
        assert is_cset_graph(GridGraph.from_json(json.loads(text)))
        variants = []
        data = json.loads(text)
        if len(data["edges"]) > 1:
            data["edges"].reverse()
            variants.append(data)
        data = json.loads(text)
        if data["edges"]:
            data["edges"].append(data["edges"][0])
            variants.append(data)
        data = json.loads(text)
        if len(data["csets"]) > 1:
            data["csets"].reverse()
            variants.append(data)
        data = json.loads(text)
        if data["csets"]:
            data["csets"].append(dict(data["csets"][0]))   # a duplicate key
            variants.append(data)
        for data in variants:
            again = GridGraph.from_json(data)
            assert not is_cset_graph(again)
            assert again.edges == graph.edges and again.csets == graph.csets
            assert check_triangle_free(again) is None and check_corner_invariant(again) is None


@pytest.mark.parametrize("fake", [True, 1.0])
def test_from_json_rejects_numbers_that_only_equal_an_edge_entry(fake):
    graph = build_neg_graph(small_params())
    data = graph.to_json()
    bad = [[0, 5], [1, fake]]   # the last edge is [[0, 5], [1, 1]]
    assert data["edges"][-1] == bad
    data["edges"][-1] = bad
    with pytest.raises(InvalidGraph) as err:
        GridGraph.from_json(data)
    assert str(err.value) == f"invalid edges: {bad!r} is not a pair of vertices of the 2 x 6 grid"
    data = graph.to_json()
    assert data["csets"][-1]["entries"] == [0, 1]
    data["csets"][-1]["entries"] = [0, fake]
    with pytest.raises(InvalidGraph) as err:
        GridGraph.from_json(data)
    assert err.value.field_name == "csets"


def test_cset_entries_at_or_above_their_row_fail_the_corner_check():
    graph = build_neg_graph(small_params())
    csets = dict(graph.csets)
    csets[(2, 1)] = (2,)       # an edge ((0, 2), (1, 2)): same row
    edges = reference_cset_edges(csets)
    data = GridGraph(graph.k, graph.l, csets=csets).to_json()
    again = GridGraph.from_json(data)
    assert is_cset_graph(again)
    assert check_corner_invariant(again) == ((0, 2), (1, 2))
    assert check_corner_invariant(again) == reference_corner_invariant(edges, csets)
    # an entry above its row in the first column has no edges and breaks nothing
    assert check_corner_invariant(GridGraph(graph.k, graph.l, csets={(1, 0): (4,)})) is None


def test_large_grid_builds_and_checks_quickly():
    params = grid_params(random.Random(0), 12, 1000)
    start = time.perf_counter()
    graph = build_neg_graph(params)
    assert check_triangle_free(graph) is None
    assert check_corner_invariant(graph) is None
    elapsed = time.perf_counter() - start
    assert sum(map(len, graph.csets.values())) > 100_000
    assert elapsed < 5.0, f"k=12, l=1000 took {elapsed:.2f} s"


# the canonical C-set graph with C[1, 2] = C[2, 2] = {0} and C[2, 1] = {1},
# whose five edges close the triangle (0, 2), (1, 1), (2, 0)
TRIANGLE_CSETS = [{"row": 1, "col": 2, "entries": [0]}, {"row": 2, "col": 1, "entries": [1]},
                  {"row": 2, "col": 2, "entries": [0]}]
TRIANGLE_EDGES = [[[0, 1], [2, 0]], [[0, 2], [1, 1]], [[0, 2], [2, 0]], [[1, 1], [2, 0]],
                  [[1, 2], [2, 0]]]
TOP = 10 ** 9 - 1


@pytest.mark.parametrize("edges, csets, triangle, corner", [
    ([], [], None, None),
    (TRIANGLE_EDGES, TRIANGLE_CSETS, ((0, 2), (1, 1), (2, 0)), None),
    ([[[0, 5], [1, 4]]], [], None, ((0, 5), (1, 4))),
    # C-sets on the last rows of the grid
    ([[[0, TOP], [1, TOP - 1]], [[0, TOP], [2, TOP - 2]], [[1, TOP], [2, TOP - 2]]],
     [{"row": TOP, "col": 1, "entries": [TOP - 1]}, {"row": TOP, "col": 2, "entries": [TOP - 2]}],
     None, None),
    # an empty C-set in the last column has no edges to write
    ([], [{"row": TOP, "col": TOP, "entries": []}], None, None),
])
def test_checks_on_a_10e9_grid_follow_the_edges_and_csets(edges, csets, triangle, corner):
    start = time.perf_counter()
    graph = GridGraph.from_json({"k": 10 ** 9, "l": 10 ** 9, "edges": edges, "csets": csets})
    assert is_cset_graph(graph) == (edges == [] or csets != [])
    assert check_triangle_free(graph) == triangle
    assert check_corner_invariant(graph) == corner
    if is_cset_graph(graph):   # so does the certificate, with one list per edge end
        written = graph.to_json()["edges"]
        assert [(tuple(a), tuple(b)) for a, b in written] \
            == sorted(reference_cset_edges(graph.csets)) == list(graph.edges)
        for ends in ([a for a, _ in written], [b for _, b in written]):
            assert len({id(v) for v in ends}) == len({tuple(v) for v in ends})
    assert time.perf_counter() - start < 1.0
    if edges is TRIANGLE_EDGES:   # the same witness on the smallest grid that holds it
        small = GridGraph.from_json({"k": 3, "l": 3, "edges": edges, "csets": csets})
        assert is_cset_graph(small) and check_triangle_free(small) == triangle
