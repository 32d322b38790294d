"""Command-line interface tests: wiring, exit codes, certificates."""

import itertools
import json
import subprocess
import sys
import time

import pytest

from scatter_calc import decode_element, parse_term
from scatter_calc.milner_rado import LabelTooLarge, mr_label_term

PY = [sys.executable, "-m", "scatter_calc"]


def run(*argv, stdin=None, timeout=None):
    return subprocess.run(PY + list(argv), capture_output=True, text=True,
                          input=stdin, timeout=timeout)


def payload(result):
    assert result.returncode in (0, 2), result.stderr
    return json.loads(result.stdout)


def test_parse_ok():
    res = run("parse", "--term", "scaled(ord(w), fin(2))")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["term"] == "scaled(ord(w), fin(2))"
    assert data["schema"] == "scatter-calc.v2"
    assert data["fundamental_sequence"] == "wainer-cnf"


def test_parse_invalid_index_is_usage_error():
    res = run("parse", "--term", "scaled(ord(w), shuffle(w))")
    assert res.returncode == 1
    assert "InvalidIndexTerm" in res.stderr


def assert_one_error_line(res):
    assert res.returncode == 1
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_deep_terms_are_input_errors():
    for term in ["rev(" * 3000 + "fin(1)" + ")" * 3000, "pow(fin(2), 5000)"]:
        assert_one_error_line(run("parse", "--term", term))


def test_unknown_flag_is_usage_error():
    res = run("parse", "--term", "fin(2)", "--bogus")
    assert res.returncode == 1


def test_compare_command():
    res = run("compare", "--term", "ord(w)", "--a", '"3"', "--b", '"5"')
    data = payload(res)
    assert data["result"] == "Less"
    assert res.returncode == 0


def test_compare_rejects_booleans():
    for term, a, b in [("ord(w)", "true", "1"), ("fin(3)", "1", "false"),
                       ("sum[fin(2), fin(2)]", '{"i": true, "e": 0}', '{"i": 1, "e": 0}'),
                       ("finsupp(w, fin(2), 0)", '{"supp": [{"pos": true, "e": 1}]}',
                        '{"supp": []}')]:
        res = run("compare", "--term", term, "--a", a, "--b", b)
        assert_one_error_line(res)
        assert "InvalidElement" in res.stderr
    assert_one_error_line(run("parse", "--term", "finsupp(w, fin(2), true)"))


def test_sample_matches_library(tmp_path):
    res = run("sample", "--term", "ord(w^2)", "--budget", "6", "--seed", "3")
    data = payload(res)
    from scatter_calc import parse_term, sample_elements, encode_element
    term = parse_term("ord(w^2)")
    expected = [encode_element(term, e) for e in sample_elements(term, 6, 3)]
    assert data["elements"] == expected


def test_embed_search_command():
    res = run("embed-search", "--pattern", "fin(3)", "--term", "ord(w^2)",
              "--budget", "8", "--seed", "1")
    data = payload(res)
    assert data["found"] is True and len(data["embedding"]) == 3


def test_sierpinski_command():
    res = run("sierpinski", "--tags", "[3, 1, 2]")
    data = payload(res)
    pairs = {(p["a"], p["b"]): p["c"] for p in data["coloring"]["pairs"]}
    assert pairs == {(0, 1): 1, (0, 2): 1, (1, 2): 0}


def test_extract_unary_command():
    spec = {"p": 2, "nu": 2,
            "F": [{"g": [a, b], "c": a} for a in (0, 1) for b in (0, 1)]}
    res = run("extract-unary", "--input", "-", stdin=json.dumps(spec))
    data = payload(res)
    assert data["colour"] == 1
    assert data["witness"] == [[1, 0], [1, 1]]


def test_step_up_command_deterministic():
    a = run("step-up", "--p", "4", "--n", "2", "--seed", "9")
    b = run("step-up", "--p", "4", "--n", "2", "--seed", "9")
    assert a.returncode == 0 and a.stdout == b.stdout


def test_mr_label_and_bound():
    res = run("mr-label", "--term", "scaled(ord(w), fin(2))",
              "--elem", '{"i": 0, "e": "5"}')
    data = payload(res)
    assert data["label"] == 3
    assert data["chain"] == [{"m": 0, "n": 1, "value": 3}]
    res = run("mr-bound", "--alpha", "w", "--n", "1")
    assert payload(res)["bound"] == "w"


def test_mr_label_on_deep_sums_is_bounded():
    depth = 26
    term = "sum[" * depth + "ord(w)" + "]" * depth
    elem = "5"
    for _ in range(depth):
        elem = {"i": 0, "e": elem}
    parsed = parse_term(term)
    start = time.perf_counter()
    with pytest.raises(LabelTooLarge):
        mr_label_term(parsed, decode_element(parsed, elem))
    assert time.perf_counter() - start < 1.0
    assert_one_error_line(run("mr-label", "--term", term, "--elem", json.dumps(elem),
                              timeout=60))


def test_ks_check_exit_codes():
    ok = run("ks-check", "--term", "scaled(ord(w), fin(2))", "--n", "3",
             "--budget", "40", "--seed", "2")
    assert ok.returncode == 0 and payload(ok)["ok"] is True
    # a 200-point sample of the same term does contain the 64-point pattern
    bad = run("ks-check", "--term", "scaled(ord(w), fin(2))", "--n", "3",
              "--budget", "200", "--seed", "2")
    assert bad.returncode == 2 and json.loads(bad.stdout)["ok"] is False


def test_neg_graph_pipeline(tmp_path):
    params = {
        "k": 2, "l": 6,
        "d": {"2": [0, 1], "3": [1, 2], "4": [0, 3], "5": [2, 4]},
        "u": {str(r): [1, 3] for r in range(6)},
        "g": {"2": [0, 1], "3": [0, 2], "4": [1, 3], "5": [2, 4]},
    }
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(params))
    build = run("neg-graph", "build", "--params", str(pfile))
    assert build.returncode == 0
    check = run("neg-graph", "check", "-", stdin=build.stdout)
    assert check.returncode == 0
    data = json.loads(check.stdout)
    assert data["triangle_free"] is True and data["corner_ok"] is True


def test_neg_graph_check_witness_exit_2(tmp_path):
    graph = {"k": 2, "l": 3,
             "edges": [[[0, 2], [1, 1]], [[0, 2], [1, 0]], [[1, 1], [1, 0]]],
             "provenance": [], "csets": []}
    check = run("neg-graph", "check", "-", stdin=json.dumps({"graph": graph}))
    assert check.returncode == 2
    data = json.loads(check.stdout)
    assert data["triangle_free"] is False


ROUND_TRIP_PARAMS = {
    "k": 4, "l": 12,
    "d": {"4": [0, 2, 3], "6": [0, 1, 3, 5], "9": [4, 5, 7], "10": [0, 1, 7], "11": [3, 5]},
    "u": {"0": [2, 3, 5, 7], "1": [1, 4, 5, 6], "2": [2, 4, 6, 9], "3": [5, 6, 9, 12],
          "4": [4, 6, 8, 9], "5": [4, 5, 7, 8], "6": [2, 5, 6, 7], "7": [2, 4, 5, 8],
          "8": [3, 6, 7, 10], "9": [3, 6, 8, 9], "10": [5, 6, 7, 9], "11": [3, 4, 5, 7]},
    "g": {"4": [0, 1, 2, 3], "5": [0, 2, 3, 4], "6": [1, 2, 4, 5], "7": [0, 4, 5, 6],
          "8": [0, 1, 3, 4], "9": [2, 3, 5, 8], "10": [1, 4, 5, 6], "11": [0, 1, 4, 8]},
}


def test_neg_graph_check_ignores_edge_order():
    build = run("neg-graph", "build", "--params", "-", stdin=json.dumps(ROUND_TRIP_PARAMS))
    assert build.returncode == 0
    cert = json.loads(build.stdout)
    assert len(cert["graph"]["edges"]) == 9
    as_is = run("neg-graph", "check", "-", stdin=build.stdout)
    cert["graph"]["edges"].reverse()
    flipped = run("neg-graph", "check", "-", stdin=json.dumps(cert))
    assert as_is.returncode == flipped.returncode == 0
    assert as_is.stdout == flipped.stdout


def test_neg_graph_check_reports_the_least_triangle():
    graph = json.loads(run("neg-graph", "build", "--params", "-",
                           stdin=json.dumps(ROUND_TRIP_PARAMS)).stdout)["graph"]
    # two planted corner-shaped triangles, the least one listed last
    graph["edges"] += [[[1, 11], [2, 6]], [[1, 11], [3, 2]], [[2, 6], [3, 2]],
                       [[0, 5], [1, 3]], [[0, 5], [2, 1]], [[1, 3], [2, 1]]]
    check = run("neg-graph", "check", "-", stdin=json.dumps({"graph": graph}))
    assert check.returncode == 2
    witness = json.loads(check.stdout)["triangle_witness"]
    edges = {frozenset(map(tuple, e)) for e in graph["edges"]}
    vertices = sorted({v for e in edges for v in e})
    least = min(t for t in itertools.combinations(vertices, 3)
                if all(frozenset(p) in edges for p in itertools.combinations(t, 2)))
    assert witness == [list(v) for v in least] == [[0, 5], [1, 3], [2, 1]]


def test_neg_graph_check_rejects_malformed_graphs():
    for data in [{"graph": {"k": "2", "l": 3, "edges": [], "csets": []}},
                 [1, 2],
                 {"k": 2, "l": 3, "edges": [[[0, 2], [5, 9]]], "csets": []},
                 {"k": 2, "l": 3, "edges": [[0, 1]], "csets": []}]:
        res = run("neg-graph", "check", "-", stdin=json.dumps(data))
        assert_one_error_line(res)
        assert "InvalidGraph" in res.stderr


def test_neg_graph_check_rejects_self_loops():
    data = {"k": 2, "l": 3, "edges": [[[0, 1], [0, 1]]], "csets": []}
    res = run("neg-graph", "check", "-", stdin=json.dumps(data))
    assert_one_error_line(res)
    assert "InvalidGraph: invalid edges: [[0, 1], [0, 1]] is a self-loop" in res.stderr


def test_neg_graph_build_rejects_malformed_params():
    for data in [[1, 2], {"k": "2", "l": 3, "d": {}, "u": {}, "g": {}}]:
        res = run("neg-graph", "build", "--params", "-", stdin=json.dumps(data))
        assert_one_error_line(res)
        assert "InvalidParams" in res.stderr


def test_neg_graph_build_ignores_u_beyond_the_columns():
    # u_4(1) is far above k, and gives the same graph as any value >= k
    params = {
        "k": 2, "l": 5,
        "d": {"2": [0, 1], "3": [1, 2], "4": [0, 3]},
        "u": {str(r): [1, 3] for r in range(4)} | {"4": [1, 10 ** 18]},
        "g": {"2": [0, 1], "3": [2, 0], "4": [3, 2]},
    }
    build = run("neg-graph", "build", "--params", "-", stdin=json.dumps(params), timeout=60)
    assert build.returncode == 0
    assert json.loads(build.stdout)["graph"]["edges"] == [[[0, 4], [1, 0]]]


def test_ks_search_and_verify(tmp_path):
    search = run("ks", "search", "--delta", "2", "--mu-range", "6",
                 "--level-bound", "2", "--oracle", "length")
    data = payload(search)
    assert data["found"] is True
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(data["tree"]))
    verify = run("ks", "verify", "--tree", str(tree_file), "--oracle", "length")
    assert verify.returncode == 0 and payload(verify)["ok"] is True
    # wrong oracle: levels clash
    verify2 = run("ks", "verify", "--tree", str(tree_file), "--oracle", "parity")
    assert verify2.returncode in (0, 2)


def test_env_seed_default():
    import os
    env = dict(os.environ, SCATTER_CALC_SEED="7")
    with_env = subprocess.run(PY + ["sample", "--term", "ord(w^2)", "--budget", "5"],
                              capture_output=True, text=True, env=env)
    explicit = run("sample", "--term", "ord(w^2)", "--budget", "5", "--seed", "7")
    assert with_env.stdout == explicit.stdout
    assert json.loads(with_env.stdout)["seed"] == 7


def test_ks_embed_command(tmp_path):
    tree = {"alpha": "1", "entries": [{"seq": ["0"], "val": "9"}]}
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps(tree))
    res = run("ks", "embed", "--tree", str(tree_file),
              "--source-host", "finsupp(1, fin(3), 0)",
              "--target-host", "finsupp(12, fin(3), 0)",
              "--f", '{"supp": [{"pos": "0", "e": 2}]}')
    data = payload(res)
    assert data["image"] == {"supp": [{"pos": "9", "e": 2}]}
