"""Command-line interface tests: wiring, exit codes, certificates."""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import reference_step_up_colour
from scatter_calc import cli, decode_element, encode_element, parse_term, sample_elements
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
    assert data["schema"] == "scatter-calc.v4"


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


def pow_nest(depth, base="fin(2)"):
    return "pow(" * depth + base + ", 2)" * depth


def test_parse_refuses_sizes_past_4300_digits_at_once():
    nines = "9" * 4000
    # 3^(10^8) and (10^4000)^14000 are never computed in full
    for term in ["finsupp(100000000, fin(3), 0)", f"finsupp(14000, fin({nines}), 0)",
                 f"sum[fin({'9' * 4300}), fin(1)]", pow_nest(14)]:
        start = time.perf_counter()
        res = run("parse", "--term", term, timeout=3)
        assert time.perf_counter() - start < 2.0
        assert_one_error_line(res)
        assert "finite size has more than 4300 digits" in res.stderr
    for term, size in [(f"fin({'9' * 4300})", 10 ** 4300 - 1), (pow_nest(13), 2 ** 2 ** 13)]:
        assert payload(run("parse", "--term", term))["finite_size"] == size


def test_parse_counts_a_finsupp_of_length_0_as_one_point():
    # the inner order is infinite, yet the empty support is the only element
    assert payload(run("parse", "--term", "finsupp(0, ord(w), 0)"))["finite_size"] == 1


def test_term_text_past_the_limit_is_refused_unbuilt():
    limit = cli.terms.TERM_TEXT_LIMIT
    res = run("parse", "--term", pow_nest(26), timeout=3)
    assert_one_error_line(res)
    assert f"exceeds the limit of {limit}" in res.stderr
    # 16 nested pows print 2^16 copies of the base, just within the limit
    data = payload(run("parse", "--term", pow_nest(16, "ord(w)")))
    assert data["finite_size"] is None
    assert len(data["term"]) <= limit and data["term"].count("ord(w)") == 2 ** 16


def test_unknown_flag_is_usage_error():
    res = run("parse", "--term", "fin(2)", "--bogus")
    assert_one_error_line(res)
    assert "unrecognized arguments: --bogus" in res.stderr


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


def test_budgets_past_the_limit_are_refused_at_once():
    limit = cli.terms.SAMPLE_BUDGET_LIMIT
    assert len(sample_elements(parse_term("fin(3)"), limit)) == 3
    with pytest.raises(cli.terms.TermError, match=f"budget {limit + 1} exceeds the limit"):
        sample_elements(parse_term("fin(3)"), limit + 1)
    for argv in [["sample", "--term", "ord(w)"],
                 ["embed-search", "--pattern", "fin(3)", "--term", "ord(w)"],
                 ["ks-check", "--term", "ord(w)", "--n", "2"]]:
        start = time.perf_counter()
        res = run(*argv, "--budget", "100000000", timeout=10)
        assert time.perf_counter() - start < 5.0
        assert_one_error_line(res)
        assert f"TermError: budget 100000000 exceeds the limit of {limit}" in res.stderr


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


def main_in_process(argv, stdin=""):
    """(exit code, stdout, stderr) of one ``cli.main`` call in this process."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse refusals
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def step_up_problems(cert, p, colour):
    """What is wrong with one step-up certificate under colour(seed, x, y)."""
    side, points = cert["side"], [(a, tuple(b)) for a, b in cert["witness"]]
    problems = []
    if len(points) != {"zero": p, "one": 3}.get(side):
        problems.append("size")
    if points != sorted(set(points)):
        problems.append("order")
    if not all(0 <= a < p and len(b) == p - 1 and all(0 <= v < p for v in b)
               for a, b in points):
        problems.append("domain")
    want = 0 if side == "zero" else 1
    if any(colour(cert["seed"], x, y) != want for x, y in itertools.combinations(points, 2)):
        problems.append("colour")
    return problems


def test_step_up_witnesses_recheck_against_the_reference_colour():
    def flipped(seed, x, y):
        return 1 - reference_step_up_colour(seed, x, y)

    assert cli.SCHEMA == "scatter-calc.v4"   # the colour below is v3's, kept in v4
    sides_at_3 = set()
    for p in range(3, 8):
        for seed in range(60 if p == 3 else 10):
            code, out, _ = main_in_process(["step-up", "--p", str(p), "--seed", str(seed)])
            cert = json.loads(out)
            assert code == 0 and cert["seed"] == seed
            assert step_up_problems(cert, p, reference_step_up_colour) == [], (p, seed)
            assert "colour" in step_up_problems(cert, p, flipped), (p, seed)
            if p == 3:
                sides_at_3.add(cert["side"])
    assert sides_at_3 == {"zero", "one"}


def test_step_up_n_accepts_only_2():
    for p in range(1, 8):
        for seed in range(60 if p == 3 else 10):
            argv = ["step-up", "--p", str(p), "--seed", str(seed)]
            assert main_in_process(argv + ["--n", "2"]) == main_in_process(argv)
            code, out, err = main_in_process(argv + ["--n", "3"])
            assert (code, out) == (1, "")
            assert err.startswith("error: argument --n: invalid choice: 3") and err.count("\n") == 1
    res = run("step-up", "--p", "3", "--n", "3")
    assert_one_error_line(res)
    assert res.stdout == ""


def test_step_up_p7_runs_in_a_fresh_process_within_two_seconds():
    assert cli.SCHEMA == "scatter-calc.v4"   # v2 tabulated every pair: 10^11 at p = 7
    start = time.perf_counter()
    res = run("step-up", "--p", "7", "--seed", "1", timeout=60)
    assert res.returncode == 0 and time.perf_counter() - start < 2.0
    assert step_up_problems(json.loads(res.stdout), 7, reference_step_up_colour) == []


# -- golden certificate bytes ------------------------------------------------------------

# The sierpinski, step-up and ks-check calls below with their exit codes and
# stdout, hashed together.  The digest was computed before pair colourings
# became callables and labellings became dicts of their classes, and
# re-pinned once for the v4 header and samples.
GOLDEN_CLI = "4f15b7bc92dc1e799c2fe45b5c8753e6482fd8c903b1e743e3eb062df6a6b91b"
KS_GOLDEN_TERMS = [("scaled(ord(w), fin(2))", "200"), ("ord(w^w)", "40"),
                   ("sum[rev(ord(w)), ord(w^2)]", "60"), ("shuffle(w)", "20")]


def golden_calls():
    """sierpinski on 0-39 tags plus a too-long and a non-injective tag list,
    step-up at p = 1..7 and seeds 0-29, and ks-check on four terms (one
    outside the labelled fragment) at n = 0..4 and seeds 0-2."""
    rng = random.Random(2024)
    calls = [["sierpinski", "--tags", json.dumps(rng.sample(range(100), n))] for n in range(40)]
    calls += [["sierpinski", "--tags", json.dumps(list(range(257)))],
              ["sierpinski", "--tags", "[4, 1, 4]"]]
    calls += [["step-up", "--p", str(p), "--seed", str(seed)]
              for p in range(1, 8) for seed in range(30)]
    calls += [["ks-check", "--term", term, "--n", str(n), "--budget", budget, "--seed", str(seed)]
              for term, budget in KS_GOLDEN_TERMS for n in range(5) for seed in range(3)]
    return calls


def test_certificates_match_golden_digest():
    records = [[argv, *main_in_process(argv)[:2]] for argv in golden_calls()]
    assert {code for _, code, _ in records} == {0, 1, 2}
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == GOLDEN_CLI


def test_step_up_refuses_large_p_at_once():
    limit = cli.partition.LEX_POWER_LIMIT
    for p in ("10" * 20, "1000000", "8"):
        start = time.perf_counter()
        res = run("step-up", "--p", p, timeout=3)
        assert time.perf_counter() - start < 2.0
        assert_one_error_line(res)
        assert f"exceed the limit of {limit} entries" in res.stderr
    for p in ("0", "-3"):
        res = run("step-up", "--p", p)
        assert_one_error_line(res)
        assert f"step-up needs --p of at least 1, got {p}" in res.stderr


def test_sierpinski_refuses_too_many_tags_at_once():
    limit = cli.partition.SIERPINSKI_TAG_LIMIT
    # 10,000 tags are 5e7 pairs, minutes and tens of GB if tabulated
    res = run("sierpinski", "--tags", json.dumps(list(range(10_000))), timeout=3)
    assert_one_error_line(res)
    assert f"10000 tags exceed the limit of {limit} tags" in res.stderr
    tags = list(range(limit))[::-1]
    ok = run("sierpinski", "--tags", json.dumps(tags), timeout=60)
    assert ok.returncode == 0
    assert len(json.loads(ok.stdout)["coloring"]["pairs"]) == limit * (limit - 1) // 2


TREE = '{"alpha": "1", "entries": [{"seq": ["0"], "val": "4"}]}'
EMBED = ["ks", "embed", "--tree", "-", "--target-host", "finsupp(6, fin(3), 0)"]


@pytest.mark.parametrize("argv, stdin", [
    (["sierpinski", "--tags", '[1, "a"]'], None),
    (["sierpinski", "--tags", "[[1],[2]]"], None),
    (["sierpinski", "--tags", "5"], None),
    (["extract-unary"], "[1]"),
    (["extract-unary"], '{"p": 2, "nu": 2, "F": [{"g": 5, "c": 0}]}'),
    (["extract-unary"], '{"p": "2", "nu": 2, "F": []}'),
    (["extract-unary"], '{"p": 2, "nu": 2, "F": [{"g": [[0], 0], "c": 0}]}'),
    (["ks", "verify", "--tree", "-"], '{"alpha": "2", "entries": 5}'),
    (["ks", "verify", "--tree", "-"], "[]"),
    (["ks", "verify", "--tree", "-"], '{"alpha": "2", "entries": [{"seq": 5, "val": "1"}]}'),
    (["ks", "verify", "--tree", "-"], '{"alpha": "2", "entries": [{"seq": [5], "val": "1"}]}'),
    (["ks", "verify", "--tree", "-"], '{"alpha": "2", "entries": [{"seq": ["1"], "val": 1}]}'),
    (EMBED + ["--source-host", "finsupp(1, fin(3), 0)"], TREE),
    (EMBED + ["--f", '{"supp": []}'], TREE),
    (["compare", "--term", "finsupp(3, fin(2), 0)", "--a", '{"supp": 3}', "--b",
      '{"supp": []}'], None),
])
def test_malformed_json_is_one_error_line(argv, stdin):
    assert_one_error_line(run(*argv, stdin=stdin))


def test_deeply_nested_json_is_one_error_line():
    deep = "[" * 100000
    for argv, stdin in [(["compare", "--term", "fin(3)", "--a", deep, "--b", "1"], ""),
                        (["sierpinski", "--tags", deep], ""),
                        (["neg-graph", "check", "-"], deep),
                        (["ks", "verify", "--tree", "-"], deep)]:
        code, out, err = main_in_process(argv, stdin)
        assert (code, out) == (1, "")
        assert err.startswith("error: RecursionError: ") and err.count("\n") == 1


def test_mr_label_and_bound():
    res = run("mr-label", "--term", "scaled(ord(w), fin(2))",
              "--elem", '{"i": 0, "e": "5"}')
    data = payload(res)
    assert data["label"] == 3
    assert data["chain"] == [{"m": 0, "n": 1, "value": 3}]
    res = run("mr-bound", "--alpha", "w", "--n", "1")
    assert payload(res)["bound"] == "w"
    # the pairing is fixed by the schema and there is no flag for it
    res = run("mr-label", "--term", "fin(2)", "--elem", "0", "--pi", "cantor1")
    assert res.returncode == 1 and "unrecognized arguments: --pi" in res.stderr


def test_deep_exponents_end_in_a_certificate():
    # each recursed once per finite step of the exponent and died in a traceback
    for argv, key, value in [
            (["mr-label", "--term", "ord(w^990)", "--elem", '"0"'], "label", 990),
            (["mr-bound", "--alpha", "w^990", "--n", "990"], "bound", "w^990"),
            (["ks-check", "--term", "ord(w^2000)", "--n", "3"], "ok", True),
            (["mr-bound", "--alpha", "w^1000000000", "--n", "1000000000"], "bound",
             "w^1000000000")]:
        res = run(*argv, timeout=10)
        assert res.returncode == 0 and res.stderr == ""
        assert json.loads(res.stdout)[key] == value


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


def test_ks_check_large_n_is_a_size_comparison():
    # the check never builds the 4^n-point pattern, so n past its depth limit is fine
    for n in ("127", "1000000000"):
        start = time.perf_counter()
        res = run("ks-check", "--term", "ord(w)", "--n", n, "--budget", "10", timeout=10)
        assert time.perf_counter() - start < 2.0
        assert res.returncode == 0 and payload(res)["ok"] is True


def test_ks_check_negative_n_is_one_error_line():
    res = run("ks-check", "--term", "ord(w)", "--n", "-1")
    assert_one_error_line(res)
    assert "class index must be a natural number" in res.stderr


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


def test_neg_graph_pipeline_on_the_committed_params():
    # the packaging smoke test in CI pipes the same file through the installed script
    params = str(Path(__file__).with_name("grid_params.json"))
    build = run("neg-graph", "build", "--params", params)
    assert build.returncode == 0 and len(json.loads(build.stdout)["graph"]["edges"]) == 94
    check = run("neg-graph", "check", "-", stdin=build.stdout)
    assert check.returncode == 0
    assert json.loads(check.stdout)["triangle_free"] is True


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


def test_ks_verify_reports_a_missing_prefix():
    tree = {"alpha": "3", "entries": [{"seq": ["2", "1"], "val": "0"}]}
    res = run("ks", "verify", "--tree", "-", stdin=json.dumps(tree))
    assert_one_error_line(res)
    assert res.stderr == "error: TreeDomainMiss: tree has no value for prefix ('2',)\n"


def test_a_tree_sequence_given_twice_with_different_values_is_refused():
    # kept as the last of the two, the order of the entries would decide
    # between exit 2 and exit 0
    first, second = {"seq": ["1"], "val": "0"}, {"seq": ["1"], "val": "2"}
    sibling = {"seq": ["2"], "val": "1"}
    for entries in ([first, second, sibling], [second, first, sibling]):
        tree = json.dumps({"alpha": "3", "entries": entries})
        assert main_in_process(["ks", "verify", "--tree", "-"], tree) == (
            1, "", "error: InvalidInput: invalid entries: sequence ['1'] is given twice "
                   "with different values\n")
    # the same value twice is one entry
    tree = json.dumps({"alpha": "3", "entries": [first, first, sibling]})
    code, out, _ = main_in_process(["ks", "verify", "--tree", "-"], tree)
    assert code == 0 and json.loads(out)["ok"] is True


def test_ks_search_refuses_more_than_512_tree_nodes_at_once():
    limit = cli.antilex.ALPHA_TREE_NODE_LIMIT
    # 1023 nodes, 1000, 465 + 4060 and 10^9: the parent ran out of stack,
    # of memory or of time on these
    for args in (["--delta", "10", "--level-bound", "10", "--mu-range", "20"],
                 ["--delta", "1000", "--level-bound", "1", "--mu-range", "2000"],
                 ["--delta", "30", "--level-bound", "30"], ["--delta", "1000000000"]):
        start = time.perf_counter()
        res = run("ks", "search", *args, timeout=3)
        assert time.perf_counter() - start < 2.0
        assert_one_error_line(res)
        assert f"more than {limit} tree nodes" in res.stderr
    # 511 nodes, one recursion level each; a level bound past delta adds none
    for args, nodes in [(["--delta", "9", "--level-bound", "9", "--mu-range", "10"], 511),
                        (["--delta", "2", "--level-bound", "1000000000"], 3)]:
        data = payload(run("ks", "search", *args, timeout=10))
        assert data["found"] is True and len(data["tree"]["entries"]) == nodes


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


INCOHERENT_TREE = ('{"alpha": "2", "entries": [{"seq": ["1"], "val": "5"},'
                   ' {"seq": ["1", "0"], "val": "5"}]}')


def test_ks_embed_refuses_an_incoherent_tree():
    # both support points would move to position 5, and one would be lost
    argv = ["ks", "embed", "--tree", "-", "--source-host", "finsupp(2, fin(3), 0)",
            "--target-host", "finsupp(9, fin(3), 0)",
            "--f", '{"supp": [{"pos": "1", "e": 1}, {"pos": "0", "e": 2}]}']
    assert main_in_process(["ks", "verify", "--tree", "-"], INCOHERENT_TREE)[0] == 2
    code, out, err = main_in_process(argv, INCOHERENT_TREE)
    assert (code, out) == (1, "")
    assert err == "error: AntilexError: tree is not coherent: child-not-below-parent\n"


# -- every verb's bytes --------------------------------------------------------------

CLASHING_TREE = ('{"alpha": "2", "entries": [{"seq": ["0"], "val": "4"},'
                 ' {"seq": ["1"], "val": "5"}]}')
WITNESS_GRAPH = {"k": 2, "l": 3, "provenance": [], "csets": [],
                 "edges": [[[0, 2], [1, 1]], [[0, 2], [1, 0]], [[1, 1], [1, 0]]]}
VERBS = ["parse", "compare", "sample", "embed-search", "sierpinski", "extract-unary",
         "step-up", "mr-label", "mr-bound", "ks-check", "neg-graph", "ks"]

# (argv, stdin, SCATTER_CALC_SEED or None for unset): every verb and action,
# every --help, and the refusal paths, including a bad seed in the environment
ALL_VERB_CALLS = [
    (["parse", "--term", "scaled(ord(w), fin(2))"], None, None),
    (["parse", "--term", "finsupp(w^2, fin(3), 1)"], None, None),
    (["parse", "--term", "scaled(ord(w), shuffle(w))"], None, None),
    (["parse", "--term", "fin(("], None, None),
    (["parse", "--term", "finsupp(100000000, fin(3), 0)"], None, None),
    (["parse", "--term", "fin(2)"], None, "x"),
    (["parse", "--term", "fin(2)", "--bogus"], None, None),
    (["parse", "--term", "fin(2)", "--out", "missing-directory/cert.json"], None, None),
    (["compare", "--term", "ord(w)", "--a", '"3"', "--b", '"5"'], None, None),
    (["compare", "--term", "sum[fin(2), ord(w)]", "--a", '{"i": 1, "e": "4"}',
      "--b", '{"i": 0, "e": 1}'], None, None),
    (["compare", "--term", "ord(w)", "--a", "true", "--b", "1"], None, None),
    (["compare", "--term", "fin(3)", "--a", "[", "--b", "1"], None, None),
    (["sample", "--term", "finsupp(w^2, fin(3), 1)", "--budget", "12", "--seed", "7"],
     None, None),
    (["sample", "--term", "ord(w^2)", "--budget", "5"], None, None),
    (["sample", "--term", "ord(w^2)", "--budget", "5"], None, "7"),
    (["sample", "--term", "ord(w^2)", "--budget", "5"], None, "x"),
    (["sample", "--term", "ord(w^2)", "--budget", "5", "--seed", "3"], None, "x"),
    (["embed-search", "--pattern", "fin(4)", "--term", "ord(w^2)", "--budget", "10"],
     None, None),
    (["embed-search", "--pattern", "fin(12)", "--term", "ord(w)", "--budget", "10",
      "--seed", "2"], None, None),
    (["embed-search", "--pattern", "fin(2)", "--term", "ord(w)"], None, "x"),
    (["sierpinski", "--tags", "[3, 1, 2, 0]"], None, None),
    (["sierpinski", "--tags", "[4, 1, 4]"], None, None),
    (["extract-unary"], json.dumps(
        {"p": 2, "nu": 2, "F": [{"g": [a, b], "c": a} for a in (0, 1) for b in (0, 1)]}),
     None),
    (["extract-unary", "--input", "-"], "[1]", None),
    (["step-up", "--p", "4", "--n", "2", "--seed", "12"], None, None),
    (["step-up", "--p", "3"], None, None),
    (["step-up", "--p", "3"], None, "5"),
    (["step-up", "--p", "3"], None, "x"),
    (["step-up", "--p", "0"], None, None),
    (["step-up", "--p", "8"], None, None),
    (["step-up", "--p", "3", "--n", "3"], None, None),
    (["mr-label", "--term", "scaled(ord(w), fin(2))", "--elem", '{"i": 0, "e": "5"}'],
     None, None),
    (["mr-label", "--term", "ord(w)", "--elem", '"w"'], None, None),
    (["mr-label", "--term", "shuffle(w)", "--elem", '["1"]'], None, None),
    (["mr-bound", "--alpha", "w^2*2 + w*3", "--n", "2"], None, None),
    (["mr-bound", "--alpha", "w", "--n", "-1"], None, None),
    (["mr-bound", "--alpha", "w +", "--n", "1"], None, None),
    (["ks-check", "--term", "scaled(ord(w), fin(2))", "--n", "3", "--budget", "40",
      "--seed", "2"], None, None),
    (["ks-check", "--term", "scaled(ord(w), fin(2))", "--n", "3", "--budget", "200",
      "--seed", "2"], None, None),
    (["ks-check", "--term", "scaled(ord(w), fin(2))", "--n", "3", "--budget", "200",
      "--seed", "2", "--out", "missing-directory/cert.json"], None, None),
    (["ks-check", "--term", "ord(w)", "--n", "1"], None, "x"),
    (["neg-graph", "build", "--params", "-"], json.dumps(ROUND_TRIP_PARAMS), None),
    (["neg-graph", "build", "--params", "-"], "[1, 2]", None),
    (["neg-graph", "check", "-"], json.dumps({"graph": WITNESS_GRAPH}), None),
    (["neg-graph", "check"], json.dumps({"k": 2, "l": 3, "edges": [[[0, 2], [1, 1]]],
                                         "provenance": [], "csets": []}), None),
    (["neg-graph", "check", "-"], "[1, 2]", None),
    (["neg-graph", "check", "-"], '{"k": 2, "l": 3, "edges": [[[0, 1], [0, 1]]]}', None),
    (["ks", "search", "--delta", "2", "--mu-range", "6", "--level-bound", "2",
      "--oracle", "length"], None, None),
    (["ks", "search", "--delta", "3", "--mu-range", "2", "--oracle", "parity"], None, None),
    (["ks", "search", "--delta", "1000000000"], None, None),
    (["ks", "embed", "--tree", "-", "--source-host", "finsupp(1, fin(3), 0)",
      "--target-host", "finsupp(12, fin(3), 0)", "--f", '{"supp": [{"pos": "0", "e": 2}]}'],
     TREE, None),
    (EMBED + ["--source-host", "finsupp(1, fin(3), 0)"], TREE, None),
    (["ks", "verify", "--tree", "-"], TREE, None),
    (["ks", "verify", "--tree", "-", "--oracle", "parity"], CLASHING_TREE, None),
    (["ks", "verify", "--tree", "-"], "[]", None),
    (["ks", "bogus"], None, None),
    ([], None, None),
    (["--help"], None, None),
] + [([verb, "--help"], None, None) for verb in VERBS]

# sha256 of json.dumps([argv, stdin, seed, exit code, stdout, stderr] per call),
# computed before the header moved from the verbs into main and re-pinned once
# for the v4 header, samples and ks-check help; the --help text is that of
# argparse in Python 3.10 to 3.12 (3.13 prints it differently)
ALL_VERB_DIGEST = "2deb0a98db4724ae402e2fa87e044e137077be39adcf1003fd780531d85ec299"


def use_seed(monkeypatch, seed):
    if seed is None:
        monkeypatch.delenv("SCATTER_CALC_SEED", raising=False)
    else:
        monkeypatch.setenv("SCATTER_CALC_SEED", seed)


def test_every_verb_matches_the_all_verb_digest(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # --help wraps at the terminal width
    records = []
    for argv, stdin, seed in ALL_VERB_CALLS:
        use_seed(monkeypatch, seed)
        records.append([argv, stdin, seed, *main_in_process(argv, stdin or "")])
    assert {code for *_, code, _, _ in records} == {0, 1, 2}
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == ALL_VERB_DIGEST


def test_a_parser_build_asks_the_terminal_width_once(monkeypatch):
    queries = []
    query = shutil.get_terminal_size

    def counted(*args):
        queries.append(args)
        return query(*args)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    for verb in [None, *VERBS]:
        queries.clear()
        cli.build_parser(verb)
        assert len(queries) == 1, verb


def subparsers(parser):
    verbs, = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    return verbs.choices


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_follows_the_terminal_width(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser()
    verbs = subparsers(parser)
    assert sorted(verbs) == sorted(VERBS)
    for each in [parser, *verbs.values()]:
        text = each.format_help()
        each.formatter_class = argparse.HelpFormatter   # reads the width as it formats
        assert each.format_help() == text, (columns, each.prog)


# first words that name no verb, or a verb with too little after it
FIRST_WORDS = [["bogus"], ["--", "parse", "--term", "fin(2)"], ["-h"], ["--help", "parse"],
               ["PARSE", "--term", "fin(2)"], ["parse"], ["neg-graph"], ["ks", "--bogus"]]


def test_the_per_verb_parser_answers_as_the_full_parser(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # --help wraps at the terminal width
    full = cli.build_parser
    for argv, stdin, seed in ALL_VERB_CALLS + [(argv, None, None) for argv in FIRST_WORDS]:
        use_seed(monkeypatch, seed)
        answer = main_in_process(argv, stdin or "")
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda verb=None: full())
            assert main_in_process(argv, stdin or "") == answer, argv


def test_only_the_called_verb_gets_its_arguments():
    for name, each in subparsers(cli.build_parser("ks")).items():
        dests = [action.dest for action in each._actions]
        if name == "ks":
            assert dests == ["help", "out", "action", "delta", "mu_range", "level_bound",
                             "oracle", "tree", "source_host", "target_host", "f"]
        else:
            assert dests == ["help"], name
    for name, each in subparsers(cli.build_parser()).items():
        assert [action.dest for action in each._actions][:2] == ["help", "out"], name
        assert len(each._actions) > 2, name


def test_a_call_leaves_less_garbage_than_a_full_parser():
    argv = ["parse", "--term", "fin(2)"]
    main_in_process(argv)   # warm the caches a first call fills
    gc.collect()
    gc.disable()
    try:
        gc.collect()
        main_in_process(argv)
        call = gc.collect()
        cli.build_parser()
        full = gc.collect()
    finally:
        gc.enable()
    assert call < full, (call, full)


def test_out_file_gets_the_stdout_bytes(tmp_path):
    for argv, stdin, _ in ALL_VERB_CALLS:
        code, out, err = main_in_process(argv, stdin or "")
        if code not in (0, 2) or "--help" in argv:
            continue
        target = tmp_path / "cert.json"
        assert main_in_process(argv + ["--out", str(target)], stdin or "") == (code, "", err)
        assert target.read_bytes() == out.encode()
        target.unlink()


# -- fuzzing the JSON, text and integer arguments ---------------------------------------

FUZZ_TERMS = ["fin(3)", "ord(w^2)", "rev(ord(w))", "sum[fin(2), ord(w)]",
              "scaled(ord(w), fin(2))", "shuffle(w)", "finsupp(w, fin(3), 0)"]
# encodings of elements of each fuzzed term, so that some runs succeed
VALID_ELEMENTS = {t: [encode_element(parse_term(t), e)
                      for e in sample_elements(parse_term(t), 6, 0)] for t in FUZZ_TERMS}
ordinal_texts = st.sampled_from(["0", "1", "3", "w", "w + 1", "w^2", "-1", "x"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6) | ordinal_texts
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(["i", "e", "supp", "pos", "p", "nu", "F", "g", "c", "alpha",
                         "entries", "seq", "val"]) | st.text(max_size=3), kids, max_size=4),
    max_leaves=10)
elements = json_values | st.fixed_dictionaries(
    {"i": json_values, "e": json_values}) | st.fixed_dictionaries(
    {"supp": json_values | st.lists(st.fixed_dictionaries(
        {"pos": json_values, "e": json_values}), max_size=3)})
small_ints = st.integers(-1, 3)


@st.composite
def full_tables(draw):
    """An extract-unary request colouring every tuple of a small power."""
    p, nu = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = itertools.product(range(p), repeat=nu)
    return {"p": p, "nu": nu,
            "F": [{"g": list(g), "c": draw(st.integers(0, nu - 1))} for g in cells]}


unary_requests = json_values | full_tables() | st.fixed_dictionaries({
    "p": small_ints | json_values, "nu": small_ints | json_values,
    "F": json_values | st.lists(st.fixed_dictionaries(
        {"g": json_values | st.lists(small_ints | json_values, max_size=3),
         "c": small_ints | json_values}), max_size=8)})
trees = json_values | st.just(json.loads(TREE)) | st.fixed_dictionaries({
    "alpha": ordinal_texts | json_values,
    "entries": json_values | st.lists(st.fixed_dictionaries(
        {"seq": json_values | st.lists(ordinal_texts | json_values, max_size=3),
         "val": ordinal_texts | json_values}), max_size=3)})


@st.composite
def neg_graph_params(draw):
    """Well-formed neg-graph build parameters with k <= l <= 8."""
    k = draw(st.integers(1, 8))
    l = draw(st.integers(k, 8))
    rows = st.lists(st.integers(k, l - 1), unique=True) if l > k else st.just([])
    u = {str(r): sorted(draw(st.lists(st.integers(0, 12), min_size=k, max_size=k,
                                      unique=True))) for r in range(l)}
    d = {str(r): draw(st.lists(st.integers(0, r - 1), max_size=4, unique=True))
         for r in draw(rows)}
    g = {str(r): draw(st.permutations(range(r)))[:k] for r in draw(rows)}
    return {"k": k, "l": l, "d": d, "u": u, "g": g}


def term_and_elements(count):
    """A fuzzed term and ``count`` JSON values, each often one of its elements."""
    return st.sampled_from(FUZZ_TERMS).flatmap(lambda t: st.tuples(
        st.just(t), *[elements | st.sampled_from(VALID_ELEMENTS[t])] * count))


# term and ordinal texts: the fuzzed terms, cut short and spliced, and short token
# strings; single digits and no pow keep every term small enough to sample at once
TERM_TOKENS = ["fin", "ord", "rev", "sum", "scaled", "shuffle", "finsupp", "(", ")", "[",
               "]", ",", "w", "^", "*", "+", "0", "1", "2", " ", '"', "{", "}", "x"]
term_texts = st.sampled_from(FUZZ_TERMS) | st.builds(
    lambda t, cut, token: t[:cut] + token + t[cut:],
    st.sampled_from(FUZZ_TERMS), st.integers(0, 22), st.sampled_from(TERM_TOKENS)) | st.lists(
    st.sampled_from(TERM_TOKENS), max_size=10).map("".join)
alpha_texts = ordinal_texts | st.lists(
    st.sampled_from(["w", "^", "*", "+", "(", ")", "0", "1", "9", " ", "x"]), max_size=10).map(
    "".join)
budgets = st.integers(-1, 12).map(str)

FUZZ_CASES = st.one_of(
    st.builds(lambda t: (["parse", "--term=" + t], ""), term_texts),
    st.builds(lambda a, n: (["mr-bound", "--alpha=" + a, "--n", str(n)], ""),
              alpha_texts, st.integers(-1, 6)),
    st.builds(lambda t, b: (["sample", "--term=" + t, "--budget", b], ""), term_texts, budgets),
    st.builds(lambda p, t, b: (["embed-search", "--pattern=" + p, "--term=" + t,
                                "--budget", b], ""), term_texts, term_texts, budgets),
    st.builds(lambda t, n, b: (["ks-check", "--term=" + t, "--n", str(n), "--budget", b], ""),
              term_texts, st.integers(-1, 3), budgets),
    st.builds(lambda tags: (["sierpinski", "--tags=" + json.dumps(tags)], ""),
              json_values | st.lists(st.integers(-3, 50), max_size=6)),
    st.builds(lambda req: (["extract-unary"], json.dumps(req)), unary_requests),
    st.builds(lambda tree, oracle: (["ks", "verify", "--tree", "-", "--oracle", oracle],
                                    json.dumps(tree)),
              trees, st.sampled_from(["const", "length", "parity"])),
    st.builds(lambda tree, f: (["ks", "embed", "--source-host", "finsupp(1, fin(3), 0)",
                                "--target-host", "finsupp(6, fin(3), 0)",
                                "--f=" + json.dumps(f)], json.dumps(tree)),
              trees, elements),
    term_and_elements(2).map(lambda c: (["compare", "--term", c[0], "--a=" + json.dumps(c[1]),
                                         "--b=" + json.dumps(c[2])], "")),
    term_and_elements(1).map(lambda c: (["mr-label", "--term", c[0],
                                         "--elem=" + json.dumps(c[1])], "")),
    st.builds(lambda params: (["neg-graph", "build", "--params", "-"], json.dumps(params)),
              json_values | neg_graph_params()),
    st.builds(lambda p, seed: (["step-up", "--p", str(p), "--seed", str(seed)], ""),
              st.integers(-2, 7), st.integers(0, 5)),
    st.builds(lambda delta, mu, level, oracle: (
        ["ks", "search", "--delta", str(delta), "--mu-range", str(mu),
         "--level-bound", str(level), "--oracle", oracle], ""),
        st.integers(-1, 10), st.integers(-1, 12), st.integers(-1, 10),
        st.sampled_from(["const", "length", "parity"])),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(FUZZ_CASES)
def test_json_arguments_end_in_an_exit_code_or_one_error_line(case):
    argv, stdin = case
    code, _, err = main_in_process(argv, stdin)
    assert code in (0, 2) or (code == 1 and err.startswith("error: ")
                              and err.count("\n") == 1), (code, err)


# -- schema v4 --------------------------------------------------------------------------

def test_v4_header_is_schema_command_and_seed():
    for argv in (["parse", "--term", "fin(3)"], ["sample", "--term", "fin(3)", "--seed", "4"]):
        code, out, _ = main_in_process(argv)
        data = json.loads(out)
        assert code == 0 and data["schema"] == "scatter-calc.v4"
        assert data["command"] == argv[0] and data["seed"] == (4 if argv[0] == "sample" else None)
        assert not {"pi", "fundamental_sequence"} & set(data)


@pytest.mark.parametrize("c, problem", [
    (True, "colouring value True at (1, 0) not a colour below 2"),
    (1.0, "colouring value 1.0 at (1, 0) not a colour below 2"),
    (None, "colouring undefined at (1, 0): (1, 0)"),
])
def test_extract_unary_refuses_a_colour_that_is_not_a_natural(c, problem):
    # the table of test_extract_unary_command with (1, 0) coloured c, or left out
    table = [{"g": [a, b], "c": c if (a, b) == (1, 0) else a} for a in (0, 1) for b in (0, 1)]
    request = {"p": 2, "nu": 2, "F": [item for item in table if item["c"] is not None]}
    code, out, err = main_in_process(["extract-unary"], json.dumps(request))
    assert (code, out) == (1, "")
    assert err == f"error: BadColouringDomain: {problem}\n"


@pytest.mark.parametrize("term, a, b, value", [
    ("ord(w)", "-3", "1", "-3"),
    ("finsupp(w, fin(2), 0)", '{"supp": [{"pos": -1, "e": 1}]}', '{"supp": []}', "-1"),
    ("shuffle(2)", "[-1]", "[]", "-1"),
])
def test_negative_ordinals_are_refused_with_the_value_and_the_term(term, a, b, value):
    code, out, err = main_in_process(["compare", "--term", term, "--a", a, "--b", b])
    assert (code, out) == (1, "")
    assert err == (f"error: InvalidElement: cannot decode {value} for {term}: "
                   "expected a natural number or an ordinal string\n")


@pytest.mark.parametrize("a", [
    '{"supp": [{"pos": "w+", "e": 1}]}',
    '{"supp": [{"pos": "1", "e": 1}, {"pos": "2", "e": 1}]}',
])
def test_bad_support_positions_name_the_finsupp_term(a):
    code, out, err = main_in_process(["compare", "--term", "finsupp(w, fin(2), 0)",
                                      "--a", a, "--b", '{"supp": []}'])
    assert (code, out) == (1, "")
    assert err.startswith("error: InvalidElement: cannot decode ")
    assert " for finsupp(w, fin(2), 0): " in err and err.count("\n") == 1


NOT_DECREASING_TREE = '{"alpha": "2", "entries": [{"seq": ["0", "1"], "val": "1"}]}'


@pytest.mark.parametrize("argv", [
    ["ks", "verify", "--tree", "-"],
    EMBED + ["--source-host", "finsupp(1, fin(3), 0)", "--f", '{"supp": []}'],
])
def test_a_tree_node_that_does_not_decrease_is_one_error_line(argv):
    code, out, err = main_in_process(argv, NOT_DECREASING_TREE)
    assert (code, out) == (1, "")
    assert err == "error: AntilexError: sequence ['0', '1'] is not strictly decreasing\n"


# -- input files and refusals, in process ---------------------------------------------

EXTRACT_REQUEST = json.dumps(
    {"p": 2, "nu": 2, "F": [{"g": [a, b], "c": a} for a in (0, 1) for b in (0, 1)]})


@pytest.mark.parametrize("argv, stdin", [
    (["neg-graph", "build", "--params", "{}"], json.dumps(ROUND_TRIP_PARAMS)),
    (["neg-graph", "check", "{}"], json.dumps({"graph": WITNESS_GRAPH})),
    (["ks", "verify", "--tree", "{}"], TREE),
    (["extract-unary", "--input", "{}"], EXTRACT_REQUEST),
])
def test_an_input_file_gives_the_bytes_of_stdin(tmp_path, argv, stdin):
    path = tmp_path / "input.json"
    path.write_text(stdin, encoding="utf-8")
    from_file = main_in_process([a.format(path) for a in argv])
    assert from_file == main_in_process([a.format("-") for a in argv], stdin)
    assert from_file[0] in (0, 2) and from_file[2] == ""
    missing = main_in_process([a.format(tmp_path / "missing.json") for a in argv])
    assert missing[:2] == (1, "") and missing[2].startswith("error: FileNotFoundError: ")
    assert missing[2].count("\n") == 1


CONFLICTING_CSETS = json.dumps({"k": 2, "l": 3, "edges": [[[0, 2], [1, 1]]], "csets": [
    {"row": 2, "col": 1, "entries": [1]}, {"row": 2, "col": 1, "entries": []}]})


@pytest.mark.parametrize("argv, stdin, message", [
    (["extract-unary"], '{"p": 2, "nu": 2, "F": 5}', "InvalidInput: invalid F: expected a list"),
    (["extract-unary"], '{"p": 2, "nu": 2, "F": [{"g": 5, "c": 0}]}',
     """InvalidInput: invalid F: {'g': 5, 'c': 0} is not {"g": [integers], "c": colour}"""),
    (EMBED + ["--source-host", "fin(3)", "--f", "1"], TREE,
     "ScatterCalcError: hosts must be finsupp(...) terms"),
    (["neg-graph", "check", "-"], CONFLICTING_CSETS,
     "InvalidGraph: invalid csets: C-set (2, 1) is given twice with different entries"),
    (["neg-graph", "build", "--params", "-"],
     json.dumps({"k": 1, "l": 2, "d": {}, "u": {"0": [0], "01": [1]}, "g": {}}),
     "InvalidParams: invalid u: row '01' is not a natural number in canonical decimal"),
])
def test_refusals_in_process_are_one_error_line(argv, stdin, message):
    code, out, err = main_in_process(argv, stdin)
    assert_one_error_line(subprocess.CompletedProcess(argv, code, out, err))
    assert (out, err) == ("", f"error: {message}\n")
