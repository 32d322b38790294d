"""Which modules a fresh process loads, and the package's public names.

``import scatter_calc`` loads only ``errors``; every other public name, and
every submodule, is imported the first time it is read.  Each CLI verb
imports only the modules it uses.  The loading tests run in subprocesses,
because this process has already loaded every module.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import scatter_calc

# the public names as exported before the package loaded its modules lazily,
# by the submodule that defines each
EXPORTED = {
    "errors": ["ScatterCalcError"],
    "ordinal": ["CnfOrdinal", "OMEGA", "ONE", "ZERO", "format_ordinal", "from_int",
                "fundamental_sequence", "ord_add", "ord_compare", "ord_mul", "ord_pow",
                "parse_ordinal"],
    "terms": ["Fin", "FinSupp", "Ord", "OrderTerm", "Rev", "Scaled", "Shuffle", "SumList",
              "compare_elements", "decode_element", "encode_element", "finsupp_elem",
              "materialize", "parse_term", "pow_term", "sample_elements", "search_embedding",
              "validate_element"],
    "partition": ["extract_unary", "find_homogeneous", "sierpinski_coloring",
                  "step_up_extract"],
    "milner_rado": ["cantor1", "ks_omega_check", "mr_class_type_bound", "mr_label_ordinal",
                    "mr_label_term", "mr_labeling"],
    "neg_graph": ["GridGraph", "NegGraphParams", "build_neg_graph", "check_corner_invariant",
                  "check_triangle_free", "compose_negative_coloring"],
    "antilex": ["AlphaTree", "FinSuppFn", "check_antilex_lemma", "compare_antilex", "dec_seq",
                "delta_prime", "induced_seq_coloring", "ks_embed", "search_alpha_tree",
                "validate_alpha_tree", "verify_color_collapse"],
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)

# prints the scatter_calc modules loaded once ``body`` has run
PROBE = """
import json, sys
{body}
print(json.dumps([m[len("scatter_calc."):] for m in sys.modules if m.startswith("scatter_calc.")]))
"""

# runs cli.main on the argv given as JSON in argv[1], output swallowed, and
# prints its exit code
VERB = """
import contextlib, io
from scatter_calc import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
print(code)
"""


def loaded(body, *args, stdin=None):
    """The last line printed by ``body`` (or None) and the loaded modules."""
    res = subprocess.run([sys.executable, "-c", PROBE.format(body=body), *args],
                         capture_output=True, text=True, input=stdin, timeout=60)
    assert res.returncode == 0, res.stderr
    *printed, modules = res.stdout.splitlines()
    return (printed[-1] if printed else None), set(json.loads(modules))


def test_importing_the_package_loads_only_errors():
    assert loaded("import scatter_calc") == (None, {"errors"})


def test_reading_one_name_loads_only_its_module():
    assert loaded("import scatter_calc; scatter_calc.GridGraph") == (None, {"errors", "neg_graph"})


TERMS = {"terms", "ordinal"}
TREE = '{"alpha": "1", "entries": [{"seq": ["0"], "val": "4"}]}'
GRID_PARAMS = str(Path(__file__).with_name("grid_params.json"))


@pytest.mark.parametrize("argv, stdin, modules", [
    (["parse", "--term", "fin(3)"], None, TERMS),
    (["compare", "--term", "fin(3)", "--a", "0", "--b", "1"], None, TERMS),
    (["sample", "--term", "ord(w)", "--budget", "3"], None, TERMS),
    (["embed-search", "--pattern", "fin(2)", "--term", "ord(w)"], None, TERMS),
    (["sierpinski", "--tags", "[1, 2]"], None, {"partition"}),
    (["extract-unary"], '{"p": 1, "nu": 1, "F": [{"g": [0], "c": 0}]}', {"partition"}),
    (["step-up", "--p", "3"], None, {"partition"}),
    (["mr-label", "--term", "ord(w)", "--elem", '"3"'], None, {"milner_rado", *TERMS}),
    (["mr-bound", "--alpha", "w", "--n", "2"], None, {"milner_rado", *TERMS}),
    (["ks-check", "--term", "ord(w)", "--n", "2"], None, {"milner_rado", *TERMS}),
    (["neg-graph", "build", "--params", GRID_PARAMS], None, {"neg_graph"}),
    (["neg-graph", "check", "-"], '{"k": 2, "l": 3, "edges": [], "csets": []}', {"neg_graph"}),
    (["ks", "search"], None, {"antilex", *TERMS}),
    (["ks", "verify", "--tree", "-"], TREE, {"antilex", *TERMS}),
    (["ks", "embed", "--tree", "-", "--source-host", "finsupp(1, fin(3), 0)",
      "--target-host", "finsupp(6, fin(3), 0)", "--f", '{"supp": []}'], TREE,
     {"antilex", *TERMS}),
    (["--help"], None, set()),
])
def test_each_verb_loads_only_its_modules(argv, stdin, modules):
    code, seen = loaded(VERB, json.dumps(argv), stdin=stdin)
    assert code == "0"
    assert seen == {"cli", "errors", *modules}


def test_the_public_names_are_unchanged():
    assert sorted(scatter_calc.__all__) == NAMES
    assert len(NAMES) == 58
    listed = dir(scatter_calc)
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"scatter_calc.{module}")
        for name in names:
            assert getattr(scatter_calc, name) is getattr(home, name), name
            assert name in listed, name
    star = {}
    exec("from scatter_calc import *", star)
    assert sorted(set(star) - {"__builtins__"}) == NAMES


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        scatter_calc.nope


def test_a_submodule_is_an_attribute_before_anything_imports_it():
    body = ('import scatter_calc\n'
            'assert "scatter_calc.terms" not in sys.modules\n'
            'assert getattr(scatter_calc, "terms") is sys.modules["scatter_calc.terms"]')
    assert loaded(body) == (None, TERMS | {"errors"})
