"""Every scatter_calc name the benchmark harness reaches still resolves: the
(module, attribute) pairs that perfbench/tracer.py wraps, and the ``sc.``
names that perfbench/workloads.py calls.  Both files are read as text, so
nothing of the harness is imported."""

import ast
import importlib
import re
from pathlib import Path

import scatter_calc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def resolve(owner, dotted):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def traced_entries():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no TRACED list")


def test_every_traced_name_resolves():
    entries = traced_entries()
    assert len(entries) >= 20
    for module_name, attr, _, _ in entries:
        module = importlib.import_module(f"scatter_calc.{module_name}")
        assert callable(resolve(module, attr)), (module_name, attr)


def test_every_workload_name_resolves():
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bsc\.([A-Za-z_][\w.]*\w)", text))
    assert {"FinSuppFn", "materialize", "check_antilex_lemma", "GridGraph.from_json"} <= names
    for name in sorted(names):
        assert callable(resolve(scatter_calc, name)), name
