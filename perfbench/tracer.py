"""Span and counter recording around scatter_calc's public functions.

The tracer installs wrappers from the benchmark's side: each listed function
is replaced in every scatter_calc module namespace that binds it (so
``terms.ord_compare`` and ``antilex.ord_compare`` are both covered), and
callback arguments (the ``colour`` of ``step_up_extract``, the ``F`` of
``extract_unary`` and ``search_alpha_tree``) are wrapped to count calls.
Nothing in ``src/`` is changed; ``uninstall`` puts the originals back.

Every wrapped call is timed on a stack, so a function's self time is its
duration minus the time of the wrapped calls it made.  Hot kernels only add
to their counters; the others also record a span (name, start, end, parent,
op id), kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, hot, callback argument)
TRACED = [
    ("ordinal", "ord_compare", True, None),
    ("ordinal", "parse_ordinal", True, None),
    ("ordinal", "format_ordinal", True, None),
    ("terms", "compare_elements", True, None),
    ("terms", "validate_element", True, None),
    ("terms", "encode_element", True, None),
    ("terms", "decode_element", True, None),
    ("terms", "parse_term", False, None),
    ("terms", "sample_elements", False, None),
    ("partition", "step_up_extract", False, "colour"),
    ("partition", "extract_unary", False, "F"),
    ("milner_rado", "mr_labeling", False, None),
    ("milner_rado", "mr_label_term", True, None),
    ("milner_rado", "mr_class_type_bound", False, None),
    ("milner_rado", "ks_omega_check", False, None),
    ("neg_graph", "build_neg_graph", False, None),
    ("neg_graph", "check_triangle_free", False, None),
    ("neg_graph", "check_corner_invariant", False, None),
    ("neg_graph", "GridGraph.to_json", False, None),
    ("neg_graph", "GridGraph.from_json", False, None),
    ("antilex", "check_antilex_lemma", True, None),
    ("antilex", "compare_antilex", True, None),
    ("antilex", "search_alpha_tree", False, "F"),
    ("antilex", "ks_embed", False, None),
    ("cli", "build_parser", False, None),
]

CALLBACK_COUNTER = {
    "partition.step_up_extract": "partition.step_up_extract.colour_calls",
    "partition.extract_unary": "partition.extract_unary.F_calls",
    "antilex.search_alpha_tree": "antilex.search_alpha_tree.oracle_calls",
}


class NullRecorder:
    """Stand-in used by untraced runs: every hook is a no-op."""

    def count(self, name, n=1):
        pass

    @contextmanager
    def span(self, name):
        yield

    def begin_op(self, op_id):
        pass


class Tracer:

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self._stack = []          # per open call: [start, child time]
        self._span = None         # id of the innermost open span
        self._next_id = 0
        self._op = None
        self._undo = []

    # -- recording ------------------------------------------------------------

    def begin_op(self, op_id):
        self._op = op_id

    def count(self, name, n=1):
        self.counters[name] += n

    def _enter(self):
        frame = [perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, span_id=None, parent=None):
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        self.total_s[name] += duration
        if span_id is not None:
            self.spans.append((span_id, name, frame[0], end, parent, self._op))

    @contextmanager
    def span(self, name):
        span_id, parent = self._next_id, self._span
        self._next_id += 1
        self._span = span_id
        frame = self._enter()
        try:
            yield
        finally:
            self._span = parent
            self._exit(name, frame, span_id, parent)

    def _wrap(self, name, fn, hot, callback):
        tracer = self
        counter = CALLBACK_COUNTER.get(name)
        signature = inspect.signature(fn) if callback else None

        def counted(cb):
            def call(*args, **kwargs):
                tracer.counters[counter] += 1
                return cb(*args, **kwargs)
            return call

        if hot:
            def traced(*args, **kwargs):
                frame = tracer._enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(name, frame)
        else:
            def traced(*args, **kwargs):
                if callback:
                    bound = signature.bind(*args, **kwargs)
                    if callable(bound.arguments.get(callback)):
                        bound.arguments[callback] = counted(bound.arguments[callback])
                    args, kwargs = bound.args, bound.kwargs
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                tracer._observe(name, args, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def _observe(self, name, args, result):
        if name == "terms.sample_elements":
            self.counters["terms.sample_elements.returned"] += len(result)
            self.counters["terms.sample_elements.budget"] += args[1]
        elif name == "neg_graph.build_neg_graph":
            self.counters["neg_graph.edges"] += len(result.edges)
            self.counters["neg_graph.cset_entries"] += sum(len(v) for v in result.csets.values())

    # -- installation -----------------------------------------------------------

    def install(self, package):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        for module_name, attr, hot, callback in TRACED:
            home = getattr(package, module_name)
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                self._install_method(home, attr, name)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, hot, callback)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        cls = package.CnfOrdinal
        init = cls.__init__

        def counting_init(obj, *args, **kwargs):
            self.counters["ordinal.cnf_constructed"] += 1
            init(obj, *args, **kwargs)

        self._undo.append((cls, "__init__", init))
        cls.__init__ = counting_init

    def _install_method(self, module, attr, name):
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(name, raw.__func__, False, None))
        else:
            replacement = self._wrap(name, raw, False, None)
        self._undo.append((cls, method, raw))
        setattr(cls, method, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")
