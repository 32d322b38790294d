"""scatter-calc benchmark: certified work per second.

    python3 perfbench/run.py --workload order-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

One process, one client, closed loop: each op waits for its verified
result before the next op starts.  The library under test is the
scatter_calc package in ``src/`` of the checkout holding this file.

--trace 0 times the workload untraced and prints the end-to-end metrics.
--trace 1 runs a fixed number of ops (set by --seconds, not by speed),
each once untraced and once under the tracer, and prints per-layer values
per op plus the tracing overhead; spans go to perfbench/out/.
--workload all runs every workload in its own process and prints a table.

Before the final JSON line the run prints each metric with its unit and a
detail line: error rate, the tail percentile and its sample count, and a
digest of the first ops' verdicts, which must repeat for a given seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("order-sweep", "grid-graph", "cli-verbs")
SETUP_REPEATS = 3
DIGEST_OPS = {"order-sweep": 31, "grid-graph": 5, "cli-verbs": 30}
# reference pass: sampled every REF_EVERY_S of op time, smoothed over
# REF_WINDOW samples each side, scaled to take REF_NOMINAL_S
REF_EVERY_S = 0.05
REF_WINDOW = 5
REF_NOMINAL_S = 7e-4
# traced ops per second of --seconds, rounded to whole cycles of the workload
TRACE_OPS_PER_S = {"order-sweep": 4, "grid-graph": 0.5, "cli-verbs": 30}

END_TO_END = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}
CLI_VERBS = ("parse", "compare", "sample", "embed-search", "sierpinski", "extract-unary",
             "step-up", "mr-label", "mr-bound", "ks-check", "neg-graph", "ks")
PER_LAYER = (
    [("ordinal.ord_compare.calls", "count/op"), ("ordinal.ord_compare.self_s", "s/op"),
     ("ordinal.cnf_constructed", "count/op"), ("ordinal.parse_ordinal.self_s", "s/op"),
     ("ordinal.format_ordinal.self_s", "s/op"),
     ("terms.compare_elements.calls", "count/op"), ("terms.compare_elements.self_s", "s/op"),
     ("terms.ns_per_compare", "ns"), ("terms.validate_element.calls", "count/op"),
     ("terms.validations_per_compare", "ratio"), ("terms.sample_elements.self_s", "s/op"),
     ("terms.sample_elements.yield", "ratio"), ("terms.parse_term.self_s", "s/op"),
     ("terms.encode_element.self_s", "s/op"), ("terms.decode_element.self_s", "s/op"),
     ("partition.step_up_extract.self_s", "s/op"),
     ("partition.step_up_extract.colour_calls", "count/op"),
     ("partition.extract_unary.self_s", "s/op"), ("partition.extract_unary.F_calls", "count/op"),
     ("milner_rado.mr_labeling.self_s", "s/op"), ("milner_rado.mr_label_term.calls", "count/op"),
     ("milner_rado.mr_class_type_bound.self_s", "s/op"),
     ("milner_rado.ks_omega_check.self_s", "s/op"),
     ("neg_graph.build_neg_graph.self_s", "s/op"), ("neg_graph.check_triangle_free.self_s", "s/op"),
     ("neg_graph.check_corner_invariant.self_s", "s/op"), ("neg_graph.to_json.self_s", "s/op"),
     ("neg_graph.from_json.self_s", "s/op"), ("neg_graph.edges", "count/op"),
     ("neg_graph.cset_entries", "count/op"), ("neg_graph.json_bytes", "B/op"),
     ("antilex.check_antilex_lemma.self_s", "s/op"), ("antilex.compare_antilex.calls", "count/op"),
     ("antilex.search_alpha_tree.self_s", "s/op"),
     ("antilex.search_alpha_tree.oracle_calls", "count/op"), ("antilex.ks_embed.self_s", "s/op"),
     ("cli.build_parser.self_s", "s/op")]
    + [(f"cli.{verb}.self_s", "s/op") for verb in CLI_VERBS]
    + [("cli.stdout_bytes", "B/op"), ("trace.overhead", "ratio")]
)


def load_package():
    """Import scatter_calc from this checkout's src/, or exit 1."""
    src = ROOT / "src"
    if not (src / "scatter_calc" / "__init__.py").is_file():
        sys.exit(f"error: no scatter_calc package under {src}")
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    package = importlib.import_module("scatter_calc")
    if Path(package.__file__).resolve().parent != (src / "scatter_calc").resolve():
        sys.exit(f"error: imported scatter_calc from {package.__file__}, not {src}")
    return package


def reference_pass():
    """Fixed pure-Python work shaped like the library's: tuples, strings,
    a sort and a dict."""
    items = [(i * 7919 % 1000, str(i)) for i in range(1500)]
    items.sort()
    table = dict(items)
    return sum(len(v) for v in table.values())


class SpeedProbe:
    """Times ``reference_pass`` between ops, about every REF_EVERY_S of op
    time, so that each measured time can be scaled to the fixed machine
    speed at which the pass takes REF_NOMINAL_S.  On a shared host the
    interpreter's speed drifts by tens of percent over seconds; the ratio
    of an op's time to the pass's time around it drifts far less."""

    def __init__(self):
        self.samples = []
        self.since = REF_EVERY_S

    def sample(self):
        start = perf_counter()
        reference_pass()
        self.samples.append(perf_counter() - start)
        self.since = 0.0

    def before_op(self):
        """Sample when due; returns the index of the latest sample."""
        if self.since >= REF_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def after_op(self, elapsed):
        self.since += elapsed

    def scale(self, index):
        """Factor for a time measured just after sample ``index``."""
        around = self.samples[max(0, index - REF_WINDOW): index + REF_WINDOW + 2]
        return REF_NOMINAL_S / statistics.median(around)


class Runner:
    """Runs ops of one workload; keeps latencies, verdicts and failures."""

    def __init__(self, workload, rec, probe):
        self.workload, self.rec, self.probe = workload, rec, probe
        self.latencies, self.probe_index, self.verdicts, self.failures = [], [], [], []

    def op(self, i, stream="run"):
        wl = self.workload
        op = wl.make_op(i, stream)
        self.probe_index.append(self.probe.before_op())
        self.rec.begin_op(f"{stream}:{i}")
        start = perf_counter()
        try:
            out = wl.run(op, self.rec)
        except Exception as exc:  # an op that raises is a failed op, never a crash
            elapsed = perf_counter() - start
            ok, verdict = False, ["raised", type(exc).__name__, str(exc)[:200]]
        else:
            elapsed = perf_counter() - start
            try:
                ok, verdict = wl.check(op, out)
            except Exception as exc:  # malformed output fails the op too
                ok, verdict = False, ["unreadable", type(exc).__name__, str(exc)[:200]]
        self.probe.after_op(elapsed)
        self.latencies.append(elapsed)
        self.verdicts.append(verdict)
        if not ok:
            self.failures.append((f"{stream}:{i}", verdict))

    def scaled(self):
        """Latencies at the probe's fixed machine speed."""
        self.probe.sample()
        return [t * self.probe.scale(j) for t, j in zip(self.latencies, self.probe_index)]


def setup(workload_cls, seed, tiny, probe):
    """Input generation plus a warm-up cycle at tiny size, repeated; returns
    the workload, the median scaled set-up time and the warm-up runners."""
    from tracer import NullRecorder
    times, runners = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        first = len(probe.samples) - 1
        start = perf_counter()
        workload = workload_cls(seed, tiny)
        runner = Runner(workload_cls(seed, tiny=True), NullRecorder(), probe)
        for i in range(workload.cycle):
            runner.op(i, "warm")
        elapsed = perf_counter() - start
        probe.sample()
        times.append(elapsed * REF_NOMINAL_S / statistics.median(probe.samples[first:]))
        runners.append(runner)
    return workload, statistics.median(times), runners


def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n


def run_workload(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result line dict, detail dict)."""
    probe = SpeedProbe()
    probe.sample()
    start = perf_counter()
    package = load_package()
    import_s = perf_counter() - start
    probe.sample()
    import_s *= REF_NOMINAL_S / statistics.median(probe.samples)
    from workloads import WORKLOADS, digest
    workload, setup_s, warm = setup(WORKLOADS[name], seed, tiny, probe)
    setup_s += import_s
    if trace:
        return traced_run(package, workload, seconds, setup_s, warm, probe)

    from tracer import NullRecorder
    runner = Runner(workload, NullRecorder(), probe)
    gc.collect()
    start = perf_counter()
    i = 0
    # whole cycles only, so every run sees the same mix of op kinds
    while i < DIGEST_OPS[name] or i % workload.cycle or perf_counter() - start < seconds:
        runner.op(i)
        i += 1
    lat, wall = runner.scaled(), runner.latencies
    failures = [f for r in warm for f in r.failures] + runner.failures
    attempted = len(lat) + sum(len(r.latencies) for r in warm)
    verified = len(lat) - len(runner.failures)
    tail_s, percentile, samples = tail(lat)
    metrics = {
        "throughput_ops_s": verified / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    detail = {"workload": name, "seed": seed, "ops": len(lat),
              "error_rate": len(failures) / attempted,
              "tail_percentile": round(percentile, 3), "tail_samples": samples,
              "digest": digest(runner.verdicts[:DIGEST_OPS[name]]),
              "digest_ops": DIGEST_OPS[name],
              **(workload.tally(runner.verdicts) if hasattr(workload, "tally") else {}),
              "wall_clock": {"throughput_ops_s": verified / sum(wall),
                             "latency_p50_ms": statistics.median(wall) * 1e3,
                             "latency_tail_ms": tail(wall)[0] * 1e3,
                             "reference_pass_ms": statistics.median(probe.samples) * 1e3},
              "failures": failures[:5]}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}
    return result, detail


def traced_run(package, workload, seconds, setup_s, warm, probe):
    from tracer import NullRecorder, Tracer
    from workloads import digest
    name = workload.name
    cycles = max(-(-DIGEST_OPS[name] // workload.cycle),
                 round(seconds * TRACE_OPS_PER_S[name] / workload.cycle))
    count = cycles * workload.cycle
    tracer = Tracer()
    plain, traced = Runner(workload, NullRecorder(), probe), Runner(workload, tracer, probe)
    for i in range(count):
        # each op runs untraced and traced, alternating which goes first
        for runner in (plain, traced) if i % 2 == 0 else (traced, plain):
            if runner is traced:
                tracer.install(package)
                try:
                    runner.op(i)
                finally:
                    tracer.uninstall()
            else:
                runner.op(i)
    tracer.write_spans(HERE / "out" / f"spans-{name}-seed{workload.seed}.jsonl")

    values = per_layer(tracer, count)
    plain_s, traced_s = plain.scaled(), traced.scaled()
    values["trace.overhead"] = statistics.median(t / p for t, p in zip(traced_s, plain_s))
    failures = [f for r in warm for f in r.failures] + plain.failures + traced.failures
    attempted = 2 * count + sum(len(r.latencies) for r in warm)
    detail = {"workload": name, "seed": workload.seed, "ops": count, "setup_s": setup_s,
              "error_rate": len(failures) / attempted,
              "untraced_ops_s": count / sum(plain_s), "traced_ops_s": count / sum(traced_s),
              "digest": digest(plain.verdicts[:DIGEST_OPS[name]]),
              "traced_digest": digest(traced.verdicts[:DIGEST_OPS[name]]),
              "spans": len(tracer.spans), "failures": failures[:5]}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": values[k], "unit": u} for k, u in PER_LAYER}}
    return result, detail


def per_layer(tracer, ops):
    """Per-op values from the tracer's totals."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    values = {}
    for key, unit in PER_LAYER:
        base = key.rsplit(".", 1)[0]
        if key.endswith(".self_s"):
            values[key] = self_s.get(base, 0.0) / ops
        elif key.endswith(".calls"):
            values[key] = calls.get(base, 0) / ops
        else:
            values[key] = counters.get(key, 0) / ops
    compares = calls.get("terms.compare_elements", 0)
    values["terms.ns_per_compare"] = (
        tracer.total_s.get("terms.compare_elements", 0.0) / compares * 1e9 if compares else 0.0)
    values["terms.validations_per_compare"] = (
        calls.get("terms.validate_element", 0) / compares if compares else 0.0)
    budget = counters.get("terms.sample_elements.budget", 0)
    values["terms.sample_elements.yield"] = (
        counters.get("terms.sample_elements.returned", 0) / budget if budget else 0.0)
    return values


def print_metrics(name, metrics):
    for key, metric in metrics.items():
        print(f"{name:12s} {key:42s} {metric['value']:14.6g} {metric['unit']}")


def report(result, detail):
    print_metrics(detail["workload"], result["metrics"])
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)


def run_all(args):
    """Every workload in its own process, then one table."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows.append((name, result, detail))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    for name, result, detail in rows:
        print_metrics(name, result["metrics"])
        print(f"{name:12s} {'error_rate':42s} {detail['error_rate']:14.6g} ratio")
        if "tail_percentile" in detail:
            print(f"{name:12s} {'latency_tail percentile / samples':42s} "
                  f"{detail['tail_percentile']:>14} {detail['tail_samples']}")
        print(f"{name:12s} {'verdict digest':42s} {detail['digest']:>14}")
    print(json.dumps(merged, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report(*run_workload(args.workload, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    main()
