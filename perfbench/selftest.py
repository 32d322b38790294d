"""Self-test of the benchmark: python3 perfbench/selftest.py

Tiny runs of every workload must print every metric with its unit and
report no failures; a verifier fault injected here (in this process only,
never in src/) must make the runs report failures.
"""

from __future__ import annotations

import unittest

import run

SEED, SECONDS = 3, 0.2


def setUpModule():
    run.load_package()


def tiny(name, trace=0):
    return run.run_workload(name, SEED, SECONDS, trace, tiny=True)


class TinyRuns(unittest.TestCase):
    def test_every_metric_with_unit_and_no_failures(self):
        for name in run.WORKLOAD_NAMES:
            for trace, names in ((0, run.END_TO_END), (1, dict(run.PER_LAYER))):
                with self.subTest(workload=name, trace=trace):
                    result, detail = tiny(name, trace)
                    self.assertEqual(set(result["metrics"]), set(names))
                    for key, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], names[key])
                        self.assertIsInstance(metric["value"], float)
                    self.assertEqual(detail["error_rate"], 0.0, detail["failures"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)

    def test_same_seed_same_digest(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                self.assertEqual(tiny(name)[1]["digest"], tiny(name, 1)[1]["digest"])


class InjectedFaults(unittest.TestCase):
    """Each fault breaks a verifier or comparator the workload relies on."""

    def assert_caught(self, name, owner, attr, fault):
        original = getattr(owner, attr)
        setattr(owner, attr, fault(original))
        try:
            result, detail = tiny(name)
        finally:
            setattr(owner, attr, original)
        self.assertGreater(detail["error_rate"], 0.0)
        self.assertFalse(result["correct"])

    def test_reversed_comparator(self):
        import scatter_calc
        self.assert_caught("order-sweep", scatter_calc, "compare_elements",
                           lambda cmp: lambda term, x, y: -cmp(term, x, y))

    def test_antilex_lemma_checker_that_fails(self):
        import scatter_calc
        self.assert_caught("order-sweep", scatter_calc, "check_antilex_lemma",
                           lambda check: lambda f, g, h: False)

    def test_triangle_checker_that_stops_checking(self):
        import scatter_calc
        self.assert_caught("grid-graph", scatter_calc, "check_triangle_free",
                           lambda check: lambda graph: None)

    def test_avoidance_checker_that_always_fails(self):
        from scatter_calc import milner_rado
        self.assert_caught("cli-verbs", milner_rado, "ks_omega_check",
                           lambda check: lambda labeling, n, block=2: False)


if __name__ == "__main__":
    unittest.main()
