"""The benchmark's own tests.

    python3 perfbench/selftest.py

They check the tracer (bindings, restore, absent targets, nested generators,
work counts that repeat exactly, self times that sum to the root span) and
that the metrics the benchmark prints are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

# Cheap commands that between them reach every counted layer.
COMMANDS = (
    ("certify", "--ring", "qt", "--c", "t", "--coding", "|1", "--depth", "7"),
    ("certify", "--c", "-3; 2", "--coding", "1|2", "--depth", "6"),
    ("primes", "--c", "1; 3", "--coding", "1|1,2", "--cutoffs", "500,2000", "--format", "csv"),
    ("simulate", "--depth", "8", "--trials", "3000", "--seed", "3"),
    ("sample", "--weights", "1/4,3/4", "--length", "16", "--samples", "200", "--seed", "3"),
)


def traced(argv) -> dict:
    child = run.run_child((str(BENCH_DIR / "tracer.py"), "--", *argv))
    return json.loads(child.stdout)


def _primes_up_to(n: int) -> int:
    return sum(all(p % d for d in range(2, int(p**0.5) + 1)) for p in range(2, n + 1))


class TracedCommandTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.first = [traced(argv) for argv in COMMANDS]
        cls.second = [traced(argv) for argv in COMMANDS]

    def test_counts_repeat_exactly(self):
        for a, b in zip(self.first, self.second):
            counts_a = {k: v for k, v in a["metrics"].items() if not k.endswith("self_s")}
            counts_b = {k: v for k, v in b["metrics"].items() if not k.endswith("self_s")}
            self.assertEqual(counts_a, counts_b)
            self.assertEqual(a["report"], b["report"])

    def test_self_times_sum_to_root_span(self):
        for out in self.first:
            total = sum(self_s for _, self_s in out["stats"].values())
            self.assertAlmostEqual(total, out["root_s"], delta=1e-9 * max(1.0, out["root_s"]))
            layers = sum(out["metrics"][f"{layer}.self_s"] for layer in tracer.LAYERS)
            self.assertAlmostEqual(layers, out["root_s"], delta=1e-9 * max(1.0, out["root_s"]))

    def test_every_layer_reached(self):
        totals: dict[str, float] = {}
        for out in self.first:
            for key, value in out["metrics"].items():
                totals[key] = totals.get(key, 0) + value
        for key in tracer.COUNTS:
            if key not in ("primescan.over_cap", "algebra.factorint.incomplete"):
                self.assertGreater(totals[key], 0, key)
        self.assertEqual([out["absent"] for out in self.first], [[]] * len(COMMANDS))

    def test_prefixed_scan_decides_every_prime_through_the_walker(self):
        metrics = self.first[2]["metrics"]
        self.assertEqual(metrics["primescan.prime_divides_orbit.calls"], _primes_up_to(2000))
        self.assertEqual(metrics["primescan.primes_decided"], _primes_up_to(2000))

    def test_spans_nest_within_their_parents(self):
        out = self.first[0]
        spans = {span[0]: span for span in out["spans"]}
        roots = [s for s in spans.values() if s[4] is None]
        self.assertEqual([s[1] for s in roots], [tracer.ROOT_SPAN])
        for span_id, name, start, end, parent, _ in spans.values():
            if parent is not None:
                self.assertLessEqual(spans[parent][2], start)
                self.assertLessEqual(end, spans[parent][3])


class TracerInProcessTest(unittest.TestCase):
    def setUp(self):
        import quadorbit.cli  # noqa: F401
        from quadorbit.algebra.intpoly import IntPolynomial

        self.IntPolynomial = IntPolynomial

    def bindings(self):
        """Every (owner, key) whose value is a tracer wrapper."""
        found = []
        for name, module in list(sys.modules.items()):
            if name == "quadorbit" or name.startswith("quadorbit."):
                for owner in [module, *[v for v in vars(module).values() if isinstance(v, type)]]:
                    found += [(owner, k) for k, v in vars(owner).items() if hasattr(v, "traced_span")]
        return found

    def test_install_rebinds_every_alias_and_uninstall_restores(self):
        from quadorbit import certify, cli, dynamics, process

        original = dynamics.critical_orbit
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIs(certify.critical_orbit, dynamics.critical_orbit)
            self.assertIsNot(dynamics.critical_orbit, original)
            self.assertIs(cli.certify_chain, process.certify_chain)
            self.assertEqual(cli.certify_chain.traced_span, "certify.certify_chain")
            self.assertIs(self.IntPolynomial.__dict__["__mul__"], self.IntPolynomial.__dict__["__rmul__"])
            self.assertTrue(hasattr(self.IntPolynomial.__dict__["__mul__"], "traced_span"))
        finally:
            t.uninstall()
        self.assertIs(dynamics.critical_orbit, original)
        self.assertEqual(self.bindings(), [])

    def test_absent_target_is_reported_not_raised(self):
        t = tracer.Tracer((*tracer.TARGETS, tracer.Target("dynamics", "no_such_function")))
        t.install()
        try:
            rc, text, _ = t.run(["classify", "--c", "-2; -6"])
        finally:
            t.uninstall()
        self.assertEqual(rc, 0)
        self.assertIn('"Exceptional"', text)
        self.assertEqual(t.absent, ["dynamics.no_such_function"])

    def test_nested_sieve_yields_count_once_and_mul_terms(self):
        from quadorbit import primescan

        t = tracer.Tracer()
        t.install()
        try:
            primes = list(primescan.primes_up_to(100))
            poly = self.IntPolynomial((1, 2, 3))
            _ = poly * self.IntPolynomial((4, 5))
            _ = 2 * poly
        finally:
            t.uninstall()
        self.assertEqual(len(primes), 25)
        self.assertEqual(t.counts["primescan.sieve.yielded"], 25)
        self.assertEqual(t.stats["primescan.primes_up_to"][0], 1)
        self.assertEqual(t.counts["algebra.intpoly.mul.terms"], 3 * 2 + 3 * 1)
        self.assertEqual(t.stats["algebra.intpoly.IntPolynomial.__mul__"][0], 2)

    def test_wrapper_follows_the_function_not_the_family(self):
        from quadorbit import primescan

        original = primescan.primes_up_to

        def listed(limit):  # a sieve that returns a list
            return list(original(limit))

        def lazy():  # a generator outside any family
            for _ in range(2):
                time.sleep(0.01)
                yield 1

        primescan.primes_up_to, primescan.lazy = listed, lazy
        t = tracer.Tracer((*tracer.TARGETS, tracer.Target("primescan", "lazy")))
        t.install()
        try:
            primes = primescan.primes_up_to(100)
            ones = primescan.lazy()
            time.sleep(0.2)  # between creation and iteration: not the generator's time
            self.assertEqual(sum(ones), 2)
        finally:
            t.uninstall()
            primescan.primes_up_to = original
            del primescan.lazy
        self.assertIsInstance(primes, list)
        self.assertEqual(len(primes), 25)
        self.assertEqual(t.counts["primescan.sieve.yielded"], 25)
        self.assertEqual(t.stats["primescan.primes_up_to"][0], 1)
        self.assertEqual(t.stats["primescan.primes_in_range"][0], 1)
        self.assertEqual(t.counts["primescan.lazy.yielded"], 2)
        self.assertGreaterEqual(t.stats["primescan.lazy"][1], 0.02)
        self.assertLess(t.stats["primescan.lazy"][1], 0.2)


class DeclaredMetricsTest(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        declared = run.declared_metrics()
        per_layer = {m["name"] for m in declared["per_layer"]}
        produced = set(tracer.layer_metrics({}, {})) | {
            "primescan.sieve.useful_ratio",
            "cli.cpu_s",
            "cli.startup_share",
            "trace.overhead_ratio",
        }
        self.assertEqual(per_layer, produced)
        self.assertEqual({m["name"] for m in declared["end_to_end"]}, {"wall_s", "setup_s", "peak_rss_mb"})

    def test_untraced_benchmark_does_not_import_the_tracer(self):
        code = "import sys; sys.path.insert(0, 'perfbench'); import run; print('tracer' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
        self.assertEqual(out.stdout.strip(), "False")


if __name__ == "__main__":
    unittest.main()
