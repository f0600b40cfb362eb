"""Self-test of the benchmark's span arithmetic and patching.

    python3 bench/selftest.py

Traced benchmark runs also run it first and count a failure as incorrect.
"""

from __future__ import annotations

import json
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def _span(name, start, end, thread=1, parent=None):
    return spans.Span(name, start, parent, thread, end=end)


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        top = _span("a", 0.0, 10.0)
        kids = [_span("b", 1.0, 4.0), _span("c", 3.0, 6.0), _span("d", 8.0, 12.0)]
        # covered: [1, 6] and [8, 10] (clipped) -> 7 of 10
        self.assertAlmostEqual(spans.self_time(top, kids), 3.0)

    def test_cross_thread_children_do_not_count(self):
        top = _span("a", 0.0, 10.0, thread=1)
        kids = [_span("b", 2.0, 9.0, thread=2), _span("c", 1.0, 2.0, thread=1)]
        self.assertAlmostEqual(spans.self_time(top, kids), 9.0)

    def test_no_children(self):
        self.assertAlmostEqual(spans.self_time(_span("a", 2.0, 5.5), []), 3.5)

    def test_tracer_nesting(self):
        tr = spans.Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))
        a = tr.open("a")
        b = tr.open("b")
        tr.close(b)          # b: [1, 3]
        c = tr.open("c")
        tr.close(c)          # c: [4, 4.5]
        tr.close(a)          # a: [0, 10]
        self.assertIs(b.parent, a)
        self.assertAlmostEqual(tr.self_s["a"], 10.0 - 2.0 - 0.5)
        self.assertAlmostEqual(tr.self_s["b"], 2.0)
        self.assertEqual(tr.calls["a"], 1)

    def test_worker_thread_spans_parent_to_root(self):
        tr = spans.Tracer(clock=FakeClock(0.0, 1.0, 5.0, 6.0))
        root = tr.open("root")
        tr.thread_root = root
        seen = {}

        def work():
            s = tr.open("work")
            tr.close(s)
            seen["span"] = s

        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        self.assertFalse(t.is_alive())
        tr.close(root)
        self.assertIs(seen["span"].parent, root)
        self.assertNotEqual(seen["span"].thread, root.thread)
        self.assertAlmostEqual(tr.self_s["root"], 6.0)
        self.assertAlmostEqual(tr.self_s["work"], 4.0)


def _bindings():
    import importlib

    names = ["blslab"] + [f"blslab.{m}" for m in spans.MODULES]
    mods = [importlib.import_module(n) for n in names]
    return {(m.__name__, attr): obj for m in mods for attr, obj in vars(m).items()}


class PatchTest(unittest.TestCase):
    def test_restore_puts_back_every_attribute(self):
        before = _bindings()
        tr = spans.Tracer()
        with spans.Patch(tr) as patch:
            import blslab
            from blslab import datakit, estimation, montecarlo

            self.assertGreater(len(patch.saved), 100)
            self.assertIsNot(montecarlo.fit_mle, before[("blslab.montecarlo", "fit_mle")])
            self.assertIs(montecarlo.fit_mle, estimation.fit_mle)
            self.assertIs(datakit.fit_mle, blslab.fit_mle)
            spec = blslab.make_generator(blslab.GeneratorId.LOGNORMAL)
            theta = blslab.BLSParams(1.0, 1.0, 0.5, 0.5, 0.5)
            blslab.joint_pdf(theta, spec, 1.0, 1.0)
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])
        self.assertEqual(tr.calls["distribution.joint_pdf"], 1)
        self.assertEqual(tr.calls["distribution.joint_log_pdf"], 1)
        self.assertEqual(tr.counts["generators.scalar_calls"], 1)

    def test_study_threads_and_objective_counts(self):
        import blslab

        tr = spans.Tracer()
        spec = blslab.make_generator(blslab.GeneratorId.LOGNORMAL)
        cfg = blslab.MCConfig(spec, blslab.BLSParams(1.0, 1.0, 0.5, 0.5, 0.5),
                              (20,), (0.5,), 4, master_seed=3)
        with spans.Patch(tr):
            from blslab import montecarlo

            montecarlo.run_study(cfg, workers=2)
        self.assertEqual(tr.calls["montecarlo.run_study"], 1)
        self.assertEqual(tr.calls["estimation.fit_mle"], 4)
        self.assertEqual(tr.counts["montecarlo.reps"], 4)
        self.assertGreater(tr.counts["estimation.objective_evals"], 4)
        # worker-thread spans do not reduce the study's self time; two
        # workers overlap at most twofold
        self.assertGreater(tr.self_s["montecarlo.run_study"],
                           tr.self_s["estimation.fit_mle"] / 4)


class DeclarationTest(unittest.TestCase):
    def test_per_layer_names_match_benchmark_json(self):
        import worker

        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
        self.assertEqual(declared, list(worker.PER_LAYER))
        self.assertEqual([m["name"] for m in doc["end_to_end"]], list(worker.END_TO_END))


def run() -> bool:
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


if __name__ == "__main__":
    sys.exit(0 if run() else 1)
