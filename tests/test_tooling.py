"""The benchmark's own self-test, run as part of the suite.

Traced benchmark runs (bench/run.py --trace 1) run bench/selftest.py first
and count a failure as an incorrect run, so a library change that breaks
the benchmark's patching of blslab fails here as well.
"""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_selftest_passes(monkeypatch):
    # the self-test puts bench/ and src/ on sys.path and imports the bench
    # modules spans and worker by their bare names; all of it is undone here
    monkeypatch.setattr(sys, "path", list(sys.path))
    loaded = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_selftest", BENCH / "selftest.py")
    selftest = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, selftest)  # run() finds its tests there
    try:
        spec.loader.exec_module(selftest)
        assert selftest.run()
    finally:
        for name in ("spans", "worker"):
            if name not in loaded:
                sys.modules.pop(name, None)
