"""The benchmark's own self-test and the demos, run as part of the suite.

Traced benchmark runs (bench/run.py --trace 1) run bench/selftest.py first
and count a failure as an incorrect run, so a library change that breaks
the benchmark's patching of blslab fails here as well. Each demo runs as a
script, as its docstring says to, with numpy's warnings made errors.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean_and_writes_nothing(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert list(tmp_path.iterdir()) == []
