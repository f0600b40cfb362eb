"""The blslab benchmark.

    python3 bench/run.py --workload {mc-study,cli-session,dist-queries} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src``.
The workloads, metrics and per-layer split are described in bench/README.md.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics.
Lines before it name every reported metric with its unit, and the machine
and versions the run used.  The full record of each run, including the
names of failed operations, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 175.0


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def child(cmd, deadline):
    """Run a child to completion; returns (last stdout line, wall s)."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"timed out: {' '.join(cmd[1:3])}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(cmd[1:])}")
    lines = out.strip().splitlines()
    return (lines[-1] if lines else ""), time.perf_counter() - t0


def worker_cmd(args, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--spawn-ts", repr(time.perf_counter()), *extra]


def setup_sample(args, deadline) -> float:
    """Fresh process to ready, once."""
    if args.workload == "cli-session":
        _, wall = child([sys.executable, str(HERE / "cli_launcher.py"), "--", "--version"],
                        deadline)
        return wall
    line, _ = child(worker_cmd(args, "--setup-only"), deadline)
    return json.loads(line)["ready_s"]


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src" / "blslab", HERE):
        for f in sorted(base.rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None where the checkout is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def check_digest(key: str, value: str) -> bool:
    """Same workload, seed and sources must give the same output digest."""
    path = OUT / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        return known[key] == value
    known[key] = value
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return True


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc-study", "cli-session", "dist-queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "blslab" / "__init__.py").is_file():
        return fail(f"no blslab sources under {ROOT / 'src'}; run from a checkout")
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    deadline = time.perf_counter() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)

    try:
        extra_setups = SETUP_SAMPLES - (args.workload != "cli-session")
        setups = [] if args.trace else [setup_sample(args, deadline) for _ in range(extra_setups)]
        line, _ = child(worker_cmd(args, "--seed", str(args.seed), "--seconds",
                                   str(args.seconds), "--trace", str(args.trace)), deadline)
        res = json.loads(line)
    except (RuntimeError, ValueError, KeyError) as e:
        return fail(str(e))
    if args.workload != "cli-session":
        setups.append(res["ready_s"])

    src = source_digest()
    same = check_digest(f"{args.workload}:{args.seed}:{src}", res["digest"])
    correct = not res["checks_failed"] and same
    env = {
        "cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": res["numpy"], "scipy": res["scipy"], "commit": git_commit(),
        "source_sha256": src, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
    }
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "round_s": {"value": res["round_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    report = {k: {"value": v, "unit": "1/s" if "_per_s" in k else "s"}
              for k, v in res["report"].items()}
    report["fail_frac"] = {"value": res["failed"] / max(1, res["attempted"]), "unit": "fraction"}
    record = {
        "env": env, "correct": correct, "digest": res["digest"], "digest_repeats": same,
        "round_times_s": res["round_times"], "setup_samples_s": setups,
        "attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"],
        "checks_passed": res["checks_passed"], "checks_failed": res["checks_failed"],
        "metrics": metrics, "report": report,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    for k, m in {**report, **metrics}.items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    for what, n in res["failures"].items():
        print(f"failed {n} x {what}")
    for what in res["checks_failed"]:
        print(f"check failed: {what}")
    if not same:
        print("check failed: output digest differs from an earlier run of this seed")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
