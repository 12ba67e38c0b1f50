#!/usr/bin/env python3
"""Build the StreamTune daemon and the benchmark from source, then run one
workload.

    python3 e2ebench/run.py --workload fresh_jobs --seed 1 --seconds 25 --trace 0

Run it from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build); daemon logs and span files go to e2ebench-out/ inside it.
The report goes to standard output; its last line is the JSON result with
the metrics BENCHMARK.json names: the end-to-end ones, or with --trace 1
the per-layer ones. The exit status is the benchmark's (0: every output
correct; 1: a wrong or failed operation), or 2 when no result was made.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(target, *args):
    """One offline release build; stop on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env).returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    args = sys.argv[1:]
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target, "-p", "streamtune-cli")
    build(target, "--manifest-path", os.path.join(ROOT, "e2ebench", "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "e2ebench"),
        "--daemon",
        os.path.join(release, "streamtune"),
        "--out-dir",
        os.path.join(target, "e2ebench-out"),
        *args,
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    last = lines.pop() if lines and lines[-1].startswith("{") else None
    print("\n".join(lines), flush=True)
    if last is None:
        fail(f"no result (exit status {done.returncode})")
    result = json.loads(last)
    measured = result["metrics"]
    bad = [n for n in names if not isinstance((measured.get(n) or {}).get("value"), (int, float))
           or not math.isfinite(measured[n]["value"])]
    if bad:
        fail(f"not measured: {', '.join(bad)}")
    result["metrics"] = {n: measured[n] for n in names}
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
