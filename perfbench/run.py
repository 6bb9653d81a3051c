#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 10 --trace 0

Workloads: fig7, mono_cold, mono_edit (see BENCHMARK.json for why each was
chosen and perfbench/layers.json for the layer -> metric -> workload map).
With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer ledger. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The first run builds the verifier libraries and the perfbench binary under
.bench_build/ (RelWithDebInfo). Everything a run writes stays under
.bench_build/; its store directories are removed when it ends, also on
failure. Without the verifier sources (src/) the run fails before building.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("fig7", "mono_cold", "mono_edit")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def check(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
           "-j", jobs])
    return os.path.join(BUILD_DIR, "perfbench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def src_digest():
    """A digest of the verifier sources, which identifies the build when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(want - set(result["metrics"])),
                                       sorted(set(result["metrics"]) - want)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no verifier sources under %s/src; nothing to measure" % ROOT)
        return 2
    # A termination request unwinds through the finally blocks below, so the
    # child is stopped and the store directories are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD_ROOT, "tmp"))
    proc = None
    try:
        proc = subprocess.Popen(
            [binary, "--workload=" + args.workload,
             "--seed=%d" % (args.seed % 2**64),
             "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
             "--tmp=" + tmp, "--commit=" + git_commit(),
             "--src-digest=" + src_digest()],
            stdout=subprocess.PIPE, text=True)
        out, _ = proc.communicate(timeout=2 * args.seconds + 100)
    except subprocess.TimeoutExpired:
        log("perfbench did not finish in time")
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log("perfbench exited with code %d" % proc.returncode)
        return 1
    try:
        validate(lines[-1], args.trace)
    except (ValueError, KeyError) as e:
        log("bad result line: %s" % e)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
