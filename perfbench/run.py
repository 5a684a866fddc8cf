#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload swim256|hotmap32|checked_sweep \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The harness (perfbench/harness.cc)
and the simulator library (src/) are built in Release into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset. The harness prints the run header, the fingerprint and the
metrics; its last stdout line is the JSON result. The exit status is
the harness's: 0 only when every run passed its correctness gate.
Traced runs leave their spans in the build directory.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("swim256", "hotmap32", "checked_sweep")
# The harness must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configure once, then build incrementally; output goes to a log."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "tccperf", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "tccperf")


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def tree_digest(*dirs):
    """Content hash of the sources, which identifies the code measured
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for d in dirs:
        for path, subdirs, files in sorted(os.walk(d)):
            subdirs.sort()
            for name in sorted(files):
                full = os.path.join(path, name)
                h.update(os.path.relpath(full, ROOT).encode())
                with open(full, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")

    bdir = build_dir()
    exe = build(bdir)
    # Fingerprints are remembered per binary: a run must reproduce every
    # earlier run of the same (workload, seed) by the same build.
    ledger = os.path.join(bdir, f"fingerprints-{file_digest(exe)}.txt")
    spans = os.path.join(bdir, f"spans-{args.workload}-{args.seed}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ledger", ledger, "--spans", spans, "--rev", git_rev(),
           "--src-digest", tree_digest(os.path.join(ROOT, "src"), HERE)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
