#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark (see README.md).

    python3 perfbench/run.py --workload lftj-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds the repository and the benchmark from source into .bench_build/
(Release), runs the statistics self-test, then the named workload. The
last line of standard output is the JSON result. Run-time files (spans,
per-run results with the host fingerprint, the served catalog) go to
.bench_out/. Without --seed the run uses the default seed named in
perfbench/config.json, which also names the held-out seed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("lftj-paper", "ms-morsel")
TARGETS = ("perfbench", "perfbench_selftest", "wcoj_serverd", "query_runner")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository source next to perfbench/; nothing to build")
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *TARGETS])
    # Keeps the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see " + log_path)


def binary(*parts):
    return os.path.join(BUILD, *parts)


def source_id():
    """The git commit when the checkout has one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run only the statistics self-test")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seconds is None
                              or args.seconds <= 0):
        ap.error("--workload and a positive --seconds are required")
    if args.seed is None:
        with open(os.path.join(HERE, "config.json")) as f:
            args.seed = json.load(f)["default_seed"]

    build()
    selftest = subprocess.run([binary("perfbench_selftest")],
                              stdout=subprocess.PIPE, text=True)
    if selftest.returncode != 0:
        fail("statistics self-test failed")
    if args.selftest:
        print(selftest.stdout.strip())
        return 0

    cmd = [binary("perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--out-dir", OUT,
           "--serverd", binary("wcoj", "src", "server", "wcoj_serverd"),
           "--query-runner", binary("wcoj", "examples", "query_runner"),
           "--git-sha", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode == 0 and not check_result(lines[-1]):
        fail("the last output line is not a result object")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
