#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (and the library it links) under $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild incrementally. Build output goes to
stderr, so the benchmark's last stdout line stays the result object.
Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "clm_perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        return 1
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    args = list(argv)
    opts = dict(zip(args[0::2], args[1::2]))
    if opts.get("--trace") == "1" and "--spans-out" not in opts:
        args += ["--spans-out", os.path.join(
            out, "spans-%s-%s" % (opts.get("--workload"), opts.get("--seed")))]
    try:
        proc = subprocess.run([os.path.join(out, "clm_perfbench")] + args,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
