#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first form builds perfbench (CMake, from ../src) when needed, runs one
workload in a private directory under .bench_run/ that is removed at exit,
and passes the result line through: the last line of stdout is one JSON
object with "correct", "attempted", "failed" and "metrics". The build tree
is $CARGO_TARGET_DIR when set, else .bench_build/ at the repository root.
Build output goes to stderr. --self-test builds and runs the tests of the
benchmark's correctness checks.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch_warm", "cust2_cold", "stream_drift", "tpch_socket")
# A run measures for --seconds (at most 60) plus set-up and checks; the
# whole run must end within 180 s.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(path)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the repository sources (src/) are missing")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, target)


def run_workload(args):
    binary = build("perfbench")
    runs = os.path.join(ROOT, ".bench_run")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        proc = subprocess.Popen(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=workdir, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        return proc.returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass  # another run still uses it


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return subprocess.run([build("perfbench_checks_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")
    return run_workload(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed: %s" % e)
