#!/usr/bin/env python3
"""Build the library and the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, scratch files to a per-run
directory beside it that is removed afterwards (a traced run's span log
is kept in traces/ there). Standard output ends with
the program's host record and its one-line JSON result; the build log and
diagnostics go to standard error. The exit status is the program's: 0 only
when every correctness check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table6_bias", "screen_nobias", "stream_paper", "serve_mix")
# A run must end within 180 s; the slowest traced run takes about 80 s.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(build_root):
    """Configure once, then build the program (a no-op when up to date)."""
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "--parallel", BUILD_JOBS],
        check=True,
        stdout=sys.stderr,
    )
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        return fail("no library sources next to " + HERE)

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)

    workdir = os.path.join(build_root, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--reference", os.path.join(HERE, "reference.txt"),
    ]
    try:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Keep the traced run's span log; drop the rest of the scratch.
        spans = os.path.join(workdir, "spans-%s.json" % args.workload)
        if os.path.isfile(spans):
            traces = os.path.join(build_root, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed)))
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
