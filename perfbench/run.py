#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload <table1|fig5_deep|chip_dndp|auth_flood>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the jrsnd library and the perfbench program from the checkout's sources
(Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one measurement with JRSND_THREADS=1. The program's last stdout line
is the result object. Build output goes to stderr on failure only.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "fig5_deep", "chip_dndp", "auth_flood")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when the checkout is a git work tree, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def build(build_dir, log_path):
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                return False
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # The benchmark builds the library from the enclosing checkout.
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"no {needed} beside perfbench/: run from a full checkout")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "perfbench-build.log")
    if not build(build_dir, log_path):
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("build failed", 1)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected", "digests.txt"),
           "--commit", source_id()]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    env = dict(os.environ, JRSND_THREADS="1")
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
