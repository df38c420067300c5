#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the repository root:

    python3 perfbench/tests/selftest.py

Checks that
  1. a corrupted expected digest makes a run report failures (the output
     check is not vacuous), while the committed digests report none;
  2. the traced table1 and fig5_deep runs prove their composed RunResults
     bit-identical to DiscoverySimulator::run_once before reporting;
  3. every workload prints exactly the BENCHMARK.json metrics, by name and
     unit, untraced (end_to_end) and traced (per_layer);
  4. without the library sources beside it, run.py exits non-zero and prints
     no result.
Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
DIGESTS = os.path.join(BENCH, "expected", "digests.txt")


def check(ok, message):
    if not ok:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def run_bench(workload, trace, seconds=1):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "0",
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True)
    check(out.returncode == 0, f"{workload} trace={trace} exits 0 ({out.stderr[-500:]!r})")
    return out.stdout


def binary():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    return build_root, os.path.join(build_root, "perfbench", "perfbench")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    # 3 (and 2 for the Monte-Carlo workloads): every metric, both modes.
    for w in spec["workloads"]:
        for trace in (0, 1):
            stdout = run_bench(w["name"], trace)
            result = result_of(stdout)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want[trace], f"{w['name']} trace={trace} prints every metric with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{w['name']} trace={trace} passes its output checks")
            if trace and w["name"] in ("table1", "fig5_deep"):
                check("identity: 4/4 traced RunResults bit-identical to run_once" in stdout,
                      f"{w['name']} traced run is bit-identical to run_once")

    # 1: corrupt every committed digest and expect every iteration to fail.
    build_root, exe = binary()
    with tempfile.TemporaryDirectory(dir=build_root) as tmp:
        corrupted = os.path.join(tmp, "digests.txt")
        with open(DIGESTS) as src, open(corrupted, "w") as dst:
            for line in src:
                fields = line.split()
                if len(fields) == 3 and not line.startswith("#"):
                    flipped = format(int(fields[2], 16) ^ 1, "016x")
                    line = f"{fields[0]} {fields[1]} {flipped}\n"
                dst.write(line)
        for workload in ("fig5_deep", "auth_flood"):
            out = subprocess.run([exe, "--workload", workload, "--seed", "0", "--seconds", "1",
                                  "--trace", "0", "--expected", corrupted],
                                 capture_output=True, text=True)
            result = result_of(out.stdout)
            check(out.returncode == 0 and not result["correct"] and
                  result["failed"] == result["attempted"] >= 1,
                  f"{workload} counts every iteration as failed under a corrupted digest")

    # 4: a directory holding only BENCHMARK.json and the benchmark.
    with tempfile.TemporaryDirectory(dir=build_root) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table1",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=180)
        check(out.returncode != 0 and '"correct"' not in out.stdout,
              "without the library sources the benchmark fails and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
