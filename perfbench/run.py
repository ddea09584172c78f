#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
perfbench package (this directory's CMakeLists.txt, which pulls in the
repo's libraries) into .bench_build/perfbench with one compile job per CPU;
later calls only let the build tool confirm it is up to date. The build log
goes to .bench_build/perfbench/build.log. The perfbench executable then runs
the workload and prints its metrics, the last stdout line being one JSON
object. With --trace 1 the spans are written to
.bench_build/perfbench/spans_<workload>_<seed>.json. The JSON object must
hold exactly the metrics BENCHMARK.json lists for the run (end_to_end with
--trace 0, per_layer with --trace 1), each in its unit; otherwise this
script exits 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lock_mesh256", "apps_mesh64", "check_litmus", "fuzz_farm")


def build(build_dir: str) -> str:
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail + "\nperfbench: build failed, see %s\n" % log_path)
                sys.exit(1)
    return os.path.join(build_dir, "perfbench")


def check_result(last_line: str, manifest_path: str, trace: int) -> str:
    """Returns why the result line does not match the manifest, or ''."""
    with open(manifest_path) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    try:
        got = json.loads(last_line)["metrics"]
    except (ValueError, KeyError, TypeError):
        return "the last line is not a result object"
    want = {m["name"]: m["unit"] for m in listed}
    have = {name: m.get("unit") for name, m in got.items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        unit = sorted(n for n in set(want) & set(have) if want[n] != have[n])
        return "missing %s, unlisted %s, wrong unit %s" % (missing, extra, unit)
    return ""


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        sys.stderr.write("perfbench: no CMakeLists.txt in %s; run from the "
                         "root of a full checkout\n" % root)
        return 1
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    exe = build(build_dir)
    cmd = [exe, "--workload=" + a.workload, "--seed=%d" % a.seed,
           "--seconds=%d" % a.seconds, "--trace=%d" % a.trace]
    if a.trace:
        cmd.append("--spans-out=" + os.path.join(
            build_dir, "spans_%s_%d.json" % (a.workload, a.seed)))
    sys.stdout.flush()
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    why = check_result(lines[-1] if lines else "",
                       os.path.join(root, "BENCHMARK.json"), a.trace)
    if why:
        sys.stderr.write("perfbench: result does not match BENCHMARK.json: %s\n"
                         % why)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
