#!/usr/bin/env python3
"""QF-RAMAN benchmark entry point.

Builds the benchmark program (qfbench/CMakeLists.txt, which pulls in the
repository's own build) under .bench_build/ at the repository root, then
runs one workload with the thread environment pinned:

    python3 qfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the result JSON object; the metadata
line before it records seed, host and build. Build output goes to standard
error. Exits non-zero, without printing a result, when the sources are
missing, the build fails or the program fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qfbench")
PROGRAM = os.path.join(BUILD, "qfbench")
# A run (after the first, which builds) must end within 180 s; the program
# is stopped past this.
PROGRAM_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(out, spec, trace):
    """The program's last line must name exactly the metrics BENCHMARK.json
    lists for this mode, so the two can not drift apart."""
    result = json.loads(out.strip().splitlines()[-1])
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(want):
        sys.exit("qfbench: program metrics %s differ from BENCHMARK.json %s"
                 % (sorted(result["metrics"]), sorted(want)))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "qfr"))):
        sys.exit("qfbench: QF-RAMAN sources not found next to qfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("qfbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("qfbench: build failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    spec = load_spec()
    if a.seed < 0 or a.seconds <= 0:
        sys.exit("qfbench: --seed must be >= 0 and --seconds > 0")
    build()

    # One OpenMP thread per leader, whatever the caller's environment says.
    env = dict(os.environ, OMP_NUM_THREADS="1")
    cmd = [PROGRAM, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("qfbench: program exceeded %d s" % PROGRAM_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit("qfbench: program exited with %d" % proc.returncode)
    check_result(out, spec, a.trace)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
