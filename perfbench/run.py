#!/usr/bin/env python3
"""Build and run the slot-level benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/slotbench.exe
from source with dune into .bench_build (release profile, no shared
cache, so nothing is written outside the checkout), then runs it with
the same arguments. The last line of standard output is the result: one
JSON object with the keys correct, attempted, failed and metrics. Before
passing that line on, this script checks that it names exactly the
metrics BENCHMARK.json declares for the requested mode.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "slotbench.exe")


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    return code


def trace_mode(argv):
    for i, arg in enumerate(argv):
        if arg == "--trace" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--trace="):
            return arg.split("=", 1)[1]
    return "0"


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of an rsin checkout "
                    "(dune-project or lib/ is missing)", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache", "disabled",
             "./perfbench/slotbench.exe"]
    # Build output goes to stderr: stdout's last line must be the result.
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        return fail("build failed")
    try:
        run = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, text=True,
                             timeout=175)
    except subprocess.TimeoutExpired:
        return fail("the benchmark did not finish within 175 s")
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 and not lines:
        return fail("the benchmark exited with code %d" % run.returncode)
    key = "per_layer" if trace_mode(argv) == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    try:
        result = json.loads(lines[-1])
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return fail("the benchmark printed no result line")
    if printed != declared:
        return fail("metrics differ from BENCHMARK.json's %s: %s"
                    % (key, sorted(set(printed.items()) ^ set(declared.items()))))
    print(lines[-1])
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
