#!/usr/bin/env python3
"""Pin the slot benchmark's deterministic figures.

    python3 perfbench/run.py --workload W --seed 1 --seconds 5 --trace T > out.txt
    python3 bench/check_perfbench_sim.py W T out.txt

Reads the result line (the last line of the output) and compares the
figures that depend only on the seeded workload, not on timing, exactly
against bench/baselines/perfbench_sim.json: sim.throughput,
sim.mean_connect_slots and served_ratio from an untraced run (T = 0),
engine.cycles and reference.mismatches from a traced one (T = 1).
Exits 1 on any difference, so a change in behaviour fails CI instead of
resting on a review claim.
"""

import json
import os
import sys

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "baselines", "perfbench_sim.json")


def main(workload, trace, result_file):
    with open(BASELINE) as f:
        want = json.load(f)[workload]["trace" + trace]
    with open(result_file) as f:
        lines = f.read().splitlines()
    if not lines:
        print("check_perfbench_sim: %s is empty" % result_file)
        return 1
    got = json.loads(lines[-1])["metrics"]
    bad = 0
    for name, value in sorted(want.items()):
        seen = got[name]["value"]
        same = seen == value
        bad += not same
        print("%-24s %-26s want %-22r got %r%s"
              % (workload, name, value, seen, "" if same else "  MISMATCH"))
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
