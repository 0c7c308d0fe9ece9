"""Record the golden outputs of each workload's whole input universe.

    python3 perfbench/record_golden.py [automata | classes | cli ...]

Run from the root of a source checkout at the commit whose outputs are the
reference.  Reference checks still apply while recording; a workload whose
outputs fail them is not recorded.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
    from harness import Judge, measure
    from run import WORKLOADS

    status = 0
    for name in argv or (*WORKLOADS, "cli"):
        workload = importlib.import_module("w_" + name)
        parsed = workload.parse(workload.inputs(None))
        judge = Judge({}, record=True)
        run = measure(workload, parsed, judge, passes=1)
        if judge.mismatches:
            print(f"{name}: not recorded", *judge.mismatches[:20], sep="\n  ")
            status = 1
            continue
        path = HERE / "golden" / f"{name}.json"
        path.write_text(json.dumps(judge.golden, indent=0, sort_keys=True) + "\n")
        print(f"{name}: {len(judge.golden)} golden outputs from "
              f"{run['attempted']} operations")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
