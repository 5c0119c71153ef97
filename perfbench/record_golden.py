"""Record golden.json from the program in this checkout.

    python3 perfbench/record_golden.py

It stores the SHA-256 of every ``generate`` job's exact output and the
PASS/FAIL state of every ``verify`` check.  Record only from a commit
whose outputs are known to be right: every later run is checked against
this file.  The verify states must not depend on the seed; the recording
runs several seeds and refuses to write if they disagree.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads
from run import ROOT, import_program

SEEDS = (0, 1, 2, 3)


def main() -> int:
    tg = import_program()
    tmp = ROOT / ".perfbench_tmp" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        golden = {"generate": {}, "verify": None}
        for job_id, argv in workloads.generate_argvs(str(tmp)):
            if workloads.cli_call(tg, argv) != 0:
                raise SystemExit(f"{job_id} failed")
            golden["generate"][job_id] = workloads.generate_summary(argv[-1])
        for seed in SEEDS:
            out = str(tmp / "verify.json")
            workloads.cli_call(tg, ["verify", "--suite", "all", "--radius", "100",
                                    "--seed", str(seed), "--out", out])
            states = workloads.verify_states(out)
            if golden["verify"] not in (None, states):
                raise SystemExit(f"verify check states differ at seed {seed}")
            golden["verify"] = states
    finally:
        shutil.rmtree(tmp)
    with open(workloads.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
