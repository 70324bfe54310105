"""Record the reference outputs that the correctness checks compare against.

Runs every workload's fixed work at the reference seed and writes the file
hashes of the sweeps and the identified frequency sets of detect_n500 to
reference.json. Run it only on a commit whose outputs are known to be right,
from the repository root:

  python3 perfbench/record_reference.py
"""
import json
import os

import run


def main() -> int:
    path = os.path.join(run.BENCH_DIR, "reference.json")
    if os.path.exists(path):
        os.remove(path)  # otherwise the children would check against the old reference
    reference = {}
    for workload in run.WORKLOADS:
        child = run.run_child(["--workload", workload, "--fixed"])  # default seed: the reference seed
        if child["failed"]:
            raise SystemExit(f"{workload} failed its checks: {child['errors']}")
        reference[workload] = child["observed"]
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
