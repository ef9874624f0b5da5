"""Record the golden copy of every workload instance's CLI output.

    python3 perfbench/record_golden.py

Runs each instance of every workload in run.WORKLOADS once, in a fresh
interpreter, and writes its exit code and JSON report (without the volatile
keys) to perfbench/golden.json.  A search whose enumeration count differs
from the count computed in run.py is refused.  Re-record only when the
CLI's output is meant to change.
"""

from __future__ import annotations

import json
import sys

import run


def record(inst: run.Instance) -> dict:
    """The golden entry of one instance: its exit code and report."""
    sample = run.run_sample(inst)
    if sample.get("error"):
        raise RuntimeError(f"{inst.key}: {sample['error']}")
    report = json.loads(sample["stdout"])
    for key in run.VOLATILE_KEYS:
        report.pop(key, None)
    if "subspaces_enumerated" in report:
        work = inst.expected_work(report)
        if report["subspaces_enumerated"] != work:
            raise RuntimeError(f"{inst.key}: enumerated {report['subspaces_enumerated']}, "
                               f"expected {work}")
    return {"exit_code": sample["exit_code"], "report": report}


def main() -> int:
    try:
        run.preflight()
        golden = {}
        for pool in run.WORKLOADS.values():
            for inst in pool:
                golden[inst.key] = record(inst)
                print(f"{inst.key}: exit {golden[inst.key]['exit_code']}")
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    with open(run.GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
