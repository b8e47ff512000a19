#!/usr/bin/env python3
"""Compare the work counts of two traced perfbench runs.

    python3 scripts/compare_work_counts.py PARENT CHANGE [--json]

PARENT and CHANGE are files holding the output of
`python3 perfbench/run.py --workload <w> --seed 1 --seconds <s> --trace 1`
on the parent and on the change.  The result is the last line of each that
parses as a JSON object with "metrics".

Every metric whose unit is `count` or `bytes` is a deterministic work count
at a fixed seed (kernel calls and sites, plan builds, search moves, memory
tier traffic).  The script prints each one that differs, or is present on
one side only, and exits 1 if any does, 0 if all agree.  A workload
whose counts are all zero on both sides (service-mix publishes none)
agrees vacuously; the script says so on standard error.  With --json it
prints one JSON object instead: {"identical", "all_zero", "differ",
"counts"}, where "counts" maps every compared metric to its parent and
change values.
"""

import argparse
import json
import sys

WORK_UNITS = ("count", "bytes")


def read_result(path):
    with open(path) as stream:
        lines = stream.read().splitlines()
    for line in reversed(lines):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            result = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(result, dict) and "metrics" in result:
            return result
    raise ValueError(f"{path}: no perfbench result line")


def work_counts(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric.get("unit") in WORK_UNITS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()

    try:
        parent = work_counts(read_result(args.parent))
        change = work_counts(read_result(args.change))
    except (OSError, ValueError) as error:
        print(f"compare_work_counts: {error}", file=sys.stderr)
        return 2

    names = sorted(set(parent) | set(change))
    counts = {name: {"parent": parent.get(name), "change": change.get(name)} for name in names}
    differ = [name for name in names if parent.get(name) != change.get(name)]
    all_zero = not any(parent.values()) and not any(change.values())
    if all_zero:
        print("compare_work_counts: every work count is 0 on both sides; "
              "the comparison shows nothing", file=sys.stderr)
    if args.json:
        print(json.dumps({"identical": not differ, "all_zero": all_zero, "differ": differ,
                          "counts": counts}))
    else:
        for name in differ:
            print(f"{name}: parent {parent.get(name)} change {change.get(name)}")
        print(f"{len(names) - len(differ)} of {len(names)} work counts identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
