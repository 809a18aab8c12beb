"""Record bench/reference.json: the outputs every workload must reproduce.

    python3 bench/record_reference.py

Run it only to re-baseline on purpose, on a commit whose outputs are known
to be right; the committed file was recorded on the seed commit.  It
computes series_deep's digests for every feasible m, so any seed is
covered; at the full size that takes about two minutes.
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


def record(name: str, size: str) -> dict:
    workload = workloads.WORKLOADS[name]
    if name == "series_deep":
        inputs = workload.all_keys_inputs(size)
    else:
        inputs = workload.inputs(0, size)
    state = workload.prepare(inputs)
    try:
        outputs = workload.run(inputs, state)
    finally:
        workload.finish(state)
    observed = workload.observe(inputs, state, outputs)
    bad = [k for k, v in observed.items() if k.startswith("report:") and v["status"] != "PASS"]
    if bad or observed.get("exit_code", 0) != 0:
        raise SystemExit(f"{name} ({size}) does not pass: {bad}; refusing to record")
    return observed


def main() -> int:
    reference = {
        size: {name: record(name, size) for name in workloads.WORKLOADS}
        for size in workloads.SIZES
    }
    with open(os.path.join(BENCH, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
