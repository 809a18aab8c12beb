"""overmex benchmark: time to a verdict on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (bench/child.py), one at a
time, so each starts with cold qfactory caches.  Repetitions continue until
--seconds have passed; the reported figures are medians.  With --trace 0
the end-to-end metrics are reported, with --trace 1 the per-layer ones,
taken from traced repetitions that alternate with untraced ones so that the
tracing overhead is measured too.  The last line on stdout is one JSON
object; a copy of everything, with the machine context, goes to
bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("verify_default", "series_deep", "parity_deep", "oracle_deep")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150


def unit_of(metric: str) -> str:
    leaf = metric.rsplit(".", 1)[-1]
    if metric == "peak_rss_mib":
        return "MiB"
    if leaf == "out_kib":
        return "KiB"
    if leaf.endswith("ratio"):
        return "ratio"
    if leaf.endswith("_s") or leaf == "s":
        return "s"
    return "count"


def start_child(args: list) -> tuple:
    """Run child.py to completion; return (start_ns, record or None, error)."""
    start_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", CHILD, *args],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return start_ns, None, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return start_ns, json.loads(lines[-1]), ""
    except ValueError:
        pass
    return start_ns, None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"


def setup_seconds(start_ns: int, record: dict) -> float:
    return (record["imported_ns"] - start_ns) / 1e9


def machine_context() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    os.makedirs(OUT, exist_ok=True)
    began = time.monotonic()
    start_child(["setup"])  # fills __pycache__; not counted
    setup, reps, probe_errors = [], [], []
    for _ in range(SETUP_PROBES):
        start_ns, record, error = start_child(["setup"])
        if record is None:
            probe_errors.append(error)
        else:
            setup.append(setup_seconds(start_ns, record))
    while True:
        traced = trace and len(reps) % 2 == 1
        spans = os.path.join(OUT, f"spans-{workload}-seed{seed}-rep{len(reps)}.jsonl")
        start_ns, record, error = start_child(
            ["run", workload, str(seed), size, "1" if traced else "0", spans]
        )
        if record is None:
            record = {"completed": False, "results": [["child", False, error]]}
        else:
            setup.append(setup_seconds(start_ns, record))
        record["traced"] = traced
        reps.append(record)
        if time.monotonic() - began >= seconds and (not trace or len(reps) >= 2):
            break
    return {"setup": setup, "reps": reps, "probe_errors": probe_errors}


def summarise(m: dict, trace: bool) -> dict:
    done = [r for r in m["reps"] if r["completed"]]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (trace and not traced) or not m["setup"]:
        return {}
    verdict = statistics.median(r["verdict_s"] for r in plain)
    if not trace:
        return {
            "setup_s": statistics.median(m["setup"]),
            "verdict_s": verdict,
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
    layers = {
        name: statistics.median_low(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    # Repetitions alternate untraced, traced: compare each traced one with
    # the untraced one just before it, so that slow drift of the machine
    # cancels out.
    reps = m["reps"]
    pairs = [
        reps[i]["verdict_s"] - reps[i - 1]["verdict_s"]
        for i in range(1, len(reps), 2)
        if reps[i]["completed"] and reps[i - 1]["completed"]
    ]
    layers["trace.overhead_s"] = (
        statistics.median(pairs) if pairs
        else statistics.median(r["verdict_s"] for r in traced) - verdict
    )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs the same code paths at small sizes (for bench/selftest.py)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "overmex", "__init__.py")):
        print(f"no overmex sources under {ROOT}/src; nothing to measure", file=sys.stderr)
        return 2

    m = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    results = [res for r in m["reps"] for res in r["results"]]
    results += [["setup_probe", False, e] for e in m["probe_errors"]]
    failures = [res for res in results if not res[1]]
    metrics = summarise(m, bool(args.trace))
    if not metrics:
        print("no repetition completed; nothing to report", file=sys.stderr)
        for failure in failures[:10]:
            print(f"{failure[0]}: {failure[2]}", file=sys.stderr)
        return 1

    attempted, failed = len(results), len(failures)
    plain = [r for r in m["reps"] if not r["traced"]]
    uses_seed = any(r.get("uses_seed") for r in m["reps"])
    context = machine_context()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": uses_seed,
        "size": args.size,
        "trace": args.trace,
        "context": context,
        "inputs": m["reps"][0].get("inputs"),
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "samples": {
            "setup_s": m["setup"],
            "verdict_s": [r["verdict_s"] for r in plain if r["completed"]],
            "traced_verdict_s": [
                r["verdict_s"] for r in m["reps"] if r["traced"] and r["completed"]
            ],
            "cpu_s": [r["cpu_s"] for r in plain if r["completed"]],
            "peak_rss_mib": [r["peak_rss_mib"] for r in plain if r["completed"]],
        },
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(report, fh, indent=1)

    for failure in failures[:10]:
        print(f"FAILED {failure[0]}: {str(failure[2])[:500]}", file=sys.stderr)
    print(f"machine: {json.dumps(context)}")
    if not uses_seed:
        print(f"seed {args.seed} ignored: {args.workload} has no free choice of inputs")
    print(f"repetitions: {len(m['reps'])}, set-up samples: {len(m['setup'])}")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {unit_of(k)}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
