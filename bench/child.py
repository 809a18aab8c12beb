"""One cold repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition so that every repetition
begins with empty qfactory caches, as a user's invocation does.

    python3 -I bench/child.py setup
    python3 -I bench/child.py run WORKLOAD SEED SIZE TRACE SPANS_PATH

Both modes first import overmex from ``src/`` of the checkout and take a
CLOCK_MONOTONIC reading, which run.py subtracts from its own reading taken
before the process was started (set-up time).  The last line on stdout is
one JSON object.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)
import overmex  # noqa: E402

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def run(name: str, seed: int, size: str, trace: bool, spans_path: str) -> dict:
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    with open(os.path.join(ROOT, "bench", "reference.json")) as fh:
        reference = json.load(fh)[size][name]
    inputs = workload.inputs(seed, size)
    caches = tracing.lru_caches(overmex.qfactory)
    warm = [f.__name__ for f in caches if f.cache_info().currsize]

    state = workload.prepare(inputs)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install(overmex)
    error = None
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        outputs = workload.run(inputs, state)
    except Exception:  # a workload that raises is a failed result, not a crash
        error = traceback.format_exc()
    verdict_s = time.perf_counter() - start
    cpu_s = time.process_time() - start_cpu
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    workload.finish(state)

    results = [("cold_start", not warm, f"warm caches: {warm}" if warm else "")]
    if error is None:
        try:
            observed = workload.observe(inputs, state, outputs)
            expected = workload.expected_keys(inputs, reference)
            results += workloads.judge(observed, expected, reference)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        results.append(("workload", False, error))

    record = {
        "completed": error is None,
        "verdict_s": verdict_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "uses_seed": workload.uses_seed,
        "inputs": inputs,
        "results": results,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(caches)
        tracer.write_spans(spans_path)
        record["spans"] = len(tracer.spans)
    return record


def main(argv) -> int:
    if not overmex.__file__.startswith(SRC + os.sep):
        print(f"overmex imported from {overmex.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    record = {"imported_ns": IMPORTED_NS}
    if argv[0] == "run":
        name, seed, size, trace, spans_path = argv[1:6]
        record.update(run(name, int(seed), size, trace == "1", spans_path))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
