"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs one timed call into
overmex, and turns what came back into observations: series digests and
report fields that are compared with the reference recorded in
``reference.json``.  Importing this module imports overmex, so the caller
puts ``src/`` on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from math import comb

from overmex import cli, combinat, qfactory, verify
from overmex.qfactory import MexVariant

VARIANTS = (MexVariant.NON_OVERLINED, MexVariant.OVERLINED, MexVariant.ALL)

# "full" is what the benchmark measures; "tiny" keeps the same code paths
# at sizes the benchmark's own tests can afford.
SIZES = {
    "full": {
        "verify_default": ["verify"],
        "series_deep": 2000,
        "parity_deep": 40000,
        "oracle_deep": 25,
    },
    "tiny": {
        "verify_default": ["verify", "--order", "800", "--max-n", "6"],
        "series_deep": 60,
        "parity_deep": 400,
        "oracle_deep": 8,
    },
}

# Report fields that do not depend on the machine or the run.
REPORT_FIELDS = ("check_name", "status", "range_checked", "first_failure")


def digest(s, order: int) -> str:
    """sha256 of the coefficients of q^0 .. q^order as decimal text."""
    coeffs = s.coeffs
    if len(coeffs) != order + 1:
        return f"wrong length {len(coeffs)}"
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


def mex_values(order: int) -> list:
    """Every m that can be a mex at this order: (m choose 2) <= order."""
    m = 1
    while comb(m + 1, 2) <= order:
        m += 1
    return list(range(1, m + 1))


def report_observation(d: dict) -> dict:
    return {k: d[k] for k in REPORT_FIELDS if k in d} | {"metrics": d.get("metrics", {})}


def same_report(expected: dict, got: dict) -> bool:
    """Deterministic fields must be equal; each reference metric must be
    present and equal, floats to 1e-9 relative.  Fields and metrics the
    reference does not have (timings, say) are not compared."""
    if any(expected.get(k) != got.get(k) for k in REPORT_FIELDS):
        return False
    got_metrics = got.get("metrics", {})
    for key, value in expected.get("metrics", {}).items():
        if key not in got_metrics:
            return False
        other = got_metrics[key]
        if isinstance(value, float) and isinstance(other, (int, float)):
            if not math.isclose(value, other, rel_tol=1e-9, abs_tol=1e-300):
                return False
        elif value != other:
            return False
    return True


class Workload:
    """inputs() makes the inputs from the seed, prepare() sets up untimed
    state, run() is the timed call, finish() undoes prepare(), observe()
    turns the outputs into values comparable with the reference."""

    uses_seed = False

    def prepare(self, inputs):
        return None

    def finish(self, state) -> None:
        pass

    def expected_keys(self, inputs, reference) -> list:
        return list(reference)


class VerifyDefault(Workload):
    """`overmex verify` with default arguments, through cli.main."""

    def inputs(self, seed: int, size: str) -> dict:
        return {"argv": SIZES[size]["verify_default"]}

    def run(self, inputs, state):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(inputs["argv"]))
        return code, out.getvalue()

    def observe(self, inputs, state, outputs) -> dict:
        code, text = outputs
        observed = {"exit_code": code}
        for line in text.splitlines():
            d = json.loads(line)
            observed[f"report:{d['check_name']}"] = report_observation(d)
        return observed


class SeriesDeep(Workload):
    """The three sigma-mex series and three per-m count series per variant,
    one m from each third of the feasible range, picked by the seed."""

    uses_seed = True

    def inputs(self, seed: int, size: str) -> dict:
        order = SIZES[size]["series_deep"]
        feasible = mex_values(order)
        k = len(feasible)
        thirds = [feasible[: k // 3], feasible[k // 3: 2 * k // 3], feasible[2 * k // 3:]]
        rng = random.Random(seed)
        m = {v.value: [rng.choice(third) for third in thirds] for v in VARIANTS}
        return {"order": order, "m": m}

    def run(self, inputs, state):
        order = inputs["order"]
        out = {}
        for v in VARIANTS:
            out[f"sigma:{v.value}"] = qfactory.sigma_mex_gf(v, order)
        for v in VARIANTS:
            for m in inputs["m"][v.value]:
                out[f"count:{v.value}:{m}"] = qfactory.mex_count_gf(v, m, order)
        return out

    def observe(self, inputs, state, outputs) -> dict:
        return {key: digest(s, inputs["order"]) for key, s in outputs.items()}

    def expected_keys(self, inputs, reference) -> list:
        keys = [f"sigma:{v.value}" for v in VARIANTS]
        for v in VARIANTS:
            keys += [f"count:{v.value}:{m}" for m in inputs["m"][v.value]]
        return keys

    def all_keys_inputs(self, size: str) -> dict:
        """Inputs that cover every feasible m, for recording the reference."""
        order = SIZES[size]["series_deep"]
        return {"order": order, "m": {v.value: mex_values(order) for v in VARIANTS}}


class ParityDeep(Workload):
    """The three GF(2) parity checks at a large n."""

    def inputs(self, seed: int, size: str) -> dict:
        return {"n_max": SIZES[size]["parity_deep"]}

    def run(self, inputs, state):
        n = inputs["n_max"]
        return [
            verify.check_parity_all_even(n),
            verify.check_parity_density(n),
            verify.check_triangular_parity(n),
        ]

    def observe(self, inputs, state, outputs) -> dict:
        return {f"report:{r.check_name}": report_observation(r.to_dict()) for r in outputs}


class OracleDeep(Workload):
    """check_gf_vs_oracle for all three variants: sigma and per-m counts
    against exhaustive enumeration."""

    def inputs(self, seed: int, size: str) -> dict:
        return {"n_max": SIZES[size]["oracle_deep"]}

    def prepare(self, inputs):
        """Record the oracle values the checks compute, by wrapping
        combinat.sigma_mex_oracle; undone by finish()."""
        captured = {}
        original = combinat.sigma_mex_oracle

        def capture(n, variant, *args, **kwargs):
            value = original(n, variant, *args, **kwargs)
            captured[(variant.value, n)] = value
            return value

        combinat.sigma_mex_oracle = capture
        return {"captured": captured, "original": original}

    def finish(self, state) -> None:
        combinat.sigma_mex_oracle = state["original"]

    def run(self, inputs, state):
        return [verify.check_gf_vs_oracle(v, inputs["n_max"]) for v in VARIANTS]

    def observe(self, inputs, state, outputs) -> dict:
        n_max = inputs["n_max"]
        captured = state["captured"]
        oracle = state["original"]
        observed = {f"report:{r.check_name}": report_observation(r.to_dict()) for r in outputs}
        for v in VARIANTS:
            # Values the checks did not ask for are computed here, untimed.
            values = [
                captured[(v.value, n)] if (v.value, n) in captured else oracle(n, v)
                for n in range(n_max + 1)
            ]
            observed[f"oracle:{v.value}"] = hashlib.sha256(
                ",".join(map(str, values)).encode()
            ).hexdigest()
            observed[f"sigma:{v.value}"] = digest(qfactory.sigma_mex_gf(v, n_max), n_max)
            for m in mex_values(n_max):
                observed[f"count:{v.value}:{m}"] = digest(
                    qfactory.mex_count_gf(v, m, n_max), n_max
                )
        return observed


WORKLOADS = {
    "verify_default": VerifyDefault(),
    "series_deep": SeriesDeep(),
    "parity_deep": ParityDeep(),
    "oracle_deep": OracleDeep(),
}


def judge(observed: dict, expected_keys, reference: dict) -> list:
    """One (key, ok, detail) per result: every expected key must be observed
    and match; an observed report with no reference must still PASS."""
    results = []
    for key in expected_keys:
        if key not in observed:
            results.append((key, False, "missing"))
        elif key not in reference:
            results.append((key, False, "no reference value"))
        else:
            want, got = reference[key], observed[key]
            ok = same_report(want, got) if key.startswith("report:") else want == got
            results.append((key, ok, "" if ok else f"expected {want!r}, got {got!r}"))
    for key in observed.keys() - set(expected_keys):
        if key.startswith("report:"):
            ok = observed[key].get("status") == verify.PASS
            results.append((key, ok, "" if ok else f"unreferenced report {observed[key]!r}"))
    return results
