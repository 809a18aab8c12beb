"""Span tracer for traced benchmark runs.

The tracer measures overmex from outside: it replaces public functions by
wrappers through their module attributes, so calls made through module
globals (``series.mul`` inside qfactory, ``mul(...)`` inside
``Series.__mul__``) and through the ``lru_cache`` wrappers are all seen.
Nothing in ``src/`` is changed.  Spans (name, start, end, parent index) are
kept in memory and written out once the workload has finished.
"""

from __future__ import annotations

import json
import time
from functools import wraps

# Named q-series builders, reported one by one.
QFACTORY_BUILDERS = (
    "pochhammer",
    "overpartition_gf",
    "ramanujan_sigma",
    "phi11",
    "phi11_simplified",
    "overlined_mex_weighted_sum",
    "all_mex_raw_sum",
    "sigma_mex_gf",
    "mex_count_gf",
)

# verify function -> check name used in the metric.
VERIFY_CHECKS = {
    "check_gf_vs_oracle": "gf_vs_oracle",
    "check_euler_identity": "euler_identity",
    "check_identity_suite": "identity_suite",
    "check_parity_all_even": "parity_all_even",
    "check_parity_density": "parity_density",
    "check_triangular_parity": "triangular_parity",
    "asym_ratio_table": "asym_ratio",
    "check_sigma_taylor": "sigma_taylor",
    "check_ingham_scaling": "ingham_scaling",
}

# The checks that run on the GF(2) bitmask engine.
GF2_CHECKS = ("parity_all_even", "parity_density", "triangular_parity")


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [
        "series.mul.calls",
        "series.mul.self_s",
        "series.mul.coeff_products",
        "series.mul.out_kib",
        "series.invert.calls",
        "series.invert.self_s",
        "series.binomial.calls",
        "series.binomial.self_s",
        "series.evaluate_real.self_s",
    ]
    for builder in QFACTORY_BUILDERS:
        names += [f"qfactory.{builder}.{k}" for k in ("calls", "s", "self_s")]
    names += ["qfactory.cache.hits", "qfactory.cache.misses", "qfactory.cache.hit_ratio"]
    names += [
        "combinat.objects",
        "combinat.enumerate_calls",
        "combinat.distinct_n_ratio",
        "combinat.sigma_mex_oracle.s",
    ]
    for check in VERIFY_CHECKS.values():
        names += [f"verify.{check}.s", f"verify.{check}.self_s"]
    names += ["verify.gf2.self_s", "cli.self_s"]
    return names


def lru_caches(module) -> list:
    """The lru_cache-wrapped functions of a module (anything with cache_info)."""
    return [
        obj for obj in vars(module).values()
        if callable(obj) and hasattr(obj, "cache_info")
    ]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.mul_calls = []  # ((a, b), product) per series.mul call
        self.enumerate_n = []  # n of each enumerate_overpartitions call
        self.objects = 0  # overpartitions yielded by those calls
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _replace(self, module, attr, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def span(self, module, attr, name, keep=None) -> None:
        """Record a span around every call of module.attr (if it exists);
        keep, if given, collects (args, result) of each call."""
        original = getattr(module, attr, None)
        if original is None:
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if keep is not None:
                keep.append((args, result))
            return result

        self._replace(module, attr, traced)

    def count_enumeration(self, module, attr) -> None:
        """Count calls and yielded objects of a generator function."""
        original = getattr(module, attr, None)
        if original is None:
            return
        tracer = self

        @wraps(original)
        def counted(n, *args, **kwargs):
            tracer.enumerate_n.append(n)
            k = 0
            try:
                for k, item in enumerate(original(n, *args, **kwargs), 1):
                    yield item
            finally:
                tracer.objects += k

        self._replace(module, attr, counted)

    def install(self, overmex) -> None:
        """Wrap the public functions of every overmex layer."""
        series, qfactory = overmex.series, overmex.qfactory
        self.span(series, "mul", "series.mul", keep=self.mul_calls)
        self.span(series, "invert", "series.invert")
        self.span(series, "mul_binomial", "series.binomial")
        self.span(series, "div_binomial", "series.binomial")
        self.span(series, "evaluate_real", "series.evaluate_real")
        for builder in QFACTORY_BUILDERS:
            self.span(qfactory, builder, f"qfactory.{builder}")
        self.span(overmex.combinat, "sigma_mex_oracle", "combinat.sigma_mex_oracle")
        self.count_enumeration(overmex.combinat, "enumerate_overpartitions")
        for func, check in VERIFY_CHECKS.items():
            self.span(overmex.verify, func, f"verify.{check}")
        self.span(overmex.cli, "main", "cli")

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def metrics(self, caches) -> dict:
        """Per-layer metrics from the recorded spans and counters; caches
        are the original lru_cache functions, read through cache_info()."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, self_s = {}, {}, {}
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
            # Inclusive time counts only the outermost span of each name.
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] = total.get(name, 0.0) + duration

        products = 0
        out_bytes = 0
        for (a, b), product in self.mul_calls:
            products += _coeff_products(a.coeffs, b.coeffs)
            out_bytes += sum((abs(c).bit_length() + 7) // 8 for c in product.coeffs)

        out = {
            "series.mul.calls": calls.get("series.mul", 0),
            "series.mul.self_s": self_s.get("series.mul", 0.0),
            "series.mul.coeff_products": products,
            "series.mul.out_kib": out_bytes / 1024,
            "series.invert.calls": calls.get("series.invert", 0),
            "series.invert.self_s": self_s.get("series.invert", 0.0),
            "series.binomial.calls": calls.get("series.binomial", 0),
            "series.binomial.self_s": self_s.get("series.binomial", 0.0),
            "series.evaluate_real.self_s": self_s.get("series.evaluate_real", 0.0),
        }
        for builder in QFACTORY_BUILDERS:
            name = f"qfactory.{builder}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        hits = sum(f.cache_info().hits for f in caches)
        misses = sum(f.cache_info().misses for f in caches)
        out["qfactory.cache.hits"] = hits
        out["qfactory.cache.misses"] = misses
        out["qfactory.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        n_calls = len(self.enumerate_n)
        out["combinat.objects"] = self.objects
        out["combinat.enumerate_calls"] = n_calls
        out["combinat.distinct_n_ratio"] = (
            len(set(self.enumerate_n)) / n_calls if n_calls else 0.0
        )
        out["combinat.sigma_mex_oracle.s"] = total.get("combinat.sigma_mex_oracle", 0.0)
        for check in VERIFY_CHECKS.values():
            out[f"verify.{check}.s"] = total.get(f"verify.{check}", 0.0)
            out[f"verify.{check}.self_s"] = self_s.get(f"verify.{check}", 0.0)
        out["verify.gf2.self_s"] = sum(self_s.get(f"verify.{c}", 0.0) for c in GF2_CHECKS)
        out["cli.self_s"] = self_s.get("cli", 0.0)
        return out


def _coeff_products(a, b) -> int:
    """Nonzero coefficient products a truncated Cauchy product needs: the
    pairs (i, j) with a_i, b_j nonzero and i + j <= min order."""
    n = min(len(a), len(b)) - 1
    prefix = [0] * (n + 2)  # prefix[k] = nonzero b_j with j < k
    for j in range(n + 1):
        prefix[j + 1] = prefix[j] + (1 if b[j] else 0)
    return sum(prefix[n + 1 - i] for i in range(n + 1) if a[i])

