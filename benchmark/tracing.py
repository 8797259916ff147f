"""Spans around calls into noisemech's public functions, recorded from outside.

`Tracer.install` wraps every public function of every noisemech module and
puts the wrapper in each namespace that holds the original, including names
bound by `from ... import` (for example `optimize.joint_count_distribution`
and `mechanism.sensitivity_exact`), so calls made inside the program are
counted too. No source file changes. Spans are kept in memory and written
when the run ends; a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

_PACKAGE = "noisemech"


def _size(args, kwargs, result):
    return {"points": int(getattr(args[0], "size", 0))}


def _joint_key(args, kwargs, result):
    return {"n": int(args[0]), "delta": float(args[1])}


def _samples(args, kwargs, result):
    return {"samples": int(args[2] if len(args) > 2 else kwargs["samples"])}


def _rows(args, kwargs, result):
    return {"rows": len(result.rows)}


def _rules(args, kwargs, result):
    n = args[0].n
    scope = args[2] if len(args) > 2 else kwargs.get("scope", "all-boolean")
    return {"rules": 1 << (1 << n) if scope == "all-boolean" else 1 << (n + 1)}


# span name -> what to record from its arguments and result
_DETAILS = {
    "hypercube.walsh": _size,
    "noise.joint_count_distribution": _joint_key,
    "noise.sensitivity_monte_carlo": _samples,
    "mechanism.check_constraints": _rows,
    "optimize.ns_min_bruteforce": _rules,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job, details]
        self.job = -1
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))]
        wrappers = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{mod.__name__.rsplit('.', 1)[-1]}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in self._restore:
            setattr(mod, name, obj)
        self._restore.clear()

    def _wrap(self, span_name, fn):
        detail = _DETAILS.get(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [span_name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if detail is not None:
                span[5] = detail(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, job, details in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                      "job": job, **(details or {})}) + "\n")

    def layer_metrics(self, jobs: int, bytes_written: int, import_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts and times are per completed timed job."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        sums = defaultdict(float)
        keys = set()
        for i, (name, start, end, _, _, details) in enumerate(self.spans):
            module = name.split(".", 1)[0]
            own = end - start - child[i]
            for key in (name, module):
                calls[key] += 1
                self_s[key] += own
            total_s[name] += end - start
            for field, value in (details or {}).items():
                sums[f"{name}.{field}"] += value
            if name == "noise.joint_count_distribution":
                keys.add((details["n"], details["delta"]))
                sums[f"{name}.cells"] += (details["n"] + 1) ** 2
        per_job = 1.0 / max(jobs, 1)
        builds = calls["noise.joint_count_distribution"]
        mc = "noise.sensitivity_monte_carlo"
        return {
            "hypercube.walsh.calls": (calls["hypercube.walsh"] * per_job, "count"),
            "hypercube.walsh.points": (sums["hypercube.walsh.points"] * per_job, "count"),
            "hypercube.walsh.self_s": (self_s["hypercube.walsh"] * per_job, "s"),
            "hypercube.binomial_weights.self_s": (self_s["hypercube.binomial_weights"] * per_job, "s"),
            "gaussian.calls": (calls["gaussian"] * per_job, "count"),
            "gaussian.self_s": (self_s["gaussian"] * per_job, "s"),
            "noise.joint_count_distribution.calls": (builds * per_job, "count"),
            "noise.joint_count_distribution.cells": (sums["noise.joint_count_distribution.cells"] * per_job, "count"),
            "noise.joint_count_distribution.self_s": (self_s["noise.joint_count_distribution"] * per_job, "s"),
            "noise.joint_reuse_ratio": (len(keys) / builds if builds else 0.0, "ratio"),
            "noise.stability_exact.self_s": (self_s["noise.stability_exact"] * per_job, "s"),
            f"{mc}.self_s": (self_s[mc] * per_job, "s"),
            f"{mc}.samples_per_s": (sums[f"{mc}.samples"] / total_s[mc] if total_s[mc] else 0.0, "1/s"),
            "mechanism.self_s": (self_s["mechanism"] * per_job, "s"),
            "mechanism.check_constraints.rows": (sums["mechanism.check_constraints.rows"] * per_job, "count"),
            "optimize.threshold_table.calls": (calls["optimize.threshold_table"] * per_job, "count"),
            "optimize.threshold_ns_table.calls": (calls["optimize.threshold_ns_table"] * per_job, "count"),
            "optimize.ns_min_bruteforce.rules": (sums["optimize.ns_min_bruteforce.rules"] * per_job, "count"),
            "optimize.ns_min_bruteforce.self_s": (self_s["optimize.ns_min_bruteforce"] * per_job, "s"),
            "optimize.self_s": (self_s["optimize"] * per_job, "s"),
            "cli.main.calls": (calls["cli.main"] * per_job, "count"),
            "cli.self_s": (self_s["cli"] * per_job, "s"),
            "cli.bytes_written": (bytes_written * per_job, "bytes"),
            "cli.import_s": (import_s, "s"),
        }
