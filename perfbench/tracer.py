"""Spans around boxcert's public functions, recorded from outside the program.

As a script it runs one CLI job in this interpreter with every function in
``TRACED`` wrapped, and writes the spans to a JSON file when the job ends:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- fedotov verify F.json

The exit status is the CLI's. As a module it turns span files into the
per-layer metrics (``layer_metrics``).

A span is [name, start, end, parent span, attribute]. Callers bind names at
import (``from .exactlin import det``), so each wrapper replaces every
binding of the original in every boxcert module, the defining module's own
namespace included (``contract`` looks ``derivative_along`` up there).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from functools import wraps

TRACED = {
    "boxcert.boxes": ("minkowski_combine",),
    "boxcert.exactlin": ("det", "principal_submatrix", "inertia", "rref"),
    "boxcert.diffop": (
        "derivative_along",
        "hr_form",
        "pairing_matrix",
        "primitive_space_basis",
        "express_as_powers",
    ),
    "boxcert.mixvol": ("mixed_volume", "mixed_volume_via_derivatives"),
    "boxcert.hypmat": (
        "find_violation",
        "shrink_with_witness",
        "greedy_core",
        "_keeps_two_positive",
        "is_hyperbolic",
        "sylvester_violation",
    ),
    "boxcert.fedotov": (
        "build_matrix",
        "pipeline_base_k2",
        "reduce_to_general_k",
        "verify_certificate",
        "certificate_to_json",
        "load_certificate",
        "shephard_verify",
    ),
}


def _body_tuple_key():
    """Id of a BodyTuple's multiset of width rows (the mixvol cache key).

    Widths tuples are numbered by object identity first, and by value only
    the first time an object is seen, so the common call costs a few integer
    lookups instead of hashing Fractions. Each seen tuple is kept alive so
    its identity cannot be reused.
    """
    by_value: dict = {}
    by_object: dict = {}
    keys: dict = {}

    def widths_id(widths) -> int:
        seen = by_object.get(id(widths))
        if seen is None:
            seen = by_object[id(widths)] = (widths, by_value.setdefault(widths, len(by_value)))
        return seen[1]

    def attribute(args, result):
        rows: dict = {}
        for box, mult in args[0].entries:
            w = widths_id(box.widths)
            rows[w] = rows.get(w, 0) + mult
        return keys.setdefault(tuple(sorted(rows.items())), len(keys))

    return attribute


def _attributes() -> dict:
    key = _body_tuple_key()
    return {
        "mixvol.mixed_volume": key,
        "mixvol.mixed_volume_via_derivatives": key,
        "fedotov.build_matrix": lambda args, r: r.m * (r.m + 1) // 2,
        "fedotov.shephard_verify": lambda args, r: r.subsets_checked,
        "hypmat.shrink_with_witness": lambda args, r: len(r),
        "hypmat.greedy_core": lambda args, r: len(r),
        "hypmat._keeps_two_positive": lambda args, r: int(r),
        "exactlin.inertia": lambda args, r: args[0].rows,
    }


class Recorder:
    """Spans of one job, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []

    def call(self, name_id: int, attribute, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = [name_id, start, end, parent, None]
        if attribute is not None:
            self.spans[index][4] = attribute(args, result)
        return result

    def wrap(self, name: str, fn, attribute=None):
        name_id = len(self.names)
        self.names.append(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name_id, attribute, fn, args, kwargs)

        return traced

    def install(self) -> None:
        attributes = _attributes()
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "boxcert"]
        for module_name, functions in TRACED.items():
            short = module_name.rsplit(".", 1)[1]
            for fn_name in functions:
                original = getattr(sys.modules[module_name], fn_name)
                name = f"{short}.{fn_name}"
                wrapper = self.wrap(name, original, attributes.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "names": self.names, "spans": self.spans}, handle)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS.json -- CLI-ARGS...\n")
        return 2
    start = time.perf_counter()
    import boxcert.cli as cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    recorder.install()
    try:
        return recorder.wrap("cli.main", cli.main)(argv[2:])
    finally:
        recorder.dump(argv[0], import_s)


# Per-layer metrics: name -> (unit, better). Values are per operation,
# summed over the operation's CLI jobs.
LAYER_METRICS = {
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "fedotov.build_matrix.s": ("s", "lower"),
    "fedotov.build_matrix.self_s": ("s", "lower"),
    "fedotov.build_matrix.entries": ("count", "lower"),
    "fedotov.pipeline_base_k2.s": ("s", "lower"),
    "fedotov.reduce_to_general_k.self_s": ("s", "lower"),
    "fedotov.verify_certificate.s": ("s", "lower"),
    "fedotov.verify_certificate.self_s": ("s", "lower"),
    "fedotov.certificate_to_json.s": ("s", "lower"),
    "fedotov.load_certificate.s": ("s", "lower"),
    "fedotov.shephard_verify.s": ("s", "lower"),
    "fedotov.shephard_verify.self_s": ("s", "lower"),
    "fedotov.shephard_verify.minors": ("count", "lower"),
    "mixvol.mixed_volume.calls": ("count", "lower"),
    "mixvol.mixed_volume.distinct": ("count", "lower"),
    "mixvol.mixed_volume.distinct_ratio": ("ratio", "higher"),
    "mixvol.mixed_volume.s": ("s", "lower"),
    "mixvol.mixed_volume_via_derivatives.calls": ("count", "lower"),
    "mixvol.mixed_volume_via_derivatives.distinct": ("count", "lower"),
    "mixvol.mixed_volume_via_derivatives.s": ("s", "lower"),
    "diffop.derivative_along.calls": ("count", "lower"),
    "diffop.derivative_along.s": ("s", "lower"),
    "diffop.hr_form.calls": ("count", "lower"),
    "diffop.hr_form.s": ("s", "lower"),
    "diffop.pairing_matrix.s": ("s", "lower"),
    "diffop.primitive_space_basis.s": ("s", "lower"),
    "diffop.express_as_powers.s": ("s", "lower"),
    "hypmat.find_violation.s": ("s", "lower"),
    "hypmat.shrink_with_witness.s": ("s", "lower"),
    "hypmat.shrink_with_witness.size_out": ("count", "lower"),
    "hypmat.greedy_core.s": ("s", "lower"),
    "hypmat.greedy_core.inertia_calls": ("count", "lower"),
    "hypmat.greedy_core.accept_ratio": ("ratio", "higher"),
    "hypmat.core_size": ("count", "lower"),
    "hypmat.is_hyperbolic.s": ("s", "lower"),
    "hypmat.sylvester_violation.s": ("s", "lower"),
    "exactlin.det.calls": ("count", "lower"),
    "exactlin.det.s": ("s", "lower"),
    "exactlin.principal_submatrix.calls": ("count", "lower"),
    "exactlin.principal_submatrix.s": ("s", "lower"),
    "exactlin.inertia.calls": ("count", "lower"),
    "exactlin.inertia.s": ("s", "lower"),
    "exactlin.inertia.max_dim": ("count", "lower"),
    "exactlin.rref.calls": ("count", "lower"),
    "exactlin.rref.s": ("s", "lower"),
    "boxes.minkowski_combine.calls": ("count", "lower"),
    "boxes.minkowski_combine.s": ("s", "lower"),
}


def job_totals(doc: dict) -> dict:
    """Calls, busy and self time, attributes and derived counts of one job."""
    names = doc["names"]
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict = defaultdict(int)
    busy: dict = defaultdict(float)
    own: dict = defaultdict(float)
    attrs: dict = defaultdict(list)
    core_inertia = 0
    greedy = names.index("hypmat.greedy_core")
    inertia = names.index("exactlin.inertia")
    for index, (name_id, start, end, parent, attr) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        busy[name] += end - start
        own[name] += end - start - covered[index]
        if attr is not None:
            attrs[name].append(attr)
        if name_id == inertia:
            while parent >= 0 and spans[parent][0] != greedy:
                parent = spans[parent][3]
            core_inertia += parent >= 0
    return {
        "calls": calls,
        "busy": busy,
        "self": own,
        "attrs": attrs,
        "import_s": doc["import_s"],
        "greedy_core_inertia": core_inertia,
    }


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one operation from the span files of its jobs."""
    jobs = [job_totals(doc) for doc in docs]

    def total(field, name):
        return sum(job[field].get(name, 0) for job in jobs)

    def attrs(name):
        return [a for job in jobs for a in job["attrs"].get(name, ())]

    def distinct(name):
        return sum(len(set(job["attrs"].get(name, ()))) for job in jobs)

    out: dict[str, float] = {
        "cli.import_s": sum(job["import_s"] for job in jobs),
        "cli.main.self_s": total("self", "cli.main"),
        "fedotov.build_matrix.entries": sum(attrs("fedotov.build_matrix")),
        "fedotov.shephard_verify.minors": sum(attrs("fedotov.shephard_verify")),
        "mixvol.mixed_volume.distinct": distinct("mixvol.mixed_volume"),
        "mixvol.mixed_volume_via_derivatives.distinct": distinct(
            "mixvol.mixed_volume_via_derivatives"
        ),
        "hypmat.shrink_with_witness.size_out": max(attrs("hypmat.shrink_with_witness"), default=0),
        "hypmat.core_size": max(attrs("hypmat.greedy_core"), default=0),
        "hypmat.greedy_core.inertia_calls": sum(job["greedy_core_inertia"] for job in jobs),
        "exactlin.inertia.max_dim": max(attrs("exactlin.inertia"), default=0),
    }
    calls = total("calls", "mixvol.mixed_volume")
    out["mixvol.mixed_volume.distinct_ratio"] = (
        out["mixvol.mixed_volume.distinct"] / calls if calls else 0.0
    )
    tries = attrs("hypmat._keeps_two_positive")
    out["hypmat.greedy_core.accept_ratio"] = sum(tries) / len(tries) if tries else 0.0
    fields = {"calls": "calls", "s": "busy", "self_s": "self"}
    for metric in LAYER_METRICS:
        if metric not in out:
            name, field = metric.rsplit(".", 1)
            out[metric] = total(fields[field], name)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
