"""End-to-end benchmark of the boxcert command-line tool.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. Every operation is a sequence of
fresh ``python -m boxcert.cli`` child processes, one at a time and with the
default ``--threads``: each real CLI call starts cold (mixvol's caches are
per process) and pays the interpreter import, so an in-process repeat would
time the wrong thing. Operations repeat until the next one would overrun
``--seconds``; every output is checked with exact arithmetic of the
benchmark's own (checks.py).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each
operation untraced and under tracer.py, and reports the per-layer
metrics derived from the spans plus the tracing overhead. The last stdout
line is the result; the line before it is a report with sample counts,
run context and deterministic counters. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from pathlib import Path
from typing import Callable, Optional

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACER = ROOT / "perfbench" / "tracer.py"

RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 11

END_TO_END = {"job_s": "s", "op_s": "s", "setup_s": "s", "out_kb": "kB", "peak_rss_mb": "MB"}
TRACE_METRICS = {"trace.op_s": "s", "trace.untraced_op_s": "s", "trace.overhead_ratio": "ratio"}

SHEPHARD_N, SHEPHARD_M = 12, 13

# Counts that must repeat exactly at this commit; a mismatch is reported,
# not failed, since an optimisation may change them on purpose.
REFERENCE = {
    "pipeline": {
        "construct.mixvol.mixed_volume.calls": 19201,
        "construct.mixvol.mixed_volume.distinct": 1456,
        "construct.mixvol.mixed_volume_via_derivatives.calls": 19110,
        "construct.mixvol.mixed_volume_via_derivatives.distinct": 1378,
        "construct.hypmat.shrink_with_witness.size_out": 145,
        "construct.hypmat.core_size": 3,
        "verify.mixvol.mixed_volume_via_derivatives.calls": 19110,
        "verify.mixvol.mixed_volume_via_derivatives.distinct": 1378,
        "verify.diffop.derivative_along.calls": 11024,
        "out_bytes": 681439,
    },
    "shephard": {
        "shephard.mixvol.mixed_volume.calls": 91,
        "shephard.mixvol.mixed_volume.distinct": 91,
        "shephard.fedotov.shephard_verify.minors": 8191,
    },
    "hodge": {"hodge.diffop.hr_form.calls": 15918},
}


@dataclass
class Job:
    """One finished CLI child process."""

    name: str
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float
    spans: Optional[dict] = None


@dataclass
class Op:
    """One operation of a workload: its jobs, output size and verdict."""

    jobs: list[Job] = field(default_factory=list)
    out_bytes: int = 0
    failure: Optional[str] = None

    @property
    def wall_s(self) -> float:
        return sum(job.wall_s for job in self.jobs)

    def add(self, job: Job) -> Job:
        self.jobs.append(job)
        if job.returncode != 0 and self.failure is None:
            self.failure = f"{job.name} exited {job.returncode}: {job.stderr[-300:]!r}"
        return job

    def check(self, check: Callable[..., Optional[str]], *args) -> None:
        if self.failure is None:
            self.failure = checks.verdict(check, *args)


class Runner:
    """Starts CLI jobs in the work directory, traced or not."""

    def __init__(self, work: Path, deadline: float, traced: bool):
        self.work = work
        self.deadline = deadline
        self.traced = traced
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def __call__(self, name: str, args: list[str]) -> Job:
        spans = self.work / "spans.json"
        if self.traced:
            argv = [sys.executable, str(TRACER), str(spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "boxcert.cli", *args]
        job = spawn(name, argv, self.work, self.env, self.deadline)
        if self.traced and spans.exists():
            try:
                job.spans = json.loads(spans.read_text(encoding="utf-8"))
            except ValueError:  # a killed job leaves a partial file; its exit status fails the op
                pass
            spans.unlink()
        return job


def spawn(name: str, argv: list[str], cwd: Path, env: dict, deadline: float) -> Job:
    """Run a child to completion (killed at ``deadline``) and read its rusage."""
    out_path, err_path = cwd / "stdout", cwd / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(
        name,
        wall,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        usage.ru_maxrss / 1024,
    )


# --- workloads -----------------------------------------------------------


def pipeline_op(run: Runner, work: Path, inputs: dict) -> Op:
    op = Op()
    cert = work / "F.json"
    cert.unlink(missing_ok=True)
    n, k = str(inputs["n"]), str(inputs["k"])
    built = op.add(run("construct", ["fedotov", "construct", "--n", n, "--k", k, "--output", str(cert)]))
    if built.returncode != 0:
        return op
    if "independent verification: ok" not in built.stdout or not cert.exists():
        op.failure = f"construct did not write a verified certificate: {built.stdout[-300:]!r}"
        return op
    text = cert.read_text(encoding="utf-8")
    op.out_bytes = len(text.encode())
    op.check(checks.check_certificate, text, inputs["n"], inputs["k"])
    verified = op.add(run("verify", ["fedotov", "verify", str(cert), "--format", "json"]))
    op.check(lambda: None if json.loads(verified.stdout)["ok"] is True else "verify reports not ok")
    return op


def shephard_prepare(seed: int, work: Path) -> dict:
    """One k = 1 instance: n = 12, m = 13 boxes, widths p/q, q <= 4."""
    rng = random.Random(f"perfbench:shephard:{seed}")

    def box() -> list[Fraction]:
        return [Fraction(rng.randint(1, 16), rng.randint(1, 4)) for _ in range(SHEPHARD_N)]

    bodies = [box() for _ in range(SHEPHARD_M)]
    c_bodies = [box() for _ in range(SHEPHARD_N - 2)]
    path = work / "G.json"
    path.write_text(
        json.dumps(
            {
                "n": SHEPHARD_N,
                "bodies": [{"widths": [str(w) for w in b]} for b in bodies],
                "c_bodies": [{"widths": [str(w) for w in c]} for c in c_bodies],
            }
        ),
        encoding="utf-8",
    )
    return {"path": str(path), "bodies": bodies, "c_bodies": c_bodies}


def shephard_op(run: Runner, work: Path, inputs: dict) -> Op:
    op = Op()
    job = op.add(run("shephard", ["shephard", "--file", inputs["path"], "--format", "json"]))
    op.out_bytes = len(job.stdout.encode())
    op.check(checks.check_shephard, job.stdout, inputs["bodies"], inputs["c_bodies"])
    return op


def hodge_op(run: Runner, work: Path, inputs: dict) -> Op:
    op = Op()
    n, k = str(inputs["n"]), str(inputs["k"])
    job = op.add(run("hodge", ["hodge", "primitive", "--n", n, "--k", k, "--format", "json"]))
    op.out_bytes = len(job.stdout.encode())
    op.check(checks.check_hodge, job.stdout, inputs["n"], inputs["k"])
    return op


WORKLOADS = {
    "pipeline": (lambda seed, work: {"n": 8, "k": 4}, pipeline_op),
    "shephard": (shephard_prepare, shephard_op),
    "hodge": (lambda seed, work: {"n": 9, "k": 4}, hodge_op),
}


# --- measurement ---------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles, count, and the highest percentile with >= 10 beyond it."""
    ordered = sorted(values)
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for p in (99.9, 99, 90, 50):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = ordered[ceil(p / 100 * len(values)) - 1]
            break
    return out


def measure_setup(prepare, seed: int, work: Path, env: dict) -> tuple[list[float], dict]:
    """Fresh interpreters importing boxcert.cli, each after input generation."""
    times = []
    inputs: dict = {}
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = prepare(seed, work)
        done = subprocess.run(
            [sys.executable, "-c", "import boxcert.cli"],
            cwd=work,
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=60,
        )
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"import boxcert.cli failed: {done.stderr.decode()[-500:]}")
    return times, inputs


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "boxcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def op_counters(op: Op) -> dict:
    """Deterministic counts of one operation, keyed job.metric."""
    counters = {"out_bytes": op.out_bytes}
    for job in op.jobs:
        if job.spans is not None:
            layer = tracer.layer_metrics([job.spans])
            for metric, (unit, _) in tracer.LAYER_METRICS.items():
                if unit == "count":
                    counters[f"{job.name}.{metric}"] = layer[metric]
    return counters


def compare_snapshot(workload: str, digest: str, counters: dict) -> list[str]:
    """Flag counts that differ from an earlier run of the same source."""
    path = WORK / "counters" / f"{workload}.json"
    snapshot = {}
    if path.exists():
        saved = json.loads(path.read_text(encoding="utf-8"))
        if saved.get("source_sha256") == digest:
            snapshot = saved["counters"]
    drift = [
        f"{key}: {snapshot[key]} earlier, {value} now"
        for key, value in counters.items()
        if key in snapshot and snapshot[key] != value
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source_sha256": digest, "counters": {**counters, **snapshot}}), encoding="utf-8")
    return drift


def counter_report(workload: str, digest: str, ops: list[Op]) -> dict:
    """The run's counters, drift within it and since the last run, reference mismatches."""
    merged: dict = {}
    drift = []
    for op in ops:
        for key, value in op_counters(op).items():
            if merged.setdefault(key, value) != value:
                drift.append(f"{key}: {merged[key]} and {value} within one run")
    drift += compare_snapshot(workload, digest, merged)
    for line in drift:
        print(f"WARNING counter drift: {line}", file=sys.stderr)
    reference = {
        key: {"expected": value, "got": merged[key]}
        for key, value in REFERENCE[workload].items()
        if key in merged and merged[key] != value
    }
    return {"counters": merged, "counter_drift": drift, "reference_mismatch": reference}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    begin = time.perf_counter()
    prepare, operation = WORKLOADS[workload]
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "loadavg_before": os.getloadavg(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        plain = Runner(work, begin + RUN_LIMIT_S, traced=False)
        traced = Runner(work, begin + RUN_LIMIT_S, traced=True)
        setup, inputs = measure_setup(prepare, seed, work, plain.env)
        units: list[tuple[Op, Optional[Op]]] = []
        unit_s: list[float] = []
        start = time.perf_counter()
        while True:
            unit_start = time.perf_counter()
            if not trace:
                units.append((operation(plain, work, inputs), None))
            elif (seed + len(units)) % 2:  # alternate the order, so it cannot bias the overhead
                traced_op = operation(traced, work, inputs)
                units.append((operation(plain, work, inputs), traced_op))
            else:
                plain_op = operation(plain, work, inputs)
                units.append((plain_op, operation(traced, work, inputs)))
            now = time.perf_counter()
            unit_s.append(now - unit_start)
            print(f"op {len(units)}: {now - unit_start:.2f}s", file=sys.stderr)
            next_end = now + statistics.median(unit_s)
            if next_end - start > seconds or next_end - begin > RUN_LIMIT_S - 5:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for unit in units for op in unit if op is not None]
    failures = [op.failure for op in ops if op.failure]
    counters = counter_report(workload, context["source_sha256"], ops)
    plain_ops = [untraced for untraced, _ in units]
    samples = {
        "job_s": [op.jobs[0].wall_s for op in plain_ops],
        "op_s": [op.wall_s for op in plain_ops],
        "setup_s": setup,
    }
    jobs: dict = {}
    for op in plain_ops:
        for job in op.jobs:
            jobs.setdefault(f"{job.name}_s", []).append(job.wall_s)
    if trace:
        traced_ops = [t for _, t in units]
        layers = [tracer.layer_metrics([job.spans for job in op.jobs if job.spans]) for op in traced_ops]
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in tracer.LAYER_METRICS}
        metrics["trace.op_s"] = statistics.median(op.wall_s for op in traced_ops)
        metrics["trace.untraced_op_s"] = statistics.median(samples["op_s"])
        metrics["trace.overhead_ratio"] = statistics.median(t.wall_s / p.wall_s for p, t in units)
        units_of = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()} | TRACE_METRICS
    else:
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        metrics["out_kb"] = statistics.median(op.out_bytes for op in plain_ops) / 1000
        metrics["peak_rss_mb"] = max(job.maxrss_mb for op in plain_ops for job in op.jobs)
        units_of = END_TO_END
    context["loadavg_after"] = os.getloadavg()
    report = {
        "context": context,
        "samples": {name: summary(values) for name, values in {**samples, **jobs}.items()},
        "fail_frac": len(failures) / len(ops),
        "failures": failures,
        **counters,
        "elapsed_s": time.perf_counter() - begin,
    }
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }
    return {"report": report, "result": result}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "boxcert" / "cli.py").is_file():
        print(f"no boxcert sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": outcome["report"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
