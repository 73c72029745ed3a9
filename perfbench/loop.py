"""The closed loop a worker runs: jobs, timing, outcomes and tracing.

Imported by worker.py only after the library is on the path and imported.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

import anarchy
import numpy

from layers import TRACED, Layers, Tracer
from workloads import WORKLOADS, CheckFailed

# Jobs per second of SECONDS.  Fixed, not measured, so that a run's job count,
# and with it attempted, failed, calls and links, depends on the workload,
# SECONDS and the seed alone.  RATE is about what an untraced run did at the
# defining commit on a 2-vCPU x86-64 machine (Python 3.11), so a run lasts
# about SECONDS there.  A traced run runs each job twice, at half the rate.
RATE = {"analyze": 4.8, "solve": 18.0, "plateau": 5.8, "cli": 46.0}
TRACE_RATE = {"analyze": 2.5, "solve": 6.0, "plateau": 2.5, "cli": 20.0}


def job_count(rate: float, seconds: float) -> int:
    return max(4, round(rate * seconds))
ANARCHY_DIR = os.path.dirname(os.path.abspath(anarchy.__file__)) + os.sep


def raised_in(exc: BaseException, traced_name: str | None) -> str:
    """Traced function that raised: the outermost library frame in the traceback."""
    tb = exc.__traceback__
    while tb is not None:
        path = tb.tb_frame.f_code.co_filename
        if path.startswith(ANARCHY_DIR):
            module = os.path.splitext(os.path.basename(path))[0]
            if module == "cli" and traced_name:
                return traced_name
            name = f"{module}.{tb.tb_frame.f_code.co_name}"
            return name if name in TRACED else f"{name} (untraced)"
        tb = tb.tb_next
    return "benchmark"


class Outcomes:
    """Latency and fate of every attempted job in one pass."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.passed = 0
        self.raised: Counter = Counter()
        self.raised_examples: dict[str, str] = {}
        self.check_failures: list[str] = []

    def record(self, W, job: dict, seconds: float, out, exc) -> None:
        self.latencies_ms.append(seconds * 1e3)
        if exc is not None:
            traced = f"cli.{job['argv'][0]}" if "argv" in job else None
            key = f"{raised_in(exc, traced)}: {type(exc).__name__}"
            self.raised[key] += 1
            self.raised_examples.setdefault(key, str(exc)[:200])
            return
        try:
            W.check(job, out)
        except CheckFailed as fail:
            self.check_failures.append(f"job {job['kind']}: {fail}")
            return
        self.passed += 1

    def metrics(self, wall_s: float) -> dict:
        """End-to-end metrics; goodput is passed jobs over ``wall_s``."""
        lat = self.latencies_ms
        attempted = len(lat)
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if attempted > 1 else lat[0]
        return {
            "goodput_ops_s": {"value": self.passed / wall_s, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
            "error_rate": {"value": (attempted - self.passed) / attempted, "unit": "ratio"},
        }

    def summary(self) -> dict:
        return {
            "attempted": len(self.latencies_ms),
            "passed": self.passed,
            "raised": dict(sorted(self.raised.items())),
            "raised_examples": self.raised_examples,
            "check_failed": len(self.check_failures),
            "check_failures": self.check_failures[:5],
        }


def attempt(W, L, job: dict, tracer: Tracer | None = None, op_id: int = 0):
    if tracer is not None:
        tracer.begin_op(op_id, W.name, job["kind"])
    out = exc = None
    start = time.perf_counter()
    try:
        out = W.run(L, job)
    except Exception as err:  # every failure is counted, none is retried
        exc = err
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(exc is None)
    return seconds, out, exc


def make_job(W, i: int, digest) -> dict:
    job = W.make(i)
    digest.update(json.dumps(job, sort_keys=True).encode())
    if hasattr(W, "prepare"):
        job["argv"] = W.prepare(job)
    return job


def run_untraced(W, seconds: float) -> dict:
    """A fixed number of jobs back to back, about ``seconds`` of wall time.

    The wall time includes making, preparing and checking each job, so
    goodput is jobs passed per second of the whole run.
    """
    L = Layers()
    digest = hashlib.sha256()
    res = Outcomes()
    wall0 = time.perf_counter()
    for i in range(job_count(RATE[W.name], seconds)):
        job = make_job(W, i, digest)
        dt, out, exc = attempt(W, L, job)
        res.record(W, job, dt, out, exc)
    wall = time.perf_counter() - wall0
    return {
        "inputs_sha256": digest.hexdigest(),
        **res.summary(),
        "wall_s": wall,
        "metrics": res.metrics(wall),
    }


def run_traced(W, seconds: float, spans_path: str) -> dict:
    tracer = Tracer()
    traced, plain = Layers(tracer), Layers()
    digest = hashlib.sha256()
    on, off = Outcomes(), Outcomes()
    # Each side's wall time: its jobs and their checks; making a job is shared.
    wall = {True: 0.0, False: 0.0}
    for i in range(job_count(TRACE_RATE[W.name], seconds)):
        job = make_job(W, i, digest)
        order = ((traced, on), (plain, off)) if i % 2 else ((plain, off), (traced, on))
        for L, res in order:
            start = time.perf_counter()
            dt, out, exc = attempt(W, L, job, tracer if L is traced else None, i)
            res.record(W, job, dt, out, exc)
            wall[L is traced] += time.perf_counter() - start
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": W.name, "seed": W.seed, **tracer.dump()}, fh)
    m_on, m_off = on.metrics(wall[True]), off.metrics(wall[False])
    return {
        "inputs_sha256": digest.hexdigest(),
        **on.summary(),
        "untraced": off.summary(),
        "per_layer": tracer.metrics(),
        "waiting": "none: one client on one thread, no queues; busy time is self time",
        "tracing_overhead": {
            name: {"value": m_on[name]["value"] - m_off[name]["value"], "unit": m_on[name]["unit"]}
            for name in ("goodput_ops_s", "latency_p50_ms", "latency_p90_ms")
        },
        "spans_file": spans_path,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """One run of one workload; the result carries the worker's own peak memory."""
    W = WORKLOADS[workload](seed, workdir)
    if trace:
        result = run_traced(W, seconds, os.path.join(workdir, "spans.json"))
    else:
        result = run_untraced(W, seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    return result
