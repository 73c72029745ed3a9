"""Benchmark of the anarchy library: four seeded closed-loop workloads.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload analyze|solve|plateau|cli \
        --seed N --seconds S --trace 0|1

Each run starts fresh worker processes (worker.py) with the BLAS and OpenMP
thread pools pinned to one thread.  Set-up is timed in the parent, from
process start until the worker has imported ``anarchy``, over eleven fresh
processes: five before the run, the run's own worker and five after it, so
the samples span the run; the median is reported.  The run's worker runs a
fixed number of jobs, set by the workload and ``--seconds`` (see loop.RATE),
so that a seed's job count and failures repeat exactly; at the defining
commit's speed the run lasts about ``--seconds``.  One client, one thread,
each job timed from its start until a result or an error is in hand, and
every output checked outside the timed region.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run instead.  Everything measured,
including the error rate, the failure tally, the input digest, the tracing
overhead and the environment, is printed above it and written to
perfbench/out/<workload>-seed<N>-trace<T>/report.json.  See README.md for the
workloads and what each metric is expected to show.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("analyze", "solve", "plateau", "cli")
SETUP_PROBES = 5  # fresh processes timed on each side of the run
PROBE_TIMEOUT_S = 30.0
RUN_TIMEOUT_S = 150.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONHASHSEED"] = "0"
    for name in ("PYTHONPATH", "ANARCHY_TOL"):
        env.pop(name, None)
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; return it and the set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, ROOT, *args], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError("worker could not import anarchy from src/")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def measure_setup(samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        proc, setup = start_worker(["probe"])
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            stop(proc)
        times.append(setup)
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               workdir: str) -> tuple[dict, float]:
    proc, setup = start_worker(["run", workload, str(seed), repr(seconds),
                                "1" if trace else "0", workdir])
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {RUN_TIMEOUT_S} s") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setup


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int, versions: dict) -> dict:
    return {
        "seed": seed,
        "python": versions["python"],
        "numpy": versions["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "thread_pools": {name: "1" for name in PINNED},
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "anarchy")):
        print("error: no src/anarchy in this checkout", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "verify"))
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = measure_setup(probes)
        result, setup = run_worker(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        setups += [setup] + measure_setup(probes)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = result["attempted"]
    failed = attempted - result["passed"]
    wrong = result["check_failed"] + result.get("untraced", {}).get("check_failed", 0)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, result["versions"]),
        **{k: v for k, v in result.items() if k != "versions"},
    }
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            **result["metrics"],
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        report["setup_samples_s"] = setups
        report["metrics"] = metrics
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted}  inputs sha256 {result['inputs_sha256'][:16]}")
    print(f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"cpu {env['cpu_model']}  commit {env['git_commit']}")
    print(f"failed {failed} of {attempted}: raised {result['raised'] or 'none'}, "
          f"output check failed {result['check_failed']}")
    for key, msg in result["raised_examples"].items():
        print(f"  first {key}: {msg}")
    for msg in result["check_failures"]:
        print(f"  check failure: {msg}")
    if attempted < 100:
        print(f"note: only {attempted} jobs; the 90th percentile has fewer than 10 samples above it")
    if args.trace:
        print_metrics("per-layer metrics (traced run):", metrics)
        print(f"  waiting time per layer: {result['waiting']}")
        print_metrics("tracing overhead (traced minus untraced, same jobs):",
                      result["tracing_overhead"])
        print(f"spans written to {os.path.relpath(result['spans_file'], ROOT)}")
    else:
        print_metrics("end-to-end metrics:", metrics)

    end_to_end = ("goodput_ops_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb")
    final = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics if args.trace else {name: metrics[name] for name in end_to_end},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
