"""Benchmark of the powerswap pricing engines.

Run from the root of a checkout:

    python3 perfbench/run.py                      # all three workloads
    python3 perfbench/run.py --workload mc_ladder --seed 7 --seconds 10 --trace 0

Each workload runs in a fresh process (``worker.py``) that imports powerswap
from ``src/``.  With ``--trace 0`` the run also starts a few set-up-only
processes and reports the end-to-end metrics; with ``--trace 1`` it reports
the per-layer metrics of one extra traced pass.  A human-readable report goes
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, the
environment stamp and the traced spans are written to ``.perfbench_out/``.
See ``NOTES.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("fourier_ladder", "fourier_quadrature", "mc_ladder")
# set-up-only processes per untraced run; the workload process adds one more
# set-up sample, and setup_s is the median
SETUP_PROCESSES = 2
# a single-workload run must end within 180 s, with room to report
TIME_LIMIT_S = 170.0
MC_TARGET_STDERR = 0.01

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "checks_passed_frac": "fraction", "mc_s_at_stderr_0.01": "s"}
LAYER_UNITS = {
    "averaging.s": "s", "averaging.points": "count", "quadrature.calls": "count",
    "charfn.solves": "count", "charfn.node_steps": "count",
    "charfn.self_s": "s", "charfn.ns_per_node_step": "ns",
    "pricer.nodes": "count", "pricer.phi_used": "1", "pricer.self_s": "s",
    "conditions.s": "s", "simulate.s": "s", "simulate.path_steps": "count",
    "simulate.ns_per_path_step": "ns", "simulate.unique_frac": "fraction",
    "cli.load_config_s": "s", "trace_overhead_frac": "fraction",
}


class BenchError(RuntimeError):
    """A workload could not be measured (worker failed or ran out of time)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def tail(samples: list[float]):
    """Highest percentile with at least ten samples above it, or None.

    Only percentiles at or above the median are reported, which needs at
    least twenty samples.
    """
    n = len(samples)
    if n < 20:
        return None
    return math.floor(100.0 * (n - 10) / n), sorted(samples)[n - 11]


def source_digest() -> str:
    """SHA-256 over the package sources, to identify a checkout without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "powerswap")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    # only look at a repository rooted here, never at one further up
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and parse its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker could start")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str,
                 deadline: float) -> dict:
    """Measure one workload; returns the result record written to OUT_DIR."""
    workers = min(2, nproc())
    common = ["--workload", name, "--seed", str(seed), "--size", size,
              "--workers", str(workers)]
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    load_before = os.getloadavg()
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES):
            setups.append(run_worker(common + ["--setup-only"], deadline)["setup_s"])
    spans = os.path.join(OUT_DIR, f"{tag}.spans.jsonl")
    res = run_worker(common + ["--seconds", str(seconds), "--trace", str(trace)]
                     + (["--spans", spans] if trace else []), deadline)
    load_after = os.getloadavg()
    setups.append(res["setup_s"])

    walls = res["walls"]
    wall = statistics.median(walls)
    attempted, failed = res["attempted"], res["failed"]
    samples = {"wall_s": walls, "setup_s": setups}
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "checks_passed_frac": (attempted - failed) / attempted,
        # a Fourier price is already far more accurate than a 0.01 standard
        # error, so its time to that accuracy is its wall time
        "mc_s_at_stderr_0.01": (wall * (res["stderr_atm"] / MC_TARGET_STDERR) ** 2
                                if "stderr_atm" in res else wall),
    }
    env = {
        "nproc": nproc(), "workers": workers,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "load_exceeded_nproc": max(load_before[0], load_after[0]) > nproc(),
        "python": platform.python_version(), **res["versions"],
        "git_commit": git_commit(), "src_sha256": source_digest(),
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "env": env, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": res["failures"],
        "samples": samples,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }
    if trace:
        record["metrics"] = {k: {"value": v, "unit": LAYER_UNITS[k]}
                             for k, v in res["layers"].items()}
        record["layers_absent"] = res["absent"]
        record["spans_file"] = os.path.relpath(spans, ROOT)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    return record


def report(record: dict) -> None:
    """Human-readable lines for one workload."""
    env = record["env"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"size={record['size']}")
    print(f"   env: nproc={env['nproc']} workers={env['workers']} "
          f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}"
          f" python {env['python']} numpy {env['numpy']} scipy {env['scipy']}"
          f" commit {env['git_commit'] or 'n/a'} src {env['src_sha256'][:12]}")
    if env["load_exceeded_nproc"]:
        print("   WARNING: load average exceeded nproc; timings are suspect")
    print(f"   checks: {record['attempted'] - record['failed']}/{record['attempted']}"
          f" passed, failed_frac={record['failed_frac']:.6g} (fraction)")
    for reason in record["failures"]:
        print(f"   FAILED {reason}")
    for key, m in record["metrics"].items():
        line = f"   {key:<26} {m['value']:>16.6g} {m['unit']:<8}"
        samples = record["samples"].get(key)
        if samples is not None:
            t = tail(samples)
            line += f" n={len(samples)} " + (f"p{t[0]}={t[1]:.6g}" if t else
                                             "(too few samples for a tail percentile)")
        print(line)
    if record.get("layers_absent"):
        print(f"   absent layers: {', '.join(record['layers_absent'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="powerswap benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "powerswap", "__init__.py")):
        print("perfbench: src/powerswap not found; run from a powerswap checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    done = []
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            done.append(run_workload(name, args.seed, args.seconds, args.trace,
                                     args.size, deadline))
        except BenchError as exc:  # the other workloads still run
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
    if not done:
        return 1
    failed = sum(r["failed"] for r in done)
    if len(names) == 1:
        metrics = done[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in done
                   for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and len(done) == len(names),
                      "attempted": sum(r["attempted"] for r in done),
                      "failed": failed, "metrics": metrics}))
    return 0 if len(done) == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
