"""turandet benchmark: one workload, one seed, verdicts checked by oracles.

Run from the repository root:

    python3 perfbench/run.py --workload criteria --seed 1 --seconds 52 --trace 0

The timed workloads are criteria and sweeps. --workload defects runs
the ops that fail their oracles because of known program defects, the same
way, so that those failures stay visible; it reports correct = false until
the defects are fixed.

Each run draws its inputs from --seed, builds the float-mode references, then
starts fresh single-threaded worker interpreters for about --seconds: workers
that only import turandet and build the inputs (set-up time), and between
them measuring workers that run passes over the workload's op list. Every
op's output is checked against its oracle. Human-readable lines (environment, failing ops, every metric with its
unit) come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 one worker alternates untraced and traced
passes and the metrics are the per-layer ones, medians over the traced passes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A run of --trace 0 is a series of fresh measuring workers, each measuring
# for CHUNK_S, with SETUPS_PER_CHUNK set-up-only workers before each. Set-up
# times then sample the whole run rather than one burst of a shared host.
CHUNK_S = 8.0
SETUPS_PER_CHUNK = 2
MIN_PASSES = 2
# op_tail_s is p75 at every run. A run yields 32-100 op latencies, so p90
# would rarely have ten above it. A level picked per run by the count above it
# would switch between p75 and p50 with the pass count (sweeps has 8 ops, so
# 4 passes leave 8 latencies above p75 and 5 passes leave 10), and op_tail_s
# would jump by a third between runs of one seed.
TAIL_P = 75.0
# Beyond its measuring time, before a worker counts as hung. A run must end
# within 180 s even then.
WORKER_GRACE_S = 60.0
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


# Every worker started, so that each is stopped and waited for on any way out.
WORKERS: list[subprocess.Popen] = []


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def percentile(sorted_vals: list[float], p: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    pos = p / 100.0 * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail(latencies: list[float]) -> tuple[float, int]:
    """(p75, number of latencies above it)."""
    v = percentile(sorted(latencies), TAIL_P)
    return v, sum(1 for x in latencies if x > v)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def l3_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    return {
        "git_sha": git_sha(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3_size(),
        "platform": platform.platform(),
        "note": "the L3 cache may hold the largest scan table, so no memory "
                "bandwidth figure is derived from these timings",
    }


def start_worker(args, mode: str, seconds: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and its set-up time (start to "ready")."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale,
           "--seconds", str(seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, **WORKER_ENV})
    WORKERS.append(proc)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def judge(ops, refs, passes) -> tuple[int, int, dict, list[float]]:
    """(attempted, failed, failures by op id, density accuracies) over all passes."""
    attempted = failed = 0
    failures: dict[str, list[str]] = defaultdict(list)
    accuracies = []
    for p in passes:
        for op, ref, summary in zip(ops, refs, p["summaries"]):
            attempted += 1
            reason = oracles.check(op, summary, ref)
            if reason is not None:
                failed += 1
                failures[op["id"]].append(reason)
            if op["oracle"] == "density_accuracy" and "density" in summary:
                accuracies.append(oracles.density_max_rel_err(op, summary))
    return attempted, failed, failures, accuracies


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=52.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                    help="tiny shrinks every op for a smoke run")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "turandet" / "__init__.py").is_file():
        print(f"error: no turandet package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import turandet
    from turandet import cli

    print("env " + json.dumps(environment(args.seed)))
    params = workloads.draw_params(args.seed)
    print("params " + json.dumps(params))
    ops = workloads.make_ops(args.workload, params, args.scale, example3=turandet.example3)

    def build(spec):
        return turandet.build(turandet.FamilySpec.from_json(spec))

    refs = [oracles.reference(op, build, cli.main) for op in ops]

    # A SIGTERM then unwinds through the finally below, which stops the workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            proc, _ = start_worker(args, "trace", args.seconds)
            result = json.loads(finish_worker(proc, args.seconds + WORKER_GRACE_S))
            passes = result["passes"]
        else:
            passes, setups, maxrss_mb = [], [], 0.0
            t_start = time.perf_counter()
            while True:
                t_chunk = time.perf_counter()
                for _ in range(SETUPS_PER_CHUNK):
                    proc, setup = start_worker(args, "setup", 0.0)
                    finish_worker(proc, WORKER_GRACE_S)
                    setups.append(setup)
                chunk_s = min(CHUNK_S, args.seconds - (time.perf_counter() - t_start))
                proc, setup = start_worker(args, "run", chunk_s)
                setups.append(setup)
                chunk = json.loads(finish_worker(proc, chunk_s + WORKER_GRACE_S))
                passes += chunk["passes"]
                maxrss_mb = max(maxrss_mb, chunk["maxrss_mb"])
                # Stop when one more chunk of one pass would end more than half
                # a pass after --seconds, so that runs last --seconds on average.
                now = time.perf_counter()
                walls = [p["wall_s"] for p in chunk["passes"]]
                overhead = now - t_chunk - sum(walls)
                if (now - t_start + overhead + statistics.median(walls) / 2 > args.seconds
                        and len(passes) >= MIN_PASSES):
                    break
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in WORKERS:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    attempted, failed, failures, accuracies = judge(ops, refs, passes)
    for op_id, reasons in failures.items():
        print(f"FAIL {op_id}: {len(reasons)}/{len(passes)} passes: {reasons[0]}")
    print(f"ops attempted {attempted}, failed {failed}")

    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in result["layers"])
                   for name in result["layers"][0]}
        traced = statistics.median(p["wall_s"] for p in passes if p["traced"])
        untraced = statistics.median(p["wall_s"] for p in passes if not p["traced"])
        metrics["trace.overhead_s"] = traced - untraced
        print(f"tracing overhead {traced - untraced:.4f} s per pass: traced wall_s {traced:.4f} s "
              f"(median of {len(result['layers'])}), untraced {untraced:.4f} s "
              f"(median of {len(passes) - len(result['layers'])})")
        units = {name: oracles.layer_unit(name) for name in metrics}
    else:
        lat = [x for p in passes for x in p["latencies"]]
        tail_v, tail_above = tail(lat)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_v,
            "peak_rss_mb": maxrss_mb * 1024 * 1024 / 1e6,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                 "peak_rss_mb": "MB"}
        print(f"samples: {len(setups)} set-ups; {len(passes)} passes in fresh workers, "
              f"{len(lat)} op latencies; "
              f"op_tail_s is p{TAIL_P:g} with {tail_above} samples above")
        print("pass walls (s): " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
        if accuracies:
            print(f"metric density_max_rel_err = {max(accuracies):.6g} ratio")
    print(f"metric error_rate = {failed / attempted:.6g} ratio")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
