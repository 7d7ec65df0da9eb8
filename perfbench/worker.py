"""Benchmark worker: a fresh, single-threaded interpreter.

Usage (started by run.py, not by hand):
    python3 perfbench/worker.py --workload W --seed S --scale full --seconds T --mode run

Protocol on stdout: the line "ready" once turandet is imported and the
workload's inputs are built, then, unless --mode setup, one JSON line with the
per-pass op latencies, per-op output summaries and the worker's ru_maxrss.
Modes: setup (stop after "ready"), run (untraced passes), trace (untraced and
traced passes alternate; traced ones also report per-layer metrics; a final
unjudged pass over the workload's scan ops measures their tracemalloc peak).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import turandet  # noqa: E402
from turandet import cli as turandet_cli  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A worker of --mode run measures at least one pass; one of --mode trace at
# least two, so that it has an untraced and a traced pass.
MIN_PASSES = {"run": 1, "trace": 2}
SIGMAS = {"2n+1": lambda n: Fraction(2 * n + 1), "1/(2n+1)": lambda n: Fraction(1, 2 * n + 1)}


def run_op(op: dict):
    """Execute one op through the public entry points; returns its raw output.

    Attributes are looked up on the modules at call time so that the traced
    run's wrappers are the ones called.
    """
    if op["call"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = turandet_cli.main(op["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}
    family = turandet.build(turandet.FamilySpec.from_json(op["spec"]))
    if op["call"] == "scaled_scan":
        return {"report": turandet.scaled_scan(family, SIGMAS[op["sigma"]], op["n_max"])}
    if op["call"] == "estimate_density":
        xs = np.linspace(-0.9, 0.9, op["points"])
        return {"estimate": turandet.estimate_density(family, op["N"], xs)}
    raise ValueError(f"unknown op call {op['call']!r}")


def run_pass(ops: list[dict]):
    """One pass over the op list; returns (pass wall, latencies, raw outputs)."""
    lat, raws = [], []
    t_pass = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            raw = run_op(op)
        except Exception:  # an op that raises counts as failed; keep measuring
            raw = {"exception": traceback.format_exc(limit=3)}
        lat.append(time.perf_counter() - t0)
        raws.append(raw)
    return time.perf_counter() - t_pass, lat, raws


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=tuple(workloads.SIZES))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", default="run", choices=("setup", "run", "trace"))
    args = ap.parse_args(argv)

    params = workloads.draw_params(args.seed)
    ops = workloads.make_ops(args.workload, params, args.scale, example3=turandet.example3)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    # In trace mode untraced and traced passes alternate, starting untraced, so
    # the overhead compares passes run close together in time.
    tracer = tracing.Tracer() if args.mode == "trace" else None
    result = {"passes": [], "layers": []}
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(result["passes"]) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        wall, lat, raws = run_pass(ops)
        if traced:
            tracer.uninstall()
            layers = tracer.metrics()
            layers["cli.report_bytes"] = float(sum(
                len(r["out"].encode()) for r in raws if "out" in r))
            result["layers"].append(layers)
        result["passes"].append({
            "wall_s": wall, "latencies": lat, "traced": traced,
            "summaries": [oracles.summarize(op, raw) for op, raw in zip(ops, raws)]})
        elapsed = time.perf_counter() - t_start
        if elapsed + wall > args.seconds and len(result["passes"]) >= MIN_PASSES[args.mode]:
            break
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scans = [op for op in ops if op["call"] == "scaled_scan"
             or (op["call"] == "cli" and op["argv"][0] == "scan")]
    if tracer is not None and scans:
        tracer.reset()
        tracer.install(memory=True)
        run_pass(scans)
        tracer.uninstall()
        for layer in result["layers"]:
            layer["turan.traced_peak_mb"] = tracer.counts["turan.traced_peak_mb"]
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
