"""Tests of the benchmark itself: oracles against closed forms, failure
counting, seeded inputs, and a tiny-size smoke run of every workload.

Run from the repository root: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from turandet import eval_polys, legendre  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n", [1, 2, 3, 10, 57])
def test_scaled_down_closed_form_matches_exact_recurrence(n):
    p = eval_polys(legendre(), n + 1, Fraction(-1))
    s = [Fraction(1, 2 * k + 1) for k in range(n + 2)]
    exact = (s[n] * p[n]) ** 2 - (s[n - 1] * p[n - 1]) * (s[n + 1] * p[n + 1])
    assert exact == oracles.scaled_down_value_at_minus_one(n) < 0


@pytest.mark.parametrize("lam", [Fraction(v) for v in workloads.GEGENBAUER_LAMBDA])
def test_gegenbauer_weight_integrates_to_one(lam):
    # x = sin(t) turns the endpoint singularity into the smooth cos(t)^(2 lam);
    # the midpoint rule never evaluates the endpoints themselves.
    m = 20_000
    h = math.pi / m
    total = sum(oracles.gegenbauer_weight(math.sin(-math.pi / 2 + (i + 0.5) * h), float(lam))
                * math.cos(-math.pi / 2 + (i + 0.5) * h) for i in range(m)) * h
    assert total == pytest.approx(1.0, abs=1e-5)


def _op(oracle, family="Example3", **extra):
    return {"id": f"{oracle}:{family}", "oracle": oracle, "family": family, **extra}


def test_wrong_verdicts_fail_their_oracles():
    pinned = oracles.PINNED["Example3"]["check"]
    good = {"code": 0, "criteria": dict(pinned["criteria"]),
            "certified": list(pinned["certified"])}
    assert oracles.check(_op("check_exact"), good, None) is None
    wrong = {**good, "criteria": {**good["criteria"], "Theorem1": "Violated"}}
    assert "Theorem1" in oracles.check(_op("check_exact"), wrong, None)
    assert oracles.check(_op("check_exact"), {**good, "code": 1}, None) is not None

    ref = {"criteria": {"Theorem1": "Violated"}, "certified": []}
    float_op = _op("check_float")
    assert oracles.check(float_op, {"criteria": {"Theorem1": "Inconclusive"},
                                    "certified": []}, ref) is None
    assert oracles.check(float_op, {"criteria": {"Theorem1": "Violated"},
                                    "certified": []}, ref) is None
    assert oracles.check(float_op, {"criteria": {"Theorem1": "Satisfied"},
                                    "certified": ["Theorem1"]}, ref) is not None

    down = _op("scaled_all_negative", "Legendre", n_max=2)
    closed = [float(oracles.scaled_down_value_at_minus_one(n)) for n in (1, 2)]
    assert oracles.check(down, {"nonnegative_ns": [], "min_values": closed}, None) is None
    assert oracles.check(down, {"nonnegative_ns": [2], "min_values": closed}, None) is not None
    assert oracles.check(down, {"nonnegative_ns": [], "min_values": [closed[0], 0.0]},
                         None) is not None
    assert oracles.check(_op("scan_exact"), {"error": "boom", "code": 2}, None) is not None


def test_wrong_verdict_counts_toward_error_rate():
    pinned = oracles.PINNED["Legendre"]["check"]
    ops = [_op("check_exact", "Legendre"), _op("check_exact", "Legendre")]
    right = {"code": 0, "criteria": dict(pinned["criteria"]),
             "certified": list(pinned["certified"])}
    wrong = {**right, "criteria": {**right["criteria"], "SzwTheorem1": "Violated"}}
    passes = [{"summaries": [right, wrong]}, {"summaries": [right, right]}]
    attempted, failed, failures, _ = run.judge(ops, [None, None], passes)
    assert (attempted, failed) == (4, 1)
    assert list(failures) == [ops[1]["id"]]


def test_seeded_inputs_are_reproducible_and_in_range():
    assert workloads.draw_params(7) == workloads.draw_params(7)
    seen_k = set()
    for seed in range(50):
        p = workloads.draw_params(seed)
        assert p["example3_a"] in workloads.EXAMPLE3_A
        assert p["example4_b"] in workloads.EXAMPLE4_B
        assert p["gegenbauer_lambda"] in workloads.GEGENBAUER_LAMBDA
        assert (p["pollaczek_lambda"], p["pollaczek_a"]) in workloads.POLLACZEK_LAMBDA_A
        assert workloads.SHRINK_K[0] <= p["shrink_k"] <= workloads.SHRINK_K[1]
        seen_k.add(p["shrink_k"])
    assert len(seen_k) > 1
    a = workloads.make_ops("sweeps", workloads.draw_params(3))
    b = workloads.make_ops("sweeps", workloads.draw_params(3))
    assert a == b


def test_timed_workloads_are_the_ones_in_benchmark_json():
    timed = [w["name"] for w in BENCHMARK["workloads"]]
    assert timed == [w for w in workloads.WORKLOADS if w != "defects"]


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run_prints_every_metric(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if workload != "defects":
        assert result["correct"], proc.stdout
    expected = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in expected:
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("metric error_rate = ") for line in lines)
    if workload == "sweeps" and trace == "0":
        assert any(line.startswith("metric density_max_rel_err = ") for line in lines)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "sweeps", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
