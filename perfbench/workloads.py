"""Seeded inputs for the benchmark workloads and the known-defect op list.

``draw_params(seed)`` picks family parameters from finite candidate lists whose
exact verdicts were checked at N = 3000 (see README.md). ``make_ops`` turns
those parameters into the fixed op list of one workload. Ops are plain dicts so
the parent process and the worker build identical lists from the same seed;
only the generated specs reach the program.
"""
from __future__ import annotations

import json
import random

# Candidate parameters. Each value was checked at N = 3000 to give the pinned
# verdicts in oracles.PINNED. Two more values give them too but are left out,
# because a seed that drew them would move the timings more than the program:
# a = 2/3 keeps the ratio Fractions exact and huge for longer (ratios 3x
# slower, criteria peak RSS 80 MB instead of 41 MB), and Pollaczek (5, 4)
# makes the n_max = 5000 scan confirm 87 distinct abscissas at 50 digits
# (about 6 s against 1 s for the others).
EXAMPLE3_A = ("1/3", "1/2", "1", "3/2", "2", "3", "4", "5")
# b = 0 is left out: it makes Example4 equal to Example3, whose float check
# fails (FLOAT_DEFECT_KINDS); the "defects" op list runs that check.
EXAMPLE4_B = ("1/2", "1", "2", "3")
GEGENBAUER_LAMBDA = ("1/4", "1/3", "3/4", "5/4", "3/2", "2", "5/2", "3")
POLLACZEK_LAMBDA_A = (("2", "1"), ("3", "1/2"), ("3/2", "1"))
# The shrunk-step table is built from Example3(1/2): at a = 1/2 the float
# checker forgives the exact violation for every k in SHRINK_K, while at
# a >= 1 it already catches it for part of that range.
SHRINK_A = "1/2"
SHRINK_K = (2000, 2900)
SHRINK_FACTOR = 50

# The timed workloads hold only ops whose outputs pass their oracles at every
# seed. "defects" holds the ops that fail them because of known program
# defects (ROADMAP Open item 2 and aim 3); it runs the same way, reports
# correct = false while the defects stand, and is not one of the timed
# workloads in BENCHMARK.json.
WORKLOADS = ("criteria", "sweeps", "defects")
# Families whose float-mode check gives a verdict that the exact values of
# the same doubles contradict: Theorem1 on Legendre and Gegenbauer, LambdaRoute
# on Example3 and Pollaczek.
FLOAT_DEFECT_KINDS = ("Example3", "Legendre", "Gegenbauer", "Pollaczek")

# Sizes per scale. "full" is the benchmark; "tiny" is the smoke-test size.
SIZES = {
    "full": {"check_N": 3000, "small_N": 200, "scan_n_max": 5000,
             "scaled_up_n_max": 3000, "scaled_down_n_max": 1500,
             "density_N": 100_000, "accuracy_N": 10_000, "accuracy_points": 181},
    "tiny": {"check_N": 40, "small_N": 12, "scan_n_max": 40,
             "scaled_up_n_max": 30, "scaled_down_n_max": 20,
             "density_N": 400, "accuracy_N": 200, "accuracy_points": 11},
}


def draw_params(seed: int) -> dict:
    """Family parameters and the shrink index k, as exact "num/den" strings."""
    rng = random.Random(seed)
    lam, pa = rng.choice(POLLACZEK_LAMBDA_A)
    return {
        "example3_a": rng.choice(EXAMPLE3_A),
        "example4_a": rng.choice(EXAMPLE3_A),
        "example4_b": rng.choice(EXAMPLE4_B),
        "gegenbauer_lambda": rng.choice(GEGENBAUER_LAMBDA),
        "pollaczek_lambda": lam,
        "pollaczek_a": pa,
        "shrink_k": rng.randint(*SHRINK_K),
    }


def family_specs(params: dict) -> dict:
    """Builtin family specs keyed by kind."""
    return {
        "Example3": {"kind": "Example3", "params": {"a": params["example3_a"]}},
        "Example4": {"kind": "Example4", "params": {"a": params["example4_a"],
                                                    "b": params["example4_b"]}},
        "Legendre": {"kind": "Legendre"},
        "Gegenbauer": {"kind": "Gegenbauer",
                       "params": {"lambda": params["gegenbauer_lambda"]}},
        "Pollaczek": {"kind": "Pollaczek",
                      "params": {"lambda": params["pollaczek_lambda"],
                                 "a": params["pollaczek_a"]}},
    }


def shrunk_table(example3, length: int, k: int) -> dict:
    """Example3(1/2) coefficients 0..length-1 with the gamma step at k shrunk 50x.

    gamma_k is moved to gamma_{k-1} - (gamma_{k-1} - gamma_k)/50, which keeps
    gamma decreasing but makes the step inequality fail at k in exact
    arithmetic, by a gap below the float checker's 1e-14 margin.
    """
    fam = example3(SHRINK_A)
    al = [fam.alpha(n) for n in range(length)]
    ga = [fam.gamma(n) for n in range(length)]
    ga[k] = ga[k - 1] - (ga[k - 1] - ga[k]) / SHRINK_FACTOR
    as_str = lambda v: f"{v.numerator}/{v.denominator}"  # noqa: E731
    return {"kind": "Table", "params": {"name": f"Example3-shrunk-k{k}"},
            "alpha": [as_str(v) for v in al], "gamma": [as_str(v) for v in ga]}


def _cli(op_id: str, family: str, spec: dict, argv: list, oracle: str) -> dict:
    return {"id": op_id, "call": "cli", "family": family, "spec": spec,
            "argv": argv, "oracle": oracle}


def make_ops(workload: str, params: dict, scale: str = "full", example3=None) -> list[dict]:
    """The fixed op list of one pass. ``example3`` builds the shrunk table."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    z = SIZES[scale]
    specs = family_specs(params)
    ops: list[dict] = []
    if workload == "criteria":
        N, n_small = str(z["check_N"]), str(z["small_N"])
        for kind, spec in specs.items():
            fam = json.dumps(spec)
            ops.append(_cli(f"check-exact:{kind}", kind, spec,
                            ["check", "--family", fam, "--N", N], "check_exact"))
            if kind not in FLOAT_DEFECT_KINDS:
                ops.append(_cli(f"check-float:{kind}", kind, spec,
                                ["check", "--family", fam, "--N", N, "--mode", "float"],
                                "check_float"))
            ops += [
                _cli(f"lambda:{kind}", kind, spec,
                     ["lambda", "--family", fam, "--N", N], "lambda_exact"),
                _cli(f"ratios:{kind}", kind, spec,
                     ["ratios", "--family", fam, "--N", N], "ratios_exact"),
                _cli(f"check-small:{kind}", kind, spec,
                     ["check", "--family", fam, "--N", n_small], "check_exact"),
            ]
    elif workload == "sweeps":
        # The float side: grid scans (the turan table, minima pass and
        # confirmation) and density sweeps (orthonormal_offdiag and the
        # vectorized recurrence). One workload rather than two, so that each
        # run of the benchmark can measure long enough on a shared host.
        n_max = str(z["scan_n_max"])
        for kind in ("Example3", "Legendre", "Pollaczek"):
            ops.append(_cli(f"scan:{kind}", kind, specs[kind],
                            ["scan", "--family", json.dumps(specs[kind]), "--n-max", n_max],
                            "scan_exact"))
        ops.append({"id": "scaled_scan:Legendre-sigma-2n+1", "call": "scaled_scan",
                    "family": "Legendre", "spec": specs["Legendre"], "sigma": "2n+1",
                    "n_max": z["scaled_up_n_max"], "oracle": "scaled_all_nonnegative"})
        N = str(z["density_N"])
        for kind in ("Legendre", "Gegenbauer", "Pollaczek"):
            ops.append(_cli(f"density:{kind}", kind, specs[kind],
                            ["density", "--family", json.dumps(specs[kind]), "--N", N],
                            "density_valid"))
        ops.append({"id": "estimate_density:Gegenbauer", "call": "estimate_density",
                    "family": "Gegenbauer", "spec": specs["Gegenbauer"],
                    "N": z["accuracy_N"], "points": z["accuracy_points"],
                    "oracle": "density_accuracy"})
    else:
        N = str(z["check_N"])
        for kind in FLOAT_DEFECT_KINDS:
            fam = json.dumps(specs[kind])
            ops.append(_cli(f"check-float:{kind}", kind, specs[kind],
                            ["check", "--family", fam, "--N", N, "--mode", "float"],
                            "check_float"))
        # Open item 2a: a violated step inequality that float mode forgives.
        k = params["shrink_k"] if scale == "full" else z["check_N"] // 2
        table = shrunk_table(example3, z["check_N"] + 3, k)
        ops.append(_cli("check-float:Example3-shrunk", "Table", table,
                        ["check", "--family", json.dumps(table), "--N", N,
                         "--mode", "float"], "check_float"))
        # Open item 2b: confirmed negative minima reported nonnegative.
        ops.append({"id": "scaled_scan:Legendre-sigma-1/(2n+1)", "call": "scaled_scan",
                    "family": "Legendre", "spec": specs["Legendre"], "sigma": "1/(2n+1)",
                    "n_max": z["scaled_down_n_max"], "oracle": "scaled_all_negative"})
    return ops
