#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/steadiness_check.py [--seeds 10] [--repeats 1] [--seconds 30]

Runs each workload once per seed 1..N (and repeat) through run.py, checks
that every run is correct, and prints for each end-to-end metric its
median, quartiles, spread (interquartile range over the median) and worst
deviation from the median, against the metric's bound in BENCHMARK.json.
A spread above a third of the bound is flagged, and a spread above the
bound fails. It then runs des_churn twice with seed 1 and asserts
identical simulated metrics and an identical chaos fingerprint. Exits 1
if any check fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIMULATED = ("ok_share", "p50_ms", "p99_ms", "containers")


def run(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """One run.py invocation; returns (result JSON, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def summarize(workload: str, runs: list[dict], bounds: dict) -> bool:
    ok = True
    print(f"\n== {workload}: {len(runs)} runs")
    print(f"{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'worst':>9}"
          f"{'bound':>7}  verdict")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        worst = max(abs(v - med) for v in values) / med if med else float("inf")
        if spread > bound:
            verdict, ok = "FAIL", False
        elif spread > bound / 3:
            verdict = "noisy"
        else:
            verdict = "ok"
        print(f"{name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{worst:>9.4f}"
              f"{bound:>7}  {verdict}")
    return ok


def replay_check(seed: int, seconds: int) -> bool:
    """Two des_churn runs with one seed must agree exactly."""
    (a, out_a), (b, out_b) = run("des_churn", seed, seconds), run("des_churn", seed, seconds)
    fingerprints = [re.search(r"fingerprint=(\d+)", out).group(1) for out in (out_a, out_b)]
    same = all(a["metrics"][m]["value"] == b["metrics"][m]["value"] for m in SIMULATED)
    print(f"\n== des_churn replay, seed {seed}: fingerprints {fingerprints[0]} / "
          f"{fingerprints[1]}; " + ", ".join(
              f"{m} {a['metrics'][m]['value']}/{b['metrics'][m]['value']}" for m in SIMULATED))
    ok = same and fingerprints[0] == fingerprints[1] and a["correct"] and b["correct"]
    print("replay:", "identical" if ok else "FAIL")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.seeds + 1):
            for _ in range(args.repeats):
                result, out = run(workload, seed, seconds)
                steal = re.search(r"host steal: ([0-9.]+) %", out)
                print(f"{workload} seed {seed}: host steal "
                      f"{float(steal.group(1)) if steal else float('nan'):.2f} %", flush=True)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}")
                    ok = False
                runs.append(result)
        ok = summarize(workload, runs, bounds) and ok
    ok = replay_check(1, seconds) and ok
    print("\nsteadiness:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
