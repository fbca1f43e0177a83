#!/usr/bin/env python3
"""Overhead guard for the observability layer.

Reads a google-benchmark JSON report (bench_micro --benchmark_format=json)
and asserts:

  1. the disabled-path primitives (counter inc, quantile record, trace
     instant, flight event) stay in the "one relaxed load + branch"
     regime, and
  2. a fully traced experiment stays within a small factor of the
     untraced baseline.

Thresholds are deliberately generous — this guards against accidental
regressions (a lock on the disabled path, an allocation per event), not
micro-variance between CI machines.

Usage: check_obs_overhead.py <benchmark.json>
"""
import json
import sys

# ns ceilings for disabled-path primitives. A relaxed atomic load and a
# branch is ~1 ns on any modern core; 50 ns means someone added real work.
DISABLED_NS_CEILING = {
    "BM_ObsDisabledCounterInc": 50.0,
    "BM_ObsDisabledInstant": 50.0,
    "BM_ObsDisabledFlightEvent": 50.0,
    "BM_ObsDisabledQuantileObserve": 50.0,
}

# ns ceilings for enabled-path hot primitives: recording must stay
# lock-free and allocation-free. Generous bounds — a flight event is six
# relaxed stores (~5-20 ns), a quantile record is a frexp plus three
# relaxed RMWs (~10-30 ns); hundreds of ns means a lock or an allocation
# crept in.
ENABLED_NS_CEILING = {
    "BM_ObsEnabledFlightEvent": 500.0,
    "BM_ObsEnabledQuantileObserve": 500.0,
}

# Traced full experiment must stay within this factor of untraced.
TRACED_FACTOR_CEILING = 3.0


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return value * scale[unit]


def main(path):
    with open(path) as f:
        report = json.load(f)
    times = {}
    for bench in report["benchmarks"]:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        times[bench["name"]] = to_ns(bench["real_time"], bench["time_unit"])

    failures = []
    for ceilings in (DISABLED_NS_CEILING, ENABLED_NS_CEILING):
        for name, ceiling in ceilings.items():
            got = times.get(name)
            if got is None:
                failures.append(f"missing benchmark {name}")
            elif got > ceiling:
                failures.append(
                    f"{name}: {got:.1f} ns > {ceiling:.0f} ns ceiling")
            else:
                print(f"ok: {name} = {got:.1f} ns (ceiling {ceiling:.0f})")

    base = times.get("BM_FullExperimentFaasBatch")
    traced = times.get("BM_FullExperimentFaasBatchTraced")
    if base is None or traced is None:
        failures.append("missing full-experiment benchmark pair")
    else:
        factor = traced / base
        if factor > TRACED_FACTOR_CEILING:
            failures.append(
                f"traced experiment {factor:.2f}x untraced "
                f"(> {TRACED_FACTOR_CEILING}x ceiling)")
        else:
            print(f"ok: traced experiment {factor:.2f}x untraced "
                  f"(ceiling {TRACED_FACTOR_CEILING}x)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        # Per-metric breakdown: when one ceiling blows, show every obs
        # primitive's measured time so the offending layer is obvious
        # without rerunning the bench locally.
        print("\nper-metric breakdown (all BM_Obs* cells):", file=sys.stderr)
        for name in sorted(times):
            if not name.startswith("BM_Obs"):
                continue
            ceiling = DISABLED_NS_CEILING.get(name) or ENABLED_NS_CEILING.get(name)
            bound = f" (ceiling {ceiling:.0f} ns)" if ceiling else ""
            print(f"  {name:40s} {times[name]:10.1f} ns{bound}",
                  file=sys.stderr)
        return 1
    print("observability overhead within bounds")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
