#!/usr/bin/env python3
"""Schema validator and regression gate for BENCH_crh_throughput.json.

Usage:
    bench_gate.py CANDIDATE.json [--baseline BENCH_crh_throughput.json]
                  [--tolerance 0.10] [--schema-only]

Two jobs:

 1. Schema validation: the candidate must be a well-formed report from
    bench/bench_throughput.cc — workload dimensions, calibration constant,
    and one result object per mode (off/full) with throughput and
    latency-percentile fields.

 2. Regression gate: the candidate's per-claim-iteration cost may not
    regress more than --tolerance (default 10%) against the committed
    baseline, per mode. Raw ns/claim is meaningless across machines, so
    both sides are first divided by their own calibration_ns_per_op — the
    ns/op of a fixed scalar loop the benchmark times on the same machine
    in the same run. A slower CI runner inflates numerator and denominator
    alike; only a code regression moves the ratio.

Exit status: 0 = pass, 1 = schema violation or regression, 2 = usage.
"""

from __future__ import annotations

import argparse
import json
import sys

TIMED_MODES = ("off", "full")

MODE_FIELDS = {
    "mode": str,
    "streams": int,
    "chunks": int,
    "claims": int,
    "elapsed_seconds": (int, float),
    "claims_per_sec": (int, float),
    "ns_per_claim": (int, float),
    "latency_ms": dict,
}

LATENCY_FIELDS = ("p50", "p90", "p99", "max")

WORKLOAD_FIELDS = {
    "objects": int,
    "properties": int,
    "sources": int,
    "chunks": int,
    "claims_per_stream": int,
    "density": (int, float),
    "skew": (int, float),
    "scale": (int, float),
    "seed": int,
    "threads": int,
    "weight_scheme": str,
}


def fail(message: str) -> None:
    print(f"bench_gate: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_fields(obj: dict, fields: dict, where: str) -> None:
    for name, types in fields.items():
        if name not in obj:
            fail(f"{where}: missing field '{name}'")
        if not isinstance(obj[name], types):
            fail(f"{where}: field '{name}' has type {type(obj[name]).__name__}, "
                 f"expected {types}")


def validate(report: dict, path: str) -> dict:
    """Validates the report and returns {mode: result object}."""
    if not isinstance(report, dict):
        fail(f"{path}: top level is not an object")
    if report.get("schema_version") != 1:
        fail(f"{path}: schema_version is {report.get('schema_version')!r}, expected 1")
    check_fields(report, {"workload": dict, "calibration_ns_per_op": (int, float),
                          "target_seconds_per_mode": (int, float),
                          "modes": list}, path)
    check_fields(report["workload"], WORKLOAD_FIELDS, f"{path}: workload")
    if report["calibration_ns_per_op"] <= 0:
        fail(f"{path}: calibration_ns_per_op must be positive")

    by_mode = {}
    for entry in report["modes"]:
        if not isinstance(entry, dict):
            fail(f"{path}: modes[] entry is not an object")
        check_fields(entry, MODE_FIELDS, f"{path}: mode entry")
        for field in LATENCY_FIELDS:
            if not isinstance(entry["latency_ms"].get(field), (int, float)):
                fail(f"{path}: mode '{entry['mode']}' latency_ms missing '{field}'")
        if entry["claims"] <= 0 or entry["elapsed_seconds"] <= 0:
            fail(f"{path}: mode '{entry['mode']}' has no timed work")
        if entry["ns_per_claim"] <= 0:
            fail(f"{path}: mode '{entry['mode']}' ns_per_claim must be positive")
        by_mode[entry["mode"]] = entry
    for mode in TIMED_MODES:
        if mode not in by_mode:
            fail(f"{path}: missing timed mode '{mode}'")
    return by_mode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("candidate", help="freshly produced BENCH_crh_throughput.json")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline to gate against (skipped if omitted)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max allowed relative regression on the calibrated "
                             "per-claim metric (default 0.10 = 10%%)")
    parser.add_argument("--schema-only", action="store_true",
                        help="validate the candidate schema and stop")
    args = parser.parse_args()

    with open(args.candidate, encoding="utf-8") as f:
        candidate = json.load(f)
    cand_modes = validate(candidate, args.candidate)
    print(f"bench_gate: {args.candidate}: schema OK "
          f"(calibration {candidate['calibration_ns_per_op']:.3f} ns/op)")
    if args.schema_only or args.baseline is None:
        return 0

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    base_modes = validate(baseline, args.baseline)

    ok = True
    for mode in TIMED_MODES:
        cand_ratio = (cand_modes[mode]["ns_per_claim"]
                      / candidate["calibration_ns_per_op"])
        base_ratio = (base_modes[mode]["ns_per_claim"]
                      / baseline["calibration_ns_per_op"])
        regression = cand_ratio / base_ratio - 1.0
        status = "OK" if regression <= args.tolerance else "REGRESSION"
        print(f"bench_gate: mode {mode:<6} calibrated ns/claim "
              f"{cand_ratio:8.2f} vs baseline {base_ratio:8.2f}  "
              f"({regression:+.1%})  {status}")
        if regression > args.tolerance:
            ok = False
    if not ok:
        fail(f"per-claim metric regressed more than {args.tolerance:.0%} "
             f"vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
