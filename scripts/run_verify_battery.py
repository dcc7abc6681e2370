#!/usr/bin/env python3
"""Run the identity suite over the desk-scale grid battery and collect the
JSON reports, each with a timing sidecar of per-check wall times.

Usage:
    python scripts/run_verify_battery.py [--seed 42] [--outdir reports]
"""

import argparse
import pathlib
import sys
import time

from psdo.verify import _run_suite, _timing_to_json, format_table, report_to_json

BATTERY = [(9, 1), (17, 1), (33, 1), (65, 1), (9, 2), (15, 2)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--outdir", default="reports")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for n, d in BATTERY:
        t0 = time.perf_counter()
        report, walls = _run_suite("all", n, d, args.seed)
        dt = time.perf_counter() - t0
        print(format_table(report))
        print(f"[{dt:.1f}s]\n")
        (outdir / f"verify_n{n}_d{d}.json").write_bytes(report_to_json(report))
        (outdir / f"verify_n{n}_d{d}_timing.json").write_bytes(_timing_to_json(report, walls))
        all_ok &= report["passed"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
