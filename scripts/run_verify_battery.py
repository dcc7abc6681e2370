#!/usr/bin/env python3
"""Run the identity suite over the desk-scale grid battery and collect the
JSON reports, each with a timing sidecar of per-check wall times.

Each grid runs in its own `python -m psdo verify` child process, so each
grid's peak RSS and page faults are its own; after the child's table the
script prints the grid's wall time, peak RSS and minor page faults, then
the least headroom log10(tolerance / measure) over the checks that ran
with a non-zero tolerance, and the check that has it.  psdo must be
importable by the child (for example with PYTHONPATH=src).

With --compare DIR each grid's report is also byte-compared with the file
of the same name in DIR, the outdir of an earlier run: the script prints
`identical`, or the names of the checks (and top-level report fields)
whose entries differ, then one line per differing check with its old and
new measure (repr), and exits 1 on any difference.

Usage:
    python scripts/run_verify_battery.py [--seed 42] [--outdir reports] [--compare DIR]
"""

import argparse
import json
import math
import os
import pathlib
import sys
import time

BATTERY = [(9, 1), (17, 1), (33, 1), (65, 1), (9, 2), (15, 2)]


def run_grid(n, d, seed, outdir):
    """Run `psdo verify all` on one grid in a child process, writing its
    report and timing sidecar into outdir; returns (exit code, wall time in
    s, peak RSS in MB, minor page faults)."""
    stem = outdir / f"verify_n{n}_d{d}"
    argv = [sys.executable, "-m", "psdo", "verify", "all", "--n", str(n), "--d", str(d),
            "--seed", str(seed), "--json-out", f"{stem}.json", "--timing-out", f"{stem}_timing.json"]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ)
    # this child's own rusage: RUSAGE_CHILDREN holds the largest peak of any
    # child so far, which only ever rises from grid to grid
    _, status, usage = os.wait4(pid, 0)
    return (os.waitstatus_to_exitcode(status), time.perf_counter() - t0, usage.ru_maxrss / 1024,
            usage.ru_minflt)


def least_headroom(report):
    """(log10(tolerance / measure), name) of the check with the least
    headroom, over the checks that were not skipped and have a non-zero
    tolerance; a measure of 0 has infinite headroom, and a NaN measure or a
    null one (how the report writes a non-finite measure) none.  (inf, None)
    when no check qualifies."""
    def headroom(c):
        measure = c["measure"]
        if measure == 0:
            return math.inf
        if measure is None or measure != measure:
            return -math.inf
        return math.log10(c["tolerance"] / measure)

    rooms = ((headroom(c), c["name"]) for c in report["checks"] if not c["skipped"] and c["tolerance"])
    return min(rooms, key=lambda room: room[0], default=(math.inf, None))


def compare_reports(path, earlier):
    """[] when the two report files hold the same bytes; otherwise the names
    of the checks whose entries differ (or that only one report has), then
    the top-level fields that differ, or ["(file missing)"] when either file
    does not exist."""
    path, earlier = pathlib.Path(path), pathlib.Path(earlier)
    if not (path.exists() and earlier.exists()):
        return ["(file missing)"]
    new_bytes, old_bytes = path.read_bytes(), earlier.read_bytes()
    if new_bytes == old_bytes:
        return []
    new, old = json.loads(new_bytes), json.loads(old_bytes)
    new_checks = {c["name"]: c for c in new.pop("checks", [])}
    old_checks = {c["name"]: c for c in old.pop("checks", [])}
    names = [name for name in {**old_checks, **new_checks}
             if new_checks.get(name) != old_checks.get(name)]
    fields = [key for key in {**old, **new} if new.get(key) != old.get(key)]
    # equal entries in other bytes (say, another float repr or key order)
    return names + fields or ["(bytes only)"]


def measure_moves(path, earlier, names):
    """'name old -> new' for each check among `names`, with its measure
    (repr) in the earlier report and in this one, or (absent) where that
    report has no such check; names that are no check are passed over."""
    def measures(p):
        return {c["name"]: repr(c["measure"]) for c in json.loads(pathlib.Path(p).read_text())["checks"]}

    new, old = measures(path), measures(earlier)
    return [f"{name} {old.get(name, '(absent)')} -> {new.get(name, '(absent)')}"
            for name in names if name in new or name in old]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--compare", metavar="DIR", help="byte-compare each report with DIR's")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for n, d in BATTERY:
        sys.stdout.flush()
        code, wall, rss_mb, faults = run_grid(n, d, args.seed, outdir)
        print(f"[n={n} d={d}: {wall:.1f}s, peak RSS {rss_mb:.1f} MB, {faults} minor faults, exit {code}]",
              flush=True)
        all_ok &= code == 0
        name = f"verify_n{n}_d{d}.json"
        if (outdir / name).exists():
            headroom, check = least_headroom(json.loads((outdir / name).read_text()))
            print(f"[n={n} d={d}: least headroom {headroom:.1f} ({check})]")
        if args.compare:
            diff = compare_reports(outdir / name, pathlib.Path(args.compare) / name)
            print(f"[compare {name}: {'identical' if not diff else 'differs in ' + ', '.join(diff)}]")
            if diff and diff != ["(file missing)"]:
                for move in measure_moves(outdir / name, pathlib.Path(args.compare) / name, diff):
                    print(f"[compare {name}: {move}]")
            all_ok &= not diff
        print(flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
