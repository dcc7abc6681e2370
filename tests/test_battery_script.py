import importlib.util
import json
import math
import os
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_verify_battery.py"


@pytest.fixture(scope="module")
def battery():
    spec = importlib.util.spec_from_file_location("run_verify_battery", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(measures, passed=True):
    checks = [{"name": name, "measure": m, "tolerance": 1e-12, "passed": True}
              for name, m in measures.items()]
    return {"suite": "all", "n": 9, "d": 1, "seed": 7, "checks": checks, "passed": passed}


def _write(path, obj, **dumps):
    path.write_text(json.dumps(obj, **dumps))
    return path


def test_compare_reports(tmp_path, battery):
    base = _report({"a": 1e-16, "b": 2e-16, "c": 3e-16})
    old = _write(tmp_path / "old.json", base)
    assert battery.compare_reports(_write(tmp_path / "same.json", base), old) == []

    moved = _report({"a": 1e-16, "b": 2.0000000000000004e-16, "c": 3e-16, "new": 0.0}, passed=False)
    assert battery.compare_reports(_write(tmp_path / "moved.json", moved), old) == ["b", "new", "passed"]
    dropped = _report({"a": 1e-16, "c": 3e-16})
    assert battery.compare_reports(_write(tmp_path / "dropped.json", dropped), old) == ["b"]
    # same entries in other bytes still differ
    spaced = _write(tmp_path / "spaced.json", base, indent=1)
    assert battery.compare_reports(spaced, old) == ["(bytes only)"]
    assert battery.compare_reports(old, tmp_path / "absent.json") == ["(file missing)"]


def test_compare_prints_each_moved_measure(tmp_path, battery, monkeypatch, capsys):
    # --compare names the checks that differ, then prints each one's old and
    # new measure, so a last-bit move reads off one run
    def report(measures):
        base = _report(measures)
        for c in base["checks"]:
            c["skipped"] = False
        return base

    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    old_dir.mkdir()
    _write(old_dir / "verify_n9_d1.json", report({"a": 1e-16, "b": 2e-16}))

    def run_grid(n, d, seed, outdir):
        _write(outdir / f"verify_n{n}_d{d}.json", report({"a": 1e-16, "b": 2.5e-16, "new": 0.0}))
        return 0, 0.1, 1.0, 0

    monkeypatch.setattr(battery, "run_grid", run_grid)
    monkeypatch.setattr(battery, "BATTERY", [(9, 1)])
    monkeypatch.setattr(sys, "argv", ["run_verify_battery.py", "--outdir", str(new_dir), "--compare", str(old_dir)])
    assert battery.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert "[compare verify_n9_d1.json: differs in b, new]" in out
    assert "[compare verify_n9_d1.json: b 2e-16 -> 2.5e-16]" in out
    assert "[compare verify_n9_d1.json: new (absent) -> 0.0]" in out
    assert not any(": a " in line for line in out)


def test_run_grid_reports_faults(tmp_path, battery, monkeypatch):
    # one child at n=3, d=1: it passes, and its own rusage gives the peak RSS
    # and the minor page faults that the battery prints beside the wall time
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
    code, wall, rss_mb, faults = battery.run_grid(3, 1, 7, tmp_path)
    assert code == 0
    assert wall > 0 and rss_mb > 0
    assert isinstance(faults, int) and faults >= 0
    assert json.loads((tmp_path / "verify_n3_d1.json").read_text())["passed"]


def test_least_headroom(battery):
    def entry(name, measure, tolerance, skipped=False):
        return {"name": name, "measure": measure, "tolerance": tolerance, "skipped": skipped}

    checks = [entry("exact", 0.0, 1e-12), entry("roomy", 1e-16, 1e-12), entry("tight", 1e-13, 1e-11),
              entry("report_only", 5.0, None), entry("zero_tol", 1e-3, 0.0),
              entry("skipped", 1.0, 1e-12, skipped=True)]
    headroom, name = battery.least_headroom({"checks": checks})
    assert name == "tight" and headroom == pytest.approx(2.0)
    # a measure of 0 counts as infinite headroom; a NaN measure as none
    assert battery.least_headroom({"checks": checks[:1]}) == (math.inf, "exact")
    with_nan = checks + [entry("nan", math.nan, 1e-12)]
    assert battery.least_headroom({"checks": with_nan}) == (-math.inf, "nan")
    # a failed check without a measure (a non-finite one) has none either
    with_null = checks + [entry("null", None, 1e-12)]
    assert battery.least_headroom({"checks": with_null}) == (-math.inf, "null")
    assert battery.least_headroom({"checks": checks[3:]}) == (math.inf, None)
