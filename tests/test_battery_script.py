import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_verify_battery.py"


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
