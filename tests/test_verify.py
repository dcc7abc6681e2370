"""The verify registry's fold over draws: a NaN or an infinity on any draw
fails its check, and the report stays strict JSON that validates against
the published schema."""

import json
import math
import zlib

import numpy as np
import pytest

import psdo.verify as verify
from psdo.cli import main
from psdo.errors import SizeLimit
from psdo.grid import GridSpec
from psdo.validation import validate


def _check(name):
    (cd,) = [c for c in verify.CHECKS if c.name == name]
    return cd


def _poison(monkeypatch, owner, attr, value, on_call):
    """Make owner.attr return `value` in place of its result on call number
    `on_call` (every call when None): a float, or the array result filled
    with `value`."""
    original = getattr(owner, attr)
    calls = []

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        if on_call is not None and len(calls) != on_call:
            return out
        if isinstance(out, float):
            return value
        return type(out)(out.grid, np.full_like(out.data, value))

    monkeypatch.setattr(owner, attr, poisoned)


def _verify_one(monkeypatch, capsys, tmp_path, cd):
    """`psdo verify` with cd as the registry's only check: (exit code,
    stdout, the report read back)."""
    monkeypatch.setattr(verify, "CHECKS", [cd])
    path = tmp_path / "r.json"
    code = main(["verify", cd.suite, "--n", "9", "--seed", "7", "--json-out", str(path)])
    report = json.loads(path.read_text())
    return code, capsys.readouterr().out, report


def _assert_failed_without_measure(code, stdout, report, value):
    (entry,) = report["checks"]
    note = f"non-finite measure {value}"
    assert code == 1 and not report["passed"]
    assert entry["passed"] is False and entry["measure"] is None and entry["note"] == note
    validate(report, "verify_report")
    json.dumps(report, allow_nan=False)
    assert stdout.splitlines()[2].endswith(f"FAIL: {note}")


# one folding check per suite, with the call that feeds one of its draws
@pytest.mark.parametrize("name, owner, attr", [
    ("transfer_composition", verify, "symbol_transfer"),
    ("rank_one", verify, "wigner"),
    ("modulation_norm_l2", verify.ms, "modulation_norm"),
    ("symbol_hs_identity", verify, "symbol_schatten_norm"),
    ("bj_quadrature_vs_multiplier", verify, "born_jordan_quadrature"),
])
def test_a_nan_on_one_draw_fails_its_check(monkeypatch, capsys, tmp_path, name, owner, attr):
    # a running max(worst, dev) drops a NaN draw: max(0.0, nan) is 0.0
    _poison(monkeypatch, owner, attr, math.nan, on_call=2)
    _assert_failed_without_measure(*_verify_one(monkeypatch, capsys, tmp_path, _check(name)), "nan")


def test_a_nan_from_kernel_route_alone_fails_kernel_route_mod(monkeypatch):
    # quantize's deviation stays finite; max(finite, nan) would keep it
    _poison(monkeypatch, verify, "kernel_route", math.nan, on_call=None)
    entry = verify._run_check(_check("kernel_route_mod"), verify.Context(9, 1, 7))
    assert entry["passed"] is False and entry["measure"] is None
    assert entry["note"] == "non-finite measure nan"


def test_an_infinite_report_only_measure_fails(monkeypatch, capsys, tmp_path):
    cd = _check("schatten_embedding_ratios")
    assert cd.tolerance is None
    _poison(monkeypatch, verify, "symbol_schatten_norm", math.inf, on_call=2)
    _assert_failed_without_measure(*_verify_one(monkeypatch, capsys, tmp_path, cd), "inf")


def test_an_infinite_window_ratio_is_a_failed_entry_not_an_abort(monkeypatch, capsys, tmp_path):
    # the first norm under the first window is infinite: the ratio is inf
    _poison(monkeypatch, verify.ms, "modulation_norm", math.inf, on_call=1)
    _assert_failed_without_measure(
        *_verify_one(monkeypatch, capsys, tmp_path, _check("window_equivalence")), "inf")


def test_a_check_that_yields_nothing_fails():
    silent = verify.CheckDef("silent", "schemes", "sentinel", None, lambda ctx, grid, rng: iter(()))
    entry = verify._run_check(silent, verify.Context(9, 1, 7))
    assert entry["passed"] is False and entry["measure"] is None
    assert entry["note"] == "no deviation yielded"


def test_each_check_draws_from_the_stream_of_its_name(monkeypatch):
    # the runner hands each check the stream of its registered name and the
    # grid of its registered mode, in threads too
    modes = {"first": "real", "second": "mod", "third": "real"}

    def draw(ctx, grid, rng):
        yield rng.random() if grid == GridSpec(1, 9, modes[ctx.name]) else math.nan

    names = tuple(modes)
    monkeypatch.setattr(verify, "CHECKS", [verify.CheckDef(name, "schemes", "sentinel", None, draw, modes[name])
                                           for name in names])
    want = [np.random.default_rng(np.random.SeedSequence([7, zlib.crc32(name.encode())])).random()
            for name in names]
    for threads in (1, 2):
        report = verify.run_suite("schemes", 9, 1, 7, threads=threads)
        assert [c["measure"] for c in report["checks"]] == want


def test_fold_names_the_draw_that_set_the_measure():
    assert verify._fold([0.1, 0.5, 0.2, 0.5]) == (0.5, 1)  # the first maximum
    measure, draw = verify._fold([0.1, math.inf, math.nan, math.nan])
    assert math.isnan(measure) and draw == 2  # the first NaN
    assert verify._fold([0.3]) == (0.3, 0)
    assert verify._fold([]) == (None, None)


def test_timing_sidecar_writes_each_checks_worst_draw(monkeypatch, capsys, tmp_path):
    # the sidecar carries the worst draw's index, the report and table keep their bytes
    def draws(*devs):
        return lambda ctx, grid, rng: iter(devs)

    def skipped(ctx, grid, rng):
        raise SizeLimit("over the cap")
        yield

    checks = [verify.CheckDef("late", "schemes", "sentinel", 1.0, draws(0.1, 0.2, 0.7, 0.3, 0.7)),
              verify.CheckDef("first", "schemes", "sentinel", 1.0, draws(0.9, 0.2)),
              verify.CheckDef("skip", "schemes", "sentinel", 1.0, skipped)]
    monkeypatch.setattr(verify, "CHECKS", checks)
    plain, timed, timing = tmp_path / "plain.json", tmp_path / "timed.json", tmp_path / "timing.json"
    assert main(["verify", "schemes", "--n", "9", "--seed", "7", "--json-out", str(plain)]) == 0
    table = capsys.readouterr().out
    assert main(["verify", "schemes", "--n", "9", "--seed", "7", "--json-out", str(timed),
                 "--timing-out", str(timing)]) == 0
    assert capsys.readouterr().out == table and timed.read_bytes() == plain.read_bytes()
    sidecar = json.loads(timing.read_text())
    assert [(c["name"], c["worst_draw"]) for c in sidecar["checks"]] == [("late", 2), ("first", 0), ("skip", None)]
    assert all("worst_draw" not in c for c in json.loads(plain.read_text())["checks"])
