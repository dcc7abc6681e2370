import json

import numpy as np
import pytest

from psdo import (GridSpec, MixedNormParams, SchemeSpec, Signal, Symbol, as_matrix_param, make_weight,
                  modulation_norm, multiplier_route, quantize, quantize_scheme, schatten_norm, sharp, stft,
                  symbol_transfer, wigner)
from psdo.arrays import read_array, write_array
from psdo.cli import OP_COMMANDS, build_parser, main
from psdo.modspace import INF, trivial_weight


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_symbol(path, data=None, n=9, mode="real"):
    g = GridSpec(1, n, mode)
    if data is None:
        data = np.ones((n, n), dtype=complex)
    write_array(path, data, g)
    return g


def test_quantize_constant_symbol(tmp_path, capsys):
    apath = tmp_path / "a.bin"
    _write_symbol(apath)
    out = tmp_path / "K.bin"
    code, stdout, _ = run_cli(capsys, "quantize", "--n", "9", "--d", "1",
                              "--input", f"a={apath}", "--params", '{"A": [0.0]}',
                              "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["hermiticity_defect"] <= 1e-12
    K, grid = read_array(out)
    np.testing.assert_allclose(K, np.eye(9), atol=1e-13)
    assert grid.n == 9


def test_quantize_weyl_hermiticity_reported(tmp_path, capsys, rng):
    apath = tmp_path / "a.csv"
    _write_symbol(apath, rng.standard_normal((9, 9)).astype(complex))
    code, stdout, _ = run_cli(capsys, "quantize", "--input", f"a={apath}",
                              "--params", '{"A": [0.5]}', "--out", str(tmp_path / "K.csv"))
    assert code == 0
    assert json.loads(stdout)["hermiticity_defect"] <= 1e-11


def test_quantize_hermiticity_defect_is_max_abs_of_k_minus_k_star(tmp_path, capsys, rng):
    apath = tmp_path / "a.bin"
    _write_symbol(apath, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    out = tmp_path / "K.bin"
    code, stdout, _ = run_cli(capsys, "quantize", "--input", f"a={apath}",
                              "--params", '{"A": [0.37]}', "--out", str(out))
    assert code == 0
    K, _ = read_array(out)
    defect = json.loads(stdout)["hermiticity_defect"]
    assert defect == float(np.abs(K - K.conj().T).max()) > 0.1


def test_quantize_kernel_route(tmp_path, capsys, rng):
    # the default route "kernel" runs quantize; "multiplier" runs the
    # independent Op_0(T_A a) construction, and each echoes its name
    apath = tmp_path / "a.bin"
    _write_symbol(apath, rng.standard_normal((9, 9)).astype(complex))
    outm, outk = tmp_path / "Km.bin", tmp_path / "Kk.bin"
    code, stdout, _ = run_cli(capsys, "quantize", "--input", f"a={apath}",
                              "--params", '{"A": [0.37], "route": "multiplier"}', "--out", str(outm))
    assert code == 0 and json.loads(stdout)["route"] == "multiplier"
    code, stdout, _ = run_cli(capsys, "quantize", "--input", f"a={apath}",
                              "--params", '{"A": [0.37]}', "--out", str(outk))
    assert code == 0 and json.loads(stdout)["route"] == "kernel"
    Km, _ = read_array(outm)
    Kk, _ = read_array(outk)
    assert np.abs(Km - Kk).max() <= 1e-12 * np.linalg.norm(Km)

    code, _, _ = run_cli(capsys, "quantize", "--input", f"a={apath}",
                         "--params", '{"route": "sideways"}', "--out", str(outm))
    assert code == 3


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "quantize", "--input", f"a={tmp_path}/ghost.bin",
                           "--out", str(tmp_path / "K.bin"))
    assert code == 2
    assert "i/o" in err


def test_grid_mismatch_is_validation_error(tmp_path, capsys):
    apath = tmp_path / "a.bin"
    _write_symbol(apath, n=5)
    code, _, err = run_cli(capsys, "quantize", "--n", "9", "--input", f"a={apath}",
                           "--out", str(tmp_path / "K.bin"))
    assert code == 3
    assert "grid" in err


def test_mode_mismatch_is_validation_error(tmp_path, capsys, rng):
    apath = tmp_path / "a.bin"
    _write_symbol(apath, rng.standard_normal((9, 9)).astype(complex), mode="mod")
    code, _, _ = run_cli(capsys, "quantize", "--mode", "mod", "--input", f"a={apath}",
                         "--params", '{"A": [0.5]}', "--out", str(tmp_path / "K.bin"))
    assert code == 3


def test_manifest_route_and_operation_check(tmp_path, capsys):
    apath = tmp_path / "a.bin"
    _write_symbol(apath)
    manifest = {
        "grid": {"d": 1, "n": 9, "mode": "real"},
        "inputs": {"a": str(apath)},
        "operation": "quantize",
        "params": {"A": [0.0]},
        "seed": 0,
        "output": str(tmp_path / "K.bin"),
    }
    mpath = tmp_path / "job.json"
    mpath.write_text(json.dumps(manifest))
    code, stdout, _ = run_cli(capsys, "quantize", "--manifest", str(mpath))
    assert code == 0 and json.loads(stdout)["frobenius_norm"] == pytest.approx(3.0)

    code, _, err = run_cli(capsys, "transfer", "--manifest", str(mpath))
    assert code == 3 and "does not match" in err


def test_modnorm_l2(tmp_path, capsys, rng):
    g = GridSpec(1, 9)
    f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    fpath = tmp_path / "f.bin"
    write_array(fpath, f, g)
    code, stdout, _ = run_cli(capsys, "modnorm", "--input", f"f={fpath}",
                              "--params", '{"p": 2, "q": 2}', "--out", str(tmp_path / "v.json"))
    assert code == 0
    result = json.loads(stdout)
    assert result["value"] == pytest.approx(float(np.linalg.norm(f)), rel=1e-12)
    assert json.loads((tmp_path / "v.json").read_text())["value"] == result["value"]


def test_schatten_identity_norm(tmp_path, capsys):
    g = GridSpec(1, 9)
    tpath = tmp_path / "t.bin"
    write_array(tpath, np.eye(9, dtype=complex), g)
    code, stdout, _ = run_cli(capsys, "schatten", "--input", f"t={tpath}",
                              "--params", '{"p": 2}', "--out", str(tmp_path / "s.json"))
    assert code == 0
    assert json.loads(stdout)["value"] == pytest.approx(3.0)


def test_compose_with_unit_symbol(tmp_path, capsys, rng):
    g = GridSpec(1, 9)
    b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    write_array(tmp_path / "a.bin", np.ones((9, 9), dtype=complex), g)
    write_array(tmp_path / "b.bin", b, g)
    code, _, _ = run_cli(capsys, "compose", "--input", f"a={tmp_path}/a.bin",
                         "--input", f"b={tmp_path}/b.bin", "--params", '{"A": [0.5]}',
                         "--out", str(tmp_path / "c.bin"))
    assert code == 0
    c, _ = read_array(tmp_path / "c.bin")
    assert np.abs(c - b).max() <= 1e-11 * np.linalg.norm(b)


def test_wigner_and_stft_commands(tmp_path, capsys, rng):
    g = GridSpec(1, 9)
    f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    phi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    write_array(tmp_path / "f.bin", f, g)
    write_array(tmp_path / "phi.bin", phi, g)
    code, _, _ = run_cli(capsys, "stft", "--input", f"f={tmp_path}/f.bin",
                         "--input", f"phi={tmp_path}/phi.bin", "--out", str(tmp_path / "V.bin"))
    assert code == 0
    V, _ = read_array(tmp_path / "V.bin")
    assert abs(np.linalg.norm(V) - np.linalg.norm(f) * np.linalg.norm(phi)) <= 1e-11

    code, _, _ = run_cli(capsys, "wigner", "--input", f"f1={tmp_path}/f.bin",
                         "--input", f"f2={tmp_path}/phi.bin", "--params", '{"A": [0.5]}',
                         "--out", str(tmp_path / "W.bin"))
    assert code == 0


def test_scheme_command(tmp_path, capsys, rng):
    apath = tmp_path / "a.bin"
    _write_symbol(apath, rng.standard_normal((9, 9)).astype(complex))
    code, stdout, _ = run_cli(capsys, "scheme", "--input", f"a={apath}",
                              "--params", '{"scheme": {"kind": "born_jordan"}}',
                              "--out", str(tmp_path / "K.bin"))
    assert code == 0
    assert json.loads(stdout)["params_echo"]["kind"] == "born_jordan"

    code, _, _ = run_cli(capsys, "scheme", "--input", f"a={apath}",
                         "--params", '{"scheme": {"kind": "bogus"}}',
                         "--out", str(tmp_path / "K.bin"))
    assert code == 3


def test_scheme_with_too_many_time_nodes_exits_3(tmp_path, capsys):
    # 1415^2 entries of the Gauss-Legendre companion matrix exceed FOURD_LIMIT,
    # so the job stops with SizeLimit before the matrix is built
    apath = tmp_path / "a.bin"
    _write_symbol(apath, n=3)
    params = {"scheme": {"kind": "un_avg_time", "params": {"r": 0.5, "t_nodes": 1415}}}
    code, _, err = run_cli(capsys, "scheme", "--n", "3", "--input", f"a={apath}",
                           "--params", json.dumps(params), "--out", str(tmp_path / "K.bin"))
    assert code == 3 and "SizeLimit" in err and "1415 Gauss-Legendre nodes" in err
    assert not (tmp_path / "K.bin").exists()


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, rng):
    assert build_parser() is build_parser()
    g = GridSpec(1, 9)
    a1, a2 = (rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)) for _ in range(2))
    p1, p2 = tmp_path / "a1.bin", tmp_path / "a2.bin"
    write_array(p1, a1, g)
    write_array(p2, a2, g)
    jobs = ((a1, p1, 0.37, tmp_path / "K1.bin"), (a2, p2, 0.5, tmp_path / "K2.bin"))
    for _, path, A, out in jobs:
        code, _, _ = run_cli(capsys, "quantize", "-i", f"a={path}",
                             "--params", json.dumps({"A": [A]}), "--out", str(out))
        assert code == 0
    for a, _, A, out in jobs:
        np.testing.assert_array_equal(read_array(out)[0], quantize(Symbol(g, a), A).data)
    code, _, _ = run_cli(capsys, "compose", "-i", f"a={p1}", "-i", f"b={p2}",
                         "--params", '{"A": [0.25]}', "--out", str(tmp_path / "c.bin"))
    assert code == 0
    c, _ = read_array(tmp_path / "c.bin")
    np.testing.assert_array_equal(c, sharp(Symbol(g, a1), Symbol(g, a2), 0.25).data)
    # -i appends to a fresh list per call: input b of the last job is gone
    code, _, err = run_cli(capsys, "compose", "-i", f"a={p1}", "--out", str(tmp_path / "d.bin"))
    assert code == 3 and "'b'" in err
    assert not (tmp_path / "d.bin").exists()


def test_transfer_roundtrip(tmp_path, capsys, rng):
    g = GridSpec(1, 9)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    write_array(tmp_path / "a.bin", a, g)
    code, _, _ = run_cli(capsys, "transfer", "--input", f"a={tmp_path}/a.bin",
                         "--params", '{"A": [0.37]}', "--out", str(tmp_path / "ta.bin"))
    assert code == 0
    ta, _ = read_array(tmp_path / "ta.bin")
    assert abs(np.linalg.norm(ta) - np.linalg.norm(a)) <= 1e-11 * np.linalg.norm(a)


def test_verify_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli(capsys, "verify", "schemes", "--n", "9", "--d", "1", "--seed", "42")
    assert code == 0
    assert "checks passed" in stdout
    assert (tmp_path / "psdo_verify_report.json").exists()

    code, _, err = run_cli(capsys, "verify", "all", "--n", "8", "--d", "1")
    assert code == 3

    # N = 13**3: not one STFT column of N^2 entries fits the budget
    code, _, err = run_cli(capsys, "verify", "all", "--n", "13", "--d", "3")
    assert code == 3 and "SizeLimit" in err


def test_verify_refuses_an_over_budget_grid_before_any_check(tmp_path, capsys, monkeypatch):
    # a budget below N^2 = 81 at n=9, d=1 admits not one STFT column
    import importlib

    import psdo.verify as verify_mod
    from psdo.errors import SizeLimit

    wigner_mod = importlib.import_module("psdo.wigner")  # psdo.wigner is also the function
    ran = []
    sentinel = verify_mod.CheckDef("sentinel", "schemes", "sentinel", 0.0, lambda ctx: ran.append(ctx) or [0.0])
    monkeypatch.setattr(verify_mod, "CHECKS", [sentinel])
    monkeypatch.setattr(wigner_mod, "FOURD_LIMIT", 80)
    with pytest.raises(SizeLimit, match="one STFT column has 81 entries"):
        verify_mod.run_suite("schemes", 9, 1, 0)
    path = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "verify", "schemes", "--n", "9", "--json-out", str(path))
    assert code == 3 and "SizeLimit: one STFT column has 81 entries" in err
    assert ran == [] and not path.exists()
    monkeypatch.setattr(wigner_mod, "FOURD_LIMIT", 81)
    assert verify_mod.run_suite("schemes", 9, 1, 0)["passed"] and len(ran) == 1


def test_verify_d3_skips_the_orthogonal_averages():
    # O(3) has no Haar nodes: the checks that average over it are skipped
    # with UnsupportedDimension's message, every other check runs
    from psdo.errors import UnsupportedDimension
    from psdo.schemes import _orthogonal_nodes
    from psdo.verify import run_suite

    with pytest.raises(UnsupportedDimension) as exc:
        _orthogonal_nodes(3, 16)
    report = run_suite("schemes", 3, 3, 7)
    assert report["passed"]
    skipped = {c["name"]: c["note"] for c in report["checks"] if c["skipped"]}
    names = ("un_avg_multiplier_route", "un_avg_linearity", "scheme_hermiticity")
    assert skipped == dict.fromkeys(names, str(exc.value))


def test_op_commands_take_no_seed(tmp_path, capsys):
    # only verify and bench draw random numbers, so only they take --seed
    for name in OP_COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([name, "--seed", "1", "--out", str(tmp_path / "out.bin")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert build_parser().parse_args(["verify", "--seed", "3"]).seed == 3
    assert build_parser().parse_args(["bench", "--seed", "3"]).seed == 3


def test_quantize_nan_matrix_param_exits_3(tmp_path, capsys):
    apath = tmp_path / "a.bin"
    _write_symbol(apath)
    for params in ('{"A": NaN}', '{"A": [Infinity]}'):
        code, _, err = run_cli(capsys, "quantize", "--n", "9", "--input", f"a={apath}",
                               "--params", params, "--out", str(tmp_path / "K.bin"))
        assert code == 3 and "finite" in err
    assert not (tmp_path / "K.bin").exists()


def test_verify_bad_thread_count_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PSDO_THREADS", "abc")
    code, _, err = run_cli(capsys, "verify", "schatten", "--n", "9",
                           "--json-out", str(tmp_path / "r.json"))
    assert code == 3 and "PSDO_THREADS" in err
    monkeypatch.setenv("PSDO_THREADS", "2")
    assert run_cli(capsys, "verify", "schatten", "--n", "9",
                   "--json-out", str(tmp_path / "r.json"))[0] == 0


def test_verify_report_reproducible(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli(capsys, "verify", "calculus", "--n", "9", "--seed", "7",
                   "--json-out", str(p1))[0] == 0
    assert run_cli(capsys, "verify", "calculus", "--n", "9", "--seed", "7",
                   "--json-out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_report_matches_schema(tmp_path, capsys):
    from psdo.validation import validate

    path = tmp_path / "r.json"
    assert run_cli(capsys, "verify", "schatten", "--n", "9", "--json-out", str(path))[0] == 0
    validate(json.loads(path.read_text()), "verify_report")


def test_verify_json_format_on_stdout(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "verify", "schatten", "--n", "9", "--format", "json",
                              "--json-out", str(tmp_path / "r.json"))
    assert code == 0
    report = json.loads(stdout)
    assert report["suite"] == "schatten" and report["passed"]
    assert stdout.encode() == (tmp_path / "r.json").read_bytes()


def test_verify_threaded_report_identical(tmp_path, capsys, monkeypatch):
    # PSDO_THREADS parallelism must not change the report bytes
    p1, p2 = tmp_path / "seq.json", tmp_path / "par.json"
    assert run_cli(capsys, "verify", "wigner", "--n", "9", "--seed", "3",
                   "--json-out", str(p1))[0] == 0
    monkeypatch.setenv("PSDO_THREADS", "4")
    assert run_cli(capsys, "verify", "wigner", "--n", "9", "--seed", "3",
                   "--json-out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_timing_sidecar(tmp_path, capsys, monkeypatch):
    # --timing-out writes each check's wall time beside a report whose bytes
    # do not change, threaded or not
    plain, timed, timing = tmp_path / "plain.json", tmp_path / "timed.json", tmp_path / "timing.json"
    assert run_cli(capsys, "verify", "modspace", "--n", "9", "--seed", "3",
                   "--json-out", str(plain))[0] == 0
    for threads in ("1", "2"):
        monkeypatch.setenv("PSDO_THREADS", threads)
        assert run_cli(capsys, "verify", "modspace", "--n", "9", "--seed", "3",
                       "--json-out", str(timed), "--timing-out", str(timing))[0] == 0
        assert timed.read_bytes() == plain.read_bytes()
        sidecar = json.loads(timing.read_text())
        names = [c["name"] for c in json.loads(plain.read_text())["checks"]]
        assert [c["name"] for c in sidecar["checks"]] == names
        assert all(c["wall_s"] > 0 for c in sidecar["checks"])
        assert sidecar["total_s"] == sum(c["wall_s"] for c in sidecar["checks"])
        assert (sidecar["suite"], sidecar["n"], sidecar["d"], sidecar["seed"]) == ("modspace", 9, 1, 3)


def test_verify_table_prints_skip_reason(tmp_path, capsys):
    # at n=9 d=2 the symbol norm would read 81**4 STFT entries, over FOURD_LIMIT
    from psdo.wigner import FOURD_LIMIT

    path = tmp_path / "r.json"
    code, stdout, _ = run_cli(capsys, "verify", "modspace", "--n", "9", "--d", "2",
                              "--json-out", str(path))
    assert code == 0
    note = f"symbol norm reads all {81**2} STFT columns, {81**4} entries (cap {FOURD_LIMIT})"
    skipped = [c for c in json.loads(path.read_text())["checks"] if c["skipped"]]
    assert [c["name"] for c in skipped] == ["symbol_modulation_norm_l2"]
    rows = {line.split()[0]: line for line in stdout.splitlines()[2:-1]}
    for c in skipped:
        assert c["note"] == note
        assert rows[c["name"]].endswith(f"SKIP: {note}")
    assert stdout.count("SKIP") == 1


def test_verify_exit_one_on_failure(tmp_path, capsys, monkeypatch):
    import psdo.verify as verify_mod

    failing = verify_mod.CheckDef("always_fails", "schemes", "sentinel", 0.0, lambda ctx: [1.0])
    monkeypatch.setattr(verify_mod, "CHECKS", [failing])
    code, stdout, _ = run_cli(capsys, "verify", "schemes", "--n", "9",
                              "--json-out", str(tmp_path / "r.json"))
    assert code == 1 and "FAIL" in stdout


def test_bench_csv_shape(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "bench", "--sizes", "9", "--out", str(tmp_path / "b.csv"))
    assert code == 0
    lines = (tmp_path / "b.csv").read_text().strip().splitlines()
    assert lines[0] == "op,n,wall_ns,throughput"
    assert len(lines) == 5
    assert all(int(line.split(",")[2]) > 0 for line in lines[1:])

    code, _, _ = run_cli(capsys, "bench", "--sizes", "")
    assert code == 3


@pytest.mark.parametrize("argv, needle", [
    (["verify", "schatten", "--n", "3", "--seed", "-1"], "seed"),
    (["bench", "--sizes", "3", "--seed", "-1"], "seed"),
    (["bench", "--sizes", "a"], "--sizes"),
    (["bench", "--sizes", "3,b"], "--sizes"),
])
def test_bad_seeds_and_sizes_exit_3(tmp_path, capsys, monkeypatch, argv, needle):
    # numpy's or int()'s raw ValueError, with a traceback, not exit 3; no
    # report is written
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 3 and needle in err and stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_bench_wall_times_grow_with_n():
    from psdo.bench import run_bench

    rows = run_bench([9, 33], d=1)
    t = {(r["op"], r["n"]): r["wall_ns"] for r in rows}
    assert t[("quantize", 33)] > t[("quantize", 9)]


def test_cli_entry_module():
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-m", "psdo", "verify", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and "calculus" in out.stdout


def _pin_job(command, grid, rng):
    """One op job's inputs and params, and what the library gives for them
    directly: (inputs, params, output array or None, stdout object)."""
    d, N = grid.d, grid.size

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if grid.mode == "mod":
        A = [1] if d == 1 else [1, 2, 0, 1]
    else:
        A = [0.37] if d == 1 else [0.37, -0.2, 0.15, 0.5]
    Ap = as_matrix_param(np.asarray(A, dtype=float).reshape(d, d), d)
    if command in ("wigner", "stft"):
        f, g = Signal(grid, draw(N)), Signal(grid, draw(N))
        names = ("f1", "f2") if command == "wigner" else ("f", "phi")
        out = wigner(f, g, Ap) if command == "wigner" else stft(f, g)
        params = {"A": A} if command == "wigner" else {}
        return dict(zip(names, (f.data, g.data))), params, out.data, {"frobenius_norm": out.norm()}
    if command == "modnorm":
        f, phi = Signal(grid, draw(N)), Signal(grid, draw(N))
        desc = {"kind": "polynomial", "params": {"s": 1}}
        omega = make_weight("polynomial", s=1)
        value = modulation_norm(f, MixedNormParams(1.0, 2.0), omega, phi)
        echo = {"p": 1.0, "q": 2.0, "weight": omega.descriptor()}
        return {"f": f.data, "phi": phi.data}, {"p": 1, "q": 2, "weight": desc}, None, \
            {"value": value, "params_echo": echo}
    a, b = Symbol(grid, draw((N, N))), Symbol(grid, draw((N, N)))
    if command == "schatten":
        return {"t": a.data}, {"p": 1}, None, {"value": schatten_norm(a.data, 1.0), "params_echo": {"p": 1.0}}
    if command == "quantize":
        route = "multiplier" if d == 2 else "kernel"
        K = (multiplier_route if d == 2 else quantize)(a, Ap)
        defect = float(np.abs(K.data - K.data.conj().T).max())
        return {"a": a.data}, {"A": A, "route": route}, K.data, \
            {"frobenius_norm": K.norm(), "hermiticity_defect": defect, "route": route}
    if command == "scheme":
        if grid.mode == "mod":
            desc = {"kind": "t", "params": {"t": 1}}
        elif d == 1:
            desc = {"kind": "born_jordan"}
        else:
            desc = {"kind": "un_avg", "params": {"r": 0.3, "angle_nodes": 4}}
        K = quantize_scheme(a, SchemeSpec.from_descriptor(desc))
        return {"a": a.data}, {"scheme": desc}, K.data, {"frobenius_norm": K.norm(), "params_echo": desc}
    if command == "compose":
        c = sharp(a, b, Ap)
        return {"a": a.data, "b": b.data}, {"A": A}, c.data, {"frobenius_norm": c.norm()}
    ta = symbol_transfer(a, Ap)
    return {"a": a.data}, {"A": A}, ta.data, {"frobenius_norm": ta.norm()}


@pytest.mark.parametrize("mode", ["real", "mod"])
@pytest.mark.parametrize("d, n", [(1, 9), (2, 5)])
@pytest.mark.parametrize("command", OP_COMMANDS)
def test_op_commands_match_library(tmp_path, capsys, rng, command, d, n, mode):
    # stdout (keys, key order, values) and the output file's bytes are those
    # of the direct library call, its array written with write_array
    grid = GridSpec(d, n, mode)
    inputs, params, array, echo = _pin_job(command, grid, rng)
    argv = [command, "--n", str(n), "--d", str(d), "--mode", mode, "--params", json.dumps(params)]
    for name, data in inputs.items():
        write_array(tmp_path / f"{name}.bin", data, grid)
        argv += ["-i", f"{name}={tmp_path}/{name}.bin"]
    suffix = ".json" if array is None else (".csv" if d == 1 else ".bin")
    out = tmp_path / f"out{suffix}"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, err) == (0, "")
    assert stdout == json.dumps(echo) + "\n"
    if array is None:
        assert out.read_text() == stdout
    else:
        write_array(tmp_path / f"want{suffix}", array, grid)
        assert out.read_bytes() == (tmp_path / f"want{suffix}").read_bytes()


@pytest.mark.parametrize("command, params, needle", [
    ("quantize", {"A": [1, 2, 3]}, "matrix parameter A"),
    ("quantize", {"A": "abc"}, "matrix parameter A"),
    ("quantize", {"A": [[0.5], ["x"]]}, "matrix parameter A"),
    ("quantize", {"route": ["x"]}, "route"),
    ("schatten", {"p": "x"}, "'p'"),
    ("modnorm", {"q": "x"}, "'q'"),
    ("modnorm", {"weight": {"kind": "polynomial", "params": {}}}, "'s'"),
    ("modnorm", {"weight": {"kind": "product"}}, "'factors'"),
    ("modnorm", {"weight": {"kind": "exponential", "params": {"c": "x", "s": 1}}}, "'c'"),
    ("scheme", {"scheme": {"kind": "t", "params": {"t": "x"}}}, "'t'"),
    ("scheme", {"scheme": {"kind": "un_avg", "params": {"r": "x"}}}, "'r'"),
    ("scheme", {"scheme": {"kind": "un_avg", "params": {"angle_nodes": "x"}}}, "'angle_nodes'"),
    ("quantize", {"A": True}, "matrix parameter A"),
    ("quantize", {"A": [True]}, "matrix parameter A"),
    ("quantize", {"A": [[True]]}, "matrix parameter A"),
    ("modnorm", {"p": True}, "InvalidExponent: parameter 'p'"),
    ("modnorm", {"q": True}, "InvalidExponent: parameter 'q'"),
    ("schatten", {"p": True}, "InvalidExponent: parameter 'p'"),
    ("schatten", {"p": 10**400}, "InvalidExponent: parameter 'p'"),
    ("modnorm", {"weight": {"kind": "polynomial", "params": {"s": float("nan")}}}, "'s' must be finite"),
    ("modnorm", {"weight": {"kind": "exponential", "params": {"c": float("inf"), "s": 1}}}, "'c' must be finite"),
    ("modnorm", {"weight": {"kind": "polynomial", "params": {"s": True}}}, "'s'"),
    ("modnorm", {"weight": {"kind": "polynomial", "params": {"s": "1"}}}, "'s'"),
    ("quantize", {"A": "0.5"}, "matrix parameter A"),
    ("modnorm", {"p": 10**400}, "InvalidExponent: parameter 'p'"),
    ("modnorm", {"q": "2"}, "InvalidExponent: parameter 'q'"),
    ("modnorm", {"p": float("nan")}, "InvalidExponent: parameter 'p'"),
    ("modnorm", {"q": -float("inf")}, "InvalidExponent: parameter 'q'"),
    ("modnorm", {"p": 0}, "InvalidExponent: parameter 'p'"),
    ("schatten", {"p": 0}, "InvalidExponent: parameter 'p'"),
    # exp(1e308 |X|) overflowed with RuntimeWarnings to an infinite norm
    ("modnorm", {"weight": {"kind": "exponential", "params": {"c": 1e308, "s": 1}}}, "float range"),
    # a key the kind does not take was ignored, or, named axes or kind,
    # died with a raw TypeError
    ("scheme", {"scheme": {"kind": "un_avg", "params": {"r": 0.5, "angle_node": 2}}}, "'angle_node'"),
    ("modnorm", {"weight": {"kind": "polynomial", "params": {"s": 1, "sigma": 2}}}, "'sigma'"),
    ("modnorm", {"weight": {"kind": "polynomial", "params": {"s": 1, "axes": ["pos"]}}}, "'axes'"),
    ("modnorm", {"weight": {"kind": "exponential", "params": {"c": 1, "s": 1, "kind": "x"}}}, "'kind'"),
    ("modnorm", {"weight": {"kind": "product", "params": {"factors": [
        {"kind": "polynomial", "axes": ["pos"], "params": {"s": 1}},
        {"kind": "polynomial", "axes": ["freq"], "params": {"s": 1, "t": 0}}]}}}, "'t'"),
    # a key the command does not read was ignored: quantize ran at A = 0,
    # modnorm at q = 2
    ("quantize", {"AA": 0.5}, "quantize takes no parameter 'AA'"),
    ("modnorm", {"p": 2, "qq": 1}, "modnorm takes no parameter 'qq'"),
    ("schatten", {"A": 1}, "schatten takes no parameter 'A'"),
])
def test_malformed_params_exit_3_naming_the_parameter(tmp_path, capsys, command, params, needle):
    g = GridSpec(1, 9)
    name, shape = {"quantize": ("a", (9, 9)), "scheme": ("a", (9, 9)),
                   "schatten": ("t", (9, 9)), "modnorm": ("f", (9,))}[command]
    write_array(tmp_path / "x.bin", np.ones(shape, dtype=complex), g)
    out = tmp_path / ("v.json" if command in ("schatten", "modnorm") else "K.bin")
    code, stdout, err = run_cli(capsys, command, "-i", f"{name}={tmp_path}/x.bin",
                                "--params", json.dumps(params), "--out", str(out))
    assert code == 3 and needle in err and stdout == ""
    assert not out.exists()


def test_an_input_the_command_does_not_read_exits_3_naming_it(tmp_path, capsys):
    # quantize -i a=... -i b=... ran on a and ignored b
    g = GridSpec(1, 9)
    write_array(tmp_path / "x.bin", np.ones((9, 9), dtype=complex), g)
    out = tmp_path / "K.bin"
    code, stdout, err = run_cli(capsys, "quantize", "-i", f"a={tmp_path}/x.bin", "-i", f"b={tmp_path}/x.bin",
                                "--out", str(out))
    assert code == 3 and "quantize takes no input 'b'; it takes 'a'" in err and stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command, name, shape", [
    ("modnorm", "f", (9,)), ("quantize", "a", (9, 9)), ("schatten", "t", (9, 9))])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_input_file_exits_3_naming_the_file(tmp_path, capsys, command, name, shape, bad):
    # a NaN entry once gave exit 0 with a NaN in the output (or, for
    # schatten, a raw "SVD did not converge" traceback)
    data = np.ones(shape, dtype=complex)
    data.flat[3] = bad
    path = tmp_path / "x.bin"
    write_array(path, data, GridSpec(1, 9))
    out = tmp_path / ("v.json" if command != "quantize" else "K.bin")
    code, stdout, err = run_cli(capsys, command, "-i", f"{name}={path}", "--out", str(out))
    assert code == 3 and str(path) in err and "non-finite" in err and stdout == ""
    assert not out.exists()


def test_a_non_finite_result_is_refused_before_anything_is_written(tmp_path, capsys):
    # the CLI writes strict JSON, as verify's report does
    from psdo.cli import _write_array_result, _write_scalar_result
    from psdo.errors import ValidationError

    out = tmp_path / "v.json"
    with pytest.raises(ValidationError, match="not finite"):
        _write_scalar_result(str(out), float("nan"), {"p": 2.0})
    K = Symbol(GridSpec(1, 3), np.full((3, 3), np.inf, dtype=complex))
    with pytest.raises(ValidationError, match="not finite"):
        _write_array_result(str(tmp_path / "K.bin"), K)
    assert not out.exists() and not (tmp_path / "K.bin").exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, name, shape, params", [
    ("schatten", "t", (9, 9), {"p": INF}),
    ("modnorm", "f", (9,), {"p": INF, "q": INF}),
])
def test_an_infinite_exponent_is_echoed_as_inf(tmp_path, capsys, rng, command, name, shape, params):
    # JSON has no infinity; 1e999 parses to one, and the echo spells it
    # "inf", as the library's exponents do, so the output stays strict JSON
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    write_array(tmp_path / "x.bin", data, GridSpec(1, 9))
    raw = json.dumps({k: 1.0 for k in params}).replace("1.0", "1e999")
    code, stdout, err = run_cli(capsys, command, "-i", f"{name}={tmp_path}/x.bin", "--params", raw,
                                "--out", str(tmp_path / "v.json"))
    assert (code, err) == (0, "")
    line = json.loads(stdout)
    if command == "schatten":
        assert line == {"value": schatten_norm(data, INF), "params_echo": {"p": "inf"}}
    else:
        f = Signal(GridSpec(1, 9), data)
        want = modulation_norm(f, MixedNormParams(INF, INF), trivial_weight())
        assert line["value"] == want and line["params_echo"]["p"] == line["params_echo"]["q"] == "inf"
    assert (tmp_path / "v.json").read_text() == stdout
