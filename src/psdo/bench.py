"""Timing harness for the hot operations; emits CSV rows
(op, n, wall_ns, throughput) with throughput in grid entries per second."""

import time

import numpy as np

from .errors import InvalidParams
from .grid import GridSpec, Signal, Symbol, OperatorMatrix, _count
from .quantizer import MatrixParam, quantize
from .calculus import sharp
from .modspace import MixedNormParams, modulation_norm
from .schatten import singular_values

__all__ = ["run_bench", "format_csv"]


def _time_ns(fn) -> int:
    """Best wall time of fn over at least 3 runs and 20 ms, so one load spike cannot set it."""
    times = []
    while len(times) < 3 or sum(times) < 20_000_000:
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return min(times)


def run_bench(sizes, d: int, seed: int = 0) -> list:
    """Benchmark quantize, sharp, modulation_norm and singular_values."""
    if not sizes:
        raise InvalidParams("need at least one grid size")
    seed = _count("seed", seed, minimum=0)
    rows = []
    for n in sizes:
        grid = GridSpec(d, n)
        rng = np.random.default_rng(seed)
        a = Symbol.random(grid, rng)
        b = Symbol.random(grid, rng)
        f = Signal.random(grid, rng)
        T = OperatorMatrix(grid, rng.standard_normal((grid.size, grid.size))
                           + 1j * rng.standard_normal((grid.size, grid.size)))
        A = MatrixParam.weyl(d)
        entries = grid.size**2
        cases = (
            ("quantize", lambda: quantize(a, A)),
            ("sharp", lambda: sharp(a, b, A)),
            ("modulation_norm", lambda: modulation_norm(f, MixedNormParams(2, 2))),
            ("singular_values", lambda: singular_values(T)),
        )
        for op, fn in cases:
            ns = _time_ns(fn)
            rows.append({"op": op, "n": n, "wall_ns": ns,
                         "throughput": entries / (ns * 1e-9)})
    return rows


def scaling_note(rows) -> str:
    """Informational: log-log slope of quantize wall time vs n (sub-quartic
    expected for d=1 along the FFT paths)."""
    pts = [(r["n"], r["wall_ns"]) for r in rows if r["op"] == "quantize"]
    if len(pts) < 2:
        return "scaling: need at least two sizes"
    ns = np.log([p[0] for p in pts])
    ts = np.log([p[1] for p in pts])
    slope = float(np.polyfit(ns, ts, 1)[0])
    verdict = "sub-quartic" if slope < 4.0 else "NOT sub-quartic"
    return f"scaling: quantize wall time ~ n^{slope:.2f} ({verdict}; informational)"


def format_csv(rows) -> str:
    out = ["op,n,wall_ns,throughput"]
    for r in rows:
        out.append(f"{r['op']},{r['n']},{r['wall_ns']},{r['throughput']:.6g}")
    return "\n".join(out) + "\n"
