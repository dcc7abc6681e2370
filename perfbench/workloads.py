"""The benchmark's workloads: seeded inputs, the closed-loop operation
stream, and the correctness gate that checks every result, outside the
timed interval, against an independent route at the verify registry's
tolerances.

The program only ever sees generated inputs; which operations run, in which
order, is fixed by each workload's ``cycle``, and the seed only draws the
input values (and, for the CLI jobs, picks parameters from a small menu).
"""

import contextlib
import io
import itertools
import json
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

import psdo
import psdo.cli
import psdo.verify

# Tolerances of the verify-registry checks whose identity each gate uses.
TOL_KERNEL_ROUTE = 1e-12  # kernel_route_real: max |kernel - multiplier route|, unit symbols
TOL_ROUNDTRIP = 1e-12  # dequantize_roundtrip: relative Frobenius error
TOL_TRANSFER = 1e-11  # transfer_composition: relative Frobenius error
TOL_SHARP = 1e-11  # sharp_homomorphism: max abs error, unit symbols
TOL_UN_AVG = 1e-11  # un_avg_multiplier_route: max abs error, unit symbols
# A CLI job and the direct library call do the same arithmetic and .bin is
# bit-exact, so the tightest registry tolerance is generous.
TOL_CLI = 1e-12

VERIFY_SUITES = ("calculus", "wigner", "modspace", "schatten", "schemes")


@dataclass
class Op:
    """One closed-loop operation.  ``call`` is timed; ``check`` is not, and
    returns (attempted, failed) counted in the workload's unit of work."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


def _unit_symbol(grid, rng):
    N = grid.size
    data = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return psdo.Symbol(grid, data / np.linalg.norm(data))


def _gate(*checks):
    """One attempt, failed unless every (error, tolerance) pair holds; a NaN
    error compares false and so counts as a miss."""
    return 1, 0 if all(error <= tol for error, tol in checks) else 1


def _max_abs(x, y):
    return float(np.abs(x - y).max())


def _rel_fro(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def _kernel(symbol, A):
    """Op_A(symbol) through the independent kernel route."""
    return psdo.kernel_route(symbol, A).data


def _transfer_error(ta, a, A):
    """Op_0(T_A a) == Op_A(a); quantize at A = 0 applies no transfer."""
    return _rel_fro(psdo.quantize(ta, 0.0).data, _kernel(a, A)), TOL_TRANSFER


def _sharp_error(c, a, b, A):
    """Op_A(a # b) == Op_A(a) Op_A(b), every Op through the kernel route."""
    return _max_abs(_kernel(c, A), _kernel(a, A) @ _kernel(b, A)), TOL_SHARP


def _scheme_error(K, a, spec):
    """The scheme as a weighted sum of kernel-route quantizations, for the
    kinds defined by such a sum; None for born_jordan, whose closed form the
    verify registry checks against its quadrature."""
    d, p = a.grid.d, spec.params
    if spec.kind in ("weyl", "t"):
        t = 0.5 if spec.kind == "weyl" else p["t"]
        return _max_abs(K, _kernel(a, t)), TOL_KERNEL_ROUTE
    if spec.kind == "un_avg":  # equal-weight rotations and reflections, d = 2
        k, acc = p["angle_nodes"], 0.0
        for j in range(k):
            c, s = np.cos(2 * np.pi * j / k), np.sin(2 * np.pi * j / k)
            for U in ([[c, -s], [s, c]], [[c, s], [s, -c]]):
                acc = acc + 0.5 / k * _kernel(a, p["r"] * np.array(U) + 0.5 * np.eye(d))
        return _max_abs(K, acc), TOL_UN_AVG
    return None


class Workload:
    """A closed-loop stream of operations, each with its correctness check."""

    cycle = ()  # operation kinds of the timed stream, repeated in order
    trace_cycle = None  # kinds of the traced sample; defaults to ``cycle``
    trace_ops = 0  # operations in the traced sample
    checks_skipped = 0  # verify checks reported as skipped

    def make_op(self, kind, rng) -> Op:
        raise NotImplementedError

    def stream(self, rng, cycle=None):
        for kind in itertools.cycle(cycle or self.cycle):
            yield self.make_op(kind, rng)

    def trace_sample(self, rng):
        # lazily, since an operation may write the input files of its call
        return itertools.islice(self.stream(rng, self.trace_cycle), self.trace_ops)

    def warmup(self, rng):
        """One checked, untimed operation of each kind; returns (attempted, failed)."""
        attempted = failed = 0
        for kind in dict.fromkeys(self.cycle):
            op = self.make_op(kind, rng)
            a, f = op.check(op.call())
            attempted, failed = attempted + a, failed + f
        return attempted, failed


class VerifyWorkload(Workload):
    """``run_suite("all", n, d=1)`` with threads=1; the traced sample runs
    the same checks as one ``run_suite`` call per suite."""

    cycle = ("all",)
    trace_cycle = VERIFY_SUITES
    trace_ops = len(VERIFY_SUITES)

    def __init__(self, n):
        self.n = n

    def make_op(self, suite, rng):
        seed = int(rng.integers(2**31))

        def check(report):
            checks = report["checks"]
            skipped = sum(1 for c in checks if c["skipped"])
            self.checks_skipped += skipped
            return len(checks), skipped + sum(1 for c in checks if not c["passed"])

        return Op(suite, lambda: psdo.verify.run_suite(suite, self.n, 1, seed, threads=1), check)


class FreshWorkload(Workload):
    """Library calls in real mode, each with a fresh unit-norm random
    symbol and a fresh random real d x d matrix A, so no (grid, A) repeats."""

    cycle = ("quantize", "dequantize", "quantize", "symbol_transfer", "kernel_route",
             "quantize", "dequantize", "quantize", "symbol_transfer", "sharp")
    trace_ops = 100

    def __init__(self, n):
        self.grid = psdo.GridSpec(2, n)

    def make_op(self, kind, rng):
        g = self.grid
        a = _unit_symbol(g, rng)
        A = psdo.MatrixParam(rng.uniform(-1.0, 1.0, (g.d, g.d)))
        if kind == "quantize":
            return Op(kind, lambda: psdo.quantize(a, A), lambda K: _gate(
                (_max_abs(K.data, _kernel(a, A)), TOL_KERNEL_ROUTE)))
        if kind == "kernel_route":
            return Op(kind, lambda: psdo.kernel_route(a, A), lambda K: _gate(
                (_max_abs(K.data, psdo.quantize(a, A).data), TOL_KERNEL_ROUTE)))
        if kind == "dequantize":
            T = psdo.OperatorMatrix(g, a.data)
            return Op(kind, lambda: psdo.dequantize(T, A), lambda b: _gate(
                (_rel_fro(_kernel(b, A), T.data), TOL_ROUNDTRIP)))
        if kind == "symbol_transfer":
            return Op(kind, lambda: psdo.symbol_transfer(a, A),
                      lambda ta: _gate(_transfer_error(ta, a, A)))
        if kind == "sharp":
            b = _unit_symbol(g, rng)
            return Op(kind, lambda: psdo.sharp(a, b, A), lambda c: _gate(_sharp_error(c, a, b, A)))
        raise ValueError(f"unknown operation {kind!r}")


# Parameters recur on purpose: scalar A = t*I is common, and so are a few
# fixed non-scalar matrices.
A_MENU = (0.0, 0.5, 1.0, 0.25, [[0.5, 0.25], [0.0, 0.5]], [[1.0, 0.0], [0.5, 0.0]])
SCHEME_MENU = {
    "t": lambda rng: {"kind": "t", "params": {"t": float(rng.choice([0.25, 0.75]))}},
    "weyl": lambda rng: {"kind": "weyl"},
    "born_jordan": lambda rng: {"kind": "born_jordan"},
    "un_avg": lambda rng: {"kind": "un_avg",
                           "params": {"r": float(rng.choice([0.25, 0.5])), "angle_nodes": 2}},
}

_MAGIC = b"PSDO"


def write_bin(path, data, grid):
    """Write an array in the documented .bin layout: magic, little-endian
    uint32 header length, JSON header, raw little-endian complex128."""
    header = json.dumps({"shape": list(data.shape), "dtype": "complex128", "layout": "row-major",
                         "grid": {"d": grid.d, "n": grid.n, "mode": grid.mode}}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", len(header)) + header)
        fh.write(np.ascontiguousarray(data, dtype="<c16").tobytes())


def read_bin(path):
    """Read a .bin array independently of the library's reader."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    return np.frombuffer(blob, dtype="<c16", offset=8 + hlen).reshape(header["shape"])


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = psdo.cli.main(argv)
    return code, err.getvalue()


class CliWorkload(Workload):
    """In-process ``psdo.cli.main`` jobs that read and write .bin files;
    quantize and transfer jobs come as manifests, compose and scheme jobs
    as inline flags."""

    cycle = ("quantize", "scheme:t", "transfer", "scheme:weyl", "quantize", "compose",
             "scheme:born_jordan", "quantize", "scheme:un_avg", "transfer")
    trace_ops = 60

    def __init__(self, n, workdir):
        self.grid = psdo.GridSpec(2, n)
        self.path_a, self.path_b, self.path_out, self.path_manifest = (
            str(workdir / name) for name in ("a.bin", "b.bin", "out.bin", "job.json"))

    def make_op(self, kind, rng):
        g = self.grid
        a = _unit_symbol(g, rng)
        write_bin(self.path_a, a.data, g)
        if os.path.exists(self.path_out):
            os.remove(self.path_out)
        A = A_MENU[rng.integers(len(A_MENU))]
        A_param = psdo.as_matrix_param(np.asarray(A) if isinstance(A, list) else A, g.d)
        inline = ["--d", str(g.d), "--n", str(g.n), "-i", f"a={self.path_a}", "--out", self.path_out]
        # library(): the direct library call; oracle(out): (error, tolerance)
        # of the output against an independent route, or None
        if kind.startswith("scheme:"):
            desc = SCHEME_MENU[kind.split(":", 1)[1]](rng)
            spec = psdo.SchemeSpec.from_descriptor(desc)
            argv = ["scheme", *inline, "--params", json.dumps({"scheme": desc})]
            library = lambda: psdo.quantize_scheme(a, spec).data
            oracle = lambda out: _scheme_error(out, a, spec)
        elif kind == "compose":
            b = _unit_symbol(g, rng)
            write_bin(self.path_b, b.data, g)
            argv = ["compose", *inline, "-i", f"b={self.path_b}", "--params", json.dumps({"A": A})]
            library = lambda: psdo.sharp(a, b, A_param).data
            oracle = lambda out: _sharp_error(psdo.Symbol(g, out), a, b, A_param)
        elif kind in ("quantize", "transfer"):
            manifest = {"grid": {"d": g.d, "n": g.n, "mode": g.mode}, "operation": kind,
                        "inputs": {"a": self.path_a}, "params": {"A": A}, "output": self.path_out}
            with open(self.path_manifest, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh)
            argv = [kind, "--manifest", self.path_manifest]
            if kind == "quantize":
                library = lambda: psdo.quantize(a, A_param).data
                oracle = lambda out: (_max_abs(out, _kernel(a, A_param)), TOL_KERNEL_ROUTE)
            else:
                library = lambda: psdo.symbol_transfer(a, A_param).data
                oracle = lambda out: _transfer_error(psdo.Symbol(g, out), a, A_param)
        else:
            raise ValueError(f"unknown job {kind!r}")

        def check(outcome):
            code, stderr = outcome
            if code != 0:
                raise RuntimeError(f"psdo {argv[0]} exited {code}: {stderr.strip()}")
            out = read_bin(self.path_out)
            checks = [(_max_abs(out, library()), TOL_CLI), oracle(out)]
            return _gate(*(c for c in checks if c is not None))

        return Op(kind, lambda: _run_cli(argv), check)


WORKLOADS = {
    "verify_d1_n33": lambda n, workdir: VerifyWorkload(n or 33),
    "quantize_fresh_d2_n15": lambda n, workdir: FreshWorkload(n or 15),
    "cli_repeat_d2_n15": lambda n, workdir: CliWorkload(n or 15, workdir),
}


def build(name, n=None, workdir=None) -> Workload:
    """The named workload, on its own grid or with n points per axis."""
    return WORKLOADS[name](n, workdir)
