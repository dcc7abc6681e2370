"""Command-line surface.

    psdo <command> [--manifest FILE | inline flags] --out PATH

Commands: quantize, scheme, wigner, stft, modnorm, schatten, compose,
transfer, verify, bench.  Exit codes: 0 success, 1 verify failure,
2 I/O error, 3 validation error.  PSDO_THREADS caps check parallelism.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .arrays import read_array, write_array
from .bench import format_csv, run_bench, scaling_note
from .calculus import sharp
from .errors import PsdoError, ValidationError
from .grid import GridSpec, OperatorMatrix, Signal, Symbol, _blocks, _keys
from .modspace import MixedNormParams, trivial_weight, modulation_norm, _build_weight, _exponent
from .quantizer import as_matrix_param, multiplier_route, quantize, symbol_transfer
from .schatten import schatten_norm
from .schemes import SchemeSpec, quantize_scheme
from .validation import validate
from .verify import SUITES, format_table, report_to_json, _run_suite, _timing_to_json
from .wigner import stft, wigner


def _json_line(obj) -> str:
    """obj as one line of strict JSON, as verify's report is written: a NaN
    or infinite result raises ValidationError before anything is written.
    Echoes hold finite numbers only (see :func:`_exponent_echo`)."""
    try:
        return json.dumps(obj, allow_nan=False) + "\n"
    except ValueError:
        raise ValidationError(f"result is not finite: {obj!r}") from None


def _write_array_result(out, X, **extra):
    """Write the array result X to `out` and echo its Frobenius norm, then
    the command's `extra` keys in order."""
    line = _json_line({"frobenius_norm": X.norm(), **extra})
    write_array(out, X.data, X.grid)
    sys.stdout.write(line)
    return 0


def _write_scalar_result(out, value, params_echo):
    """Echo the scalar result, and also write it as JSON to `out` if given."""
    line = _json_line({"value": value, "params_echo": params_echo})
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(line)
    sys.stdout.write(line)
    return 0


def _parse_inputs(pairs):
    inputs = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValidationError(f"--input wants name=path, got {item!r}")
        name, path = item.split("=", 1)
        inputs[name] = path
    return inputs


def _job_from_args(args, operation):
    if args.manifest:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        validate(manifest, "manifest")
        if manifest["operation"] != operation:
            raise ValidationError(
                f"manifest operation {manifest['operation']!r} does not match command {operation!r}")
        out = args.out or manifest["output"]
        g = manifest["grid"]
        grid = GridSpec(int(g["d"]), int(g["n"]), g.get("mode", "real"))
        return grid, manifest.get("inputs", {}), manifest.get("params", {}), out
    if args.out is None:
        raise ValidationError("--out is required without a manifest")
    grid = GridSpec(args.d, args.n, args.mode)
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ValidationError("--params must be a JSON object")
    return grid, _parse_inputs(args.input), params, args.out


def _load(inputs, name, grid, kind):
    """Input `name` read from its file as a `kind` (Signal, Symbol or
    OperatorMatrix) on the job grid."""
    try:
        path = inputs[name]
    except KeyError:
        raise ValidationError(f"missing required input {name!r}") from None
    data, file_grid = read_array(path)
    if (file_grid.d, file_grid.n, file_grid.mode) != (grid.d, grid.n, grid.mode):
        raise ValidationError(f"{path}: grid {file_grid} does not match job grid {grid}")
    shape = (grid.size,) * kind.rank
    if data.shape != shape:
        raise ValidationError(f"{path}: shape {data.shape}, expected {shape}")
    return kind(grid, data)


def _exponent_echo(p: float):
    """p as strict JSON: an infinite exponent is the string "inf", the
    spelling :func:`psdo.modspace.as_exponent` reads."""
    return "inf" if p == math.inf else p


def _weight_from_descriptor(desc):
    if desc is None:
        return None
    validate(desc, "weight")
    kind = desc["kind"]
    params = desc.get("params", {})
    axes = tuple(desc.get("axes", ("pos", "freq")))
    if kind == "product" and isinstance(params.get("factors"), list):
        params = {**params, "factors": [_weight_from_descriptor(f) for f in params["factors"]]}
    return _build_weight(kind, axes, params)


def _cmd_quantize(grid, inputs, params, out):
    a = _load(inputs, "a", grid, Symbol)
    route = params.get("route", "kernel")
    routes = {"kernel": quantize, "multiplier": multiplier_route}
    if not isinstance(route, str) or route not in routes:
        raise ValidationError(f"route must be 'kernel' or 'multiplier', got {route!r}")
    K = routes[route](a, as_matrix_param(params.get("A", 0.0), grid.d))
    return _write_array_result(out, K, hermiticity_defect=_hermiticity_defect(K.data), route=route)


def _hermiticity_defect(K) -> float:
    """max |K - K^*| of a square array, one block of rows at a time: the max
    is exact (a NaN stays NaN) and no N x N copy of K^* is made."""
    maxima = []
    for rows in _blocks(len(K), len(K)):
        D = np.conjugate(K[:, rows].T, order="C")
        np.subtract(K[rows], D, out=D)
        maxima.append(np.abs(D).max())
    return float(np.max(maxima))


def _cmd_scheme(grid, inputs, params, out):
    a = _load(inputs, "a", grid, Symbol)
    desc = params.get("scheme", {"kind": "weyl"})
    validate(desc, "scheme")
    K = quantize_scheme(a, SchemeSpec.from_descriptor(desc))
    return _write_array_result(out, K, params_echo=desc)


def _cmd_wigner(grid, inputs, params, out):
    f1, f2 = _load(inputs, "f1", grid, Signal), _load(inputs, "f2", grid, Signal)
    return _write_array_result(out, wigner(f1, f2, as_matrix_param(params.get("A", 0.0), grid.d)))


def _cmd_stft(grid, inputs, params, out):
    f, phi = _load(inputs, "f", grid, Signal), _load(inputs, "phi", grid, Signal)
    return _write_array_result(out, stft(f, phi))


def _cmd_modnorm(grid, inputs, params, out):
    f = _load(inputs, "f", grid, Signal)
    phi = _load(inputs, "phi", grid, Signal) if "phi" in inputs else None
    p = _exponent("parameter 'p'", params.get("p", 2))
    q = _exponent("parameter 'q'", params.get("q", 2))
    omega = _weight_from_descriptor(params.get("weight")) or trivial_weight()
    value = modulation_norm(f, MixedNormParams(p, q), omega, phi)
    return _write_scalar_result(out, value, {"p": _exponent_echo(p), "q": _exponent_echo(q),
                                             "weight": omega.descriptor()})


def _cmd_schatten(grid, inputs, params, out):
    T = _load(inputs, "t", grid, OperatorMatrix)
    p = _exponent("parameter 'p'", params.get("p", 2))
    return _write_scalar_result(out, schatten_norm(T, p), {"p": _exponent_echo(p)})


def _cmd_compose(grid, inputs, params, out):
    a, b = _load(inputs, "a", grid, Symbol), _load(inputs, "b", grid, Symbol)
    return _write_array_result(out, sharp(a, b, as_matrix_param(params.get("A", 0.0), grid.d)))


def _cmd_transfer(grid, inputs, params, out):
    a = _load(inputs, "a", grid, Symbol)
    return _write_array_result(out, symbol_transfer(a, as_matrix_param(params.get("A", 0.0), grid.d)))


def _cmd_verify(args):
    report, timings = _run_suite(args.suite, args.n, args.d, args.seed)
    if args.format == "json":
        sys.stdout.write(report_to_json(report).decode("utf-8"))
    else:
        sys.stdout.write(format_table(report) + "\n")
    json_path = args.json_out or "psdo_verify_report.json"
    with open(json_path, "wb") as fh:
        fh.write(report_to_json(report))
    if args.timing_out:
        with open(args.timing_out, "wb") as fh:
            fh.write(_timing_to_json(report, timings))
    return 0 if report["passed"] else 1


def _cmd_bench(args):
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise ValidationError(f"--sizes wants comma-separated integers, got {args.sizes!r}") from None
    rows = run_bench(sizes, args.d, args.seed)
    csv = format_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    sys.stdout.write(csv)
    sys.stdout.write(scaling_note(rows) + "\n")
    return 0


# op command -> (handler, the parameter keys it reads, the input names it reads)
_OPS = {
    "quantize": (_cmd_quantize, {"A", "route"}, {"a"}),
    "scheme": (_cmd_scheme, {"scheme"}, {"a"}),
    "wigner": (_cmd_wigner, {"A"}, {"f1", "f2"}),
    "stft": (_cmd_stft, set(), {"f", "phi"}),
    "modnorm": (_cmd_modnorm, {"p", "q", "weight"}, {"f", "phi"}),
    "schatten": (_cmd_schatten, {"p"}, {"t"}),
    "compose": (_cmd_compose, {"A"}, {"a", "b"}),
    "transfer": (_cmd_transfer, {"A"}, {"a"}),
}
OP_COMMANDS = tuple(_OPS)


def _cmd_op(args):
    """Run the op command args.command on its job (a manifest, or the
    inline flags), once its parameter keys and input names are ones the
    command reads."""
    handler, keys, names = _OPS[args.command]
    grid, inputs, params, out = _job_from_args(args, args.command)
    _keys(args.command, params, keys)
    _keys(args.command, inputs, names, noun="input")
    return handler(grid, inputs, params, out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every parse_args call
    returns a fresh namespace, and callers must not modify the parser."""
    parser = argparse.ArgumentParser(prog="psdo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in OP_COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} operation")
        p.add_argument("--manifest", help="job manifest JSON file")
        p.add_argument("--n", type=int, default=9, help="points per axis (odd)")
        p.add_argument("--d", type=int, default=1, help="ambient dimension")
        p.add_argument("--mode", default="real", choices=["real", "mod"])
        p.add_argument("--input", "-i", action="append", metavar="NAME=PATH",
                       help="named input array file (repeatable)")
        p.add_argument("--params", help="operation parameters as a JSON object")
        p.add_argument("--out", help="output path (.csv/.bin for arrays, .json for scalars)")
        p.set_defaults(handler=_cmd_op)

    v = sub.add_parser("verify", help="machine-check the identity suite")
    v.add_argument("suite", nargs="?", default="all", choices=list(SUITES))
    v.add_argument("--n", type=int, default=9)
    v.add_argument("--d", type=int, default=1)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--json-out", help="report path (default psdo_verify_report.json)")
    v.add_argument("--format", default="text", choices=["text", "json"],
                   help="stdout form of the report")
    v.add_argument("--timing-out", help="also write each check's wall time and worst draw (JSON) to this path")
    v.set_defaults(handler=_cmd_verify)

    b = sub.add_parser("bench", help="time the hot operations")
    b.add_argument("--sizes", default="9,17,33", help="comma-separated odd grid sizes")
    b.add_argument("--d", type=int, default=1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", help="CSV output path")
    b.set_defaults(handler=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"psdo: validation error: {exc}", file=sys.stderr)
        return 3
    except PsdoError as exc:
        print(f"psdo: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"psdo: invalid JSON: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"psdo: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
