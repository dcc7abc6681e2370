"""Benchmark of the psdo library, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports psdo from the ``src/`` directory next to this one and drives its
public API from this process: a closed loop with one client, the library's
default threading, inputs drawn from ``--seed``.  Every result is checked
outside the timed interval (see workloads.py).

``--trace 0`` runs the workload's stream for ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs the workload's
fixed traced sample twice per operation, once plain and once with spans
recorded around each layer (spans.py), and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is the
JSON result.  The full result, its provenance and any spans are also
written under ``.perfbench_out/``.  Exit status 0 means every check passed.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"
# set-up is repeated in this many fresh processes besides this one
SETUP_PROBES = 2
# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--n", type=int, help="grid points per axis instead of the workload's own")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (one set-up sample)")
    return p.parse_args(argv)


def load_workloads():
    """Import numpy, psdo from this checkout, and the workload module."""
    if not (SRC / "psdo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no psdo sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import psdo

    if Path(psdo.__file__).resolve().parent != SRC / "psdo":
        raise SystemExit(f"perfbench: imported psdo from {psdo.__file__}, not from {SRC}")
    import workloads

    return workloads


def execute(op, recorder=None):
    """Time ``op.call``, with spans recorded when a recorder is given, then
    check its result; returns (seconds or None on error, attempted, failed)."""
    call = op.call if recorder is None else recorder.wrap("op." + op.kind, op.call)
    try:
        with contextlib.nullcontext() if recorder is None else recorder.installed():
            t0 = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - t0
        return (elapsed, *op.check(result))
    except Exception:  # any error is a failed operation; the run goes on
        traceback.print_exc(file=sys.stderr)
        return None, 1, 1


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with at
    least TAIL_BEYOND samples beyond it, never below the median."""
    s = sorted(latencies)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(s), 50.0, n // 2
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def setup_probe(args):
    """Set-up time of a fresh process, measured inside it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    if args.n:
        cmd += ["--n", str(args.n)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(workload, rng, seconds):
    latencies = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for op in workload.stream(rng):
        elapsed, a, f = execute(op)
        attempted, failed = attempted + a, failed + f
        if elapsed is not None:
            latencies.append(elapsed)
        if time.perf_counter() >= deadline:
            break
    return latencies, attempted, failed


def traced_run(workload, rng, spans, verify_suites):
    """Each operation of the traced sample runs plain and traced, in
    alternating order; returns the per-layer values, the recorder and
    (attempted, failed)."""
    recorder = spans.Recorder()
    plain = {}
    totals = {False: 0.0, True: 0.0}
    attempted = failed = 0
    for i, op in enumerate(workload.trace_sample(rng)):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            elapsed, a, f = execute(op, recorder if traced else None)
            attempted, failed = attempted + a, failed + f
            if elapsed is not None:
                totals[traced] += elapsed
                if not traced:
                    plain[op.kind] = plain.get(op.kind, 0.0) + elapsed
    layers = spans.layer_metrics(recorder)
    values = {}
    for name in list(spans.PSDO_FUNCTIONS) + list(spans.NUMPY_PRIMITIVES):
        entry = layers.get(name, {})
        values[f"{name}.calls"] = entry.get("calls", 0)
        values[f"{name}.self_s"] = entry.get("self_s", 0.0)
        values[f"{name}.bytes_computed"] = entry.get("bytes_computed", 0)
        if name in spans.PSDO_FUNCTIONS:
            layer, fn = name.split(".", 1)
            values[f"{layer}.fft_per_{fn}"] = entry.get("fft_per_call", 0)
    for suite in verify_suites:
        values[f"verify.{suite}_s"] = plain.get(suite, 0.0)
    values["verify.checks_skipped"] = workload.checks_skipped
    values["trace.overhead_frac"] = totals[True] / totals[False] - 1.0 if totals[False] else 0.0
    return values, recorder, attempted, failed


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "psdo").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads(np):
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(args):
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n_override": args.n,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "PSDO_THREADS": os.environ.get("PSDO_THREADS"), "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads(SPEC.read_text())
    t0 = time.perf_counter()
    workloads = load_workloads()
    import numpy as np
    import spans

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"have {sorted(workloads.WORKLOADS)}")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_rng, run_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(args.seed).spawn(2))
        workload = workloads.build(args.workload, args.n, workdir)
        attempted, failed = workload.warmup(warm_rng)
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            # the parent repeats this warm-up on the same inputs and counts its misses
            print(json.dumps({"setup_s": setup_s}))
            return 0

        extra = {}
        if args.trace:
            values, recorder, a, f = traced_run(workload, run_rng, spans, workloads.VERIFY_SUITES)
            declared = spec["per_layer"]
        else:
            latencies, a, f = timed_run(workload, run_rng, args.seconds)
            if not latencies:
                raise SystemExit("perfbench: no operation completed")
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
            tail_s, tail_pct, beyond = tail(latencies)
            values = {
                "ops_per_s": len(latencies) / sum(latencies),
                "latency_p50_ms": statistics.median(latencies) * 1e3,
                "latency_tail_ms": tail_s * 1e3,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setups),
            }
            extra = {
                "samples": len(latencies),
                "latency_tail_percentile": tail_pct,
                "latency_tail_samples_beyond": beyond,
                "setup_samples_s": setups,
            }
            if isinstance(workload, workloads.VerifyWorkload):  # one op is one suite pass
                extra["verify_s"] = values["latency_p50_ms"] / 1e3
            declared = spec["end_to_end"]
        attempted, failed = attempted + a, failed + f
        extra["failed_frac"] = failed / attempted
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"provenance": provenance(args), "result": result, "extra": extra}
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{stem}_spans.json").write_text(json.dumps(recorder.to_json()) + "\n")

    p = record["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  commit={p['git_commit']} source={p['source_sha256'][:12]} python={p['python']} "
          f"numpy={p['numpy']} blas={p['blas']} blas_threads={p['blas_threads']} "
          f"nproc={p['nproc']} PSDO_THREADS={p['PSDO_THREADS']}")
    for name, m in metrics.items():
        print(f"  {name:40} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'latency_tail_ms':40} is p{extra['latency_tail_percentile']:.1f} of "
              f"{extra['samples']} samples ({extra['latency_tail_samples_beyond']} beyond)")
        if "verify_s" in extra:
            print(f"  {'verify_s':40} {extra['verify_s']:.6g} s")
    print(f"  {'failed_frac':40} {extra['failed_frac']:.6g} ({failed} of {attempted})")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
