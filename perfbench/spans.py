"""Span recorder for the traced benchmark run.

Wraps, from outside the library, the public psdo functions of each layer
in every psdo module namespace that holds them, plus the numpy primitives
they run on (FFT, scatter, SVD), only while a traced call runs.  Spans
(name, start, end, parent) are kept in memory and turned into per-layer
numbers at the end: calls, self time (span time minus the time its child spans cover),
bytes moved as computed from array sizes, and FFT calls per call of a
function.
"""

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

# span name -> (module, attribute) of a public psdo function
PSDO_FUNCTIONS = {
    "quantizer.quantize": ("psdo.quantizer", "quantize"),
    "quantizer.dequantize": ("psdo.quantizer", "dequantize"),
    "quantizer.kernel_route": ("psdo.quantizer", "kernel_route"),
    "quantizer.symbol_transfer": ("psdo.quantizer", "symbol_transfer"),
    "wigner.phase_space_stft": ("psdo.wigner", "phase_space_stft"),
    "wigner.stft": ("psdo.wigner", "stft"),
    "wigner.wigner": ("psdo.wigner", "wigner"),
    "modspace.symbol_modulation_norm": ("psdo.modspace", "symbol_modulation_norm"),
    "modspace.modulation_norm": ("psdo.modspace", "modulation_norm"),
    "schatten.schatten_norm": ("psdo.schatten", "schatten_norm"),
    "calculus.sharp": ("psdo.calculus", "sharp"),
    "schemes.quantize_scheme": ("psdo.schemes", "quantize_scheme"),
    "schemes.born_jordan_quadrature": ("psdo.schemes", "born_jordan_quadrature"),
    "arrays.read_array": ("psdo.arrays", "read_array"),
    "arrays.write_array": ("psdo.arrays", "write_array"),
    "validation.validate": ("psdo.validation", "validate"),
    "cli.main": ("psdo.cli", "main"),
}


def _fft_bytes(args, kwargs, out):
    return np.asarray(args[0]).nbytes + out.nbytes


def _put_bytes(args, kwargs, out):
    # reads indices and values, writes as many entries into the target
    return np.asarray(args[1]).nbytes + 2 * np.asarray(args[2]).nbytes


def _take_bytes(args, kwargs, out):
    # reads indices and as many source entries as it writes
    return np.asarray(args[1]).nbytes + 2 * out.nbytes


# span name -> [(module, attribute, bytes-computed function or None)]
NUMPY_PRIMITIVES = {
    "grid.fft": [("numpy.fft", "fftn", _fft_bytes), ("numpy.fft", "ifftn", _fft_bytes)],
    "grid.scatter": [("numpy", "put_along_axis", _put_bytes),
                     ("numpy", "take_along_axis", _take_bytes)],
    "schatten.svd": [("numpy.linalg", "svd", None)],
}

BYTES_COMPUTED = {
    "arrays.read_array": lambda args, kwargs, out: out[0].nbytes,
    "arrays.write_array": lambda args, kwargs, out: np.asarray(args[1]).nbytes,
}

FFT_SPAN = "grid.fft"


class Recorder:
    """In-memory span store, fed by the wrappers that ``installed`` puts in
    place of the traced functions."""

    def __init__(self):
        self.names = []
        self.start_ns = []
        self.end_ns = []
        self.parent = []
        self.nbytes = []
        self._stack = []

    def wrap(self, name, fn, count_bytes=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end_ns.append(0)
            self.nbytes.append(0)
            self._stack.append(idx)
            self.start_ns.append(time.perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end_ns[idx] = time.perf_counter_ns()
                self._stack.pop()
            if count_bytes is not None:
                self.nbytes[idx] = int(count_bytes(args, kwargs, out))
            return out

        return wrapper

    def to_json(self) -> dict:
        return {"name": self.names, "start_ns": self.start_ns, "end_ns": self.end_ns,
                "parent": self.parent, "bytes_computed": self.nbytes}

    @contextmanager
    def installed(self):
        """Replace the traced functions by recording wrappers; restore on exit."""
        patched = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "psdo" or key.startswith("psdo."))]
        try:
            for name, (modname, attr) in PSDO_FUNCTIONS.items():
                original = getattr(importlib.import_module(modname), attr)
                wrapper = self.wrap(name, original, BYTES_COMPUTED.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, key, original))
                            setattr(module, key, wrapper)
            for name, entries in NUMPY_PRIMITIVES.items():
                for modname, attr, count_bytes in entries:
                    module = importlib.import_module(modname)
                    original = getattr(module, attr)
                    patched.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, count_bytes))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)


def layer_metrics(recorder: Recorder) -> dict:
    """Per span name: calls, self_s, bytes_computed, and FFT calls per call
    (the median over calls, counting FFTs in nested spans too)."""
    count = len(recorder.names)
    child_ns = [0] * count
    fft_inside = [0] * count
    # children are recorded after their parent, so a reverse sweep sees
    # every descendant before its ancestor
    for i in range(count - 1, -1, -1):
        p = recorder.parent[i]
        if p >= 0:
            child_ns[p] += recorder.end_ns[i] - recorder.start_ns[i]
            fft_inside[p] += fft_inside[i] + (recorder.names[i] == FFT_SPAN)
    out = {}
    per_call_ffts = {}
    for i, name in enumerate(recorder.names):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "bytes_computed": 0})
        entry["calls"] += 1
        entry["self_s"] += (recorder.end_ns[i] - recorder.start_ns[i] - child_ns[i]) * 1e-9
        entry["bytes_computed"] += recorder.nbytes[i]
        per_call_ffts.setdefault(name, []).append(fft_inside[i])
    for name, counts in per_call_ffts.items():
        out[name]["fft_per_call"] = statistics.median_low(counts)
    return out
