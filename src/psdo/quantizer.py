"""Matrix-parameterized quantization: a -> Op_A(a) for real d x d matrices A.

The operator family is generated by one exact correspondence and one
unitary symbol automorphism:

* Op_0 (position-frequency ordering): K[j, j'] = n^{-d} sum_k a(j, k)
  e^{2i pi <j-j', k>/n};
* the transfer T_A multiplies the two-block DFT ahat(kappa, mu) of a
  symbol by e^{2i pi <A m, c>/n} with c, m the centered representatives
  of kappa, mu ("real" mode) or by the mod-n reduced integer phase
  ("mod" mode).

Op_A(a) is defined as Op_0(T_A a).  The independent kernel formula
K[j, j'] = n^{-d/2} (F2^{-1} a)(j - A u, u), u = j - j', reproduces it
exactly.  Its first argument is evaluated for every real A by one
trigonometric interpolation along the position block, with the
displacement A u taken at the centered representative of u; for integer
A this is the exact cyclic shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModeMismatch, InvalidParams
from .grid import (
    GridSpec,
    Signal,
    Symbol,
    OperatorMatrix,
    index_coords,
    rep_coords,
    rel_index,
    _partial_dft_core,
)

__all__ = [
    "MatrixParam",
    "as_matrix_param",
    "symbol_transfer",
    "quantize",
    "kernel_route",
    "dequantize",
    "rank_one_symbol",
]


@dataclass(frozen=True)
class MatrixParam:
    """Real d x d ordering parameter; t*I covers the classical family
    (t=0 Kohn-Nirenberg, t=1/2 Weyl)."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParams(f"matrix parameter must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidParams("matrix parameter entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @property
    def integer_flag(self) -> bool:
        return bool(np.all(self.entries == np.round(self.entries)))

    @classmethod
    def scalar(cls, t: float, d: int) -> "MatrixParam":
        return cls(t * np.eye(d))

    @classmethod
    def zero(cls, d: int) -> "MatrixParam":
        return cls.scalar(0.0, d)

    @classmethod
    def weyl(cls, d: int) -> "MatrixParam":
        return cls.scalar(0.5, d)

    def __neg__(self):
        return MatrixParam(-self.entries)

    def __add__(self, other):
        return MatrixParam(self.entries + np.asarray(other.entries))

    def __sub__(self, other):
        return MatrixParam(self.entries - np.asarray(other.entries))


def as_matrix_param(A, d: int) -> MatrixParam:
    """Coerce a scalar t (meaning t*I), array, or MatrixParam to MatrixParam."""
    if isinstance(A, MatrixParam):
        if A.d != d:
            raise InvalidParams(f"matrix parameter is {A.d}x{A.d}, grid needs {d}x{d}")
        return A
    if np.isscalar(A):
        return MatrixParam.scalar(float(A), d)
    return MatrixParam(np.asarray(A, dtype=float).reshape(d, d))


def _require_mode(grid: GridSpec, A: MatrixParam):
    if grid.mode == "mod" and not A.integer_flag:
        raise ModeMismatch("mode 'mod' requires an integer matrix parameter")


def _transfer_phase(grid: GridSpec, A: MatrixParam) -> np.ndarray:
    """(N, N) multiplier over (kappa, mu): the Fourier-side phase of T_A."""
    n = grid.n
    if grid.mode == "mod":
        Aint = np.round(A.entries).astype(np.int64) % n
        c = index_coords(grid).astype(np.int64)
        dot = np.einsum("ci,ij,mj->cm", c, Aint, c) % n
        return np.exp(2j * np.pi * dot / n)
    c = rep_coords(grid).astype(float)
    dot = np.einsum("ci,ij,mj->cm", c, A.entries, c)
    return np.exp(2j * np.pi * dot / n)


def _full_dft2(arr2, grid, inverse=False):
    out = _partial_dft_core(arr2, grid, 1, inverse)
    return _partial_dft_core(out, grid, 2, inverse)


def _symbol_transfer_core(a, grid, A):
    if not A.entries.any():  # T_0 is the identity, exactly
        return a
    ahat = _full_dft2(a, grid)
    return _full_dft2(ahat * _transfer_phase(grid, A), grid, inverse=True)


def symbol_transfer(a: Symbol, A) -> Symbol:
    """Apply the calculus-transfer automorphism T_A to a symbol.

    T_A is unitary on l2 of the symbol grid and T_A T_B = T_{A+B}; by
    construction Op_{A1}(a) = Op_{A2}(T_{A2}^{-1} T_{A1} a).
    """
    A = as_matrix_param(A, a.grid.d)
    _require_mode(a.grid, A)
    return Symbol(a.grid, _symbol_transfer_core(a.data, a.grid, A))


def _op0(b, grid):
    """Kohn-Nirenberg matrix of a symbol array."""
    G = _partial_dft_core(b, grid, 2, inverse=True) / np.sqrt(grid.size)
    K = np.empty_like(G)
    np.put_along_axis(K, rel_index(grid), G, axis=1)
    return K


def _op0_inverse(K, grid):
    """Exact inverse of :func:`_op0`."""
    L = np.take_along_axis(K, rel_index(grid), axis=1)
    return _partial_dft_core(L, grid, 2, inverse=False) * np.sqrt(grid.size)


def quantize(a: Symbol, A) -> OperatorMatrix:
    """Op_A(a) via the multiplier route Op_0(T_A a); linear in a."""
    A = as_matrix_param(A, a.grid.d)
    _require_mode(a.grid, A)
    return OperatorMatrix(a.grid, _op0(_symbol_transfer_core(a.data, a.grid, A), a.grid))


def kernel_route(a: Symbol, A) -> OperatorMatrix:
    """Op_A(a) through the kernel formula; independent cross-check of
    :func:`quantize`, with which it agrees to fp roundoff.

    Column u of G = n^{-d/2} F2^{-1} a is translated by A rep(u) through
    trigonometric interpolation over the position block (DFT, phase
    e^{-2i pi <rep k, A rep u>/n}, inverse DFT), exact for integer A, and
    scattered to K[j, j - u].
    """
    grid = a.grid
    A = as_matrix_param(A, grid.d)
    _require_mode(grid, A)
    G = _partial_dft_core(a.data, grid, 2, inverse=True) / np.sqrt(grid.size)
    reps = rep_coords(grid).astype(float)
    phase = np.exp(-2j * np.pi * np.einsum("ki,ij,uj->ku", reps, A.entries, reps) / grid.n)
    cols = _partial_dft_core(_partial_dft_core(G, grid, 1) * phase, grid, 1, inverse=True)
    K = np.empty_like(cols)
    np.put_along_axis(K, rel_index(grid), cols, axis=1)
    return OperatorMatrix(grid, K)


def dequantize(T: OperatorMatrix, A) -> Symbol:
    """Exact inverse of :func:`quantize`: the unique a with Op_A(a) = T."""
    grid = T.grid
    A = as_matrix_param(A, grid.d)
    _require_mode(grid, A)
    b0 = _op0_inverse(T.data, grid)
    return Symbol(grid, _symbol_transfer_core(b0, grid, -A))


def rank_one_symbol(f1: Signal, f2: Signal, A) -> Symbol:
    """Symbol whose Op_A image is the rank-one operator g -> (g, f2) f1.

    Equals n^{d/2} times the A-Wigner distribution of (f1, f2); quantizing
    it returns the outer-product matrix f1 f2^* exactly.
    """
    outer = OperatorMatrix(f1.grid, np.outer(f1.data, np.conj(f2.data)))
    return dequantize(outer, A)
