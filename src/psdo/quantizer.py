"""Matrix-parameterized quantization: a -> Op_A(a) for real d x d matrices A.

The operator family is generated by one exact correspondence and one
unitary symbol automorphism:

* Op_0 (position-frequency ordering): K[j, j'] = n^{-d} sum_k a(j, k)
  e^{2i pi <j-j', k>/n};
* the transfer T_A multiplies the two-block DFT ahat(kappa, mu) of a
  symbol by e^{2i pi <A m, c>/n} with c, m the centered representatives
  of kappa, mu.  The phase is n-periodic in each entry of A; for integer
  A ("mod" mode) it is the exact mod-n reduced integer phase.

Op_A(a) is defined as Op_0(T_A a).  The kernel formula
K[j, j'] = n^{-d/2} (F2^{-1} a)(j - A u, u), u = j - j', reproduces it
exactly.  Its first argument is evaluated for every real A by one
trigonometric interpolation along the position block, with the
displacement A u taken at the centered representative of u; for integer
A this is the exact cyclic shift.

Production :func:`quantize` and :func:`dequantize` run the kernel formula
in 3 FFT passes (1 at A = 0 mod n), all on one buffer, with the phase
applied as one broadcast table per row of A; quantize then gathers
K[j, j - u] = G[j, u] in place, one block of rows at a time, and returns
that buffer.  The averaged schemes (Born-Jordan and the orthogonal-group
averages in :mod:`psdo.schemes`) are weighted sums of Op_A over a family
of A; Op_A is linear in its phase, so each runs the same kernel formula
once, in 3 FFT passes, with one averaged phase table (``_quantize_average``
sums the row tables of its nodes; Born-Jordan's exact t-average is a
lookup).  :func:`multiplier_route`, Op_0(T_A a) =
``quantize(symbol_transfer(a, A), 0)``, is independent of the kernel
formula but shares ``_row_tables`` with quantize.  :func:`kernel_route`
evaluates the formula with a dense N x N phase read from A itself, built
one block of rows at a time, and unitary partial DFTs, all on one buffer:
the route independent of the row tables, so it catches a table of A^T.
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
    rep_axis,
    rep_coords,
    rel_index,
    _block_axes,
    _blocks,
    _check_window,
    _fftn,
    _partial_dft_core,
    _real,
    _real_number,
)

__all__ = [
    "MatrixParam",
    "as_matrix_param",
    "symbol_transfer",
    "quantize",
    "kernel_route",
    "multiplier_route",
    "dequantize",
    "rank_one_symbol",
]


@dataclass(frozen=True)
class MatrixParam:
    """Real d x d ordering parameter; t*I covers the classical family
    (t=0 Kohn-Nirenberg, t=1/2 Weyl)."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.array(_real("matrix parameter entries", self.entries), dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParams(f"matrix parameter must be square, got shape {arr.shape}")
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
        return cls(_real_number("matrix parameter t", t) * np.eye(d))

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
    entries = np.asarray(_real("matrix parameter A", A), dtype=float)
    if entries.ndim == 0:  # t, meaning t * I
        return MatrixParam.scalar(float(entries), d)
    if entries.size != d * d:
        raise InvalidParams(f"matrix parameter A must be a real number or {d}x{d} real entries, got {A!r}")
    return MatrixParam(entries.reshape(d, d))


def _grid_param(grid: GridSpec, A) -> MatrixParam:
    """A as a MatrixParam that fits `grid`: d x d, and integer in mode "mod"."""
    A = as_matrix_param(A, grid.d)
    if grid.mode == "mod" and not A.integer_flag:
        raise ModeMismatch("mode 'mod' requires an integer matrix parameter")
    return A


def _row_tables(grid: GridSpec, A: MatrixParam, sign: int) -> list:
    """The transfer phase e^{sign 2i pi <rep k, A rep u>/n} over (k, u), an
    (n,)*2d array, as one broadcast table over (k_i, u) per row i of A
    whose entries are not all zero mod n, so at most d tables.  Row i's
    table is the product of the n x n factors
    e^{sign 2i pi rep(k_i) A_ij rep(u_j)/n} of its entries that are
    non-zero mod n.  The factor is n-periodic in A_ij, so A_ij is first
    reduced to its centered residue mod n; an integer residue gives the
    exact integer phase (rep(k_i) A_ij rep(u_j) mod n)."""
    if not A.entries.any():
        return []
    n, d = grid.n, grid.d
    r = rep_axis(n)
    rr = np.multiply.outer(r, r)
    t = np.fmod(A.entries, n)
    t -= n * np.round(t / n)
    tables = []
    for i in range(d):
        table = None
        for j in np.flatnonzero(t[i]):
            shape = [1] * (2 * d)
            shape[i] = shape[d + j] = n
            tij = t[i, j]
            arg = (int(tij) * rr) % n if tij == np.round(tij) else tij * rr
            factor = np.exp((sign * 2j * np.pi / n) * arg).reshape(shape)
            table = factor if table is None else table * factor
        if table is not None:
            tables.append(table)
    return tables


# terms summed into one partial table before it joins the total, so each
# entry of a sum of M node terms is rounded in about _SUM_BLOCK + M /
# _SUM_BLOCK additions, not M
_SUM_BLOCK = 64


def _average_table(grid: GridSpec, params, weights) -> np.ndarray:
    """sum_i w_i e^{-2i pi <rep k, A_i rep u>/n} over (k, u), each term the
    product of the row tables of :func:`_row_tables` with w_i folded into
    the first, summed in blocks of ``_SUM_BLOCK`` terms; at most
    ``_SUM_BLOCK`` terms in all are summed straight into the total.  A term
    of two or more tables is built in one reused buffer."""
    shape = (grid.n,) * (2 * grid.d)
    total = np.zeros(shape, dtype=np.complex128)
    blocked = len(params) > _SUM_BLOCK
    part = np.zeros(shape, dtype=np.complex128) if blocked else total
    term = None
    for i, (A, w) in enumerate(zip(params, weights), 1):
        tables = _row_tables(grid, A, -1)
        if len(tables) < 2:  # w, or w times one table, added by broadcasting
            part += w * tables[0] if tables else w
        else:
            if term is None:
                term = np.empty(shape, dtype=np.complex128)
            np.multiply(w * tables[0], tables[1], out=term)
            for table in tables[2:]:
                term *= table
            part += term
        if blocked and i % _SUM_BLOCK == 0:
            total += part
            part.fill(0.0)
    if blocked:
        total += part
    return total


def _translate_columns(G, grid: GridSpec, tables):
    """Multiply, in place, the block-1 DFT of G, shaped (n,)*2d over (j, u),
    by each of the broadcast phase tables over (k, u): block-1 FFT, the
    multiplies, block-1 inverse FFT.  With the row tables of A at sign s
    this translates column u by -s A rep(u) (trigonometric interpolation,
    the exact cyclic shift for integer A).  No table, no pass."""
    if not tables:
        return
    pos = _block_axes(grid.d, 1)
    np.fft.fftn(G, axes=pos, out=G)
    for table in tables:
        G *= table
    np.fft.ifftn(G, axes=pos, out=G)


def symbol_transfer(a: Symbol, A) -> Symbol:
    """Apply the calculus-transfer automorphism T_A to a symbol.

    T_A is unitary on l2 of the symbol grid and T_A T_B = T_{A+B}; by
    construction Op_{A1}(a) = Op_{A2}(T_{A2}^{-1} T_{A1} a).
    """
    grid = a.grid
    A = _grid_param(grid, A)
    if not A.entries.any():  # T_0 is the identity, exactly
        return a
    ahat = _fftn(a.data.reshape((grid.n,) * (2 * grid.d)))
    for table in _row_tables(grid, A, 1):
        ahat *= table
    return Symbol(grid, np.fft.ifftn(ahat, out=ahat).reshape(a.data.shape))


def _to_kernel(G: np.ndarray, grid: GridSpec) -> OperatorMatrix:
    """The kernel K[j, j - u] = G[j, u], written over G, an (N, N) array
    the caller owns, and returned.  Row j of K is row j of G permuted,
    K[j, j'] = G[j, j - j'], so the rows are gathered one block of
    ``grid._blocks`` at a time, from a copy of that block."""
    N = grid.size
    rel = rel_index(grid)
    for rows in _blocks(N, N):
        block = G[rows]
        flat = rel[rows] + N * np.arange(len(block))[:, None]
        # indices are in range; mode "raise" would buffer the output
        np.take(block.copy(), flat, out=block, mode="clip")
    return OperatorMatrix(grid, G)


def _kernel_formula(a: Symbol, tables) -> OperatorMatrix:
    """K[j, j - u] = G[j, u] for G = n^{-d/2} F2^{-1} a (one raw inverse FFT
    over the frequency block) with the block-1 DFT of G multiplied by each
    phase table over (k, u) in ``tables``: 3 FFT passes, 1 without a
    table, and the gather, all in the one N x N buffer it returns."""
    grid = a.grid
    freq = _block_axes(grid.d, 2)
    G = _fftn(a.data.reshape((grid.n,) * (2 * grid.d)), freq, inverse=True)
    _translate_columns(G, grid, tables)
    return _to_kernel(G.reshape(a.data.shape), grid)


def quantize(a: Symbol, A) -> OperatorMatrix:
    """Op_A(a) through the kernel formula; linear in a.

    G = n^{-d/2} F2^{-1} a (one raw inverse FFT over the frequency block);
    for A != 0 mod n column u is translated by A rep(u) (block-1 FFT, phase
    e^{-2i pi <rep k, A rep u>/n} as at most d row tables, block-1 inverse
    FFT); then K[j, j - u] = G[j, u].  3 FFT passes, 1 at A = 0 mod n.
    """
    grid = a.grid
    A = _grid_param(grid, A)
    return _kernel_formula(a, _row_tables(grid, A, -1))


def _quantize_average(a: Symbol, params, weights) -> OperatorMatrix:
    """sum_i w_i Op_{A_i}(a) for MatrixParams A_i in one kernel pass.  Op_A
    is linear in its phase, so the sum is the kernel formula with the one
    averaged table of :func:`_average_table`: 3 FFT passes and the gather
    whatever the number of nodes.  Every A_i is checked against the grid's
    mode before any FFT runs."""
    grid = a.grid
    params = [_grid_param(grid, A) for A in params]
    return _kernel_formula(a, [_average_table(grid, params, weights)])


def multiplier_route(a: Symbol, A) -> OperatorMatrix:
    """Op_A(a) as Op_0(T_A a): the transfer, then the A = 0 kernel formula
    (no translation).  The construction independent of the kernel formula,
    against which :func:`quantize` and :func:`kernel_route` are checked."""
    return quantize(symbol_transfer(a, A), MatrixParam.zero(a.grid.d))


def kernel_route(a: Symbol, A) -> OperatorMatrix:
    """Op_A(a) through the kernel formula with a dense N x N phase and
    unitary partial DFTs: the formula of :func:`quantize` evaluated without
    its factored phase tables or unscaled FFT passes, to cross-check them.
    It agrees with :func:`quantize` to fp roundoff.

    Column u of G = n^{-d/2} F2^{-1} a is translated by A rep(u) through
    trigonometric interpolation over the position block (DFT, phase
    e^{-2i pi <rep k, A rep u>/n}, inverse DFT), exact for integer A, and
    gathered to K[j, j - u].  Every DFT, scale, phase and the gather after
    the first DFT run in place on that DFT's buffer, which is returned; the
    phase is built from ``rep_coords`` one block of rows at a time.
    """
    grid = a.grid
    A = _grid_param(grid, A)
    root = np.sqrt(grid.size)
    pos = _block_axes(grid.d, 1)
    G = _partial_dft_core(a.data, grid, 2, inverse=True)
    G /= root
    G4 = G.reshape((grid.n,) * (2 * grid.d))
    np.fft.fftn(G4, axes=pos, out=G4)
    G /= root
    reps = rep_coords(grid).astype(float)
    for rows in _blocks(grid.size, grid.size):
        G[rows] *= np.exp(-2j * np.pi * np.einsum("ki,ij,uj->ku", reps[rows], A.entries, reps) / grid.n)
    np.fft.ifftn(G4, axes=pos, out=G4)
    G *= root
    return _to_kernel(G, grid)


def dequantize(T: OperatorMatrix, A) -> Symbol:
    """Exact inverse of :func:`quantize`: the unique a with Op_A(a) = T.

    Gathers G[j, u] = T[j, j - u], translates column u back by A rep(u)
    (phase e^{+2i pi <rep k, A rep u>/n}) for A != 0 mod n, then applies one
    raw FFT over the frequency block.
    """
    grid = T.grid
    A = _grid_param(grid, A)
    freq = _block_axes(grid.d, 2)
    # the gather is a fresh C-contiguous buffer, so every pass runs in place
    G = np.take_along_axis(T.data, rel_index(grid), axis=1).reshape((grid.n,) * (2 * grid.d))
    _translate_columns(G, grid, _row_tables(grid, A, 1))
    return Symbol(grid, np.fft.fftn(G, axes=freq, out=G).reshape(T.data.shape))


def rank_one_symbol(f1: Signal, f2: Signal, A) -> Symbol:
    """Symbol whose Op_A image is the rank-one operator g -> (g, f2) f1.

    Equals n^{d/2} times the A-Wigner distribution of (f1, f2); quantizing
    it returns the outer-product matrix f1 f2^* exactly.  f2 must lie on
    the grid of f1 (DimMismatch otherwise).
    """
    _check_window(f2, f1, window=False)
    outer = OperatorMatrix(f1.grid, np.outer(f1.data, np.conj(f2.data)))
    return dequantize(outer, A)
