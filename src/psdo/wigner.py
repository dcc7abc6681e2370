"""Short-time Fourier transform, A-Wigner distributions, and the exact
identities tying them to each other and to the quantizer.

Discrete phase conventions below were fixed by exhaustive computation on
the n=3 grid (see tests), not by transcribing continuum formulas; the
counting-measure model drops the Jacobian factors of the continuum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ModeMismatch, SizeLimit
from .grid import (
    GridSpec,
    Signal,
    Symbol,
    index_coords,
    flatten_coords,
    doubled,
    _GridArray,
    _blocks,
    _check_window,
    _fftn,
)
from .quantizer import MatrixParam, as_matrix_param, rank_one_symbol, symbol_transfer

__all__ = [
    "TimeFrequencyArray",
    "stft",
    "wigner",
    "weyl_wigner_stft_relation_check",
    "phase_space_stft",
    "stft_of_wigner_check",
    "expop_stft_check",
]

# dense (N, N, N, N) arrays are only materialized below this entry count; above
# it the pointwise 4d checks read a sample of FOURD_LIMIT // N^2 frequency columns.
# It also caps the nodes x nodes matrix of a Gauss-Legendre rule (schemes)
FOURD_LIMIT = 2_000_000


def _column_budget(grid: GridSpec) -> int:
    """How many frequency columns of the doubled-grid STFT, N^2 entries
    each, fit in FOURD_LIMIT: N^2 or more exactly when the dense (N,)*4
    array fits.  Every cap on the 4d phase space reads its budget here."""
    return FOURD_LIMIT // grid.size**2


@dataclass(frozen=True)
class TimeFrequencyArray(_GridArray):
    """Array over Z_n^d x Z_n^d (position x frequency)."""


def stft(f: Signal, phi: Signal) -> TimeFrequencyArray:
    """V_phi f(j, k) = n^{-d/2} sum_y f(y) conj(phi(y-j)) e^{-2i pi <y,k>/n}.

    l2 isometry up to the window norm: ||V_phi f||_2 = ||phi||_2 ||f||_2.
    The frequency columns k of :func:`_stft_columns`, written into one
    (N, N) array.
    """
    N = f.grid.size
    V = np.empty((N, N), dtype=np.complex128)
    for k, block in _stft_columns(f, phi):
        V[:, k] = block.T
    return TimeFrequencyArray(f.grid, V)


def _integer_matrix(grid: GridSpec, A) -> np.ndarray:
    """A as an int64 matrix, for identities that are exact only in mode
    "mod" with integer A."""
    A = as_matrix_param(A, grid.d)
    if grid.mode != "mod" or not A.integer_flag:
        raise ModeMismatch("identity requires mode 'mod' and integer A")
    return np.round(A.entries).astype(np.int64)


def _shear(grid: GridSpec, M: np.ndarray, y=None) -> np.ndarray:
    """Table S[b, j] = flat index of j + M y_b mod n for an integer matrix M,
    over the flat indices y (all N by default) and every j."""
    coords = index_coords(grid)
    ys = coords if y is None else coords[y]
    return flatten_coords(grid, coords[None, :, :] + (ys @ M.T)[:, None, :])


def wigner(f1: Signal, f2: Signal, A) -> TimeFrequencyArray:
    """Cross A-Wigner distribution W^A_{f1,f2}: n^{-d/2} times the
    dequantization of the rank-one operator f1 f2^*, in either mode (mode
    "mod" requires integer A).  For integer A this is the direct modular sum
    n^{-d/2} sum_y f1(j + A y) conj(f2(j + (A-I) y)) e^{-2i pi <y,k>/n}."""
    return TimeFrequencyArray(f1.grid, rank_one_symbol(f1, f2, A).data / np.sqrt(f1.grid.size))


def weyl_wigner_stft_relation_check(f: Signal, phi: Signal) -> float:
    """Max deviation of the discrete Weyl-Wigner/STFT relation.

    With h = (n+1)/2 (the inverse of 2 mod n) realizing the half-identity
    parameter, the substitution y -> 2u in the Wigner sum gives

        W^{hI}_{f,phi}(j, k) = e^{4i pi <j,k>/n} V_{phi^}f(2j, 2k),

    phi^(x) = phi(-x).  No 2^d factor survives: the counting measure has
    no Jacobian.  Requires mode "mod".
    """
    grid = f.grid
    if grid.mode != "mod":
        raise ModeMismatch("relation uses 2^{-1} mod n; requires mode 'mod'")
    n = grid.n
    h = (n + 1) // 2
    W = wigner(f, phi, MatrixParam.scalar(h, grid.d)).data
    coords = index_coords(grid)
    neg = flatten_coords(grid, -coords)
    phicheck = Signal(grid, phi.data[neg])
    V = stft(f, phicheck).data
    two = flatten_coords(grid, 2 * coords)
    dot = (coords @ coords.T) % n  # <j, k> mod n, exact
    phase = np.exp(4j * np.pi * dot / n)
    rhs = phase * V[np.ix_(two, two)]
    return float(np.abs(W - rhs).max())


def phase_space_stft(F: np.ndarray, Phi: np.ndarray, grid: GridSpec) -> np.ndarray:
    """:func:`stft` on the doubled grid Z_n^{2d} of an (N, N) array,
    reshaped to (N, N, N, N).

    Output axes (x, xi, eta, y): (x, xi) is the translation, (eta, y)
    the frequency; normalization n^{-d} (unitary on Z_n^{2d}).
    """
    N = grid.size
    if _column_budget(grid) < N * N:
        raise SizeLimit(f"dense 4d array would have {N**4} entries (cap {FOURD_LIMIT})")
    D = doubled(grid)
    V = stft(Signal(D, F.ravel()), Signal(D, Phi.ravel())).data
    return V.reshape((N,) * 4)


def _stft_columns(F, Phi, columns=None):
    """Blocks (k, V) of frequency columns of the STFT of the grid array F
    under the window Phi, as a generator: the package's one STFT.

    F and Phi, a Signal, Symbol or TimeFrequencyArray of one grid and rank
    (see :func:`_check_window`), are read as signals on Z_n^D, D = d rank,
    of M = F.data.size points, so a Signal's columns are :func:`stft`'s
    and a symbol's are :func:`phase_space_stft`'s.  k holds flat frequency
    indices, all M of them in order unless `columns` names some; V[b] is
    the column at k[b] over the translations, shaped like F.data;
    ``grid._blocks`` splits the columns, M entries each.  Column k is the
    cyclic cross-correlation ifftn(F^(. + k) conj(Phi^)) / sqrt(M) of two
    FFTs done here, once: F^ tiled twice along its last D - D//2 axes
    (2^(D - D//2) spectra), where a column's shift is a window, and the
    window spectrum conj(Phi^) / sqrt(M), which carries the scale.
    The generator keeps only those, so no (M, M) array is ever built.

    The generator holds no block once it has handed it out.  A consumer
    drops every array of a block before it asks for the next one, so at
    most one block per stream is alive.
    """
    _check_window(Phi, F)
    n, D, M = F.grid.n, F.grid.d * F.rank, F.data.size
    shape, h = (n,) * D, D // 2
    Fhat = np.tile(_fftn(F.data.reshape(shape)), (1,) * h + (2,) * (D - h))
    windows = sliding_window_view(Fhat, shape[h:], axis=tuple(range(h, D)))
    Phihat = np.conj(_fftn(Phi.data.reshape(shape)))
    Phihat /= np.sqrt(M)
    ks = np.arange(M) if columns is None else np.asarray(columns)
    return (_column_block(windows, Phihat, ks[s], F.data.shape) for s in _blocks(len(ks), M))


def _column_block(windows: np.ndarray, Phihat: np.ndarray, k: np.ndarray, shape):
    """Columns k, each of the given shape, of the STFT from the windows of
    its signal's FFT and from the scaled conjugated window spectrum: the
    shift (m_i + k_i) mod n is a per-axis index on the first D//2 axes and
    the window that starts at k_i on the rest."""
    n, D = Phihat.shape[0], Phihat.ndim
    h = D // 2
    k_axes = np.unravel_index(k, Phihat.shape)
    idx = tuple(((np.arange(n) + k_i[:, None]) % n).reshape((len(k),) + (1,) * i + (n,) + (1,) * (h - 1 - i))
                for i, k_i in enumerate(k_axes[:h]))
    starts = tuple(k_i.reshape((len(k),) + (1,) * h) for k_i in k_axes[h:])
    V = windows[idx + starts]
    V *= Phihat
    np.fft.ifftn(V, axes=tuple(range(1, D + 1)), out=V)
    return k, V.reshape((len(k),) + shape)


def _check_columns(grid: GridSpec):
    """Every frequency column (None) while the 4d grid has at most
    FOURD_LIMIT entries, else a sorted seed-0 sample of FOURD_LIMIT // N^2.
    Raises SizeLimit when not one column fits, as nothing would be checked."""
    N = grid.size
    budget = _column_budget(grid)
    if budget >= N * N:
        return None
    if budget == 0:
        raise SizeLimit(f"one STFT column has {N * N} entries (cap {FOURD_LIMIT})")
    return np.sort(np.random.default_rng(0).choice(N * N, budget, replace=False))


def stft_of_wigner_check(f, g, phi, psi, A) -> float:
    """Max deviation between V_Phi W^A_{f,g} and the two-STFT product form

        e^{-2i pi <y,xi>/n} (V_phi f)(x-Ay, xi-(A*-I)eta)
                       conj((V_psi g)(x-(A-I)y, xi-A*eta)).

    Exact (fp roundoff) in mode "mod" with integer A.  Streams the left
    side by frequency columns (eta, y), each exact over all translations
    (x, xi); above FOURD_LIMIT 4d entries it reads a fixed sample of
    columns, and raises SizeLimit when not one column fits.
    """
    grid = f.grid
    Aint = _integer_matrix(grid, A)
    columns = _check_columns(grid)
    N, n = grid.size, grid.n
    Vf, Vg = stft(f, phi).data, stft(g, psi).data
    Bint = Aint - np.eye(grid.d, dtype=np.int64)
    coords = index_coords(grid)
    block_max = []
    for k, lhs in _stft_columns(wigner(f, g, A), wigner(phi, psi, A), columns):
        eta, y = k // N, k % N
        rhs = Vf[_shear(grid, -Aint, y)[:, :, None], _shear(grid, -Bint.T, eta)[:, None, :]]
        rhs *= np.exp(-2j * np.pi * ((coords[y] @ coords.T) % n) / n)[:, None, :]  # e^{-2i pi <y, xi>/n}
        Vg_sheared = Vg[_shear(grid, -Bint, y)[:, :, None], _shear(grid, -Aint.T, eta)[:, None, :]]
        rhs *= np.conj(Vg_sheared, out=Vg_sheared)
        rhs -= lhs
        del lhs, Vg_sheared
        block_max.append(np.abs(rhs).max())
        del rhs  # no array of this block is alive while the stream computes the next
    return float(np.max(block_max))  # a NaN block makes the result NaN


def expop_stft_check(a: Symbol, phi: Symbol, A) -> float:
    """Max deviation of the transfer/STFT commutation identity

        (V_{T_A phi}(T_A a))(x, xi, eta, y)
            = e^{2i pi <A y, eta>/n} (V_phi a)(x + A y, xi + A* eta, eta, y)

    Both sides stream by frequency columns (eta, y); each column's right
    side is its own translations (x, xi) shifted by (A y, A* eta), exact
    over all of them.  Each stream holds one block at a time: a block's
    arrays are dropped before the next block is computed.  Above
    FOURD_LIMIT 4d entries a fixed sample of columns is read, and SizeLimit
    raised when not one column fits.  Exactly zero at A = 0; requires mode
    "mod" and integer A.
    """
    grid = a.grid
    Aint = _integer_matrix(grid, A)
    columns = _check_columns(grid)
    N, n = grid.size, grid.n
    coords = index_coords(grid)
    block_max = []
    lhs_columns = _stft_columns(symbol_transfer(a, A), symbol_transfer(phi, A), columns)
    for k, V in _stft_columns(a, phi, columns):
        eta, y = k // N, k % N
        dot = np.sum((coords[y] @ Aint.T) * coords[eta], axis=1) % n  # <A y, eta>
        rhs = V[np.arange(len(k))[:, None, None], _shear(grid, Aint, y)[:, :, None],
                _shear(grid, Aint.T, eta)[:, None, :]]
        rhs *= np.exp(2j * np.pi * dot / n)[:, None, None]
        del V  # V goes before the left side's block is computed
        rhs -= next(lhs_columns)[1]
        block_max.append(np.abs(rhs).max())
        del rhs  # no array of this block is alive while the streams compute the next
    return float(np.max(block_max))  # a NaN block makes the result NaN
