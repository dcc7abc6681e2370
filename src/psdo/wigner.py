"""Short-time Fourier transform and A-Wigner distributions; the exact
identities tying them to each other and to the quantizer are checked in
``verify``.

Discrete phase conventions below were fixed by exhaustive computation on
the n=3 grid (see tests), not by transcribing continuum formulas; the
counting-measure model drops the Jacobian factors of the continuum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SizeLimit
from .grid import GridSpec, Signal, doubled, _GridArray, _blocks, _check_window, _fftn
from .quantizer import rank_one_symbol

__all__ = ["TimeFrequencyArray", "stft", "wigner", "phase_space_stft"]

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


def wigner(f1: Signal, f2: Signal, A) -> TimeFrequencyArray:
    """Cross A-Wigner distribution W^A_{f1,f2}: n^{-d/2} times the
    dequantization of the rank-one operator f1 f2^*, in either mode (mode
    "mod" requires integer A).  For integer A this is the direct modular sum
    n^{-d/2} sum_y f1(j + A y) conj(f2(j + (A-I) y)) e^{-2i pi <y,k>/n}."""
    return TimeFrequencyArray(f1.grid, rank_one_symbol(f1, f2, A).data / np.sqrt(f1.grid.size))


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
