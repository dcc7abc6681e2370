"""Short-time Fourier transform, A-Wigner distributions, and the exact
identities tying them to each other and to the quantizer.

Discrete phase conventions below were fixed by exhaustive computation on
the n=3 grid (see tests), not by transcribing continuum formulas; the
counting-measure model drops the Jacobian factors of the continuum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ModeMismatch, SizeLimit, ZeroWindow
from .grid import (
    GridSpec,
    Signal,
    Symbol,
    OperatorMatrix,
    index_coords,
    rel_index,
    flatten_coords,
    doubled,
    _partial_dft_core,
)
from .quantizer import MatrixParam, as_matrix_param, dequantize, symbol_transfer, _require_mode

__all__ = [
    "TimeFrequencyArray",
    "FourDArray",
    "stft",
    "wigner",
    "weyl_wigner_stft_relation_check",
    "phase_space_stft",
    "stft_of_wigner",
    "stft_of_wigner_check",
    "expop_stft_check",
]

# dense (N, N, N, N) arrays are only materialized below this entry count
FOURD_LIMIT = 2_000_000


@dataclass(frozen=True)
class TimeFrequencyArray:
    """Array over Z_n^d x Z_n^d (position x frequency)."""

    grid: GridSpec
    data: np.ndarray = field(repr=False)
    kind: str = "stft"  # "stft" | "wigner"

    def __post_init__(self):
        N = self.grid.size
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.shape != (N, N):
            raise SizeLimit(f"expected shape {(N, N)}, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


@dataclass(frozen=True)
class FourDArray:
    """Array over (Z_n^d)^4, axes ordered (x, xi, eta, y)."""

    grid: GridSpec
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        N = self.grid.size
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.shape != (N,) * 4:
            raise SizeLimit(f"expected shape {(N,) * 4}, got {arr.shape}")
        object.__setattr__(self, "data", arr)


def _check_window(phi: Signal):
    if not np.any(phi.data):
        raise ZeroWindow("window is identically zero")


def stft(f: Signal, phi: Signal) -> TimeFrequencyArray:
    """V_phi f(j, k) = n^{-d/2} sum_y f(y) conj(phi(y-j)) e^{-2i pi <y,k>/n}.

    l2 isometry up to the window norm: ||V_phi f||_2 = ||phi||_2 ||f||_2.
    """
    _check_window(phi)
    grid = f.grid
    n, d = grid.n, grid.d
    # M[j, y] = f(y) conj(phi(y - j)): the windows of the 2-periodic tiling
    # of conj(phi) starting at n - j, so no (N, N) index array is built
    tiled = np.tile(np.conj(phi.data).reshape(grid.shape), (2,) * d)
    windows = sliding_window_view(tiled, grid.shape)[(slice(n, 0, -1),) * d]
    V = np.multiply(f.data.reshape(grid.shape), windows, order="C")
    # V is a fresh buffer, so the FFT over the frequency block runs in place
    # and V is the only array of the output's size that is ever alive
    np.fft.fftn(V, axes=tuple(range(d, 2 * d)), out=V)
    V /= np.sqrt(grid.size)
    return TimeFrequencyArray(grid, V.reshape(grid.size, grid.size), kind="stft")


def wigner(f1: Signal, f2: Signal, A) -> TimeFrequencyArray:
    """Cross A-Wigner distribution W^A_{f1,f2}.

    mode "mod" (integer A): W(j, k) = n^{-d/2} sum_y f1(j + A y)
    conj(f2(j + (A-I) y)) e^{-2i pi <y,k>/n} with modular index arithmetic.
    mode "real" (any A): n^{-d/2} times the dequantization of the
    rank-one operator f1 f2^*, which coincides with the direct formula
    for integer A.
    """
    grid = f1.grid
    A = as_matrix_param(A, grid.d)
    _require_mode(grid, A)
    if grid.mode == "mod":
        Aint = np.round(A.entries).astype(np.int64)
        Bint = Aint - np.eye(grid.d, dtype=np.int64)
        coords = index_coords(grid)
        ia = flatten_coords(grid, coords[:, None, :] + coords[None, :, :] @ Aint.T)
        ib = flatten_coords(grid, coords[:, None, :] + coords[None, :, :] @ Bint.T)
        M = f1.data[ia] * np.conj(f2.data[ib])
        W = _partial_dft_core(M, grid, 2, inverse=False)
    else:
        outer = OperatorMatrix(grid, np.outer(f1.data, np.conj(f2.data)))
        W = dequantize(outer, A).data / np.sqrt(grid.size)
    return TimeFrequencyArray(grid, W, kind="wigner")


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
    if N**4 > FOURD_LIMIT:
        raise SizeLimit(f"dense 4d array would have {N**4} entries (cap {FOURD_LIMIT})")
    D = doubled(grid)
    V = stft(Signal(D, F.ravel()), Signal(D, Phi.ravel())).data
    return V.reshape((N,) * 4)


def stft_of_wigner(f: Signal, g: Signal, phi: Signal, psi: Signal, A) -> FourDArray:
    """V_Phi W^A_{f,g} with the matched window Phi = W^A_{phi,psi}."""
    grid = f.grid
    A = as_matrix_param(A, grid.d)
    W = wigner(f, g, A).data
    Phi = wigner(phi, psi, A).data
    return FourDArray(grid, phase_space_stft(W, Phi, grid))


def _factorization_rhs_indices(grid, A):
    """Index and phase arrays for the sheared right-hand side."""
    n = grid.n
    coords = index_coords(grid)
    Aint = np.round(A.entries).astype(np.int64)
    Bint = Aint - np.eye(grid.d, dtype=np.int64)
    # position arguments over (x, y); frequency arguments over (xi, eta)
    pos_f = flatten_coords(grid, coords[:, None, :] - coords[None, :, :] @ Aint.T)
    pos_g = flatten_coords(grid, coords[:, None, :] - coords[None, :, :] @ Bint.T)
    frq_f = flatten_coords(grid, coords[:, None, :] - coords[None, :, :] @ Bint)
    frq_g = flatten_coords(grid, coords[:, None, :] - coords[None, :, :] @ Aint)
    dot = (coords @ coords.T) % n
    phase = np.exp(-2j * np.pi * dot / n)  # e^{-2i pi <y, xi>/n} over (xi, y)
    return pos_f, pos_g, frq_f, frq_g, phase


def stft_of_wigner_check(f, g, phi, psi, A, samples=None, rng=None) -> float:
    """Max deviation between V_Phi W^A_{f,g} and the two-STFT product form

        e^{-2i pi <y,xi>/n} (V_phi f)(x-Ay, xi-(A*-I)eta)
                       conj((V_psi g)(x-(A-I)y, xi-A*eta)).

    Exact (fp roundoff) in mode "mod" with integer A.  When the dense 4d
    array exceeds the cap, evaluates both sides on `samples` random index
    tuples instead.
    """
    grid = f.grid
    A = as_matrix_param(A, grid.d)
    if grid.mode != "mod" or not A.integer_flag:
        raise ModeMismatch("identity requires mode 'mod' and integer A")
    N = grid.size
    Vf = stft(f, phi).data
    Vg = stft(g, psi).data
    pos_f, pos_g, frq_f, frq_g, phase = _factorization_rhs_indices(grid, A)

    if N**4 <= FOURD_LIMIT and samples is None:
        lhs = stft_of_wigner(f, g, phi, psi, A).data
        rhs = (
            phase[None, :, None, :]
            * Vf[pos_f[:, None, None, :], frq_f[None, :, :, None]]
            * np.conj(Vg[pos_g[:, None, None, :], frq_g[None, :, :, None]])
        )
        return float(np.abs(lhs - rhs).max())

    # sampled evaluation: direct double sum for the left side
    if rng is None:
        rng = np.random.default_rng(0)
    samples = 64 if samples is None else samples
    W = wigner(f, g, A).data
    Phi = wigner(phi, psi, A).data
    rel = rel_index(grid)
    coords = index_coords(grid)
    worst = 0.0
    n = grid.n
    for _ in range(samples):
        x, xi, eta, y = rng.integers(0, N, size=4)
        win = Phi[rel[:, x]][:, rel[:, xi]]
        modphase = np.exp(
            -2j * np.pi * ((coords @ coords[eta] % n)[:, None] + (coords @ coords[y] % n)[None, :]) / n
        )
        lhs = np.sum(W * np.conj(win) * modphase) / N
        rhs = (
            phase[xi, y]
            * Vf[pos_f[x, y], frq_f[xi, eta]]
            * np.conj(Vg[pos_g[x, y], frq_g[xi, eta]])
        )
        worst = max(worst, abs(lhs - rhs))
    return float(worst)


def expop_stft_check(a: Symbol, phi: Symbol, A) -> float:
    """Max deviation of the transfer/STFT commutation identity

        (V_{T_A phi}(T_A a))(x, xi, eta, y)
            = e^{2i pi <A y, eta>/n} (V_phi a)(x + A y, xi + A* eta, eta, y)

    over the full 4d grid.  Exactly zero at A = 0; requires mode "mod"
    and integer A.
    """
    grid = a.grid
    A = as_matrix_param(A, grid.d)
    if grid.mode != "mod" or not A.integer_flag:
        raise ModeMismatch("identity requires mode 'mod' and integer A")
    N, n = grid.size, grid.n
    Ta = symbol_transfer(a, A).data
    Tphi = symbol_transfer(phi, A).data
    lhs = phase_space_stft(Ta, Tphi, grid)
    V4 = phase_space_stft(a.data, phi.data, grid)
    coords = index_coords(grid)
    Aint = np.round(A.entries).astype(np.int64)
    pos = flatten_coords(grid, coords[:, None, :] + coords[None, :, :] @ Aint.T)  # (x, y)
    frq = flatten_coords(grid, coords[:, None, :] + coords[None, :, :] @ Aint)  # (xi, eta)
    dot = (coords @ Aint.T @ coords.T) % n  # <A y, eta> over (y, eta)
    phase = np.exp(2j * np.pi * dot / n)
    idx = np.arange(N)
    rhs = (
        phase.T[None, None, :, :]
        * V4[pos[:, None, None, :], frq[None, :, :, None], idx[None, None, :, None], idx[None, None, None, :]]
    )
    return float(np.abs(lhs - rhs).max())
