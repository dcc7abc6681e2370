"""Discrete model: index arithmetic on Z_n^d, centered representatives,
the unitary DFT, partial DFTs and fractional (trigonometric) shifts.

Conventions fixed here and relied on everywhere else:

* positions are integer indices j in Z_n^d, flattened row-major;
* the frequency sample k stands for xi_k = 2*pi*rep(k)/n per axis;
* the DFT is unitary, (Ff)(k) = n^{-d/2} sum_j f(j) e^{-2i pi <j,k>/n},
  so the plane-wave kernel e^{i<x-y,xi>} becomes the exact DFT character;
* n is odd, making centered representatives unambiguous and 2 invertible
  mod n;
* every FFT writes into a C-contiguous buffer owned by the function that
  runs it: the first pass writes into a fresh ``np.empty`` array (never
  into the caller's array, which a ``Symbol`` or ``Signal`` may share with
  its caller), and every later FFT pass, scale, phase and gather works in
  place on that buffer, so a kernel-formula call returns the one N x N
  buffer it computed in.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, InvalidParams, ZeroWindow

__all__ = [
    "GridSpec",
    "Signal",
    "Symbol",
    "OperatorMatrix",
    "rep",
    "rep_axis",
    "index_coords",
    "rep_coords",
    "rel_index",
    "dft",
    "idft",
    "partial_dft",
    "frac_shift",
    "gaussian_window",
    "doubled",
]


def _is_real(x) -> bool:
    """A real number, numpy's included, and not a bool: the one predicate
    of the rules for counts, real parameters and exponents."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _count(name: str, value, error=InvalidParams, minimum=1) -> int:
    """value as an int when it is an integer >= minimum and not a bool, else
    `error` naming the parameter: the one rule for counts (grid sizes,
    nodes, samples, draws, and the psi functions' dimension) and, at
    minimum 0, for seeds."""
    if not (_is_real(value) and isinstance(value, numbers.Integral)) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _keys(name: str, params, allowed, noun="parameter") -> None:
    """InvalidParams naming each key of params that is not in the set
    `allowed`: the one rule for parameter keys (or, with noun="input", the
    input names) a kind or command does not take."""
    stray = params.keys() - allowed
    if stray:
        raise InvalidParams(f"{name} takes no {noun} {', '.join(sorted(map(repr, stray)))}; "
                            f"it takes {', '.join(map(repr, sorted(allowed))) or 'none'}")


def _real_entries(value) -> bool:
    """value lays out as an array of real numbers (no bool or string)."""
    try:
        entries = np.asarray(value, dtype=object)
    except ValueError:  # ragged arrays, which numpy cannot lay out
        return False
    return all(map(_is_real, entries.flat))


def _real(name: str, value, minimum=None):
    """value, unchanged, if it is a real number or real entries (no bool or
    string), all finite and at least `minimum` if given; else InvalidParams
    naming the parameter: the one rule for real parameters.  A number is
    checked with math (numpy's 0-d calls cost several times as much), an
    array with numpy; only an array that is not a numeric ndarray is
    scanned entry by entry."""
    number = _is_real(value)
    if not (number or isinstance(value, np.ndarray) and value.dtype.kind in "iuf" or _real_entries(value)):
        raise InvalidParams(f"{name} must be a real number or real entries, got {value!r}")
    try:
        if number:
            ok = math.isfinite(value) and (minimum is None or value >= minimum)
        else:
            arr = np.asarray(value, dtype=float)
            ok = np.isfinite(arr).all() and (minimum is None or (arr >= minimum).all())
    except OverflowError:  # an int beyond the largest float
        ok = False
    if not ok:
        bound = "" if minimum is None else f" and >= {minimum}"
        raise InvalidParams(f"{name} must be finite{bound}, got {value!r}")
    return value


def _real_number(name: str, value, minimum=None):
    """:func:`_real` for a parameter that is one number: entries are refused."""
    if not _is_real(value):
        raise InvalidParams(f"{name} must be a real number, got {value!r}")
    return _real(name, value, minimum)


@dataclass(frozen=True)
class GridSpec:
    """Finite cyclic grid Z_n^d with an arithmetic mode.

    mode "real" samples phases at centered representatives (continuum
    faithful, accepts any real matrix parameter); mode "mod" reduces
    everything mod n (exact cyclic-group identities, integer parameters
    only).
    """

    d: int
    n: int
    mode: str = "real"

    def __post_init__(self):
        object.__setattr__(self, "d", _count("dimension d", self.d))
        object.__setattr__(self, "n", _count("points per axis n", self.n))
        if self.n % 2 == 0:
            raise InvalidParams(f"points per axis must be odd, got {self.n}")
        if self.mode not in ("real", "mod"):
            raise InvalidParams(f"mode must be 'real' or 'mod', got {self.mode!r}")

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d


@dataclass(frozen=True)
class _GridArray:
    """Complex128 array with `rank` axes of N = n^d points each over a grid;
    the one coercion and shape check of every grid-indexed array type."""

    grid: GridSpec
    data: np.ndarray = field(repr=False)
    rank = 2

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        shape = (self.grid.size,) * self.rank
        if arr.shape != shape:
            raise DimMismatch(f"expected shape {shape}, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


def _check_window(phi: _GridArray, data: _GridArray, window=True):
    """DimMismatch unless the grid array phi has the rank of `data` and lies
    on its grid (d, n); the modes may differ.  The one rule for a window and
    for a second signal (window=False).  A window that is identically zero
    raises ZeroWindow; a second signal may be zero."""
    what = "window" if window else "second signal"
    if (phi.grid.d, phi.grid.n, phi.rank) != (data.grid.d, data.grid.n, data.rank):
        raise DimMismatch(f"{what} has rank {phi.rank} on (d, n) = ({phi.grid.d}, {phi.grid.n}), expected "
                          f"rank {data.rank} on ({data.grid.d}, {data.grid.n}): the {what} and data grids differ")
    if window and not np.any(phi.data):
        raise ZeroWindow("window is identically zero")


@dataclass(frozen=True)
class Signal(_GridArray):
    """Complex vector indexed by Z_n^d (row-major over coordinates)."""

    rank = 1

    @classmethod
    def delta(cls, grid, at=0):
        data = np.zeros(grid.size, dtype=np.complex128)
        data[at] = 1.0
        return cls(grid, data)

    @classmethod
    def random(cls, grid, rng):
        return cls(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))


@dataclass(frozen=True)
class Symbol(_GridArray):
    """Complex array over Z_n^d x Z_n^d; first block positions, second frequencies."""

    @classmethod
    def constant(cls, grid, value=1.0):
        return cls(grid, np.full((grid.size, grid.size), value, dtype=np.complex128))

    @classmethod
    def random(cls, grid, rng):
        N = grid.size
        return cls(grid, rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))


@dataclass(frozen=True)
class OperatorMatrix(_GridArray):
    """n^d x n^d matrix; entry (j, j') is the Schwartz-kernel value K(j, j')."""

    @classmethod
    def identity(cls, grid):
        return cls(grid, np.eye(grid.size, dtype=np.complex128))


# grids whose index tables stay cached, per table kind
CACHE_SIZE = 32

# entries per block of every streamed evaluation, all split by _blocks: STFT
# frequency columns, weight-estimator tuples and grid samples, stratified
# angles, and the rows of the kernel gather, dense phase and CLI hermiticity
# defect; peak memory then does not grow with the item count, and an N x N
# result needs no second N x N buffer.  At 2^14 entries a freed block stays
# in the malloc heap and the next block reuses it; 2^16-entry (1 MiB) blocks
# freed more than glibc's trim threshold at once, so each went back to the
# OS and was faulted in again
_BLOCK_ENTRIES = 2**14


def _blocks(count: int, width: int = 1):
    """Slices of consecutive items of range(count), each of at most
    _BLOCK_ENTRIES entries at `width` per item (one item where it is wider)."""
    step = max(1, _BLOCK_ENTRIES // width)
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


def rep(k: int, n: int) -> int:
    """Centered representative: the unique r = k (mod n) with |r| <= (n-1)/2."""
    return (int(k) + (n - 1) // 2) % n - (n - 1) // 2


@lru_cache(maxsize=CACHE_SIZE)
def rep_axis(n: int) -> np.ndarray:
    """Centered representatives of 0..n-1 as an int array."""
    r = (np.arange(n) + (n - 1) // 2) % n - (n - 1) // 2
    r.setflags(write=False)
    return r


@lru_cache(maxsize=CACHE_SIZE)
def _coords(n: int, d: int) -> np.ndarray:
    """(N, d) array of per-axis indices for each flat index, row-major."""
    grids = np.meshgrid(*([np.arange(n)] * d), indexing="ij")
    c = np.stack([g.ravel() for g in grids], axis=1)
    c.setflags(write=False)
    return c


def index_coords(grid: GridSpec) -> np.ndarray:
    return _coords(grid.n, grid.d)


def rep_coords(grid: GridSpec) -> np.ndarray:
    """(N, d) centered-representative coordinates for each flat index."""
    return rep_axis(grid.n)[_coords(grid.n, grid.d) % grid.n]


@lru_cache(maxsize=CACHE_SIZE)
def _rel_index(n: int, d: int) -> np.ndarray:
    """rel[i, j] = flat index of coords(i) - coords(j) mod n."""
    c = _coords(n, d)
    diff = (c[:, None, :] - c[None, :, :]) % n
    weights = n ** np.arange(d - 1, -1, -1)
    out = diff @ weights
    out.setflags(write=False)
    return out


def rel_index(grid: GridSpec) -> np.ndarray:
    return _rel_index(grid.n, grid.d)


def flatten_coords(grid: GridSpec, coords: np.ndarray) -> np.ndarray:
    """Flat indices of (…, d) integer coordinates, reduced mod n."""
    weights = grid.n ** np.arange(grid.d - 1, -1, -1)
    return (np.asarray(coords) % grid.n) @ weights


def _fftn(x, axes=None, inverse=False):
    """np.fft.fftn (ifftn if inverse) of x over axes, written into a fresh
    C-contiguous complex buffer: the first axis pass reads x and writes the
    buffer, every later pass runs in place on it, and x is never written."""
    out = np.empty(x.shape, dtype=np.complex128)
    return (np.fft.ifftn if inverse else np.fft.fftn)(x, axes=axes, out=out)


def _unitary_fftn(x, axes=None, inverse=False):
    """The unitary DFT (its inverse if `inverse`) of x over axes (all by
    default): :func:`_fftn`, then one in-place scale by the root of the
    number of points transformed."""
    out = _fftn(x, axes, inverse)
    points = x.size if axes is None else math.prod(x.shape[a] for a in axes)
    if inverse:
        out *= np.sqrt(points)
    else:
        out /= np.sqrt(points)
    return out


def dft(f: Signal) -> Signal:
    """Unitary DFT: (Ff)(k) = n^{-d/2} sum_j f(j) e^{-2i pi <j,k>/n}."""
    return Signal(f.grid, _unitary_fftn(f.data.reshape(f.grid.shape)).ravel())


def idft(f: Signal) -> Signal:
    """Inverse of :func:`dft`; exact roundtrip up to fp roundoff."""
    return Signal(f.grid, _unitary_fftn(f.data.reshape(f.grid.shape), inverse=True).ravel())


def _block_axes(d, block):
    if block == 1:
        return tuple(range(d))
    if block == 2:
        return tuple(range(d, 2 * d))
    raise InvalidParams(f"block must be 1 or 2, got {block}")


def _partial_dft_core(arr2, grid, block, inverse=False):
    """Unitary DFT of an (N, N) two-block array along one index block, into
    a fresh buffer."""
    n, d = grid.n, grid.d
    return _unitary_fftn(arr2.reshape((n,) * (2 * d)), _block_axes(d, block), inverse).reshape(arr2.shape)


def partial_dft(F: Symbol, block: int, direction: str = "fwd") -> Symbol:
    """Unitary DFT applied along one index block of a two-block array.

    direction "fwd" or "inv"; block 1 is the position block, block 2 the
    frequency block.
    """
    if direction not in ("fwd", "inv"):
        raise InvalidParams(f"direction must be 'fwd' or 'inv', got {direction!r}")
    out = _partial_dft_core(F.data, F.grid, block, inverse=direction == "inv")
    return Symbol(F.grid, out)


def frac_shift(f: Signal, s) -> Signal:
    """Translate by a real vector s via trigonometric interpolation.

    The DFT coefficient at k is multiplied by e^{-2i pi <rep(k), s>/n}; for
    integer s this is the exact cyclic shift. n-periodic in each component
    of s, so s is first reduced mod n (exactly), which keeps the phases finite.
    """
    grid = f.grid
    n = grid.n
    shift = np.asarray(_real("shift", s), dtype=float)
    if shift.shape not in ((), (1,), (grid.d,)):
        raise InvalidParams(f"shift must be a real number or {grid.d} real entries, got {s!r}")
    s = np.fmod(np.broadcast_to(shift, (grid.d,)), n)
    fhat = _fftn(f.data.reshape(grid.shape))
    for axis in range(grid.d):
        shape = [1] * grid.d
        shape[axis] = n
        fhat *= np.exp(-2j * np.pi * rep_axis(n) * s[axis] / n).reshape(shape)
    return Signal(grid, np.fft.ifftn(fhat, out=fhat).ravel())


def gaussian_window(grid: GridSpec) -> Signal:
    """Periodized Gaussian, l2-normalized; the canonical analysis window.

    Per axis: phi(j) = sum_{|m|<=3} exp(-pi (rep(j) + m n)^2 / n). The
    truncation error of the periodization is below 1e-15 for n >= 5.
    """
    n = grid.n
    r = rep_axis(n).astype(float)
    axis = np.zeros(n)
    for m in range(-3, 4):
        axis += np.exp(-np.pi * (r + m * n) ** 2 / n)
    data = axis
    for _ in range(grid.d - 1):
        data = np.multiply.outer(data, axis)
    data = data.ravel().astype(np.complex128)
    return Signal(grid, data / np.linalg.norm(data))


def doubled(grid: GridSpec) -> GridSpec:
    """The grid Z_n^{2d} on which symbols live as plain signals."""
    return GridSpec(2 * grid.d, grid.n, grid.mode)
