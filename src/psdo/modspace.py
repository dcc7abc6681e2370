"""Weights, mixed weighted sequence norms, modulation norms, and the
exponent/weight condition predicates gating the boundedness and
composition estimates.

Counting-measure convention: sequence norms carry no mesh factors.  Every
identity asserted exactly elsewhere (Moyal-type equalities) is
constant-free; inequality-type statements are reported with empirically
estimated constants.

Exponents are exact rationals (plus a distinguished infinity), so the
equality-type conditions are decided exactly, never by float comparison.
Physical phase-space coordinates: centered representatives, scale 1 on
position axes and 2*pi/n on frequency axes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ArityMismatch,
    DomainMismatch,
    InvalidExponent,
    InvalidParams,
    SizeLimit,
    TooFewEntries,
)
from .grid import (GridSpec, Signal, Symbol, gaussian_window, doubled, rep_coords, _BLOCK_ENTRIES, _is_real,
                   _real, _real_number)
from .quantizer import as_matrix_param
from .wigner import FOURD_LIMIT, TimeFrequencyArray, stft, _column_budget, _stft_columns

__all__ = [
    "INF",
    "as_exponent",
    "recip",
    "conjugate_exponent",
    "ExponentTuple",
    "MixedNormParams",
    "Weight",
    "make_weight",
    "TF_AXES",
    "SYMBOL_AXES",
    "KERNEL_AXES",
    "moderate_check",
    "mixed_norm",
    "modulation_norm",
    "symbol_modulation_norm",
    "hy_functional",
    "holds_op_bound_exponents",
    "holds_schatten_embedding_exponents",
    "holds_wigner_product_exponents",
    "holds_composition_exponents",
    "holds_composition_exponents_l2",
    "holds_kernel_weight_bound",
    "holds_kernel_symbol_weight_equiv",
    "holds_wigner_weight_bound",
    "holds_op_weight_bound",
    "holds_composition_weight_bound",
]

INF = math.inf

# axis layouts: each entry is one d-dimensional block
TF_AXES = ("pos", "freq")                     # time-frequency plane (x, xi)
SYMBOL_AXES = ("pos", "freq", "freq", "pos")  # symbol phase space (x, xi, eta, y)
KERNEL_AXES = ("pos", "pos", "freq", "freq")  # kernel phase space (x, y, xi, eta)

# The weight-condition estimators take the worst constant over every tuple
# of phase-space points when there are at most PAIR_LIMIT tuples, and over
# PAIR_SAMPLES fixed-seed random tuples otherwise, evaluated in blocks of
# at most grid._BLOCK_ENTRIES point coordinates.
PAIR_LIMIT = 10**6
PAIR_SAMPLES = 10**5


# ---------------------------------------------------------------------------
# exponents


def as_exponent(x):
    """Coerce to an exact exponent: a Fraction, or INF.

    Takes a string such as "3/2" or "inf", or a number that
    :func:`_numeric_exponent` takes; anything else raises InvalidExponent.
    """
    if isinstance(x, str):
        if x.strip().lower() in ("inf", "infinity", "oo"):
            return INF
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise InvalidExponent(f"cannot interpret {x!r} as an exponent") from None
    return _numeric_exponent(x)


def _numeric_exponent(x):
    """A real number as an exact exponent: a Fraction, or INF for +inf.

    numpy scalars count as numbers; a bool, a string, a complex number,
    NaN and -inf raise InvalidExponent.  The one rule for what a numeric
    exponent is, shared by :func:`as_exponent` and :class:`MixedNormParams`.
    """
    if not _is_real(x):
        raise InvalidExponent(f"cannot interpret {x!r} as an exponent")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):  # a Python int, so no numpy scalar wraps in the exact arithmetic
        return Fraction(int(x))
    if x == INF:
        return INF
    if not math.isfinite(x):
        raise InvalidExponent(f"cannot interpret {x!r} as an exponent")
    return Fraction(float(x))


def _check_range(p):
    if p is not INF and p < 1:
        raise InvalidExponent(f"exponent must lie in [1, inf], got {p}")
    return p


def recip(p) -> Fraction:
    """1/p with 1/inf = 0, exact."""
    return Fraction(0) if p is INF else Fraction(1) / p


def conjugate_exponent(p):
    """p' with 1/p + 1/p' = 1."""
    p = _check_range(as_exponent(p))
    if p is INF:
        return Fraction(1)
    if p == 1:
        return INF
    return p / (p - 1)


def exponent_to_float(p) -> float:
    return math.inf if p is INF else float(p)


@dataclass(frozen=True)
class ExponentTuple:
    """Paired exponent lists (p_0..p_N, q_0..q_N), stored exactly."""

    p: tuple
    q: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(_check_range(as_exponent(x)) for x in self.p))
        object.__setattr__(self, "q", tuple(_check_range(as_exponent(x)) for x in self.q))
        if len(self.p) != len(self.q):
            raise ArityMismatch(f"p and q lists differ in length: {len(self.p)} vs {len(self.q)}")


@dataclass(frozen=True)
class MixedNormParams:
    """Inner (position) exponent p and outer (frequency) exponent q."""

    p: float
    q: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q)):
            if _numeric_exponent(v) <= 0:
                raise InvalidExponent(f"{name} must lie in (0, inf], got {v}")


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """Positive function on a stack of d-dimensional phase-space blocks.

    kind "polynomial": (1 + |X|^2)^(s/2); "exponential": exp(c |X|^(1/s));
    "product": tensor product of two weights over a split of the blocks;
    "custom": positive samples on the grid (sampling only).
    """

    kind: str
    axes: tuple
    params: tuple

    @property
    def trivial(self) -> bool:
        """Whether this is omega == 1, the polynomial weight with s = 0."""
        return self.kind == "polynomial" and self.params == (0.0,)

    def evaluate(self, X) -> np.ndarray:
        """Pointwise values at physical coordinates X of shape (..., D)."""
        X = np.asarray(X, dtype=float)
        if self.kind == "polynomial":
            (s,) = self.params
            return (1.0 + np.sum(X**2, axis=-1)) ** (s / 2.0)
        if self.kind == "exponential":
            c, s = self.params
            return np.exp(c * np.sqrt(np.sum(X**2, axis=-1)) ** (1.0 / s))
        if self.kind == "product":
            w1, w2 = self.params
            split = X.shape[-1] * len(w1.axes) // len(self.axes)
            return w1.evaluate(X[..., :split]) * w2.evaluate(X[..., split:])
        raise DomainMismatch(f"weight kind {self.kind!r} cannot be evaluated off-grid")

    def sample(self, grid: GridSpec) -> np.ndarray:
        """Values on the full grid, shape (N,)*len(axes)."""
        if self.kind == "custom":
            (samples,) = self.params
            want = (grid.size,) * len(self.axes)
            if samples.shape != want:
                raise DomainMismatch(f"custom weight has shape {samples.shape}, grid needs {want}")
            return samples
        if self.trivial:
            return np.ones((grid.size,) * len(self.axes))
        return self.evaluate(block_coords(grid, self.axes))

    def inverse(self) -> "Weight":
        if self.kind == "polynomial":
            return Weight("polynomial", self.axes, (-self.params[0],))
        if self.kind == "exponential":
            c, s = self.params
            return Weight("exponential", self.axes, (-c, s))
        if self.kind == "product":
            w1, w2 = self.params
            return Weight("product", self.axes, (w1.inverse(), w2.inverse()))
        (samples,) = self.params
        return Weight("custom", self.axes, (1.0 / samples,))

    def descriptor(self) -> dict:
        if self.kind == "polynomial":
            return {"kind": "polynomial", "params": {"s": self.params[0]}, "axes": list(self.axes)}
        if self.kind == "exponential":
            return {"kind": "exponential", "params": {"c": self.params[0], "s": self.params[1]},
                    "axes": list(self.axes)}
        if self.kind == "product":
            return {"kind": "product",
                    "params": {"factors": [w.descriptor() for w in self.params]},
                    "axes": list(self.axes)}
        return {"kind": "custom", "params": {"n_samples": int(self.params[0].size)},
                "axes": list(self.axes)}


def _weight_param(kind, params, key, minimum=None):
    """params[key], one real number, as a float; a missing key reaches the
    rule as None, which it refuses naming the key."""
    return float(_real_number(f"{kind} weight parameter {key!r}", params.get(key), minimum))


def make_weight(kind: str, axes=TF_AXES, **params) -> Weight:
    """Build a weight descriptor; see :class:`Weight` for the formulas."""
    axes = tuple(axes)
    for a in axes:
        if a not in ("pos", "freq"):
            raise InvalidParams(f"axis kind must be 'pos' or 'freq', got {a!r}")
    if kind == "polynomial":
        return Weight("polynomial", axes, (_weight_param(kind, params, "s"),))
    if kind == "exponential":
        c, s = _weight_param(kind, params, "c"), _weight_param(kind, params, "s", minimum=1)
        return Weight("exponential", axes, (c, s))
    if kind == "product":
        factors = params.get("factors")
        if not (isinstance(factors, (tuple, list)) and len(factors) == 2
                and all(isinstance(w, Weight) for w in factors)):
            raise InvalidParams(f"product weight needs parameter 'factors', 2 weights, got {factors!r}")
        w1, w2 = factors
        return Weight("product", w1.axes + w2.axes, (w1, w2))
    if kind == "custom":
        samples = np.asarray(_real("custom weight parameter 'samples'", params.get("samples")), dtype=float)
        if not np.all(samples > 0):
            raise InvalidParams("custom weight samples must be strictly positive")
        return Weight("custom", axes, (samples,))
    raise InvalidParams(f"unknown weight kind {kind!r}")


def trivial_weight(axes=TF_AXES) -> Weight:
    return make_weight("polynomial", axes=axes, s=0.0)


def axis_scale(grid: GridSpec, axis_kind: str) -> float:
    return 1.0 if axis_kind == "pos" else 2.0 * np.pi / grid.n


def block_coords(grid: GridSpec, axes) -> np.ndarray:
    """Physical coordinates of every grid point of the stacked domain.

    Shape (N,)*len(axes) + (len(axes)*d,): block b contributes the scaled
    centered representatives of its flat index.
    """
    m = len(axes)
    N, d = grid.size, grid.d
    reps = rep_coords(grid).astype(float)
    out = np.empty((N,) * m + (m * d,))
    for b, kind in enumerate(axes):
        shape = [1] * m + [d]
        shape[b] = N
        out[..., b * d : (b + 1) * d] = (axis_scale(grid, kind) * reps).reshape(shape)
    return out


def _flat_domain_points(grid: GridSpec, axes) -> np.ndarray:
    return block_coords(grid, axes).reshape(-1, len(axes) * grid.d)


# ---------------------------------------------------------------------------
# moderateness


def moderate_check(omega: Weight, v: Weight, grid: GridSpec):
    """Worst constant in omega(X+Y) <= C omega(X) v(Y) over grid pairs.

    Exhaustive (one row of pairs at a time) when the pair count is at most
    PAIR_LIMIT, otherwise PAIR_SAMPLES fixed-seed random pairs.  Returns
    (finite, C_est).
    """
    _require_axes(omega.axes, v)
    if grid.size ** (2 * len(omega.axes)) > PAIR_LIMIT:
        return _worst(omega.evaluate(X + Y) / (omega.evaluate(X) * v.evaluate(Y))
                      for X, Y in _tuple_chunks(grid, omega.axes, 2))
    X = _flat_domain_points(grid, omega.axes)
    wX = omega.evaluate(X)
    vX = v.evaluate(X)
    return _worst(omega.evaluate(X[i] + X) / (wX[i] * vX) for i in range(X.shape[0]))


# ---------------------------------------------------------------------------
# norms


def _lp_reduce(a: np.ndarray, p: float, axis=None):
    """l^p norm of non-negative magnitudes a; at p = inf their max, 0.0
    when there are none.  Every l^p norm of the package ends here."""
    if math.isinf(p):
        return a.max(axis=axis, initial=0.0)
    return (a**p).sum(axis=axis) ** (1.0 / p)


def lp_norm(values: np.ndarray, p: float, axis=None):
    return _lp_reduce(np.abs(values), p, axis)


def mixed_norm(F, params: MixedNormParams, omega: Weight = None) -> float:
    """Weighted l^{p,q}: inner p over position, outer q over frequency."""
    if not isinstance(F, (TimeFrequencyArray, Symbol)):
        raise DomainMismatch("mixed_norm expects a TimeFrequencyArray or Symbol")
    grid, data = F.grid, F.data
    if omega is None:
        omega = trivial_weight(TF_AXES)
    if len(omega.axes) != 2:
        raise DomainMismatch(f"mixed_norm needs a 2-block weight, got {len(omega.axes)} blocks")
    w = omega.sample(grid)
    inner = lp_norm(data * w, params.p, axis=0)
    return float(_lp_reduce(inner, params.q))


def modulation_norm(f: Signal, params: MixedNormParams, omega: Weight = None,
                    phi: Signal = None) -> float:
    """Mixed norm of the STFT; default window is the periodized Gaussian."""
    if phi is None:
        phi = gaussian_window(f.grid)
    return mixed_norm(stft(f, phi), params, omega)


def symbol_modulation_norm(a: Symbol, params: MixedNormParams, omega: Weight = None,
                           Phi: Symbol = None) -> float:
    """Modulation norm of a symbol over the doubled grid.

    Inner p over the 2d position block (x, xi), outer q over the 2d
    frequency block (eta, y), weighted by a 4-block weight.  Streams the STFT
    by frequency columns, one inner norm each, with the weight evaluated on
    each block; all N^4 entries are capped.
    """
    return _symbol_modulation_norms(a, (params,), omega, Phi)[0]


def _symbol_modulation_norms(a: Symbol, params_seq, omega: Weight = None, Phi: Symbol = None) -> list:
    """:func:`symbol_modulation_norm` for each of `params_seq`, every inner
    norm taken from the same block of frequency columns, so the STFT is
    streamed once."""
    grid = a.grid
    N = grid.size
    if _column_budget(grid) < N * N:
        raise SizeLimit(f"symbol norm reads all {N * N} STFT columns, {N**4} entries (cap {FOURD_LIMIT})")
    if Phi is None:
        Phi = Symbol(grid, gaussian_window(doubled(grid)).data.reshape(N, N))
    if omega is None:
        omega = trivial_weight(SYMBOL_AXES)
    if len(omega.axes) != 4:
        raise DomainMismatch(f"symbol norm needs a 4-block weight, got {len(omega.axes)} blocks")
    inner = np.empty((len(params_seq), N * N))
    for k, V in _stft_columns(a.data, Phi.data, grid):
        weighted = np.abs(V).reshape(len(k), N * N)
        del V  # |V| is all the norms read
        if not omega.trivial:
            weighted *= _column_weights(omega, grid, k)
        for row, params in zip(inner, params_seq):
            row[k] = _lp_reduce(weighted, params.p, axis=1)
        del weighted  # no array of this block is alive while the stream computes the next
    return [float(_lp_reduce(row, params.q)) for row, params in zip(inner, params_seq)]


def _column_weights(omega: Weight, grid: GridSpec, k: np.ndarray) -> np.ndarray:
    """omega(x, xi, eta, y) at the frequency columns k = (eta, y) of a
    4-block weight, shape (len(k), N^2) over the translations (x, xi)."""
    N = grid.size
    if omega.kind == "custom":
        return omega.sample(grid).reshape(N * N, N * N)[:, k].T
    X = block_coords(grid, omega.axes[:2]).reshape(1, N * N, -1)
    Y = block_coords(grid, omega.axes[2:]).reshape(N * N, 1, -1)[k]
    return omega.evaluate(np.concatenate(np.broadcast_arrays(X, Y), axis=-1))


# ---------------------------------------------------------------------------
# exponent functionals and predicates


def hy_functional(p_list) -> Fraction:
    """Hoelder-Young functional (N-1)^{-1} (sum_j 1/p_j - 1) for N+1 entries."""
    ps = [_check_range(as_exponent(p)) for p in p_list]
    if len(ps) < 3:
        raise TooFewEntries(f"need at least 3 entries, got {len(ps)}")
    N = len(ps) - 1
    return (sum((recip(p) for p in ps), Fraction(0)) - 1) / (N - 1)


def _le(a, b) -> bool:
    """a <= b over Fractions extended with INF."""
    if a is INF:
        return b is INF
    if b is INF:
        return True
    return a <= b


def holds_op_bound_exponents(t: ExponentTuple) -> bool:
    """Exponent condition for operator boundedness between modulation spaces:
    1/p1 - 1/p2 = 1/q1 - 1/q2 = 1 - 1/p - 1/q and q <= p2, q2 <= p.

    Slot layout: p = (p, p1, p2), q = (q, q1, q2).
    """
    if len(t.p) != 3:
        raise ArityMismatch("needs exponent triples (p, p1, p2) / (q, q1, q2)")
    p, p1, p2 = t.p
    q, q1, q2 = t.q
    lhs1 = recip(p1) - recip(p2)
    lhs2 = recip(q1) - recip(q2)
    rhs = 1 - recip(p) - recip(q)
    order = _le(q, p2) and _le(q, q2) and _le(p2, p) and _le(q2, p)
    return lhs1 == lhs2 == rhs and order


def holds_schatten_embedding_exponents(t: ExponentTuple) -> bool:
    """Exponent condition for the two-sided Schatten embedding:
    p1 <= p <= p2, q1 <= min(p, p'), q2 >= max(p, p').

    Slot layout: p = (p, p1, p2), q = (q, q1, q2) with q unused.
    """
    if len(t.p) != 3:
        raise ArityMismatch("needs exponent triples (p, p1, p2) / (q, q1, q2)")
    p, p1, p2 = t.p
    _, q1, q2 = t.q
    pc = conjugate_exponent(p)
    lo = p if _le(p, pc) else pc
    hi = pc if _le(p, pc) else p
    return _le(p1, p) and _le(p, p2) and _le(q1, lo) and _le(hi, q2)


def holds_wigner_product_exponents(t: ExponentTuple) -> bool:
    """Exponent balance for the Wigner bilinear map:
    1/p1 + 1/p2 = 1/q1 + 1/q2 = 1/p + 1/q, with p <= p_j, q_j <= q.

    Slot layout: p = (p, p1, p2), q = (q, q1, q2).
    """
    if len(t.p) != 3:
        raise ArityMismatch("needs exponent triples (p, p1, p2) / (q, q1, q2)")
    p, p1, p2 = t.p
    q, q1, q2 = t.q
    balance = recip(p1) + recip(p2) == recip(q1) + recip(q2) == recip(p) + recip(q)
    order = all(_le(p, x) and _le(x, q) for x in (p1, p2, q1, q2))
    return balance and order


def holds_composition_exponents(t: ExponentTuple) -> bool:
    """Exponent condition for the N-fold product map:
    max(R_N(q'), 0) <= min_j(1/p_j, 1/q_j', R_N(p))."""
    if len(t.p) < 3:
        raise ArityMismatch("composition needs at least 3 exponent pairs")
    Rp = hy_functional(t.p)
    Rqc = hy_functional([conjugate_exponent(q) for q in t.q])
    lhs = max(Rqc, Fraction(0))
    rhs = min(min(recip(p) for p in t.p),
              min(1 - recip(q) for q in t.q),
              Rp)
    return lhs <= rhs


def holds_composition_exponents_l2(t: ExponentTuple) -> bool:
    """Alternative composition condition: R_N(p) >= 0 and
    1/q_j' <= 1/p_j <= 1/2 for every j."""
    if len(t.p) < 3:
        raise ArityMismatch("composition needs at least 3 exponent pairs")
    if hy_functional(t.p) < 0:
        return False
    for p, q in zip(t.p, t.q):
        if not (1 - recip(q) <= recip(p) <= Fraction(1, 2)):
            return False
    return True


# ---------------------------------------------------------------------------
# weight condition estimates


def _require_axes(axes, *weights):
    for w in weights:
        if tuple(w.axes) != tuple(axes):
            raise DomainMismatch(f"weight has axes {tuple(w.axes)}, expected {tuple(axes)}")


def _tuple_chunks(grid, axes, blocks, seed=0):
    """Chunks of tuples, each a list of `blocks` arrays of physical points
    on the `axes` domain, with at most _BLOCK_ENTRIES coordinates in all.
    Their rows run, in row-major order, over every tuple (at most PAIR_LIMIT
    of them) or over PAIR_SAMPLES random tuples, whose indices are all drawn
    with `seed` before the first chunk."""
    P = _flat_domain_points(grid, axes)
    count = P.shape[0]
    total = count**blocks
    rows = max(1, _BLOCK_ENTRIES // (blocks * P.shape[1]))
    if total > PAIR_LIMIT:
        rng = np.random.default_rng(seed)
        picks = [rng.integers(0, count, size=PAIR_SAMPLES) for _ in range(blocks)]
        for start in range(0, PAIR_SAMPLES, rows):
            yield [P[i[start:start + rows]] for i in picks]
        return
    for start in range(0, total, rows):
        flat = np.arange(start, min(start + rows, total))
        yield [P[i] for i in np.unravel_index(flat, (count,) * blocks)]


def _worst(qs):
    """(finite, C) for the worst sampled constant C = max over the chunks
    of q; a NaN in any chunk makes C NaN."""
    best = float(np.max([q.max() for q in qs]))
    return bool(np.isfinite(best)), best


def transfer_pair_coords(X, Y, Amat):
    """T_A(X, Y) = (y + A(x-y), xi + A*(eta-xi), eta - xi, x - y) for stacked
    phase points X = (x, xi), Y = (y, eta)."""
    d = Amat.shape[0]
    x, xi = X[:, :d], X[:, d:]
    y, eta = Y[:, :d], Y[:, d:]
    return np.concatenate(
        [y + (x - y) @ Amat.T, xi + (eta - xi) @ Amat, eta - xi, x - y], axis=1
    )


def holds_kernel_weight_bound(omega: Weight, omega1: Weight, omega2: Weight, grid: GridSpec):
    """Worst constant in omega2(X) <= C omega1(Y) omega(x, y, xi, -eta) over
    phase points X = (x, xi), Y = (y, eta).

    omega is a 4-block kernel-phase-space weight (pos, pos, freq, freq);
    omega1, omega2 are 2-block weights.  Returns (finite, C_est).
    """
    _require_axes(KERNEL_AXES, omega)
    d = grid.d

    def q(X, Y):
        arg = np.concatenate([X[:, :d], Y[:, :d], X[:, d:], -Y[:, d:]], axis=1)
        return omega2.evaluate(X) / (omega1.evaluate(Y) * omega.evaluate(arg))

    return _worst(q(X, Y) for X, Y in _tuple_chunks(grid, TF_AXES, 2))


def holds_kernel_symbol_weight_equiv(omega: Weight, omega0: Weight, A, grid: GridSpec):
    """Two-sided constants for the kernel/symbol weight correspondence

        omega(x, y, xi, eta) ~ omega0(T_A((y, -eta), (x, xi)))
                             = omega0(x - A(x-y), A*xi - (I-A*)eta, xi + eta, y - x).

    Returns (finite, max of the two one-sided constants).
    """
    _require_axes(KERNEL_AXES, omega)
    _require_axes(SYMBOL_AXES, omega0)
    d = grid.d
    Amat = as_matrix_param(A, d).entries

    def q(X, Y):
        lhs = omega.evaluate(np.concatenate([X[:, :d], Y[:, :d], X[:, d:], Y[:, d:]], axis=1))
        Y[:, d:] *= -1.0  # (y, -eta)
        rhs = omega0.evaluate(transfer_pair_coords(Y, X, Amat))
        return np.maximum(lhs / rhs, rhs / lhs)

    return _worst(q(X, Y) for X, Y in _tuple_chunks(grid, TF_AXES, 2))


def holds_wigner_weight_bound(omega0: Weight, omega1: Weight, omega2: Weight, A,
                              grid: GridSpec):
    """Worst constant in

        omega0(T_A(Y, X)) <= C omega1(X) omega2(Y),
        T_A(Y, X) = (x - A(x-y), A*xi + (I-A*)eta, xi - eta, y - x),

    over phase points X = (x, xi), Y = (y, eta).  Returns (finite, C_est)."""
    _require_axes(SYMBOL_AXES, omega0)
    Amat = as_matrix_param(A, grid.d).entries
    return _worst(omega0.evaluate(transfer_pair_coords(Y, X, Amat))
                  / (omega1.evaluate(X) * omega2.evaluate(Y))
                  for X, Y in _tuple_chunks(grid, TF_AXES, 2))


def holds_op_weight_bound(omega0: Weight, omega1: Weight, omega2: Weight, A, grid: GridSpec):
    """Worst constant in the reverse direction

        omega2(X) <= C omega1(Y) omega0(T_A(Y, X)),

    with T_A(Y, X) as in :func:`holds_wigner_weight_bound`: the hypothesis
    under which symbols give bounded operators between weighted modulation
    spaces.  Returns (finite, C_est)."""
    _require_axes(SYMBOL_AXES, omega0)
    Amat = as_matrix_param(A, grid.d).entries
    return _worst(omega2.evaluate(X)
                  / (omega1.evaluate(Y) * omega0.evaluate(transfer_pair_coords(Y, X, Amat)))
                  for X, Y in _tuple_chunks(grid, TF_AXES, 2))


def holds_composition_weight_bound(weights, A, grid: GridSpec, seed=0):
    """Worst constant in 1 <= C omega_0(T_A(X_N, X_0)) prod_j omega_j(T_A(X_j, X_{j-1})).

    weights = (omega_0, ..., omega_N), each a symbol-layout 4-block weight;
    `seed` draws the tuples (X_0, ..., X_N) above PAIR_LIMIT.  Returns
    (finite, C_est) with C_est = 1 / min over tuples of the product.
    """
    _require_axes(SYMBOL_AXES, *weights)
    if len(weights) < 2:
        raise ArityMismatch("need at least omega_0 and omega_1")
    N = len(weights) - 1
    Amat = as_matrix_param(A, grid.d).entries

    def q(X):
        prod = weights[0].evaluate(transfer_pair_coords(X[N], X[0], Amat))
        for j in range(1, N + 1):
            prod = prod * weights[j].evaluate(transfer_pair_coords(X[j], X[j - 1], Amat))
        return 1.0 / prod

    return _worst(q(X) for X in _tuple_chunks(grid, TF_AXES, N + 1, seed))
