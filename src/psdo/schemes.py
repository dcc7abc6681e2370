"""Quantization schemes: the classical t-family, Born-Jordan, and
orthogonal-group averaged families, plus the special functions entering
their closed-form multipliers.

Each averaged scheme, and the Born-Jordan quadrature that checks the exact
t-average, is one kernel pass over the summed row tables of its nodes.

Ground truth for the group-averaged schemes is the direct Haar average of
quantizations, never a closed-form kernel: the multiplier functions here
are companions whose relation to the average is itself reported and
tested.  The direct average of the transfer phase produces the
*alternating* (oscillatory) version of the psi series; the psi functions
as defined (cosh-type, growing) are its evaluation off the imaginary
axis.  Both are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimension, InvalidParams, ModeMismatch, SizeLimit, UnsupportedDimension
from .grid import Symbol, OperatorMatrix, rep_axis, rep_coords, _blocks, _count, _keys, _real, _real_number
from .quantizer import MatrixParam, quantize, _kernel_formula, _quantize_average
from .wigner import FOURD_LIMIT

__all__ = [
    "SchemeSpec",
    "quantize_scheme",
    "born_jordan_quadrature",
    "bj_multiplier",
    "psi",
    "psi0",
    "psi_alternating",
    "un_avg_multiplier",
    "un_avg_multiplier_grid",
    "sphere_average_exp",
]

# scheme kind -> the parameter keys it takes
_KINDS = {"kn": set(), "weyl": set(), "t": {"t"}, "born_jordan": set(), "un_avg": {"r", "angle_nodes"},
          "un_avg_time": {"r", "t_nodes", "angle_nodes"}}


@dataclass(frozen=True)
class SchemeSpec:
    """Quantization scheme descriptor, JSON form {kind, params}.

    kinds: kn; weyl; t(t); born_jordan (no params: the t-average is
    exact); un_avg(r, angle_nodes); un_avg_time(r, t_nodes, angle_nodes).
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _KINDS):
            raise InvalidParams(f"unknown scheme kind {self.kind!r}")
        p = dict(self.params)
        if self.kind == "born_jordan" and "quad_nodes" in p:
            raise InvalidParams("born_jordan averages over t exactly and takes no quad_nodes; "
                                "the quadrature is born_jordan_quadrature(nodes=...)")
        _keys(f"{self.kind} scheme", p, _KINDS[self.kind])
        for key, minimum in (("t", None), ("r", 0)):
            if key in p:
                _real_number(f"scheme parameter {key!r}", p[key], minimum)
        for key in ("angle_nodes", "t_nodes"):
            if key in p:
                _count(f"scheme parameter {key!r}", p[key])
        if self.kind == "t":
            p.setdefault("t", 0.5)
        if self.kind in ("un_avg", "un_avg_time"):
            p.setdefault("r", 0.0)
            p.setdefault("angle_nodes", 64)
        if self.kind == "un_avg_time":
            p.setdefault("t_nodes", 20)
        object.__setattr__(self, "params", p)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_descriptor(cls, desc: dict) -> "SchemeSpec":
        return cls(desc["kind"], dict(desc.get("params", {})))


def _gauss_legendre(nodes: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights on [lo, hi].  The rule is built from
    a nodes x nodes companion matrix, so SizeLimit is raised before it is
    when nodes^2 exceeds FOURD_LIMIT (up to 1414 nodes are admitted)."""
    nodes = _count("nodes", nodes)
    if nodes**2 > FOURD_LIMIT:
        raise SizeLimit(f"{nodes} Gauss-Legendre nodes need a {nodes}x{nodes} matrix "
                        f"(cap {FOURD_LIMIT} entries)")
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def bj_multiplier(theta):
    """sinc(theta/2) = sin(theta/2)/(theta/2), the Born-Jordan symbol
    multiplier relative to the Weyl calculus; below |theta| < 1e-4 the
    series 1 - u^2/6 + u^4/120 - u^6/5040 in u = theta/2 (Horner in u^2),
    evaluated on those entries only, avoids the cancellation."""
    theta = np.asarray(_real("theta", theta), dtype=float)
    u = theta / 2.0
    small = np.abs(theta) < 1e-4
    out = np.divide(np.sin(u), u, out=np.empty_like(u), where=~small)
    u2 = u[small] ** 2
    out[small] = 1.0 + u2 * (-1.0 / 6.0 + u2 * (1.0 / 120.0 - u2 / 5040.0))
    return out if out.ndim else float(out)


def _bj_table(grid) -> np.ndarray:
    """The exact average over t in [0, 1] of the transfer phase
    e^{-2i pi t m/n} of Op_t, m = <rep k, rep u>, over (k, u):
    e^{-i pi m/n} sinc(pi m/n).  The values come from one lookup over the
    d (n-1)^2/2 + 1 integers |m| <= d ((n-1)/2)^2."""
    n, d = grid.n, grid.d
    r = rep_axis(n)
    rr = np.multiply.outer(r, r)
    m = 0
    for i in range(d):
        shape = [1] * (2 * d)
        shape[i] = shape[d + i] = n
        m = m + rr.reshape(shape)
    top = d * ((n - 1) // 2) ** 2
    ms = np.arange(-top, top + 1)
    values = np.exp(-1j * np.pi * ms / n) * bj_multiplier(2.0 * np.pi * ms / n)
    return values[m + top]


def _born_jordan(a: Symbol) -> OperatorMatrix:
    """The Born-Jordan average of Op_t(a) over t in [0, 1] as the kernel
    formula with the exact t-averaged phase table: 3 FFT passes."""
    if a.grid.mode == "mod":
        raise ModeMismatch("Born-Jordan averages Op_t over real t, so it needs mode 'real'")
    return _kernel_formula(a, [_bj_table(a.grid)])


def born_jordan_quadrature(a: Symbol, nodes: int = 20) -> OperatorMatrix:
    """Gauss-Legendre average sum_i w_i Op_{t_i}(a) over t in [0, 1] in one
    kernel pass (3 FFT passes whatever `nodes` is); the independent route
    against the exact t-averaged table."""
    t, w = _gauss_legendre(nodes, 0.0, 1.0)
    return _quantize_average(a, [MatrixParam.scalar(ti, a.grid.d) for ti in t], w)


def _rotation(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]])


def _reflection(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, s], [s, -c]])


def _orthogonal_nodes(d: int, angle_nodes: int):
    """Equal-weight nodes realizing normalized Haar measure on O(d), d <= 2.

    d=1: the two points {+1, -1}.  d=2: `angle_nodes` uniform angles on each
    of the two components (rotations and reflections), each component
    carrying total mass 1/2; the periodic trapezoid rule is spectrally
    accurate for the analytic integrands appearing here.
    """
    angle_nodes = _count("angle_nodes", angle_nodes)
    if d == 1:
        return [np.array([[1.0]]), np.array([[-1.0]])], [0.5, 0.5]
    if d == 2:
        mats, wts = [], []
        for k in range(angle_nodes):
            alpha = 2.0 * np.pi * k / angle_nodes
            mats.append(_rotation(alpha))
            wts.append(0.5 / angle_nodes)
            mats.append(_reflection(alpha))
            wts.append(0.5 / angle_nodes)
        return mats, wts
    raise UnsupportedDimension(f"orthogonal averaging implemented for d in (1, 2), got {d}")


def _un_avg(a: Symbol, radii, radius_weights, angle_nodes: int) -> OperatorMatrix:
    """sum over radii r and orthogonal nodes U of w_r w_U Op_{rU + I/2}(a),
    in one kernel pass over all the nodes."""
    d = a.grid.d
    mats, wts = _orthogonal_nodes(d, angle_nodes)
    half = 0.5 * np.eye(d)
    params = [MatrixParam(r * U + half) for r in radii for U in mats]
    weights = [wr * wU for wr in radius_weights for wU in wts]
    return _quantize_average(a, params, weights)


def quantize_scheme(a: Symbol, spec: SchemeSpec) -> OperatorMatrix:
    """Quantize a symbol under the requested scheme.  The averaged schemes
    (born_jordan, un_avg, un_avg_time) each run the kernel formula once,
    with one averaged phase table."""
    grid = a.grid
    if spec.kind == "kn":
        return quantize(a, MatrixParam.zero(grid.d))
    if spec.kind == "weyl":
        return quantize(a, MatrixParam.weyl(grid.d))
    if spec.kind == "t":
        return quantize(a, MatrixParam.scalar(spec.params["t"], grid.d))
    if spec.kind == "born_jordan":
        return _born_jordan(a)
    r = spec.params["r"]
    if r == 0.0:  # every orthogonal node collapses onto A = I/2
        return quantize(a, MatrixParam.weyl(grid.d))
    if spec.kind == "un_avg":
        return _un_avg(a, [r], [1.0], spec.params["angle_nodes"])
    # un_avg_time: (1/r) integral over [0, r] of the r-averages
    t, w = _gauss_legendre(spec.params["t_nodes"], 0.0, r)
    return _un_avg(a, t, w / r, spec.params["angle_nodes"])


# ---------------------------------------------------------------------------
# special functions


# absolute error above which psi_alternating refuses its argument
_ALTERNATING_ABS_TOL = 1e-10


def _overflow(d: int, rho: float) -> InvalidParams:
    return InvalidParams(f"psi series for d={d} overflows at argument {rho}")


def _psi_series(d: int, rho: float, signed: bool, integral: bool = False) -> float:
    """The psi series at rho, its terms alternating in sign if `signed`, or
    with `integral` its termwise integral from 0 to rho: term m times
    rho / (2m + 1), each monomial integrated exactly.  Each term comes from
    the previous one, so no power of rho/2 overflows alone; the sum stops
    once the next term falls below 1e-16 of the partial sum (after at
    least 10 terms)."""
    half = rho / 2.0
    total = 0.0
    term = 2.0 ** (-(d - 2) / 2.0) * (rho if integral else 1.0)
    biggest = term
    m = 0
    while True:
        total += (-term if (signed and m % 2) else term)
        if not math.isfinite(total):
            raise _overflow(d, rho)
        nxt = term * half * half / ((m + 1) * (m + d / 2.0))
        if integral:
            nxt *= (2 * m + 1) / (2 * m + 3)
        m += 1
        if m >= 10 and nxt < 1e-16 * max(abs(total), 1.0):
            break
        term = nxt
        biggest = max(biggest, term)
    # the alternating profile is bounded by its value 2^{-(d-2)/2} at 0, so
    # rounding of the largest term bounds the absolute error of the sum
    if signed and biggest * 2.0**-52 > _ALTERNATING_ABS_TOL:
        raise InvalidParams(f"alternating psi series for d={d} loses all accuracy to "
                            f"cancellation at argument {rho}")
    return total


def _check_psi_args(d, name, rho):
    _count("dimension d", d, InvalidDimension)
    _real_number(name, rho, minimum=0)


def psi(d: int, rho: float) -> float:
    """Radial profile of the orthogonal-average multiplier kernel:
    cosh(rho) for d=1, and for d>1 the modified-Bessel power series

        Gamma(d/2) 2^{-(d-2)/2} sum_m (rho/2)^{2m} / (m! Gamma(m + d/2)),

    truncated once the next term falls below 1e-16 of the partial sum
    (at least 10 terms).  Raises InvalidParams once the value overflows."""
    _check_psi_args(d, "rho", rho)
    if d == 1:
        try:
            return math.cosh(rho)
        except OverflowError:
            raise _overflow(d, rho) from None
    return _psi_series(d, rho, signed=False)


def psi_alternating(d: int, rho: float) -> float:
    """The psi series with alternating signs, i.e. psi_d evaluated on the
    imaginary axis: cos(rho) for d=1, the oscillatory Bessel profile for
    d>1.  At d <= 2 this is exactly what the direct Haar average of the
    transfer phase produces (see :func:`un_avg_multiplier`); at d >= 3 it
    is the series' prefactor 2^{-(d-2)/2} times that sphere average
    (2^{-1/2} sin(rho)/rho at d=3).  Raises InvalidParams
    once the partial sums overflow, or once rounding of the largest term
    (2^-52 times it) could exceed 1e-10: the terms cancel down to a value
    bounded by the one at 0, so beyond that the sum has no accurate digit
    left to trust (from rho of about 17 at d=2, 20 at d=4)."""
    _check_psi_args(d, "rho", rho)
    if d == 1:
        return math.cos(rho)
    return _psi_series(d, rho, signed=True)


def psi0(d: int, r: float) -> float:
    """Running integral of psi_d from 0 to r; sinh(r) for d=1, termwise
    integration of the series for d>1 (each monomial integrates exactly).
    Raises InvalidParams once the value overflows."""
    _check_psi_args(d, "r", r)
    if d == 1:
        try:
            return math.sinh(r)
        except OverflowError:
            raise _overflow(d, r) from None
    return _psi_series(d, r, signed=False, integral=True)


def un_avg_multiplier_grid(grid, r: float, angle_nodes: int = 64) -> np.ndarray:
    """The (kappa, mu)-indexed Haar-average multiplier on the symbol
    Fourier grid: averaging Op_{rU + I/2} equals applying this to the
    two-block DFT and then quantizing at I/2.  The average runs over the
    nodes of :func:`_orthogonal_nodes`."""
    _real_number("r", r, minimum=0)
    mats, wts = _orthogonal_nodes(grid.d, angle_nodes)
    reps = rep_coords(grid).astype(float)
    scaled = 2.0 * np.pi * reps / grid.n
    out = np.zeros((grid.size, grid.size), dtype=np.complex128)
    for U, w in zip(mats, wts):
        out += w * np.exp(1j * r * (reps @ (scaled @ U.T).T))
    return out


def un_avg_multiplier(d: int, r: float, m_vec, c_vec, angle_nodes: int = 64) -> complex:
    """Haar average over U in O(d) of e^{i r <U m, c>} for real d-vectors,
    over the equal-weight nodes of :func:`_orthogonal_nodes` (at d=1 the
    exact two-point average cos(r m c))."""
    _real_number("r", r, minimum=0)
    mats, wts = _orthogonal_nodes(d, angle_nodes)
    m_vec, c_vec = _vector("m_vec", m_vec, d), _vector("c_vec", c_vec, d)
    return complex(sum(w * np.exp(1j * r * (U @ m_vec) @ c_vec) for U, w in zip(mats, wts)))


def _vector(name: str, value, d: int) -> np.ndarray:
    """value as a float d-vector (a number at d=1), else InvalidParams
    naming the parameter."""
    vector = np.atleast_1d(np.asarray(_real(name, value), dtype=float))
    if vector.shape != (d,):
        raise InvalidParams(f"{name} must be {d} real entries, got {value!r}")
    return vector


def sphere_average_exp(rho: float, samples: int = 10**6, seed: int = 0) -> float:
    """Average of e^{rho <u, e1>} over uniform points u on the unit circle.

    Jittered-stratified sampling (one uniform point per equal angular
    stratum), which keeps the estimator unbiased while shrinking its
    variance far below the crude-sampling rate.  The samples are summed
    block by block (see :func:`_stratified_angles`).  `samples` must be an
    integer >= 1, and rho finite and small enough that the sum cannot overflow.
    """
    samples, seed = _count("samples", samples), _count("seed", seed, minimum=0)
    if abs(_real_number("rho", rho)) + math.log(samples) > math.log(np.finfo(float).max):
        raise InvalidParams(f"rho {rho!r} can overflow the sum of {samples} samples")
    total = 0.0
    for x in _stratified_angles(np.random.default_rng(seed), samples):
        np.cos(x, out=x)
        x *= rho
        total += float(np.exp(x, out=x).sum())
    return total / samples


def _stratified_angles(rng, samples: int):
    """The angles 2 pi (k + U_k) / samples, k = 0..samples-1, one uniform
    U_k per stratum, as fresh arrays of the consecutive angles of each
    block of ``grid._blocks``.  The jitter is drawn from `rng` one block at a
    time, which yields the same numbers as one draw of all `samples`."""
    for block in _blocks(samples):
        angles = rng.random(block.stop - block.start)
        angles += np.arange(block.start, block.stop)
        angles *= 2.0 * np.pi
        angles /= samples
        yield angles
