"""Singular numbers, Schatten norms, symbol Schatten classes, trace duality
and the Hoelder composition inequality (plain l2 spaces, trivial weight)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidExponent, InvalidParams
from .grid import OperatorMatrix, Symbol
from .modspace import _lp_reduce, _numeric_exponent
from .quantizer import quantize

__all__ = [
    "SingularSpectrum",
    "singular_values",
    "schatten_norm",
    "symbol_schatten_norm",
    "trace_pairing",
    "duality_check",
    "hoelder_check",
]

# singular values below this multiple of sigma_1 count as zero for rank purposes
RANK_TOL = 1e-13


@dataclass(frozen=True)
class SingularSpectrum:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)

    @property
    def operator_norm(self) -> float:
        return float(self.values[0]) if self.values.size else 0.0

    def rank(self) -> int:
        if self.values.size == 0 or self.values[0] == 0.0:
            return 0
        return int(np.sum(self.values > RANK_TOL * self.values[0]))


def _matrix(T) -> np.ndarray:
    if isinstance(T, OperatorMatrix):
        return T.data
    return np.asarray(T, dtype=np.complex128)


def _svd(M, compute_uv=False):
    """np.linalg.svd of the matrix M; a NaN or infinite entry, on which the
    SVD would not converge, raises InvalidParams first."""
    if not np.isfinite(M).all():
        raise InvalidParams("operator has a non-finite entry, so it has no singular values")
    return np.linalg.svd(M, compute_uv=compute_uv)


def singular_values(T) -> SingularSpectrum:
    """Singular values, sorted nonincreasing; sigma_1 is the operator norm."""
    return SingularSpectrum(_svd(_matrix(T)))


def schatten_norm(T, p: float) -> float:
    """l^p norm of the singular spectrum; p=2 is Frobenius, p=inf operator norm."""
    if _numeric_exponent(p) <= 0:
        raise InvalidExponent(f"Schatten exponent must lie in (0, inf], got {p}")
    return float(_lp_reduce(singular_values(T).values, p))


def symbol_schatten_norm(a: Symbol, A, p: float) -> float:
    """Schatten norm of the symbol through its quantization: ||Op_A(a)||_{I_p}."""
    return schatten_norm(quantize(a, A), p)


def trace_pairing(T1, T2) -> complex:
    """Hilbert-Schmidt pairing Tr(T2^* T1) = Frobenius inner product."""
    M1, M2 = _matrix(T1), _matrix(T2)
    if M1.shape != M2.shape:
        raise DimMismatch(f"shapes differ: {M1.shape} vs {M2.shape}")
    return complex(np.sum(M1 * np.conj(M2)))


def duality_check(T, p: float):
    """Evaluate ||T||_{I_p} against its trace-duality supremum.

    The supremum of |(T, T0)_{I_2}| over ||T0||_{I_{p'}} <= 1 is attained
    at T0 = U diag(w) V^* with w the l^{p'}-unit dual vector of the
    singular values; returns (lhs, rhs, ratio).
    """
    if _numeric_exponent(p) < 1:
        raise InvalidExponent(f"duality needs p in [1, inf], got {p}")
    M = _matrix(T)
    U, sigma, Vh = _svd(M, compute_uv=True)
    lhs = float(_lp_reduce(sigma, p))
    if lhs == 0.0:
        return 0.0, 0.0, 1.0
    if math.isinf(p):
        w = np.zeros_like(sigma)
        w[0] = 1.0
    elif p == 1:
        w = np.ones_like(sigma)
    else:
        w = (sigma / lhs) ** (p - 1.0)
    T0 = (U * w) @ Vh
    rhs = abs(trace_pairing(M, T0))
    return lhs, rhs, rhs / lhs


def hoelder_check(T1, T2, p1: float, p2: float):
    """Composition bound ||T2 T1||_{I_r} <= ||T1||_{I_{p1}} ||T2||_{I_{p2}}
    with 1/r = 1/p1 + 1/p2; returns (lhs, rhs)."""
    if _numeric_exponent(p1) <= 0 or _numeric_exponent(p2) <= 0:
        raise InvalidExponent("exponents must lie in (0, inf]")
    M1, M2 = _matrix(T1), _matrix(T2)
    if M1.shape[0] != M2.shape[1]:
        raise DimMismatch(f"cannot compose {M2.shape} after {M1.shape}")
    inv_r = (0.0 if math.isinf(p1) else 1.0 / p1) + (0.0 if math.isinf(p2) else 1.0 / p2)
    r = math.inf if inv_r == 0.0 else 1.0 / inv_r
    rhs = schatten_norm(M1, p1) * schatten_norm(M2, p2)  # refuses a non-finite factor first
    lhs = schatten_norm(M2 @ M1, r)
    return lhs, rhs
