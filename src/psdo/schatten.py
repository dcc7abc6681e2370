"""Singular numbers, Schatten norms, symbol Schatten classes and the trace
pairing (plain l2 spaces, trivial weight)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidParams
from .grid import OperatorMatrix, Symbol
from .modspace import _exponent, _lp_reduce
from .quantizer import quantize

__all__ = [
    "SingularSpectrum",
    "singular_values",
    "schatten_norm",
    "symbol_schatten_norm",
    "trace_pairing",
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
    return float(_lp_reduce(singular_values(T).values, _exponent("p", p)))


def symbol_schatten_norm(a: Symbol, A, p: float) -> float:
    """Schatten norm of the symbol through its quantization: ||Op_A(a)||_{I_p}."""
    return schatten_norm(quantize(a, A), p)


def trace_pairing(T1, T2) -> complex:
    """Hilbert-Schmidt pairing Tr(T2^* T1) = Frobenius inner product."""
    M1, M2 = _matrix(T1), _matrix(T2)
    if M1.shape != M2.shape:
        raise DimMismatch(f"shapes differ: {M1.shape} vs {M2.shape}")
    return complex(np.sum(M1 * np.conj(M2)))
