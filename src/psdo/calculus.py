"""Sharp product, N-fold composition, and the composition-hypothesis
report.

The product is computed operationally (quantize, multiply, dequantize),
which is exact in finite dimensions; the quantization-homomorphism
property Op_A(a # b) = Op_A(a) Op_A(b) holds by construction and is
cross-checked in ``verify`` through the dense-phase kernel route.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ArityMismatch
from .grid import GridSpec, Symbol, OperatorMatrix, _count
from .quantizer import quantize, dequantize
from .modspace import (
    ExponentTuple,
    MixedNormParams,
    conjugate_exponent,
    holds_composition_exponents,
    holds_composition_exponents_l2,
    holds_composition_weight_bound,
    symbol_modulation_norm,
)

__all__ = [
    "SharpProductRequest",
    "CompositionReport",
    "sharp",
    "sharp_n",
    "alg_hypotheses_report",
]


@dataclass(frozen=True)
class SharpProductRequest:
    """N >= 2 factors sharing one grid, and a calculus parameter."""

    factors: tuple
    A: object

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ArityMismatch("need at least two factors")
        g = self.factors[0].grid
        for f in self.factors[1:]:
            if f.grid != g:
                raise ArityMismatch("factors must share one grid")


def sharp(a: Symbol, b: Symbol, A) -> Symbol:
    """Symbol product a #_A b with Op_A(a #_A b) = Op_A(a) Op_A(b)."""
    return sharp_n((a, b), A)


def sharp_n(factors, A) -> Symbol:
    """a_1 #_A ... #_A a_N: quantize each factor, multiply the operators
    left to right, dequantize once; associative up to fp roundoff.  The
    N >= 2 factors must share one grid (``SharpProductRequest``), else
    ArityMismatch."""
    first, *rest = SharpProductRequest(tuple(factors), A).factors
    prod = quantize(first, A).data
    for f in rest:
        prod = prod @ quantize(f, A).data
    return dequantize(OperatorMatrix(first.grid, prod), A)


@dataclass
class CompositionReport:
    """Structured outcome of a composition-hypothesis evaluation."""

    n_factors: int
    predicates: dict
    weight_constant: float
    estimated: bool
    max_ratio: float = None
    median_ratio: float = None
    draws: int = 0
    seed: int = 0

    def to_json(self) -> dict:
        return asdict(self)


def alg_hypotheses_report(exponents: ExponentTuple, weights, A, grid: GridSpec,
                          draws: int = 50, seed: int = 0) -> CompositionReport:
    """Evaluate the composition hypotheses and, when they hold, estimate the
    composition-norm constant empirically.

    exponents holds (p_0..p_N, q_0..q_N); weights holds the N+1 symbol-layout
    weights (omega_0, ..., omega_N).  The estimate is the max over `draws`
    random factor tuples of

        ||a_1 # ... # a_N||_{M^{p0', q0'}_{(1/omega_0)}} / prod_j ||a_j||_{M^{pj, qj}_{(omega_j)}}.
    """
    draws, seed = _count("draws", draws), _count("seed", seed, minimum=0)
    N = len(exponents.p) - 1
    if len(weights) != N + 1:
        raise ArityMismatch(f"need {N + 1} weights for N = {N} factors, got {len(weights)}")
    preds = {
        "composition_exponents": holds_composition_exponents(exponents),
        "composition_exponents_l2": holds_composition_exponents_l2(exponents),
    }
    w_ok, w_const = holds_composition_weight_bound(weights, A, grid, seed=seed)
    preds["weight_bound"] = w_ok
    report = CompositionReport(
        n_factors=N,
        predicates=preds,
        weight_constant=w_const,
        estimated=False,
        draws=draws,
        seed=seed,
    )
    if not ((preds["composition_exponents"] or preds["composition_exponents_l2"]) and w_ok):
        return report

    out_params = MixedNormParams(conjugate_exponent(exponents.p[0]), conjugate_exponent(exponents.q[0]))
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(draws):
        factors = [Symbol.random(grid, rng) for _ in range(N)]
        lhs = symbol_modulation_norm(sharp_n(factors, A), out_params, weights[0].inverse())
        rhs = 1.0
        for j, f in enumerate(factors, start=1):
            rhs *= symbol_modulation_norm(f, MixedNormParams(exponents.p[j], exponents.q[j]), weights[j])
        ratios.append(lhs / rhs)
    report.estimated = True
    report.max_ratio = float(np.max(ratios))
    report.median_ratio = float(np.median(ratios))
    return report
