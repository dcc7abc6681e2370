"""Identity verification suite: every exact identity and estimate the
library relies on, runnable at a chosen grid size with a fixed seed.

Each check is a generator that yields one deviation per draw, or its single
value once; the runner folds them into the check's measure with a max that
a NaN on any draw makes NaN.  Each check draws from its own PRNG stream,
ctx.rng(), seeded by the global seed and the check's registered name, so
reports are byte-reproducible regardless of execution order or thread
count.  Checks with tolerance None are report-only: they record an
empirical constant without judging it.  A non-finite measure (NaN or
+-inf) fails its check, report-only or not, as does a check that yields
nothing; its entry has measure null and a note naming the value.  A check
that hits a size cap (SizeLimit) or a dimension without Haar nodes
(UnsupportedDimension) is skipped with the error's message as its note.

The identities that checks and tests evaluate as functions (the Wigner/STFT
relations, the product transfer, Schatten duality and the Hoelder bound)
are defined here, beside the checks that call them; ``psdo`` does not
export them.
"""

from __future__ import annotations

import json
import math
import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimMismatch, InvalidParams, ModeMismatch, SizeLimit, UnsupportedDimension
from .grid import (
    GridSpec,
    Signal,
    Symbol,
    OperatorMatrix,
    dft,
    doubled,
    flatten_coords,
    gaussian_window,
    idft,
    index_coords,
    rep_coords,
    _count,
    _partial_dft_core,
)
from .quantizer import (
    MatrixParam,
    as_matrix_param,
    quantize,
    kernel_route,
    multiplier_route,
    dequantize,
    symbol_transfer,
)
from .wigner import stft, wigner, _check_columns, _stft_columns
from . import modspace as ms
from .modspace import MixedNormParams, ExponentTuple, make_weight, trivial_weight, _exponent, _lp_reduce
from .schatten import singular_values, schatten_norm, symbol_schatten_norm, trace_pairing, _matrix, _svd
from .calculus import sharp, sharp_n
from . import schemes as sch
from .schemes import SchemeSpec, quantize_scheme, born_jordan_quadrature

__all__ = ["run_suite", "format_table", "report_to_json", "SUITES"]

SUITES = ("all", "calculus", "wigner", "modspace", "schatten", "schemes")


@dataclass
class CheckDef:
    name: str
    suite: str
    identity: str
    tolerance: float  # None = report-only
    fn: object  # ctx -> iterable of deviations


CHECKS: list = []


def check(name, suite, identity, tolerance):
    def deco(fn):
        CHECKS.append(CheckDef(name, suite, identity, tolerance, fn))
        return fn

    return deco


@dataclass(frozen=True)
class Context:
    """Grid parameters plus the running check's name, which keys its PRNG
    stream."""

    n: int
    d: int
    seed: int
    name: str = ""

    def rng(self, key: str = None) -> np.random.Generator:
        """The stream of the global seed and `key`, by default the check's name."""
        key = self.name if key is None else key
        return np.random.default_rng(np.random.SeedSequence([self.seed, zlib.crc32(key.encode())]))

    def grid(self, mode="real") -> GridSpec:
        return GridSpec(self.d, self.n, mode)


def _rel(delta: float, scale: float) -> float:
    return delta / scale if scale > 0 else delta


def _excess(x: float) -> float:
    """x where it is positive, else 0.0; NaN stays NaN."""
    return 0.0 if x <= 0 else x


def _unit_symbol(grid, rng) -> Symbol:
    a = Symbol.random(grid, rng)
    return Symbol(grid, a.data / np.linalg.norm(a.data))


def _unit_signal(grid, rng) -> Signal:
    f = Signal.random(grid, rng)
    return Signal(grid, f.data / np.linalg.norm(f.data))


# ---------------------------------------------------------------------------
# calculus suite


@check("transfer_composition", "calculus",
       "Op_A1(a) == Op_A2(T_{A1-A2} a) for (A1,A2) in {(0,1/2),(1,0),(0.37,-0.2)}", 1e-11)
def _c_transfer_composition(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for a1, a2 in ((0.0, 0.5), (1.0, 0.0), (0.37, -0.2)):
        A1 = MatrixParam.scalar(a1, ctx.d)
        A2 = MatrixParam.scalar(a2, ctx.d)
        for _ in range(20):
            a = Symbol.random(grid, rng)
            lhs = quantize(a, A1)
            rhs = quantize(symbol_transfer(a, A1 - A2), A2)
            yield _rel(np.linalg.norm(lhs.data - rhs.data), np.linalg.norm(lhs.data))


def _kernel_formula_devs(a, A):
    """Max deviation of each kernel-formula evaluation, :func:`quantize`
    and :func:`kernel_route`, from the multiplier route Op_0(T_A a)."""
    ref = multiplier_route(a, A).data
    for route in (quantize, kernel_route):
        yield float(np.abs(route(a, A).data - ref).max())


@check("kernel_route_mod", "calculus",
       "kernel formula (quantize, kernel_route) == multiplier route, integer A in {0,1,-1}, mode mod", 1e-12)
def _c_kernel_route_mod(ctx):
    grid = ctx.grid("mod")
    rng = ctx.rng()
    for t in (0, 1, -1):
        A = MatrixParam.scalar(t, ctx.d)
        for _ in range(5):
            yield from _kernel_formula_devs(_unit_symbol(grid, rng), A)


@check("kernel_route_real", "calculus",
       "kernel formula (quantize, kernel_route; interpolated) == multiplier route, real A", 1e-12)
def _c_kernel_route_real(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for t in (0.5, 0.37, -0.2):
        A = MatrixParam.scalar(t, ctx.d)
        for _ in range(3):
            yield from _kernel_formula_devs(_unit_symbol(grid, rng), A)


@check("transfer_unitarity", "calculus", "||T_A a||_2 == ||a||_2", 1e-12)
def _c_transfer_unitarity(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for _ in range(5):
        a = Symbol.random(grid, rng)
        A = MatrixParam(rng.standard_normal((ctx.d, ctx.d)))
        ta = symbol_transfer(a, A)
        yield _rel(abs(ta.norm() - a.norm()), a.norm())


@check("transfer_group_law", "calculus", "T_A T_B == T_{A+B}", 1e-12)
def _c_transfer_group(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for _ in range(5):
        a = _unit_symbol(grid, rng)
        A = MatrixParam(rng.standard_normal((ctx.d, ctx.d)))
        B = MatrixParam(rng.standard_normal((ctx.d, ctx.d)))
        lhs = symbol_transfer(symbol_transfer(a, B), A)
        rhs = symbol_transfer(a, A + B)
        yield float(np.abs(lhs.data - rhs.data).max())


@check("dequantize_roundtrip", "calculus", "dequantize(quantize(a, A), A) == a", 1e-12)
def _c_dequantize_roundtrip(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for t in (0.0, 0.37, 0.5):
        A = MatrixParam.scalar(t, ctx.d)
        a = Symbol.random(grid, rng)
        back = dequantize(quantize(a, A), A)
        yield _rel(np.linalg.norm(back.data - a.data), a.norm())


@check("op_constant_symbol", "calculus", "Op_A(1) == identity matrix", 1e-12)
def _c_op_constant(ctx):
    grid = ctx.grid("real")
    eye = np.eye(grid.size)
    for t in (0.0, 0.37, 0.5):
        K = quantize(Symbol.constant(grid), MatrixParam.scalar(t, ctx.d))
        yield float(np.abs(K.data - eye).max())


@check("weyl_self_adjoint", "calculus", "real symbol, A = I/2: Op is Hermitian", 1e-11)
def _c_weyl_self_adjoint(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for _ in range(5):
        a = Symbol(grid, rng.standard_normal((grid.size, grid.size)).astype(complex))
        K = quantize(a, MatrixParam.weyl(ctx.d)).data
        yield _rel(np.linalg.norm(K - K.conj().T), np.linalg.norm(K))


@check("adjoint_law", "calculus", "Op_A(a)^* == Op_{I-A}(conj a), A non-symmetric included", 1e-12)
def _c_adjoint_law(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for _ in range(5):
        a = Symbol.random(grid, rng)
        A = MatrixParam(rng.standard_normal((ctx.d, ctx.d)))
        lhs = quantize(a, A).data.conj().T
        rhs = quantize(Symbol(grid, a.data.conj()), MatrixParam(np.eye(ctx.d)) - A).data
        yield _rel(np.abs(lhs - rhs).max(), np.linalg.norm(rhs))


@check("sharp_unit_law", "calculus", "1 #_A b == b #_A 1 == b", 1e-12)
def _c_sharp_unit(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    one = Symbol.constant(grid)
    for t in (0.0, 0.5, 0.37):
        A = MatrixParam.scalar(t, ctx.d)
        b = _unit_symbol(grid, rng)
        yield float(np.abs(sharp(one, b, A).data - b.data).max())
        yield float(np.abs(sharp(b, one, A).data - b.data).max())


@check("sharp_associativity", "calculus", "(a # b) # c == a # (b # c)", 1e-11)
def _c_sharp_assoc(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    A = MatrixParam.weyl(ctx.d)
    for _ in range(3):
        a, b, c = (_unit_symbol(grid, rng) for _ in range(3))
        lhs = sharp(sharp(a, b, A), c, A)
        rhs = sharp(a, sharp(b, c, A), A)
        yield float(np.abs(lhs.data - rhs.data).max())
        yield float(np.abs(sharp_n((a, b, c), A).data - lhs.data).max())


def sharp_transfer_check(a: Symbol, b: Symbol, A, B) -> float:
    """Max deviation of the cross-calculus product transfer

        a #_A b = T_{A-B}^{-1}((T_{A-B} a) #_B (T_{A-B} b)).
    """
    d = a.grid.d
    A = as_matrix_param(A, d)
    B = as_matrix_param(B, d)
    lhs = sharp(a, b, A).data
    ta = symbol_transfer(a, A - B)
    tb = symbol_transfer(b, A - B)
    rhs = symbol_transfer(sharp(ta, tb, B), -(A - B)).data
    return float(np.abs(lhs - rhs).max())


@check("sharp_transfer", "calculus",
       "a #_A b == T_{A-B}^{-1}((T_{A-B}a) #_B (T_{A-B}b))", 1e-11)
def _c_sharp_transfer(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for A, B in ((0.5, 0.0), (0.0, 0.5), (0.37, -0.2)):
        a = _unit_symbol(grid, rng)
        b = _unit_symbol(grid, rng)
        yield sharp_transfer_check(a, b, A, B)


@check("sharp_homomorphism", "calculus",
       "Op_A(a #_A b) == Op_A(a) Op_A(b), Op through the dense-phase kernel route", 1e-11)
def _c_sharp_homomorphism(ctx):
    grid = ctx.grid("mod")
    rng = ctx.rng()
    A = MatrixParam.scalar(1, ctx.d)
    for _ in range(3):
        a = _unit_symbol(grid, rng)
        b = _unit_symbol(grid, rng)
        lhs = kernel_route(sharp(a, b, A), A).data
        rhs = kernel_route(a, A).data @ kernel_route(b, A).data
        yield float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# wigner suite


@check("rank_one", "wigner",
       "quantize(n^{d/2} W^A_{f1,f2}, A) == outer(f1, conj f2), A in {0, 1, 1/2}", 1e-12)
def _w_rank_one(ctx):
    for t, mode in ((0, "mod"), (1, "mod"), (0.5, "real")):
        grid = ctx.grid(mode)
        rng = ctx.rng(f"rank_one_{t}_{mode}")
        A = MatrixParam.scalar(t, ctx.d)
        scale = grid.size ** (0.5)
        for _ in range(20):
            f1 = _unit_signal(grid, rng)
            f2 = _unit_signal(grid, rng)
            W = wigner(f1, f2, A).data
            Q = quantize(Symbol(grid, scale * W), A).data
            yield float(np.abs(Q - np.outer(f1.data, np.conj(f2.data))).max())


@check("wigner_pseudo_link", "wigner",
       "(Op_A(a) f, g) == n^{-d/2} (a, W^A_{g,f}), both modes", 1e-11)
def _w_link(ctx):
    for t, mode in ((1, "mod"), (0.37, "real"), (0.5, "real")):
        grid = ctx.grid(mode)
        rng = ctx.rng(f"link_{t}_{mode}")
        A = MatrixParam.scalar(t, ctx.d)
        for _ in range(20):
            a = Symbol.random(grid, rng)
            f = Signal.random(grid, rng)
            g = Signal.random(grid, rng)
            lhs = np.vdot(g.data, quantize(a, A).data @ f.data)
            W = wigner(g, f, A).data
            rhs = np.vdot(W, a.data) / np.sqrt(grid.size)
            yield _rel(abs(lhs - rhs), abs(lhs))


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


def _direct_wigner_mod(f1: Signal, f2: Signal, A) -> np.ndarray:
    """The direct modular sum of :func:`wigner`'s docstring, for integer A in
    mode "mod": the oracle for its dequantization route."""
    Aint = _integer_matrix(f1.grid, A)
    Bint = Aint - np.eye(f1.grid.d, dtype=np.int64)
    M = f1.data[_shear(f1.grid, Aint).T] * np.conj(f2.data[_shear(f1.grid, Bint).T])
    return _partial_dft_core(M, f1.grid, 2, inverse=False)


@check("wigner_mod_equals_real", "wigner",
       "direct modular Wigner sum == dequantization route for integer A", 1e-12)
def _w_mod_real(ctx):
    rng = ctx.rng()
    for t in (0, 1, -1):
        gm = ctx.grid("mod")
        gr = ctx.grid("real")
        f1 = _unit_signal(gm, rng)
        f2 = _unit_signal(gm, rng)
        Wm = _direct_wigner_mod(f1, f2, MatrixParam.scalar(t, ctx.d))
        Wr = wigner(Signal(gr, f1.data), Signal(gr, f2.data), MatrixParam.scalar(t, ctx.d)).data
        yield float(np.abs(Wm - Wr).max())


@check("wigner_kn_closed_form", "wigner",
       "W^0(j,k) == f1(j) e^{-2i pi <j,k>/n} conj((F f2)(k))", 1e-12)
def _w_kn_closed(ctx):
    grid = ctx.grid("mod")
    rng = ctx.rng()
    f1 = _unit_signal(grid, rng)
    f2 = _unit_signal(grid, rng)
    W = wigner(f1, f2, MatrixParam.zero(ctx.d)).data
    coords = index_coords(grid)
    dot = (coords @ coords.T) % grid.n
    closed = f1.data[:, None] * np.exp(-2j * np.pi * dot / grid.n) * np.conj(dft(f2).data)[None, :]
    yield float(np.abs(W - closed).max())


@check("stft_moyal", "wigner", "||V_phi f||_2 == ||phi||_2 ||f||_2", 1e-12)
def _w_stft_moyal(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for _ in range(5):
        f = Signal.random(grid, rng)
        phi = Signal.random(grid, rng)
        V = stft(f, phi)
        yield _rel(abs(V.norm() - f.norm() * phi.norm()), f.norm() * phi.norm())


@check("wigner_moyal", "wigner",
       "||W^A_{f1,f2}||_2 == ||f1||_2 ||f2||_2, integer A (unimodular shear)", 1e-11)
def _w_wigner_moyal(ctx):
    grid = ctx.grid("mod")
    rng = ctx.rng()
    for t in (0, 1, 2):
        f1 = Signal.random(grid, rng)
        f2 = Signal.random(grid, rng)
        W = wigner(f1, f2, MatrixParam.scalar(t, ctx.d))
        yield _rel(abs(W.norm() - f1.norm() * f2.norm()), f1.norm() * f2.norm())


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


@check("weyl_wigner_stft_relation", "wigner",
       "W^{(n+1)/2 I}_{f,phi}(j,k) == e^{4i pi <j,k>/n} V_{phi^}f(2j, 2k)", 1e-10)
def _w_weyl_wigner_stft(ctx):
    grid = ctx.grid("mod")
    rng = ctx.rng()
    for _ in range(3):
        f = _unit_signal(grid, rng)
        phi = _unit_signal(grid, rng)
        yield weyl_wigner_stft_relation_check(f, phi)


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


@check("stft_of_wigner", "wigner",
       "V_{W^A_{phi,psi}} W^A_{f,g} == phase-sheared product of two STFTs, A in {0,1}", 1e-10)
def _w_stft_of_wigner(ctx):
    grid = ctx.grid("mod")
    rng = ctx.rng()
    for t in (0, 1):
        f, g = _unit_signal(grid, rng), _unit_signal(grid, rng)
        phi, psi = _unit_signal(grid, rng), _unit_signal(grid, rng)
        yield stft_of_wigner_check(f, g, phi, psi, MatrixParam.scalar(t, ctx.d))


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


@check("expop_stft_zero", "wigner",
       "transfer/STFT commutation at A = 0 is an exact identity (deviation 0.0)", 0.0)
def _w_expop_zero(ctx):
    grid = ctx.grid("mod")
    rng = ctx.rng()
    a = _unit_symbol(grid, rng)
    phi = _unit_symbol(grid, rng)
    yield expop_stft_check(a, phi, MatrixParam.zero(ctx.d))


@check("expop_stft", "wigner",
       "V_{T_A phi}(T_A a)(x,xi,eta,y) == e^{2i pi <Ay,eta>/n} V_phi a(x+Ay, xi+A*eta, eta, y)", 1e-10)
def _w_expop(ctx):
    grid = ctx.grid("mod")
    rng = ctx.rng()
    for t in (1, -1):
        a = _unit_symbol(grid, rng)
        phi = _unit_symbol(grid, rng)
        yield expop_stft_check(a, phi, MatrixParam.scalar(t, ctx.d))


# ---------------------------------------------------------------------------
# modspace suite


@check("modulation_norm_l2", "modspace",
       "M^{2,2} norm with unit window == l2 norm", 1e-12)
def _m_modnorm_l2(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    params = MixedNormParams(2, 2)
    for _ in range(5):
        f = Signal.random(grid, rng)
        yield _rel(abs(ms.modulation_norm(f, params) - f.norm()), f.norm())


@check("symbol_modulation_norm_l2", "modspace",
       "symbol M^{2,2} norm with unit window == Frobenius norm", 1e-12)
def _m_symbol_modnorm_l2(ctx):
    grid = ctx.grid("real")
    a = Symbol.random(grid, ctx.rng())
    val = ms.symbol_modulation_norm(a, MixedNormParams(2, 2))
    yield _rel(abs(val - a.norm()), a.norm())


@check("mixed_norm_monotonicity", "modspace",
       "p1 <= p2 implies ||.||_{l^{p2}} <= ||.||_{l^{p1}} in each slot", 1e-14)
def _m_monotonicity(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    from .wigner import TimeFrequencyArray

    F = TimeFrequencyArray(grid, rng.standard_normal((grid.size, grid.size))
                           + 1j * rng.standard_normal((grid.size, grid.size)))
    ladder = (1.0, 1.5, 2.0, 3.0, math.inf)
    for q in (1.0, 2.0, math.inf):
        vals = [ms.mixed_norm(F, MixedNormParams(p, q)) for p in ladder]
        for lo, hi in zip(vals, vals[1:]):
            yield _rel(_excess(hi - lo), abs(lo))
    for p in (1.0, 2.0, math.inf):
        vals = [ms.mixed_norm(F, MixedNormParams(p, q)) for q in ladder]
        for lo, hi in zip(vals, vals[1:]):
            yield _rel(_excess(hi - lo), abs(lo))


@check("window_equivalence", "modspace",
       "two fixed windows give equivalent M^{p,q} norms; reports the worst ratio", None)
def _m_window_equiv(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    phi1 = gaussian_window(grid)
    shift = np.exp(2j * np.pi * rep_coords(grid).sum(axis=1) / grid.n)
    phi2 = Signal(grid, (phi1.data + 0.3 * shift * phi1.data))
    params = MixedNormParams(1, math.inf)
    for _ in range(100):
        f = Signal.random(grid, rng)
        r = ms.modulation_norm(f, params, phi=phi1) / ms.modulation_norm(f, params, phi=phi2)
        yield r
        yield 1.0 / r


@check("moderate_trivial", "modspace", "omega == 1 is 1-moderate with constant 1", 1e-15)
def _m_moderate_trivial(ctx):
    grid = ctx.grid("real")
    _, c = ms.moderate_check(trivial_weight(), trivial_weight(), grid)
    yield abs(c - 1.0)


@check("moderate_peetre", "modspace",
       "polynomial(1) is polynomial(1)-moderate with constant <= sqrt(2)", 1e-9)
def _m_moderate_peetre(ctx):
    grid = ctx.grid("real")
    w = make_weight("polynomial", s=1.0)
    _, c = ms.moderate_check(w, w, grid)
    yield _excess(c - math.sqrt(2.0))


@check("moderate_exponential", "modspace",
       "exponential(1,1) is self-moderate with constant <= 1 (triangle inequality)", 1e-9)
def _m_moderate_exponential(ctx):
    grid = ctx.grid("real")
    w = make_weight("exponential", c=1.0, s=1.0)
    _, c = ms.moderate_check(w, w, grid)
    yield _excess(c - 1.0)


@check("exponent_functional_values", "modspace",
       "Hoelder-Young functional and predicate spot values (exact rationals)", 0.5)
def _m_exponent_values(ctx):
    from fractions import Fraction

    bad = 0
    bad += ms.hy_functional((1, 1, 1)) != 2
    bad += ms.hy_functional((2, 2, 2)) != Fraction(1, 2)
    bad += ms.hy_functional((math.inf, math.inf, math.inf)) != -1
    bad += ms.hy_functional((2, 2, 2, 2)) != Fraction(1, 2)
    t = ExponentTuple(p=(2, 2, 2), q=(2, 2, 2))
    bad += not ms.holds_op_bound_exponents(t)
    bad += not ms.holds_wigner_product_exponents(t)
    bad += not ms.holds_composition_exponents(t)
    bad += not ms.holds_composition_exponents_l2(t)
    t2 = ExponentTuple(p=(2, 1, math.inf), q=(2, 1, math.inf))
    bad += not ms.holds_schatten_embedding_exponents(t2)
    t3 = ExponentTuple(p=(2, 2, 2), q=(2, math.inf, 2))
    bad += ms.holds_composition_exponents_l2(t3)
    yield float(bad)


@check("weight_bounds_trivial", "modspace",
       "all weight-condition constants equal 1 for trivial weights", 1e-12)
def _m_weight_trivial(ctx):
    grid = ctx.grid("real")
    one2 = trivial_weight(ms.TF_AXES)
    one4s = trivial_weight(ms.SYMBOL_AXES)
    one4k = trivial_weight(ms.KERNEL_AXES)
    A = MatrixParam.scalar(0.37, ctx.d)
    for _, c in (
        ms.holds_kernel_weight_bound(one4k, one2, one2, grid),
        ms.holds_kernel_symbol_weight_equiv(one4k, one4s, A, grid),
        ms.holds_wigner_weight_bound(one4s, one2, one2, A, grid),
        ms.holds_op_weight_bound(one4s, one2, one2, A, grid),
        ms.holds_composition_weight_bound((one4s, one4s, one4s), A, grid),
    ):
        yield abs(c - 1.0)


@check("wigner_weight_polynomial", "modspace",
       "polynomial weights satisfy the Wigner-map bound; reports the constant", None)
def _m_weight_poly(ctx):
    grid = ctx.grid("real")
    w0 = make_weight("polynomial", axes=ms.SYMBOL_AXES, s=2.0)
    w1 = make_weight("polynomial", s=1.0)
    _, c = ms.holds_wigner_weight_bound(w0, w1, w1, MatrixParam.zero(ctx.d), grid)
    yield c


# ---------------------------------------------------------------------------
# schatten suite


@check("hs_kernel_identity", "schatten", "||T||_{I_2} == Frobenius norm of the kernel", 1e-12)
def _s_hs_kernel(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    T = OperatorMatrix(grid, rng.standard_normal((grid.size, grid.size))
                       + 1j * rng.standard_normal((grid.size, grid.size)))
    yield _rel(abs(schatten_norm(T, 2) - T.norm()), T.norm())


@check("symbol_hs_identity", "schatten",
       "||Op_A(a)||_{I_2} == n^{-d/2} ||a||_2 for every A", 1e-11)
def _s_symbol_hs(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for t in (0.0, 0.5, 0.37):
        a = Symbol.random(grid, rng)
        val = symbol_schatten_norm(a, MatrixParam.scalar(t, ctx.d), 2)
        want = a.norm() / math.sqrt(grid.size)
        yield _rel(abs(val - want), want)


@check("schatten_transfer_invariance", "schatten",
       "transferring a symbol between calculi preserves every Schatten norm", 1e-11)
def _s_transfer_invariance(ctx):
    grid = ctx.grid("real")
    a = Symbol.random(grid, ctx.rng())
    A1 = MatrixParam.scalar(0.5, ctx.d)
    A2 = MatrixParam.scalar(-0.2, ctx.d)
    a2 = symbol_transfer(a, A1 - A2)
    for p in (1.0, 2.0, math.inf):
        v1 = symbol_schatten_norm(a, A1, p)
        v2 = symbol_schatten_norm(a2, A2, p)
        yield _rel(abs(v1 - v2), v1)


@check("svd_eigen_consistency", "schatten",
       "singular values == sqrt of eigenvalues of T*T, nonincreasing", 1e-12)
def _s_svd_eigen(ctx):
    rng = ctx.rng()
    T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    sv = singular_values(T).values
    ev = np.sqrt(np.maximum(np.linalg.eigvalsh(T.conj().T @ T)[::-1], 0.0))
    if np.any(np.diff(sv) > 0):
        yield math.inf
    yield _rel(float(np.abs(sv - ev).max()), float(sv[0]))


@check("trace_pairing_entrywise", "schatten",
       "Tr(T2^* T1) == entrywise sum T1 conj(T2)", 1e-12)
def _s_trace_pairing(ctx):
    rng = ctx.rng()
    T1 = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    T2 = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    lhs = trace_pairing(T1, T2)
    rhs = np.trace(T2.conj().T @ T1)
    yield _rel(abs(lhs - rhs), abs(rhs))


def duality_check(T, p: float):
    """Evaluate ||T||_{I_p} against its trace-duality supremum.

    The supremum of |(T, T0)_{I_2}| over ||T0||_{I_{p'}} <= 1 is attained
    at T0 = U diag(w) V^* with w the l^{p'}-unit dual vector of the
    singular values; returns (lhs, rhs, ratio).
    """
    p = _exponent("p", p, minimum=1)
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


@check("schatten_duality", "schatten",
       "||T||_{I_p} == sup over the I_{p'} unit ball of |(T, T0)_{I_2}|", 1e-10)
def _s_duality(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        for m in (6, grid.size):
            T = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            _, _, ratio = duality_check(T, p)
            yield abs(ratio - 1.0)


def hoelder_check(T1, T2, p1: float, p2: float):
    """Composition bound ||T2 T1||_{I_r} <= ||T1||_{I_{p1}} ||T2||_{I_{p2}}
    with 1/r = 1/p1 + 1/p2; returns (lhs, rhs)."""
    p1, p2 = _exponent("p1", p1), _exponent("p2", p2)
    M1, M2 = _matrix(T1), _matrix(T2)
    if M1.shape[0] != M2.shape[1]:
        raise DimMismatch(f"cannot compose {M2.shape} after {M1.shape}")
    inv_r = 1.0 / p1 + 1.0 / p2
    r = math.inf if inv_r == 0.0 else 1.0 / inv_r
    rhs = schatten_norm(M1, p1) * schatten_norm(M2, p2)  # refuses a non-finite factor first
    lhs = schatten_norm(M2 @ M1, r)
    return lhs, rhs


@check("hoelder_composition", "schatten",
       "||T2 T1||_{I_r} <= ||T1||_{I_{p1}} ||T2||_{I_{p2}}, 1/r = 1/p1 + 1/p2", 1e-10)
def _s_hoelder(ctx):
    rng = ctx.rng()
    for p1, p2 in ((1.0, math.inf), (2.0, 2.0), (4.0, 4.0 / 3.0)):
        for _ in range(34):
            T1 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            T2 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            lhs, rhs = hoelder_check(T1, T2, p1, p2)
            yield _excess((lhs - rhs) / rhs)


@check("schatten_unitary_invariance", "schatten",
       "conjugating by the DFT matrix preserves Schatten norms", 1e-11)
def _s_unitary_invariance(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    N = grid.size
    # DFT matrix of the flattened grid group Z_n^d
    coords = index_coords(grid)
    F = np.exp(-2j * np.pi * ((coords @ coords.T) % grid.n) / grid.n) / math.sqrt(N)
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    for p in (1.0, 2.0, math.inf):
        yield _rel(abs(schatten_norm(F @ T @ F.conj().T, p) - schatten_norm(T, p)),
                   schatten_norm(T, p))


@check("schatten_embedding_ratios", "schatten",
       "M^{1,1} >= s_{A,2} >= (scaled) M^{inf,inf} ordering; reports worst ratios", None)
def _s_embedding_ratios(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    A = MatrixParam.weyl(ctx.d)
    draws = 20 if ctx.n <= 17 else 5
    lo = MixedNormParams(1, 1)
    hi = MixedNormParams(math.inf, math.inf)
    for _ in range(draws):
        a = _unit_symbol(grid, rng)
        s2 = symbol_schatten_norm(a, A, 2)
        m11, minf = ms._modulation_norms(a, (lo, hi))
        yield s2 / m11
        yield minf / s2


# ---------------------------------------------------------------------------
# schemes suite


@check("bj_quadrature_vs_multiplier", "schemes",
       "Gauss-Legendre average of Op_t over [0,1] == sinc-multiplier closed form", 1e-12)
def _q_bj(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    spec = SchemeSpec("born_jordan")
    # the transfer phase reaches theta_max = 2 pi d ((n-1)/2)^2 / n; 20 nodes
    # resolve it to 1e-12 only for theta_max <~ 30, so scale the node count
    theta_max = 2.0 * np.pi * ctx.d * ((ctx.n - 1) // 2) ** 2 / ctx.n
    nodes = max(20, int(math.ceil(theta_max / 2.0)) + 10)
    for _ in range(10):
        a = _unit_symbol(grid, rng)
        closed = quantize_scheme(a, spec).data
        quad = born_jordan_quadrature(a, nodes=nodes).data
        yield float(np.abs(closed - quad).max())


@check("t_half_equals_weyl", "schemes", "the t-scheme at t = 1/2 is the Weyl scheme", 0.0)
def _q_t_half(ctx):
    grid = ctx.grid("real")
    a = Symbol.random(grid, ctx.rng())
    lhs = quantize_scheme(a, SchemeSpec("t", {"t": 0.5})).data
    rhs = quantize_scheme(a, SchemeSpec("weyl")).data
    yield float(np.abs(lhs - rhs).max())


@check("un_avg_r0_equals_weyl", "schemes", "orthogonal average at r = 0 is exactly Weyl", 0.0)
def _q_un_r0(ctx):
    grid = ctx.grid("real")
    a = Symbol.random(grid, ctx.rng())
    lhs = quantize_scheme(a, SchemeSpec("un_avg", {"r": 0.0})).data
    rhs = quantize(a, MatrixParam.weyl(ctx.d)).data
    yield float(np.abs(lhs - rhs).max())


@check("un_avg_multiplier_route", "schemes",
       "Haar-averaged quantization == Weyl quantization of the averaged-phase multiplier", 1e-11)
def _q_un_multiplier(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    for r in (0.0, 0.5, 1.0):
        a = _unit_symbol(grid, rng)
        direct = quantize_scheme(a, SchemeSpec("un_avg", {"r": r})).data
        mult = sch.un_avg_multiplier_grid(grid, r)
        D = doubled(grid)
        ahat = dft(Signal(D, a.data.ravel())).data.reshape(mult.shape)
        ahat *= mult
        smoothed = Symbol(grid, idft(Signal(D, ahat.ravel())).data.reshape(ahat.shape))
        routed = quantize(smoothed, MatrixParam.weyl(ctx.d)).data
        yield float(np.abs(direct - routed).max())


@check("un_avg_linearity", "schemes", "the averaged scheme is linear in the symbol", 1e-12)
def _q_un_linear(ctx):
    grid = ctx.grid("real")
    rng = ctx.rng()
    spec = SchemeSpec("un_avg", {"r": 0.7, "angle_nodes": 16})
    a, b = _unit_symbol(grid, rng), _unit_symbol(grid, rng)
    alpha, beta = 1.3 - 0.2j, -0.4 + 2.1j
    comb = Symbol(grid, alpha * a.data + beta * b.data)
    lhs = quantize_scheme(comb, spec).data
    rhs = alpha * quantize_scheme(a, spec).data + beta * quantize_scheme(b, spec).data
    yield float(np.abs(lhs - rhs).max())


@check("scheme_hermiticity", "schemes",
       "real symbols map to Hermitian operators under every symmetric scheme", 1e-11)
def _q_hermitian(ctx):
    grid = ctx.grid("real")
    a = Symbol(grid, ctx.rng().standard_normal((grid.size, grid.size)).astype(complex))
    for spec in (SchemeSpec("weyl"), SchemeSpec("born_jordan"),
                 SchemeSpec("un_avg", {"r": 0.5, "angle_nodes": 16}),
                 SchemeSpec("un_avg_time", {"r": 0.5, "t_nodes": 8, "angle_nodes": 16})):
        K = quantize_scheme(a, spec).data
        yield _rel(np.linalg.norm(K - K.conj().T), np.linalg.norm(K))


@check("psi1_cosh", "schemes", "psi_1 == cosh on [0, 5]", 1e-14)
def _q_psi1(ctx):
    for r in np.linspace(0.0, 5.0, 41):
        yield abs(sch.psi(1, r) - math.cosh(r)) / math.cosh(r)


@check("psi01_sinh", "schemes", "psi_{0,1} == sinh on [0, 5]", 1e-14)
def _q_psi01(ctx):
    for r in np.linspace(0.0, 5.0, 41):
        yield abs(sch.psi0(1, r) - math.sinh(r)) / math.cosh(r)


@check("psi0_d2_quadrature", "schemes",
       "termwise-integrated psi_{0,2} == Gauss-Legendre quadrature of psi_2", 1e-12)
def _q_psi0_quad(ctx):
    t, w = np.polynomial.legendre.leggauss(40)
    for r in (0.5, 1.0, 3.0):
        tt = 0.5 * r * (t + 1.0)
        quad = 0.5 * r * float(np.sum(w * np.array([sch.psi(2, x) for x in tt])))
        yield abs(sch.psi0(2, r) - quad) / max(1.0, abs(quad))


@check("psi0_small_r_limit", "schemes", "psi_{0,d}(r)/r -> psi_d(0) as r -> 0+", 1e-9)
def _q_psi0_limit(ctx):
    r = 1e-6
    for d in (1, 2, 3, 4):
        yield abs(sch.psi0(d, r) / r - sch.psi(d, 0.0))


@check("psi2_sphere_average", "schemes",
       "psi_2 series vs circle-average Monte Carlo: the ratio is rho-independent", 1e-3)
def _q_psi2_sphere(ctx):
    ratios = [sch.sphere_average_exp(rho, samples=10**6, seed=ctx.seed + i) / sch.psi(2, rho)
              for i, rho in enumerate((0.5, 1.0, 2.0))]
    for r in ratios:
        yield abs(r - ratios[0])


@check("un_multiplier_alternating_series", "schemes",
       "direct Haar phase average == psi series on the imaginary axis", 1e-10)
def _q_un_alt_series(ctx):
    for r in (0.3, 1.0, 2.5):
        for m, c in ((1.0, 1.0), (2.0, 0.7)):
            v1 = sch.un_avg_multiplier(1, r, [m], [c])
            yield abs(v1 - sch.psi_alternating(1, r * m * c))
            v2 = sch.un_avg_multiplier(2, r, [m, 0.0], [0.0, c], angle_nodes=128)
            yield abs(v2 - sch.psi_alternating(2, r * m * c))


def _exp_i_sum(x):
    """Sum of e^{i x} over a real array x, as sum(cos x) + i sum(sin x):
    no complex temporary."""
    return complex(np.cos(x).sum(), np.sin(x).sum())


@check("un_multiplier_monte_carlo", "schemes",
       "O(2) multiplier: 64-node angle quadrature vs stratified Monte Carlo", 1e-3)
def _q_un_mc(ctx):
    rng = ctx.rng()
    samples = 10**5
    for r, m, c in ((0.8, [1.0, 0.5], [0.25, 1.0]), (1.5, [2.0, 0.0], [0.0, 1.2])):
        quad = sch.un_avg_multiplier(2, r, m, c, angle_nodes=64)
        rot = ref = 0j
        for angles in sch._stratified_angles(rng, samples):
            cos, sin = np.cos(angles), np.sin(angles, out=angles)
            rot += _exp_i_sum(r * ((cos * m[0] - sin * m[1]) * c[0] + (sin * m[0] + cos * m[1]) * c[1]))
            ref += _exp_i_sum(r * ((cos * m[0] + sin * m[1]) * c[0] + (sin * m[0] - cos * m[1]) * c[1]))
        mc = 0.5 * (rot / samples + ref / samples)
        yield abs(quad - mc)


# ---------------------------------------------------------------------------
# runner


def _fold(deviations):
    """(measure, draw): the max of a check's deviations, the first NaN if
    any is NaN, and the index of the draw that set it, the first maximum;
    (None, None) when there are none."""
    worst = at = None
    for i, dev in enumerate(deviations):
        dev = float(dev)
        if math.isnan(dev):
            return dev, i
        if worst is None or dev > worst:
            worst, at = dev, i
    return worst, at


def _run_check(cd: CheckDef, ctx: Context) -> dict:
    """The report entry of one check."""
    return _checked(cd, ctx)[0]


def _checked(cd: CheckDef, ctx: Context):
    """(report entry, index of the worst draw) of one check; the index is
    None for a skip or a check that yields nothing."""
    entry = {
        "name": cd.name,
        "suite": cd.suite,
        "identity": cd.identity,
        "measure": None,
        "tolerance": cd.tolerance,
        "passed": True,
        "skipped": False,
        "note": None,
    }
    try:
        measure, worst_draw = _fold(cd.fn(replace(ctx, name=cd.name)))
    except (SizeLimit, UnsupportedDimension) as exc:  # skipped with its message
        entry["skipped"] = True
        entry["note"] = str(exc)
        return entry, None
    if measure is None or not math.isfinite(measure):
        entry["passed"] = False
        entry["note"] = "no deviation yielded" if measure is None else f"non-finite measure {measure}"
        return entry, worst_draw
    entry["measure"] = measure
    if cd.tolerance is not None:
        entry["passed"] = measure <= cd.tolerance
    else:
        entry["note"] = "report-only"
    return entry, worst_draw


def run_suite(suite: str, n: int, d: int, seed: int, threads: int = None) -> dict:
    """Run one suite (or 'all'); returns the report dict.

    threads=None takes the check parallelism from PSDO_THREADS (default 1).
    """
    return _run_suite(suite, n, d, seed, threads)[0]


def _run_suite(suite, n, d, seed, threads=None):
    """:func:`run_suite`, plus each check's (wall time in seconds, index of
    its worst draw), in report order.  They stay out of the report, which
    is byte-reproducible."""
    if suite not in SUITES:
        raise InvalidParams(f"unknown suite {suite!r}; have {SUITES}")
    # validates n and d; SizeLimit before any check allocates when not one
    # STFT column of N^2 entries fits the budget
    _check_columns(GridSpec(d, n))
    ctx = Context(n, d, _count("seed", seed, minimum=0))
    selected = [c for c in CHECKS if suite == "all" or c.suite == suite]
    if threads is None:
        raw = os.environ.get("PSDO_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise InvalidParams(f"PSDO_THREADS must be an integer, got {raw!r}") from None

    def timed(c):
        t0 = time.perf_counter()
        entry, worst_draw = _checked(c, ctx)
        return entry, (time.perf_counter() - t0, worst_draw)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(timed, selected))
    else:
        runs = [timed(c) for c in selected]
    results = [entry for entry, _ in runs]
    report = {
        "suite": suite,
        "n": n,
        "d": d,
        "seed": ctx.seed,
        "checks": results,
        "passed": all(r["passed"] for r in results),
    }
    return report, [timing for _, timing in runs]


def _timing_to_json(report: dict, timings) -> bytes:
    """The timing sidecar of a report: each check's wall time in seconds and
    the index of its worst draw (null for a skip), and the sum of the wall
    times, which exceeds the elapsed time when checks run in threads."""
    timing = {key: report[key] for key in ("suite", "n", "d", "seed")}
    timing["total_s"] = sum(wall for wall, _ in timings)
    timing["checks"] = [{"name": r["name"], "wall_s": wall, "worst_draw": worst_draw}
                        for r, (wall, worst_draw) in zip(report["checks"], timings)]
    return (json.dumps(timing, indent=2) + "\n").encode("utf-8")


def _fmt(x) -> str:
    if x is None:
        return "-"
    return f"{x:.3e}"


def format_table(report: dict) -> str:
    lines = [
        f"verify suite={report['suite']} n={report['n']} d={report['d']} seed={report['seed']}",
        f"{'check':34} {'suite':9} {'measure':>10} {'tol':>10}  status",
    ]
    for r in report["checks"]:
        if r["skipped"]:
            status = "SKIP"
        elif not r["passed"]:
            status = "FAIL"
        else:
            status = "pass" if r["tolerance"] is not None else "report"
        line = (f"{r['name']:34} {r['suite']:9} {_fmt(r['measure']):>10} "
                f"{_fmt(r['tolerance']):>10}  {status}")
        # a skip, or a failure without a measure, says why
        lines.append(f"{line}: {r['note']}" if r["measure"] is None else line)
    tally = sum(1 for r in report["checks"] if r["passed"])
    lines.append(f"{tally}/{len(report['checks'])} checks passed")
    return "\n".join(lines)


def report_to_json(report: dict) -> bytes:
    """The report as strict JSON: the runner writes no NaN or infinity."""
    return (json.dumps(report, indent=2, allow_nan=False) + "\n").encode("utf-8")
