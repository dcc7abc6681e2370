import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from psdo import (
    GridSpec,
    Signal,
    Symbol,
    OperatorMatrix,
    quantize,
    kernel_route,
    multiplier_route,
    dequantize,
    symbol_transfer,
    rank_one_symbol,
    dft,
    idft,
    frac_shift,
    partial_dft,
    stft,
    wigner,
    sharp,
    quantize_scheme,
    SchemeSpec,
    symbol_modulation_norm,
    MixedNormParams,
)
import psdo.grid
from psdo.cli import _hermiticity_defect
from psdo.quantizer import MatrixParam, as_matrix_param
from psdo.errors import ModeMismatch, InvalidParams
from psdo.verify import expop_stft_check, stft_of_wigner_check

from reference import naive_transfer, naive_op0


def test_matrix_param_coercion():
    A = as_matrix_param(0.5, 2)
    np.testing.assert_array_equal(A.entries, 0.5 * np.eye(2))
    assert not A.integer_flag
    assert as_matrix_param(1.0, 1).integer_flag
    assert MatrixParam.weyl(3).entries[0, 0] == 0.5
    with pytest.raises(InvalidParams):
        MatrixParam(np.zeros((2, 3)))
    with pytest.raises(InvalidParams):
        as_matrix_param(MatrixParam.zero(2), 1)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    arrays(float, (d, d), elements=st.floats(-1e6, 1e6)),
    st.integers(0, d * d - 1),
    st.sampled_from([np.nan, np.inf, -np.inf]))))
def test_matrix_param_rejects_non_finite(case):
    A, at, bad = case
    MatrixParam(A)
    A = A.copy()
    A.flat[at] = bad
    with pytest.raises(InvalidParams):
        MatrixParam(A)


def test_mode_mismatch(grid9m, rng):
    a = Symbol.random(grid9m, rng)
    with pytest.raises(ModeMismatch):
        quantize(a, 0.5)
    with pytest.raises(ModeMismatch):
        symbol_transfer(a, 0.5)
    quantize(a, 1.0)  # integer parameter is fine


def test_transfer_zero_is_identity(grid9, rng):
    a = Symbol.random(grid9, rng)
    out = symbol_transfer(a, 0.0)
    np.testing.assert_array_equal(out.data, a.data)


def test_transfer_group_and_unitarity(grid9, rng):
    a = Symbol.random(grid9, rng)
    back = symbol_transfer(symbol_transfer(a, 0.7), -0.7)
    assert np.abs(back.data - a.data).max() <= 1e-12 * a.norm()
    assert abs(symbol_transfer(a, 0.7).norm() - a.norm()) <= 1e-12 * a.norm()


def test_transfer_delta_symbol_against_double_sum():
    # concentrated symbol, A = 1: compare against the O(n^4) double-sum oracle
    g = GridSpec(1, 9)
    a = np.zeros((9, 9), dtype=complex)
    a[3, 5] = 1.0
    got = symbol_transfer(Symbol(g, a), 1.0).data
    want = naive_transfer(a, 1.0, "real")
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_transfer_mod_against_double_sum(rng):
    g = GridSpec(1, 5, "mod")
    a = Symbol.random(g, rng)
    got = symbol_transfer(a, 2.0).data
    want = naive_transfer(a.data, 2.0, "mod")
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_quantize_constant_symbol(grid9):
    for A in (0.0, 1.0, 0.37):
        K = quantize(Symbol.constant(grid9), A).data
        np.testing.assert_allclose(K, np.eye(9), atol=1e-13)


def test_quantize_position_only_symbol(grid9, rng):
    gvals = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    a = Symbol(grid9, np.repeat(gvals[:, None], 9, axis=1))
    K = quantize(a, 0.0).data
    np.testing.assert_allclose(K, np.diag(gvals), atol=1e-13)


def test_quantize_frequency_only_symbol(rng):
    from reference import naive_fourier_multiplier_op

    g = GridSpec(1, 9)
    h = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    a = Symbol(g, np.repeat(h[None, :], 9, axis=0))
    K = quantize(a, 0.0).data
    np.testing.assert_allclose(K, naive_fourier_multiplier_op(h, 9), atol=1e-13)


def test_quantize_matches_naive_op0(rng):
    g = GridSpec(1, 7)
    a = Symbol.random(g, rng)
    np.testing.assert_allclose(quantize(a, 0.0).data, naive_op0(a.data), atol=1e-12)


def test_kernel_route_equals_quantize_mod(rng):
    g = GridSpec(1, 9, "mod")
    for t in (0, 1, -1, 2):
        a = Symbol.random(g, rng)
        dev = np.abs(kernel_route(a, t).data - quantize(a, t).data).max()
        assert dev <= 1e-12 * a.norm()


@pytest.mark.parametrize("d, n, A, shift", [
    (1, 33, [[3]], [[1]]),
    (1, 9, [[-4]], [[-1]]),
    (2, 5, [[1, 2], [0, -1]], [[1, -2], [3, 1]]),
])
def test_integer_param_reduced_mod_n(rng, d, n, A, shift):
    # in mode mod only A mod n matters: A and A + k n S give the same
    # operator, symbol transfer and inverse, also for k far beyond n
    g = GridSpec(d, n, "mod")
    a = Symbol.random(g, rng)
    T = OperatorMatrix(g, Symbol.random(g, rng).data)
    big = np.asarray(A) + 10**6 * n * np.asarray(shift)
    K = quantize(a, A).data
    for got, want in ((quantize(a, big).data, K),
                      (multiplier_route(a, big).data, K),
                      (dequantize(T, big).data, dequantize(T, A).data),
                      (symbol_transfer(a, big).data, symbol_transfer(a, A).data)):
        assert np.abs(got - want).max() <= 1e-12 * a.norm()


def test_huge_integer_param_reduced_mod_n(rng):
    # 2**60 is an exact float far beyond int64 products with rep(k) rep(u)
    g = GridSpec(1, 33, "mod")
    a = Symbol.random(g, rng)
    dev = np.abs(quantize(a, 2.0**60).data - quantize(a, pow(2, 60, 33)).data).max()
    assert dev <= 1e-12 * a.norm()


def test_kernel_route_equals_quantize_real(rng):
    g = GridSpec(1, 9)
    for t in (0.0, 0.5, 0.37, -0.2):
        a = Symbol.random(g, rng)
        dev = np.abs(kernel_route(a, t).data - quantize(a, t).data).max()
        assert dev <= 1e-12 * a.norm()


def test_kernel_route_2d_matrix_param(rng):
    # quantize against both oracles: the dense-phase kernel route and the
    # multiplier route Op_0(T_A a)
    for mode, A in (("mod", [[1, 2], [0, 1]]),
                    ("mod", [[0, -1], [3, 2]]),
                    ("real", [[1, 2], [0, 1]]),
                    ("real", [[0.3, -0.7], [0.25, 0.5]]),
                    ("real", [[1.1, 0.2], [-0.4, 0.0]]),
                    ("real", 0.37)):
        g = GridSpec(2, 5, mode)
        a = Symbol.random(g, rng)
        K = quantize(a, A).data
        dev = np.abs(kernel_route(a, A).data - K).max()
        assert dev <= 1e-12 * a.norm(), (mode, A)
        dev = np.abs(multiplier_route(a, A).data - K).max()
        assert dev <= 1e-12 * a.norm(), (mode, A)


def test_kernel_route_constant_symbol(grid9):
    K = kernel_route(Symbol.constant(grid9), 0.37).data
    np.testing.assert_allclose(K, np.eye(9), atol=1e-13)


@pytest.mark.parametrize("entries", [1, 7 * 25])
def test_row_blocks_leave_every_bit_unchanged(monkeypatch, rng, entries):
    # the gather, kernel_route's phase and the CLI's hermiticity defect run
    # over blocks of rows; one row per block (the layout of every grid with
    # N > grid._BLOCK_ENTRIES) and a short last block give the bits of one
    # block over all N = 25 rows
    g = GridSpec(2, 5)
    a = Symbol.random(g, rng)
    A = [[0.3, -0.7], [0.25, 0.5]]

    def results():
        K = quantize(a, A).data
        return [K, kernel_route(a, A).data, quantize_scheme(a, SchemeSpec("born_jordan", {})).data,
                np.float64(_hermiticity_defect(K))]

    one_block = results()
    monkeypatch.setattr(psdo.grid, "_BLOCK_ENTRIES", entries)
    for blocked, whole in zip(results(), one_block):
        assert blocked.tobytes() == whole.tobytes()


def test_dequantize_identity_and_diagonal(grid9):
    a = dequantize(OperatorMatrix.identity(grid9), 0.37).data
    np.testing.assert_allclose(a, np.ones((9, 9)), atol=1e-13)

    g = np.linspace(1, 2, 9).astype(complex)
    a2 = dequantize(OperatorMatrix(grid9, np.diag(g)), 0.0).data
    np.testing.assert_allclose(a2, np.repeat(g[:, None], 9, axis=1), atol=1e-13)


def test_dequantize_roundtrip(rng, grid9):
    for g, A in ((grid9, 0.37), (GridSpec(2, 5), [[0.3, -0.7], [0.25, 0.5]])):
        a = Symbol.random(g, rng)
        back = dequantize(quantize(a, A), A)
        assert np.abs(back.data - a.data).max() <= 1e-12 * a.norm()


def test_transfer_composition_property(rng):
    # Op_{A1}(a) == Op_{A2}(T_{A1-A2} a) for matrix-valued parameters
    g = GridSpec(2, 5)
    a = Symbol.random(g, rng)
    A1 = rng.standard_normal((2, 2))
    A2 = rng.standard_normal((2, 2))
    lhs = quantize(a, A1).data
    rhs = quantize(symbol_transfer(a, as_matrix_param(A1, 2) - as_matrix_param(A2, 2)), A2).data
    assert np.abs(lhs - rhs).max() <= 1e-11 * np.linalg.norm(lhs)


def test_weyl_real_symbol_hermitian(rng, grid9):
    a = Symbol(grid9, rng.standard_normal((9, 9)).astype(complex))
    K = quantize(a, 0.5).data
    assert np.abs(K - K.conj().T).max() <= 1e-12 * np.linalg.norm(K)


def test_adjoint_law_general_matrix(rng):
    # Op_A(a)^* == Op_{I-A}(conj a) — the kernel argument x - A(x-y) swaps
    # to x - (I-A)(x-y) under (x, y) exchange, with no transpose
    for d, n in ((1, 9), (2, 5)):
        g = GridSpec(d, n)
        a = Symbol.random(g, rng)
        A = rng.standard_normal((d, d))
        lhs = quantize(a, A).data.conj().T
        rhs = quantize(Symbol(g, a.data.conj()), np.eye(d) - A).data
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.linalg.norm(rhs)


def test_degenerate_single_point_grid(rng):
    # n = 1: every operator is a 1x1 scalar; all constants collapse to 1
    g = GridSpec(1, 1)
    a = Symbol(g, [[2.0 - 1.0j]])
    f1 = Signal(g, [1.5 + 0.5j])
    f2 = Signal(g, [-0.25j])
    assert quantize(a, 0.37).data[0, 0] == pytest.approx(2.0 - 1.0j)
    assert kernel_route(a, 0.37).data[0, 0] == pytest.approx(2.0 - 1.0j)
    assert dequantize(quantize(a, 0.37), 0.37).data[0, 0] == pytest.approx(2.0 - 1.0j)
    from psdo import wigner, stft

    assert wigner(f1, f2, 0.5).data[0, 0] == pytest.approx(f1.data[0] * np.conj(f2.data[0]))
    assert stft(f1, f2).data[0, 0] == pytest.approx(f1.data[0] * np.conj(f2.data[0]))
    K = quantize(rank_one_symbol(f1, f2, 0.5), 0.5).data
    assert K[0, 0] == pytest.approx(f1.data[0] * np.conj(f2.data[0]))


@given(st.complex_numbers(max_magnitude=5, allow_nan=False), st.complex_numbers(max_magnitude=5, allow_nan=False))
def test_quantize_linearity(alpha, beta):
    g = GridSpec(1, 5)
    rng = np.random.default_rng(3)
    a, b = Symbol.random(g, rng), Symbol.random(g, rng)
    comb = Symbol(g, alpha * a.data + beta * b.data)
    lhs = quantize(comb, 0.37).data
    rhs = alpha * quantize(a, 0.37).data + beta * quantize(b, 0.37).data
    assert np.abs(lhs - rhs).max() <= 1e-11 * (1 + abs(alpha) + abs(beta))


def test_rank_one_symbol_quantizes_to_outer(rng, grid9):
    f1 = Signal.random(grid9, rng)
    f2 = Signal.random(grid9, rng)
    for A in (0.0, 1.0, 0.5):
        a = rank_one_symbol(f1, f2, A)
        K = quantize(a, A).data
        np.testing.assert_allclose(K, np.outer(f1.data, f2.data.conj()), atol=1e-11)


def test_rank_one_projection_algebra(rng, grid9):
    f1 = Signal.random(grid9, rng)
    f2 = Signal.random(grid9, rng)
    K = quantize(rank_one_symbol(f1, f2, 0.5), 0.5).data
    out = K @ (f2.data / np.linalg.norm(f2.data) ** 2)
    np.testing.assert_allclose(out, f1.data, atol=1e-11)


def test_rank_one_delta_case(grid9):
    d0 = Signal.delta(grid9)
    a = rank_one_symbol(d0, d0, 0.0)
    K = quantize(a, 0.0).data
    want = np.zeros((9, 9))
    want[0, 0] = 1.0
    np.testing.assert_allclose(K, want, atol=1e-13)


def test_rank_one_bilinearity(rng, grid9):
    f1, f2 = Signal.random(grid9, rng), Signal.random(grid9, rng)
    a1 = rank_one_symbol(Signal(grid9, 2.0 * f1.data), f2, 0.37).data
    a2 = rank_one_symbol(f1, f2, 0.37).data
    np.testing.assert_allclose(a1, 2.0 * a2, atol=1e-12)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_scalar_param_rejects_non_finite_without_warning(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams):
            as_matrix_param(t, 2)
        with pytest.raises(InvalidParams):
            MatrixParam.scalar(t, 3)


@pytest.mark.parametrize("mode, A, passes", [("real", 0.0, 1), ("real", 0.37, 3),
                                              ("real", [[0.3, -0.7], [0.25, 0.5]], 3),
                                              ("mod", [[1, 2], [0, 1]], 3)],
                         ids=["0.0-1", "0.37-3", "A2-3", "mod-A3-3"])
def test_quantize_and_dequantize_fft_passes(fft_calls, rng, mode, A, passes):
    # wigner is the dequantization of a rank-one operator in either mode
    g = GridSpec(2, 5, mode)
    a = Symbol.random(g, rng)
    T = OperatorMatrix(g, a.data)
    quantize(a, A)
    assert len(fft_calls) == passes
    fft_calls.clear()
    dequantize(T, A)
    assert len(fft_calls) == passes
    fft_calls.clear()
    wigner(Signal.random(g, rng), Signal.random(g, rng), A)
    assert len(fft_calls) == passes


@pytest.mark.parametrize("spec", [
    SchemeSpec("born_jordan"),
    SchemeSpec("un_avg", {"r": 0.5, "angle_nodes": 4}),
    SchemeSpec("un_avg_time", {"r": 0.5, "t_nodes": 3, "angle_nodes": 4}),
])
def test_averaged_schemes_fft_passes(fft_calls, rng, spec):
    # one kernel pass with one averaged phase table, whatever the node count
    quantize_scheme(Symbol.random(GridSpec(2, 5), rng), spec)
    assert len(fft_calls) == 3


@pytest.mark.parametrize("mode, A", [("real", [[0.3, -0.7], [0.25, 0.5]]),
                                     ("mod", [[1, 2], [-3, 1]]),
                                     ("real", 0.0)])
def test_transforms_leave_their_inputs_untouched(rng, mode, A):
    # every FFT writes into a buffer of its own; Symbol, Signal and
    # OperatorMatrix share the caller's array, so a pass that wrote into
    # its input would change the caller's data.  At A = 0 quantize runs one
    # FFT pass and gathers in place on that pass's own buffer
    g = GridSpec(2, 5, mode)
    N = g.size
    owned = [rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) for _ in range(3)]
    owned += [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(2)]
    before = [x.copy() for x in owned]
    a, b, t = Symbol(g, owned[0]), Symbol(g, owned[1]), OperatorMatrix(g, owned[2])
    f, phi = Signal(g, owned[3]), Signal(g, owned[4])
    for wrapped, x in zip((a, b, t, f, phi), owned):
        assert np.shares_memory(wrapped.data, x)
    quantize(a, A)
    dequantize(t, A)
    symbol_transfer(a, A)
    kernel_route(a, A)
    multiplier_route(a, A)
    sharp(a, b, A)
    for block in (1, 2):
        for direction in ("fwd", "inv"):
            partial_dft(a, block, direction)
    stft(f, phi)
    dft(f)
    idft(f)
    frac_shift(f, [0.3, -1.2])
    symbol_modulation_norm(a, MixedNormParams(2, 2), Phi=b)
    if mode == "real":
        quantize_scheme(a, SchemeSpec("born_jordan", {}))
        quantize_scheme(a, SchemeSpec("un_avg", {"r": 0.5, "angle_nodes": 2}))
        quantize_scheme(a, SchemeSpec("un_avg_time", {"r": 0.5, "t_nodes": 2, "angle_nodes": 2}))
    else:
        expop_stft_check(a, b, A)
        stft_of_wigner_check(f, phi, f, phi, A)
    for x, x0 in zip(owned, before):
        assert x.tobytes() == x0.tobytes()


@pytest.mark.parametrize("mode, A", [
    ("real", [[0.3, -0.7, 1.4], [0.25, 0.5, -0.15], [-1.1, 0.6, 0.8]]),
    ("mod", [[1, 2, -1], [2, 1, 4], [-1, 1, 2]]),
])
def test_quantize_d3_dense_matrix(rng, mode, A):
    # every entry of A is non-zero mod 3, so each row folds 3 factors
    g = GridSpec(3, 3, mode)
    a = Symbol.random(g, rng)
    K = quantize(a, A).data
    for other in (kernel_route, multiplier_route):
        assert np.abs(other(a, A).data - K).max() <= 1e-12 * a.norm(), other.__name__
    back = dequantize(OperatorMatrix(g, K), A)
    assert np.abs(back.data - a.data).max() <= 1e-12 * a.norm()


_A2 = [[0.3, -0.7], [0.25, 0.5]]

# traced peak of one call at d=2, n=15, in N x N complex buffers (N = 225,
# 810 KB each), rounded up from the measured peak: a kernel-formula call
# computes its result in the one buffer it returns, beside its phase tables
# and one gather block of grid._BLOCK_ENTRIES entries, so a second N x N
# buffer for the gather, or kernel_route's dense phase built whole, fails;
# sharp holds its two factors' kernels and their product
_PEAK_BUFFERS = {
    "quantize": (lambda a, T: quantize(a, _A2), 1.7),
    "quantize_zero": (lambda a, T: quantize(a, 0.0), 1.5),
    "kernel_route": (lambda a, T: kernel_route(a, _A2), 1.7),
    "born_jordan": (lambda a, T: quantize_scheme(a, SchemeSpec("born_jordan", {})), 2.5),
    "un_avg": (lambda a, T: quantize_scheme(a, SchemeSpec("un_avg", {"r": 0.5, "angle_nodes": 4})), 2.6),
    "un_avg_time": (lambda a, T: quantize_scheme(
        a, SchemeSpec("un_avg_time", {"r": 0.5, "t_nodes": 3, "angle_nodes": 4})), 2.6),
    "dequantize": (lambda a, T: dequantize(T, _A2), 1.3),
    "symbol_transfer": (lambda a, T: symbol_transfer(a, _A2), 1.3),
    "sharp": (lambda a, T: sharp(a, a, _A2), 3.1),
}


@pytest.mark.parametrize("op", list(_PEAK_BUFFERS))
def test_traced_peak_per_call(rng, op):
    call, bound = _PEAK_BUFFERS[op]
    g = GridSpec(2, 15)
    a = Symbol.random(g, rng)
    T = OperatorMatrix(g, a.data.copy())
    call(a, T)  # warm-up: index caches
    tracemalloc.start()
    try:
        call(a, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * g.size**2) <= bound
