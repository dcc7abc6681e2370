import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from psdo import (
    GridSpec,
    Signal,
    Symbol,
    OperatorMatrix,
    singular_values,
    schatten_norm,
    symbol_schatten_norm,
    trace_pairing,
    rank_one_symbol,
    symbol_transfer,
)
from psdo.errors import DimMismatch, InvalidExponent, InvalidParams
from psdo.verify import duality_check, hoelder_check


def test_singular_values_examples():
    assert tuple(singular_values(np.diag([3.0, 4.0])).values) == (4.0, 3.0)
    np.testing.assert_array_equal(singular_values(np.eye(5)).values, np.ones(5))


def test_singular_values_eigen_oracle(rng):
    T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    sv = singular_values(T).values
    ev = np.sqrt(np.linalg.eigvalsh(T.conj().T @ T))[::-1]
    np.testing.assert_allclose(sv, ev, atol=1e-12 * sv[0])


@given(st.integers(2, 8))
def test_singular_values_sorted(m):
    rng = np.random.default_rng(m)
    sv = singular_values(rng.standard_normal((m, m))).values
    assert np.all(np.diff(sv) <= 0) and np.all(sv >= 0)


def test_spectrum_rank():
    s = singular_values(np.diag([2.0, 1.0, 0.0]))
    assert s.rank() == 2
    assert s.operator_norm == 2.0


@pytest.mark.parametrize("p", ["2", None, 2 + 0j, True, float("nan")])
def test_schatten_exponents_are_numbers(p):
    # the rule of modspace's exponents: these once escaped as a raw
    # TypeError or (True) were taken as p = 1
    T = np.diag([3.0, 4.0])
    for run in (lambda: schatten_norm(T, p), lambda: duality_check(T, p),
                lambda: hoelder_check(T, T, p, 2), lambda: hoelder_check(T, T, 2, p)):
        with pytest.raises(InvalidExponent):
            run()


def test_schatten_norm_examples():
    T = np.diag([3.0, 4.0])
    assert schatten_norm(T, 1) == pytest.approx(7.0)
    assert schatten_norm(T, 2) == pytest.approx(5.0)
    assert schatten_norm(T, math.inf) == pytest.approx(4.0)
    with pytest.raises(InvalidExponent):
        schatten_norm(T, 0.0)


def test_schatten_two_is_frobenius(rng):
    T = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert schatten_norm(T, 2) == pytest.approx(np.linalg.norm(T), rel=1e-12)


def test_symbol_schatten_identity_operator(grid9):
    # a == 1 quantizes to the identity: n^d unit singular values
    for p in (1.0, 2.0, 3.0, math.inf):
        got = symbol_schatten_norm(Symbol.constant(grid9), 0.5, p)
        want = 9.0 ** (0.0 if math.isinf(p) else 1.0 / p)
        assert got == pytest.approx(want, rel=1e-12)


def test_symbol_schatten_rank_one(rng, grid9):
    f = Signal.random(grid9, rng)
    f = Signal(grid9, f.data / f.norm())
    a = rank_one_symbol(f, f, 0.5)
    for p in (1.0, 1.5, 2.0, math.inf):
        assert symbol_schatten_norm(a, 0.5, p) == pytest.approx(1.0, abs=1e-11)


def test_symbol_schatten_transfer_invariance(rng, grid9):
    a = Symbol.random(grid9, rng)
    a2 = symbol_transfer(a, 0.5 - (-0.2))
    for p in (1.0, 2.0, math.inf):
        v1 = symbol_schatten_norm(a, 0.5, p)
        v2 = symbol_schatten_norm(a2, -0.2, p)
        assert v2 == pytest.approx(v1, rel=1e-11)


def test_symbol_hs_scaling(rng, grid9):
    # ||Op_A(a)||_{I_2} == n^{-d/2} ||a||_2
    a = Symbol.random(grid9, rng)
    for A in (0.0, 0.5, 0.37):
        assert symbol_schatten_norm(a, A, 2) == pytest.approx(a.norm() / 3.0, rel=1e-11)


def test_trace_pairing_examples(rng):
    assert trace_pairing(np.eye(6), np.eye(6)) == pytest.approx(6.0)
    assert trace_pairing(np.eye(3), np.zeros((3, 3))) == 0.0
    T1 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    T2 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert trace_pairing(T1, T2) == pytest.approx(np.sum(T1 * np.conj(T2)))
    with pytest.raises(DimMismatch):
        trace_pairing(np.eye(3), np.eye(4))


def test_duality_examples():
    T = np.diag([3.0, 4.0])
    lhs, rhs, ratio = duality_check(T, 1)
    assert lhs == pytest.approx(7.0) and rhs == pytest.approx(7.0)
    lhs, rhs, _ = duality_check(T, math.inf)
    assert rhs == pytest.approx(4.0)
    with pytest.raises(InvalidExponent):
        duality_check(T, 0.5)
    assert duality_check(np.zeros((3, 3)), 2) == (0.0, 0.0, 1.0)


def test_duality_random(rng):
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        T = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        _, _, ratio = duality_check(T, p)
        assert abs(ratio - 1.0) <= 1e-10


def test_hoelder_identity_case():
    m = 5
    lhs, rhs = hoelder_check(np.eye(m), np.eye(m), 2.0, 2.0)
    assert lhs == pytest.approx(m)  # r = 1, trace norm of identity
    assert rhs == pytest.approx(m)
    lhs, rhs = hoelder_check(np.eye(m), np.zeros((m, m)), 1.0, math.inf)
    assert lhs == 0.0 and rhs == 0.0


def test_hoelder_random_stress(rng):
    for p1, p2 in ((1.0, math.inf), (2.0, 2.0), (4.0, 4.0 / 3.0)):
        for _ in range(30):
            T1 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            T2 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            lhs, rhs = hoelder_check(T1, T2, p1, p2)
            assert lhs <= rhs * (1 + 1e-10)
    with pytest.raises(DimMismatch):
        hoelder_check(np.eye(3), np.eye(4), 2, 2)


def test_hs_norm_equals_kernel_norm(rng, grid9):
    T = OperatorMatrix(grid9, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    assert schatten_norm(T, 2) == pytest.approx(T.norm(), rel=1e-12)


def test_unitary_invariance(rng):
    g = GridSpec(1, 9)
    F = np.exp(-2j * np.pi * np.outer(np.arange(9), np.arange(9)) / 9) / 3.0
    T = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    for p in (1.0, 2.0, math.inf):
        assert schatten_norm(F @ T @ F.conj().T, p) == pytest.approx(schatten_norm(T, p), rel=1e-11)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_operator_is_refused_before_the_svd(bad):
    # LAPACK's SVD does not converge on it, which once escaped as a raw
    # numpy.linalg.LinAlgError
    T = np.eye(3, dtype=complex)
    T[0, 1] = bad
    for run in (lambda: singular_values(T), lambda: schatten_norm(T, 2), lambda: duality_check(T, 2),
                lambda: hoelder_check(T, np.eye(3), 2, 2)):
        with pytest.raises(InvalidParams, match="non-finite"):
            run()
