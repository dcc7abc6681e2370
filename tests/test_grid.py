import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from psdo import GridSpec, Signal, Symbol, dft, idft, partial_dft, frac_shift, gaussian_window, rep
from psdo.errors import DimMismatch, InvalidParams
from psdo.grid import CACHE_SIZE, _coords, _rel_index, rel_index, rep_axis

from reference import naive_dft

odd_n = st.sampled_from([3, 5, 7, 9, 11])


def test_rep_examples():
    assert rep(0, 9) == 0
    assert rep(5, 9) == -4
    assert rep(4, 9) == 4


@given(odd_n)
def test_rep_bijection(n):
    images = {rep(k, n) for k in range(n)}
    assert images == set(range(-(n - 1) // 2, (n - 1) // 2 + 1))
    for k in range(n):
        assert (rep(k, n) - k) % n == 0


def test_gridspec_validation():
    with pytest.raises(InvalidParams):
        GridSpec(1, 8)
    with pytest.raises(InvalidParams):
        GridSpec(0, 9)
    with pytest.raises(InvalidParams):
        GridSpec(1, 9, "weird")
    assert GridSpec(2, 9).size == 81


def test_gridspec_integer_types():
    for d, n in ((1, 9.0), (1.0, 9), (True, 9), (1, True), (1, np.float64(9)), ("1", 9)):
        with pytest.raises(InvalidParams):
            GridSpec(d, n)
    g = GridSpec(np.int32(1), np.int64(9))
    assert g == GridSpec(1, 9) and type(g.d) is int and type(g.n) is int


def test_signal_shape_validation(grid9):
    with pytest.raises(DimMismatch):
        Signal(grid9, np.zeros(8))
    with pytest.raises(DimMismatch):
        Symbol(grid9, np.zeros((9, 8)))


def test_dft_trivial_cases():
    g1 = GridSpec(1, 1)
    c = 2.5 - 1j
    assert dft(Signal(g1, [c])).data[0] == pytest.approx(c)

    g = GridSpec(1, 9)
    hat = dft(Signal.delta(g)).data
    np.testing.assert_allclose(hat, np.full(9, 1 / 3), atol=1e-15)

    hat1 = dft(Signal(g, np.ones(9))).data
    want = np.zeros(9)
    want[0] = 3.0
    np.testing.assert_allclose(hat1, want, atol=1e-14)


def test_dft_matches_naive(rng, grid9):
    f = Signal.random(grid9, rng)
    np.testing.assert_allclose(dft(f).data, naive_dft(f.data), atol=1e-13)


def test_dft_unitary_roundtrip(rng):
    for d in (1, 2):
        g = GridSpec(d, 9)
        f = Signal.random(g, rng)
        assert abs(dft(f).norm() - f.norm()) <= 1e-12 * f.norm()
        np.testing.assert_allclose(idft(dft(f)).data, f.data, atol=1e-12)


def test_partial_dft_delta(grid9):
    F = np.zeros((9, 9), dtype=complex)
    F[0, 0] = 1.0
    out = partial_dft(Symbol(grid9, F), block=2).data
    want = np.zeros((9, 9), dtype=complex)
    want[0, :] = 1 / 3
    np.testing.assert_allclose(out, want, atol=1e-15)


def test_partial_dft_composition(rng, grid9):
    a = Symbol.random(grid9, rng)
    both = partial_dft(partial_dft(a, 1), 2).data
    full = np.fft.fft2(a.data) / 9
    np.testing.assert_allclose(both, full, atol=1e-12)


def test_partial_dft_roundtrip(rng):
    for d in (1, 2):
        g = GridSpec(d, 5)
        a = Symbol.random(g, rng)
        for block in (1, 2):
            back = partial_dft(partial_dft(a, block, "fwd"), block, "inv").data
            assert np.abs(back - a.data).max() <= 1e-12 * np.abs(a.data).max()
    with pytest.raises(InvalidParams):
        partial_dft(a, 3)


def test_frac_shift_identity_and_integer(rng, grid9):
    f = Signal.random(grid9, rng)
    np.testing.assert_allclose(frac_shift(f, 0.0).data, f.data, atol=1e-13)
    shifted = frac_shift(f, 2.0).data
    np.testing.assert_allclose(shifted, np.roll(f.data, 2), atol=1e-12)


def test_frac_shift_roundtrip(rng, grid9):
    f = Signal.random(grid9, rng)
    back = frac_shift(frac_shift(f, 0.5), -0.5).data
    assert np.abs(back - f.data).max() <= 1e-12 * f.norm()


@given(st.floats(-4, 4), st.floats(-4, 4))
def test_frac_shift_group_law(s1, s2):
    g = GridSpec(1, 7)
    rng = np.random.default_rng(7)
    f = Signal.random(g, rng)
    lhs = frac_shift(frac_shift(f, s2), s1).data
    rhs = frac_shift(f, s1 + s2).data
    assert np.abs(lhs - rhs).max() <= 1e-12 * f.norm()


def test_frac_shift_2d(rng):
    g = GridSpec(2, 5)
    f = Signal.random(g, rng)
    shifted = frac_shift(f, [1.0, 2.0]).data.reshape(5, 5)
    np.testing.assert_allclose(shifted, np.roll(f.data.reshape(5, 5), (1, 2), axis=(0, 1)),
                               atol=1e-12)


@pytest.mark.parametrize("s", [np.nan, np.inf, [0.5, -np.inf]])
def test_frac_shift_refuses_a_non_finite_shift(s):
    # a non-finite shift would turn every sample into NaN
    f = Signal.delta(GridSpec(2, 5))
    with pytest.raises(InvalidParams, match="shift must be finite"):
        frac_shift(f, s)


def test_gaussian_window_normalized():
    for d in (1, 2):
        g = GridSpec(d, 9)
        w = gaussian_window(g)
        assert w.norm() == pytest.approx(1.0, abs=1e-14)
        assert np.all(w.data.real > 0)
        # even under j -> -j
        idx = (-np.arange(g.size)) % g.size if d == 1 else None
        if d == 1:
            np.testing.assert_allclose(w.data, w.data[idx], atol=1e-15)


def test_index_caches_are_bounded():
    for n in range(1, 2 * CACHE_SIZE + 20, 2):
        rel_index(GridSpec(1, n))
        rep_axis(n)
    for cached in (rep_axis, _coords, _rel_index):
        assert cached.cache_info().currsize <= CACHE_SIZE
    assert _rel_index.cache_info().currsize == CACHE_SIZE
