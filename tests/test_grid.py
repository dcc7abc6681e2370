import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

import psdo
from psdo import GridSpec, Signal, Symbol, dft, idft, partial_dft, frac_shift, gaussian_window, rep
from psdo.errors import DimMismatch, InvalidDimension, InvalidParams
from psdo.modspace import make_weight
from psdo.quantizer import MatrixParam, as_matrix_param
from psdo.schemes import (SchemeSpec, bj_multiplier, psi, psi0, psi_alternating, sphere_average_exp,
                          un_avg_multiplier, un_avg_multiplier_grid)
from psdo.grid import CACHE_SIZE, _BLOCK_ENTRIES, _blocks, _coords, _rel_index, rel_index, rep_axis

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


def test_frac_shift_reduces_a_huge_shift_exactly():
    # the phase is n-periodic in s, so fmod(s, n) gives the same answer with
    # no overflow on the way
    f = Signal.random(GridSpec(1, 5), np.random.default_rng(3))
    np.testing.assert_array_equal(frac_shift(f, 1e308).data, frac_shift(f, math.fmod(1e308, 5)).data)
    assert np.isfinite(frac_shift(f, -1e308).data).all()


_F = Signal.delta(GridSpec(2, 5))

# entry point -> (call with the bad value, parameter named in the message,
# whether the parameter must also be >= 0, whether it is one number)
_REAL_PARAMS = {
    "frac_shift": (lambda v: frac_shift(_F, v), "shift", False, False),
    "frac_shift_entry": (lambda v: frac_shift(_F, [0.5, v]), "shift", False, False),
    "MatrixParam": (lambda v: MatrixParam(np.array([[v]])), "matrix parameter", False, False),
    "MatrixParam_list": (lambda v: MatrixParam([[1.0, v], [0.0, 1.0]]), "matrix parameter", False, False),
    "MatrixParam.scalar": (lambda v: MatrixParam.scalar(v, 2), "matrix parameter t", False, True),
    "as_matrix_param": (lambda v: as_matrix_param(v, 1), "matrix parameter A", False, False),
    "as_matrix_param_entry": (lambda v: as_matrix_param([[0.5, v], [0, 1]], 2), "matrix parameter A", False, False),
    "polynomial_s": (lambda v: make_weight("polynomial", s=v), "'s'", False, True),
    "exponential_c": (lambda v: make_weight("exponential", c=v, s=1), "'c'", False, True),
    "exponential_s": (lambda v: make_weight("exponential", c=1, s=v), "'s'", True, True),
    "custom_samples": (lambda v: make_weight("custom", samples=[[1.0, v], [1.0, 1.0]]), "'samples'", False, False),
    "scheme_t": (lambda v: SchemeSpec("t", {"t": v}), "'t'", False, True),
    "scheme_r": (lambda v: SchemeSpec("un_avg", {"r": v}), "'r'", True, True),
    "scheme_time_r": (lambda v: SchemeSpec("un_avg_time", {"r": v}), "'r'", True, True),
    "psi_d1": (lambda v: psi(1, v), "rho", True, True),
    "psi_d2": (lambda v: psi(2, v), "rho", True, True),
    "psi_alternating": (lambda v: psi_alternating(2, v), "rho", True, True),
    "psi0": (lambda v: psi0(2, v), "r", True, True),
    "sphere_average_exp": (lambda v: sphere_average_exp(v, samples=10), "rho", False, True),
    "un_avg_multiplier_r": (lambda v: un_avg_multiplier(2, v, [1, 0], [0, 1], angle_nodes=4), "r", True, True),
    "un_avg_multiplier_m": (lambda v: un_avg_multiplier(2, 0.5, [v, 0], [0, 1], angle_nodes=4), "m_vec", False, False),
    "un_avg_multiplier_c": (lambda v: un_avg_multiplier(2, 0.5, [1, 0], [0, v], angle_nodes=4), "c_vec", False, False),
    "un_avg_multiplier_grid": (lambda v: un_avg_multiplier_grid(GridSpec(1, 3), v, angle_nodes=4), "r", True, True),
    "bj_multiplier": (lambda v: bj_multiplier(v), "theta", False, False),
    "bj_multiplier_entry": (lambda v: bj_multiplier([0.5, v]), "theta", False, False),
    # the dimension of the psi functions is a count, refused with InvalidDimension
    "psi_dimension": (lambda v: psi(v, 1.0), "dimension", True, True),
    "psi0_dimension": (lambda v: psi0(v, 1.0), "dimension", True, True),
    "psi_alternating_dimension": (lambda v: psi_alternating(v, 1.0), "dimension", True, True),
}

_BAD_REALS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "True": True, "str": "1", "negative": -1,
              "list": [1.0]}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry, (_, _, nonnegative, one_number) in _REAL_PARAMS.items()
    for value in _BAD_REALS if (nonnegative or value != "negative") and (one_number or value != "list")])
def test_real_parameters_share_one_rule(entry, value):
    # one rule for every real parameter: a real number (or real entries,
    # where the parameter is not one number), not a bool or a string,
    # finite, and >= its minimum where one applies;
    # anything else is InvalidParams naming the parameter, never a NaN
    # answer, a RuntimeWarning or a raw TypeError
    call, name, _, _ = _REAL_PARAMS[entry]
    error = InvalidDimension if entry.endswith("_dimension") else InvalidParams
    with pytest.raises(error, match=name):
        call(_BAD_REALS[value])


_RAGGED = [np.zeros((2, 2)), np.zeros(2)]

# entry point -> (call with a parameter numpy cannot lay out or broadcast,
# parameter named in the message)
_BAD_SHAPES = {
    "frac_shift_length": (lambda: frac_shift(_F, [1.0, 2.0, 3.0]), "shift"),
    "frac_shift_row": (lambda: frac_shift(_F, [[1.0, 2.0]]), "shift"),
    "frac_shift_ragged": (lambda: frac_shift(_F, _RAGGED), "shift"),
    "MatrixParam_ragged": (lambda: MatrixParam(_RAGGED), "matrix parameter"),
    "as_matrix_param_ragged": (lambda: as_matrix_param(_RAGGED, 2), "matrix parameter A"),
    "un_avg_multiplier_lengths": (lambda: un_avg_multiplier(2, 0.5, [1, 2, 3], [1, 2]), "m_vec"),
    "un_avg_multiplier_c_length": (lambda: un_avg_multiplier(2, 0.5, [1, 2], [1]), "c_vec"),
    "un_avg_multiplier_d1": (lambda: un_avg_multiplier(1, 0.5, [1, 2], [1, 2]), "m_vec"),
}


@pytest.mark.parametrize("entry", list(_BAD_SHAPES))
def test_parameter_shapes_are_refused_by_name(entry):
    # InvalidParams naming the parameter, never numpy's raw ValueError
    call, name = _BAD_SHAPES[entry]
    with pytest.raises(InvalidParams, match=name):
        call()


# entry point -> (call with a parameter key its kind does not take, the key)
_STRAY_KEYS = {
    "un_avg_angle_node": (lambda: SchemeSpec("un_avg", {"r": 0.5, "angle_node": 2}), "'angle_node'"),
    "weyl_t": (lambda: SchemeSpec("weyl", {"t": 0.5}), "'t'"),
    "t_r": (lambda: SchemeSpec("t", {"t": 0.5, "r": 1.0}), "'r'"),
    "polynomial_sigma": (lambda: make_weight("polynomial", s=1.0, sigma=2.0), "'sigma'"),
    "exponential_factors": (lambda: make_weight("exponential", c=1.0, s=1.0, factors=()), "'factors'"),
}


@pytest.mark.parametrize("entry", list(_STRAY_KEYS))
def test_parameter_keys_a_kind_does_not_take_are_refused(entry):
    # the key was ignored, and the default or the other keys ran
    call, key = _STRAY_KEYS[entry]
    with pytest.raises(InvalidParams, match=f"takes no parameter {key}"):
        call()


@pytest.mark.parametrize("value", [-1, True, 2.5, "3", None])
def test_seeds_are_integers_of_at_least_zero(value):
    # numpy's raw ValueError ("expected non-negative integer") or, for a
    # seed the draw never reached, no error at all
    from psdo.bench import run_bench
    from psdo.calculus import alg_hypotheses_report
    from psdo.modspace import SYMBOL_AXES, ExponentTuple, holds_composition_weight_bound, trivial_weight
    from psdo.verify import run_suite

    ones = [trivial_weight(SYMBOL_AXES)] * 3
    calls = (lambda: sphere_average_exp(1.0, samples=10, seed=value),
             lambda: alg_hypotheses_report(ExponentTuple(p=(2, 2, 2), q=(2, 2, 2)), ones, 0.5, GridSpec(1, 3),
                                           draws=1, seed=value),
             lambda: holds_composition_weight_bound(ones, 0.5, GridSpec(1, 3), seed=value),
             lambda: run_suite("schatten", 3, 1, value),
             lambda: run_bench([3], 1, value))
    for call in calls:
        with pytest.raises(InvalidParams, match="seed must be an integer >= 0"):
            call()


def test_valid_real_parameters_keep_their_value_and_type():
    assert SchemeSpec("un_avg", {"r": 1}).params["r"] == 1
    assert type(SchemeSpec("un_avg", {"r": 1}).params["r"]) is int
    assert type(SchemeSpec("t", {"t": np.float32(0.25)}).params["t"]) is np.float32
    assert make_weight("polynomial", s=1).descriptor()["params"] == {"s": 1.0}
    np.testing.assert_array_equal(as_matrix_param(np.int64(2), 2).entries, 2 * np.eye(2))
    np.testing.assert_array_equal(as_matrix_param([[1, 2], [0, 1]], 2).entries, [[1, 2], [0, 1]])
    assert psi(2, np.float64(0.0)) == psi(2, 0)


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


@pytest.mark.parametrize("count", [0, 1, 7, 2**14, 2**14 + 1, 10**5])
@pytest.mark.parametrize("width", [1, 3, 225, 2**14, 2**15])
def test_blocks_cover_each_item_once(count, width):
    # every streamed evaluation splits its items with grid._blocks: the
    # slices run over range(count) in order, each item once; every slice but
    # the last holds the same number of items, at most _BLOCK_ENTRIES
    # entries of `width` each, or one item where an item is wider
    slices = list(_blocks(count, width))
    assert [i for rows in slices for i in range(count)[rows]] == list(range(count))
    step = max(1, _BLOCK_ENTRIES // width)
    assert all(rows.stop - rows.start == step for rows in slices[:-1])
    for rows in slices:
        assert 0 < rows.stop - rows.start <= step
        assert (rows.stop - rows.start) * width <= _BLOCK_ENTRIES or rows.stop - rows.start == 1


def test_only_grid_binds_the_block_size():
    # every stream reads the block size from psdo.grid when it runs, so a
    # test that patches psdo.grid._BLOCK_ENTRIES resizes them all; a module
    # that imported the constant by value would keep a copy of its own
    names = ["psdo"] + [f"psdo.{m.name}" for m in pkgutil.iter_modules(psdo.__path__)]
    binders = [name for name in names if "_BLOCK_ENTRIES" in vars(importlib.import_module(name))]
    assert binders == ["psdo.grid"]
