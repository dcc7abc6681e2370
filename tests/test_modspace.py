import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

import reference as ref
import psdo.grid
import psdo.modspace as ms
from psdo import GridSpec, Signal, Symbol, gaussian_window, verify
from psdo.modspace import (
    INF,
    ExponentTuple,
    MixedNormParams,
    KERNEL_AXES,
    SYMBOL_AXES,
    as_exponent,
    conjugate_exponent,
    make_weight,
    trivial_weight,
    moderate_check,
    mixed_norm,
    modulation_norm,
    symbol_modulation_norm,
    hy_functional,
    holds_op_bound_exponents,
    holds_schatten_embedding_exponents,
    holds_wigner_product_exponents,
    holds_composition_exponents,
    holds_composition_exponents_l2,
    holds_kernel_weight_bound,
    holds_kernel_symbol_weight_equiv,
    holds_wigner_weight_bound,
    holds_op_weight_bound,
    holds_composition_weight_bound,
    lp_norm,
    _modulation_norms,
)
from psdo.grid import rep_axis
from psdo.schatten import schatten_norm
from psdo.verify import duality_check, hoelder_check
from psdo.wigner import TimeFrequencyArray, phase_space_stft
from psdo.errors import (
    ArityMismatch,
    DomainMismatch,
    InvalidExponent,
    InvalidParams,
    SizeLimit,
    TooFewEntries,
    ZeroWindow,
)


# ---------------------------------------------------------------------------
# weights


def test_make_weight_values():
    w0 = make_weight("polynomial", s=0.0)
    assert w0.evaluate(np.array([3.0, -4.0])) == 1.0
    w2 = make_weight("polynomial", s=2.0)
    assert w2.evaluate(np.zeros(2)) == 1.0
    assert w2.evaluate(np.array([3.0, 4.0])) == pytest.approx(26.0)  # 1 + 25
    we = make_weight("exponential", c=1.0, s=1.0)
    assert we.evaluate(np.array([1.0, 0.0])) == pytest.approx(math.e)


def test_weight_trivial():
    # only omega == 1 skips its samples: s = 0 polynomial, on any axes
    assert trivial_weight().trivial and trivial_weight(SYMBOL_AXES).trivial
    assert make_weight("polynomial", s=0.0).trivial
    assert not make_weight("polynomial", s=1.0).trivial
    assert not make_weight("exponential", c=0.0, s=1.0).trivial
    assert not make_weight("custom", samples=np.ones((9, 9))).trivial


def test_make_weight_validation():
    with pytest.raises(InvalidParams):
        make_weight("exponential", c=1.0, s=0.5)
    with pytest.raises(InvalidParams):
        make_weight("nope", s=1.0)
    with pytest.raises(InvalidParams):
        make_weight("custom", samples=np.array([[1.0, -1.0], [1.0, 1.0]]))
    with pytest.raises(InvalidParams):
        make_weight("polynomial", axes=("pos", "bogus"), s=1.0)
    # a NaN or infinite weight parameter would give a NaN norm
    for kind, params, key in (("polynomial", {"s": math.nan}, "'s'"),
                              ("polynomial", {"s": -math.inf}, "'s'"),
                              ("exponential", {"c": math.inf, "s": 1.0}, "'c'"),
                              ("exponential", {"c": 1.0, "s": math.nan}, "'s'"),
                              ("custom", {"samples": [[1.0, math.inf], [1.0, 1.0]]}, "'samples'")):
        with pytest.raises(InvalidParams, match=f"{key} must be finite"):
            make_weight(kind, **params)


def test_weight_product_and_inverse():
    w1 = make_weight("polynomial", s=1.0)
    w2 = make_weight("exponential", c=0.5, s=1.0)
    prod = make_weight("product", factors=(w1, w2))
    assert prod.axes == ("pos", "freq", "pos", "freq")
    X = np.array([1.0, 2.0, 0.5, -0.5])
    assert prod.evaluate(X) == pytest.approx(w1.evaluate(X[:2]) * w2.evaluate(X[2:]))
    inv = prod.inverse()
    assert inv.evaluate(X) == pytest.approx(1.0 / prod.evaluate(X))
    # each factor's |log omega| is 450, in the float range, and their sum
    # 900 is not: the product overflowed with a RuntimeWarning
    big = make_weight("exponential", axes=("pos",), c=300.0, s=1.0)
    with pytest.raises(InvalidParams, match="float range"):
        make_weight("product", factors=(big, big)).evaluate(np.array([1.5, 1.5]))


def test_custom_weight_sampling(grid9):
    samples = np.full((9, 9), 2.0)
    w = make_weight("custom", samples=samples)
    np.testing.assert_array_equal(w.sample(grid9), samples)
    with pytest.raises(DomainMismatch):
        w.evaluate(np.zeros(2))


def test_moderate_check_examples(grid9):
    one = trivial_weight()
    ok, c = moderate_check(one, one, grid9)
    assert ok and c == pytest.approx(1.0)

    p1 = make_weight("polynomial", s=1.0)
    ok, c = moderate_check(p1, p1, grid9)
    assert ok and c <= math.sqrt(2.0) + 1e-12

    e1 = make_weight("exponential", c=1.0, s=1.0)
    ok, c = moderate_check(e1, e1, grid9)
    assert ok and c <= 1.0 + 1e-12


def test_moderate_polynomial_family(grid9):
    # (1+|X+Y|^2)^{s/2} <= 2^{|s|/2} (1+|X|^2)^{s/2} (1+|Y|^2)^{|s|/2}
    for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
        w = make_weight("polynomial", s=s)
        v = make_weight("polynomial", s=abs(s))
        ok, c = moderate_check(w, v, grid9)
        assert ok and c <= 2.0 ** (abs(s) / 2.0) + 1e-12


def test_mixed_norm_p_equals_q_nesting(rng, grid9):
    # p == q collapses to the plain weighted l^p norm of the flattened array
    F = TimeFrequencyArray(grid9, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    w = make_weight("polynomial", s=1.0)
    for p in (1.0, 2.0, 3.0, math.inf):
        got = mixed_norm(F, MixedNormParams(p, p), w)
        flat = np.abs(F.data * w.sample(grid9)).ravel()
        want = flat.max() if math.isinf(p) else (flat**p).sum() ** (1 / p)
        assert got == pytest.approx(want, rel=1e-13)


def test_moderate_check_domain_mismatch(grid9):
    with pytest.raises(DomainMismatch):
        moderate_check(trivial_weight(), trivial_weight(SYMBOL_AXES), grid9)


def test_moderate_check_sampled_path(grid9):
    w = make_weight("polynomial", axes=SYMBOL_AXES, s=1.0)
    ok, c = moderate_check(w, w, grid9)  # 6561^2 pairs > PAIR_LIMIT: sampled
    assert ok and 0.0 < c <= math.sqrt(2.0) + 1e-12


@pytest.mark.parametrize("n", [9, 33])  # 81^2 pairs: exhaustive; 1089^2: sampled
def test_moderate_check_reports_nan(monkeypatch, n):
    # exp(800 |X|) overflowed to inf/inf = NaN ratios; it is now refused
    # before it is evaluated
    grid = GridSpec(1, n)
    with pytest.raises(InvalidParams, match="float range"):
        moderate_check(make_weight("exponential", c=800.0, s=1.0), trivial_weight(), grid)
    # a NaN ratio, here from a weight that is NaN at the origin, is reported
    # rather than dropped from the max
    log = ms.Weight._log

    def nan_at_origin(self, X):
        out = log(self, X)
        out[np.all(X == 0.0, axis=-1)] = np.nan
        return out

    monkeypatch.setattr(ms.Weight, "_log", nan_at_origin)
    w = make_weight("polynomial", s=1.0)
    ok, c = moderate_check(w, w, grid)
    assert not ok and math.isnan(c)


@pytest.mark.parametrize("kind, params", [
    ("exponential", {"c": 1e308, "s": 1.0}), ("exponential", {"c": -1e308, "s": 1.0}),
    ("polynomial", {"s": 1e308}), ("polynomial", {"s": -1e308}),
    ("product", {"factors": (make_weight("exponential", axes=("pos",), c=250.0, s=1.0),
                             make_weight("exponential", axes=("freq",), c=250.0, s=1.0))})])
def test_weights_beyond_the_float_range_are_refused(kind, params):
    # the norm overflowed with RuntimeWarnings to inf, and at c = -1e308
    # moderate_check returned (False, nan); each factor of the product is
    # in range on the grid, their product is not
    grid = GridSpec(1, 5)
    w = make_weight(kind, **params)
    with pytest.raises(InvalidParams, match="float range"):
        modulation_norm(Signal.random(grid, np.random.default_rng(0)), MixedNormParams(2, 2), w)
    with pytest.raises(InvalidParams, match="float range"):
        moderate_check(w, trivial_weight(), grid)


# ---------------------------------------------------------------------------
# norms


def test_mixed_norm_single_point(grid9):
    F = np.zeros((9, 9), dtype=complex)
    F[4, 7] = 3.0 - 4.0j
    tf = TimeFrequencyArray(grid9, F)
    for p, q in ((1, 1), (2, 3), (math.inf, math.inf)):
        assert mixed_norm(tf, MixedNormParams(p, q)) == pytest.approx(5.0)


def test_mixed_norm_frobenius(rng, grid9):
    F = TimeFrequencyArray(grid9, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    assert mixed_norm(F, MixedNormParams(2, 2)) == pytest.approx(np.linalg.norm(F.data))


def test_mixed_norm_single_column(rng, grid9):
    F = np.zeros((9, 9), dtype=complex)
    F[:, 0] = rng.standard_normal(9)
    w = make_weight("polynomial", s=1.0)
    got = mixed_norm(TimeFrequencyArray(grid9, F), MixedNormParams(1, math.inf), w)
    assert got == pytest.approx(np.sum(np.abs(F[:, 0]) * w.sample(grid9)[:, 0]))


@given(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_mixed_norm_monotone_in_p(p1, p2):
    if p1 > p2:
        p1, p2 = p2, p1
    g = GridSpec(1, 5)
    rng = np.random.default_rng(11)
    F = TimeFrequencyArray(g, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    hi = mixed_norm(F, MixedNormParams(p2, 2))
    lo = mixed_norm(F, MixedNormParams(p1, 2))
    assert hi <= lo * (1 + 1e-14)


def test_lp_norms_at_extreme_exponents():
    # the sums of a**p underflowed or overflowed: p = 2000 read 0.757 though
    # the p = inf value is 1.299, p = 1e308 read 0.0, and both
    # schatten_norm(., 1000) and a norm near the weights' range limit
    # overflowed with a RuntimeWarning
    f = Signal.random(GridSpec(1, 5), np.random.default_rng(0))

    def norm(p, omega=None):
        return modulation_norm(f, MixedNormParams(p, 2), omega)

    assert norm(math.inf) <= norm(2000) <= norm(100)
    assert norm(1e308) == pytest.approx(norm(math.inf), rel=1e-12)
    assert schatten_norm(np.diag([3.0, 2.0, 1.0]), 1000) == pytest.approx(3.0, rel=1e-3)
    assert math.isfinite(norm(2, make_weight("exponential", c=200.0, s=1.0)))
    with pytest.raises(InvalidParams, match="largest float"):
        norm(0.001)


def test_modulation_norm_l2(rng, grid9):
    f = Signal.random(grid9, rng)
    assert modulation_norm(f, MixedNormParams(2, 2)) == pytest.approx(f.norm(), rel=1e-12)
    assert modulation_norm(Signal(grid9, np.zeros(9)), MixedNormParams(2, 2)) == 0.0


def test_modulation_norm_zero_window(rng, grid9):
    with pytest.raises(ZeroWindow):
        modulation_norm(Signal.random(grid9, rng), MixedNormParams(2, 2),
                        phi=Signal(grid9, np.zeros(9)))


def test_window_equivalence_bounded(rng, grid9):
    phi1 = gaussian_window(grid9)
    chirp = np.exp(2j * np.pi * np.arange(9) / 9)
    phi2 = Signal(grid9, phi1.data + 0.3 * chirp * phi1.data)
    params = MixedNormParams(1, math.inf)
    ratios = []
    for _ in range(20):
        f = Signal.random(grid9, rng)
        ratios.append(modulation_norm(f, params, phi=phi1) / modulation_norm(f, params, phi=phi2))
    assert all(math.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 50
    assert max(ratios) / min(ratios) > 1.0  # the two windows genuinely differ


def test_translated_window_preserves_norms(rng, grid9):
    # a translated window only permutes the STFT: every norm is unchanged
    phi1 = gaussian_window(grid9)
    phi2 = Signal(grid9, np.roll(phi1.data, 2))
    f = Signal.random(grid9, rng)
    params = MixedNormParams(1, math.inf)
    assert modulation_norm(f, params, phi=phi1) == pytest.approx(
        modulation_norm(f, params, phi=phi2), rel=1e-12)


def test_signal_modulation_norm_is_not_capped():
    # the signal norm streams N^2 = 2.25e6 STFT entries, above FOURD_LIMIT,
    # which caps only a symbol's N^4; a cap shared with symbols raised
    # SizeLimit here
    f = Signal.random(GridSpec(1, 1501), np.random.default_rng(0))
    assert math.isfinite(modulation_norm(f, MixedNormParams(1, math.inf)))


def test_symbol_modulation_norm_l2(rng, grid9):
    a = Symbol.random(grid9, rng)
    assert symbol_modulation_norm(a, MixedNormParams(2, 2)) == pytest.approx(a.norm(), rel=1e-12)
    zero = Symbol(grid9, np.zeros((9, 9)))
    assert symbol_modulation_norm(zero, MixedNormParams(2, 2)) == 0.0


def test_symbol_modulation_norm_constant_vs_direct():
    # a == 1, p = q = inf: sup |V_Phi 1| against the direct double sum
    g = GridSpec(1, 5)
    Phi = Symbol(g, gaussian_window(GridSpec(2, 5)).data.reshape(5, 5))
    n = 5
    worst = 0.0
    for eta in range(n):
        for y in range(n):
            acc = 0.0j
            for u in range(n):
                for v in range(n):
                    acc += np.conj(Phi.data[u, v]) * np.exp(-2j * np.pi * (u * eta + v * y) / n)
            worst = max(worst, abs(acc) / n)
    got = symbol_modulation_norm(Symbol.constant(g), MixedNormParams(math.inf, math.inf))
    assert got == pytest.approx(worst, rel=1e-12)


@pytest.mark.parametrize("n, d", [(9, 1), (5, 2)])
def test_weighted_symbol_modulation_norm_vs_dense(rng, n, d):
    # the weight evaluated per block of frequency columns equals the dense
    # weighted norm over the whole (N,)*4 phase-space STFT
    g = GridSpec(d, n)
    N = g.size
    a = Symbol.random(g, rng)
    Phi = gaussian_window(GridSpec(2 * d, n)).data.reshape(N, N)
    V = np.abs(phase_space_stft(a.data, Phi, g)).reshape(N * N, N * N)  # (x, xi) by (eta, y)
    weights = {
        "polynomial": make_weight("polynomial", axes=SYMBOL_AXES, s=1.0),
        "exponential": make_weight("exponential", axes=KERNEL_AXES, c=0.3, s=2.0),
        "product": make_weight("product", factors=[
            make_weight("polynomial", axes=("pos", "freq"), s=1.5),
            make_weight("exponential", axes=("freq", "pos"), c=-0.2, s=1.0)]),
        "custom": make_weight("custom", axes=SYMBOL_AXES, samples=rng.uniform(0.5, 2.0, (N,) * 4)),
    }
    for name, omega in weights.items():
        weighted = V * omega.sample(g).reshape(N * N, N * N)
        for p, q in ((1, 1), (2, 2), (math.inf, math.inf), (3, 1.5)):
            want = lp_norm(lp_norm(weighted, p, axis=0), q)
            got = symbol_modulation_norm(a, MixedNormParams(p, q), omega)
            assert got == pytest.approx(want, rel=1e-12), (name, p, q)


@pytest.mark.parametrize("n, d", [(9, 1), (5, 2)])
def test_symbol_modulation_norms_share_one_stream(rng, n, d):
    # each norm read from the shared stream is the one-norm call, exactly
    g = GridSpec(d, n)
    a = Symbol.random(g, rng)
    lo, hi = MixedNormParams(1, 1), MixedNormParams(math.inf, math.inf)
    for omega in (None, make_weight("polynomial", axes=SYMBOL_AXES, s=1.0)):
        assert _modulation_norms(a, (lo, hi), omega) == [
            symbol_modulation_norm(a, lo, omega), symbol_modulation_norm(a, hi, omega)]


def test_symbol_modulation_norm_size_limit(rng):
    g = GridSpec(2, 9)
    with pytest.raises(SizeLimit):
        symbol_modulation_norm(Symbol.random(g, rng), MixedNormParams(2, 2))


# ---------------------------------------------------------------------------
# exponents


def test_exponent_parsing():
    assert as_exponent("3/2") == Fraction(3, 2)
    assert as_exponent("inf") is INF
    assert as_exponent(2) == 2
    assert as_exponent(1.5) == Fraction(3, 2)
    with pytest.raises(InvalidExponent):
        conjugate_exponent(0.5)


# none is an exponent: "abc", NaN and "1/0" escaped as a raw ValueError or
# ZeroDivisionError, and True and -inf were taken as 1 and inf
@pytest.mark.parametrize("x", ["abc", float("nan"), "1/0", True, -math.inf, None, 2 + 0j])
def test_as_exponent_rejects(x):
    with pytest.raises(InvalidExponent):
        as_exponent(x)


@pytest.mark.parametrize("x", ["2", None, 2 + 0j, True, float("nan"), 0, -math.inf])
def test_mixed_norm_params_reject(x):
    # "2", None and 2+0j escaped as a raw TypeError, and True was taken as 1
    with pytest.raises(InvalidExponent):
        MixedNormParams(x, 2)
    with pytest.raises(InvalidExponent):
        MixedNormParams(2, x)


def test_numpy_scalars_are_exponents():
    # numpy integers were rejected while numpy floats were taken
    assert as_exponent(np.int64(2)) == 2
    assert as_exponent(np.uint8(3)) == 3
    assert as_exponent(np.float64(1.5)) == Fraction(3, 2)
    assert as_exponent(np.float32(0.5)) == Fraction(1, 2)
    assert as_exponent(np.float64(math.inf)) is INF
    assert MixedNormParams(np.int64(2), np.float64(math.inf)).p == 2


_T = np.diag([3.0, 2.0, 1.0]).astype(complex)
_F = Signal.random(GridSpec(1, 5), np.random.default_rng(0))

# every entry point that takes a float exponent, and the name its refusal starts with
FLOAT_EXPONENT_ENTRIES = {
    "MixedNormParams p": (lambda x: MixedNormParams(x, 2).p, "p"),
    "MixedNormParams q": (lambda x: MixedNormParams(2, x).q, "q"),
    "modulation_norm": (lambda x: modulation_norm(_F, MixedNormParams(x, 2)), "p"),
    "schatten_norm": (lambda x: schatten_norm(_T, x), "p"),
    "duality_check": (lambda x: duality_check(_T, x), "p"),
    "hoelder_check p1": (lambda x: hoelder_check(_T, _T, x, 2), "p1"),
    "hoelder_check p2": (lambda x: hoelder_check(_T, _T, 2, x), "p2"),
}


_NOT_EXPONENTS = {"10**400": 10**400, "True": True, "'2'": "2", "nan": math.nan, "-inf": -math.inf, "0": 0}


@pytest.mark.parametrize("entry, x", [pytest.param(entry, x, id=f"{entry}-{label}")
                                      for entry in FLOAT_EXPONENT_ENTRIES
                                      for label, x in _NOT_EXPONENTS.items()]
                         + [pytest.param("duality_check", 0.5, id="duality_check-0.5")])
def test_float_exponents_share_one_rule(entry, x):
    # 10**400 escaped as a raw OverflowError everywhere but in the CLI
    call, name = FLOAT_EXPONENT_ENTRIES[entry]
    with pytest.raises(InvalidExponent, match=rf"^{name} "):
        call(x)


@pytest.mark.parametrize("entry", FLOAT_EXPONENT_ENTRIES)
def test_float_exponents_take_the_float64_value(entry):
    # MixedNormParams kept np.float32(1.5), so the norm took 1/p in float32
    call, _ = FLOAT_EXPONENT_ENTRIES[entry]
    want = call(1.5)
    for x in (np.float32(1.5), Fraction(3, 2)):
        got = call(x)
        assert got == want and type(got) is type(want)


def test_numpy_integer_exponents_do_not_wrap():
    # Fraction(np.uint8(4)) keeps uint8 parts, and the exact arithmetic then
    # wrapped: 3/4 - 1 came out as 255/4
    assert hy_functional([np.uint8(4)] * 3) == Fraction(-1, 4)
    assert type(as_exponent(np.int64(2)).numerator) is int


def test_conjugate_exponent():
    assert conjugate_exponent(1) is INF
    assert conjugate_exponent(INF) == 1
    assert conjugate_exponent(2) == 2
    assert conjugate_exponent(Fraction(3, 2)) == 3


def test_hy_functional_values():
    assert hy_functional((1, 1, 1)) == 2
    assert hy_functional((2, 2, 2)) == Fraction(1, 2)
    assert hy_functional((INF, INF, INF)) == -1
    assert hy_functional((2, 2, 2, 2)) == Fraction(1, 2)
    with pytest.raises(TooFewEntries):
        hy_functional((2, 2))


@given(st.permutations([1, 2, 3, INF]))
def test_hy_functional_permutation_invariant(perm):
    assert hy_functional(perm) == hy_functional([1, 2, 3, INF])


def test_op_bound_exponents():
    assert holds_op_bound_exponents(ExponentTuple(p=(2, 2, 2), q=(2, 2, 2)))
    # 1/p1 - 1/p2 = 1/2, 1 - 1/p - 1/q = 0: fails the equality
    assert not holds_op_bound_exponents(ExponentTuple(p=(2, 1, 2), q=(2, 2, 2)))
    with pytest.raises(ArityMismatch):
        holds_op_bound_exponents(ExponentTuple(p=(2, 2), q=(2, 2)))


def test_schatten_embedding_exponents():
    assert holds_schatten_embedding_exponents(ExponentTuple(p=(2, 1, INF), q=(2, 1, INF)))
    assert not holds_schatten_embedding_exponents(ExponentTuple(p=(2, 1, INF), q=(2, 3, INF)))


def test_wigner_product_exponents():
    assert holds_wigner_product_exponents(ExponentTuple(p=(2, 2, 2), q=(2, 2, 2)))
    assert holds_wigner_product_exponents(ExponentTuple(p=(1, 2, 2), q=(INF, 2, 2)))
    assert not holds_wigner_product_exponents(ExponentTuple(p=(2, 1, 1), q=(2, 2, 2)))


def test_composition_exponents():
    alltwo = ExponentTuple(p=(2, 2, 2), q=(2, 2, 2))
    assert holds_composition_exponents(alltwo)
    assert holds_composition_exponents_l2(alltwo)
    # an inf in a q slot forces 1/q' = 1 > 1/p
    bad = ExponentTuple(p=(2, 2, 2), q=(2, INF, 2))
    assert not holds_composition_exponents_l2(bad)
    ones = ExponentTuple(p=(1, 1, 1), q=(1, 1, 1))
    assert hy_functional(ones.p) == 2
    with pytest.raises(ArityMismatch):
        holds_composition_exponents(ExponentTuple(p=(2, 2), q=(2, 2)))


# ---------------------------------------------------------------------------
# weight condition estimates


def test_weight_bounds_trivial(grid9):
    one2 = trivial_weight()
    one4s = trivial_weight(SYMBOL_AXES)
    one4k = trivial_weight(KERNEL_AXES)
    for ok, c in (
        holds_kernel_weight_bound(one4k, one2, one2, grid9),
        holds_kernel_symbol_weight_equiv(one4k, one4s, 0.37, grid9),
        holds_wigner_weight_bound(one4s, one2, one2, 0.37, grid9),
        holds_op_weight_bound(one4s, one2, one2, 0.37, grid9),
        holds_composition_weight_bound((one4s, one4s, one4s), 0.37, grid9),
    ):
        assert ok and c == pytest.approx(1.0)


def test_every_check_memory():
    # every check at n=9, d=1 evaluates its samples, tuples and STFT columns
    # in blocks of grid._BLOCK_ENTRIES entries: no check's traced peak comes
    # near the 12-23 MiB that drawing a whole sample set at once takes (the
    # composition bound alone runs over 81^3 = 531441 triples)
    ctx = verify.Context(9, 1, 7)
    peaks = {}
    tracemalloc.start()
    try:
        for check in verify.CHECKS:
            tracemalloc.reset_peak()
            entry = verify._run_check(check, ctx)
            peaks[check.name] = tracemalloc.get_traced_memory()[1]
            if check.name == "weight_bounds_trivial":
                assert entry["measure"] == 0.0
    finally:
        tracemalloc.stop()
    worst = max(peaks, key=peaks.get)
    assert peaks[worst] <= 4 * 2**20, (worst, peaks[worst] / 2**20)


def test_exhaustive_chunks_match_one_batch(monkeypatch):
    # at n=9 the 81^3 triples run exhaustively in blocks, at n=33 the
    # 1089^2 > PAIR_LIMIT pairs and the triples are sampled and then run in
    # blocks; either way the max over the blocks is the max over one batch
    # of all tuples, bit for bit
    weights = (make_weight("polynomial", axes=SYMBOL_AXES, s=2.0),
               make_weight("polynomial", axes=SYMBOL_AXES, s=-1.0),
               make_weight("exponential", axes=SYMBOL_AXES, c=0.2, s=1.0))
    w1 = make_weight("polynomial", s=1.0)

    def bounds(grid):
        return (holds_composition_weight_bound(weights, 0.37, grid),
                holds_wigner_weight_bound(weights[0], w1, w1, 0.37, grid))

    for n in (9, 33):
        grid = GridSpec(1, n)
        assert len(list(ms._tuple_chunks(grid, ms.TF_AXES, 3))) > 1
        blocked = bounds(grid)
        with monkeypatch.context() as m:
            m.setattr(psdo.grid, "_BLOCK_ENTRIES", 10**9)
            assert len(list(ms._tuple_chunks(grid, ms.TF_AXES, 3))) == 1
            assert bounds(grid) == blocked


def test_weight_estimators_add_logs(grid9):
    # each weight is in the float range on its points, and the estimators
    # add their logs: the product and quotient of the values overflowed
    # with RuntimeWarnings.  Past the largest float the constant is inf.
    big = make_weight("exponential", axes=KERNEL_AXES, c=100.0, s=1.0)
    assert holds_kernel_weight_bound(big, make_weight("exponential", c=140.0, s=1.0), trivial_weight(),
                                     grid9) == (True, 1.0)
    decaying = make_weight("exponential", c=-60.0, s=1.0)
    w0 = make_weight("exponential", axes=SYMBOL_AXES, c=60.0, s=1.0)
    assert holds_wigner_weight_bound(w0, decaying, decaying, 0.5, grid9) == (False, math.inf)


def test_wigner_weight_bound_polynomial(grid9):
    w0 = make_weight("polynomial", axes=SYMBOL_AXES, s=2.0)
    w1 = make_weight("polynomial", s=1.0)
    ok, c = holds_wigner_weight_bound(w0, w1, w1, 0.0, grid9)
    assert ok and math.isfinite(c)


def test_kernel_weight_bound_violation_grows():
    # omega2 = polynomial(1), omega1 = omega = 1: the quotient is unbounded,
    # so the worst constant must grow with the grid
    one2 = trivial_weight()
    one4k = trivial_weight(KERNEL_AXES)
    p1 = make_weight("polynomial", s=1.0)
    cs = []
    for n in (9, 17, 33):
        _, c = holds_kernel_weight_bound(one4k, one2, p1, GridSpec(1, n))
        cs.append(c)
    assert cs[0] < cs[1] < cs[2]


def test_weight_bound_axis_validation(grid9):
    one2 = trivial_weight()
    with pytest.raises(DomainMismatch):
        holds_kernel_weight_bound(trivial_weight(SYMBOL_AXES), one2, one2, grid9)
    with pytest.raises(ArityMismatch):
        holds_composition_weight_bound((trivial_weight(SYMBOL_AXES),), 0.0, grid9)


def test_composition_weight_bound_poly(grid9):
    # decaying omega_j make the product small somewhere: constant > 1
    wdec = make_weight("polynomial", axes=SYMBOL_AXES, s=-1.0)
    winc = make_weight("polynomial", axes=SYMBOL_AXES, s=2.0)
    ok, c = holds_composition_weight_bound((winc, wdec, wdec), 0.5, grid9)
    assert ok and math.isfinite(c) and c > 1.0


@pytest.mark.parametrize("n, d, A", [(5, 1, 0.37), (3, 2, [[0.3, -0.7], [0.25, 0.5]])])
def test_weight_estimators_match_naive(n, d, A):
    # non-trivial weights under a non-symmetric A on exhaustive grids,
    # against per-pair evaluation of each estimator's defining inequality
    grid = GridSpec(d, n)
    poly2 = make_weight("polynomial", s=1.5)
    expo2 = make_weight("exponential", c=0.3, s=2.0)
    sym_poly = make_weight("polynomial", axes=SYMBOL_AXES, s=-1.0)
    sym_prod = make_weight("product", factors=(
        make_weight("exponential", axes=("pos", "freq"), c=-0.2, s=1.5),
        make_weight("polynomial", axes=("freq", "pos"), s=2.0)))
    ker = make_weight("product", factors=(
        make_weight("polynomial", axes=("pos", "pos"), s=1.0),
        make_weight("exponential", axes=("freq", "freq"), c=0.25, s=1.0)))
    comp = (sym_prod, sym_poly, make_weight("polynomial", axes=SYMBOL_AXES, s=0.5))[: 3 if d == 1 else 2]
    cases = [
        (moderate_check(expo2, poly2, grid), ref.naive_moderate(expo2, poly2, n, d)),
        (holds_kernel_weight_bound(ker, poly2, expo2, grid),
         ref.naive_kernel_bound(ker, poly2, expo2, n, d)),
        (holds_kernel_symbol_weight_equiv(ker, sym_prod, A, grid),
         ref.naive_kernel_symbol_equiv(ker, sym_prod, A, n, d)),
        (holds_wigner_weight_bound(sym_prod, poly2, expo2, A, grid),
         ref.naive_wigner_bound(sym_prod, poly2, expo2, A, n, d)),
        (holds_op_weight_bound(sym_poly, expo2, poly2, A, grid),
         ref.naive_op_bound(sym_poly, expo2, poly2, A, n, d)),
        (holds_composition_weight_bound(comp, A, grid), ref.naive_composition_bound(comp, A, n, d)),
    ]
    for (ok, c), want in cases:
        assert ok and c == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("weight", [make_weight("polynomial", axes=SYMBOL_AXES, s=1.0),
                                    make_weight("exponential", axes=SYMBOL_AXES, c=0.5, s=2.0)])
def test_moderate_check_builds_only_sampled_points(weight):
    # the 225^8 symbol-layout pairs at n=15, d=2 are sampled, and each chunk
    # builds only its own points: building the 225^4-point domain first
    # raised MemoryError (153 GiB); about 2-3 MiB are traced, most of it the
    # two 0.8 MB index arrays of the samples
    grid = GridSpec(2, 15)
    tracemalloc.start()
    try:
        ok, c = moderate_check(weight, weight, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and math.isfinite(c)
    assert peak <= 8 * 2**20, peak / 2**20


def _dense_domain(grid, axes):
    """Every point of the stacked domain of `axes`, row-major, built by
    broadcasting the scaled centered representatives of each axis."""
    scales = [1.0 if kind == "pos" else 2.0 * np.pi / grid.n for kind in axes for _ in range(grid.d)]
    axis_values = [scale * rep_axis(grid.n).astype(float) for scale in scales]
    return np.stack(np.meshgrid(*axis_values, indexing="ij"), axis=-1).reshape(-1, len(scales))


def test_tuple_chunks_are_rows_of_the_dense_domain():
    # every chunk's points are, bit for bit, the rows of the whole domain at
    # the tuples' flat indices: at n=9, d=1 the 6561^2 symbol-layout pairs
    # are sampled with seed 0, the 81^2 time-frequency pairs run exhaustively
    grid = GridSpec(1, 9)
    domain = _dense_domain(grid, SYMBOL_AXES)
    rng = np.random.default_rng(0)
    picks = [rng.integers(0, len(domain), size=ms.PAIR_SAMPLES) for _ in range(2)]
    start = 0
    for X, Y in ms._tuple_chunks(grid, SYMBOL_AXES, 2):
        rows = slice(start, start + len(X))
        np.testing.assert_array_equal(X, domain[picks[0][rows]])
        np.testing.assert_array_equal(Y, domain[picks[1][rows]])
        start = rows.stop
    assert start == ms.PAIR_SAMPLES

    domain = _dense_domain(grid, ms.TF_AXES)
    X, Y = (np.concatenate(points) for points in zip(*ms._tuple_chunks(grid, ms.TF_AXES, 2)))
    np.testing.assert_array_equal(X, np.repeat(domain, len(domain), axis=0))
    np.testing.assert_array_equal(Y, np.tile(domain, (len(domain), 1)))
