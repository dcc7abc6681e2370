import importlib
import tracemalloc

import numpy as np
import pytest

import psdo.grid
from psdo import (
    GridSpec,
    Signal,
    Symbol,
    dft,
    quantize,
    rank_one_symbol,
    stft,
    wigner,
)
from psdo.wigner import phase_space_stft, FOURD_LIMIT, TimeFrequencyArray, _stft_columns
from psdo.modspace import SYMBOL_AXES, MixedNormParams, make_weight, modulation_norm, symbol_modulation_norm
from psdo.errors import DimMismatch, ModeMismatch, SizeLimit, ZeroWindow
from psdo.verify import weyl_wigner_stft_relation_check, stft_of_wigner_check, expop_stft_check

from reference import naive_stft, naive_wigner_mod, naive_phase_space_stft


def test_stft_delta_pair():
    g = GridSpec(1, 9)
    d0 = Signal.delta(g)
    V = stft(d0, d0).data
    want = np.zeros((9, 9), dtype=complex)
    want[0, :] = 1 / 3
    np.testing.assert_allclose(V, want, atol=1e-15)


def test_stft_matches_naive(rng):
    for d, n in ((1, 7), (2, 3)):
        g = GridSpec(d, n)
        f, phi = Signal.random(g, rng), Signal.random(g, rng)
        np.testing.assert_allclose(stft(f, phi).data, naive_stft(f.data, phi.data, d),
                                   atol=1e-12)


def test_stft_moyal(rng, grid9):
    f, phi = Signal.random(grid9, rng), Signal.random(grid9, rng)
    V = stft(f, phi)
    assert abs(V.norm() - f.norm() * phi.norm()) <= 1e-12 * f.norm() * phi.norm()


def test_stft_shift_covariance(rng, grid9):
    f, phi = Signal.random(grid9, rng), Signal.random(grid9, rng)
    V0 = np.abs(stft(f, phi).data)
    V2 = np.abs(stft(Signal(grid9, np.roll(f.data, 2)), phi).data)
    np.testing.assert_allclose(V2, np.roll(V0, 2, axis=0), atol=1e-12)


def test_stft_zero_window(grid9, rng):
    with pytest.raises(ZeroWindow):
        stft(Signal.random(grid9, rng), Signal(grid9, np.zeros(9)))


def test_window_on_another_grid_is_refused(grid9, rng):
    # a window on n=5 against data on n=9 died in reshape with numpy's raw
    # ValueError
    f, a = Signal.random(grid9, rng), Symbol.random(grid9, rng)
    small = GridSpec(1, 5)
    phi, Phi = Signal.random(small, rng), Symbol.random(small, rng)
    for call in (lambda: stft(f, phi), lambda: modulation_norm(f, MixedNormParams(2, 2), phi=phi),
                 lambda: symbol_modulation_norm(a, MixedNormParams(2, 2), Phi=Phi)):
        with pytest.raises(DimMismatch, match="window"):
            call()
    # a partner on (2, 3) against data on (1, 9), 9 points each, was taken
    # by every call below: the window test compared shapes only, and a
    # second signal was not tested at all
    data, other = GridSpec(1, 9, "mod"), GridSpec(2, 3, "mod")
    f, g, a = Signal.random(data, rng), Signal.random(data, rng), Symbol.random(data, rng)
    phi, psi, Phi = Signal.random(other, rng), Signal.random(other, rng), Symbol.random(other, rng)
    two = MixedNormParams(2, 2)
    for name, call in (("stft", lambda: stft(f, phi)),
                       ("modulation_norm", lambda: modulation_norm(f, two, phi=phi)),
                       ("symbol_modulation_norm", lambda: symbol_modulation_norm(a, two, Phi=Phi)),
                       ("stft_of_wigner_check", lambda: stft_of_wigner_check(f, g, phi, psi, 1)),
                       ("expop_stft_check", lambda: expop_stft_check(a, Phi, 1)),
                       ("wigner", lambda: wigner(f, phi, 1)),
                       ("rank_one_symbol", lambda: rank_one_symbol(f, phi, 1))):
        with pytest.raises(DimMismatch, match="grids differ"):
            call()
            pytest.fail(f"{name} returned a value")


def test_partner_rule_compares_grid_and_rank_not_mode(rng):
    # a window in mode "mod" serves data in mode "real", and a zero second
    # signal is a zero Wigner distribution, not a zero window; a window of
    # another rank is refused, so each norm keeps refusing the other's
    # array through its default window
    g, gm = GridSpec(1, 9), GridSpec(1, 9, "mod")
    f, phi, a = Signal.random(g, rng), Signal.random(g, rng), Symbol.random(g, rng)
    np.testing.assert_array_equal(stft(f, Signal(gm, phi.data)).data, stft(f, phi).data)
    assert not np.any(wigner(f, Signal(g, np.zeros(9)), 0.5).data)
    for call in (lambda: stft(f, a), lambda: modulation_norm(a, MixedNormParams(2, 2)),
                 lambda: symbol_modulation_norm(f, MixedNormParams(2, 2))):
        with pytest.raises(DimMismatch, match="rank"):
            call()


def test_phase_space_stft_is_the_assembled_stream(rng):
    # phase_space_stft is stft on the doubled grid, and stft writes the
    # stream's columns, so a symbol's stream assembles to it bit for bit
    for d, n in ((1, 5), (2, 3)):
        g = GridSpec(d, n)
        N = g.size
        F, Phi = Symbol.random(g, rng), Symbol.random(g, rng)
        V4 = np.empty((N * N, N * N), dtype=complex)
        for k, V in _stft_columns(F, Phi):
            V4[:, k] = V.reshape(len(k), N * N).T
        np.testing.assert_array_equal(phase_space_stft(F.data, Phi.data, g).reshape(N * N, N * N), V4)


def test_wigner_matches_naive_mod(rng):
    g = GridSpec(1, 7, "mod")
    f1, f2 = Signal.random(g, rng), Signal.random(g, rng)
    for A in (0, 1, 2):
        got = wigner(f1, f2, A).data
        np.testing.assert_allclose(got, naive_wigner_mod(f1.data, f2.data, A), atol=1e-12)


def test_wigner_kn_closed_form(rng, grid9m):
    f1, f2 = Signal.random(grid9m, rng), Signal.random(grid9m, rng)
    W = wigner(f1, f2, 0).data
    j = np.arange(9)
    closed = f1.data[:, None] * np.exp(-2j * np.pi * np.outer(j, j) / 9) * np.conj(dft(f2).data)[None, :]
    np.testing.assert_allclose(W, closed, atol=1e-12)


def test_wigner_delta_case(grid9m):
    d0 = Signal.delta(grid9m)
    W = wigner(d0, d0, 0).data
    want = np.zeros((9, 9), dtype=complex)
    want[0, :] = 1 / 3
    np.testing.assert_allclose(W, want, atol=1e-15)


def test_wigner_sesquilinear(rng, grid9):
    f1, f2 = Signal.random(grid9, rng), Signal.random(grid9, rng)
    a, b = 1.5 - 0.5j, -2.0 + 1j
    lhs = wigner(Signal(grid9, a * f1.data), Signal(grid9, b * f2.data), 0.37).data
    rhs = a * np.conj(b) * wigner(f1, f2, 0.37).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_wigner_real_equals_mod_for_integer(rng):
    gm = GridSpec(1, 9, "mod")
    gr = GridSpec(1, 9)
    f1, f2 = Signal.random(gm, rng), Signal.random(gm, rng)
    for t in (0, 1, -1):
        Wm = wigner(f1, f2, t).data
        Wr = wigner(Signal(gr, f1.data), Signal(gr, f2.data), t).data
        assert np.abs(Wm - Wr).max() <= 1e-12 * f1.norm() * f2.norm()


def test_wigner_mode_mismatch(rng, grid9m):
    with pytest.raises(ModeMismatch):
        wigner(Signal.random(grid9m, rng), Signal.random(grid9m, rng), 0.5)


def test_wigner_moyal_mod(rng):
    for d, ts in ((1, (0, 1, 3)), (2, (0, 1))):
        g = GridSpec(d, 5, "mod")
        f1, f2 = Signal.random(g, rng), Signal.random(g, rng)
        for t in ts:
            W = wigner(f1, f2, t)
            assert abs(W.norm() - f1.norm() * f2.norm()) <= 1e-11 * f1.norm() * f2.norm()


def test_pseudo_link_identity(rng):
    # (Op_A(a) f, g) == n^{-d/2} (a, W^A_{g,f}) in both modes
    for mode, A in (("mod", 1), ("real", 0.37)):
        g = GridSpec(1, 9, mode)
        a = Symbol.random(g, rng)
        f, gg = Signal.random(g, rng), Signal.random(g, rng)
        lhs = np.vdot(gg.data, quantize(a, A).data @ f.data)
        rhs = np.vdot(wigner(gg, f, A).data, a.data) / 3.0
        assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


def test_weyl_wigner_stft_relation_small_and_nine(rng):
    # phase convention pinned at n=3 by the exhaustive oracle, then n=9
    for n in (3, 9):
        g = GridSpec(1, n, "mod")
        f, phi = Signal.random(g, rng), Signal.random(g, rng)
        h = (n + 1) // 2
        W = naive_wigner_mod(f.data, phi.data, h)
        phicheck = phi.data[(-np.arange(n)) % n]
        V = naive_stft(f.data, phicheck)
        j = np.arange(n)
        rhs = np.exp(4j * np.pi * np.outer(j, j) / n) * V[np.ix_((2 * j) % n, (2 * j) % n)]
        assert np.abs(W - rhs).max() <= 1e-12
        assert weyl_wigner_stft_relation_check(f, phi) <= 1e-10


def test_weyl_wigner_stft_requires_mod(rng, grid9):
    with pytest.raises(ModeMismatch):
        weyl_wigner_stft_relation_check(Signal.random(grid9, rng), Signal.random(grid9, rng))


def test_weyl_wigner_stft_delta_support():
    g = GridSpec(1, 9, "mod")
    d0 = Signal.delta(g)
    h = 5
    W = wigner(d0, d0, h).data
    assert np.abs(W[1:, :]).max() <= 1e-15  # both sides live on the j=0 column
    assert weyl_wigner_stft_relation_check(d0, d0) <= 1e-12


def test_phase_space_stft_matches_naive(rng):
    g = GridSpec(1, 3, "mod")
    F = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Phi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(phase_space_stft(F, Phi, g), naive_phase_space_stft(F, Phi),
                               atol=1e-13)


def test_phase_space_stft_memory(rng):
    # the FFT runs in place, so transient memory stays close to the returned
    # array; a second array of its size (an FFT pass into a fresh array)
    # would need about twice its size, an (N^2, N^2) index gather four times
    for d, n in ((1, 21), (2, 5)):
        g = GridSpec(d, n)
        N = g.size
        F = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        Phi = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        tracemalloc.start()
        try:
            V = phase_space_stft(F, Phi, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * V.nbytes, (d, n, peak / V.nbytes)


def test_stft_columns_match_dense(rng):
    # the streamed blocks (73 of them at n=33) are the dense phase-space
    # STFT's frequency columns, for all columns in order or any listed ones;
    # the listed column N^2 - 1 shifts by n - 1 on every axis, so each wraps
    for d, n in ((1, 33), (2, 3), (2, 5)):
        g = GridSpec(d, n)
        N = g.size
        F = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        Phi = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        V4 = phase_space_stft(F, Phi, g).reshape(N * N, N * N)
        for columns in (None, [N * N - 1, 0, 5, N * N // 2]):
            seen = []
            for k, V in _stft_columns(Symbol(g, F), Symbol(g, Phi), columns):
                np.testing.assert_allclose(V.reshape(len(k), N * N).T, V4[:, k], atol=1e-13)
                seen += list(k)
            assert seen == (list(range(N * N)) if columns is None else columns)


def test_stft_of_wigner_exhaustive_n3(rng):
    g = GridSpec(1, 3, "mod")
    sigs = [Signal.random(g, rng) for _ in range(4)]
    for t in (0, 1):
        assert stft_of_wigner_check(*sigs, t) <= 1e-13


def test_stft_of_wigner_n9(rng, grid9m):
    sigs = [Signal.random(grid9m, rng) for _ in range(4)]
    for t in (0, 1):
        assert stft_of_wigner_check(*sigs, t) <= 1e-10


def test_stft_of_wigner_scaling(rng, grid9m):
    f, g_, phi, psi = (Signal.random(grid9m, rng) for _ in range(4))
    beta = 0.5 - 2j
    Phi = wigner(phi, psi, 1).data
    L1 = phase_space_stft(wigner(f, Signal(grid9m, beta * g_.data), 1).data, Phi, grid9m)
    L0 = phase_space_stft(wigner(f, g_, 1).data, Phi, grid9m)
    np.testing.assert_allclose(L1, np.conj(beta) * L0, atol=1e-12)


def test_stft_of_wigner_sampled_path_d2(rng):
    # 81^4 entries exceed the dense cap, so the check samples frequency columns
    g = GridSpec(2, 9, "mod")
    assert g.size**4 > FOURD_LIMIT
    sigs = [Signal.random(g, rng) for _ in range(4)]
    A = np.array([[1, 1], [0, 1]])
    assert stft_of_wigner_check(*sigs, A) <= 1e-10


def test_expop_identities(rng, grid9m):
    a, phi = Symbol.random(grid9m, rng), Symbol.random(grid9m, rng)
    assert expop_stft_check(a, phi, 0) == 0.0
    assert expop_stft_check(a, phi, 1) <= 1e-10
    assert expop_stft_check(a, phi, -1) <= 1e-10


def test_expop_requires_mod(rng, grid9):
    a, phi = Symbol.random(grid9, rng), Symbol.random(grid9, rng)
    with pytest.raises(ModeMismatch):
        expop_stft_check(a, phi, 0.5)


def test_expop_size_limit(rng):
    # 81^4 entries exceed the dense cap: the check reads a column sample
    g = GridSpec(2, 9, "mod")
    a, phi = Symbol.random(g, rng), Symbol.random(g, rng)
    assert expop_stft_check(a, phi, 0) == 0.0
    assert expop_stft_check(a, phi, [[1, 1], [0, 1]]) <= 1e-10


def test_4d_checks_refuse_a_budget_below_one_column(rng, grid9m, monkeypatch):
    # one column has N^2 = 81 entries: a budget of 80 admits no column, and
    # a check over no column must not report 0.0; a budget of 81 reads one
    wigner_mod = importlib.import_module("psdo.wigner")  # psdo.wigner is also the function
    f, g_, phi, psi = (Signal.random(grid9m, rng) for _ in range(4))
    a, Phi = Symbol.random(grid9m, rng), Symbol.random(grid9m, rng)
    monkeypatch.setattr(wigner_mod, "FOURD_LIMIT", 80)
    with pytest.raises(SizeLimit, match="one STFT column has 81 entries"):
        stft_of_wigner_check(f, g_, phi, psi, 1)
    with pytest.raises(SizeLimit, match="one STFT column has 81 entries"):
        expop_stft_check(a, Phi, 1)
    monkeypatch.setattr(wigner_mod, "FOURD_LIMIT", 81)
    assert 0.0 < stft_of_wigner_check(f, g_, phi, psi, 1) <= 1e-10
    assert 0.0 < expop_stft_check(a, Phi, 1) <= 1e-10


def test_expop_zero_window(rng, grid9m):
    a, zero = Symbol.random(grid9m, rng), Symbol(grid9m, np.zeros((9, 9)))
    for A in (0, 1):
        with pytest.raises(ZeroWindow):
            expop_stft_check(a, zero, A)


def test_4d_checks_report_nan(rng):
    # a running max(worst, block max) dropped NaN blocks, so one NaN entry
    # in an input gave 0.0, a pass
    g = GridSpec(1, 5, "mod")
    data = Symbol.random(g, rng).data.copy()
    data[1, 2] = np.nan
    a, phi = Symbol(g, data), Symbol.random(g, rng)
    f_data = Signal.random(g, rng).data.copy()
    f_data[3] = np.nan
    sigs = [Signal(g, f_data)] + [Signal.random(g, rng) for _ in range(3)]
    for A in (0, 1):
        assert np.isnan(expop_stft_check(a, phi, A))
        assert np.isnan(stft_of_wigner_check(*sigs, A))


# non-symmetric shears and a swap: A != A*, so a transposed A fails
NON_SYMMETRIC_A = ([[1, 2], [0, 1]], [[2, -1], [1, 0]], [[1, 0], [3, 1]])


@pytest.mark.parametrize("n", [5, 9])  # all 25^2 columns at n=5, a column sample at n=9
@pytest.mark.parametrize("A", NON_SYMMETRIC_A)
def test_4d_checks_non_symmetric_A_d2(rng, n, A):
    g = GridSpec(2, n, "mod")
    a, phi = Symbol.random(g, rng), Symbol.random(g, rng)
    assert expop_stft_check(a, phi, A) <= 1e-10
    assert stft_of_wigner_check(*(Signal.random(g, rng) for _ in range(4)), A) <= 1e-10


def test_4d_checks_memory(rng):
    # both checks and the symbol norm, also weighted (the weight is evaluated
    # per block), stream blocks of frequency columns, so none holds an
    # (N,)*4 array; the dense path needed 2.5x to 4.5x one
    g = GridSpec(1, 33, "mod")
    N = g.size
    a, phi = Symbol.random(g, rng), Symbol.random(g, rng)
    sigs = [Signal.random(g, rng) for _ in range(4)]
    omega = make_weight("polynomial", axes=SYMBOL_AXES, s=1.0)
    dense = 16 * N**4
    for name, run in (("expop_stft_check", lambda: expop_stft_check(a, phi, 1)),
                      ("stft_of_wigner_check", lambda: stft_of_wigner_check(*sigs, 1)),
                      ("symbol_modulation_norm", lambda: symbol_modulation_norm(a, MixedNormParams(2, 2))),
                      ("weighted symbol_modulation_norm",
                       lambda: symbol_modulation_norm(a, MixedNormParams(2, 2), omega))):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * dense, (name, peak / dense)


def test_stft_columns_memory_d2(rng):
    # a stream holds its symbol's spectrum tiled 2^d times and the window
    # spectrum, one spectrum being 16 N^2 bytes: the two streams of the
    # check stay near 15 spectra, where a 2^{2d}-fold tile would need 42
    g = GridSpec(2, 15, "mod")
    a, phi = Symbol.random(g, rng), Symbol.random(g, rng)
    tracemalloc.start()
    try:
        expop_stft_check(a, phi, [[1, 2], [0, 1]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 16 * g.size**2, peak / (16 * g.size**2)


def _streamed_checks_n33(rng):
    """(name, call) of the column-stream consumers at d=1, n=33, mode mod."""
    g = GridSpec(1, 33, "mod")
    a, phi = Symbol.random(g, rng), Symbol.random(g, rng)
    sigs = [Signal.random(g, rng) for _ in range(4)]
    return (("expop_stft_check A=1", lambda: expop_stft_check(a, phi, 1)),
            ("expop_stft_check A=0", lambda: expop_stft_check(a, phi, 0)),
            ("stft_of_wigner_check", lambda: stft_of_wigner_check(*sigs, 1)),
            ("symbol_modulation_norm", lambda: symbol_modulation_norm(a, MixedNormParams(2, 2))))


def _warm_peak(run):
    """Traced peak of run(), after one untraced call: first-call caches are
    not part of the working set."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_4d_checks_hold_one_block_per_stream(rng, monkeypatch):
    # each consumer of the column stream drops a block's arrays before the
    # next block is computed: in blocks of 16 B N^2 bytes the peaks are about
    # 2.3, 2.3, 3.2 and 1.6, where holding block i while block i+1 is
    # computed took 5.3, 5.3, 4.2 and 2.7.  Measured at 2^16-entry blocks,
    # where the fixed per-stream arrays (spectra, Vf and Vg, shear tables)
    # weigh well under one block; the production size is pinned by
    # test_4d_checks_peak_at_production_block
    block_entries = 2**16
    monkeypatch.setattr(psdo.grid, "_BLOCK_ENTRIES", block_entries)
    N = 33
    block = 16 * (block_entries // N**2) * N**2
    for (name, run), bound in zip(_streamed_checks_n33(rng), (2.6, 2.5, 3.6, 1.75)):
        peak = _warm_peak(run)
        assert peak <= bound * block, (name, peak / block)


def test_4d_checks_peak_at_production_block(rng):
    # at the production block size the absolute peaks are about 0.82, 0.82,
    # 0.98 and 0.47 MiB; 2^16-entry blocks took 2.33, 2.33, 3.24 and 1.58
    for (name, run), bound in zip(_streamed_checks_n33(rng), (1.0, 1.0, 1.15, 0.6)):
        peak = _warm_peak(run)
        assert peak <= bound * 2**20, (name, peak / 2**20)


def test_time_frequency_arrays_reject_wrong_shape(grid9):
    # a wrong shape is a DimMismatch, as for Signal, Symbol and OperatorMatrix
    with pytest.raises(DimMismatch):
        TimeFrequencyArray(grid9, np.zeros((9, 8)))


def test_rank_one_wigner_link(rng, grid9):
    # quantize(n^{d/2} W^A) recovers the rank-one operator
    f1, f2 = Signal.random(grid9, rng), Signal.random(grid9, rng)
    for A in (0.0, 1.0, 0.5):
        W = wigner(f1, f2, A).data
        K = quantize(Symbol(grid9, 3.0 * W), A).data
        np.testing.assert_allclose(K, np.outer(f1.data, np.conj(f2.data)), atol=1e-11)
