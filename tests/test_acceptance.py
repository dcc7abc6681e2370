"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Grid battery: d=1 with n in {9, 17, 33}, d=2 with n=9.  Criteria that pin
their own grids use those.  Each test prints one pass line; a failing
assertion is the fail line.
"""

import json
import math

import numpy as np
import pytest

from psdo import (
    GridSpec,
    Signal,
    Symbol,
    OperatorMatrix,
    quantize,
    kernel_route,
    symbol_transfer,
    wigner,
    gaussian_window,
    sharp,
    schatten_norm,
    symbol_schatten_norm,
    modulation_norm,
    symbol_modulation_norm,
    mixed_norm,
)
from psdo.quantizer import MatrixParam
from psdo.modspace import (
    ExponentTuple,
    MixedNormParams,
    holds_op_bound_exponents,
    holds_schatten_embedding_exponents,
    holds_wigner_product_exponents,
)
from psdo.schemes import SchemeSpec, quantize_scheme, born_jordan_quadrature, psi, psi0, sphere_average_exp
from psdo.wigner import TimeFrequencyArray
from psdo.verify import stft_of_wigner_check, expop_stft_check, sharp_transfer_check, duality_check, hoelder_check
from psdo.cli import main as cli_main

from reference import naive_stft, naive_wigner_mod, naive_phase_space_stft

GRIDS = [(9, 1), (17, 1), (33, 1), (9, 2)]


def _ok(num, name, detail=""):
    print(f"[acceptance] C{num:02d} {name}: PASS {detail}".rstrip())


def _unit_symbol(grid, rng):
    a = Symbol.random(grid, rng)
    return Symbol(grid, a.data / a.norm())


def _unit_signal(grid, rng):
    f = Signal.random(grid, rng)
    return Signal(grid, f.data / f.norm())


# 1 ------------------------------------------------------------------------


def test_c01_calculi_transfer():
    rng = np.random.default_rng(101)
    worst = 0.0
    for n, d in GRIDS:
        grid = GridSpec(d, n)
        for a1, a2 in ((0.0, 0.5), (1.0, 0.0), (0.37, -0.2)):
            A1, A2 = MatrixParam.scalar(a1, d), MatrixParam.scalar(a2, d)
            for _ in range(20):
                a = Symbol.random(grid, rng)
                lhs = quantize(a, A1).data
                rhs = quantize(symbol_transfer(a, A1 - A2), A2).data
                dev = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
                worst = max(worst, dev)
                assert dev <= 1e-11
    _ok(1, "calculi transfer", f"worst rel dev {worst:.2e}")


# 2 ------------------------------------------------------------------------


def test_c02_route_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for n, d in GRIDS:
        grid = GridSpec(d, n, "mod")
        for t in (0, 1, -1):
            a = _unit_symbol(grid, rng)
            multiplier = quantize(symbol_transfer(a, t), 0).data  # Op_0(T_A a)
            dev = float(np.abs(kernel_route(a, t).data - multiplier).max())
            worst = max(worst, dev)
            assert dev <= 1e-12
    _ok(2, "kernel route equals multiplier route", f"worst dev {worst:.2e}")


# 3 ------------------------------------------------------------------------


def test_c03_rank_one():
    rng = np.random.default_rng(103)
    worst = 0.0
    for n, d in GRIDS:
        for t, mode in ((0, "mod"), (1, "mod"), (0.5, "real")):
            grid = GridSpec(d, n, mode)
            scale = math.sqrt(grid.size)
            for _ in range(20):
                f1, f2 = _unit_signal(grid, rng), _unit_signal(grid, rng)
                W = wigner(f1, f2, MatrixParam.scalar(t, d)).data
                K = quantize(Symbol(grid, scale * W), MatrixParam.scalar(t, d)).data
                dev = float(np.abs(K - np.outer(f1.data, np.conj(f2.data))).max())
                worst = max(worst, dev)
                assert dev <= 1e-12
    _ok(3, "rank-one characterization", f"worst dev {worst:.2e}")


# 4 ------------------------------------------------------------------------


def test_c04_pseudo_link():
    rng = np.random.default_rng(104)
    worst = 0.0
    for n, d in GRIDS:
        for t, mode in ((1, "mod"), (0.37, "real")):
            grid = GridSpec(d, n, mode)
            A = MatrixParam.scalar(t, d)
            root = math.sqrt(grid.size)
            for _ in range(20):
                a = Symbol.random(grid, rng)
                f, g = Signal.random(grid, rng), Signal.random(grid, rng)
                lhs = np.vdot(g.data, quantize(a, A).data @ f.data)
                rhs = np.vdot(wigner(g, f, A).data, a.data) / root
                dev = abs(lhs - rhs) / abs(lhs)
                worst = max(worst, dev)
                assert dev <= 1e-11
    _ok(4, "Wigner / operator pairing link", f"worst rel dev {worst:.2e}")


# 5 ------------------------------------------------------------------------


def test_c05_stft_of_wigner_factorization():
    rng = np.random.default_rng(105)
    # fix the discrete phase convention by the exhaustive n=3 oracle first
    g3 = GridSpec(1, 3, "mod")
    f3, g3_, p3, q3 = (Signal.random(g3, rng) for _ in range(4))
    for t in (0, 1):
        B = t - 1
        W = naive_wigner_mod(f3.data, g3_.data, t)
        Phi = naive_wigner_mod(p3.data, q3.data, t)
        lhs = naive_phase_space_stft(W, Phi)
        Vf = naive_stft(f3.data, p3.data)
        Vg = naive_stft(g3_.data, q3.data)
        for x in range(3):
            for xi in range(3):
                for eta in range(3):
                    for y in range(3):
                        rhs = (np.exp(-2j * np.pi * y * xi / 3)
                               * Vf[(x - t * y) % 3, (xi - B * eta) % 3]
                               * np.conj(Vg[(x - B * y) % 3, (xi - t * eta) % 3]))
                        assert abs(lhs[x, xi, eta, y] - rhs) <= 1e-13

    grid = GridSpec(1, 9, "mod")
    worst = 0.0
    for t in (0, 1):
        sigs = [_unit_signal(grid, rng) for _ in range(4)]
        dev = stft_of_wigner_check(*sigs, MatrixParam.scalar(t, 1))
        worst = max(worst, dev)
        assert dev <= 1e-10
    _ok(5, "STFT-of-Wigner factorization", f"worst dev {worst:.2e}")


# 6 ------------------------------------------------------------------------


def test_c06_expop_stft():
    rng = np.random.default_rng(106)
    grid = GridSpec(1, 9, "mod")
    a, phi = _unit_symbol(grid, rng), _unit_symbol(grid, rng)
    dev0 = expop_stft_check(a, phi, 0)
    assert dev0 == 0.0
    dev1 = expop_stft_check(a, phi, 1)
    assert dev1 <= 1e-10
    _ok(6, "transfer/STFT commutation", f"A=0 dev {dev0:.1e}, A=1 dev {dev1:.2e}")


# 7 ------------------------------------------------------------------------

# At n=33 the multiplier phase spans +-2*pi*256/33 ~ 48.7 rad and a 20-node
# Gauss-Legendre rule bottoms out near 4e-9 (pure quadrature truncation,
# verified against the scalar integral), so the stated 20-node/1e-12
# pairing cannot hold there; see the decisions ledger.
@pytest.mark.parametrize("n,d", [
    (9, 1),
    (17, 1),
    pytest.param(33, 1, marks=pytest.mark.xfail(
        strict=True, reason="20-node Gauss-Legendre floor ~4e-9 at theta_max ~ 48.7")),
    (9, 2),
])
def test_c07_born_jordan(n, d):
    rng = np.random.default_rng(107)
    grid = GridSpec(d, n)
    spec = SchemeSpec("born_jordan")
    worst = 0.0
    for _ in range(10):
        a = _unit_symbol(grid, rng)
        dev = float(np.abs(quantize_scheme(a, spec).data
                           - born_jordan_quadrature(a, nodes=20).data).max())
        worst = max(worst, dev)
        assert dev <= 1e-12
    _ok(7, f"Born-Jordan closed form (n={n}, d={d})", f"worst dev {worst:.2e}")


# 8 ------------------------------------------------------------------------


def test_c08_psi_functions():
    for rho in np.linspace(0.0, 5.0, 51):
        assert abs(psi(1, rho) - math.cosh(rho)) <= 1e-14 * math.cosh(rho)
        assert abs(psi0(1, rho) - math.sinh(rho)) <= 1e-14 * math.cosh(rho)
    ratios = []
    for i, rho in enumerate((0.5, 1.0, 2.0)):
        mc = sphere_average_exp(rho, samples=10**6, seed=800 + i)
        ratios.append(mc / psi(2, rho))
    spread = max(abs(r - ratios[0]) for r in ratios)
    assert spread <= 1e-3
    _ok(8, "psi special functions",
        f"sphere/series ratio {ratios[0]:.6f}, rho-spread {spread:.1e}")


# 9 ------------------------------------------------------------------------


def test_c09_orthogonal_average_d1():
    rng = np.random.default_rng(109)
    grid = GridSpec(1, 9)
    a = _unit_symbol(grid, rng)
    exact0 = quantize_scheme(a, SchemeSpec("un_avg", {"r": 0.0})).data
    np.testing.assert_array_equal(exact0, quantize(a, 0.5).data)
    from psdo.grid import dft, doubled, idft
    from psdo.schemes import un_avg_multiplier_grid

    D = doubled(grid)
    worst = 0.0
    for r in (0.0, 0.5, 1.0):
        direct = quantize_scheme(a, SchemeSpec("un_avg", {"r": r})).data
        mult = un_avg_multiplier_grid(grid, r)
        ahat = dft(Signal(D, a.data.ravel())).data.reshape(mult.shape) * mult
        smoothed = Symbol(grid, idft(Signal(D, ahat.ravel())).data.reshape(mult.shape))
        dev = float(np.abs(direct - quantize(smoothed, 0.5).data).max())
        worst = max(worst, dev)
        assert dev <= 1e-11
    _ok(9, "orthogonal-average scheme (d=1)", f"worst dev {worst:.2e}")


# 10 -----------------------------------------------------------------------


def test_c10_schatten_identities():
    rng = np.random.default_rng(110)
    grid = GridSpec(1, 9)
    T = OperatorMatrix(grid, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    assert abs(schatten_norm(T, 2) - T.norm()) <= 1e-12 * T.norm()

    worst_ratio = 0.0
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        _, _, ratio = duality_check(M, p)
        worst_ratio = max(worst_ratio, abs(ratio - 1.0))
        assert abs(ratio - 1.0) <= 1e-10

    for _ in range(100):
        T1 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        T2 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        p1, p2 = rng.choice([1.0, 2.0, 4.0, math.inf]), rng.choice([1.0, 2.0, 4.0 / 3.0])
        lhs, rhs = hoelder_check(T1, T2, p1, p2)
        assert lhs <= rhs * (1 + 1e-10)
    _ok(10, "Schatten identities", f"worst duality defect {worst_ratio:.2e}")


# 11 -----------------------------------------------------------------------


def test_c11_modulation_norms():
    rng = np.random.default_rng(111)
    grid = GridSpec(1, 9)
    for _ in range(5):
        f = Signal.random(grid, rng)
        assert abs(modulation_norm(f, MixedNormParams(2, 2)) - f.norm()) <= 1e-12 * f.norm()

    phi1 = gaussian_window(grid)
    chirp = np.exp(2j * np.pi * np.arange(9) / 9)
    phi2 = Signal(grid, phi1.data + 0.3 * chirp * phi1.data)  # different shape, not a translate
    params = MixedNormParams(1, math.inf)
    ratios = []
    for _ in range(100):
        f = Signal.random(grid, rng)
        ratios.append(modulation_norm(f, params, phi=phi1)
                      / modulation_norm(f, params, phi=phi2))
    assert all(math.isfinite(r) and r > 0 for r in ratios)

    F = TimeFrequencyArray(grid, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    ladder = (1.0, 1.5, 2.0, 3.0, math.inf)
    for q in (1.0, 2.0, math.inf):
        vals = [mixed_norm(F, MixedNormParams(p, q)) for p in ladder]
        assert all(hi <= lo * (1 + 1e-14) for lo, hi in zip(vals, vals[1:]))
    _ok(11, "modulation norms",
        f"window ratio range [{min(ratios):.3f}, {max(ratios):.3f}] over 100 draws")


# 12 -----------------------------------------------------------------------


def test_c12_sharp_product():
    rng = np.random.default_rng(112)
    worst_t = 0.0
    for n in (9, 17):
        grid = GridSpec(1, n)
        one = Symbol.constant(grid)
        b = _unit_symbol(grid, rng)
        assert np.abs(sharp(one, b, 0.5).data - b.data).max() <= 1e-12
        a, b2, c = (_unit_symbol(grid, rng) for _ in range(3))
        assoc = np.abs(sharp(sharp(a, b2, 0.5), c, 0.5).data
                       - sharp(a, sharp(b2, c, 0.5), 0.5).data).max()
        assert assoc <= 1e-11
        for A, B in ((0.5, 0.0), (0.0, 0.5), (0.37, -0.2)):
            dev = sharp_transfer_check(a, b2, A, B)
            worst_t = max(worst_t, dev)
            assert dev <= 1e-11
    _ok(12, "sharp product laws", f"worst transfer dev {worst_t:.2e}")


# 13 -----------------------------------------------------------------------


def _ratio_suites(n, draws, seed):
    grid = GridSpec(1, n)
    rng = np.random.default_rng(seed)
    A = MatrixParam.weyl(1)
    two = MixedNormParams(2, 2)
    lo, hi = MixedNormParams(1, 1), MixedNormParams(math.inf, math.inf)
    out = {"op_bound": 0.0, "wigner_map": 0.0, "embed_up": 0.0, "embed_down": 0.0}
    for _ in range(draws):
        a = _unit_symbol(grid, rng)
        f = _unit_signal(grid, rng)
        g1 = _unit_signal(grid, rng)
        out["op_bound"] = max(out["op_bound"],
                              modulation_norm(Signal(grid, quantize(a, A).data @ f.data), two)
                              / (symbol_modulation_norm(a, two) * modulation_norm(f, two)))
        W = wigner(f, g1, A)
        out["wigner_map"] = max(out["wigner_map"],
                                symbol_modulation_norm(Symbol(grid, W.data), two)
                                / (modulation_norm(f, two) * modulation_norm(g1, two)))
        s2 = symbol_schatten_norm(a, A, 2)
        out["embed_up"] = max(out["embed_up"], s2 / symbol_modulation_norm(a, lo))
        out["embed_down"] = max(out["embed_down"], symbol_modulation_norm(a, hi) / s2)
    return out


def test_c13_inequality_stability():
    # hypotheses hold for the chosen tuples
    assert holds_op_bound_exponents(ExponentTuple(p=(2, 2, 2), q=(2, 2, 2)))
    assert holds_wigner_product_exponents(ExponentTuple(p=(2, 2, 2), q=(2, 2, 2)))
    assert holds_schatten_embedding_exponents(ExponentTuple(p=(2, 1, math.inf), q=(2, 1, math.inf)))

    r9 = _ratio_suites(9, draws=100, seed=113)
    r17 = _ratio_suites(17, draws=100, seed=114)
    for key in r9:
        assert r17[key] <= 4.0 * r9[key], (key, r9[key], r17[key])
    _ok(13, "inequality-type stability",
        " ".join(f"{k}:{r17[k] / r9[k]:.2f}x" for k in sorted(r9)))


# 14 -----------------------------------------------------------------------


def test_c14_cli_verify_reproducible(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli_main(["verify", "all", "--n", "9", "--d", "1", "--seed", "42",
                      "--json-out", str(p1)])
    code2 = cli_main(["verify", "all", "--n", "9", "--d", "1", "--seed", "42",
                      "--json-out", str(p2)])
    assert code1 == 0 and code2 == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["passed"] and len(report["checks"]) >= 30
    _ok(14, "CLI verify reproducibility",
        f"{len(report['checks'])} checks, byte-identical reports")
