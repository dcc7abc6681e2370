import math

import numpy as np
import pytest

import psdo.schemes as sch
from psdo import GridSpec, Symbol, quantize
from psdo.schemes import (
    SchemeSpec,
    quantize_scheme,
    born_jordan_quadrature,
    bj_multiplier,
    psi,
    psi0,
    psi_alternating,
    un_avg_multiplier,
    un_avg_multiplier_grid,
    sphere_average_exp,
)
from psdo.errors import InvalidDimension, InvalidParams, ModeMismatch, SizeLimit, UnsupportedDimension

from reference import literal_bj_quadrature, literal_un_avg, literal_un_avg_time, multiplier_born_jordan


def test_scheme_spec_validation():
    with pytest.raises(InvalidParams):
        SchemeSpec("bogus")
    with pytest.raises(InvalidParams):
        SchemeSpec("un_avg", {"r": -1.0})
    with pytest.raises(InvalidParams):
        SchemeSpec("born_jordan", {"quad_nodes": 0})
    spec = SchemeSpec("un_avg_time", {"r": 0.5})
    assert spec.params["t_nodes"] == 20 and spec.params["angle_nodes"] == 64
    assert SchemeSpec.from_descriptor(spec.descriptor()) == spec


def test_born_jordan_takes_no_quad_nodes():
    # the closed form averages over t exactly: a node count is never read
    assert SchemeSpec("born_jordan").descriptor() == {"kind": "born_jordan", "params": {}}
    with pytest.raises(InvalidParams, match=r"born_jordan_quadrature\(nodes=\.\.\.\)"):
        SchemeSpec("born_jordan", {"quad_nodes": 20})


def _composition_report(draws):
    from psdo.calculus import alg_hypotheses_report
    from psdo.modspace import SYMBOL_AXES, ExponentTuple, trivial_weight

    # exponents and weights under which both predicates hold, so the draws run
    t = ExponentTuple(p=(2, 2, 2), q=(2, 2, 2))
    return alg_hypotheses_report(t, [trivial_weight(SYMBOL_AXES)] * 3, 0.5, GridSpec(1, 3), draws=draws)


_A3 = Symbol.constant(GridSpec(1, 3))


_COUNT_CASES = {
    "bj_nodes_0": (lambda: born_jordan_quadrature(_A3, nodes=0), "nodes"),
    "bj_nodes_-1": (lambda: born_jordan_quadrature(_A3, nodes=-1), "nodes"),
    "bj_nodes_2.5": (lambda: born_jordan_quadrature(_A3, nodes=2.5), "nodes"),
    "bj_nodes_True": (lambda: born_jordan_quadrature(_A3, nodes=True), "nodes"),
    "sphere_samples_0": (lambda: sphere_average_exp(1.0, samples=0), "samples"),
    "sphere_samples_-3": (lambda: sphere_average_exp(1.0, samples=-3), "samples"),
    "sphere_samples_2.5": (lambda: sphere_average_exp(1.0, samples=2.5), "samples"),
    "sphere_rho_nan": (lambda: sphere_average_exp(math.nan, samples=10), "rho"),
    "sphere_rho_inf": (lambda: sphere_average_exp(math.inf, samples=10), "rho"),
    "un_avg_multiplier_0": (lambda: un_avg_multiplier(2, 0.5, [1.0, 0.0], [0.0, 1.0], angle_nodes=0),
                            "angle_nodes"),
    "un_avg_multiplier_grid_0": (lambda: un_avg_multiplier_grid(GridSpec(2, 3), 0.5, angle_nodes=0),
                                 "angle_nodes"),
    "composition_draws_0": (lambda: _composition_report(draws=0), "draws"),
}


@pytest.mark.parametrize("case", _COUNT_CASES)
def test_counts_are_integers_of_at_least_one(case):
    # node, sample and draw counts share one rule: an integer >= 1, not a
    # bool, else InvalidParams naming the parameter (never numpy's
    # ValueError, a raw TypeError, a ZeroDivisionError or an empty average)
    call, name = _COUNT_CASES[case]
    with pytest.raises(InvalidParams, match=name):
        call()


def test_bj_of_constant_is_identity(grid9):
    K = quantize_scheme(Symbol.constant(grid9), SchemeSpec("born_jordan")).data
    np.testing.assert_allclose(K, np.eye(9), atol=1e-13)


def test_t_half_is_weyl(rng, grid9):
    a = Symbol.random(grid9, rng)
    lhs = quantize_scheme(a, SchemeSpec("t", {"t": 0.5})).data
    rhs = quantize_scheme(a, SchemeSpec("weyl")).data
    np.testing.assert_array_equal(lhs, rhs)


def test_kn_scheme_matches_quantize(rng, grid9):
    a = Symbol.random(grid9, rng)
    np.testing.assert_array_equal(quantize_scheme(a, SchemeSpec("kn")).data,
                                  quantize(a, 0.0).data)


def test_bj_closed_form_vs_quadrature(rng, grid9):
    for _ in range(5):
        a = Symbol.random(grid9, rng)
        closed = quantize_scheme(a, SchemeSpec("born_jordan")).data
        quad = born_jordan_quadrature(a, nodes=20).data
        assert np.abs(closed - quad).max() <= 1e-12 * a.norm()


def test_bj_quadrature_refuses_a_node_count_over_the_entry_budget(rng):
    # 1415^2 companion-matrix entries exceed FOURD_LIMIT; nothing is allocated
    with pytest.raises(SizeLimit, match="1415 Gauss-Legendre nodes"):
        born_jordan_quadrature(Symbol.random(GridSpec(1, 3), rng), nodes=1415)


def test_bj_requires_real_mode(rng):
    g = GridSpec(1, 9, "mod")
    with pytest.raises(ModeMismatch):
        quantize_scheme(Symbol.random(g, rng), SchemeSpec("born_jordan"))


@pytest.mark.parametrize("d, n", [(1, 9), (2, 5)])
def test_averaged_schemes_match_literal_loops(rng, d, n):
    # one averaged phase table against one quantize per node (and, for
    # Born-Jordan, against the sinc-multiplied symbol quantized at Weyl)
    a = Symbol.random(GridSpec(d, n), rng)
    cases = [
        (SchemeSpec("born_jordan"), multiplier_born_jordan(a)),
        (SchemeSpec("un_avg", {"r": 0.7, "angle_nodes": 5}), literal_un_avg(a, 0.7, 5)),
        (SchemeSpec("un_avg_time", {"r": 0.6, "t_nodes": 4, "angle_nodes": 3}),
         literal_un_avg_time(a, 0.6, 4, 3)),
    ]
    for spec, want in cases:
        got = quantize_scheme(a, spec).data
        assert np.abs(got - want).max() <= 1e-12 * a.norm(), spec.kind
    quad = born_jordan_quadrature(a, nodes=6).data
    assert np.abs(quad - literal_bj_quadrature(a, 6)).max() <= 1e-12 * a.norm()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("spec", [SchemeSpec("un_avg", {"r": 0.3, "angle_nodes": 4}),
                                  SchemeSpec("un_avg_time", {"r": 0.3, "t_nodes": 3,
                                                             "angle_nodes": 4})])
def test_averaged_schemes_mode_mod_raise_before_any_fft(fft_calls, rng, d, spec):
    a = Symbol.random(GridSpec(d, 5, "mod"), rng)
    with pytest.raises(ModeMismatch):
        quantize_scheme(a, spec)
    assert fft_calls == []


def test_un_avg_r0_is_weyl(rng, grid9):
    a = Symbol.random(grid9, rng)
    lhs = quantize_scheme(a, SchemeSpec("un_avg", {"r": 0.0})).data
    np.testing.assert_array_equal(lhs, quantize(a, 0.5).data)
    lhs_t = quantize_scheme(a, SchemeSpec("un_avg_time", {"r": 0.0})).data
    np.testing.assert_array_equal(lhs_t, quantize(a, 0.5).data)


def test_un_avg_d1_is_two_point_average(rng, grid9):
    a = Symbol.random(grid9, rng)
    r = 0.7
    direct = quantize_scheme(a, SchemeSpec("un_avg", {"r": r})).data
    manual = 0.5 * (quantize(a, 0.5 + r).data + quantize(a, 0.5 - r).data)
    np.testing.assert_allclose(direct, manual, atol=1e-13 * a.norm())


def test_un_avg_multiplier_route(rng, grid9):
    from psdo.grid import Signal, dft, doubled, idft

    a = Symbol.random(grid9, rng)
    D = doubled(grid9)
    for r in (0.5, 1.0):
        direct = quantize_scheme(a, SchemeSpec("un_avg", {"r": r})).data
        mult = un_avg_multiplier_grid(grid9, r)
        ahat = dft(Signal(D, a.data.ravel())).data.reshape(mult.shape) * mult
        smoothed = Symbol(grid9, idft(Signal(D, ahat.ravel())).data.reshape(mult.shape))
        routed = quantize(smoothed, 0.5).data
        assert np.abs(direct - routed).max() <= 1e-11 * a.norm()


def test_un_avg_multiplier_grid_d1_is_cosine(grid9):
    # the two nodes +-1 of O(1) average e^{+-i x} to cos x
    from psdo.grid import rep_axis

    reps = rep_axis(9).astype(float)
    for r in (0.0, 0.5, 1.0):
        want = np.cos(r * 2.0 * np.pi * np.outer(reps, reps) / 9)
        np.testing.assert_allclose(un_avg_multiplier_grid(grid9, r), want, rtol=0, atol=1e-15)


def test_un_avg_d2_runs_and_hermitian(rng):
    g = GridSpec(2, 5)
    a = Symbol(g, rng.standard_normal((25, 25)).astype(complex))
    K = quantize_scheme(a, SchemeSpec("un_avg", {"r": 0.5, "angle_nodes": 8})).data
    assert np.abs(K - K.conj().T).max() <= 1e-11 * np.linalg.norm(K)


def test_unsupported_dimension(rng):
    g = GridSpec(3, 3)
    a = Symbol.random(g, rng)
    with pytest.raises(UnsupportedDimension):
        quantize_scheme(a, SchemeSpec("un_avg", {"r": 0.5}))
    with pytest.raises(UnsupportedDimension):
        un_avg_multiplier(3, 0.5, [1, 0, 0], [0, 0, 1])
    with pytest.raises(UnsupportedDimension):
        un_avg_multiplier_grid(g, 0.5)


def test_scheme_hermiticity(rng, grid9):
    a = Symbol(grid9, rng.standard_normal((9, 9)).astype(complex))
    for spec in (SchemeSpec("weyl"), SchemeSpec("born_jordan"),
                 SchemeSpec("un_avg", {"r": 0.5}),
                 SchemeSpec("un_avg_time", {"r": 0.5, "t_nodes": 8, "angle_nodes": 8})):
        K = quantize_scheme(a, spec).data
        assert np.abs(K - K.conj().T).max() <= 1e-11 * np.linalg.norm(K)


def test_bj_multiplier_values():
    assert bj_multiplier(0.0) == 1.0
    assert bj_multiplier(math.pi) == pytest.approx(2.0 / math.pi)
    assert bj_multiplier(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
    # series patch agrees with the direct formula across the switch point
    thetas = np.array([1e-5, 5e-5, 9.9e-5, 1.01e-4, 2e-4])
    direct = np.sin(thetas / 2) / (thetas / 2)
    np.testing.assert_allclose(bj_multiplier(thetas), direct, rtol=1e-12)
    # off the series patch the values are exactly sin(u)/u
    big = np.concatenate([thetas[3:], -thetas[3:], np.linspace(-40.0, 40.0, 1000)])
    np.testing.assert_array_equal(bj_multiplier(big), np.sin(big / 2) / (big / 2))


def test_psi_values():
    assert psi(1, 0.0) == 1.0
    assert psi(1, 1.0) == pytest.approx(1.5430806348, abs=1e-9)
    assert psi(2, 0.0) == pytest.approx(1.0)
    assert psi0(1, 0.0) == 0.0
    assert psi0(1, 1.0) == pytest.approx(1.1752012, abs=1e-6)
    with pytest.raises(InvalidDimension):
        psi(0, 1.0)
    with pytest.raises(InvalidParams):
        psi(2, -1.0)


@pytest.mark.parametrize("f, d, rho", [
    (psi, 2, math.nan),               # used to loop forever
    (psi0, 2, math.nan),              # used to loop forever
    (psi, 2, math.inf),
    (psi, 2, 2000.0),                 # used to loop forever once the sum hit inf
    (psi_alternating, 2, 2000.0),     # used to loop forever once the sum hit nan
    (psi, 1, 2000.0),                 # used to raise a raw OverflowError
    (psi0, 1, 2000.0),
    (psi0, 2, 2000.0),
])
def test_psi_non_finite_fails_fast(f, d, rho):
    with pytest.raises(InvalidParams):
        f(d, rho)


def test_sphere_average_refuses_an_overflowing_sum():
    # e^800 overflows: this once warned and returned inf.  A sum that
    # cannot overflow is still computed.
    with pytest.raises(InvalidParams, match="rho"):
        sphere_average_exp(800.0)
    with pytest.raises(InvalidParams, match="rho"):
        sphere_average_exp(-705.0, samples=1000)
    assert math.isfinite(sphere_average_exp(700.0, samples=1))


def test_scheme_spec_rejects_non_finite_r():
    for r in (math.nan, math.inf):
        with pytest.raises(InvalidParams):
            SchemeSpec("un_avg", {"r": r})
        with pytest.raises(InvalidParams):
            SchemeSpec("un_avg_time", {"r": r})


def test_psi2_against_sphere_average():
    # the d=2 series is the circle average of e^{rho cos}; the Monte-Carlo
    # ratio must not depend on rho
    ratios = []
    for i, rho in enumerate((0.5, 1.0, 2.0)):
        mc = sphere_average_exp(rho, samples=200_000, seed=100 + i)
        ratios.append(mc / psi(2, rho))
    assert max(abs(r - ratios[0]) for r in ratios) <= 1e-3
    assert ratios[0] == pytest.approx(1.0, abs=1e-3)


def test_sphere_average_exp_matches_one_shot():
    # the blocked sampler draws the same angles as one draw of every
    # sample, so only the summation order of the mean differs
    for samples in (1000, 200_000):  # one block; several with a short last one
        rng = np.random.default_rng(3)
        angles = 2.0 * np.pi * (np.arange(samples) + rng.random(samples)) / samples
        blocks = list(sch._stratified_angles(np.random.default_rng(3), samples))
        assert np.array_equal(np.concatenate(blocks), angles)
        one_shot = float(np.mean(np.exp(1.3 * np.cos(angles))))
        assert abs(sphere_average_exp(1.3, samples, seed=3) - one_shot) <= 1e-15 * one_shot


def test_psi0_d2_quadrature():
    for r in (0.5, 2.0):
        t, w = np.polynomial.legendre.leggauss(40)
        tt = 0.5 * r * (t + 1.0)
        quad = 0.5 * r * np.sum(w * np.array([psi(2, x) for x in tt]))
        assert psi0(2, r) == pytest.approx(quad, rel=1e-12)


def test_psi0_small_r_limit():
    r = 1e-6
    for d in (1, 2, 3):
        assert abs(psi0(d, r) / r - psi(d, 0.0)) <= 1e-9


def test_psi_alternating():
    assert psi_alternating(1, 1.3) == pytest.approx(math.cos(1.3))
    # d = 2: equals the uniform circle average of e^{i rho cos}
    rho = 1.7
    alphas = 2 * np.pi * np.arange(20000) / 20000
    avg = np.mean(np.exp(1j * rho * np.cos(alphas)))
    assert psi_alternating(2, rho) == pytest.approx(float(avg.real), abs=1e-9)
    # d = 3 keeps the series' prefactor 2^{-(d-2)/2}: 2^{-1/2} times the
    # sphere average sin(rho)/rho
    for rho in (0.5, 1.0, 3.0, 7.0):
        assert abs(psi_alternating(3, rho) - 2**-0.5 * math.sin(rho) / rho) <= 1e-13


def test_un_avg_multiplier_values():
    assert un_avg_multiplier(1, 0.0, [2.0], [3.0]) == 1.0
    assert un_avg_multiplier(1, 0.5, [2.0], [3.0]) == pytest.approx(math.cos(3.0))
    # d = 2 quadrature vs a dense stratified Monte-Carlo average over O(2)
    rng = np.random.default_rng(5)
    m, c, r = np.array([1.0, 0.5]), np.array([0.25, 1.0]), 0.8
    quad = un_avg_multiplier(2, r, m, c, angle_nodes=64)
    samples = 100_000
    alphas = 2 * np.pi * (np.arange(samples) + rng.random(samples)) / samples
    ca, sa = np.cos(alphas), np.sin(alphas)
    rot = np.exp(1j * r * ((ca * m[0] - sa * m[1]) * c[0] + (sa * m[0] + ca * m[1]) * c[1]))
    ref = np.exp(1j * r * ((ca * m[0] + sa * m[1]) * c[0] + (sa * m[0] - ca * m[1]) * c[1]))
    mc = 0.5 * (rot.mean() + ref.mean())
    assert abs(quad - mc) <= 1e-3


def test_un_avg_time_quadrature(rng, grid9):
    # (1/r) integral over [0, r] of the averages, checked against a fine sum
    a = Symbol.random(grid9, rng)
    r = 0.6
    got = quantize_scheme(a, SchemeSpec("un_avg_time", {"r": r, "t_nodes": 20})).data
    t, w = np.polynomial.legendre.leggauss(40)
    tt, ww = 0.5 * r * (t + 1.0), 0.5 * r * w
    want = sum(wi / r * quantize_scheme(a, SchemeSpec("un_avg", {"r": ti})).data
               for ti, wi in zip(tt, ww))
    assert np.abs(got - want).max() <= 1e-12 * a.norm()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_psi0_large_r_is_finite_and_accurate(d):
    # the recurrence between consecutive terms never forms half ** (2m+1),
    # which used to overflow from r ~ 100 although psi0 itself is finite
    sp = pytest.importorskip("scipy.special")
    integrate = pytest.importorskip("scipy.integrate")
    nu = d / 2 - 1
    for r in (100.0, 300.0, 600.0):
        value = psi0(d, r)
        assert math.isfinite(value)
        # psi_d(x) = Gamma(d/2) 2^{-nu} (x/2)^{-nu} I_nu(x), integrated with
        # the e^x growth scaled out
        scaled, _ = integrate.quad(
            lambda x: math.gamma(d / 2) * 2**-nu * (x / 2) ** -nu * sp.ive(nu, x) * math.exp(x - r),
            0.0, r, epsabs=0.0, epsrel=1e-13, limit=200)
        assert value == pytest.approx(scaled * math.exp(r), rel=1e-12)


def test_psi_alternating_refuses_cancellation():
    # the alternating series summed to 2351 at rho = 50, where J_0(50) = 0.0558
    with pytest.raises(InvalidParams):
        psi_alternating(2, 50.0)


def test_psi_alternating_matches_bessel_j0():
    sp = pytest.importorskip("scipy.special")
    for rho in (0.0, 0.5, 2.4048, 5.0, 10.0):
        assert abs(psi_alternating(2, rho) - sp.j0(rho)) <= 1e-12
