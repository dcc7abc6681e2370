import json
import math

import numpy as np
import pytest

from psdo import GridSpec, Symbol, quantize, sharp, sharp_n
from psdo.calculus import SharpProductRequest, alg_hypotheses_report
from psdo.modspace import ExponentTuple, trivial_weight, SYMBOL_AXES
from psdo.errors import ArityMismatch
from psdo.verify import sharp_transfer_check


def test_sharp_unit_law(rng, grid9):
    one = Symbol.constant(grid9)
    b = Symbol.random(grid9, rng)
    for A in (0.0, 0.5, 1.0):
        assert np.abs(sharp(one, b, A).data - b.data).max() <= 1e-12 * b.norm()
        assert np.abs(sharp(b, one, A).data - b.data).max() <= 1e-12 * b.norm()


def test_sharp_diagonal_algebra(rng, grid9):
    # position-only symbols at A = 0 multiply pointwise
    gv = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    hv = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    a = Symbol(grid9, np.repeat(gv[:, None], 9, axis=1))
    b = Symbol(grid9, np.repeat(hv[:, None], 9, axis=1))
    c = sharp(a, b, 0.0).data
    want = np.repeat((gv * hv)[:, None], 9, axis=1)
    np.testing.assert_allclose(c, want, atol=1e-12 * np.abs(gv * hv).max())


def test_sharp_defining_roundtrip(rng, grid9):
    a, b = Symbol.random(grid9, rng), Symbol.random(grid9, rng)
    lhs = quantize(sharp(a, b, 0.5), 0.5).data
    rhs = quantize(a, 0.5).data @ quantize(b, 0.5).data
    assert np.abs(lhs - rhs).max() <= 1e-11 * np.linalg.norm(rhs)


def test_sharp_n_basics(rng, grid9):
    one = Symbol.constant(grid9)
    out = sharp_n((one, one, one), 0.37).data
    np.testing.assert_allclose(out, np.ones((9, 9)), atol=1e-12)

    a, b = Symbol.random(grid9, rng), Symbol.random(grid9, rng)
    np.testing.assert_array_equal(sharp_n((a, b), 0.5).data, sharp(a, b, 0.5).data)

    with pytest.raises(ArityMismatch):
        sharp_n((a,), 0.5)


def test_sharp_associativity(rng, grid9):
    a, b, c = (Symbol.random(grid9, rng) for _ in range(3))
    scale = a.norm() * b.norm() * c.norm()
    lhs = sharp(sharp(a, b, 0.5), c, 0.5).data
    rhs = sharp(a, sharp(b, c, 0.5), 0.5).data
    assert np.abs(lhs - rhs).max() <= 1e-11 * scale


def test_sharp_transfer_check(rng, grid9):
    a, b = Symbol.random(grid9, rng), Symbol.random(grid9, rng)
    assert sharp_transfer_check(a, b, 0.5, 0.5) <= 1e-12 * a.norm() * b.norm()
    for A, B in ((0.5, 0.0), (0.0, 0.5), (0.37, -0.2)):
        assert sharp_transfer_check(a, b, A, B) <= 1e-11 * a.norm() * b.norm()
    one = Symbol.constant(grid9)
    assert sharp_transfer_check(one, b, 0.37, -0.2) <= 1e-12 * b.norm()


def test_sharp_request_validation(rng, grid9):
    a = Symbol.random(grid9, rng)
    with pytest.raises(ArityMismatch):
        SharpProductRequest(factors=(a,), A=0.5)
    other = Symbol.random(GridSpec(1, 5), rng)
    with pytest.raises(ArityMismatch):
        SharpProductRequest(factors=(a, other), A=0.5)
    SharpProductRequest(factors=(a, a), A=0.5)


@pytest.mark.parametrize("g1, g2", [
    (GridSpec(1, 9, "real"), GridSpec(1, 9, "mod")),
    (GridSpec(1, 9), GridSpec(2, 3)),
    (GridSpec(1, 9), GridSpec(1, 5)),
])
def test_sharp_on_mixed_grids_is_arity_mismatch(rng, g1, g2):
    a, b = Symbol.random(g1, rng), Symbol.random(g2, rng)
    with pytest.raises(ArityMismatch, match="one grid"):
        sharp(a, b, 0)
    with pytest.raises(ArityMismatch, match="one grid"):
        sharp_n([a, a, b], 0)


def test_alg_hypotheses_report_estimates(rng, grid9):
    t = ExponentTuple(p=(2, 2, 2), q=(2, 2, 2))
    weights = [trivial_weight(SYMBOL_AXES)] * 3
    rep = alg_hypotheses_report(t, weights, 0.5, grid9, draws=10, seed=3)
    assert rep.predicates["composition_exponents"]
    assert rep.predicates["composition_exponents_l2"]
    assert rep.predicates["weight_bound"]
    assert rep.estimated and rep.draws == 10
    assert math.isfinite(rep.max_ratio) and rep.max_ratio > 0
    assert rep.median_ratio <= rep.max_ratio
    json.dumps(rep.to_json())  # report must serialize


def test_alg_hypotheses_report_gating(grid9):
    # all-inf q slots break both composition conditions: estimation skipped
    t = ExponentTuple(p=(2, 2, 2), q=(math.inf, math.inf, math.inf))
    weights = [trivial_weight(SYMBOL_AXES)] * 3
    rep = alg_hypotheses_report(t, weights, 0.5, grid9, draws=5)
    assert not rep.predicates["composition_exponents_l2"]
    assert not rep.predicates["composition_exponents"]
    assert not rep.estimated and rep.max_ratio is None


def test_alg_hypotheses_report_arity(grid9):
    t = ExponentTuple(p=(2, 2, 2), q=(2, 2, 2))
    with pytest.raises(ArityMismatch):
        alg_hypotheses_report(t, [trivial_weight(SYMBOL_AXES)] * 2, 0.5, grid9)
