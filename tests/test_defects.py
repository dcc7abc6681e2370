"""The defect table: what the verify registry can and cannot catch.

Each row is one deliberate defect, monkeypatched into every psdo module
that looks the patched name up, and the exact set of checks that must fail
in ``run_suite("all", n, d, 7)``.  An empty set marks an equivalent mutant:
a change of code that is still correct, which no check can reject.  A
defect that every check misses, a survivor, goes in as a strict xfail
whose set names the check meant to catch it.
"""

import sys

import numpy as np
import pytest

import psdo.grid as grid_module
import psdo.modspace as modspace
import psdo.quantizer as quantizer
import psdo.verify as verify
from psdo.quantizer import MatrixParam

# the checks that read the transfer phase at a non-zero A in a way that
# sees its sign
NEGATED_A = frozenset({
    "adjoint_law",
    "bj_quadrature_vs_multiplier",
    "expop_stft",
    "kernel_route_matrix",
    "kernel_route_mod",
    "kernel_route_real",
    "scheme_hermiticity",
    "sharp_homomorphism",
    "stft_of_wigner",
    "weyl_self_adjoint",
    "weyl_wigner_stft_relation",
    "wigner_mod_equals_real",
})
UNCONJUGATED_WINDOW = frozenset({"expop_stft", "stft_of_wigner", "weyl_wigner_stft_relation"})
EQUIVALENT = frozenset()
# the one route that does not read the row tables: kernel_route's dense phase
TRANSPOSED_A = frozenset({"kernel_route_matrix"})
REL_INDEX_TRANSPOSED = frozenset({
    "adjoint_law",
    "dequantize_roundtrip",
    "rank_one",
    "scheme_hermiticity",
    "sharp_associativity",
    "sharp_homomorphism",
    "sharp_unit_law",
    "stft_of_wigner",
    "weyl_self_adjoint",
    "weyl_wigner_stft_relation",
    "wigner_kn_closed_form",
    "wigner_mod_equals_real",
    "wigner_pseudo_link",
})
WIGNER_UNSCALED = frozenset({
    "rank_one",
    "stft_of_wigner",
    "weyl_wigner_stft_relation",
    "wigner_kn_closed_form",
    "wigner_mod_equals_real",
    "wigner_moyal",
    "wigner_pseudo_link",
})
# the weight-bound checks use trivial weights, or report their constant
WEIGHT_LOG_NEGATED = frozenset({"moderate_exponential", "moderate_peetre"})


def _patch_everywhere(monkeypatch, module, name, wrap):
    """Replace module.name by wrap(original) in every psdo module that binds
    the original, so a caller that imported the name sees the defect too."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "psdo" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, wrap(original))


def _row_tables_at(transform):
    """_row_tables reading transform(A, n) in place of A."""
    def patch(monkeypatch):
        _patch_everywhere(monkeypatch, quantizer, "_row_tables", lambda orig: (
            lambda grid, A, sign: orig(grid, MatrixParam(transform(A.entries, grid.n)), sign)))
    return patch


def _unconjugated_window(monkeypatch):
    """_stft_columns without the conjugate on the window spectrum: the
    conjugated spectrum of conj(Phi(-x)) is the plain spectrum of Phi."""
    def wrap(orig):
        def columns(F, Phi, columns=None):
            data = Phi.data.reshape((Phi.grid.n,) * (Phi.grid.d * Phi.rank))
            reflected = np.roll(np.flip(data), 1, axis=tuple(range(data.ndim)))
            return orig(F, type(Phi)(Phi.grid, np.conj(reflected).reshape(Phi.data.shape)), columns)
        return columns
    _patch_everywhere(monkeypatch, sys.modules["psdo.wigner"], "_stft_columns", wrap)


def _rel_index_transposed(monkeypatch):
    """rel_index read as rel[j', j]: the gather writes K[j, j + u] = G[j, u]."""
    _patch_everywhere(monkeypatch, grid_module, "rel_index", lambda orig: (lambda grid: orig(grid).T))


def _wigner_unscaled(monkeypatch):
    """wigner without its n^{-d/2}."""
    def wrap(orig):
        def unscaled(f1, f2, A):
            W = orig(f1, f2, A)
            return type(W)(W.grid, W.data * np.sqrt(W.grid.size))
        return unscaled
    _patch_everywhere(monkeypatch, sys.modules["psdo.wigner"], "wigner", wrap)


def _weight_log_negated(monkeypatch):
    """Weight._log with its sign flipped: every weight read as its inverse."""
    original = modspace.Weight._log
    monkeypatch.setattr(modspace.Weight, "_log", lambda self, X: -original(self, X))


DEFECTS = [
    pytest.param(_row_tables_at(lambda A, n: -A), (5, 1), NEGATED_A, id="row_tables_negated-5-1"),
    pytest.param(_row_tables_at(lambda A, n: -A), (3, 2), NEGATED_A, id="row_tables_negated-3-2"),
    pytest.param(_unconjugated_window, (5, 1), UNCONJUGATED_WINDOW, id="window_spectrum_unconjugated-5-1"),
    pytest.param(_row_tables_at(lambda A, n: A + n * np.eye(len(A))), (5, 1), EQUIVALENT,
                 id="row_tables_shifted_by_n-5-1"),
    # at d = 1, A^T = A
    pytest.param(_row_tables_at(lambda A, n: A.T), (3, 2), TRANSPOSED_A, id="row_tables_transposed-3-2"),
    pytest.param(_row_tables_at(lambda A, n: A.T), (5, 2), TRANSPOSED_A, id="row_tables_transposed-5-2"),
    pytest.param(_rel_index_transposed, (5, 1), REL_INDEX_TRANSPOSED, id="rel_index_transposed-5-1"),
    pytest.param(_rel_index_transposed, (3, 2), REL_INDEX_TRANSPOSED, id="rel_index_transposed-3-2"),
    pytest.param(_wigner_unscaled, (5, 1), WIGNER_UNSCALED, id="wigner_unscaled-5-1"),
    pytest.param(_wigner_unscaled, (3, 2), WIGNER_UNSCALED, id="wigner_unscaled-3-2"),
    pytest.param(_weight_log_negated, (5, 1), WEIGHT_LOG_NEGATED, id="weight_log_negated-5-1"),
    pytest.param(_weight_log_negated, (3, 2), WEIGHT_LOG_NEGATED, id="weight_log_negated-3-2"),
]


@pytest.mark.parametrize("defect, grid, expected", DEFECTS)
def test_verify_rejects_exactly_the_expected_checks(monkeypatch, defect, grid, expected):
    n, d = grid
    defect(monkeypatch)
    report = verify.run_suite("all", n, d, 7, threads=1)
    assert {c["name"] for c in report["checks"] if not c["passed"]} == expected
