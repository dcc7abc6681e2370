"""The defect table: what the verify registry can and cannot catch.

Each row is one deliberate defect, monkeypatched into every psdo module
that looks the patched name up, and the exact set of checks that must fail
in ``run_suite("all", n, d, 7)``.  An empty set marks an equivalent mutant:
a change of code that is still correct, which no check can reject.  A
defect that every check misses, a survivor, is a strict xfail that names
the check meant to catch it.
"""

import sys

import numpy as np
import pytest

import psdo.quantizer as quantizer
import psdo.verify as verify
from psdo.quantizer import MatrixParam

# the checks that read the transfer phase at a non-zero A in a way that
# sees its sign
NEGATED_A = frozenset({
    "adjoint_law",
    "bj_quadrature_vs_multiplier",
    "expop_stft",
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


_TRANSPOSED = pytest.mark.xfail(
    strict=True, reason="survives all checks: each draws a scalar A or tests an identity that "
                        "also holds for A^T; ROADMAP item 2's gl_covariance check is to reject it")

DEFECTS = [
    pytest.param(_row_tables_at(lambda A, n: -A), (5, 1), NEGATED_A, id="row_tables_negated-5-1"),
    pytest.param(_row_tables_at(lambda A, n: -A), (3, 2), NEGATED_A, id="row_tables_negated-3-2"),
    pytest.param(_unconjugated_window, (5, 1), UNCONJUGATED_WINDOW, id="window_spectrum_unconjugated-5-1"),
    pytest.param(_row_tables_at(lambda A, n: A + n * np.eye(len(A))), (5, 1), EQUIVALENT,
                 id="row_tables_shifted_by_n-5-1"),
    # at d = 1, A^T = A
    pytest.param(_row_tables_at(lambda A, n: A.T), (3, 2), None, id="row_tables_transposed-3-2",
                 marks=_TRANSPOSED),
]


@pytest.mark.parametrize("defect, grid, expected", DEFECTS)
def test_verify_rejects_exactly_the_expected_checks(monkeypatch, defect, grid, expected):
    n, d = grid
    defect(monkeypatch)
    report = verify.run_suite("all", n, d, 7, threads=1)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    if expected is None:  # a survivor: some check must reject it
        assert failed
    else:
        assert failed == expected
