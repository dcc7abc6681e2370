"""Matrix-parameterized pseudo-differential calculi on finite cyclic grids:
quantizers Op_A, time-frequency transforms, modulation-space norms,
Schatten classes, sharp products, and averaged quantization schemes, with
a CLI whose ``verify`` command machine-checks the exact identities at desk
scale."""

from .grid import (
    GridSpec,
    Signal,
    Symbol,
    OperatorMatrix,
    rep,
    dft,
    idft,
    partial_dft,
    frac_shift,
    gaussian_window,
)
from .quantizer import (
    MatrixParam,
    as_matrix_param,
    symbol_transfer,
    quantize,
    kernel_route,
    multiplier_route,
    dequantize,
    rank_one_symbol,
)
from .wigner import (
    TimeFrequencyArray,
    stft,
    wigner,
)
from .modspace import (
    ExponentTuple,
    MixedNormParams,
    Weight,
    make_weight,
    moderate_check,
    mixed_norm,
    modulation_norm,
    symbol_modulation_norm,
    hy_functional,
)
from .schatten import (
    SingularSpectrum,
    singular_values,
    schatten_norm,
    symbol_schatten_norm,
    trace_pairing,
)
from .calculus import sharp, sharp_n, alg_hypotheses_report
from .schemes import SchemeSpec, quantize_scheme, bj_multiplier, psi, psi0

__version__ = "0.1.0"
