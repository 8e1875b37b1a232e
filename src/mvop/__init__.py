"""Matrix-valued orthogonal polynomials from collections of scalar weights.

Build a weight W = (I + Ax) diag(w_1..w_N) (I + Ax)* from classical or
moment-supplied scalar weights, construct the monic matrix orthogonal
sequence Q_n explicitly from the scalar sequences, and verify
orthogonality, norms, recurrences, bispectral operators, Darboux
factorizations and order-zero irreducibility.
"""

from .errors import (MvopError, InvalidParam, SizeMismatch, OutOfRange,
                     IllConditioned, DegreeCap, Unsupported, SingularLeading,
                     ConditionFailed, CapExceeded, ConfigError)
from .scalar_families import (ScalarWeightSpec, MonicScalarSequence,
                              hermite, laguerre, jacobi, custom,
                              weight_value, recurrence_coefficients,
                              gauss_rule, scalar_diff_operator)
from .matrix_poly import MatrixPolynomial
from .weight_model import (WeightSpec, weight_spec, build_nilpotent, build_T,
                           weight_eval, InnerProductEngine)
from .mvop_core import MVOPSequence, continuant
from .diff_operators import (MatrixDiffOperator, op_apply, op_compose,
                             conjugate_by_T,
                             build_bispectral_operator, eigencheck)
from .darboux import (LadderOperator, ladder, synthesize_shift,
                      laguerre_chain, builtin_n5_laguerre,
                      hermite_A_factorization,
                      darboux_verify, DarbouxReport)
from .irreducibility import (SymmetrySpace, order_zero_symmetries,
                             try_reduce_2x2, try_reduce_3x3_w1w3)

__version__ = "0.1.0"

__all__ = [
    "MvopError", "InvalidParam", "SizeMismatch", "OutOfRange",
    "IllConditioned", "DegreeCap", "Unsupported", "SingularLeading",
    "ConditionFailed", "CapExceeded", "ConfigError",
    "ScalarWeightSpec", "MonicScalarSequence", "hermite", "laguerre",
    "jacobi", "custom", "weight_value", "recurrence_coefficients",
    "gauss_rule", "scalar_diff_operator",
    "MatrixPolynomial",
    "WeightSpec", "weight_spec", "build_nilpotent", "build_T", "weight_eval",
    "InnerProductEngine",
    "MVOPSequence", "continuant",
    "MatrixDiffOperator", "op_apply", "op_compose",
    "conjugate_by_T", "build_bispectral_operator", "eigencheck",
    "LadderOperator", "ladder", "synthesize_shift", "laguerre_chain",
    "builtin_n5_laguerre",
    "hermite_A_factorization", "darboux_verify", "DarbouxReport",
    "SymmetrySpace", "order_zero_symmetries", "try_reduce_2x2",
    "try_reduce_3x3_w1w3",
]
