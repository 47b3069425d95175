"""Evolution operators, trace sequences and zeta-type series for
two-state interacting particle systems on a finite path."""

from .config import DEFAULTS
from .errors import (
    ConstraintViolation,
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    InvalidInput,
    InvariantDrift,
    IpsZetaError,
    KindMismatch,
    SingularAtU,
    SizeExceeded,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .models import (
    LocalOperator,
    ModelClass,
    ModelSpec,
    TensorFactors,
    build_local,
    classify,
    factor_tensor,
    reflection,
    rotation,
)
from .operators import Configuration, GlobalOperator
from .zeta import (
    ZetaLogSeries,
    arctanh,
    binomial_zeta_qca1,
    chebyshev_t,
    clt_limit_zeta,
    qca2_c1_closed_form,
    qca2_x2_recurrence,
    rule90_trace_general_r,
    tensor_model_cr,
    zeta_closed_form_qca2,
)
from .verify import FORMULA_IDS, ClosedFormReport, run_formula
from .dynamics import (
    StateKind,
    StateVector,
    evolve_trajectory,
    initial_state,
    site_marginals,
    state_kind,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULTS",
    "IpsZetaError", "InvalidInput", "ConstraintViolation", "ConvergenceFailure",
    "DimensionMismatch", "DomainError", "InvariantDrift", "KindMismatch", "SingularAtU",
    "SizeExceeded",
    "KERNEL_BACKEND",
    "LocalOperator", "ModelClass", "ModelSpec", "TensorFactors",
    "build_local", "classify", "factor_tensor", "reflection", "rotation",
    "Configuration", "GlobalOperator",
    "ClosedFormReport", "ZetaLogSeries", "arctanh",
    "binomial_zeta_qca1", "chebyshev_t", "clt_limit_zeta",
    "qca2_c1_closed_form", "qca2_x2_recurrence", "rule90_trace_general_r",
    "tensor_model_cr", "zeta_closed_form_qca2",
    "FORMULA_IDS", "run_formula",
    "StateKind", "StateVector",
    "evolve_trajectory", "initial_state", "site_marginals", "state_kind",
    "__version__",
]
