"""harmcode: exact coded computing for privacy-preserving gradient-type sums.

Computes f(X_1, ..., X_K) = g(X_1) + ... + g(X_K) over a prime field on
simulated workers that each see a single coded share carrying zero
information about the data. Ships the harmonic-progression scheme
(K(d-1)+2 workers), Shamir-MPC and Lagrange-coded baselines, the
two-worker characteristic-equals-degree scheme, a trial harness, an
exhaustive privacy auditor, and a CLI (``harmcode``).
"""

from .errors import (
    BudgetExceededError,
    ConstantPolynomialError,
    CountMismatchError,
    DegreeMismatchError,
    DimensionMismatchError,
    FieldMismatchError,
    FieldTooSmallError,
    HarmcodeError,
    InvalidParamsError,
    NotPrimeError,
    ParameterCorruptionError,
    ResidueRangeError,
    SchemaViolationError,
    ZeroInversionError,
)
from .field import (
    FieldConfig,
    FieldVector,
    sample_uniform_vector,
)
from .poly import (
    Dataset,
    Monomial,
    MultilinearMap,
    PolyMap,
    direct_gradient_sum,
    multilinearize,
    random_dataset,
    random_poly,
)
from .linear import DecodeVector, EncodingMatrix, LinearCode
from .harmonic import (
    EncodeStats,
    GroupCoeffs,
    HarmonicParams,
    decode_vector,
    encode,
    encoding_matrix,
    group_coeffs,
    intermediate_vars,
    select_params,
    validate_params,
)
from .baselines import (
    FreshmanParams,
    LCCParams,
    ShamirParams,
    freshman_decode_vector,
    freshman_encoding_matrix,
    lcc_decode,
    lcc_decode_vector,
    lcc_encode,
    lcc_encoding_matrix,
    lcc_params,
    shamir_decode,
    shamir_decode_vector,
    shamir_encode,
    shamir_encoding_matrix,
    shamir_params,
)
from .sim import (
    ClearStorageScheme,
    PrivacyReport,
    TrialReport,
    WorkerCountRow,
    make_handle,
    privacy_audit_exhaustive,
    run_trial,
    worker_count_table,
)

__version__ = "0.1.0"
