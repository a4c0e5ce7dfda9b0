"""Constant-dimension subspace codes from parallel lifted rank-metric codes.

Exact lower and upper bounds, explicit construction of the codes behind the
lower bounds, and independent verification of their parameters.  Everything
is integer arithmetic; no floating point touches any count or distance.
"""

from .bounds import (
    BoundResult,
    CdcParams,
    TableRow,
    block_cardinalities,
    johnson_anticode_upper,
    johnson_iterated_upper,
    load_reference_rows,
    parallel_lower_bound,
    reproduce_reference_table,
    two_block_lower_bound,
)
from .codefile import read_code, write_code
from .construction import CDC, Subspace, assemble_parallel, canonicalize, lift
from .counting import (
    RankDistribution,
    count_rank_matrices,
    delsarte_rank_distribution,
    gaussian_binomial,
    truncated_rank_sum,
)
from .errors import (
    BudgetExceededError,
    CodeFileError,
    IncompatibleFieldError,
    IncompatibleSpacesError,
    InternalConsistencyError,
    InvalidElementError,
    InvalidParameterError,
    RankDeficiencyError,
)
from .fields import (
    Extension,
    Field,
    MatrixGF,
    SUPPORTED_Q,
    extension_field,
    field_of,
    linearized_eval,
    mat_rank,
    mat_rref,
    matrix,
)
from .gabidulin import (
    DEFAULT_ENUM_BUDGET,
    RankCode,
    RankCodeSpec,
    empirical_rank_distribution,
    gabidulin_enumerate,
    sq_filter,
)
from .verify import (
    DistanceReport,
    VerificationReport,
    min_distance_exhaustive,
    min_distance_sampled,
    reconcile,
    subspace_distance,
)

__version__ = "0.1.0"
