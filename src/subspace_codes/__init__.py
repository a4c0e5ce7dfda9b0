"""Constant-dimension subspace codes from parallel lifted rank-metric codes.

Exact lower and upper bounds, explicit construction of the codes behind the
lower bounds, and independent verification of their parameters.  Everything
is integer arithmetic; no floating point touches any count or distance.

Each public name below loads its submodule on first use, so importing the
package, or only its integer layer (``bounds``, ``counting``, ``errors``),
does not load numpy.
"""

from importlib import import_module

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "BoundResult", "CdcParams", "TableRow", "block_cardinalities",
        "johnson_anticode_upper", "johnson_iterated_upper",
        "load_reference_rows", "parallel_lower_bound",
        "reproduce_reference_table", "two_block_lower_bound"), "bounds"),
    **dict.fromkeys(("read_code", "write_code"), "codefile"),
    **dict.fromkeys((
        "CDC", "Subspace", "assemble_parallel", "canonicalize", "lift"),
        "construction"),
    **dict.fromkeys((
        "RankDistribution", "count_rank_matrices",
        "delsarte_rank_distribution", "gaussian_binomial",
        "truncated_rank_sum"), "counting"),
    **dict.fromkeys((
        "BudgetExceededError", "CodeFileError", "IncompatibleFieldError",
        "IncompatibleSpacesError", "InternalConsistencyError",
        "InvalidElementError", "InvalidParameterError",
        "RankDeficiencyError"), "errors"),
    **dict.fromkeys((
        "Extension", "Field", "MatrixGF", "SUPPORTED_Q", "extension_field",
        "field_of", "linearized_eval", "mat_rank", "mat_rref", "matrix"),
        "fields"),
    **dict.fromkeys((
        "DEFAULT_ENUM_BUDGET", "RankCode", "empirical_rank_distribution",
        "gabidulin_enumerate"), "gabidulin"),
    **dict.fromkeys((
        "DistanceReport", "VerificationReport", "min_distance_exhaustive",
        "min_distance_sampled", "reconcile", "subspace_distance"), "verify"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
