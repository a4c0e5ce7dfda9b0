"""The package top level: every public name, loaded on first use."""

import importlib

import pytest

import subspace_codes

# the public names, each with the submodule that defines it
PUBLIC = {
    "bounds": ("BoundResult", "CdcParams", "TableRow", "block_cardinalities",
               "johnson_anticode_upper", "johnson_iterated_upper",
               "load_reference_rows", "parallel_lower_bound",
               "reproduce_reference_table", "two_block_lower_bound"),
    "codefile": ("read_code", "write_code"),
    "construction": ("CDC", "Subspace", "assemble_parallel", "canonicalize",
                     "lift"),
    "counting": ("RankDistribution", "count_rank_matrices",
                 "delsarte_rank_distribution", "gaussian_binomial",
                 "truncated_rank_sum"),
    "errors": ("BudgetExceededError", "CodeFileError",
               "IncompatibleFieldError", "IncompatibleSpacesError",
               "InternalConsistencyError", "InvalidElementError",
               "InvalidParameterError", "RankDeficiencyError"),
    "fields": ("Extension", "Field", "MatrixGF", "SUPPORTED_Q",
               "extension_field", "field_of", "linearized_eval", "mat_rank",
               "mat_rref", "matrix"),
    "gabidulin": ("DEFAULT_ENUM_BUDGET", "RankCode",
                  "empirical_rank_distribution", "gabidulin_enumerate"),
    "verify": ("DistanceReport", "VerificationReport",
               "min_distance_exhaustive", "min_distance_sampled",
               "reconcile", "subspace_distance"),
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


def test_the_public_names_are_the_fifty_of_all():
    assert len(NAMES) == 50
    assert sorted(subspace_codes.__all__) == sorted(n for _, n in NAMES)


@pytest.mark.parametrize("module, name", NAMES)
def test_each_public_name_is_its_submodules_object(module, name):
    submodule = importlib.import_module(f"subspace_codes.{module}")
    assert getattr(subspace_codes, name) is getattr(submodule, name)
    assert name in dir(subspace_codes)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from subspace_codes import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(subspace_codes.__all__)
    assert namespace["CDC"] is subspace_codes.construction.CDC


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError,
                       match="module 'subspace_codes' has no attribute 'nope'"):
        subspace_codes.nope


def test_version():
    assert subspace_codes.__version__ == "0.1.0"
