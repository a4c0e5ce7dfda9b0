"""Lower and upper bounds, and the shipped reference table."""

import itertools

import pytest

from subspace_codes.bounds import (
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
from subspace_codes.counting import gaussian_binomial
from subspace_codes.errors import InvalidParameterError


def test_two_block_anchors():
    assert two_block_lower_bound(2, 2, 2, 2).value == 25
    assert two_block_lower_bound(2, 3, 2, 2).value == 85
    assert two_block_lower_bound(2, 4, 4, 4).value == 4621
    assert two_block_lower_bound(2, 5, 5, 4).value == 1178311
    res = two_block_lower_bound(2, 3, 2, 2)
    assert res.kind == "two-block"
    assert res.params.ambient == 5


def test_parallel_anchors():
    assert parallel_lower_bound(2, 2, 2, 2, 1).value == 481
    assert parallel_lower_bound(2, 4, 4, 4, 1).value == 19203241
    assert parallel_lower_bound(2, 5, 5, 4, 1).value == 1252379805361
    assert parallel_lower_bound(3, 5, 5, 4, 1).value == 12399152568347096641


def test_parallel_at_zero_rounds_is_two_block():
    for q in (2, 3):
        for d in (2, 4):
            for n in range(d, 7):
                for k in range(d, n + 1):
                    assert (parallel_lower_bound(q, n, k, d, 0).value
                            == two_block_lower_bound(q, n, k, d).value)


def test_two_block_beats_plain_lifting():
    # the rank-limited tail is nonempty whenever k >= d, so the two-block
    # count must exceed the single lifted code of q^(n (k - d/2 + 1)) words
    # it extends
    for q in (2, 3):
        for d in (2, 4):
            for n in range(d, 7):
                for k in range(d, n + 1):
                    assert (two_block_lower_bound(q, n, k, d).value
                            > q ** (n * (k - d // 2 + 1)))


def test_parallel_grows_with_rounds():
    for q, n, k, d in [(2, 2, 2, 2), (2, 3, 3, 2), (2, 4, 4, 4), (3, 2, 2, 2)]:
        values = [parallel_lower_bound(q, n, k, d, s).value for s in range(4)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_block_cardinalities():
    assert block_cardinalities(2, 2, 2, 2, 1) == [256, 144, 81]
    assert block_cardinalities(2, 4, 4, 4, 1) == [16777216, 2150400, 275625]
    for q, n, k, d, s in [(2, 2, 2, 2, 0), (2, 2, 2, 2, 3), (2, 4, 4, 4, 1),
                          (3, 3, 3, 2, 2), (4, 2, 2, 2, 1)]:
        blocks = block_cardinalities(q, n, k, d, s)
        assert len(blocks) == s + 2
        assert all(b > 0 for b in blocks)
        assert sum(blocks) == parallel_lower_bound(q, n, k, d, s).value


def test_johnson_anticode_anchors():
    assert johnson_anticode_upper(2, 6, 3, 4).value == 93
    assert johnson_anticode_upper(2, 8, 4, 4).value == 6477
    # distance 2 collapses the bound to the full Grassmannian count
    for q, n, k in [(2, 5, 2), (3, 4, 2), (2, 6, 3)]:
        assert johnson_anticode_upper(q, n, k, 2).value == gaussian_binomial(n, k, q)
    assert johnson_anticode_upper(2, 6, 3, 4).kind == "johnson-anticode"


def test_johnson_iterated_anchors():
    res = johnson_iterated_upper(2, 8, 6, 4)
    assert res.value == 306
    assert res.kind == "johnson-iterated"
    # the default seed for these parameters is 18; seeding explicitly with
    # the same value must not change anything
    assert johnson_iterated_upper(2, 8, 6, 4, base=18).value == 306
    assert johnson_iterated_upper(2, 13, 4, 3).value == 1597245
    # a strictly better seed propagates
    assert johnson_iterated_upper(2, 8, 6, 4, base=17).value < 306
    with pytest.raises(InvalidParameterError):
        johnson_iterated_upper(2, 8, 6, 4, base=0)


def test_iterated_chain_at_spread_dimension_returns_seed():
    # k == d/2 leaves nothing to iterate: the bound is the seed itself
    res = johnson_iterated_upper(2, 6, 4, 2)
    assert res.value == (2 ** 6 - 1) // (2 ** 2 - 1)
    assert johnson_iterated_upper(2, 6, 4, 2, base=7).value == 7


def test_lower_bounds_below_anticode_upper():
    for q, n, k, d, s in [(2, 2, 2, 2, 0), (2, 2, 2, 2, 1), (2, 2, 2, 2, 2),
                          (2, 3, 2, 2, 1), (2, 3, 3, 2, 1), (2, 4, 4, 4, 0),
                          (2, 4, 4, 4, 1), (3, 2, 2, 2, 1), (3, 4, 4, 4, 1),
                          (5, 2, 2, 2, 1)]:
        low = parallel_lower_bound(q, n, k, d, s)
        high = johnson_anticode_upper(q, low.params.ambient, k, d)
        assert low.value <= high.value


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        CdcParams(2, 6, 3, 2).validate()  # odd distance
    with pytest.raises(InvalidParameterError):
        CdcParams(2, 6, 2, 7).validate()  # k > ambient
    with pytest.raises(InvalidParameterError):
        CdcParams(1, 6, 2, 2).validate()
    with pytest.raises(InvalidParameterError):
        CdcParams(2, 6, 2, 2, n=2).validate()  # n without s
    with pytest.raises(InvalidParameterError):
        CdcParams(2, 6, 2, 2, n=2, s=-1).validate()
    with pytest.raises(InvalidParameterError):
        CdcParams(2, 7, 2, 2, n=2, s=1).validate()  # ambient mismatch
    with pytest.raises(InvalidParameterError):
        CdcParams(2, 8, 4, 2, n=4, s=1).validate()  # k < d in a construction
    with pytest.raises(InvalidParameterError):
        parallel_lower_bound(2, 2, 3, 2, 1)  # n < k
    ok = CdcParams(2, 6, 2, 2, n=2, s=1).validate()
    assert ok.ambient == 6


def test_load_reference_rows():
    rows = load_reference_rows()
    assert len(rows) == 56
    assert {r.q for r in rows} == {2, 3, 4, 5, 7, 8, 9}
    assert all(isinstance(r, TableRow) for r in rows)
    assert all(r.new > 0 and r.old > 0 for r in rows)
    # spot anchors, one per distance/dimension family
    byk = {(r.q, r.ambient, r.d, r.k): r for r in rows}
    assert byk[(2, 15, 4, 5)].new == 1252379805361
    assert byk[(2, 18, 6, 6)].new == 282957166112041
    assert byk[(3, 15, 4, 5)].new == 12399152568347096641


def test_every_reference_row_recomputes_exactly():
    repro = reproduce_reference_table()
    assert len(repro) == 56
    bad = [r for r in repro if not r.matches]
    assert bad == []


def test_rows_not_beating_prior_record():
    """The shipped table contains six parameter sets whose prior record
    already exceeds the parallel bound; everything else improves."""
    repro = reproduce_reference_table()
    flat = sorted((r.row.q, r.row.ambient, r.row.d, r.row.k)
                  for r in repro if not r.improves)
    assert flat == [(3, 18, 4, 5), (4, 18, 4, 5), (5, 18, 4, 5),
                    (7, 18, 4, 5), (8, 18, 4, 5), (9, 18, 4, 5)]
