"""Gaussian binomials and the rank-weight enumerator of maximal rank codes."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from subspace_codes.counting import (
    RankDistribution,
    count_rank_matrices,
    delsarte_rank_distribution,
    gaussian_binomial,
    truncated_rank_sum,
)
from subspace_codes.errors import InvalidParameterError
from subspace_codes.fields import field_of, mat_rank, matrix


def subspace_count_oracle(n, k, q):
    """Count k-dim subspaces of GF(q)^n by brute force over row spaces."""
    f = field_of(q)
    spaces = set()
    for flat in itertools.product(range(q), repeat=n * k):
        rows = [list(flat[r * n:(r + 1) * n]) for r in range(k)]
        m = matrix(f, rows)
        if mat_rank(m) != k:
            continue
        span = frozenset(
            tuple(_combo(f, coeffs, rows, n))
            for coeffs in itertools.product(range(q), repeat=k))
        spaces.add(span)
    return len(spaces)


def _combo(f, coeffs, rows, n):
    v = [0] * n
    for c, row in zip(coeffs, rows):
        v = [f.add(x, f.mul(c, y)) for x, y in zip(v, row)]
    return v


def test_gaussian_binomial_anchors():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 2, 2) == 651
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 1, 2) == 31
    assert gaussian_binomial(0, 0, 2) == 1
    assert gaussian_binomial(3, 3, 7) == 1


def test_gaussian_binomial_against_enumeration():
    assert gaussian_binomial(4, 2, 2) == subspace_count_oracle(4, 2, 2)
    assert gaussian_binomial(3, 1, 3) == subspace_count_oracle(3, 1, 3)
    assert gaussian_binomial(3, 2, 2) == subspace_count_oracle(3, 2, 2)


def test_gaussian_binomial_symmetry_and_recurrence():
    for q in (2, 3, 4):
        for n in range(13):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
                if 0 < k:
                    # q-Pascal rule
                    lhs = gaussian_binomial(n, k, q)
                    rhs = (gaussian_binomial(n - 1, k - 1, q)
                           + q ** k * gaussian_binomial(n - 1, k, q))
                    assert lhs == rhs


def test_gaussian_binomial_out_of_range_and_bad_q():
    assert gaussian_binomial(4, 5, 2) == 0
    assert gaussian_binomial(4, -1, 2) == 0
    with pytest.raises(InvalidParameterError):
        gaussian_binomial(4, 2, 1)
    with pytest.raises(InvalidParameterError):
        gaussian_binomial(4, 2, 0)
    for q in (6, 10, 12):  # no field has these orders
        with pytest.raises(InvalidParameterError, match="prime power"):
            gaussian_binomial(4, 2, q)
        with pytest.raises(InvalidParameterError, match="prime power"):
            delsarte_rank_distribution(q, 4, 4, 2)


def matrix_rank_census(q, m, n):
    """Rank histogram of every m x n matrix over GF(q), by brute force."""
    f = field_of(q)
    hist = {}
    for flat in itertools.product(range(q), repeat=m * n):
        mat = matrix(f, [list(flat[r * n:(r + 1) * n]) for r in range(m)])
        r = mat_rank(mat)
        hist[r] = hist.get(r, 0) + 1
    return hist


def test_count_rank_matrices_examples():
    assert count_rank_matrices(2, 2, 2, 1) == 9
    assert count_rank_matrices(2, 4, 4, 4) == 20160
    assert count_rank_matrices(3, 2, 2, 0) == 1
    # 1 + 21 + 42 = 64 covers every 3 x 2 binary matrix
    assert count_rank_matrices(2, 3, 2, 2) == 42
    assert count_rank_matrices(2, 3, 2, 1) == 21
    assert count_rank_matrices(2, 3, 2, 0) == 1


def test_count_rank_matrices_against_census():
    census = matrix_rank_census(2, 2, 2)
    for r, c in census.items():
        assert count_rank_matrices(2, 2, 2, r) == c
    assert sum(census.values()) == 16
    census3 = matrix_rank_census(3, 2, 2)
    for r, c in census3.items():
        assert count_rank_matrices(3, 2, 2, r) == c


def test_count_rank_matrices_validation():
    with pytest.raises(InvalidParameterError):
        count_rank_matrices(2, 2, 3, 3)  # r > min(m, n)
    with pytest.raises(InvalidParameterError):
        count_rank_matrices(2, 2, 2, -1)


def test_rank_distribution_anchor():
    dist = delsarte_rank_distribution(2, 4, 4, 2)
    assert dist.counts == {0: 1, 1: 0, 2: 525, 3: 2250, 4: 1320}
    assert dist.total() == 2 ** (4 * 3)


def test_rank_distribution_sum_identity_grid():
    for q in (2, 3):
        for m in range(1, 6):
            for nmin in range(1, m + 1):
                for d in range(1, nmin + 1):
                    dist = delsarte_rank_distribution(q, m, nmin, d)
                    assert dist.total() == q ** (m * (nmin - d + 1))
                    assert dist.counts[0] == 1
                    assert all(dist.counts[r] == 0 for r in range(1, d))
                    assert all(c >= 0 for c in dist.counts.values())


def test_rank_distribution_with_unit_distance_counts_all_matrices():
    """d = 1 makes the code the full matrix space, so the distribution
    must coincide with the plain rank census."""
    for q, m, nmin in [(2, 3, 2), (2, 4, 3), (3, 3, 3), (2, 5, 5)]:
        dist = delsarte_rank_distribution(q, m, nmin, 1)
        for r in range(nmin + 1):
            assert dist.counts[r] == count_rank_matrices(q, m, nmin, r)


def test_rank_distribution_validation():
    with pytest.raises(InvalidParameterError):
        delsarte_rank_distribution(2, 4, 5, 2)  # nmin > m
    with pytest.raises(InvalidParameterError):
        delsarte_rank_distribution(2, 4, 4, 0)
    with pytest.raises(InvalidParameterError):
        delsarte_rank_distribution(2, 4, 4, 5)  # d > nmin
    with pytest.raises(InvalidParameterError):
        delsarte_rank_distribution(1, 4, 4, 2)


def test_truncated_rank_sum():
    assert truncated_rank_sum(2, 4, 4, 2, 2, 2) == 525
    assert truncated_rank_sum(2, 4, 4, 2, 2, 4) == 525 + 2250 + 1320
    assert truncated_rank_sum(2, 4, 4, 2, 3, 2) == 0  # empty range
    with pytest.raises(InvalidParameterError):
        truncated_rank_sum(2, 4, 4, 2, 1, 2)  # below the code's distance
    with pytest.raises(InvalidParameterError):
        truncated_rank_sum(2, 4, 4, 2, 2, 5)  # beyond nmin


@given(st.sampled_from([2, 3]), st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_distribution_total_is_mrd_cardinality(q, m, data):
    nmin = data.draw(st.integers(1, m))
    d = data.draw(st.integers(1, nmin))
    dist = delsarte_rank_distribution(q, m, nmin, d)
    assert isinstance(dist, RankDistribution)
    assert sum(dist.counts.values()) == q ** (m * (nmin - d + 1))
