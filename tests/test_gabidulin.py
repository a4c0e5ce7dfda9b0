"""Explicit enumeration of evaluation codes and the rank filter."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subspace_codes.counting import delsarte_rank_distribution, truncated_rank_sum
from subspace_codes.errors import (
    BudgetExceededError,
    InternalConsistencyError,
    InvalidParameterError,
)
from subspace_codes.fields import (
    extension_field,
    field_of,
    linearized_eval,
    pack_row,
    packed_rank,
    unpack_row,
)
from subspace_codes.gabidulin import (
    BUDGET_ENV_VAR,
    DEFAULT_ENUM_BUDGET,
    RankCode,
    checked_sq_filter,
    empirical_rank_distribution,
    gabidulin_enumerate,
    resolve_enum_budget,
)

# shapes small enough to enumerate outright, covering square and wide
# matrices and every flavour of base field (prime, prime power)
GRID = [
    (2, 3, 3, 2),
    (2, 3, 3, 3),
    (2, 4, 4, 2),
    (2, 4, 3, 2),
    (3, 2, 2, 2),
    (3, 3, 2, 2),
    (4, 2, 2, 2),
    (5, 2, 2, 2),
    (8, 2, 2, 2),
    (9, 2, 2, 2),
]




def oracle_word(q, n, k, delta, t):
    """Packed rows of message t, evaluated one point at a time."""
    ext = extension_field(q, n)
    E = ext.ext
    coeffs = [(t // E.q ** j) % E.q for j in range(k - delta + 1)]
    return [pack_row(ext.expand(linearized_eval(coeffs, x, q, E)), q)
            for x in ext.basis[:k]]


def ranks(code):
    f = field_of(code.q)
    return [packed_rank(w, f, code.n) for w in code.codewords.tolist()]


@lru_cache(maxsize=None)
def enumerated(q, n, k, delta):
    return gabidulin_enumerate(q, n, k, delta)


# kappa >= 2 over fields with e > 1 pins the q^j exponent of the basis words
@pytest.mark.parametrize("q, n, k, delta", GRID + [
    (7, 2, 2, 2), (4, 2, 2, 1), (8, 2, 2, 1), (9, 2, 2, 1), (4, 3, 2, 1)])
def test_every_word_matches_scalar_oracle(q, n, k, delta):
    code = gabidulin_enumerate(q, n, k, delta)
    assert code.codewords.dtype == np.uint64
    assert code.codewords.flags.c_contiguous
    assert code.codewords.shape == (code.cardinality, k)
    for t, word in enumerate(code.codewords.tolist()):
        assert word == oracle_word(q, n, k, delta, t)


@pytest.mark.parametrize("shape", [(2, 5, 4, 2), (3, 3, 3, 1)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_messages_match_scalar_oracle(shape, data):
    code = enumerated(*shape)
    t = data.draw(st.integers(0, len(code) - 1))
    assert code.codewords[t].tolist() == oracle_word(*shape, t)


@pytest.mark.parametrize("q, n, k, delta", GRID)
def test_empirical_distribution_matches_delsarte(q, n, k, delta):
    code = gabidulin_enumerate(q, n, k, delta)
    expect = delsarte_rank_distribution(q, n, k, delta)
    empirical = empirical_rank_distribution(code)
    for r in range(k + 1):
        assert empirical.get(r, 0) == expect.counts[r]
    assert len(code) == code.cardinality == q ** (n * (k - delta + 1))


@pytest.mark.parametrize("q, n, k, delta", GRID)
def test_minimum_nonzero_rank_is_delta(q, n, k, delta):
    code = gabidulin_enumerate(q, n, k, delta)
    assert min(set(ranks(code)) - {0}) == delta


def test_code_is_linear():
    for q, n, k, delta in [(2, 3, 3, 2), (3, 3, 2, 2), (4, 2, 2, 2), (9, 2, 2, 2)]:
        f = field_of(q)
        code = gabidulin_enumerate(q, n, k, delta)
        words = [tuple(w) for w in code.codewords.tolist()]
        members = set(words)
        assert len(members) == len(code)
        picks = words[::7]
        for a in picks:
            for b in picks:
                diff = tuple(
                    pack_row([f.sub(x, y) for x, y in
                              zip(unpack_row(u, q, n), unpack_row(v, q, n))], q)
                    for u, v in zip(a, b))
                assert diff in members


def test_message_order_is_little_endian():
    q, n, k, delta = 2, 4, 3, 2
    code = gabidulin_enumerate(q, n, k, delta)
    assert code.codewords[0].tolist() == [0] * k
    # message 1 is f(x) = x; with the default power basis the first k
    # evaluation points expand to unit vectors
    ident = code.codewords[1].tolist()
    for i in range(k):
        assert unpack_row(ident[i], q, n) == [1 if j == i else 0 for j in range(n)]
    # message Q is f(x) = x^q, the Frobenius applied to each point
    ext = extension_field(q, n)
    frob = code.codewords[ext.ext.q].tolist()
    for i in range(k):
        x = ext.basis[i]
        assert tuple(unpack_row(frob[i], q, n)) == ext.expand(ext.ext.pow(x, q))


def test_enumeration_is_deterministic():
    a = gabidulin_enumerate(3, 2, 2, 2)
    b = gabidulin_enumerate(3, 2, 2, 2)
    assert np.array_equal(a.codewords, b.codewords)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        gabidulin_enumerate(2, 3, 4, 2)  # k > n
    with pytest.raises(InvalidParameterError):
        gabidulin_enumerate(2, 3, 3, 0)
    with pytest.raises(InvalidParameterError):
        gabidulin_enumerate(2, 3, 2, 3)  # delta > k
    with pytest.raises(InvalidParameterError):
        gabidulin_enumerate(6, 3, 3, 2)  # unsupported base order


def test_budget_guard():
    # 2^(8 * 4) codewords is far beyond the default budget
    with pytest.raises(BudgetExceededError) as err:
        gabidulin_enumerate(2, 8, 5, 2)
    assert BUDGET_ENV_VAR in str(err.value)
    # an explicit budget unblocks exactly at the cardinality
    small = gabidulin_enumerate(2, 3, 3, 3, budget=8)
    assert len(small) == 8
    with pytest.raises(BudgetExceededError):
        gabidulin_enumerate(2, 3, 3, 3, budget=7)


def test_budget_refusal_comes_before_the_span_is_allocated():
    # 2^32 words of 5 rows of 8 digits would be 171 GB of span digits, and
    # the GF(2^8) tables take 1.1 MB on first use: the refusal builds neither
    entries = extension_field.cache_info().currsize
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            gabidulin_enumerate(2, 8, 5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert extension_field.cache_info().currsize == entries
    # so a shape too large to enumerate is refused for its size even when
    # GF(2^9) has no modulus on record
    with pytest.raises(BudgetExceededError):
        gabidulin_enumerate(2, 9, 5, 2)
    assert extension_field.cache_info().currsize == entries


def test_budget_resolution(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert resolve_enum_budget() == DEFAULT_ENUM_BUDGET
    assert resolve_enum_budget(12) == 12
    monkeypatch.setenv(BUDGET_ENV_VAR, "99")
    assert resolve_enum_budget() == 99
    # explicit argument wins over the environment
    assert resolve_enum_budget(7) == 7
    monkeypatch.setenv(BUDGET_ENV_VAR, "not-a-number")
    with pytest.raises(InvalidParameterError):
        resolve_enum_budget()
    with pytest.raises(InvalidParameterError):
        resolve_enum_budget(0)


def test_budget_env_blocks_enumeration(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    with pytest.raises(BudgetExceededError):
        gabidulin_enumerate(2, 3, 3, 2)


def test_sq_filter_counts():
    for q, n, k, delta in [(2, 3, 3, 2), (2, 4, 4, 2), (3, 3, 2, 2)]:
        code = gabidulin_enumerate(q, n, k, delta)
        for max_rank in range(delta, k + 1):
            kept = checked_sq_filter(code, max_rank)
            assert len(kept) == truncated_rank_sum(q, n, k, delta, delta,
                                                   max_rank)
            assert all(0 < r <= max_rank for r in ranks(kept))


def test_sq_filter_edges():
    code = gabidulin_enumerate(2, 3, 3, 2)
    assert len(checked_sq_filter(code, 0)) == 0
    with pytest.raises(InvalidParameterError):
        checked_sq_filter(code, 4)
    with pytest.raises(InvalidParameterError):
        checked_sq_filter(code, -1)


def test_sq_filter_preserves_order():
    for q, n, k, delta in [(2, 4, 4, 2), (3, 3, 2, 2)]:
        code = gabidulin_enumerate(q, n, k, delta)
        kept = checked_sq_filter(code, k - 1)
        index = {tuple(w): t for t, w in enumerate(code.codewords.tolist())}
        positions = [index[tuple(w)] for w in kept.codewords.tolist()]
        assert positions == sorted(positions)
        assert positions == [t for t, r in enumerate(ranks(code)) if 0 < r <= k - 1]


def test_checked_sq_filter_rejects_partial_codes():
    code = gabidulin_enumerate(2, 3, 3, 2)
    once = checked_sq_filter(code, 2)
    assert len(once) == truncated_rank_sum(2, 3, 3, 2, 2, 2)
    with pytest.raises(InvalidParameterError):
        checked_sq_filter(once, 2)


def test_checked_filter_detects_tampering():
    code = gabidulin_enumerate(2, 3, 3, 2)
    # overwrite one rank-2 word with a copy of a rank-3 word: the length
    # stays at cardinality, so only the distribution cross-check fires
    word_ranks = ranks(code)
    words = code.codewords.copy()
    words[word_ranks.index(2)] = words[word_ranks.index(3)]
    tampered = RankCode(code.q, code.n, code.k, code.delta, words)
    assert len(tampered) == code.cardinality
    with pytest.raises(InternalConsistencyError):
        checked_sq_filter(tampered, 2)
