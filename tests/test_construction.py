"""Lifting, canonical forms, and assembly of the parallel construction."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from subspace_codes import construction
from subspace_codes.bounds import CdcParams, block_cardinalities, parallel_lower_bound
from subspace_codes.construction import (
    CDC,
    Subspace,
    assemble_parallel,
    canonicalize,
    lift,
)
from subspace_codes.errors import (
    BudgetExceededError,
    InternalConsistencyError,
    InvalidParameterError,
    RankDeficiencyError,
)
from subspace_codes.fields import field_of, mat_rank, mat_sub, matrix, unpack_row
from subspace_codes.gabidulin import (
    BUDGET_ENV_VAR,
    checked_sq_filter,
    gabidulin_enumerate,
)
from subspace_codes.verify import min_distance_exhaustive, subspace_distance


def all_binary_2x2():
    f = field_of(2)
    for flat in itertools.product(range(2), repeat=4):
        yield matrix(f, [list(flat[:2]), list(flat[2:])])


def test_lift_of_zero_word_is_identity_rows():
    f = field_of(2)
    sub = lift(matrix(f, [[0, 0, 0], [0, 0, 0]]))
    assert sub.ambient == 5
    assert sub.dim == 2
    assert sub.rows == (1, 2)  # packed unit rows
    assert [unpack_row(r, 2, 5) for r in sub.rows] == [[1, 0, 0, 0, 0],
                                                       [0, 1, 0, 0, 0]]


def test_lift_packs_identity_beside_word():
    f = field_of(3)
    word = matrix(f, [[1, 2], [0, 1]])
    sub = lift(word)
    assert [unpack_row(r, 3, 4) for r in sub.rows] == [[1, 0, 1, 2], [0, 1, 0, 1]]


def test_lift_is_injective():
    words = list(all_binary_2x2())
    left = {lift(w) for w in words}
    right = {lift(w, side="right") for w in words}
    assert len(left) == 16
    assert len(right) == 16
    with pytest.raises(InvalidParameterError):
        lift(words[0], side="middle")


def test_right_lift_spans_the_stated_rows():
    f = field_of(2)
    word = matrix(f, [[1, 1], [0, 1]])
    sub = lift(word, side="right")
    # row space of [word | I], canonicalized
    direct = canonicalize(matrix(f, [[1, 1, 1, 0], [0, 1, 0, 1]]))
    assert sub == direct


def test_lifted_distance_law_exhaustive():
    """Subspace distance of two left lifts is twice the rank distance.

    Exhaustive over all pairs of binary 2 x 2 words.
    """
    words = list(all_binary_2x2())
    lifts = [lift(w) for w in words]
    for i, a in enumerate(words):
        for j, b in enumerate(words):
            want = 2 * mat_rank(mat_sub(a, b))
            assert subspace_distance(lifts[i], lifts[j]) == want


def test_canonicalize_idempotent_and_basis_free():
    f = field_of(3)
    gen = matrix(f, [[1, 2, 0], [0, 1, 1]])
    sub = canonicalize(gen)
    assert canonicalize(matrix(f, [unpack_row(r, 3, 3) for r in sub.rows])) == sub
    # an invertible change of generator rows fixes the subspace; GF(3)
    # arithmetic is integer arithmetic mod 3
    for change in ([[1, 1], [0, 1]], [[2, 0], [1, 1]], [[0, 1], [1, 0]]):
        mixed = [[sum(a * g for a, g in zip(row, col)) % 3
                  for col in zip(*gen.to_lists())] for row in change]
        assert canonicalize(matrix(f, mixed)) == sub
    with pytest.raises(RankDeficiencyError):
        canonicalize(matrix(f, [[1, 2, 0], [2, 1, 0]]))


SIZES = [
    (2, 2, 2, 2, 0, 25),
    (2, 2, 2, 2, 1, 481),
    (2, 3, 2, 2, 0, 85),
    (2, 3, 2, 2, 1, 1789),
    (2, 3, 3, 2, 0, 855),
    (2, 3, 3, 2, 1, 555409),
    (2, 4, 4, 2, 0, 110911),
    (2, 4, 4, 4, 0, 4621),
    (3, 2, 2, 2, 0, 113),
]


@pytest.mark.parametrize("q, n, k, d, s, size", SIZES)
def test_assembled_sizes_match_bound(q, n, k, d, s, size):
    code = assemble_parallel(q, n, k, d, s)
    assert parallel_lower_bound(q, n, k, d, s).value == size
    assert len(code) == size
    assert code.distinct_count() == size
    assert code.round_sizes == block_cardinalities(q, n, k, d, s)


def test_assembly_is_deterministic():
    a = assemble_parallel(2, 2, 2, 2, 1)
    b = assemble_parallel(2, 2, 2, 2, 1)
    assert a.codes.tolist() == b.codes.tolist()
    assert a.round_sizes == b.round_sizes


def test_members_are_valid_subspaces():
    code = assemble_parallel(3, 2, 2, 2, 0)
    f = field_of(3)
    for i in range(len(code)):
        sub = Subspace(code.q, code.ambient, tuple(code.codes[i].tolist()))
        assert sub.dim == 2
        # rows are canonical: re-reducing changes nothing
        gen = matrix(f, [unpack_row(r, 3, sub.ambient) for r in sub.rows])
        assert canonicalize(gen) == sub


def test_two_round_code_against_manual_lifts():
    """The s = 0 assembly is exactly {[I | A]} union {[B | I]} with A from
    the full evaluation code and B from its rank-limited subcode."""
    q, n, k, d = 2, 3, 2, 2
    code = assemble_parallel(q, n, k, d, 0)
    got = {Subspace(q, code.ambient, tuple(rows))
           for rows in code.codes.tolist()}

    full = gabidulin_enumerate(q, n, k, d // 2)
    low = checked_sq_filter(full, k - d // 2)
    f = field_of(q)

    def word(rows):
        return matrix(f, [unpack_row(r, q, n) for r in rows])

    want = {lift(word(a)) for a in full.codewords.tolist()}
    want |= {lift(word(b), side="right") for b in low.codewords.tolist()}
    assert got == want


def test_pivot_columns_separate_rounds():
    """Round 0 members are [I | A], pivots exactly the first k columns; the
    tail round places its identity behind a rank-deficient word, so every
    tail member keeps at least one pivot inside the identity slot."""
    q, n, k = 2, 3, 2
    code = assemble_parallel(q, n, k, 2, 0)
    for i in range(len(code)):
        lists = [unpack_row(r, q, code.ambient) for r in code.codes[i].tolist()]
        pivots = [row.index(1) for row in lists]
        if i < code.round_sizes[0]:
            assert pivots == [0, 1]
            assert [row[:k] for row in lists] == [[1, 0], [0, 1]]
        else:
            assert max(pivots) >= n


def test_cross_round_distances_meet_claim():
    code = assemble_parallel(2, 2, 2, 2, 1)
    subs = [Subspace(code.q, code.ambient, tuple(rows))
            for rows in code.codes.tolist()]
    sizes = code.round_sizes
    rounds = np.repeat(np.arange(len(sizes)), sizes).tolist()
    pairs = 0
    for i in range(len(code)):
        for j in range(i + 1, len(code)):
            if rounds[i] == rounds[j]:
                continue
            assert subspace_distance(subs[i], subs[j]) >= 2
            pairs += 1
    blocks = block_cardinalities(2, 2, 2, 2, 1)
    want = sum(a * b for idx, a in enumerate(blocks)
               for b in blocks[idx + 1:])
    assert pairs == want


def test_assembly_budget_guard(monkeypatch):
    with pytest.raises(BudgetExceededError):
        assemble_parallel(2, 4, 4, 4, 1)  # 19203241 members > default budget
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    with pytest.raises(BudgetExceededError):
        assemble_parallel(2, 2, 2, 2, 1)
    monkeypatch.setenv(BUDGET_ENV_VAR, "481")
    code = assemble_parallel(2, 2, 2, 2, 1)
    assert len(code) == 481


def test_round_of_the_wrong_size_is_refused_before_it_is_written(monkeypatch):
    # one kept word short: round 1 of (2,2,2,2,1) has 8 * 16 members, not
    # the 9 * 16 that block_cardinalities predicts
    real = construction.checked_sq_filter

    def short(code, max_rank):
        kept = real(code, max_rank)
        return dataclasses.replace(kept, codewords=kept.codewords[:-1])

    monkeypatch.setattr(construction, "checked_sq_filter", short)
    with pytest.raises(InternalConsistencyError,
                       match="round of 128 members, predicted 144"):
        assemble_parallel(2, 2, 2, 2, 1)


def test_assembly_parameter_validation():
    with pytest.raises(InvalidParameterError):
        assemble_parallel(2, 2, 3, 2, 1)  # n < k
    with pytest.raises(InvalidParameterError):
        assemble_parallel(2, 4, 2, 4, 1)  # k < d
    with pytest.raises(InvalidParameterError):
        assemble_parallel(2, 2, 2, 3, 0)  # odd distance
    with pytest.raises(InvalidParameterError):
        assemble_parallel(2, 2, 2, 2, -1)


def test_member_row_layout():
    # member i is the row tuple codes[i]; row 0 comes first
    code = CDC(2, 2, 2, 2, [(0b01, 0b10)])
    assert code.codes.tolist() == [[0b01, 0b10]]
    assert CDC(3, 2, 2, 2, [(5, 7)]).codes.tolist() == [[5, 7]]


@pytest.mark.parametrize("q", [2, 3])
def test_code_layout_is_uint64_rows(q):
    code = assemble_parallel(q, 2, 2, 2, 1)
    assert code.codes.shape == (len(code), 2)
    assert code.codes.dtype == np.uint64
    assert code.codes.flags.c_contiguous


def test_distinct_count_sees_injected_duplicate():
    base = assemble_parallel(3, 2, 2, 2, 0)
    rows = base.codes.tolist()
    rows.insert(7, rows[40])
    code = CDC(base.q, base.ambient, base.k, base.d, rows)
    assert code.distinct_count() == len(set(map(tuple, code.codes.tolist())))
    assert code.distinct_count() == len(base) == len(code) - 1


def distinct_by_set(code):
    return len(set(map(tuple, code.codes.tolist())))


def duplicated_codes():
    """Codes with duplicates close together, far apart and repeated."""
    base = assemble_parallel(2, 2, 2, 2, 1)
    m = len(base)
    far = np.concatenate([base.codes[-1:], base.codes, base.codes[:1]])
    repeated = base.codes[np.arange(m) % 5]
    q3 = assemble_parallel(3, 2, 2, 2, 0)
    near = np.insert(q3.codes, 8, q3.codes[7], axis=0)
    return [CDC(2, base.ambient, 2, 2, far),
            CDC(2, base.ambient, 2, 2, repeated),
            CDC(3, q3.ambient, 2, 2, near),
            base, CDC(2, base.ambient, 2, 2, base.codes[:1]),
            CDC(2, base.ambient, 2, 2, [])]


def test_distinct_count_finds_duplicates_anywhere():
    codes = duplicated_codes()
    assert [c.distinct_count() for c in codes] == [481, 5, len(codes[2]) - 1,
                                                   481, 1, 0]
    assert [c.distinct_count() for c in codes] == [distinct_by_set(c)
                                                   for c in codes]


def every_key_collides(codes):
    return np.zeros(len(codes), dtype=np.uint64)


def keys_of_first_rows(codes):
    # members that share their first row share a key and the others keep
    # keys of their own, so runs of distinct rows under one key sit among
    # unique keys
    return codes[:, 0].copy()


def test_distinct_count_compares_rows_when_every_key_collides(monkeypatch):
    monkeypatch.setattr(construction, "_member_keys", every_key_collides)
    for code in duplicated_codes():
        assert code.distinct_count() == distinct_by_set(code)


def test_distinct_count_compares_rows_when_some_keys_collide(monkeypatch):
    monkeypatch.setattr(construction, "_member_keys", keys_of_first_rows)
    for code in duplicated_codes():
        assert code.distinct_count() == distinct_by_set(code)


def repeats_by_dict(code):
    """(earlier, later) pairs of each member and its nearest earlier copy,
    in later order, read off a dict of row tuples."""
    last, pairs = {}, []
    for j, rows in enumerate(map(tuple, code.codes.tolist())):
        if rows in last:
            pairs.append((last[rows], j))
        last[rows] = j
    return pairs


@pytest.mark.parametrize("keys", [None, every_key_collides, keys_of_first_rows])
def test_repeats_pair_each_member_with_its_nearest_earlier_copy(monkeypatch, keys):
    if keys is not None:
        monkeypatch.setattr(construction, "_member_keys", keys)
    for code in duplicated_codes():
        earlier, later = code.repeats()
        want = repeats_by_dict(code)
        assert sorted(zip(earlier.tolist(), later.tolist()),
                      key=lambda pair: pair[1]) == want
        assert code.distinct_count() == len(code) - len(earlier)
        # the exhaustive scan takes its distance 0 and witness from here
        report = min_distance_exhaustive(code)
        if want:
            assert (report.distance, report.witness) == (0, min(want))
            assert report.pairs_ranked == 0
        else:
            assert report.distance >= 2


def test_cdc_rejects_rows_past_uint64():
    with pytest.raises(InvalidParameterError, match=r"2\*\*64"):
        CDC(2, 65, 1, 2, [])
    top = CDC(2, 64, 1, 2, [(2 ** 64 - 1,)])
    assert top.codes.tolist() == [[2 ** 64 - 1]]


# (q, n, k, d, s) of the benchmark workloads
WORKLOAD_PARAMS = {
    "exhaustive-855": (2, 3, 3, 2, 0),
    "parallel-141k": (2, 2, 2, 2, 3),
    "mrd-roundtrip": (2, 5, 4, 4, 0),
    "q3-sampled": (3, 3, 3, 2, 0),
}


@pytest.mark.parametrize("p", WORKLOAD_PARAMS.values(), ids=WORKLOAD_PARAMS.keys())
def test_cdc_reads_round_labels_off_params(p):
    built = assemble_parallel(*p)
    code = CDC(built.q, built.ambient, built.k, built.d, built.codes,
               params=built.params)
    sizes = block_cardinalities(*p)
    assert code.round_sizes == built.round_sizes == sizes
    # the per-member labels that perfbench reads, derived from the sizes
    assert code.rounds.dtype == np.uint16
    assert code.rounds.tolist() == np.repeat(np.arange(len(sizes)), sizes).tolist()
    # round sizes that miss the member count give no rounds, not wrong ones
    short = CDC(built.q, built.ambient, built.k, built.d, built.codes[:-1],
                params=built.params)
    assert short.round_sizes is None and short.rounds is None


def test_cdc_holds_no_per_member_round_data():
    built = assemble_parallel(2, 2, 2, 2, 3)
    tracemalloc.start()
    try:
        code = CDC(built.q, built.ambient, built.k, built.d, built.codes,
                   params=built.params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.codes is built.codes
    # a uint16 label per member would take 2 * 141,201 bytes, 283 KB
    assert peak < 16_000


@pytest.mark.parametrize("make, error, match", [
    # per-member round labels of any shape, passed as a sixth positional
    # argument, bind to no field: params is keyword only
    (lambda c: CDC(c.q, c.ambient, c.k, c.d, c.codes,
                   np.zeros(300, dtype=np.uint16)),
     TypeError, r"takes 6 positional arguments but 7 were given"),
    (lambda c: CDC(c.q, c.ambient, c.k, c.d, c.codes[:100],
                   np.zeros(len(c), dtype=np.uint16)),
     TypeError, r"takes 6 positional arguments but 7 were given"),
    (lambda c: CDC(c.q, c.ambient, c.k, c.d, c.codes,
                   np.zeros((1, len(c)), dtype=np.uint16)),
     TypeError, r"takes 6 positional arguments but 7 were given"),
    (lambda c: CDC(c.q, c.ambient, c.k, c.d, c.codes,
                   params=CdcParams(2, 8, 2, 2, n=4, s=1)),
     InvalidParameterError,
     r"\(2, 8, 2, 2\) disagree with the code's \(2, 6, 2, 2\)"),
    (lambda c: CDC(c.q, c.ambient, c.k, c.d, c.codes[:100],
                   params=CdcParams(2, 8, 2, 2, n=4, s=1)),
     InvalidParameterError,
     r"\(2, 8, 2, 2\) disagree with the code's \(2, 6, 2, 2\)"),
], ids=["labels-short", "labels-long", "labels-2d", "params-ambient",
        "params-ambient-unlabelled"])
def test_cdc_rejects_labels_and_params_that_disagree(make, error, match):
    code = assemble_parallel(2, 2, 2, 2, 1)
    with pytest.raises(error, match=match):
        make(code)


def test_subspace_accessors():
    code = assemble_parallel(2, 2, 2, 2, 0)
    sub = Subspace(code.q, code.ambient, tuple(code.codes[0].tolist()))
    assert isinstance(sub, Subspace)
    assert sub.q == 2 and sub.ambient == 4
    assert isinstance(code, CDC)
    assert code.params is not None and code.params.s == 0
