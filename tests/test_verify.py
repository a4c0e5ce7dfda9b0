"""Distance computation, exhaustive and sampled scans, reconciliation."""

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from subspace_codes.construction import (
    CDC,
    Subspace,
    assemble_parallel,
    canonicalize,
    lift,
)
from subspace_codes.errors import (
    BudgetExceededError,
    IncompatibleSpacesError,
    InvalidParameterError,
)
from subspace_codes.fields import (
    CHUNK,
    field_of,
    mat_rank,
    matrix,
    packed_rank,
    packed_rref,
    unpack_row,
)
from subspace_codes.gabidulin import gabidulin_enumerate
from subspace_codes.verify import (
    LCG_INCREMENT,
    LCG_MASK,
    LCG_MULTIPLIER,
    _lcg_jump,
    lcg_stream,
    min_distance_exhaustive,
    min_distance_sampled,
    reconcile,
    subspace_distance,
)


def member(code, i):
    return Subspace(code.q, code.ambient, tuple(code.codes[i].tolist()))


def grassmannian(q, n, k):
    """Every k-dim subspace of GF(q)^n, canonical, by brute force."""
    f = field_of(q)
    seen = {}
    for flat in itertools.product(range(q), repeat=k * n):
        m = matrix(f, [list(flat[r * n:(r + 1) * n]) for r in range(k)])
        if mat_rank(m) < k:
            continue
        sub = canonicalize(m)
        seen[sub.rows] = sub
    return list(seen.values())


def lifted_code(q, n, k, delta):
    code = gabidulin_enumerate(q, n, k, delta)
    f = field_of(q)
    subs = [lift(matrix(f, [unpack_row(r, q, n) for r in w]))
            for w in code.codewords.tolist()]
    return CDC(q, k + n, k, 2 * delta, [sub.rows for sub in subs])


def test_distance_basics():
    f = field_of(2)
    u = canonicalize(matrix(f, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    w = canonicalize(matrix(f, [[0, 0, 1, 0], [0, 0, 0, 1]]))
    assert subspace_distance(u, u) == 0
    assert subspace_distance(u, w) == 4
    assert subspace_distance(w, u) == 4
    v = canonicalize(matrix(f, [[1, 0, 0, 0], [0, 0, 1, 0]]))
    assert subspace_distance(u, v) == 2


def test_distance_rejects_mismatched_spaces():
    f2, f3 = field_of(2), field_of(3)
    u = canonicalize(matrix(f2, [[1, 0, 0]]))
    w3 = canonicalize(matrix(f3, [[1, 0, 0]]))
    wlong = canonicalize(matrix(f2, [[1, 0, 0, 0]]))
    with pytest.raises(IncompatibleSpacesError):
        subspace_distance(u, w3)
    with pytest.raises(IncompatibleSpacesError):
        subspace_distance(u, wlong)


@pytest.mark.parametrize("params", [(2, 2, 2, 2, 1), (3, 2, 2, 2, 0)],
                         ids=["binary", "ternary"])
def test_references_read_numpy_rows_as_ints(params):
    """The scalar references take code.codes rows as they are stored.

    np.uint64 rows give the same ranks, rrefs (as Python ints) and
    distances as the same rows as Python ints, and no numpy warning.
    """
    code = assemble_parallel(*params)
    f, width = field_of(code.q), code.ambient
    picks = range(0, len(code), len(code) // 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, j in itertools.combinations(picks, 2):
            stored = list(code.codes[i]) + list(code.codes[j])
            ints = code.codes[i].tolist() + code.codes[j].tolist()
            assert packed_rank(stored, f, width) == packed_rank(ints, f, width)
            rref = packed_rref(stored, f, width)
            assert rref == packed_rref(ints, f, width)
            assert all(type(v) is int for v in rref)
            u, w = (Subspace(code.q, width, tuple(code.codes[t])) for t in (i, j))
            assert subspace_distance(u, w) == subspace_distance(
                member(code, i), member(code, j))


def test_distance_is_a_metric_on_small_grassmannian():
    """Symmetry, zero law, and the triangle inequality over all of G_2(4, 2)."""
    subs = grassmannian(2, 4, 2)
    assert len(subs) == 35
    dist = [[subspace_distance(a, b) for b in subs] for a in subs]
    for i in range(35):
        assert dist[i][i] == 0
        for j in range(35):
            assert dist[i][j] == dist[j][i]
            assert (dist[i][j] == 0) == (i == j)
            # equidimensional spaces have even distance
            assert dist[i][j] % 2 == 0
    for i in range(35):
        for j in range(35):
            for l in range(35):
                assert dist[i][l] <= dist[i][j] + dist[j][l]


def test_exhaustive_distance_of_lifted_codes():
    code = lifted_code(2, 3, 3, 2)
    assert len(code) == 64
    report = min_distance_exhaustive(code)
    assert report.distance == 4
    assert report.mode == "exhaustive"
    assert report.pairs_checked == 64 * 63 // 2
    assert not report.vacuous
    i, j = report.witness
    assert subspace_distance(member(code, i), member(code, j)) == 4

    small = lifted_code(2, 2, 2, 1)
    assert len(small) == 16
    assert min_distance_exhaustive(small).distance == 2


def test_exhaustive_distance_general_field_path():
    code = assemble_parallel(3, 2, 2, 2, 0)
    report = min_distance_exhaustive(code)
    assert report.distance == 2
    assert report.pairs_checked == 113 * 112 // 2


def test_exhaustive_pair_budget():
    code = lifted_code(2, 2, 2, 1)
    with pytest.raises(BudgetExceededError) as err:
        min_distance_exhaustive(code, pair_budget=10)
    assert "sampled" in str(err.value)


def test_vacuous_reports():
    code = lifted_code(2, 2, 2, 1)
    lonely = CDC(code.q, code.ambient, code.k, code.d, code.codes[:1])
    report = min_distance_exhaustive(lonely)
    assert report.vacuous
    assert report.distance == 2 * code.ambient
    assert report.pairs_checked == 0
    sampled = min_distance_sampled(lonely, 100)
    assert sampled.vacuous


def test_lcg_constants_and_stream():
    # re-derive the first words from the recurrence directly
    state = 42
    expect = []
    for _ in range(4):
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) & LCG_MASK
        expect.append(state)
    stream = lcg_stream(42)
    got = [next(stream) for _ in range(4)]
    assert got == expect
    assert LCG_MASK == 2 ** 64 - 1
    # a different seed diverges immediately
    assert next(lcg_stream(43)) != expect[0]


def test_sampled_is_deterministic():
    code = assemble_parallel(2, 2, 2, 2, 1)
    a = min_distance_sampled(code, 500, seed=42)
    b = min_distance_sampled(code, 500, seed=42)
    assert (a.distance, a.witness, a.pairs_checked) == (
        b.distance, b.witness, b.pairs_checked)
    assert a.mode == "sampled"
    assert a.samples == 500 and a.seed == 42


def test_sampled_q3_witness_is_pinned():
    # the benchmark's q3-sampled scan at seed 42
    report = min_distance_sampled(assemble_parallel(3, 3, 3, 2, 0), 10_000,
                                  seed=42)
    assert as_tuple(report) == (2, (18415, 25799), 11_000)


def test_sampled_stratified_topup_counts_cross_round_pairs():
    code = assemble_parallel(2, 2, 2, 2, 1)
    report = min_distance_sampled(code, 500, seed=42)
    # 500 uniform pairs plus ceil(500 / 10) cross-round pairs
    assert report.pairs_checked == 550
    assert report.distance == 2


def test_sampled_without_round_labels_draws_plain_pairs():
    code = lifted_code(2, 3, 3, 2)
    report = min_distance_sampled(code, 100, seed=7)
    assert report.pairs_checked == 100
    assert report.distance >= 4


def test_sampled_saturation_delegates_to_exhaustive():
    code = lifted_code(2, 2, 2, 1)  # 120 pairs
    report = min_distance_sampled(code, 10 ** 4, seed=0)
    assert report.mode == "exhaustive"
    assert report.distance == 2
    assert report.pairs_checked == 120


def test_sampled_validation():
    code = lifted_code(2, 2, 2, 1)
    with pytest.raises(InvalidParameterError):
        min_distance_sampled(code, 0)


def test_sampled_never_beats_exhaustive():
    code = assemble_parallel(2, 3, 2, 2, 0)
    exact = min_distance_exhaustive(code).distance
    for seed in range(5):
        assert min_distance_sampled(code, 200, seed=seed).distance >= exact


def test_reconcile_pass():
    code = assemble_parallel(2, 2, 2, 2, 1)
    report = reconcile(code, expected_size=481, claimed_distance=2)
    assert report.passed
    assert report.stored_size == report.distinct_size == 481
    assert report.observed_distance == 2
    assert report.distance_mode == "exhaustive"
    assert report.notes == []
    assert report.runtime_seconds >= 0


def test_reconcile_flags_duplicates():
    base = lifted_code(2, 2, 2, 1)
    codes = list(base.codes) + [base.codes[0]]
    dup = CDC(base.q, base.ambient, base.k, base.d, codes)
    report = reconcile(dup, expected_size=17, claimed_distance=2)
    assert not report.passed
    assert report.observed_distance == 0
    assert any("duplicate" in note for note in report.notes)


def test_reconcile_flags_size_mismatch():
    code = lifted_code(2, 2, 2, 1)
    report = reconcile(code, expected_size=17, claimed_distance=2)
    assert not report.passed
    assert report.observed_distance == 2  # distance itself is fine
    assert any("expected 17" in note for note in report.notes)


def test_reconcile_flags_distance_below_claim():
    code = lifted_code(2, 2, 2, 1)
    report = reconcile(code, expected_size=16, claimed_distance=4)
    assert not report.passed
    assert any("below claim" in note for note in report.notes)
    assert report.witness is not None


def test_reconcile_sampled_mode_and_unknown_mode():
    code = assemble_parallel(2, 2, 2, 2, 1)
    report = reconcile(code, 481, 2, mode="sampled", samples=300, seed=1)
    assert report.passed
    assert report.distance_mode == "sampled"
    with pytest.raises(InvalidParameterError):
        reconcile(code, 481, 2, mode="thorough")


def test_reconcile_checks_mode_and_samples_before_measuring(monkeypatch):
    code = assemble_parallel(2, 2, 2, 2, 1)

    def measured(self):
        raise AssertionError("distinct_count ran")

    monkeypatch.setattr(CDC, "distinct_count", measured)
    with pytest.raises(InvalidParameterError, match="unknown mode"):
        reconcile(code, 481, 2, mode="thorough")
    with pytest.raises(InvalidParameterError, match="samples must be positive"):
        reconcile(code, 481, 2, mode="sampled", samples=0)
    # exhaustive mode ignores the sample count and goes on to measure
    with pytest.raises(AssertionError, match="distinct_count ran"):
        reconcile(code, 481, 2, mode="exhaustive", samples=0)


@pytest.mark.parametrize("claim", [0, -2, 3])
def test_reconcile_rejects_a_claim_that_is_no_distance(claim):
    code = lifted_code(2, 2, 2, 1)
    with pytest.raises(InvalidParameterError, match="even and >= 2"):
        reconcile(code, expected_size=16, claimed_distance=claim)


def test_report_serializes_to_json():
    code = assemble_parallel(2, 2, 2, 2, 1)
    report = reconcile(code, 481, 2)
    blob = json.dumps(report.to_json_dict())
    back = json.loads(blob)
    assert back["expected_size"] == "481"
    assert back["passed"] is True
    assert back["observed_distance"] == 2


def scalar_exhaustive(code):
    """The per-pair reference scan: every pair in (i, j) order."""
    m = len(code)
    best = witness = None
    for i in range(m - 1):
        for j in range(i + 1, m):
            dist = subspace_distance(member(code, i), member(code, j))
            if best is None or dist < best:
                best, witness = dist, (i, j)
                if best == 0:
                    return best, witness, m * (m - 1) // 2
    return best, witness, m * (m - 1) // 2


def scalar_sampled(code, samples, seed):
    """The per-pair reference scan over the documented draw order.

    ``samples`` pairs off the LCG, redrawn when i == j, then, with more than
    one round populated, ceil(samples / 10) cross-round pairs within
    50 times as many attempts.
    """
    m = len(code)
    stream = lcg_stream(seed)
    best = witness = None
    checked = 0

    def check(i, j):
        nonlocal best, witness, checked
        i, j = min(i, j), max(i, j)
        dist = subspace_distance(member(code, i), member(code, j))
        if best is None or dist < best:
            best, witness = dist, (i, j)
        checked += 1

    drawn = 0
    while drawn < samples:
        i, j = next(stream) % m, next(stream) % m
        if i != j:
            check(i, j)
            drawn += 1
    rounds = code.rounds
    if rounds is not None and len(set(rounds.tolist())) > 1:
        extra = -(-samples // 10)
        found = attempts = 0
        while found < extra and attempts < 50 * extra:
            attempts += 1
            i, j = next(stream) % m, next(stream) % m
            if i != j and rounds[i] != rounds[j]:
                check(i, j)
                found += 1
    return best, witness, checked


def with_duplicate(code, src):
    """The code plus a copy of member src appended as the last member."""
    codes = np.concatenate([code.codes, code.codes[src:src + 1]])
    rounds = np.concatenate([code.rounds, code.rounds[src:src + 1]])
    return CDC(code.q, code.ambient, code.k, code.d, codes, rounds)


def as_tuple(report):
    return report.distance, report.witness, report.pairs_checked


@pytest.mark.parametrize("params", [(2, 2, 2, 2, 1), (3, 2, 2, 2, 0),
                                    (4, 2, 2, 2, 0)])
def test_exhaustive_matches_scalar_scan(params):
    code = assemble_parallel(*params)
    assert as_tuple(min_distance_exhaustive(code)) == scalar_exhaustive(code)


@pytest.mark.parametrize("params", [(2, 2, 2, 2, 1), (3, 2, 2, 2, 0),
                                    (4, 2, 2, 2, 0)])
@pytest.mark.parametrize("seed", [0, 42])
def test_sampled_matches_scalar_scan(params, seed):
    code = assemble_parallel(*params)
    got = min_distance_sampled(code, 400, seed=seed)
    assert as_tuple(got) == scalar_sampled(code, 400, seed)


def test_duplicate_member_is_found_first():
    code = with_duplicate(assemble_parallel(2, 2, 2, 2, 1), 3)
    report = min_distance_exhaustive(code)
    # (3, 481) is the only zero-distance pair and the scan stops on it
    assert as_tuple(report) == scalar_exhaustive(code)
    assert report.distance == 0 and report.witness == (3, 481)
    for seed in range(3):
        got = min_distance_sampled(code, 3000, seed=seed)
        assert as_tuple(got) == scalar_sampled(code, 3000, seed)


def test_topup_shortfall_is_reported():
    code = assemble_parallel(2, 2, 2, 2, 1)
    # one member in round 1: few draws can land on a cross-round pair, and
    # the cap of 50 * 50 attempts ends inside the second block of attempts
    lone = CDC(code.q, code.ambient, code.k, code.d, code.codes,
               [0] * (len(code) - 1) + [1])
    report = min_distance_sampled(lone, 500, seed=42)
    assert report.topup_requested == 50
    assert 50 * 50 % CHUNK != 0
    assert 0 < report.topup_found < 50
    assert report.pairs_checked == 500 + report.topup_found
    assert as_tuple(report) == scalar_sampled(lone, 500, 42)
    rec = reconcile(lone, 481, 2, mode="sampled", samples=500, seed=42)
    assert (f"stratified top-up found {report.topup_found} of 50 "
            f"cross-round pairs") in rec.notes
    # a filled top-up adds no note
    full = min_distance_sampled(code, 500, seed=42)
    assert full.topup_found == full.topup_requested == 50
    assert reconcile(code, 481, 2, mode="sampled", samples=500,
                     seed=42).notes == []


def test_sampled_blocks_span_the_topup():
    # 2 * CHUNK + 1 top-up pairs: the top-up fills more than one block
    code = assemble_parallel(2, 2, 2, 2, 1)
    samples = 20 * CHUNK + 1
    report = min_distance_sampled(code, samples, seed=5)
    assert report.topup_found == report.topup_requested == 2 * CHUNK + 1
    assert as_tuple(report) == scalar_sampled(code, samples, 5)


def test_sampled_draws_go_on_after_distance_zero():
    # five distinct members repeated: the first block already holds a
    # duplicate pair, and the later draws still count
    code = assemble_parallel(2, 2, 2, 2, 1)
    repeated = CDC(code.q, code.ambient, code.k, code.d,
                   code.codes[np.arange(len(code)) % 5], code.rounds)
    samples = 3 * CHUNK
    report = min_distance_sampled(repeated, samples, seed=1)
    assert report.distance == 0
    assert report.topup_found == report.topup_requested == samples // 10 + 1
    assert as_tuple(report) == scalar_sampled(repeated, samples, 1)


def test_sampled_memory_does_not_grow_with_samples():
    code = assemble_parallel(2, 2, 2, 2, 3)
    tracemalloc.start()
    try:
        report = min_distance_sampled(code, 300_000, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pairs_checked == 330_000
    # holding every drawn pair at once takes 16 bytes a pair, 5.3 MB here
    assert peak < 1_500_000


@given(st.integers(0, LCG_MASK))
@example(0)
@example(1)
@example(LCG_MASK)
def test_jump_table_reproduces_the_stream(state):
    a, c = _lcg_jump()
    words = a * np.uint64(state) + c
    assert words.tolist() == list(itertools.islice(lcg_stream(state),
                                                   2 * CHUNK))


@pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK,
                                     CHUNK + 1])
@pytest.mark.parametrize("seed", [-3, 2 ** 64 + 5])
def test_sampled_matches_scalar_scan_at_block_seams(samples, seed):
    code = assemble_parallel(2, 2, 2, 2, 1)
    got = min_distance_sampled(code, samples, seed=seed)
    assert as_tuple(got) == scalar_sampled(code, samples, seed)
    assert got.topup_found == got.topup_requested


def test_exhaustive_witness_in_a_later_block_matches_scalar_scan():
    # 100 members give 4950 = 2 * 2048 + 854 pairs; member 99 repeats
    # member 60, and the pair (60, 99) has index 4208, in the third block
    base = assemble_parallel(2, 2, 2, 2, 1)
    code = with_duplicate(CDC(base.q, base.ambient, base.k, base.d,
                              base.codes[:99], base.rounds[:99]), 60)
    report = min_distance_exhaustive(code)
    assert report.pairs_checked % CHUNK != 0
    assert report.witness == (60, 99)
    assert as_tuple(report) == scalar_exhaustive(code)
