"""Distance computation, exhaustive and sampled scans, reconciliation."""

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subspace_codes import verify
from subspace_codes.bounds import block_cardinalities
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
    SUPPORTED_Q,
    field_of,
    join_ranks,
    mat_rank,
    matrix,
    pack_row,
    packed_rank,
    packed_rref,
    pivot_masks,
    rref_rows,
    unpack_row,
)
from subspace_codes.gabidulin import gabidulin_enumerate
from subspace_codes.verify import (
    LCG_INCREMENT,
    LCG_MASK,
    LCG_MULTIPLIER,
    DistanceReport,
    _lcg_jump,
    _pair_blocks,
    _pairs,
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
    reconciled = reconcile(lonely, 1, 2)
    assert reconciled.passed and reconciled.vacuous
    assert reconciled.notes == ["fewer than two members, distance vacuously fine"]


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
    assert report.distance == 2
    assert report.mode == "exhaustive"
    assert report.notes == []
    assert report.runtime_seconds >= 0


def test_reconcile_flags_duplicates():
    base = lifted_code(2, 2, 2, 1)
    codes = list(base.codes) + [base.codes[0]]
    dup = CDC(base.q, base.ambient, base.k, base.d, codes)
    report = reconcile(dup, expected_size=17, claimed_distance=2)
    assert not report.passed
    assert report.distance == 0
    assert any("duplicate" in note for note in report.notes)


def test_reconcile_flags_size_mismatch():
    code = lifted_code(2, 2, 2, 1)
    report = reconcile(code, expected_size=17, claimed_distance=2)
    assert not report.passed
    assert report.distance == 2  # distance itself is fine
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
    assert report.mode == "sampled"
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


@pytest.mark.parametrize("case", ["exhaustive", "sampled", "vacuous"])
def test_reconcile_passes_the_scan_report_through(case):
    # the sampled case draws from three rounds, so its top-up is nonzero
    code = assemble_parallel(2, 2, 2, 2, 1)
    if case == "vacuous":
        code = CDC(code.q, code.ambient, code.k, code.d, code.codes[:1])
    if case == "sampled":
        scan = min_distance_sampled(code, 300, seed=1)
        report = reconcile(code, len(code), 2, mode="sampled", samples=300,
                           seed=1)
        assert scan.topup_requested > 0 and scan.topup_found > 0
    else:
        scan = min_distance_exhaustive(code)
        report = reconcile(code, len(code), 2)
    assert scan.vacuous == (case == "vacuous")
    assert isinstance(report, DistanceReport)
    assert {name: getattr(report, name) for name in vars(scan)} == vars(scan)
    assert list(report.to_json_dict()) == [
        "expected_size", "stored_size", "distinct_size", "claimed_distance",
        "observed_distance", "distance_mode", "pairs_checked", "pairs_ranked",
        "witness", "vacuous", "passed", "runtime_seconds", "notes"]


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
    sizes = code.round_sizes or []
    rounds = np.repeat(np.arange(len(sizes)), sizes)
    if np.count_nonzero(sizes) > 1:
        extra = -(-samples // 10)
        found = attempts = 0
        while found < extra and attempts < 50 * extra:
            attempts += 1
            i, j = next(stream) % m, next(stream) % m
            if i != j and rounds[i] != rounds[j]:
                check(i, j)
                found += 1
    return best, witness, checked


def with_duplicate(code, src, dst=-1):
    """The code with member dst, by default the last, replaced by a copy of
    member src; the member count, and so the round sizes, stay those of
    ``params``."""
    codes = code.codes.copy()
    codes[dst] = codes[src]
    return CDC(code.q, code.ambient, code.k, code.d, codes, params=code.params)


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


# (distance, witness, pairs_checked, pairs_ranked, topup_requested,
# topup_found) of the benchmark's sampled workloads at their sample counts.
# The kernel and scalar_sampled both take the rounds from round_sizes, so a
# fault they share shows only here; the values were recorded from stored
# per-member round labels.
SAMPLED_REPORTS = {
    ((2, 2, 2, 2, 3), 20000, 0): (2, (127927, 132896), 22000, 22000, 2000, 2000),
    ((2, 2, 2, 2, 3), 20000, 1): (2, (67174, 95952), 22000, 22000, 2000, 2000),
    ((2, 2, 2, 2, 3), 20000, 42): (2, (8409, 137826), 22000, 22000, 2000, 2000),
    ((3, 3, 3, 2, 0), 10000, 0): (2, (5613, 7487), 11000, 11000, 1000, 1000),
    ((3, 3, 3, 2, 0), 10000, 1): (2, (17913, 18722), 11000, 11000, 1000, 1000),
    ((3, 3, 3, 2, 0), 10000, 42): (2, (18415, 25799), 11000, 11000, 1000, 1000),
}


@pytest.mark.parametrize("params, samples, seed", SAMPLED_REPORTS)
def test_sampled_reports_are_pinned(params, samples, seed):
    r = min_distance_sampled(assemble_parallel(*params), samples, seed=seed)
    assert (r.distance, r.witness, r.pairs_checked, r.pairs_ranked,
            r.topup_requested, r.topup_found) == SAMPLED_REPORTS[params, samples, seed]


# (params, src, dst) -> (distance, witness, pairs_checked, pairs_ranked)
# of the exhaustive scan with member src copied onto member dst.  The
# distance, witness and pair count were recorded from a rank scan;
# CDC.repeats gives them with no rank computed
EXHAUSTIVE_REPORTS = {
    ((2, 3, 3, 2, 0), 285, 854): (0, (285, 854), 365085, 0),
    ((2, 2, 2, 2, 1), 160, 480): (0, (160, 480), 115440, 0),
    ((3, 2, 2, 2, 0), 37, 112): (0, (37, 112), 6328, 0),
    ((4, 2, 2, 2, 0), 110, 330): (0, (110, 330), 54615, 0),
    # adjacent members
    ((2, 2, 2, 2, 1), 10, 11): (0, (10, 11), 115440, 0),
}


@pytest.mark.parametrize("params, src, dst", EXHAUSTIVE_REPORTS)
def test_exhaustive_reports_are_pinned(params, src, dst):
    code = with_duplicate(assemble_parallel(*params), src, dst)
    r = min_distance_exhaustive(code)
    assert (r.distance, r.witness, r.pairs_checked,
            r.pairs_ranked) == EXHAUSTIVE_REPORTS[params, src, dst]


def test_two_member_code_has_an_empty_witness_pass():
    base = assemble_parallel(2, 2, 2, 2, 1)
    r = min_distance_exhaustive(CDC(base.q, base.ambient, base.k, base.d,
                                    base.codes[:2]))
    assert (r.distance, r.witness, r.pairs_checked, r.pairs_ranked) == (4, (0, 1), 1, 1)


def test_duplicate_member_is_found_first():
    code = with_duplicate(assemble_parallel(2, 2, 2, 2, 1), 3)
    report = min_distance_exhaustive(code)
    # (3, 480) is the only zero-distance pair, found with no rank computed
    assert as_tuple(report) == scalar_exhaustive(code)
    assert report.distance == 0 and report.witness == (3, 480)
    assert report.pairs_ranked == 0
    for seed in range(3):
        got = min_distance_sampled(code, 3000, seed=seed)
        assert as_tuple(got) == scalar_sampled(code, 3000, seed)


def drain(gen):
    """The (i, j) pairs a _pairs generator yields, and what it returns."""
    pairs = []
    while True:
        try:
            i, j = next(gen)
        except StopIteration as stop:
            return pairs, stop.value
        pairs += zip(i.tolist(), j.tolist())


def test_topup_shortfall_is_reported():
    # 480 members in round 0 and one in round 1: few draws land on a
    # cross-round pair, and the cap of 50 * 50 attempts ends inside the
    # second block of attempts
    _, (state, _) = drain(_pairs(42, 481, 500))
    pairs, (_, found) = drain(_pairs(state, 481, 50, 50 * 50, [480]))
    assert 50 * 50 % CHUNK != 0
    assert found == len(pairs) == 14
    stream = lcg_stream(state)
    draws = [(next(stream) % 481, next(stream) % 481) for _ in range(2500)]
    assert pairs == [(min(i, j), max(i, j)) for i, j in draws
                     if i != j and 480 in (i, j)][:50]
    # (2,6,4,4,0) has rounds of 262,144 and 2,205 members: 1.7 % of the
    # draws are cross-round, too few to fill 50 pairs in 2500 attempts
    thin = assemble_parallel(2, 6, 4, 4, 0)
    report = min_distance_sampled(thin, 500, seed=42)
    assert report.topup_requested == 50
    assert 0 < report.topup_found < 50
    assert report.pairs_checked == 500 + report.topup_found
    assert as_tuple(report) == scalar_sampled(thin, 500, 42)
    rec = reconcile(thin, len(thin), 4, mode="sampled", samples=500, seed=42)
    assert (f"stratified top-up found {report.topup_found} of 50 "
            f"cross-round pairs") in rec.notes
    code = assemble_parallel(2, 2, 2, 2, 1)
    # a filled top-up adds no note
    full = min_distance_sampled(code, 500, seed=42)
    assert full.topup_found == full.topup_requested == 50
    assert reconcile(code, 481, 2, mode="sampled", samples=500,
                     seed=42).notes == []


@pytest.mark.parametrize("params", [(2, 2, 2, 2, 1), (2, 2, 2, 2, 3)])
def test_topup_draws_the_cross_round_pairs_of_the_stream(params):
    # the round of each member by its own label, against the round starts
    sizes = block_cardinalities(*params)
    m = sum(sizes)
    rounds = np.repeat(np.arange(len(sizes)), sizes)
    stream = lcg_stream(5)
    want = []
    while len(want) < CHUNK + 1:
        i, j = next(stream) % m, next(stream) % m
        if rounds[i] != rounds[j]:
            want.append((min(i, j), max(i, j)))
    pairs, (_, found) = drain(_pairs(5, m, CHUNK + 1, None, np.cumsum(sizes[:-1])))
    assert pairs == want and found == CHUNK + 1


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
                   code.codes[np.arange(len(code)) % 5], params=code.params)
    samples = 3 * CHUNK
    report = min_distance_sampled(repeated, samples, seed=1)
    assert report.distance == 0
    assert report.pairs_ranked < report.pairs_checked
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
                              base.codes[:100]), 60)
    report = min_distance_exhaustive(code)
    assert report.pairs_checked % CHUNK != 0
    assert report.witness == (60, 99)
    assert as_tuple(report) == scalar_exhaustive(code)


def canonical_rows(q, width, pivots, free):
    """The canonical rows with the given pivot columns: row t is 1 at
    pivots[t], 0 at every other pivot and left of its own, and takes its
    other digits from the base-q digits of free."""
    rows = []
    for lead in pivots:
        row = []
        for c in range(width):
            free, digit = divmod(free, q)
            row.append(1 if c == lead else
                       0 if c < lead or c in pivots else digit)
        rows.append(pack_row(row, q))
    return rows


def identifying_vector(rows, q, width):
    """The pivot columns of canonical rows as a mask, read off digit by
    digit."""
    mask = 0
    for row in rows:
        digits = unpack_row(int(row), q, width)
        mask |= 1 << next(c for c, d in enumerate(digits) if d)
    return mask


def scalar_pivot_mask(rows, q, width):
    """What pivot_masks gives a stack: its identifying vector when
    packed_rref returns it at rank k, else 0."""
    rows = tuple(rows)
    if packed_rref(rows, field_of(q), width) != rows:
        return 0
    return identifying_vector(rows, q, width)


@st.composite
def spread_codes(draw, q):
    """Small codes of canonical members over many pivot classes, some
    members overwritten with a copy of another."""
    width = draw(st.integers(2, 6))
    k = draw(st.integers(1, width - 1))
    supports = list(itertools.combinations(range(width), k))
    members = [canonical_rows(q, width, draw(st.sampled_from(supports)),
                              draw(st.integers(0, q ** (k * width) - 1)))
               for _ in range(draw(st.integers(2, 12)))]
    for src, dst in draw(st.lists(st.tuples(st.integers(0, len(members) - 1),
                                            st.integers(0, len(members) - 1)),
                                  max_size=2)):
        members[dst] = members[src]
    return CDC(q, width, k, 2, members)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_exhaustive_matches_scalar_scan_over_pivot_classes(data):
    for q in SUPPORTED_Q:
        code = data.draw(spread_codes(q))
        report = min_distance_exhaustive(code)
        assert as_tuple(report) == scalar_exhaustive(code)
        # a repeat is found with no rank, and a distinct pair needs one
        assert (report.pairs_ranked == 0) == (report.distance == 0)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_distance_is_at_least_the_pivot_hamming_distance(data):
    # Etzion and Silberstein, Lemma 2: d_S(U, W) >= d_H(v(U), v(W))
    for q in SUPPORTED_Q:
        code = data.draw(spread_codes(q))
        u, w = member(code, 0), member(code, 1)
        gap = (identifying_vector(u.rows, q, code.ambient)
               ^ identifying_vector(w.rows, q, code.ambient)).bit_count()
        assert subspace_distance(u, w) >= gap


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_pivot_masks_match_the_scalar_pivots(data):
    # arbitrary rows, made canonical by the scalar reference and
    # zero-padded when they are dependent, which makes them not canonical
    # at rank k
    for q in SUPPORTED_Q:
        width = data.draw(st.integers(1, {2: 64, 3: 40}.get(q, 12)))
        k = data.draw(st.integers(1, 4))
        f = field_of(q)
        stacks = []
        for _ in range(data.draw(st.integers(1, 5))):
            drawn = data.draw(st.lists(st.integers(0, q ** width - 1),
                                       min_size=k, max_size=k))
            rows = list(packed_rref(drawn, f, width))
            stacks.append(rows + [0] * (k - len(rows)))
        got = pivot_masks(np.array(stacks, dtype=np.uint64), q, width)
        assert got.tolist() == [scalar_pivot_mask(rows, q, width)
                                for rows in stacks]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_pivot_masks_across_chunk_seams(q):
    width, k = 5, 3
    rng = np.random.default_rng(q)
    stacks = rng.integers(0, q ** width, size=(CHUNK + 3, k), dtype=np.uint64)
    rref_rows(stacks, q, width)
    assert pivot_masks(stacks, q, width).tolist() == [
        scalar_pivot_mask(rows, q, width) for rows in stacks.tolist()]


def test_in_order_scan_ends_on_a_first_pair_at_distance_two():
    # members 0 and 2 lead at columns {0, 1}, member 1 at {0, 2}; (0, 1)
    # and (0, 2) are both at distance 2.  The three pairs make one block,
    # which the scan ranks whole, and the first of them in (i, j) order,
    # (0, 1), is the witness
    code = CDC(2, 4, 2, 2, [(0b0001, 0b0010), (0b0001, 0b0100),
                            (0b0001, 0b1010)])
    report = min_distance_exhaustive(code)
    assert as_tuple(report) == scalar_exhaustive(code) == (2, (0, 1), 3)
    assert report.pairs_ranked == 3


def test_witness_pass_walks_past_the_first_block():
    # 64 lifted members pairwise at distance 4, all in one class, and one
    # member of another class, in canonical rows like every member, at
    # distance 2 from a few of them, which are moved to the end: the
    # witness is a cross-class pair whose index is beyond the first CHUNK
    # pairs
    lifted = lifted_code(2, 3, 3, 2)
    u = lifted.codes[-1].tolist()
    extra = np.array(packed_rref([u[0], u[1], 1 << 5], field_of(2), 6),
                     dtype=np.uint64)
    near = [t for t in range(64) if subspace_distance(
        member(lifted, t), Subspace(2, 6, tuple(extra.tolist()))) == 2]
    assert 0 < len(near) < 8
    keep = [t for t in range(64) if t not in near] + near
    code = CDC(2, 6, 3, 4, np.vstack([lifted.codes[keep], extra]))
    assert extra.tolist() == [1, 2, 32]
    assert pivot_masks(code.codes, 2, 6).all()  # every member canonical
    report = min_distance_exhaustive(code)
    assert as_tuple(report) == scalar_exhaustive(code)
    i, j = report.witness
    assert report.distance == 2 and j == 64
    assert i * (2 * 65 - i - 1) // 2 + j - i - 1 > CHUNK


@given(st.integers(2, 300))
@example(2)
@example(3)
@example(64)  # 2016 pairs, just below the seam at CHUNK
@example(65)  # 2080 pairs, just above it
@example(4096)  # 4095 * CHUNK pairs, on a seam
@settings(max_examples=60, deadline=None)
def test_pair_blocks_cut_the_runs_in_order(m):
    # every pair i < j once, in (i, j) order: (0, 1) first, then each pair
    # steps to (i, j + 1), or to (i + 1, i + 2) at the end of a run
    blocks = list(_pair_blocks(m))
    last = (0, 0)
    for x, y in blocks:
        i = np.concatenate([[last[0]], x])
        j = np.concatenate([[last[1]], y])
        end = j[:-1] == m - 1
        assert (i[1:] == np.where(end, i[:-1] + 1, i[:-1])).all()
        assert (j[1:] == np.where(end, i[:-1] + 2, j[:-1] + 1)).all()
        last = (int(x[-1]), int(y[-1]))
    assert (int(blocks[0][0][0]), int(blocks[0][1][0])) == (0, 1)
    assert last == (m - 2, m - 1)
    pairs = m * (m - 1) // 2
    assert sum(len(x) for x, _ in blocks) == pairs
    assert all(1 <= len(x) == len(y) <= CHUNK for x, y in blocks)
    assert len(blocks) == -(-pairs // CHUNK)


def test_one_class_code_ranks_every_pair():
    code = lifted_code(2, 3, 3, 2)
    assert len(set(pivot_masks(code.codes, 2, 6).tolist())) == 1
    report = min_distance_exhaustive(code)
    assert as_tuple(report) == scalar_exhaustive(code)
    assert report.pairs_ranked >= report.pairs_checked


def test_repeat_in_the_last_class_is_found_with_no_rank():
    # 70 members of the class 0b11, whose 2415 pairs fill more than one
    # block and put (0, 5) at distance 2 in the first, then member 480 of
    # the later class 0b10001 and its copy: the duplicate pair (70, 71)
    # comes last in (i, j) order, and no pair is ranked
    base = assemble_parallel(2, 2, 2, 2, 1)
    code = CDC(base.q, base.ambient, base.k, base.d,
               base.codes[[*range(70), 480, 480]])
    masks = pivot_masks(code.codes, 2, code.ambient).tolist()
    assert masks == [0b11] * 70 + [0b10001] * 2
    assert 70 * 69 // 2 > CHUNK
    assert subspace_distance(member(code, 0), member(code, 5)) == 2
    assert code.distinct_count() == len(code) - 1
    report = min_distance_exhaustive(code)
    assert as_tuple(report) == scalar_exhaustive(code) == (0, (70, 71), 2556)
    assert report.pairs_ranked == 0


def test_repeats_are_reported_with_no_pivot_mask_and_no_rank(monkeypatch):
    # member 2808 of (2,2,2,2,2) copied onto member 8424: a rank scan of
    # pivot classes ranked 15,125,091 of the 35,486,100 pairs to find it
    code = with_duplicate(assemble_parallel(2, 2, 2, 2, 2), 2808, 8424)

    def refuse(*args):
        raise AssertionError("a code with repeats took a kernel")

    monkeypatch.setattr(verify, "join_ranks", refuse)
    monkeypatch.setattr(verify, "pivot_masks", refuse)
    want = (0, (2808, 8424), 35486100, 0)
    report = min_distance_exhaustive(code)
    assert as_tuple(report) + (report.pairs_ranked,) == want
    # samples that cover every pair hand over to the exhaustive scan
    report = min_distance_sampled(code, 35486100)
    assert as_tuple(report) + (report.pairs_ranked,) == want


def test_distance_two_codes_stop_at_the_first_block():
    # distinct members are at least 2 apart: the scan ranks the first
    # block whole and ends on it, or on the first later block that holds
    # a distance-2 pair
    code = assemble_parallel(2, 3, 3, 2, 0)
    report = min_distance_exhaustive(code)
    assert as_tuple(report) == (2, (0, 73), 365085)
    assert report.pairs_ranked <= CHUNK + 72
    code = assemble_parallel(2, 4, 3, 2, 0)
    report = min_distance_exhaustive(code)
    assert as_tuple(report) == (2, (0, 257), 16077285)
    assert report.pairs_ranked < 2 * CHUNK + 257


def unpruned_exhaustive(code):
    """Minimum distance, first pair at it in (i, j) order, and pair count,
    off one join_ranks of each member against every member after it."""
    m = len(code)
    best = None
    for i in range(m - 1):
        added = join_ranks(np.repeat(code.codes[i:i + 1], m - 1 - i, axis=0),
                           code.codes[i + 1:], code.q, code.ambient)
        t = int(added.argmin())
        if best is None or 2 * int(added[t]) < best[0]:
            best = 2 * int(added[t]), (i, i + 1 + t)
    return *best, m * (m - 1) // 2


@pytest.mark.parametrize("params, picks", [((2, 4, 4, 4, 0), (200, 100)),
                                           ((3, 2, 2, 2, 0), (81, 32))])
def test_running_minimum_prunes_like_an_unpruned_scan(params, picks):
    # members drawn from both rounds, in a shuffled order: in some draws
    # pair (0, 1) is farther apart than the minimum, so the minimum turns
    # up later in the first block, ranked whole, or in a later block,
    # under the bound of the minimum before it
    full = assemble_parallel(*params)
    rounds = np.split(np.arange(len(full)), np.cumsum(full.round_sizes[:-1]))
    farther = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        pick = rng.permutation(np.concatenate(
            [rng.choice(members, n, replace=False)
             for members, n in zip(rounds, picks)]))
        code = CDC(full.q, full.ambient, full.k, full.d, full.codes[pick])
        report = min_distance_exhaustive(code)
        assert as_tuple(report) == unpruned_exhaustive(code)
        # no pair is ranked twice
        assert report.pairs_ranked <= report.pairs_checked
        farther += subspace_distance(member(code, 0),
                                     member(code, 1)) > report.distance
    assert farther


@pytest.mark.parametrize("q", [2, 3])
def test_every_member_its_own_class(q):
    # one member on each of the 66 pivot sets of 2 in 12 columns: no pair
    # shares a class, and the 2145 pairs fill a second block
    width, k = 12, 2
    members = [canonical_rows(q, width, pivots, 7 * t + 3)
               for t, pivots in enumerate(
                   itertools.combinations(range(width), k))]
    code = CDC(q, width, k, 2, members)
    assert len(set(pivot_masks(code.codes, q, width).tolist())) == 66
    report = min_distance_exhaustive(code)
    assert as_tuple(report) == scalar_exhaustive(code)
    assert report.pairs_checked == 2145 > CHUNK
    # the first block, ranked whole, holds a pair at distance 2, the least
    # between distinct members, so the second is never ranked
    assert report.distance == 2
    assert report.pairs_ranked < report.pairs_checked


def test_a_block_of_bounded_pairs_is_skipped():
    # [e0, e1] and [e0 + e2, e1 + e3], then 4096 members with pivots 6 and
    # 7 and their free digits in columns 8 to 13.  Each pair of the first
    # two with a later member is d_S = d_H = 4 apart, so once the first
    # block has found 4, the second and third blocks are bounded whole;
    # the later members are 2 apart among themselves
    later = [(1 << 6 | a << 8, 1 << 7 | b << 8)
             for a in range(64) for b in range(64)]
    code = CDC(2, 14, 2, 2, [(0b1, 0b10), (0b101, 0b1010), *later])
    report = min_distance_exhaustive(code)
    assert as_tuple(report) == unpruned_exhaustive(code)
    assert as_tuple(report) == (2, (2, 3), 4098 * 4097 // 2)
    assert report.pairs_ranked <= 2 * CHUNK


def test_exhaustive_memory_does_not_grow_with_a_class():
    # one pivot class of 1500 members, 1,124,250 pairs: its (i, j) index
    # arrays held whole would take 18 MB
    full = assemble_parallel(2, 4, 4, 4, 0)
    code = CDC(full.q, full.ambient, full.k, full.d, full.codes[:1500])
    assert len(set(pivot_masks(code.codes, 2, code.ambient).tolist())) == 1
    tracemalloc.start()
    try:
        report = min_distance_exhaustive(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pairs_checked == 1500 * 1499 // 2
    assert report.pairs_ranked >= report.pairs_checked
    assert peak < 1_500_000


def test_pairs_ranked_is_reported():
    code = assemble_parallel(2, 2, 2, 2, 1)
    exhaustive = reconcile(code, 481, 2)
    assert 0 < exhaustive.pairs_ranked < exhaustive.pairs_checked
    assert exhaustive.to_json_dict()["pairs_ranked"] == exhaustive.pairs_ranked
    sampled = reconcile(code, 481, 2, mode="sampled", samples=300, seed=1)
    assert sampled.pairs_ranked == sampled.pairs_checked == 330
    lonely = CDC(code.q, code.ambient, code.k, code.d, code.codes[:1])
    assert min_distance_exhaustive(lonely).pairs_ranked == 0
