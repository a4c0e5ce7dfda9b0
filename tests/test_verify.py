"""Distance computation, exhaustive and sampled scans, reconciliation."""

import itertools
import json

import pytest

from subspace_codes.construction import CDC, assemble_parallel, canonicalize, lift
from subspace_codes.errors import (
    BudgetExceededError,
    IncompatibleSpacesError,
    InvalidParameterError,
)
from subspace_codes.fields import field_of, mat_rank, matrix, unpack_row
from subspace_codes.gabidulin import gabidulin_enumerate
from subspace_codes.verify import (
    LCG_INCREMENT,
    LCG_MASK,
    LCG_MULTIPLIER,
    lcg_stream,
    min_distance_exhaustive,
    min_distance_sampled,
    reconcile,
    subspace_distance,
)


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
    assert subspace_distance(code.subspace(i), code.subspace(j)) == 4

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


def test_report_serializes_to_json():
    code = assemble_parallel(2, 2, 2, 2, 1)
    report = reconcile(code, 481, 2)
    blob = json.dumps(report.to_json_dict())
    back = json.loads(blob)
    assert back["expected_size"] == "481"
    assert back["passed"] is True
    assert back["observed_distance"] == 2
