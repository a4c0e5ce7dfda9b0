"""Independent distance and cardinality checks for constructed codes.

Everything here treats a code as an opaque bag of subspaces: nothing is
trusted from the construction beyond the packed generator rows, so these
routines double as the referee between predicted and actual parameters.

The sampled mode uses a fixed 64-bit mixed congruential generator
x' = (a x + c) mod 2^64 with Knuth's constants a = 6364136223846793005 and
c = 1442695040888963407, so a (seed, samples) pair always checks the same
pairs on every platform.  Pair indices are taken modulo the member count;
the tiny modulo bias is irrelevant for checking a minimum and keeps the
stream arithmetic trivial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bounds import check_distance
from .construction import CDC, Subspace
from .errors import BudgetExceededError, IncompatibleSpacesError, InvalidParameterError
from .fields import CHUNK, field_of, join_ranks, packed_rank, pivot_masks

PAIR_BUDGET_DEFAULT = 2 ** 28

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MASK = (1 << 64) - 1


def lcg_stream(seed: int):
    """Infinite stream of 64-bit words; deterministic in the seed."""
    state = seed & LCG_MASK
    while True:
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) & LCG_MASK
        yield state


@lru_cache(maxsize=None)
def _lcg_jump():
    # word t after state x is (a_t x + c_t) mod 2^64, for t = 1..2*CHUNK:
    # a_t = A^t and c_t = C (1 + A + ... + A^(t-1)); uint64 arrays wrap, and
    # every operand stays uint64 so that nothing is promoted to float
    n = 2 * CHUNK
    a = np.multiply.accumulate(np.full(n, LCG_MULTIPLIER, dtype=np.uint64))
    powers = np.concatenate([np.ones(1, dtype=np.uint64), a[:-1]])
    c = np.cumsum(powers, dtype=np.uint64) * np.uint64(LCG_INCREMENT)
    return a, c


def _pairs(state: int, m: int, want: int, cap: int | None = None, starts=None):
    # yields the pairs i < j drawn after state, one block per CHUNK attempts;
    # an attempt (two words mod m) counts when i != j and, given the first
    # members of rounds 1, 2, ..., a round start separates i from j.  Stops
    # after want pairs or cap attempts; returns (last state used, pairs drawn).
    a, c = _lcg_jump()
    got = tried = 0
    while got < want and (cap is None or tried < cap):
        n = CHUNK if cap is None else min(CHUNK, cap - tried)
        words = a[:2 * n] * np.uint64(state) + c[:2 * n]
        i, j = (words % np.uint64(m)).astype(np.int64).reshape(n, 2).T
        ok = i != j
        if starts is not None:
            ok &= np.logical_or.reduce([(i < b) != (j < b) for b in starts])
        hit = np.flatnonzero(ok)[:want - got]
        used = int(hit[-1]) + 1 if got + len(hit) == want else n
        state = int(words[2 * used - 1])
        tried += used
        got += len(hit)
        if len(hit):
            i, j = i[hit], j[hit]
            yield np.minimum(i, j), np.maximum(i, j)
    return state, got


def subspace_distance(u: Subspace, w: Subspace) -> int:
    """Subspace distance 2 dim(U + W) - dim U - dim W."""
    if u.q != w.q or u.ambient != w.ambient:
        raise IncompatibleSpacesError(
            f"subspaces live in GF({u.q})^{u.ambient} and GF({w.q})^{w.ambient}")
    joint = packed_rank(list(u.rows) + list(w.rows), field_of(u.q), u.ambient)
    return 2 * joint - u.dim - w.dim


@dataclass
class DistanceReport:
    """Outcome of a minimum-distance scan.

    With fewer than two members there is no pair to measure; the report is
    then flagged vacuous and carries the unreachable value 2 * ambient,
    which compares as at least any claimed distance.  ``pairs_ranked`` of
    the ``pairs_checked`` pairs had their rank computed: the exhaustive scan
    ranks each once at most, ranks its first block of CHUNK pairs whole,
    bounds later pairs by the minimum found in the blocks before them,
    stops at distance 2 and ranks none when members repeat, since
    ``CDC.repeats`` gives distance 0; a sampled scan stops ranking at
    distance 0 while its draws go on.  ``topup_found`` of
    ``topup_requested`` stratified cross-round pairs were sampled.
    """

    distance: int
    witness: tuple | None
    pairs_checked: int
    mode: str
    vacuous: bool = False
    topup_requested: int = 0
    topup_found: int = 0
    pairs_ranked: int = 0


def _vacuous_report(code: CDC, mode: str) -> DistanceReport:
    return DistanceReport(2 * code.ambient, None, 0, mode, vacuous=True)


def _scan(code: CDC, blocks, floor: int = 0, masks=None):
    # blocks yields (i, j) index arrays, i < j; the distance of a pair is
    # 2 * (rank[U; W] - k), twice what W adds to U, and the first pair at
    # the minimum in block order is the witness.  Given the members' pivot
    # masks, a pair whose masks differ in at least the minimum so far is
    # dropped unranked: its distance is at least that many bits.  Stops
    # after the block where the minimum reaches floor; returns the
    # minimum, the witness and the number of pairs ranked.  join_ranks
    # clears U's pivot columns from W, so it relies on the member rows
    # being canonical, which read_code checks for every code file
    best = witness = None
    ranked = 0
    for i, j in blocks:
        if masks is not None and best is not None:
            near = np.flatnonzero(np.bitwise_count(masks[i] ^ masks[j]) < best)
            if not len(near):
                continue
            i, j = i[near], j[near]
        added = join_ranks(code.codes.take(i, axis=0),
                           code.codes.take(j, axis=0), code.q, code.ambient)
        ranked += len(added)
        t = int(added.argmin())
        dist = 2 * int(added[t])
        if best is None or dist < best:
            best, witness = dist, (int(i[t]), int(j[t]))
            if best <= floor:
                break
    return best, witness, ranked


def _pair_blocks(m):
    # (i, j) blocks of at most CHUNK pairs i < j in (i, j) order: the runs
    # of member i against i + 1, ..., m - 1, so that short runs share a
    # block
    length = np.arange(m - 1, 0, -1)
    ends = np.cumsum(length)
    # pair t, counted over all the runs, is (i, base[i] + t) in run i
    base = m - ends
    for lo in range(0, int(ends[-1]), CHUNK):
        hi = min(lo + CHUNK, int(ends[-1]))
        r0, r1 = ends.searchsorted([lo, hi - 1], "right")
        count = length[r0:r1 + 1].copy()
        count[0] -= lo - ends[r0] + length[r0]
        count[-1] -= ends[r1] - hi
        yield (np.repeat(np.arange(r0, r1 + 1), count),
               np.repeat(base[r0:r1 + 1], count) + np.arange(lo, hi))


def min_distance_exhaustive(code: CDC, pair_budget: int | None = None) -> DistanceReport:
    """Exact minimum distance over every unordered pair.

    Refuses (BudgetExceededError) when the pair count exceeds the budget,
    default 2^28; min_distance_sampled is the way out for bigger codes.

    The distance 2 (k - dim U∩W) is even and 0 only for equal subspaces
    (Koetter and Kschischang, IEEE Trans. IT 2008), that is equal
    canonical rows.  When ``CDC.repeats`` finds any, the distance is 0 and
    the witness the first equal pair in (i, j) order, with no rank
    computed.  Otherwise one pass walks the pairs in (i, j) order, CHUNK
    at a time, ranks the first block whole and stops at distance 2, the
    least between distinct members.  By Etzion and Silberstein (IEEE
    Trans. IT 2009, Lemma 2) d_S(U, W) >= d_H(v(U), v(W)), where v is the
    identifying vector, the pivot columns of the canonical rows; from the
    second block on, a pair whose vectors differ in at least the minimum
    so far is bounded, not ranked.  Such a pair is never the first at the
    final minimum, so the witness is the first pair at the minimum in
    (i, j) order, and no pair is ranked twice.  ``pairs_checked`` counts
    every pair, ranked or bounded; ``pairs_ranked`` the ranks computed.
    """
    m = len(code)
    if m < 2:
        return _vacuous_report(code, "exhaustive")
    pairs = m * (m - 1) // 2
    budget = PAIR_BUDGET_DEFAULT if pair_budget is None else pair_budget
    if pairs > budget:
        raise BudgetExceededError(
            f"{pairs} pairs exceed the pair budget of {budget}; "
            f"use sampled verification instead")
    earlier, later = code.repeats()
    if len(earlier):
        # no member is earlier twice, so the smallest earlier gives the first
        # equal pair
        t = int(earlier.argmin())
        return DistanceReport(0, (int(earlier[t]), int(later[t])), pairs,
                              "exhaustive")

    best, witness, ranked = _scan(
        code, _pair_blocks(m), floor=2,
        masks=pivot_masks(code.codes, code.q, code.ambient))
    return DistanceReport(best, witness, pairs, "exhaustive",
                          pairs_ranked=ranked)


def min_distance_sampled(code: CDC, samples: int, seed: int = 0) -> DistanceReport:
    """Minimum distance over a reproducible random sample of pairs.

    Draws ``samples`` uniform pairs (two stream words modulo the member
    count, redrawn on collision).  When ``code.round_sizes`` has more than
    one populated round, a stratified top-up of ceil(samples / 10) extra
    pairs with members from different rounds is appended, since cross-round
    pairs are the thinner failure surface; it resumes the stream where the
    main draws stopped and gives up after 50 attempts per requested pair.
    Both phases draw CHUNK attempts at a time with array arithmetic.  If
    ``samples`` covers every pair, the exhaustive scan answers instead.
    """
    if samples < 1:
        raise InvalidParameterError(f"samples must be positive, got {samples}")
    m = len(code)
    if m < 2:
        return _vacuous_report(code, "sampled")
    total_pairs = m * (m - 1) // 2
    if samples >= total_pairs:
        return min_distance_exhaustive(
            code, pair_budget=max(total_pairs, PAIR_BUDGET_DEFAULT))

    sizes = code.round_sizes or []
    extra = -(-samples // 10) if np.count_nonzero(sizes) > 1 else 0
    found = 0

    def blocks():
        # main draws, then the top-up off the same stream; each block is
        # scanned before the next one is drawn
        nonlocal found
        state, _ = yield from _pairs(seed & LCG_MASK, m, samples)
        _, found = yield from _pairs(state, m, extra, 50 * extra, np.cumsum(sizes[:-1]))

    drawing = blocks()
    best, witness, ranked = _scan(code, drawing)
    for _ in drawing:  # distance 0 ends the scan, not the draws
        pass
    return DistanceReport(best, witness, samples + found, "sampled",
                          topup_requested=extra, topup_found=found,
                          pairs_ranked=ranked)


@dataclass(kw_only=True)
class VerificationReport(DistanceReport):
    """Side-by-side record of predicted versus measured code parameters:
    the scan's DistanceReport, as it came, plus the sizes and the claim."""

    expected_size: int
    stored_size: int
    distinct_size: int
    claimed_distance: int
    passed: bool
    runtime_seconds: float
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "expected_size": str(self.expected_size),
            "stored_size": str(self.stored_size),
            "distinct_size": str(self.distinct_size),
            "claimed_distance": self.claimed_distance,
            "observed_distance": self.distance,
            "distance_mode": self.mode,
            "pairs_checked": self.pairs_checked,
            "pairs_ranked": self.pairs_ranked,
            "witness": list(self.witness) if self.witness else None,
            "vacuous": self.vacuous,
            "passed": self.passed,
            "runtime_seconds": round(self.runtime_seconds, 3),
            "notes": list(self.notes),
        }


def reconcile(code: CDC, expected_size: int, claimed_distance: int,
              mode: str = "exhaustive", samples: int = 10 ** 6,
              seed: int = 0) -> VerificationReport:
    """Measure a code and compare against its claimed parameters.

    Passes when the members are pairwise distinct, their number equals
    ``expected_size``, and the measured minimum distance over the checked
    pairs is at least ``claimed_distance``.  A sampled distance can only
    refute a claim above 2; distinct members alone prove a claim of 2, the
    least distance between distinct subspaces.  The report says which mode
    produced the number.  A claim that is not even and at least 2, an
    unknown mode and, in sampled mode, fewer than 1 sample each raise
    InvalidParameterError before anything is measured.
    """
    check_distance(claimed_distance)
    if mode not in ("exhaustive", "sampled"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise InvalidParameterError(f"samples must be positive, got {samples}")
    t0 = time.perf_counter()
    notes = []
    stored = len(code)
    distinct = code.distinct_count()
    if distinct != stored:
        notes.append(f"{stored - distinct} duplicate members")
    if distinct != expected_size:
        notes.append(f"distinct size {distinct} != expected {expected_size}")

    report = (min_distance_exhaustive(code) if mode == "exhaustive"
              else min_distance_sampled(code, samples, seed))
    if report.topup_found < report.topup_requested:
        notes.append(f"stratified top-up found {report.topup_found} of "
                     f"{report.topup_requested} cross-round pairs")
    if report.vacuous:
        notes.append("fewer than two members, distance vacuously fine")
    elif report.distance < claimed_distance:
        notes.append(f"distance {report.distance} below claim "
                     f"{claimed_distance}, witness pair {report.witness}")

    passed = (distinct == stored == expected_size
              and (report.vacuous or report.distance >= claimed_distance))
    return VerificationReport(
        **vars(report),
        expected_size=expected_size,
        stored_size=stored,
        distinct_size=distinct,
        claimed_distance=claimed_distance,
        passed=passed,
        runtime_seconds=time.perf_counter() - t0,
        notes=notes,
    )
