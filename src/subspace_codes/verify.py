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

from .bounds import CdcParams
from .construction import CDC, Subspace
from .errors import BudgetExceededError, IncompatibleSpacesError, InvalidParameterError
from .fields import _row_reduce, field_of, packed_rank, unpack_row

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
    which compares as at least any claimed distance.
    """

    distance: int
    witness: tuple | None
    pairs_checked: int
    mode: str
    vacuous: bool = False
    samples: int | None = None
    seed: int | None = None


def _vacuous_report(code: CDC, mode: str) -> DistanceReport:
    return DistanceReport(2 * code.ambient, None, 0, mode, vacuous=True)


def _pair_distance_general(rows_i, rows_j, fieldobj, ambient, k) -> int:
    joint = packed_rank(list(rows_i) + list(rows_j), fieldobj, ambient)
    return 2 * (joint - k)


def _binary_pair_count(urows, upivots, wrows) -> int:
    # number of rows of W independent of U: reduce each row of W by U's
    # canonical rows (pivot bit masks precomputed), then grow a scratch
    # basis out of the leftovers
    cnt = 0
    basis = []
    for w in wrows:
        for u, pm in zip(urows, upivots):
            if w & pm:
                w ^= u
        while w:
            lb = w & -w
            hit = None
            for b in basis:
                if b & -b == lb:
                    hit = b
                    break
            if hit is None:
                basis.append(w)
                cnt += 1
                break
            w ^= hit
    return cnt


def min_distance_exhaustive(code: CDC, pair_budget: int | None = None) -> DistanceReport:
    """Exact minimum distance by scanning every unordered pair.

    Refuses (BudgetExceededError) when the pair count exceeds the budget,
    default 2^28; min_distance_sampled is the way out for bigger codes.
    A reported 0 means two members are the same subspace.
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

    rows_list = code.codes.tolist()
    best = None
    witness = None
    if code.q == 2:
        pivots_list = [tuple(r & -r for r in rows) for rows in rows_list]
        for i in range(m - 1):
            urows = rows_list[i]
            upivots = pivots_list[i]
            for j in range(i + 1, m):
                cnt = _binary_pair_count(urows, upivots, rows_list[j])
                if best is None or 2 * cnt < best:
                    best = 2 * cnt
                    witness = (i, j)
                    if best == 0:
                        return DistanceReport(0, witness, pairs, "exhaustive")
    else:
        fieldobj = field_of(code.q)
        vecs = [[unpack_row(r, code.q, code.ambient) for r in rows]
                for rows in rows_list]
        for i in range(m - 1):
            for j in range(i + 1, m):
                joint = len(_row_reduce(fieldobj, vecs[i] + vecs[j])[0])
                dist = 2 * (joint - code.k)
                if best is None or dist < best:
                    best = dist
                    witness = (i, j)
                    if best == 0:
                        return DistanceReport(0, witness, pairs, "exhaustive")
    return DistanceReport(best, witness, pairs, "exhaustive")


def min_distance_sampled(code: CDC, samples: int, seed: int = 0) -> DistanceReport:
    """Minimum distance over a reproducible random sample of pairs.

    Draws ``samples`` uniform pairs (two stream words modulo the member
    count, redrawn on collision).  When the code carries round labels and
    more than one round is populated, a stratified top-up of
    ceil(samples / 10) extra pairs with members from different rounds is
    appended, since cross-round pairs are the thinner failure surface.
    If ``samples`` covers every pair, the exhaustive scan answers instead.
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

    stream = lcg_stream(seed)
    q2 = code.q == 2
    fieldobj = field_of(code.q)

    best = None
    witness = None
    checked = 0

    def check(i: int, j: int):
        nonlocal best, witness
        ri, rj = code.member_rows(i), code.member_rows(j)
        if q2:
            dist = 2 * _binary_pair_count(ri, tuple(r & -r for r in ri), rj)
        else:
            dist = _pair_distance_general(ri, rj, fieldobj, code.ambient, code.k)
        if best is None or dist < best:
            best = dist
            witness = (i, j)

    drawn = 0
    while drawn < samples:
        i = next(stream) % m
        j = next(stream) % m
        if i == j:
            continue
        check(min(i, j), max(i, j))
        drawn += 1
        checked += 1

    rounds = code.rounds
    if rounds is not None and len(rounds):
        extra = -(-samples // 10)
        if rounds.min() != rounds.max():
            found = 0
            attempts = 0
            while found < extra and attempts < 50 * extra:
                attempts += 1
                i = next(stream) % m
                j = next(stream) % m
                if i == j or int(rounds[i]) == int(rounds[j]):
                    continue
                check(min(i, j), max(i, j))
                found += 1
                checked += 1
    return DistanceReport(best, witness, checked, "sampled",
                          samples=samples, seed=seed)


@dataclass
class VerificationReport:
    """Side-by-side record of predicted versus measured code parameters."""

    params: CdcParams | None
    expected_size: int
    stored_size: int
    distinct_size: int
    claimed_distance: int
    observed_distance: int
    distance_mode: str
    pairs_checked: int
    witness: tuple | None
    vacuous: bool
    passed: bool
    runtime_seconds: float
    notes: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "expected_size": str(self.expected_size),
            "stored_size": str(self.stored_size),
            "distinct_size": str(self.distinct_size),
            "claimed_distance": self.claimed_distance,
            "observed_distance": self.observed_distance,
            "distance_mode": self.distance_mode,
            "pairs_checked": self.pairs_checked,
            "witness": list(self.witness) if self.witness else None,
            "vacuous": self.vacuous,
            "passed": self.passed,
            "runtime_seconds": round(self.runtime_seconds, 3),
            "notes": list(self.notes),
        }


def reconcile(code: CDC, expected_size: int, claimed_distance: int,
              mode: str = "exhaustive", samples: int = 10 ** 6,
              seed: int = 0, pair_budget: int | None = None) -> VerificationReport:
    """Measure a code and compare against its claimed parameters.

    Passes when the members are pairwise distinct, their number equals
    ``expected_size``, and the measured minimum distance over the checked
    pairs is at least ``claimed_distance``.  A sampled distance can only
    refute the claim, never fully confirm it; the report says which mode
    produced the number.
    """
    t0 = time.perf_counter()
    notes = []
    stored = len(code)
    distinct = code.distinct_count()
    if distinct != stored:
        notes.append(f"{stored - distinct} duplicate members")
    if distinct != expected_size:
        notes.append(f"distinct size {distinct} != expected {expected_size}")

    if mode == "exhaustive":
        report = min_distance_exhaustive(code, pair_budget=pair_budget)
    elif mode == "sampled":
        report = min_distance_sampled(code, samples, seed)
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if report.vacuous:
        notes.append("fewer than two members, distance vacuously fine")
    elif report.distance < claimed_distance:
        notes.append(f"distance {report.distance} below claim "
                     f"{claimed_distance}, witness pair {report.witness}")

    passed = (distinct == stored == expected_size
              and (report.vacuous or report.distance >= claimed_distance))
    return VerificationReport(
        params=code.params,
        expected_size=expected_size,
        stored_size=stored,
        distinct_size=distinct,
        claimed_distance=claimed_distance,
        observed_distance=report.distance,
        distance_mode=report.mode,
        pairs_checked=report.pairs_checked,
        witness=report.witness,
        vacuous=report.vacuous,
        passed=passed,
        runtime_seconds=time.perf_counter() - t0,
        notes=notes,
    )
