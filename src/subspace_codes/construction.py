"""Building constant-dimension codes out of lifted rank-metric codes.

The ambient space GF(q)^N with N = (s + 1) * k + n is cut into s + 1 column
slots of width k followed by one slot of width n.  The code is a union of
s + 2 rounds.  In round b (0 <= b <= s) every member carries the identity
in slot b, rank-limited square codewords in the slots left of b, and full
evaluation codewords in every slot right of b (including the wide one).  In
the final round the identity moves to the last k columns, every k-slot
carries a rank-limited square codeword and the wide slot a rank-limited
k x n codeword.  Pivot columns separate members of different rounds, and
the rank limit k - d/2 keeps cross-round subspace distances at d; within a
round the lifted rank distance does the same.

A code is stored as one (M, k) numpy uint64 array: member i is the k
canonical generator rows codes[i, 0], ..., codes[i, k - 1], each row packed
as the integer sum(entry_c * q**c).  That holds for every q while
q**N <= 2**64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import CdcParams, block_cardinalities
from .errors import (
    BudgetExceededError,
    InternalConsistencyError,
    InvalidParameterError,
    RankDeficiencyError,
)
from .fields import MatrixGF, pack_row, packed_rref, rref_rows
from .gabidulin import (
    BUDGET_ENV_VAR,
    checked_sq_filter,
    gabidulin_enumerate,
    resolve_enum_budget,
)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of GF(q)^ambient in canonical form.

    ``rows`` are the packed reduced-echelon generator rows in pivot order,
    so equality and hashing of Subspace values is equality of subspaces.
    Only code that already holds canonical rows should construct this
    directly; use canonicalize or lift otherwise.
    """

    q: int
    ambient: int
    rows: tuple

    @property
    def dim(self) -> int:
        return len(self.rows)


def canonicalize(gen: MatrixGF) -> Subspace:
    """Subspace spanned by the rows of ``gen``; rows must be independent."""
    q = gen.field.q
    packed = [pack_row(gen.row_list(r), q) for r in range(gen.rows)]
    rows = packed_rref(packed, gen.field, gen.cols)
    if len(rows) != gen.rows:
        raise RankDeficiencyError(
            f"rows span {len(rows)} dimensions, expected {gen.rows}")
    return Subspace(q, gen.cols, rows)


def lift(word: MatrixGF, side: str = "left") -> Subspace:
    """Subspace generated by a codeword next to an identity block.

    side="left" gives the row space of [I | word], side="right" that of
    [word | I].
    """
    k, n = word.rows, word.cols
    q = word.field.q
    words = [pack_row(word.row_list(i), q) for i in range(k)]
    if side == "left":
        packed = [q ** i + w * q ** k for i, w in enumerate(words)]
    elif side == "right":
        packed = [w + q ** (n + i) for i, w in enumerate(words)]
    else:
        raise InvalidParameterError(f"side must be 'left' or 'right', got {side!r}")
    return Subspace(q, k + n, packed_rref(packed, word.field, k + n))


ROW_LIMIT = 2 ** 64


def _member_keys(codes):
    # one 64-bit multiply-xorshift hash per member: equal members get equal
    # keys, and distinct_count compares rows wherever keys collide
    keys = np.zeros(len(codes), dtype=np.uint64)
    for col in codes.T:
        keys ^= col
        keys *= np.uint64(0x9E3779B97F4A7C15)
        keys ^= keys >> np.uint64(29)
    return keys


@dataclass
class CDC:
    """A constant-dimension code held as an (M, k) array of packed rows.

    ``codes`` is a C-contiguous np.uint64 array in construction order; row r
    of member i is ``codes[i, r]``, a canonical generator row packed as
    sum(entry_c * q**c).  Any sequence of row tuples is accepted and
    normalized here.  ``params`` must agree with (q, ambient, k, d).
    ``rounds`` is None or each member's round index, np.uint16 of shape (M,);
    left out, it is read off ``params``' round sizes when they add up to M.

    The rows are not checked here, but they must be canonical: the distance
    scans clear each member's pivot columns from the other member's rows,
    and distinct_count takes equal rows for equal subspaces.
    assemble_parallel emits canonical rows, and read_code checks every
    member of a code file.
    """

    q: int
    ambient: int
    k: int
    d: int
    codes: np.ndarray
    rounds: np.ndarray | None = None
    params: CdcParams | None = None

    def __post_init__(self):
        # q >= 2, so a row past 64 columns never fits; testing that first
        # keeps q**ambient small
        if self.ambient > 64 or self.q ** self.ambient > ROW_LIMIT:
            raise InvalidParameterError(
                f"rows of GF({self.q})^{self.ambient} do not fit the uint64 "
                f"row limit: q**ambient must be at most 2**64")
        codes = np.asarray(self.codes, dtype=np.uint64)
        if codes.size == 0:
            codes = codes.reshape(0, self.k)
        if codes.ndim != 2 or codes.shape[1] != self.k:
            raise InvalidParameterError(
                f"members must be {self.k} packed rows each, "
                f"got an array of shape {codes.shape}")
        self.codes = np.ascontiguousarray(codes)
        own, p = (self.q, self.ambient, self.k, self.d), self.params
        if p is not None and (p.q, p.ambient, p.k, p.d) != own:
            raise InvalidParameterError(
                f"params (q, ambient, k, d) = {(p.q, p.ambient, p.k, p.d)} "
                f"disagree with the code's {own}")
        if self.rounds is None and p is not None and p.n is not None:
            sizes = block_cardinalities(p.q, p.n, p.k, p.d, p.s)
            if sum(sizes) == len(codes):  # uint16 throughout, no int64 temporary
                self.rounds = np.arange(len(sizes), dtype=np.uint16).repeat(sizes)
        if self.rounds is not None:
            self.rounds = np.asarray(self.rounds, dtype=np.uint16)
            if self.rounds.shape != (len(codes),):
                raise InvalidParameterError(
                    f"round labels must have shape ({len(codes)},), one per "
                    f"member, got {self.rounds.shape}")

    def __len__(self):
        return len(self.codes)

    def distinct_count(self) -> int:
        """Number of distinct members, by one sort of a hash key per member.

        Only members whose key repeats have their rows compared.
        """
        m = len(self.codes)
        keys = _member_keys(self.codes)
        ordered = np.sort(keys)
        repeats = ordered[1:][ordered[1:] == ordered[:-1]]
        if not len(repeats):
            return m
        # the members whose key repeats, sorted by (key, rows): equal
        # members are neighbours inside one key run
        at = repeats.searchsorted(keys).clip(max=len(repeats) - 1)
        clash = np.flatnonzero(repeats[at] == keys)
        rows = self.codes[clash]
        rows = rows[np.lexsort((*rows.T, keys[clash]))]
        return m - int(np.count_nonzero((rows[1:] == rows[:-1]).all(axis=1)))


def assemble_parallel(q: int, n: int, k: int, d: int, s: int,
                      budget: int | None = None) -> CDC:
    """Construct the full parallel code for these parameters.

    The member count always equals the parallel lower bound; the test suite
    and the verifier check that, plus distinctness and minimum distance.
    Enumeration is refused (BudgetExceededError) when the member count would
    exceed the resolved budget.

    Member order is deterministic: rounds in order, and within a round the
    cartesian product of the slot codeword lists, leftmost slot slowest.
    """
    params = CdcParams(q, (s + 1) * k + n, d, k, n=n, s=s).validate()
    ambient = params.ambient
    delta = d // 2

    # an empty code checks the row width before the round sizes, which grow
    # as q**n
    CDC(q, ambient, k, d, ())
    per_round = block_cardinalities(q, n, k, d, s)
    total = sum(per_round)
    allowed = resolve_enum_budget(budget)
    if total > allowed:
        raise BudgetExceededError(
            f"construction has {total} members, over the budget of {allowed}; "
            f"pass a larger budget or set {BUDGET_ENV_VAR}")

    codes = np.empty((total, k), dtype=np.uint64)
    full_kk = gabidulin_enumerate(q, k, k, delta, budget=allowed) if s else None
    sq_kk = checked_sq_filter(full_kk, k - delta) if s else None
    full_nk = gabidulin_enumerate(q, n, k, delta, budget=allowed)
    sq_nk = checked_sq_filter(full_nk, k - delta)

    written = 0
    counts = []

    def emit_round(slot_sources, pivot_offset):
        # identity at pivot_offset plus one word per slot: slots occupy
        # disjoint digit ranges, so member rows are sums of packed parts;
        # with the identity left of every slot the sum is already canonical.
        # The last sum is written straight into the round's slice of codes
        nonlocal written
        acc = np.asarray([[q ** (pivot_offset + i) for i in range(k)]],
                         dtype=np.uint64)
        parts = [words * np.uint64(q ** offset) for words, offset in slot_sources]
        for part in parts[:-1]:
            acc = (acc[:, None, :] + part[None, :, :]).reshape(-1, k)
        size = len(acc) * len(parts[-1])
        if written + size > total:
            raise InternalConsistencyError(
                f"round of {size} members overruns the predicted {total}")
        out = codes[written:written + size]
        np.add(acc[:, None, :], parts[-1][None, :, :],
               out=out.reshape(len(acc), len(parts[-1]), k))
        if pivot_offset:
            ranks, out[...] = rref_rows(out, q, ambient)
            if (ranks != k).any():
                raise InternalConsistencyError("round member lost rank")
        written += size
        return size

    wide_offset = (s + 1) * k
    for b in range(s + 1):
        slot_sources = [(sq_kk.codewords, p * k) for p in range(b)]
        slot_sources += [(full_kk.codewords, p * k) for p in range(b + 1, s + 1)]
        slot_sources += [(full_nk.codewords, wide_offset)]
        counts.append(emit_round(slot_sources, b * k))

    last_sources = [(sq_kk.codewords, p * k) for p in range(s)]
    last_sources += [(sq_nk.codewords, s * k)]
    counts.append(emit_round(last_sources, s * k + n))

    if counts != per_round or written != total:
        raise InternalConsistencyError(
            f"round sizes {counts} disagree with predicted {per_round}")
    return CDC(q, ambient, k, d, codes, params=params)
