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

A round is emitted as broadcast sums of packed slot words.  Round 0 is
canonical as summed.  Every other member [left | I | right] is reduced to
canonical rows.  It has rank k inside its prefix [left | I], so its
canonical rows are T * member for an invertible T fixed by the prefix
alone, acting on each right slot apart.  Rounds 1 .. s - 1, with slots left
of the identity and at least two right of it, use that: each prefix is
reduced once, and each prefix with one word of one right slot once.
Round s and the last round, with at most one slot right of the identity,
are reduced in place, member by member.

A code is stored as one (M, k) numpy uint64 array: member i is the k
canonical generator rows codes[i, 0], ..., codes[i, k - 1], each row packed
as the integer sum(entry_c * q**c).  That holds for every q while
q**N <= 2**64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    # keys, and CDC.repeats compares rows wherever keys collide
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
    normalized here.  ``params`` (keyword only) must agree with (q, ambient,
    k, d); ``round_sizes`` reads the rounds, runs of members, off it.

    The rows are not checked here, but they must be canonical: the distance
    scans clear each member's pivot columns from the other member's rows,
    and repeats takes equal rows for equal subspaces.
    assemble_parallel emits canonical rows, and read_code checks every
    member of a code file.
    """

    q: int
    ambient: int
    k: int
    d: int
    codes: np.ndarray
    params: CdcParams | None = field(default=None, kw_only=True)

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

    def __len__(self):
        return len(self.codes)

    @property
    def round_sizes(self) -> list | None:
        """Member count of each round, in member order, read off ``params``;
        None unless it names a parallel construction of len(self) members."""
        p = self.params
        if p is None or p.n is None:
            return None
        sizes = block_cardinalities(p.q, p.n, p.k, p.d, p.s)
        return sizes if sum(sizes) == len(self.codes) else None

    @property
    def rounds(self) -> np.ndarray | None:
        # each member's round index as uint16; perfbench/child.py is its only reader
        sizes = self.round_sizes
        return sizes and np.arange(len(sizes), dtype=np.uint16).repeat(sizes)

    def repeats(self):
        """The members whose rows equal an earlier member's, by one sort of
        a hash key per member.

        Returns two index arrays (earlier, later): member later[t] repeats
        member earlier[t], its nearest earlier copy, so no member is earlier
        twice.  Only members whose key repeats have their rows compared.
        """
        keys = _member_keys(self.codes)
        ordered = np.sort(keys)
        shared = ordered[1:][ordered[1:] == ordered[:-1]]
        if not len(shared):
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        # the members whose key repeats, sorted by (key, rows): equal
        # members are neighbours inside one key run, in ascending index
        # order, since the sort is stable
        at = shared.searchsorted(keys).clip(max=len(shared) - 1)
        clash = np.flatnonzero(shared[at] == keys)
        rows = self.codes[clash]
        order = np.lexsort((*rows.T, keys[clash]))
        clash, rows = clash[order], rows[order]
        same = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
        return clash[same], clash[same + 1]

    def distinct_count(self) -> int:
        """Number of distinct members: those that repeat no earlier one."""
        return len(self) - len(self.repeats()[0])


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
    params = CdcParams(q, (s + 1) * k + n, d, k, n=n, s=s)
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

    # rounds b = 0..s, then the last round: the slot sources, as (words,
    # digit offset), and the digit offset of the identity
    rounds = []
    for b in range(s + 1):
        sources = [(sq_kk.codewords, p * k) for p in range(b)]
        sources += [(full_kk.codewords, p * k) for p in range(b + 1, s + 1)]
        rounds.append((sources + [(full_nk.codewords, (s + 1) * k)], b * k))
    rounds.append(([(sq_kk.codewords, p * k) for p in range(s)]
                   + [(sq_nk.codewords, s * k)], s * k + n))

    def reduced(stacks):
        # each stack of k rows to its canonical rows, in place
        if (rref_rows(stacks.reshape(-1, k), q, ambient) != k).any():
            raise InternalConsistencyError("round member lost rank")
        return stacks

    # identity at pivot_offset plus one word per slot: slots occupy disjoint
    # digit ranges, so member rows are sums of packed parts, held as
    # (P, A, k) arrays with P = 1 outside a split round.  A split round
    # (see the module docstring) sums its P reduced prefixes, the heads,
    # with one T * w per right slot: a reduced prefix-and-word stack less
    # its head, digit-disjoint from it.  Any other round after round 0 is
    # reduced in place.  The last sum is written straight into the round's
    # slice of codes
    written = 0
    for (sources, pivot_offset), size in zip(rounds, per_round, strict=True):
        acc = np.asarray([[[q ** (pivot_offset + i) for i in range(k)]]],
                         dtype=np.uint64)
        parts = [words[None] * np.uint64(q ** offset) for words, offset in sources]
        members = math.prod(part.shape[1] for part in parts)
        if members != size:
            raise InternalConsistencyError(
                f"round of {members} members, predicted {size}")
        left = sum(offset < pivot_offset for _, offset in sources)
        split = 0 < left < len(parts) - 1
        if split:
            for part in parts[:left]:
                acc = _outer(acc, part)
            prefixes = acc.reshape(-1, 1, k)
            acc = reduced(prefixes.copy())
            parts = [reduced(_outer(prefixes, part)) - acc
                     for part in parts[left:]]
        for part in parts[:-1]:
            acc = _outer(acc, part)
        out = codes[written:written + size]
        np.add(acc[:, :, None], parts[-1][:, None],
               out=out.reshape(*acc.shape[:2], parts[-1].shape[1], k))
        if pivot_offset and not split:
            reduced(out)
        written += size
    return CDC(q, ambient, k, d, codes, params=params)


def _outer(acc, part):
    # every sum of a stack of acc and a word of part, leftmost slowest: a
    # (P, A, k) and a (P or 1, W, k) array give (P, A * W, k)
    return (acc[:, :, None] + part[:, None]).reshape(len(acc), -1, acc.shape[2])
