"""Explicit maximum rank distance codes in evaluation form.

A codeword is the k x n matrix over GF(q) obtained by evaluating a
q-linearized polynomial f(x) = sum_j f_j x^(q^j), deg bound q^(k - delta),
at k points of GF(q^n) that are linearly independent over GF(q), then
expanding each value into coordinates.  Ranging over all coefficient
vectors yields a linear code of q^(n (k - delta + 1)) matrices whose
nonzero members all have rank at least delta: a maximum rank distance code.

Enumeration is explicit and deterministic, so it is budgeted: anything
bigger than the resolved codeword budget raises instead of grinding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .counting import truncated_rank_sum
from .errors import BudgetExceededError, InternalConsistencyError, InvalidParameterError
from .fields import extension_field, field_of, join_ranks, span_words

DEFAULT_ENUM_BUDGET = 2 ** 24
BUDGET_ENV_VAR = "SUBSPACE_ENUM_BUDGET"


def resolve_enum_budget(budget: int | None = None) -> int:
    """Effective codeword budget: explicit argument, else environment, else default."""
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR)
        if raw is None:
            return DEFAULT_ENUM_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise InvalidParameterError(
                f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if budget < 1:
        raise InvalidParameterError(f"budget must be positive, got {budget}")
    return budget


@dataclass
class RankCode:
    """Codewords of a k x n evaluation code over GF(q) of minimum rank delta.

    ``codewords`` is a C-contiguous (W, k) np.uint64 array in a fixed
    deterministic order: row r of word w is ``codewords[w, r]``, packed as
    sum(entry_c * q**c) like the rows of a CDC.  ``cardinality`` is the size
    of the complete evaluation code, also for a filtered subset.
    """

    q: int
    n: int
    k: int
    delta: int
    codewords: np.ndarray

    @property
    def cardinality(self) -> int:
        return self.q ** (self.n * (self.k - self.delta + 1))

    def __len__(self):
        return len(self.codewords)


def gabidulin_enumerate(q: int, n: int, k: int, delta: int,
                        budget: int | None = None) -> RankCode:
    """Enumerate the full evaluation code for the given shape.

    Codewords appear in coefficient order: message index t encodes the
    coefficients f_j = (t // Q^j) mod Q with Q = q^n, so index 0 is the zero
    word and consecutive indices first step f_0 through GF(q^n).  Evaluation
    points are the first k elements of the power basis of GF(q^n).

    With q = p^e, message t maps GF(p)-linearly to its word, digit i of t in
    base p scaling the basis word of message p^i.  Only those e*n*kappa basis
    words are built, read off the extension's coordinate table; the code is
    their GF(p)-span in message order, from ``fields.span_words``, which
    fills one preallocated base-p digit array in place, reduces each sum
    mod p with no division, and packs it once.
    """
    if not 1 <= delta <= k <= n:
        raise InvalidParameterError(
            f"need 1 <= delta <= k <= n, got delta={delta}, k={k}, n={n}")
    base = field_of(q)
    kappa = k - delta + 1
    cardinality = q ** (n * kappa)
    allowed = resolve_enum_budget(budget)
    if cardinality > allowed:
        raise BudgetExceededError(
            f"enumeration of {cardinality} codewords exceeds the budget of "
            f"{allowed}; pass a larger budget or set {BUDGET_ENV_VAR}")

    ext = extension_field(q, n)
    E = ext.ext
    p = base.p
    # message p^i, i = j*E.e + t, has the single coefficient f_j = x^t = g^t,
    # whose value at the point g^r is g^(t + r*q^j): a lookup in coords.
    # Entry c of a row has its base-p digits at positions c*e .. c*e + e - 1,
    # so a packed GF(q) row read in base p is its GF(p) coordinate row
    logs = [[(t + r * pow(q, j, E.q - 1)) % (E.q - 1) for r in range(k)]
            for j in range(kappa) for t in range(E.e)]
    basis = ext.coords[np.array(E._exp)[logs]]
    return RankCode(q, n, k, delta, span_words(basis, p, n * base.e))


def _ranks(code: RankCode):
    # the rank of each word is what its rows add to no head rows
    words = code.codewords
    return join_ranks(words[:, :0], words, code.q, code.n)


def empirical_rank_distribution(code: RankCode) -> dict:
    """Rank histogram of the stored codewords, as {rank: count}."""
    counts = np.bincount(_ranks(code))
    return {r: int(c) for r, c in enumerate(counts.tolist()) if c}


def checked_sq_filter(code: RankCode, max_rank: int) -> RankCode:
    """Keep the nonzero codewords of rank at most max_rank, in code order.

    The code must be the full evaluation code of its shape, so the number
    kept is exactly the truncated rank sum of its rank distribution; a
    filter that keeps any other number raises InternalConsistencyError.
    """
    if not 0 <= max_rank <= code.k:
        raise InvalidParameterError(
            f"max_rank must lie in [0, {code.k}], got {max_rank}")
    if len(code) != code.cardinality:
        raise InvalidParameterError(
            f"size check needs the full evaluation code of "
            f"{code.cardinality} words, got {len(code)}")
    ranks = _ranks(code)
    keep = (ranks > 0) & (ranks <= max_rank)
    out = replace(code, codewords=code.codewords[keep])
    want = truncated_rank_sum(code.q, code.n, code.k, code.delta,
                              code.delta, max_rank)
    if len(out) != want:
        raise InternalConsistencyError(
            f"rank filter kept {len(out)} codewords, distribution says {want}")
    return out
