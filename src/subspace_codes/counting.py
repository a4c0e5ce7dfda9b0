"""Exact counting for subspaces and rank-bounded matrices over GF(q).

Every function here works in plain integer arithmetic.  Divisions that are
exact by theory are checked at runtime, so a wrong intermediate raises
InternalConsistencyError instead of silently flooring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InternalConsistencyError, InvalidParameterError


def _factor_prime_power(q: int):
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
        p += 1
    return (q, 1)  # q itself is prime


def _check_q(q: int):
    if not isinstance(q, int) or q < 2:
        raise InvalidParameterError(f"field order must be an integer >= 2, got {q!r}")
    if _factor_prime_power(q) is None:
        raise InvalidParameterError(f"field order must be a prime power, got {q}")


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n.

    Product formula, dividing at every step.  Each partial product is itself
    a subspace count, so every division is exact; a remainder raises.
    Returns 0 when k is outside [0, n].
    """
    _check_q(q)
    if k < 0 or k > n:
        return 0
    value = 1
    for i in range(k):
        value, rem = divmod(value * (q ** (n - i) - 1), q ** (i + 1) - 1)
        if rem:
            raise InternalConsistencyError(
                f"inexact division in gaussian_binomial({n}, {k}, {q})")
    return value


def count_rank_matrices(q: int, m: int, n: int, r: int) -> int:
    """Number of m x n matrices over GF(q) of rank exactly r."""
    _check_q(q)
    if m < 0 or n < 0:
        raise InvalidParameterError(f"matrix shape {m} x {n} is invalid")
    if r < 0 or r > min(m, n):
        raise InvalidParameterError(
            f"rank {r} impossible for a {m} x {n} matrix")
    value = gaussian_binomial(m, r, q)
    for i in range(r):
        value *= q ** n - q ** i
    return value


@dataclass
class RankDistribution:
    """Exact rank weight enumerator of a maximum rank distance code.

    ``counts[r]`` is the number of codewords of rank r; rank 0 (the zero
    word) is always present with count 1.
    """

    q: int
    m: int
    nmin: int
    d: int
    counts: dict = field(repr=False)

    def total(self) -> int:
        return sum(self.counts.values())


def delsarte_rank_distribution(q: int, m: int, nmin: int, d: int) -> RankDistribution:
    """Rank distribution of a linear maximum rank distance code.

    The code lives in the space of nmin x m matrices over GF(q) with
    m >= nmin, has minimum rank distance d and cardinality
    q**(m * (nmin - d + 1)).  The count at each rank r >= d is

        bracket(nmin, r) * sum_{i=0}^{r-d} (-1)^i q^(i(i-1)/2)
                           * bracket(r, i) * (q^(m (r - i - d + 1)) - 1)

    with bracket the Gaussian binomial at base q.  Counts below d other
    than rank 0 are zero.  The counts are checked against the cardinality
    before returning.
    """
    _check_q(q)
    if not (1 <= d <= nmin <= m):
        raise InvalidParameterError(
            f"need 1 <= d <= nmin <= m, got d={d}, nmin={nmin}, m={m}")
    counts = {0: 1}
    for r in range(1, nmin + 1):
        if r < d:
            counts[r] = 0
            continue
        acc = 0
        for i in range(r - d + 1):
            term = (q ** (i * (i - 1) // 2)
                    * gaussian_binomial(r, i, q)
                    * (q ** (m * (r - i - d + 1)) - 1))
            acc += -term if i & 1 else term
        if acc < 0:
            raise InternalConsistencyError(
                f"negative rank count at r={r} for (q={q}, m={m}, nmin={nmin}, d={d})")
        counts[r] = gaussian_binomial(nmin, r, q) * acc
    dist = RankDistribution(q, m, nmin, d, counts)
    if dist.total() != q ** (m * (nmin - d + 1)):
        raise InternalConsistencyError(
            f"rank counts do not sum to the code size for "
            f"(q={q}, m={m}, nmin={nmin}, d={d})")
    return dist


def truncated_rank_sum(q: int, m: int, nmin: int, d: int,
                       r_lo: int, r_hi: int) -> int:
    """Number of codewords with rank in [r_lo, r_hi] in the code above.

    Requires d <= r_lo and r_hi <= nmin; an empty range (r_lo > r_hi)
    counts zero codewords.
    """
    if r_lo > r_hi:
        return 0
    if r_lo < d:
        raise InvalidParameterError(
            f"r_lo={r_lo} below the minimum nonzero rank d={d}")
    if r_hi > nmin:
        raise InvalidParameterError(f"r_hi={r_hi} exceeds nmin={nmin}")
    dist = delsarte_rank_distribution(q, m, nmin, d)
    return sum(dist.counts[r] for r in range(r_lo, r_hi + 1))
