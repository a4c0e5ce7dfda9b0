"""Lower and upper bounds for constant-dimension subspace codes.

A constant-dimension code is a set of k-dimensional subspaces of GF(q)^N
whose pairwise subspace distance is at least d (d is always even).  The
lower bounds here are constructive: each value is the exact cardinality of
the code produced by construction.assemble_parallel at the same parameters,
obtained from one rank-metric code of shape k x n lifted in parallel with
s rounds of k x k companions.  The upper bounds are the classical packing
bounds used as yardsticks.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .counting import _factor_prime_power, gaussian_binomial, truncated_rank_sum
from .errors import InternalConsistencyError, InvalidParameterError

REFERENCE_DATA = "data/reference_bounds.txt"


def check_distance(d: int) -> None:
    """A subspace distance is even and at least 2."""
    if d < 2 or d % 2:
        raise InvalidParameterError(
            f"subspace distance must be even and >= 2, got {d}")


@dataclass(frozen=True)
class CdcParams:
    """Parameters of a constant-dimension code.

    q       field order
    ambient dimension N of the surrounding vector space
    d       minimum subspace distance (even)
    k       dimension of every codeword subspace
    n       width of the rank-code matrices behind a construction, or None
    s       number of extra parallel rounds behind a construction, or None

    For constructed codes ambient == (s + 1) * k + n.
    """

    q: int
    ambient: int
    d: int
    k: int
    n: int | None = None
    s: int | None = None

    def validate(self) -> "CdcParams":
        if not isinstance(self.q, int) or _factor_prime_power(self.q) is None:
            raise InvalidParameterError(
                f"field order must be a prime power >= 2, got {self.q!r}")
        check_distance(self.d)
        if not self.d // 2 <= self.k <= self.ambient:
            raise InvalidParameterError(
                f"need d/2 <= k <= ambient, got d={self.d}, k={self.k}, "
                f"ambient={self.ambient}")
        if (self.n is None) != (self.s is None):
            raise InvalidParameterError("construction needs both n and s or neither")
        if self.n is not None:
            if self.s < 0:
                raise InvalidParameterError(f"rounds s must be >= 0, got {self.s}")
            if not self.n >= self.k >= self.d:
                raise InvalidParameterError(
                    f"construction needs n >= k >= d, got n={self.n}, "
                    f"k={self.k}, d={self.d}")
            if self.ambient != (self.s + 1) * self.k + self.n:
                raise InvalidParameterError(
                    f"ambient {self.ambient} != (s+1)*k + n = "
                    f"{(self.s + 1) * self.k + self.n}")
        return self


@dataclass(frozen=True)
class BoundResult:
    """A bound value together with the parameters it applies to.

    ``kind`` says which bound produced the value.
    """

    params: CdcParams
    value: int
    kind: str


def _residual_count(q: int, m: int, k: int, d: int) -> int:
    # codewords of a k x m maximum rank distance code, minimum rank d/2,
    # whose rank stays low enough to survive one more lifting round
    return truncated_rank_sum(q, m, k, d // 2, d // 2, k - d // 2)


def parallel_lower_bound(q: int, n: int, k: int, d: int, s: int) -> BoundResult:
    """Size of the parallel construction with s extra rounds.

    Round j (0 <= j <= s) contributes a lifted k x ((s - j) * k + n) code
    prefixed by j rank-limited square companions; the final round trades
    the lifted part for a rank-limited k x n tail.  The total is

        sum_{j=0}^{s} q^(((s-j)k + n)(k - d/2 + 1)) * R_k^j  +  R_n * R_k^s

    where R_m counts codewords of rank at most k - d/2 in a k x m code of
    minimum rank distance d/2.  With s = 0 this is the plain two-block
    construction.
    """
    params = CdcParams(q, (s + 1) * k + n, d, k, n=n, s=s).validate()
    value = sum(term for term in block_cardinalities(q, n, k, d, s))
    return BoundResult(params, value, "parallel")


def two_block_lower_bound(q: int, n: int, k: int, d: int) -> BoundResult:
    """Lifted code plus rank-limited tail; the s = 0 parallel construction."""
    res = parallel_lower_bound(q, n, k, d, 0)
    return BoundResult(res.params, res.value, "two-block")


def block_cardinalities(q: int, n: int, k: int, d: int, s: int) -> list:
    """Per-round codeword counts of the parallel construction.

    Returns s + 2 positive counts; their sum is the parallel lower bound.
    The list order matches the member order of assemble_parallel.
    """
    CdcParams(q, (s + 1) * k + n, d, k, n=n, s=s).validate()
    delta = d // 2
    r_k = _residual_count(q, k, k, d)
    r_n = _residual_count(q, n, k, d)
    blocks = [q ** (((s - j) * k + n) * (k - delta + 1)) * r_k ** j
              for j in range(s + 1)]
    blocks.append(r_n * r_k ** s)
    return blocks


def johnson_anticode_upper(q: int, n: int, k: int, d: int) -> BoundResult:
    """Packing upper bound by anticode ratio.

    A_q(n, d, k) <= floor of bracket(n, k - d/2 + 1) / bracket(k, k - d/2 + 1)
    with bracket the Gaussian binomial at base q.
    """
    params = CdcParams(q, n, d, k).validate()
    delta = d // 2
    num = gaussian_binomial(n, k - delta + 1, q)
    den = gaussian_binomial(k, k - delta + 1, q)
    return BoundResult(params, num // den, "johnson-anticode")


def johnson_iterated_upper(q: int, n: int, d: int, k: int,
                           base: int | None = None) -> BoundResult:
    """Packing upper bound by iterated puncturing.

    Applies A_q(n, d, k) <= floor((q^n - 1) A_q(n-1, d, k-1) / (q^k - 1))
    repeatedly until the codeword dimension reaches d/2, where the chain is
    seeded with floor((q^n' - 1) / (q^(d/2) - 1)) for n' = n - k + d/2.  A
    different seed (a better known bound at that end point) can be supplied.
    """
    params = CdcParams(q, n, d, k).validate()
    delta = d // 2
    ni, ki = n - (k - delta), delta
    value = (q ** ni - 1) // (q ** delta - 1) if base is None else base
    if value < 1:
        raise InvalidParameterError(f"seed bound must be positive, got {value}")
    for _ in range(k - delta):
        ni += 1
        ki += 1
        value = (q ** ni - 1) * value // (q ** ki - 1)
    return BoundResult(params, value, "johnson-iterated")


@dataclass(frozen=True)
class TableRow:
    """One shipped reference row: parameters, new bound, prior record."""

    q: int
    ambient: int
    d: int
    k: int
    new: int
    old: int


def load_reference_rows() -> list:
    """Parse the shipped reference table."""
    text = resources.files(__package__).joinpath(REFERENCE_DATA).read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise InternalConsistencyError(
                f"malformed reference row: {line!r}")
        q, ambient, d, k, new, old = (int(p) for p in parts)
        rows.append(TableRow(q, ambient, d, k, new, old))
    if not rows:
        raise InternalConsistencyError("reference table is empty")
    return rows


@dataclass(frozen=True)
class ReproducedRow:
    row: TableRow
    computed: int
    matches: bool
    improves: bool


def reproduce_reference_table() -> list:
    """Recompute every shipped reference row with the s = 1 parallel bound.

    All shipped rows use one extra round, so the matrix width is
    n = ambient - 2k.  ``matches`` flags agreement between the fresh
    computation and the shipped value; ``improves`` compares the shipped
    new value against the shipped prior record.
    """
    out = []
    for row in load_reference_rows():
        res = parallel_lower_bound(row.q, row.ambient - 2 * row.k, row.k, row.d, 1)
        out.append(ReproducedRow(row, res.value,
                                 res.value == row.new, row.new > row.old))
    return out
