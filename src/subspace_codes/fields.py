"""Arithmetic in small finite fields and exact linear algebra over them.

Elements of GF(p^e) are represented by plain integer indices in
``range(p**e)``.  The index encodes the coefficient vector of the element
with respect to the power basis of the residue class of x modulo a fixed
polynomial: ``index = c0 + c1*p + ... + c_{e-1}*p**(e-1)``.  Index 0 is
zero, index 1 is one, and for e > 1 index p is the residue of x itself,
which doubles as the multiplicative generator.  All moduli come from a
frozen table of Conway polynomials, so construction is deterministic: the
same order always produces the same arithmetic and the same indexing.

Base fields handed out by :func:`field_of` are restricted to orders
2, 3, 4, 5, 7, 8 and 9.  That keeps every lookup table tiny while covering
every order the counting formulas in this package are tabulated for.
Extension fields GF(q^m) are realized as GF(p^(e*m)) and carry an explicit
embedding of GF(q) plus a coordinate table for the power basis over GF(q).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counting import _factor_prime_power
from .errors import (
    IncompatibleFieldError,
    InternalConsistencyError,
    InvalidElementError,
    InvalidParameterError,
)

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)

# Conway polynomials, coefficients in ascending degree order, monic.  The
# degree-1 entries encode x - z with z the least primitive root mod p, so
# the generator convention below holds uniformly.  Each entry is verified
# irreducible with primitive residue x by the test suite.
CONWAY_POLYS = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
}


class Field:
    """GF(p^e) with exp/log multiplication and table-driven addition.

    Do not construct directly; go through :func:`field_of` or
    :func:`extension_field` so instances are cached and interchangeable.
    """

    __slots__ = ("p", "e", "q", "modulus", "generator",
                 "_exp", "_log", "_add", "_neg")

    def __init__(self, p: int, e: int, modulus: tuple):
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus

        # powers of x: shift the digits up one place, then reduce the top
        # digit by the monic modulus; exp[q - 1] wraps back to 1
        exp = [1]
        cur = [1] + [0] * (e - 1)
        for _ in range(self.q - 1):
            top = cur[-1]
            cur = [(lo - top * c) % p for lo, c in zip([0] + cur[:-1], modulus)]
            exp.append(pack_row(cur, p))
        self.generator = exp[1]
        exp.pop()
        if sorted(exp) != list(range(1, self.q)):
            raise InternalConsistencyError(
                f"residue generator of GF({self.q}) is not primitive")
        log = [0] * self.q
        for t, v in enumerate(exp):
            log[v] = t
        self._exp = tuple(exp)
        self._log = tuple(log)

        # digit-wise sums and negatives mod p; _add is a flat q*q table
        dig = unpack_rows(np.arange(self.q, dtype=np.uint64), p, e)
        self._add = tuple(pack_rows((dig[:, None] + dig) % p, p).ravel().tolist())
        self._neg = tuple(pack_rows((p - dig) % p, p).tolist())

    def add(self, a: int, b: int) -> int:
        return self._add[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError(f"0**{n} in GF({self.q})")
            return 0
        return self._exp[(self._log[a] * (n % (self.q - 1))) % (self.q - 1)]

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def _field(p: int, e: int) -> Field:
    if (p, e) not in CONWAY_POLYS:
        raise InvalidParameterError(
            f"no modulus on record for GF({p}^{e}); "
            f"orders up to {max(pp ** ee for pp, ee in CONWAY_POLYS)} per characteristic are available")
    return Field(p, e, CONWAY_POLYS[(p, e)])


@lru_cache(maxsize=None)
def field_of(q: int) -> Field:
    """Return the base field of order q, for q in SUPPORTED_Q."""
    fac = _factor_prime_power(q)
    if fac is None or q not in SUPPORTED_Q:
        raise InvalidParameterError(
            f"base field order {q} not supported; choose one of {SUPPORTED_Q}")
    return _field(*fac)


def check_element(field: Field, a: int, what: str = "element") -> int:
    """``a`` as a Python int, if it is an integer index into ``field``."""
    if not isinstance(a, (int, np.integer)) or not 0 <= a < field.q:
        raise InvalidElementError(f"{what} {a!r} is not an index into {field!r}")
    return int(a)


class Extension:
    """GF(q^m) presented as an m-dimensional vector space over GF(q).

    Carries the subfield embedding and ``coords``, the coordinate table for
    ``basis``, the power basis 1, g, ..., g^(m-1) of the extension
    generator g: entry x is the coordinate row of element x, packed as
    sum(y_j * q**j) like every other row.

    Coordinates returned by :meth:`expand` are base-field element indices,
    ordered to match ``basis``.
    """

    def __init__(self, base: Field, m: int):
        if m < 1:
            raise InvalidParameterError(f"extension degree must be >= 1, got {m}")
        self.base = base
        self.m = m
        self.ext = ext = _field(base.p, base.e * m)
        order = ext.q - 1

        # the norm power g^(order / (q - 1)) generates the copy of GF(q)
        # inside GF(q^m); with compatible (Conway) moduli it is a root of
        # the base modulus, so a = x^log(a) maps to its log-th power
        exp = np.array(ext._exp)
        logs = np.array(base._log) * (order // (base.q - 1))
        self._emb = (0,) + tuple(exp[logs[1:]].tolist())
        if any(self._emb[base.add(a, b)] != ext.add(self._emb[a], self._emb[b])
               for a in range(base.q) for b in range(base.q)):
            raise InternalConsistencyError(
                f"norm power of the GF({ext.q}) generator does not embed "
                f"GF({base.q}) additively")

        self.basis = tuple(ext.pow(ext.generator, j) for j in range(m))

        # map every coordinate row y to sum_j emb(y_j) * g^j, adding the
        # terms as GF(p) digits, then invert the map by indexing
        rows = unpack_rows(np.arange(ext.q, dtype=np.uint64), base.q, m)
        terms = np.where(rows > 0, exp[(logs[rows] + np.arange(m)) % order], 0)
        digits = unpack_rows(terms.astype(np.uint64), base.p, ext.e).sum(axis=1)
        images = pack_rows(digits % base.p, base.p).astype(np.int64)
        if np.bincount(images, minlength=ext.q).max() != 1:
            raise InternalConsistencyError("power basis coordinates are not a bijection")
        self.coords = np.empty(ext.q, dtype=np.uint64)
        self.coords[images] = np.arange(ext.q, dtype=np.uint64)

    def embed(self, a: int) -> int:
        """Image of a base-field element inside the extension."""
        return self._emb[check_element(self.base, a)]

    def expand(self, x: int) -> tuple:
        """Coordinates of an extension element with respect to ``basis``."""
        x = check_element(self.ext, x)
        return tuple(unpack_row(int(self.coords[x]), self.base.q, self.m))

    def __repr__(self):
        return f"GF({self.base.q}^{self.m})"


@lru_cache(maxsize=None)
def extension_field(q: int, m: int) -> Extension:
    """GF(q^m) with the default power basis over GF(q)."""
    return Extension(field_of(q), m)


def linearized_eval(coeffs, x: int, q: int, field: Field) -> int:
    """Evaluate sum_j coeffs[j] * x**(q**j) inside ``field``.

    ``field`` must be an extension of GF(q), i.e. its order a power of q.
    """
    t = q
    # a q below 2 stops the loop at once: its powers never reach field.q
    while 1 < t < field.q:
        t *= q
    if t != field.q:
        raise IncompatibleFieldError(
            f"order of {field!r} is not a power of q={q}")
    x = check_element(field, x, "evaluation point")
    acc = 0
    for j, c in enumerate(coeffs):
        c = check_element(field, c, "coefficient")
        if c:
            acc = field.add(acc, field.mul(c, field.pow(x, q ** j)))
    return acc


@dataclass(frozen=True)
class MatrixGF:
    """Immutable matrix over a finite field, entries stored row-major."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def entry(self, r: int, c: int) -> int:
        return self.entries[r * self.cols + c]

    def row_list(self, r: int) -> list:
        return list(self.entries[r * self.cols:(r + 1) * self.cols])

    def to_lists(self) -> list:
        return [self.row_list(r) for r in range(self.rows)]


def matrix(field: Field, rows) -> MatrixGF:
    """Build a MatrixGF from an iterable of equal-length rows."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise InvalidParameterError("matrix needs at least one row and one column")
    ncols = len(rows[0])
    flat = []
    for r in rows:
        if len(r) != ncols:
            raise InvalidParameterError("ragged rows in matrix input")
        for v in r:
            flat.append(check_element(field, v, "matrix entry"))
    return MatrixGF(field, len(rows), ncols, tuple(flat))


def _same_shape(a: MatrixGF, b: MatrixGF):
    if a.field != b.field:
        raise IncompatibleFieldError("matrices over different fields")
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise InvalidParameterError("matrix shapes differ")


def mat_sub(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    _same_shape(a, b)
    f = a.field
    return MatrixGF(f, a.rows, a.cols,
                    tuple(f.sub(x, y) for x, y in zip(a.entries, b.entries)))


def _row_reduce(field: Field, rows):
    """Nonzero rows of the full reduced echelon form, in pivot order."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [field.sub(v, field.mul(f, w))
                           for v, w in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def mat_rank(a: MatrixGF) -> int:
    return len(_row_reduce(a.field, a.to_lists()))


def mat_rref(a: MatrixGF) -> MatrixGF:
    """Reduced row echelon form with zero rows dropped; a zero matrix gives
    one zero row.

    The result is the canonical generator of the row space: two matrices
    have equal row spaces exactly when their rrefs are equal.
    """
    reduced = _row_reduce(a.field, a.to_lists())
    if not reduced:
        return MatrixGF(a.field, 1, a.cols, (0,) * a.cols)
    return MatrixGF(a.field, len(reduced), a.cols,
                    tuple(v for row in reduced for v in row))


# ---------------------------------------------------------------------------
# Packed rows.  A row vector over GF(q) of a given width is stored as the
# integer sum(entry_c * q**c), column 0 in the least significant digit, for
# every q.  packed_rank and packed_rref unpack the rows and run the scalar
# _row_reduce on them; the batched kernels below are the fast path.
# span_words builds the GF(p)-span of words of packed rows, such as the MRD
# codes, on one preallocated digit array filled in place with no division.

def pack_row(row, q: int) -> int:
    v = 0
    for d in reversed(row):
        v = v * q + d
    return v


def unpack_row(value: int, q: int, width: int) -> list:
    out = []
    for _ in range(width):
        value, d = divmod(value, q)
        out.append(d)
    return out


@lru_cache(maxsize=None)
def _digit_table(q: int, g: int) -> np.ndarray:
    x = np.arange(q ** g, dtype=np.uint64)[:, None]
    return (x // q ** np.arange(g, dtype=np.uint64) % q).astype(np.uint8)


def _groups(rows, q: int, width: int, g: int = 0):
    # the digit groups of packed rows, column 0 first: (column, digits,
    # values) per group of g digits, by default the most whose
    # _digit_table(q, g) has at most 4096 rows (48 KB).  One floor division
    # by the scalar q**g between groups; the last group is the digits left,
    # so it looks up a table of its own width, and a row >= q**width gives
    # it a value past that table's end
    g = g or max(c for c in range(1, 13) if q ** c <= 1 << 12)
    base = np.uint64(q ** g)
    for c in range(0, width, g):
        group = rows
        if c + g < width:
            rows = group // base
            group = group - rows * base
        yield c, min(g, width - c), group


def unpack_rows(rows, q: int, width: int) -> np.ndarray:
    """unpack_row along a new uint8 axis; a row >= q**width is an IndexError."""
    # a row clamped to q**width fails the last lookup instead of indexing
    # from the table's end
    digits = np.empty(rows.shape + (width,), dtype=np.uint8)
    rows = np.minimum(rows, min(q ** width, (1 << 64) - 1))
    for c, g, group in _groups(rows, q, width):
        digits[..., c:c + g] = _digit_table(q, g).take(group, axis=0)
    return digits


def pack_rows(digits, q: int) -> np.ndarray:
    """pack_row over the last axis, adding one digit column at a time."""
    rows = np.zeros(digits.shape[:-1], dtype=np.uint64)
    for c in range(digits.shape[-1] - 1, -1, -1):
        rows *= np.uint64(q)
        rows += digits[..., c]
    return rows


def span_words(basis, p: int, width: int) -> np.ndarray:
    """All p**m GF(p)-combinations of m words of k rows, as a (p**m, k) array.

    Word t is sum(digit_i(t) * basis[i]) digit by digit mod p, digit 0 of t
    in base p stepping fastest.  The digits are filled in place, one basis
    word at a time: block c is acc + (c * word) % p, below 2p, and the
    wrapping subtract in minimum(block, block - p) reduces it mod p with no
    division.
    """
    words = unpack_rows(basis, p, width)
    acc = np.zeros((p ** len(words),) + words.shape[1:], dtype=np.uint8)
    size = 1
    for word in words:
        for c in range(1, p):
            block = acc[c * size:(c + 1) * size]
            np.add(acc[:size], (c * word) % p, out=block)
            np.minimum(block, block - np.uint8(p), out=block)
        size *= p
    return pack_rows(acc, p)


def packed_rank(rows, field: Field, width: int) -> int:
    return len(_row_reduce(field, [unpack_row(int(v), field.q, width)
                                   for v in rows]))


def packed_rref(rows, field: Field, width: int) -> tuple:
    """Canonical packed rows of the row space, sorted by pivot column."""
    reduced = _row_reduce(field, [unpack_row(int(v), field.q, width)
                                  for v in rows])
    return tuple(pack_row(r, field.q) for r in reduced)


# ---------------------------------------------------------------------------
# The batched kernels behind every row reduction on the production path:
# rref_rows where canonical rows are needed and join_ranks where ranks are
# enough, both driven by _eliminate, and pivot_masks, which checks stored
# rows for canonical form without reducing them, one block at a time with
# _masks.  All three read leading columns and ranks off _leads.  Only the
# form helpers _encode, _held, _decode, _leads, _ones, _monic and _clear
# know a row's form: packed bits at q = 2, ones and twos bit planes at
# q = 3 and digit arrays otherwise.  _held gives that form straight from
# digits, for the code-file reader; it, _leads and _ones turn a digit mask
# into bit rows with one packer, _bits.  packed_rref and packed_rank above
# are their reference.

CHUNK = 1 << 11  # stacks, pairs or code-file lines per numpy pass


@lru_cache(maxsize=None)
def _tables(q: int):
    f, el = field_of(q), range(q)
    mul = np.array([[f.mul(a, b) for b in el] for a in el], dtype=np.uint8)
    sub = np.array([[f.sub(a, b) for b in el] for a in el], dtype=np.uint8)
    inv = np.array([0] + [f.inv(a) for a in el[1:]], dtype=np.uint8)
    return mul, sub, inv


@lru_cache(maxsize=None)
def _plane_tables():
    # into[x] holds the 8-bit ones and twos planes of the 8-digit GF(3) row
    # x; back[b] is the GF(3) row whose digits are the bits of the byte b
    digits = unpack_rows(np.arange(3 ** 8, dtype=np.uint64), 3, 8)
    into = tuple(_bits(digits[None], 1, 2)[0])
    back = pack_rows(unpack_rows(np.arange(256, dtype=np.uint64), 2, 8), 3)
    return into, back


def _encode(rows, q: int, width: int):
    # (r, B) packed rows, C-contiguous and free to overwrite, as the kernels
    # hold them: (r, B) bits for q = 2, (r, 2, B) ones and twos planes for
    # q = 3 and (r, B, width) digits otherwise, so row t of every stack is
    # one contiguous block
    if q != 3:
        return rows if q == 2 else unpack_rows(rows, q, width)
    # one lookup per 8 columns; a plane is the narrowest unsigned type that
    # holds width bits, so a narrow row costs each clearing step fewer bytes
    into, _ = _plane_tables()
    planes = np.zeros((len(rows), 2, rows.shape[1]),
                      dtype=np.min_scalar_type((1 << width) - 1))
    for shift, _, digits in _groups(rows, 3, width, 8):
        for plane, table in zip(planes.transpose(1, 0, 2), into):
            plane |= table.take(digits).astype(plane.dtype, copy=False) << shift
    return planes


def _bits(digits, *values):
    # (..., width) digits, in any strides, as (...) rows of the narrowest
    # unsigned type that holds width bits, bit c set where digit c is
    # nonzero; given values, (k, B, width) digits give (k, v, B) rows, bit
    # c set where digit c equals the value.  One flat packbits of the padded
    # digits (packbits along an axis is far slower); the padding is most
    # of the cost, so the values are compared after it
    width = digits.shape[-1]
    dtype = np.min_scalar_type((1 << width) - 1)
    padded = np.zeros(digits.shape[:-1] + (8 * dtype.itemsize,), dtype=np.uint8)
    padded[..., :width] = digits
    if values:
        padded = padded[:, None] == np.array(values, dtype=np.uint8)[:, None, None]
    bits = np.packbits(padded, bitorder="little")
    return bits.view(dtype).reshape(padded.shape[:-1])


def _held(digits, q: int):
    # (k, B, width) uint8 digits, in any strides, held as _encode gives
    # their rows: packed q = 2 rows are the digits' bits, q = 3 planes the
    # bits of digits == 1 and == 2
    if q > 3:
        return np.ascontiguousarray(digits)
    return _bits(digits) if q == 2 else _bits(digits, 1, 2)


def _decode(held, q: int, width: int):
    # the (r, B) packed rows of rows held as _encode gives them; planes go
    # back with one lookup per plane byte
    if q != 3:
        return held if q == 2 else pack_rows(held, q)
    _, back = _plane_tables()
    rows = np.uint64(0)
    for shift in range((width - 1) // 8 * 8, -1, -8):
        digits = back.take((held >> shift) & 0xFF)
        rows = rows * np.uint64(3 ** 8) + digits[:, 0] + 2 * digits[:, 1]
    return rows


def _leads(rows, q: int):
    # rows held as _encode gives them: (r, B) supports, bit c set where column
    # c is nonzero, their lowest set bits and the (B,) pivots, their union
    s = rows if q == 2 else (rows[:, 0] | rows[:, 1] if q == 3
                             else _bits(rows))
    low = s & -s
    return s, low, np.bitwise_or.reduce(low, axis=0)


def _ones(rows, q: int):
    # (r, B) masks of rows held as _encode gives them: bit c is set where
    # column c is 1
    if q == 2:
        return rows
    return rows[:, 0] if q == 3 else _bits(rows == 1)


def _monic(v, q: int):
    # scale each row of v, one row of every stack held as _encode gives
    # them, so that its leading digit is 1; a GF(2) row already leads with 1
    if q == 3:
        # a lead of 2 (its bit in v[1]) is made 1 by swapping the planes
        lead = v[0] | v[1]
        v ^= (v[0] ^ v[1]) & -(v[1] & lead & -lead)
    elif q > 3:
        mul, _, inv = _tables(q)
        v[...] = mul[inv[v[np.arange(len(v)), (v != 0).argmax(axis=1)]][:, None], v]


def _clear(v, rows, q: int):
    # subtract from each of rows (n, ...) its digit at v's pivot times v,
    # v monic and held like one of them
    if q == 2:
        # the pivot is v's lowest set bit; v * (bit set) is the masked row,
        # cheaper than np.where
        rows ^= v * ((rows & (v & -v)) != 0)
    elif q == 3:
        # the pivot is the lowest set bit of v[0].  A row with digit 1 at
        # the pivot adds -v (v's planes swapped), one with digit 2 adds v;
        # -(x & pivot) masks every bit from the pivot up, all of v's support
        digit = -(rows & (v[0] & -v[0]))  # the masks (one, two) of each row
        y = (v[::-1] & digit[:, :1]) | (v & digit[:, 1:])
        # x + y: t = (x1 | y2) ^ (x2 | y1), then (x2 | y2) ^ t and (x1 | y1) ^ t
        t = np.bitwise_xor.reduce(rows | y[:, ::-1], axis=1)
        np.bitwise_xor((rows | y)[:, ::-1], t[:, None], out=rows)
    else:
        # v (B, width) digit rows, each leading at its column c
        mul, sub, _ = _tables(q)
        c = (v != 0).argmax(axis=1)
        rows[...] = sub[rows, mul[rows[:, np.arange(len(v)), c][:, :, None], v]]


def _eliminate(rows, q: int, reduce: bool):
    # rows as _encode gives them.  Row t, already clear of the pivots above
    # it, is made monic and clears its pivot from the rows below it, and
    # with reduce from those above it too: single-pass Gauss-Jordan.  No
    # clearing moves a leading column.  Empty parts are skipped: each call
    # costs a few numpy dispatches.
    for t in range(len(rows) if reduce else len(rows) - 1):
        v, parts = rows[t], (rows[t + 1:], rows[:t]) if reduce else (rows[t + 1:],)
        _monic(v, q)
        for part in filter(len, parts):
            _clear(v, part, q)
    return rows


def rref_rows(rows, q: int, width: int):
    """Reduce each stack of packed rows to reduced echelon form, in place.

    ``rows`` is a writable (B, r) uint64 array; ``rows[b]`` holds r rows of
    GF(q)^width packed as sum(entry_c * q**c).  Stack b is overwritten with
    ``packed_rref`` of its rows over ``field_of(q)``, the canonical rows in
    pivot order, followed by zero rows.  Returns the ranks, as uint8.
    """
    ranks = np.empty(len(rows), dtype=np.uint8)
    for lo in range(0, len(rows), CHUNK):
        block = rows[lo:lo + CHUNK]
        held = _eliminate(_encode(block.T.copy(), q, width), q, True)
        # row t goes after the pivots left of its lead; low - 1 is all ones
        # for a zero row, so every zero row writes its 0 at index rank
        _, low, pivots = _leads(held, q)
        block[...] = 0
        np.put_along_axis(block.T, np.bitwise_count(pivots & (low - 1)),
                          _decode(held, q, width), 0)
        ranks[lo:lo + CHUNK] = np.bitwise_count(pivots)
    return ranks


def join_ranks(heads, rows, q: int, width: int):
    """What each stack of rows adds to the rank of its head rows.

    ``heads`` is a (B, kU) and ``rows`` a (B, kW) uint64 array of rows of
    GF(q)^width packed like those of :func:`rref_rows`.  ``heads[b]`` must
    be canonical, the output rows of ``rref_rows`` (kU may be 0); the rows
    are arbitrary.  Returns rank([heads[b]; rows[b]]) - rank(heads[b]) for
    every b, without reducing anything to canonical form.
    """
    # a canonical head row is monic and leads at its pivot; clearing every
    # head pivot from the rows leaves them independent of the heads, so
    # forward elimination counts what they add, one pivot per nonzero row
    ranks = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), CHUNK):
        w = _encode(rows[lo:lo + CHUNK].T.copy(), q, width)
        for u in _encode(heads[lo:lo + CHUNK].T.copy(), q, width):
            _clear(u, w, q)
        ranks[lo:lo + CHUNK] = np.bitwise_count(_leads(_eliminate(w, q, False), q)[2])
    return ranks


def _masks(held, q: int):
    # pivot_masks of one block of stacks held as _encode gives them
    s, low, pivots = _leads(held, q)
    # ones & low is 0 for a zero row and for a leading digit other than 1
    canonical = (((_ones(held, q) & low) != 0)
                 & ((s & pivots) == low)).all(axis=0) \
        & (low[1:] > low[:-1]).all(axis=0)
    return np.where(canonical, pivots, 0)


def pivot_masks(rows, q: int, width: int):
    """The identifying vector of each canonical stack of rows, as a mask.

    ``rows`` is a (B, k) uint64 array of rows packed like those of
    :func:`rref_rows`.  Entry b is 0 unless stack b is its own
    ``rref_rows`` output at rank k: each row's leading digit is 1, the
    leading columns strictly increase and every leading column is zero in
    the other rows.  Then bit c of entry b is set where a row of stack b
    leads at column c.  Nothing is reduced.
    """
    masks = np.empty(len(rows), dtype=np.uint64)
    for lo in range(0, len(rows), CHUNK):
        masks[lo:lo + CHUNK] = _masks(
            _encode(rows[lo:lo + CHUNK].T.copy(), q, width), q)
    return masks
