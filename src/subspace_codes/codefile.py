"""Plain-text storage for constant-dimension codes.

File layout, all ASCII:

    subspace-code v1
    q=2
    ambient=6
    k=2
    d=2
    members=481
    construction=parallel n=2 s=1
    --
    100010|010001
    ...

The first line is the magic plus format version.  Header lines are
``key=value``; ``construction`` is optional and records how the code was
assembled so round labels and the predicted size can be recovered.  Lines
starting with ``#`` before the ``--`` separator are comments.  After the
separator comes one member per line: k groups of ``ambient`` base-q digit
characters joined by ``|``, row 0 first, column 0 as the leftmost digit of
a group.

Rows are stored in canonical (reduced echelon) form and that is part of
the format: the reader rejects non-canonical rows the same way it rejects
a stray digit, because every consumer downstream relies on members being
honest k-dimensional subspaces in normal form.  Corruption that stays
inside the format (a free entry changed to another field element) still
loads, and then surfaces as a duplicate or a distance violation during
verification rather than being repaired here.
"""

from __future__ import annotations

from array import array

import numpy as np

from .bounds import CdcParams, block_cardinalities
from .construction import CDC
from .errors import CodeFileError, InvalidParameterError
from .fields import SUPPORTED_Q, rref_rows

MAGIC = "subspace-code"
VERSION = 1

WRITE_CHUNK = 1 << 11  # members formatted per numpy pass


def write_code(code: CDC, path) -> None:
    """Serialize a code; the inverse of read_code up to round labels."""
    q, ambient, k = code.q, code.ambient, code.k
    header = [f"{MAGIC} v{VERSION}", f"q={q}", f"ambient={ambient}",
              f"k={k}", f"d={code.d}", f"members={len(code)}"]
    p = code.params
    if p is not None and p.n is not None:
        header.append(f"construction=parallel n={p.n} s={p.s}")
    header.append("--")
    # digit c of a row is (row // q**c) % q; q**(ambient - 1) < 2**64
    powers = np.uint64(q) ** np.arange(ambient, dtype=np.uint64)
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for lo in range(0, len(code), WRITE_CHUNK):
            chunk = code.codes[lo:lo + WRITE_CHUNK]
            # each row becomes its digits plus one byte: "|" between rows,
            # a newline after the last
            digits = chunk[:, :, None] // powers
            digits %= np.uint64(q)
            digits += np.uint64(ord("0"))
            out = np.empty((len(chunk), k, ambient + 1), dtype=np.uint8)
            out[:, :, :ambient] = digits
            out[:, :, ambient] = ord("|")
            out[:, -1, ambient] = ord("\n")
            fh.write(out.tobytes())


def _parse_construction(raw: str, q: int, ambient: int, d: int, k: int):
    parts = raw.split()
    if not parts or parts[0] != "parallel":
        raise CodeFileError(f"unknown construction {raw!r}")
    fields = {}
    for p in parts[1:]:
        key, _, val = p.partition("=")
        try:
            fields[key] = int(val)
        except ValueError:
            raise CodeFileError(f"bad construction field {p!r}") from None
    if set(fields) != {"n", "s"}:
        raise CodeFileError(f"construction needs n and s, got {raw!r}")
    try:
        return CdcParams(q, ambient, d, k, n=fields["n"], s=fields["s"]).validate()
    except InvalidParameterError as exc:
        raise CodeFileError(f"inconsistent construction header: {exc}") from None


def read_code(path) -> CDC:
    """Parse a code file into the CDC it stores.

    Structural problems (bad magic, missing keys, an unsupported field
    order, wrong row shapes, digits outside the field, rows wider than the
    uint64 row limit, declared member count not matching the body) raise
    CodeFileError.  Mathematical problems (duplicates, wrong distance) are
    the verifier's business and pass through silently here.  The body is
    streamed line by line into a flat buffer of packed rows.
    """
    # the format is ASCII; any other byte decodes to U+FFFD and then fails
    # the same checks as any other stray character
    with open(path, encoding="ascii", errors="replace") as fh:
        magic = fh.readline()
        if not magic:
            raise CodeFileError("empty file")
        magic = magic.rstrip("\n")
        first = magic.split()
        if len(first) != 2 or first[0] != MAGIC or not first[1].startswith("v"):
            raise CodeFileError(f"bad magic line {magic!r}")
        try:
            version = int(first[1][1:])
        except ValueError:
            raise CodeFileError(f"bad version in {magic!r}") from None
        if version != VERSION:
            raise CodeFileError(f"unsupported format version {version}")

        header: dict = {}
        for line in fh:
            line = line.rstrip("\n")
            if line == "--":
                break
            if not line or line.startswith("#"):
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise CodeFileError(f"expected key=value, got {line!r}")
            if key in header:
                raise CodeFileError(f"duplicate header key {key!r}")
            header[key] = val
        else:
            raise CodeFileError("missing -- separator")

        try:
            q = int(header["q"])
            ambient = int(header["ambient"])
            k = int(header["k"])
            d = int(header["d"])
            members = int(header["members"])
        except KeyError as exc:
            raise CodeFileError(f"missing header key {exc.args[0]!r}") from None
        except ValueError:
            raise CodeFileError("non-integer header value") from None
        if q not in SUPPORTED_Q:
            raise CodeFileError(
                f"field order q={q} not supported; choose one of {SUPPORTED_Q}")
        if ambient < 1 or not 1 <= k <= ambient or members < 0:
            raise CodeFileError(
                f"implausible header: ambient={ambient} k={k} members={members}")
        try:
            # an empty code checks the row width before the body is read
            CDC(q, ambient, k, d, ())
        except InvalidParameterError as exc:
            raise CodeFileError(str(exc)) from None

        construction = None
        if "construction" in header:
            construction = _parse_construction(header["construction"], q,
                                               ambient, d, k)

        digits = "0123456789"[:q]
        rows_buf = array("Q")
        count = 0
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            groups = line.split("|")
            if len(groups) != k:
                raise CodeFileError(
                    f"member line has {len(groups)} rows, expected {k}: {line!r}")
            rows = []
            for g in groups:
                if len(g) != ambient:
                    raise CodeFileError(
                        f"row of width {len(g)}, expected {ambient}: {g!r}")
                if g.strip(digits):
                    bad = next(ch for ch in g if ch not in digits)
                    raise CodeFileError(f"digit {bad!r} outside GF({q})")
                # column 0 is the leftmost digit and the least significant
                rows.append(int(g[::-1], q))
            rows_buf.extend(rows)
            count += 1
    codes = np.frombuffer(rows_buf, dtype=np.uint64).reshape(-1, k)
    # the format stores canonical generator rows; anything else is a
    # malformed file, not a code with surprising members
    ranks, reduced = rref_rows(codes, q, ambient)
    bad = np.flatnonzero((ranks != k) | (reduced != codes).any(axis=1))
    if len(bad):
        raise CodeFileError(
            f"member {bad[0] + 1} rows are not in canonical form")
    if count != members:
        raise CodeFileError(
            f"header declares {members} members, body has {count}")

    rounds = None
    if construction is not None:
        sizes = block_cardinalities(q, construction.n, k, d, construction.s)
        if sum(sizes) == count:
            rounds = np.repeat(np.arange(len(sizes), dtype=np.uint16), sizes)
    return CDC(q, ambient, k, d, codes, rounds, construction)
