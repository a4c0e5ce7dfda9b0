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
assembled, so the predicted size and the round sizes can be recovered.
Lines starting with ``#`` before the ``--`` separator are comments.
After the separator come exactly ``members`` lines of
k * (ambient + 1) bytes: k groups of ``ambient`` base-q digit characters
joined by ``|`` and ended by ``\n``, row 0 first, column 0 as the leftmost
digit of a group.  ``_byte_check`` writes that line layout down once, for
the writer and the reader.

Rows are stored in canonical (reduced echelon) form and that is part of
the format: the reader rejects non-canonical rows the same way it rejects
a stray digit, because every consumer downstream relies on members being
honest k-dimensional subspaces in normal form.  It reads the form off the
digits, held as the row kernels hold rows, with the core of
``fields.pivot_masks`` (leading digits 1, leading columns increasing and
clear in the other rows) and reduces nothing.  Corruption
that stays inside the format (a free entry changed to another field
element) still loads, and then surfaces as a duplicate or a distance
violation during verification rather than being repaired here.
"""

from __future__ import annotations

import os
import stat

import numpy as np

from .bounds import CdcParams
from .construction import CDC
from .errors import CodeFileError, InvalidParameterError
from .fields import CHUNK, SUPPORTED_Q, _decode, _held, _masks, unpack_rows

MAGIC = "subspace-code"
VERSION = 1


def _byte_check(q: int, ambient: int, k: int):
    """The (offset, span) rows of a member line's k * (ambient + 1) bytes.

    ``offset`` is the line of an all-zero member: "0" at every digit, "|"
    after each row and "\\n" after the last.  A line is ``offset`` plus its
    digits, so a line minus ``offset`` (uint8, so bytes below it wrap high)
    is well formed exactly when no byte of that difference exceeds
    ``span``: q - 1 at a digit, 0 at a separator.
    """
    offset = np.full((k, ambient + 1), ord("0"), dtype=np.uint8)
    offset[:, ambient] = ord("|")
    offset[-1, ambient] = ord("\n")
    span = np.full((k, ambient + 1), q - 1, dtype=np.uint8)
    span[:, ambient] = 0
    return offset, span


def write_code(code: CDC, path) -> None:
    """Serialize a code; the exact inverse of read_code."""
    q, ambient, k = code.q, code.ambient, code.k
    header = [f"{MAGIC} v{VERSION}", f"q={q}", f"ambient={ambient}",
              f"k={k}", f"d={code.d}", f"members={len(code)}"]
    p = code.params
    if p is not None and p.n is not None:
        header.append(f"construction=parallel n={p.n} s={p.s}")
    header.append("--")
    offset = _byte_check(q, ambient, k)[0]
    out = np.tile(offset, (min(CHUNK, len(code)), 1, 1))
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for lo in range(0, len(code), CHUNK):
            chunk = code.codes[lo:lo + CHUNK]
            # offset is "0" at every digit: a scalar add, faster than the row
            np.add(unpack_rows(chunk, q, ambient), offset[0, 0],
                   out=out[:len(chunk), :, :ambient])
            fh.write(out[:len(chunk)])


def _parse_construction(raw: str, q: int, ambient: int, d: int, k: int):
    parts = raw.split()
    if not parts or parts[0] != "parallel":
        raise CodeFileError(f"unknown construction {raw!r}")
    fields = {}
    for p in parts[1:]:
        key, _, val = p.partition("=")
        if key in fields:
            raise CodeFileError(f"repeated construction field {key!r}")
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

    Structural problems (a path that is not a regular file, bad magic,
    missing keys, an unsupported field order, a header (q, ambient, d, k)
    that CdcParams rejects, rows wider than the uint64 row limit, a body
    size other than the declared member count of lines, bad digits or
    separators, rows not in canonical form) raise CodeFileError.
    Mathematical problems (duplicates, wrong distance) are the verifier's
    business and pass through silently here.  The body is decoded CHUNK
    lines at a time: one byte check against ``_byte_check``'s rows, then
    the digits go straight into the kernels' row form (``_held``; at
    q = 2 their bits are the packed rows), ``_masks`` is 0 for a member
    whose rows are not canonical, and ``_decode`` gives the packed rows.
    """
    with open(path, "rb") as fh:
        # the body size check needs a file size, which a pipe does not have
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise CodeFileError(
                f"{path} is not a regular file; save the code to a file first")
        # the header is ASCII; any other byte decodes to U+FFFD and then
        # fails the same checks as any other stray character
        lines = (raw.decode("ascii", errors="replace").rstrip("\n")
                 for raw in fh)
        magic = next(lines, "")
        if magic != f"{MAGIC} v{VERSION}":
            raise CodeFileError(
                f"not a {MAGIC} v{VERSION} file: first line {magic!r}")

        header: dict = {}
        for line in lines:
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
            q, ambient, k, d, members = (
                int(header[key]) for key in ("q", "ambient", "k", "d", "members"))
        except KeyError as exc:
            raise CodeFileError(f"missing header key {exc.args[0]!r}") from None
        except ValueError:
            raise CodeFileError("non-integer header value") from None
        if q not in SUPPORTED_Q:
            raise CodeFileError(
                f"field order q={q} not supported; choose one of {SUPPORTED_Q}")
        if members < 0:
            raise CodeFileError(f"implausible header: members={members}")
        try:
            CdcParams(q, ambient, d, k).validate()
            # an empty code checks the row width before the body is read
            CDC(q, ambient, k, d, ())
        except InvalidParameterError as exc:
            raise CodeFileError(str(exc)) from None

        construction = None
        if "construction" in header:
            construction = _parse_construction(header["construction"], q,
                                               ambient, d, k)

        line_len = k * (ambient + 1)
        body = info.st_size - fh.tell()
        if body != members * line_len:
            raise CodeFileError(
                f"header declares {members} members of {line_len} bytes "
                f"each, body has {body} bytes")
        codes = np.empty((members, k), dtype=np.uint64)
        offset, span = (np.tile(row, (min(CHUNK, members), 1, 1))
                        for row in _byte_check(q, ambient, k))
        for lo in range(0, members, CHUNK):
            count = min(CHUNK, members - lo)
            block = np.frombuffer(fh.read(count * line_len),
                                  dtype=np.uint8).reshape(count, k, -1)
            block = block - offset[:count]
            bad = block > span[:count]
            if bad.any():
                first = np.flatnonzero(bad.any(axis=(1, 2)))[0]
                raise CodeFileError(
                    f"member {lo + first + 1} is not {k} rows of {ambient} "
                    f"digits of GF({q}) joined by '|'")
            held = _held(block[:, :, :ambient].transpose(1, 0, 2), q)
            bad = np.flatnonzero(_masks(held, q) == 0)
            if len(bad):
                raise CodeFileError(
                    f"member {lo + bad[0] + 1} rows are not in canonical form")
            codes[lo:lo + count] = _decode(held, q, ambient).T
    return CDC(q, ambient, k, d, codes, params=construction)
