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
``key=value``: each integer key of ``_KEYS`` once, and an optional
``construction`` that reads exactly ``parallel n=<digits> s=<digits>``
and records how the code was assembled, so the predicted size and the
round sizes can be recovered.  Any other key or construction form is
refused.  Lines starting with ``#`` before the ``--`` are comments.
After the separator come exactly ``members`` lines of
k * (ambient + 1) bytes: k groups of ``ambient`` base-q digit characters
joined by ``|`` and ended by ``\n``, row 0 first, column 0 as the leftmost
digit of a group.  ``_lines`` is the one builder of member lines, one
lookup in ``_chars`` per digit group: the writer writes its lines, and the
reader's byte check is its lines of the all-zero and all-(q - 1) members.

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
import re
import stat
from functools import lru_cache

import numpy as np

from .bounds import CdcParams
from .construction import CDC, ROW_LIMIT
from .errors import CodeFileError, InvalidParameterError
from .fields import (CHUNK, SUPPORTED_Q, _decode, _digit_table, _groups,
                     _held, _masks)

MAGIC = "subspace-code"
VERSION = 1
# the required header keys, in the order the writer writes them, and the
# one form of the optional construction line
_KEYS = ("q", "ambient", "k", "d", "members")
_CONSTRUCTION = re.compile("parallel n=([0-9]+) s=([0-9]+)")


@lru_cache(maxsize=None)
def _chars(q: int, g: int, end: bool):
    """The characters of every g-digit group, "|" after a group that ends a row."""
    chars = np.full((q ** g, g + end), ord("|"), dtype=np.uint8)
    chars[:, :g] = _digit_table(q, g) + np.uint8(ord("0"))
    return chars


def _lines(rows, q: int, ambient: int):
    """The (B, k, ambient + 1) member-line bytes of (B, k) packed rows."""
    # one lookup per digit group gives that group's characters of every
    # row; a row that fits one group is a finished line block
    groups = [_chars(q, g, c + g == ambient).take(group, axis=0)
              for c, g, group in _groups(rows, q, ambient)]
    block = groups[0] if len(groups) == 1 else np.concatenate(groups, -1)
    block[:, -1, -1] = ord("\n")
    return block


def write_code(code: CDC, path) -> None:
    """Serialize a code; the exact inverse of read_code.

    A row at or past q**ambient is refused with InvalidParameterError
    before the path is opened.
    """
    q, ambient, k = code.q, code.ambient, code.k
    values = (q, ambient, k, code.d, len(code))
    header = [f"{MAGIC} v{VERSION}", *map("{}={}".format, _KEYS, values)]
    p = code.params
    if p is not None and p.n is not None:
        header.append(f"construction=parallel n={p.n} s={p.s}")
    header.append("--")
    # a row at or past q**ambient would index a character table from its end
    if q ** ambient < ROW_LIMIT and code.codes.max(initial=0) >= q ** ambient:
        member, row = divmod(int(np.argmax(code.codes >= q ** ambient)), k)
        raise InvalidParameterError(
            f"member {member + 1} row {row + 1} is not a row of {ambient} "
            f"digits of GF({q})")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for lo in range(0, len(code), CHUNK):
            fh.write(_lines(code.codes[lo:lo + CHUNK], q, ambient))


def read_code(path) -> CDC:
    """Parse a code file into the CDC it stores.

    Structural problems (a path that is not a regular file, bad magic,
    a missing, repeated or unknown key, an unsupported field order, a
    header (q, ambient, d, k) that CdcParams rejects, a construction value
    other than the writer's form or one that disagrees with the header,
    rows wider than the uint64 row limit, a body size other than the
    declared member count of lines, bad digits or separators, rows not in
    canonical form) raise CodeFileError.
    Mathematical problems (duplicates, wrong distance) are the verifier's
    business and pass through silently here.  The body is decoded CHUNK
    lines at a time.  Each block gets one byte check: ``offset`` is
    ``_lines`` of the all-zero member and ``span`` that of the all-(q - 1)
    member less ``offset`` (q - 1 at a digit, 0 at a separator), so a
    block less ``offset`` (uint8, so bytes below it wrap high) is well
    formed exactly when no byte exceeds ``span``.  Then the digits go
    straight into the kernels' row form (``_held``; at q = 2 their bits
    are the packed rows), ``_masks`` is 0 for a member whose rows are not
    canonical, and ``_decode`` gives the packed rows.
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
            if key not in _KEYS and key != "construction":
                raise CodeFileError(f"unknown header key {key!r}")
            if key in header:
                raise CodeFileError(f"duplicate header key {key!r}")
            header[key] = val
        else:
            raise CodeFileError("missing -- separator")

        try:
            q, ambient, k, d, members = (int(header[key]) for key in _KEYS)
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
            CdcParams(q, ambient, d, k)
            # an empty code checks the row width before the body is read
            CDC(q, ambient, k, d, ())
        except InvalidParameterError as exc:
            raise CodeFileError(str(exc)) from None

        construction = None
        if "construction" in header:
            raw = header["construction"]
            match = _CONSTRUCTION.fullmatch(raw)
            if match is None:
                raise CodeFileError(f"construction {raw!r} does not read "
                                    "'parallel n=<digits> s=<digits>'")
            try:
                construction = CdcParams(q, ambient, d, k, n=int(match[1]),
                                         s=int(match[2]))
            except InvalidParameterError as exc:
                raise CodeFileError(
                    f"inconsistent construction header: {exc}") from None

        line_len = k * (ambient + 1)
        body = info.st_size - fh.tell()
        if body != members * line_len:
            raise CodeFileError(
                f"header declares {members} members of {line_len} bytes "
                f"each, body has {body} bytes")
        codes = np.empty((members, k), dtype=np.uint64)
        zero, full = _lines(np.array([[0] * k, [q ** ambient - 1] * k],
                                     dtype=np.uint64), q, ambient)
        offset, span = (np.tile(row, (min(CHUNK, members), 1, 1))
                        for row in (zero, full - zero))
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
