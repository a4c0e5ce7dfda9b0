"""Reading and writing the plain-text code format."""

import hashlib
import os
import threading

import numpy as np
import pytest

from subspace_codes import codefile, fields
from subspace_codes.codefile import CHUNK, read_code, write_code
from subspace_codes.construction import CDC, assemble_parallel
from subspace_codes.errors import CodeFileError
from subspace_codes.fields import SUPPORTED_Q, rref_rows, unpack_row


def roundtrip(tmp_path, code, name="code.txt"):
    path = tmp_path / name
    write_code(code, path)
    return read_code(path)


def test_roundtrip_binary(tmp_path):
    code = assemble_parallel(2, 2, 2, 2, 1)
    back = roundtrip(tmp_path, code)
    assert isinstance(back, CDC)
    assert (back.q, back.ambient, back.k, back.d) == (2, 6, 2, 2)
    assert len(back) == 481
    assert back.params == code.params
    assert back.codes.tolist() == code.codes.tolist()
    assert back.round_sizes == code.round_sizes


def test_roundtrip_nonbinary(tmp_path):
    code = assemble_parallel(3, 2, 2, 2, 0)
    back = roundtrip(tmp_path, code)
    assert back.q == 3 and len(back) == 113
    assert back.codes.tolist() == code.codes.tolist()


@pytest.mark.parametrize("params, sha256", [
    ((2, 2, 2, 2, 1),
     "9bd077958a3343c3e76140b309cc9e3fd71262e8948a2e702458826e088c98df"),
    ((3, 2, 2, 2, 0),
     "630e6a92cc4349c6b62f26e165885000239be2fc2a142674508116a1b59c2ad9"),
    ((4, 2, 2, 2, 0),
     "62fe30e4b24a0610ce611fb31733d7e5ad31d1e8c7209d172b6fd2515b95ebd9"),
    ((9, 2, 2, 2, 0),
     "a61e0b6b2433c2a94d4719490b4cbe91ef568e3f820a5d01393fa3954d67c670"),
    ((5, 2, 2, 2, 0),
     "24422ea4ac6050bc0c85712a6a466c9a3652822e57935f6d43254d8af1f8fc4a"),
    ((7, 2, 2, 2, 0),
     "be675ccea2a09473333347f8f6cdbaea729d4efe7ea269b37d92eeadc7089714"),
    ((8, 2, 2, 2, 0),
     "5b01e104761c993b0b6695eab257a75f2f3d34917310095b4c3aefa538f4a731"),
    # the benchmark's q3-sampled code, and a q = 3 code with two reduced rounds
    ((3, 3, 3, 2, 0),
     "0c52832b704a32bdb32d90277c06291883c7341e2ca4ba089fbcb4eebba77551"),
    ((3, 2, 2, 2, 1),
     "8c1a96a75822a1873cdb43a66a2a10452807062a6150c85493c13addc8ad025d"),
])
def test_written_file_is_byte_identical_to_golden(tmp_path, params, sha256):
    path = tmp_path / "code.txt"
    write_code(assemble_parallel(*params), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_file_is_line_oriented_ascii(tmp_path):
    code = assemble_parallel(2, 2, 2, 2, 0)
    path = tmp_path / "c.txt"
    write_code(code, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "subspace-code v1"
    assert "--" in lines
    body = lines[lines.index("--") + 1:]
    assert len(body) == 25
    first = [unpack_row(r, 2, code.ambient) for r in code.codes[0].tolist()]
    groups = body[0].split("|")
    assert len(groups) == 2
    # column 0 is the leftmost character of each group
    assert [int(ch) for ch in groups[0]] == first[0]
    assert [int(ch) for ch in groups[1]] == first[1]


def test_comments_before_separator_are_ignored(tmp_path):
    code = assemble_parallel(2, 2, 2, 2, 0)
    path = tmp_path / "c.txt"
    write_code(code, path)
    lines = path.read_text().splitlines()
    lines.insert(1, "# produced for a test")
    path.write_text("\n".join(lines) + "\n")
    assert len(read_code(path)) == 25


def corrupt(tmp_path, mutate, name="c.txt"):
    code = assemble_parallel(2, 2, 2, 2, 0)
    path = tmp_path / name
    write_code(code, path)
    lines = path.read_text().splitlines()
    mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def test_reader_rejects_bad_magic(tmp_path):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(0, "subspace-code v9"))
    with pytest.raises(CodeFileError):
        read_code(path)
    path2 = corrupt(tmp_path, lambda ls: ls.__setitem__(0, "something else"),
                    name="c2.txt")
    with pytest.raises(CodeFileError):
        read_code(path2)


def test_reader_rejects_header_damage(tmp_path):
    def empty_over_q6(ls):
        ls[1] = "q=6"
        ls[5] = "members=0"
        del ls[ls.index("--") + 1:]

    def bare_distance(d):
        # without a construction line only the header vouches for d
        def mutate(ls):
            ls[4] = f"d={d}"
            ls.remove(next(l for l in ls if l.startswith("construction=")))
        return mutate

    cases = [
        lambda ls: ls.__setitem__(1, "q=banana"),
        lambda ls: ls.__setitem__(1, "qq 2"),
        lambda ls: ls.insert(2, "q=2"),          # duplicate key
        lambda ls: ls.__setitem__(1, "q=23"),    # past any supported order
        lambda ls: ls.__setitem__(1, "q=1"),
        lambda ls: ls.__setitem__(1, "q=6"),     # binary digits, no GF(6)
        empty_over_q6,                           # no member to trip over
        lambda ls: ls.__setitem__(1, "q=10"),
        lambda ls: ls.remove("k=2"),             # missing key
        lambda ls: ls.__setitem__(5, "members=26"),  # declared != body
        lambda ls: ls.__setitem__(6, "construction=parallel n=9 n=2 s=0 s=0"),
        bare_distance(-4),
        bare_distance(7),
        bare_distance(2 * 2 + 2),                # d/2 > k = 2
    ]
    for idx, mutate in enumerate(cases):
        path = corrupt(tmp_path, mutate, name=f"c{idx}.txt")
        with pytest.raises(CodeFileError):
            read_code(path)


def test_reader_refuses_a_fifo(tmp_path):
    # a pipe has no size to check the body against; the reader must say so
    # rather than hang or fail on a seek
    src = tmp_path / "code.txt"
    write_code(assemble_parallel(2, 2, 2, 2, 0), src)
    fifo = tmp_path / "code.fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(src.read_bytes())
        except BrokenPipeError:
            pass  # the reader closed its end first

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with pytest.raises(CodeFileError, match="not a regular file"):
        read_code(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_reader_rejects_body_damage(tmp_path):
    def bad_digit(ls):
        i = ls.index("--") + 1
        ls[i] = ls[i].replace("1", "7", 1)

    def bad_width(ls):
        i = ls.index("--") + 1
        ls[i] = ls[i] + "0"

    def bad_groups(ls):
        i = ls.index("--") + 1
        ls[i] = ls[i] + "|0000"

    for idx, mutate in enumerate([bad_digit, bad_width, bad_groups]):
        path = corrupt(tmp_path, mutate, name=f"b{idx}.txt")
        with pytest.raises(CodeFileError):
            read_code(path)


def test_reader_rejects_inconsistent_construction(tmp_path):
    def wrong_shape(ls):
        i = next(n for n, l in enumerate(ls) if l.startswith("construction"))
        ls[i] = "construction=parallel n=3 s=1"  # ambient would be 7, not 6

    code = assemble_parallel(2, 2, 2, 2, 1)
    with pytest.raises(CodeFileError):
        path = tmp_path / "c.txt"
        write_code(code, path)
        lines = path.read_text().splitlines()
        wrong_shape(lines)
        path.write_text("\n".join(lines) + "\n")
        read_code(path)


def test_reader_rejects_noncanonical_rows(tmp_path):
    """Clearing a pivot digit leaves valid digits but breaks the canonical
    form the format promises; the reader must refuse such a file."""
    code = assemble_parallel(2, 2, 2, 2, 0)
    path = tmp_path / "c.txt"
    write_code(code, path)
    lines = path.read_text().splitlines()
    i = lines.index("--") + 1
    orig = lines[i]
    flipped = ("0" if orig[0] == "1" else "1") + orig[1:]
    lines[i] = flipped
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CodeFileError, match=r"member 1 rows"):
        read_code(path)


def test_reader_names_noncanonical_member_past_first_chunk(tmp_path):
    """The canonical-form check runs once per CHUNK of members; the error
    still names the first bad member, here one past the first chunk."""
    base = assemble_parallel(2, 2, 2, 2, 1)
    reps = -(-(CHUNK + 100) // len(base))
    code = CDC(base.q, base.ambient, base.k, base.d,
               np.tile(base.codes, (reps, 1)))
    path = tmp_path / "c.txt"
    write_code(code, path)
    lines = path.read_text().splitlines()
    bad = CHUNK + 50  # 0-based member index
    i = lines.index("--") + 1 + bad
    # swapping the two rows breaks the pivot order
    lines[i] = "|".join(reversed(lines[i].split("|")))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CodeFileError, match=rf"member {bad + 1} rows"):
        read_code(path)


@pytest.mark.parametrize("q", [2, 3])
def test_reader_accepts_in_format_tampering(tmp_path, q):
    """Changing a free (non-pivot) entry keeps the member canonical; the
    file loads and the change becomes the verifier's problem."""
    code = assemble_parallel(q, 2, 2, 2, 0)
    path = tmp_path / "c.txt"
    write_code(code, path)
    lines = path.read_text().splitlines()
    i = lines.index("--") + 1
    orig = lines[i]
    # round-0 members are [I | A]: columns at and past k are free
    body = list(orig)
    idx = 2  # column 2 of row 0
    body[idx] = str((int(body[idx]) + 1) % q)
    lines[i] = "".join(body)
    path.write_text("\n".join(lines) + "\n")
    back = read_code(path)
    assert back.codes[0].tolist() != code.codes[0].tolist()
    assert len(back) == len(code)


def test_rounds_reconstructed_only_when_sizes_agree(tmp_path):
    code = assemble_parallel(2, 2, 2, 2, 1)
    path = tmp_path / "c.txt"
    write_code(code, path)
    # strip one body line and fix the member count: construction size no
    # longer matches, so round sizes must be absent rather than wrong
    lines = path.read_text().splitlines()
    lines.pop()
    for n, l in enumerate(lines):
        if l.startswith("members="):
            lines[n] = "members=480"
    path.write_text("\n".join(lines) + "\n")
    back = read_code(path)
    assert len(back) == 480
    assert back.round_sizes is None


def test_reader_rejects_rows_past_uint64_before_body(tmp_path):
    path = tmp_path / "wide.txt"
    # the body line is malformed too; the width check must fire first, and
    # without computing q**ambient for a huge ambient
    for ambient in (65, 10 ** 12):
        path.write_text(f"subspace-code v1\nq=2\nambient={ambient}\nk=1\n"
                        f"d=2\nmembers=1\n--\nnot a row\n")
        with pytest.raises(CodeFileError, match=r"2\*\*64"):
            read_code(path)


def test_reader_rejects_non_ascii_bytes(tmp_path):
    code = assemble_parallel(2, 2, 2, 2, 0)
    path = tmp_path / "c.txt"
    write_code(code, path)
    data = path.read_bytes()
    for at in (2, data.index(b"q=2") + 3, data.index(b"--\n") + 4):
        bad = tmp_path / f"bad{at}.txt"
        bad.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(CodeFileError):
            read_code(bad)


def tiled(q, members, s=1):
    """A code of exactly ``members`` members, repeating a small code's rows."""
    base = assemble_parallel(q, 2, 2, 2, s)
    reps = -(-members // len(base))
    return CDC(q, base.ambient, base.k, base.d,
               np.tile(base.codes, (reps, 1))[:members])


@pytest.mark.parametrize("q", SUPPORTED_Q)
@pytest.mark.parametrize("members", [0, 1, CHUNK, CHUNK + 1])
def test_roundtrip_at_chunk_seams(tmp_path, q, members):
    # (q, 2, 2, 2, 1) has millions of members from q = 7 on
    s = 1 if q <= 5 else 0
    code = tiled(q, members, s)
    back = roundtrip(tmp_path, code)
    assert (back.q, back.ambient, back.k, back.d) == (q, 4 + 2 * s, 2, 2)
    assert back.codes.dtype == np.uint64 and back.codes.shape == (members, 2)
    assert np.array_equal(back.codes, code.codes)


@pytest.mark.parametrize("q, refused", [(2, ("pack_rows", "_encode")),
                                        (4, ("_encode",))])
def test_reader_reads_digits_straight_into_the_row_form(tmp_path, monkeypatch,
                                                        q, refused):
    # q = 2 rows are the digits' bits, so no Horner pack, and no q goes
    # through _encode's packed rows
    code = tiled(q, CHUNK + 1)
    path = tmp_path / "c.txt"
    write_code(code, path)

    def refuse(*args):
        raise AssertionError(f"the q = {q} reader called one of {refused}")

    for name in refused:
        monkeypatch.setattr(fields, name, refuse)
        monkeypatch.setattr(codefile, name, refuse, raising=False)
    assert np.array_equal(read_code(path).codes, code.codes)


def random_code(q, ambient, members):
    """``members`` random canonical members of two rows of GF(q)^ambient."""
    rng = np.random.default_rng(ambient)
    rows = rng.integers(0, min(q ** ambient, 1 << 64) - 1, endpoint=True,
                        size=(2 * members, 2), dtype=np.uint64)
    ranks = rref_rows(rows, q, ambient)
    return CDC(q, ambient, 2, 2, rows[ranks == 2][:members])


@pytest.mark.parametrize("q, ambient", [(2, a) for a in (8, 9, 16, 17, 32, 33, 64)]
                         + [(3, 40)])
def test_roundtrip_at_row_type_edges(tmp_path, q, ambient):
    """Rows as wide as an unsigned type, or one digit wider, across a CHUNK
    seam: the file reads back, rewrites byte for byte, and a damaged member
    past the seam is named."""
    code = random_code(q, ambient, CHUNK + 100)
    assert len(code) == CHUNK + 100
    path = tmp_path / "c.txt"
    write_code(code, path)
    back = read_code(path)
    assert np.array_equal(back.codes, code.codes)
    write_code(back, tmp_path / "again.txt")
    data = path.read_bytes()
    assert (tmp_path / "again.txt").read_bytes() == data
    bad, line_len = CHUNK + 50, 2 * (ambient + 1)
    at = data.index(b"--\n") + 3 + bad * line_len
    line = data[at:at + line_len]
    digit = line[:-2] + str(q).encode() + b"\n"  # outside GF(q), last column
    # the rows swapped: their leads decrease
    swapped = line[ambient + 1:-1] + b"|" + line[:ambient] + b"\n"
    for damaged, message in ((digit, "is not 2 rows"),
                             (swapped, "rows are not in canonical form")):
        path.write_bytes(data[:at] + damaged + data[at + line_len:])
        with pytest.raises(CodeFileError, match=rf"^member {bad + 1} {message}"):
            read_code(path)


def damage_members(tmp_path, name, *damage):
    """Overwrite bytes of a q = 2 file of CHUNK + 100 members; each damage
    is (member, offset in its line, byte), the member 0-based."""
    code = tiled(2, CHUNK + 100)
    path = tmp_path / name
    write_code(code, path)
    data = bytearray(path.read_bytes())
    line_len = code.k * (code.ambient + 1)
    body = data.index(b"--\n") + 3
    for member, offset, byte in damage:
        data[body + member * line_len + offset] = byte
    path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize("offset, byte", [
    (3, ord("2")),    # a digit outside GF(2)
    (6, ord(",")),    # the separator after row 0
    (13, ord("|")),   # the newline after the last row
    (1, 0xFF),        # a non-ASCII byte
])
def test_reader_names_damaged_member_past_first_chunk(tmp_path, offset, byte):
    path = damage_members(tmp_path, f"d{offset}.txt", (CHUNK + 50, offset, byte))
    with pytest.raises(CodeFileError, match=rf"member {CHUNK + 51} "):
        read_code(path)


@pytest.mark.parametrize("digit_member, separator_member", [
    (CHUNK + 20, CHUNK + 50),
    (CHUNK + 50, CHUNK + 20),
])
def test_reader_names_lower_member_of_two_damage_kinds(
        tmp_path, digit_member, separator_member):
    """A bad digit and a bad separator in one block: the error names the
    lower-numbered member, whichever kind of damage it has."""
    path = damage_members(tmp_path, "two.txt", (digit_member, 3, ord("2")),
                          (separator_member, 6, ord(",")))
    first = min(digit_member, separator_member) + 1
    with pytest.raises(CodeFileError, match=rf"member {first} is not"):
        read_code(path)


@pytest.mark.parametrize("damage", ["leading-two", "pivot-column"])
def test_reader_names_noncanonical_q3_member_past_first_chunk(tmp_path,
                                                              damage):
    """Over GF(3) a row can lead with 2, or another row can reach into its
    pivot column, and still be valid digits; both break canonical form."""
    code = tiled(3, CHUNK + 100)
    path = tmp_path / "c.txt"
    write_code(code, path)
    lines = path.read_text().splitlines()
    bad = CHUNK + 50  # 0-based member index
    i = lines.index("--") + 1 + bad
    rows = [list(row) for row in lines[i].split("|")]
    lead = next(c for c, ch in enumerate(rows[0]) if ch != "0")
    if damage == "leading-two":
        rows[0][lead] = "2"
    else:
        rows[1][lead] = "1"
    lines[i] = "|".join("".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CodeFileError, match=rf"member {bad + 1} rows"):
        read_code(path)


def break_canonical(line, damage):
    """A member line of two canonical rows with one kind of damage; every
    result is valid digits and separators."""
    rows = [list(row) for row in line.split("|")]
    lead = [next(c for c, ch in enumerate(row) if ch != "0") for row in rows]
    if damage == "zero-row":
        rows[1] = ["0"] * len(rows[1])
    elif damage == "repeated-row":
        rows[1] = list(rows[0])
    elif damage == "swapped-rows":
        rows.reverse()
    elif damage == "pivot-column":
        # row 0 keeps its lead and reaches into row 1's pivot column
        rows[0][lead[1]] = "1"
    elif damage == "leading-digit":
        rows[1][lead[1]] = "2"
    return "|".join("".join(row) for row in rows)


@pytest.mark.parametrize("q, damage", [
    (q, damage) for q in SUPPORTED_Q
    for damage in ("zero-row", "repeated-row", "swapped-rows", "pivot-column",
                   "leading-digit")
    # a GF(2) row can only lead with 1
    if (q, damage) != (2, "leading-digit")])
@pytest.mark.parametrize("bad", [6, CHUNK + 50])
def test_reader_refuses_each_kind_of_noncanonical_member(tmp_path, q, damage,
                                                         bad):
    """Member ``bad`` (0-based) sits in the first, full block or in the
    short final one of 100 members."""
    # (q, 2, 2, 2, 1) has millions of members from q = 7 on
    code = tiled(q, CHUNK + 100, 1 if q <= 5 else 0)
    path = tmp_path / "c.txt"
    write_code(code, path)
    lines = path.read_text().splitlines()
    i = lines.index("--") + 1 + bad
    lines[i] = break_canonical(lines[i], damage)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CodeFileError,
                       match=rf"^member {bad + 1} rows are not in canonical form$"):
        read_code(path)


def test_reader_at_the_width_limit(tmp_path):
    """A GF(2) row of 64 columns fills its uint64 word: a last row leading
    at column 63 round-trips, and a row reaching into that pivot column is
    refused."""
    codes = np.array([[1, 2], [1 | 2, 1 << 63], [2, 1 << 62]], dtype=np.uint64)
    code = CDC(2, 64, 2, 2, codes)
    back = roundtrip(tmp_path, code)
    assert (back.q, back.ambient, back.k) == (2, 64, 2)
    assert np.array_equal(back.codes, codes)
    path = tmp_path / "code.txt"
    lines = path.read_text().splitlines()
    i = lines.index("--") + 2
    assert lines[i] == "11" + "0" * 62 + "|" + "0" * 63 + "1"
    lines[i] = "11" + "0" * 61 + "1|" + "0" * 63 + "1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CodeFileError, match=r"^member 2 rows are not"):
        read_code(path)


def test_reader_checks_member_count_before_reading_body(tmp_path):
    path = corrupt(tmp_path, lambda ls: ls.__setitem__(5, f"members={10 ** 15}"))
    # an array of 10**15 members could not be allocated, so only a check on
    # the body size gets this far
    with pytest.raises(CodeFileError, match=rf"declares {10 ** 15} members"):
        read_code(path)


def blank_line(data, body, line_len):
    at = body + line_len
    return data[:at] + b"\n" + data[at:]


@pytest.mark.parametrize("damage", [
    blank_line,
    lambda data, body, line_len: data + b"\n",
    lambda data, body, line_len: data.replace(b"\n", b"\r\n"),
    lambda data, body, line_len: (data[:body]
                                  + data[body:].replace(b"\n", b"\r\n")),
    lambda data, body, line_len: data[:-1],
    # the body size matches again, so the separator check has to catch it
    lambda data, body, line_len: blank_line(data, body, line_len)[:-1],
], ids=["blank-line", "trailing-blank-line", "crlf", "crlf-body",
        "no-final-newline", "blank-line-no-final-newline"])
def test_reader_rejects_lines_the_writer_never_writes(tmp_path, damage):
    code = assemble_parallel(2, 2, 2, 2, 0)
    path = tmp_path / "c.txt"
    write_code(code, path)
    data = path.read_bytes()
    body = data.index(b"--\n") + 3
    path.write_bytes(damage(data, body, code.k * (code.ambient + 1)))
    with pytest.raises(CodeFileError):
        read_code(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_code(tmp_path / "absent.txt")
