"""Field arithmetic, subfield towers, and the packed matrix kernels."""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subspace_codes import fields
from subspace_codes.errors import (
    IncompatibleFieldError,
    InvalidElementError,
    InvalidParameterError,
)
from subspace_codes.fields import (
    CHUNK,
    CONWAY_POLYS,
    SUPPORTED_Q,
    Extension,
    extension_field,
    field_of,
    join_ranks,
    linearized_eval,
    mat_rank,
    mat_rref,
    mat_sub,
    matrix,
    pack_row,
    pack_rows,
    packed_rank,
    packed_rref,
    pivot_masks,
    rref_rows,
    span_words,
    unpack_row,
    unpack_rows,
)

# every (q, m) whose GF(q^m) has a modulus on record
EXTENSIONS = [(q, m) for q in SUPPORTED_Q for m in range(1, 9)
              if (field_of(q).p, field_of(q).e * m) in CONWAY_POLYS]


def poly_mul_mod(a, b, modulus, p):
    """School-book polynomial arithmetic oracle, coefficients ascending."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    deg = len(modulus) - 1
    while len(prod) > deg:
        lead = prod.pop()
        if lead:
            for t in range(deg):
                idx = len(prod) - deg + t
                prod[idx] = (prod[idx] - lead * modulus[t]) % p
    while len(prod) < deg:
        prod.append(0)
    return prod


def test_supported_orders_construct():
    for q in SUPPORTED_Q:
        f = field_of(q)
        assert f.q == q
        # cached constructor returns the same object
        assert field_of(q) is f


@pytest.mark.parametrize("q", [0, 1, 6, 10, 11, 12, 16, 25])
def test_unsupported_orders_rejected(q):
    with pytest.raises(InvalidParameterError):
        field_of(q)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms_exhaustive(q):
    """Commutativity, associativity, distributivity, inverses, identity.

    Full q^3 sweep; the largest supported base order keeps this cheap.
    """
    f = field_of(q)
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_modulus_table_entries_are_primitive():
    """Every stored modulus is irreducible and has a primitive root.

    Brute force: no polynomial of lower degree divides it, and the
    residue-class generator has multiplicative order exactly p^e - 1.
    """
    for (p, e), modulus in CONWAY_POLYS.items():
        assert len(modulus) == e + 1
        assert modulus[-1] == 1  # monic
        if e == 1:
            continue
        q = p ** e
        # irreducibility: x^(p^e) == x mod modulus and gcd checks via
        # brute factor scan over monic divisors of degree <= e // 2
        for deg in range(1, e // 2 + 1):
            for tail in itertools.product(range(p), repeat=deg):
                div = list(tail) + [1]
                # long division of modulus by div over GF(p)
                rem = list(modulus)
                while len(rem) >= len(div) and any(rem):
                    if rem[-1] == 0:
                        rem.pop()
                        continue
                    shift = len(rem) - len(div)
                    factor = rem[-1] * pow(div[-1], -1, p) % p
                    for i, c in enumerate(div):
                        rem[shift + i] = (rem[shift + i] - factor * c) % p
                    rem.pop()
                assert any(rem), f"GF({p}^{e}) modulus has a degree-{deg} factor"
        # primitivity of x: order of the class of x divides q-1; check no
        # proper divisor (q-1)/ell works, ell prime
        def order_of_x():
            acc = [0, 1] + [0] * (e - 2) if e >= 2 else [1]
            n = 1
            while True:
                if acc[0] == 1 and not any(acc[1:]):
                    return n
                acc = poly_mul_mod(acc, [0, 1] + [0] * (e - 2), modulus, p)
                n += 1
                assert n <= q
        assert order_of_x() == q - 1


def test_ff_mul_and_inv_examples():
    f4 = field_of(4)
    # indices are base-p digit encodings: 2 is the generator g, 3 is g+1
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.inv(3) == 2
    f9 = field_of(9)
    for a in range(1, 9):
        assert f9.mul(a, f9.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f4.inv(0)


def test_gf16_arithmetic_vs_polynomial_oracle():
    """Internal GF(16) (used by extension towers) against direct poly math."""
    f = Extension(field_of(4), 2).ext
    assert f.q == 16
    modulus = f.modulus
    for a in range(16):
        for b in range(16):
            expect = poly_mul_mod(unpack_row(a, 2, 4), unpack_row(b, 2, 4),
                                  modulus, 2)
            assert unpack_row(f.mul(a, b), 2, 4) == list(expect)


# ---------------------------------------------------------------- extensions


def test_embedding_is_injective_homomorphism():
    assert len(EXTENSIONS) == 30
    for q, m in EXTENSIONS:
        ext = extension_field(q, m)
        base = ext.base
        images = [ext.embed(a) for a in range(q)]
        assert len(set(images)) == q
        assert images[0] == 0 and images[1] == 1
        for a in range(q):
            for b in range(q):
                assert ext.embed(base.add(a, b)) == ext.ext.add(images[a], images[b])
                assert ext.embed(base.mul(a, b)) == ext.ext.mul(images[a], images[b])


def test_frobenius_fixes_embedded_subfield():
    for q, m in [(2, 4), (3, 3), (4, 2), (9, 2)]:
        ext = extension_field(q, m)
        f = ext.ext
        for a in range(q):
            x = ext.embed(a)
            assert f.pow(x, q) == x
        # Frobenius x -> x^q is additive on the whole extension
        els = range(f.q) if f.q <= 128 else range(0, f.q, 7)
        for x in els:
            for y in (1, 2, f.q - 1):
                assert f.pow(f.add(x, y), q) == f.add(f.pow(x, q), f.pow(y, q))


def test_expand_combine_roundtrip():
    """expand is a bijection from GF(q^m) onto GF(q)^m."""
    for q, m in EXTENSIONS:
        ext = extension_field(q, m)
        images = {ext.expand(x) for x in range(ext.ext.q)}
        assert len(images) == q ** m
        for coords in images:
            assert len(coords) == m
            assert all(0 <= c < q for c in coords)


def test_expand_recombines_to_the_element():
    """sum_j embed(y_j) * basis[j] over expand(x), in scalar arithmetic, is x."""
    for q, m in EXTENSIONS:
        ext = extension_field(q, m)
        f = ext.ext
        for x in range(f.q):
            acc = 0
            for y, b in zip(ext.expand(x), ext.basis):
                acc = f.add(acc, f.mul(ext.embed(y), b))
            assert acc == x, (q, m, x)


def test_expand_rejects_non_elements():
    """expand refuses indices outside GF(q^m), like embed for GF(q)."""
    for q, m in [(2, 3), (3, 2), (4, 2), (9, 1)]:
        ext = extension_field(q, m)
        for x in (-1, ext.ext.q):
            with pytest.raises(InvalidElementError):
                ext.expand(x)


def test_numpy_integer_indices_are_accepted_as_ints():
    """An index held in a numpy integer is as good as a Python int; a float
    or an index outside the field is still refused."""
    ext = extension_field(2, 3)
    assert ext.embed(np.int64(1)) == ext.embed(1)
    assert type(ext.embed(np.int64(1))) is int
    assert ext.expand(np.int64(3)) == ext.expand(3)
    assert ext.expand(np.uint64(3)) == ext.expand(3)
    m = matrix(field_of(2), np.array([[1, 0], [0, 1]]))
    assert m.to_lists() == [[1, 0], [0, 1]]
    assert all(type(v) is int for v in m.entries)
    for bad in (1.0, np.float64(1.0), "1", np.int64(8)):
        with pytest.raises(InvalidElementError):
            ext.expand(bad)
    with pytest.raises(InvalidElementError):
        matrix(field_of(2), np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_expand_is_subfield_linear():
    ext = extension_field(3, 2)
    f = ext.ext
    for x in range(f.q):
        for y in range(f.q):
            sx, sy, sxy = ext.expand(x), ext.expand(y), ext.expand(f.add(x, y))
            assert all(ext.base.add(a, b) == c for a, b, c in zip(sx, sy, sxy))
        for a in range(3):
            scaled = ext.expand(f.mul(ext.embed(a), x))
            assert all(ext.base.mul(a, c) == s for c, s in zip(ext.expand(x), scaled))


def test_linearized_eval():
    q, m = 2, 4
    f = extension_field(q, m).ext
    # coefficient vector [0, 1] is the Frobenius itself
    for x in range(f.q):
        assert linearized_eval([0, 1], x, q, f) == f.pow(x, q)
    # additivity in the argument
    coeffs = [3, 1, 7]
    for x in range(f.q):
        for y in (1, 5, 11):
            lhs = linearized_eval(coeffs, f.add(x, y), q, f)
            rhs = f.add(linearized_eval(coeffs, x, q, f),
                        linearized_eval(coeffs, y, q, f))
            assert lhs == rhs
    # GF(q)-scalar linearity through the embedding
    ext = extension_field(3, 2)
    for a in range(3):
        for x in range(9):
            lam = ext.embed(a)
            lhs = linearized_eval([2, 4], ext.ext.mul(lam, x), 3, ext.ext)
            rhs = ext.ext.mul(lam, linearized_eval([2, 4], x, 3, ext.ext))
            assert lhs == rhs
    with pytest.raises(IncompatibleFieldError):
        linearized_eval([0, 1], 1, 4, extension_field(2, 3).ext)  # 8 not a power of 4


# ------------------------------------------------------------------ matrices


def test_matrix_constructor_validation():
    f = field_of(2)
    m = matrix(f, [[1, 0], [0, 1]])
    assert m.entry(0, 0) == 1 and m.entry(1, 0) == 0
    with pytest.raises(InvalidElementError):
        matrix(f, [[2, 0], [0, 1]])
    with pytest.raises(InvalidParameterError):
        matrix(f, [[1, 0], [1]])
    with pytest.raises(InvalidParameterError):
        matrix(f, [])


def test_rank_examples():
    f = field_of(2)
    assert mat_rank(matrix(f, [[0] * 4] * 3)) == 0
    assert mat_rank(matrix(f, [[int(i == j) for j in range(4)]
                               for i in range(4)])) == 4
    assert mat_rank(matrix(f, [[1, 1], [1, 1]])) == 1
    f3 = field_of(3)
    assert mat_rank(matrix(f3, [[1, 2], [2, 2]])) == 2
    # second row is 2 * first row mod 3
    assert mat_rank(matrix(f3, [[1, 2], [2, 1]])) == 1


def rank_by_span(field, m):
    """Row-space cardinality oracle: |rowspace| = q^rank."""
    rows = m.to_lists()
    vecs = set()
    for coeffs in itertools.product(range(field.q), repeat=m.rows):
        v = [0] * m.cols
        for c, row in zip(coeffs, rows):
            v = [field.add(x, field.mul(c, y)) for x, y in zip(v, row)]
        vecs.add(tuple(v))
    size = len(vecs)
    r = 0
    while field.q ** r < size:
        r += 1
    assert field.q ** r == size
    return r


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rank_matches_span_oracle(q):
    f = field_of(q)
    shapes = list(itertools.product(range(q), repeat=4))
    for flat in shapes:
        m = matrix(f, [list(flat[:2]), list(flat[2:])])
        assert mat_rank(m) == rank_by_span(f, m)


@given(st.sampled_from([2, 3, 4, 5]), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_transpose(q, data):
    f = field_of(q)
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    entries = data.draw(st.lists(st.integers(0, q - 1),
                                 min_size=rows * cols, max_size=rows * cols))
    m = matrix(f, [entries[r * cols:(r + 1) * cols] for r in range(rows)])
    assert mat_rank(m) == mat_rank(matrix(f, zip(*m.to_lists())))


@pytest.mark.parametrize("q", [2, 3])
def test_rref_idempotent_and_canonical(q):
    """Two generator matrices of the same row space get the same RREF.

    Exhaustive over 2x3 matrices over GF(q), grouped by literal row-space
    sets.
    """
    f = field_of(q)
    by_space = {}
    for flat in itertools.product(range(q), repeat=6):
        m = matrix(f, [list(flat[:3]), list(flat[3:])])
        space = frozenset(
            tuple(f.add(f.mul(a, m.entry(0, c)), f.mul(b, m.entry(1, c)))
                  for c in range(3))
            for a in range(q) for b in range(q))
        r = mat_rref(m)
        assert mat_rref(r) == r
        by_space.setdefault(space, set()).add(r.entries)
    for space, forms in by_space.items():
        assert len(forms) == 1


def test_rref_strips_zero_rows():
    f = field_of(3)
    r = mat_rref(matrix(f, [[0, 0], [1, 2], [2, 4 % 3]]))
    assert r.rows == 1
    assert r.row_list(0) == [1, 2]
    z = mat_rref(matrix(f, [[0, 0, 0], [0, 0, 0]]))
    assert z.rows == 1 and z.row_list(0) == [0, 0, 0]


def test_pack_unpack_roundtrip():
    for q in (2, 3, 5):
        for width in (1, 4, 7):
            for trial in range(25):
                row = [(trial * 31 + i * q + 1) % q for i in range(width)]
                assert unpack_row(pack_row(row, q), q, width) == row
    # column zero is the least significant digit
    assert pack_row([1, 0, 0], 2) == 1
    assert pack_row([0, 0, 1], 2) == 4
    assert pack_row([2, 1], 3) == 5


@pytest.mark.parametrize("q", [2, 3, 4])
def test_packed_rank_matches_matrix_rank(q):
    f = field_of(q)
    state = 12345
    for _ in range(40):
        rows, cols = 3, 5
        entries = []
        for _ in range(rows * cols):
            state = (state * 1103515245 + 12345) % (1 << 31)
            entries.append(state % q)
        lists = [entries[r * cols:(r + 1) * cols] for r in range(rows)]
        m = matrix(f, lists)
        packed = [pack_row(row, q) for row in lists]
        assert packed_rank(packed, f, cols) == mat_rank(m)
        rref_packed = packed_rref(packed, f, cols)
        rref_lists = [unpack_row(v, q, cols) for v in rref_packed]
        expect = mat_rref(m)
        if mat_rank(m) == 0:
            assert rref_packed == ()
        else:
            assert rref_lists == expect.to_lists()


# the widest row of each q that still packs into 64 bits
WIDTH_LIMIT = {2: 64, 3: 40, 4: 32, 5: 27, 7: 22, 8: 21, 9: 20}


def assert_matches_scalar(stacks, q, width):
    """rref_rows agrees with packed_rref and packed_rank stack by stack."""
    f = field_of(q)
    stacks = np.array(stacks, dtype=np.uint64)
    reduced = stacks.copy()
    ranks = rref_rows(reduced, q, width)
    assert ranks.shape == (len(stacks),) and ranks.dtype == np.uint8
    assert reduced.shape == stacks.shape and reduced.dtype == np.uint64
    for b, rows in enumerate(stacks.tolist()):
        ref = packed_rref(rows, f, width)
        assert int(ranks[b]) == len(ref) == packed_rank(rows, f, width)
        assert reduced[b].tolist() == list(ref) + [0] * (len(rows) - len(ref))


def combine(rows, coeffs, f, width):
    """sum(c * row) over GF(q), on packed rows, by the scalar field."""
    acc = [0] * width
    for row, c in zip(rows, coeffs):
        acc = [f.add(a, f.mul(c, v))
               for a, v in zip(acc, unpack_row(row, f.q, width))]
    return pack_row(acc, f.q)


EDGE_KINDS = ("zero", "top-column", "lead", "multiple", "span", "pivot")
# a row's kind and its small choices; strategies are built once, since
# building and validating one costs more than a draw
EDGE_CHOICE = st.integers(0, len(EDGE_KINDS) * 2 ** 64 - 1)


@lru_cache(maxsize=None)
def digit_rows(q, width):
    return st.integers(0, q ** width - 1)


def edge_row(draw, f, width, earlier, heads=()):
    """One packed row of a kind that reaches an edge case of the clearing
    steps: zero, a lead in the top column, a leading digit other than 1, c
    times an earlier row plus a multiple of a fresh one, a combination of
    earlier rows or a digit other than 1 at a head's pivot; a kind that
    finds nothing to work on gives a fresh row.  At q = 2 the only digit
    other than 0 is 1.  One draw gives the kind and every small choice,
    and one more the fresh row's digits, which are all q - 1 one time in
    four, so a row costs at most two draws."""
    q = f.q
    choice = draw(EDGE_CHOICE)
    kind, pick = EDGE_KINDS[choice % len(EDGE_KINDS)], choice // len(EDGE_KINDS)

    def small(lo, hi):
        # the next small choice in [lo, hi], read off pick
        nonlocal pick
        pick, c = divmod(pick, hi - lo + 1)
        return lo + c

    if kind == "zero":
        return 0
    if kind == "span" and earlier:
        return combine(earlier, [small(0, q - 1) for _ in earlier], f, width)
    top = q ** width - 1
    value = top if small(0, 3) == 0 else draw(digit_rows(q, width))
    if kind == "top-column":
        high = q ** (width - 1)
        return small(1, q - 1) * high + (value if small(0, 1) else 0) % high
    if kind == "multiple" and earlier:
        return combine([earlier[small(0, len(earlier) - 1)], value],
                       [small(1, q - 1), small(0, q - 1)], f, width)
    digits = unpack_row(value, q, width)
    if kind == "lead" and value:
        at = next(c for c, d in enumerate(digits) if d)
    elif kind == "pivot" and any(heads):
        led = [u for u in heads if u]
        head = unpack_row(led[small(0, len(led) - 1)], q, width)
        at = next(c for c, d in enumerate(head) if d)
    else:
        return value
    digits[at] = small(min(2, q - 1), q - 1)
    return pack_row(digits, q)


@st.composite
def row_stacks(draw, q):
    f = field_of(q)
    width = draw(st.one_of(st.just(WIDTH_LIMIT[q]),
                           st.integers(1, WIDTH_LIMIT[q])))
    r = draw(st.integers(1, 9))
    stacks = []
    for _ in range(draw(st.integers(1, 4))):
        rows = []
        for _ in range(r):
            rows.append(edge_row(draw, f, width, rows))
        stacks.append(rows)
    return width, stacks


@given(st.data())
@settings(max_examples=250, deadline=None)
def test_rref_rows_matches_scalar_kernels(data):
    # every q in each example, so each q meets every edge case as often
    for q in SUPPORTED_Q:
        width, stacks = data.draw(row_stacks(q))
        assert_matches_scalar(stacks, q, width)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_rref_rows_places_rows_by_their_leads(q):
    # e[c] is the unit row of column c and a = q - 1 a lead other than 1
    # (for q > 2); rows reach every output index, zero rows collide on
    # index rank, and an all-zero stack puts every row on index 0
    e, a = [q ** c for c in range(4)], q - 1
    assert_matches_scalar([
        [e[3], e[2] + a * e[3], a * e[1] + e[2], e[0] + e[3]],  # reverse order
        [a * e[3], a * e[2], e[1] + e[3], a * e[0] + e[1]],
        [0, e[2] + e[3], 0, a * e[0] + e[2]],  # two zero rows
        [e[1] + e[2], a * e[1] + a * e[2], e[3], a * e[3]],  # two become zero
        [0, 0, 0, a * e[1]],
        [0, 0, 0, 0],
    ], q, 4)
    assert_matches_scalar(np.zeros((0, 3), dtype=np.uint64), q, 4)
    assert_matches_scalar(np.zeros((3, 0), dtype=np.uint64), q, 4)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rref_rows_reduces_a_strided_view_in_place(q):
    # the even columns of a wider array, across a CHUNK seam: each block is
    # written back into the view and the odd columns stay as they were
    width, r = 3, 4
    rng = np.random.default_rng(q + 10)
    wide = rng.integers(0, q ** width, size=(CHUNK + 3, 2 * r), dtype=np.uint64)
    before = wide.copy()
    ranks = rref_rows(wide[:, ::2], q, width)
    f = field_of(q)
    for b, rows in enumerate(before[:, ::2].tolist()):
        ref = list(packed_rref(rows, f, width))
        assert int(ranks[b]) == len(ref)
        assert wide[b, ::2].tolist() == ref + [0] * (r - len(ref))
    assert (wide[:, 1::2] == before[:, 1::2]).all()


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rref_rows_across_chunk_seams(q):
    # narrow rows, so the ranks vary and dependent stacks are common
    width, r = 3, 4
    rng = np.random.default_rng(q)
    stacks = rng.integers(0, q ** width, size=(2 * CHUNK + 3, r)).tolist()
    assert_matches_scalar(stacks, q, width)


def assert_join_matches_scalar(heads, tails, q, width):
    """join_ranks agrees with packed_rank stack by stack."""
    f = field_of(q)
    got = join_ranks(np.array(heads, dtype=np.uint64).reshape(len(heads), -1),
                     np.array(tails, dtype=np.uint64), q, width)
    assert got.shape == (len(tails),)
    for b, (u, w) in enumerate(zip(heads, tails)):
        want = packed_rank(u + w, f, width) - packed_rank(u, f, width)
        assert int(got[b]) == want, (u, w)


@st.composite
def head_tail_stacks(draw, q):
    f = field_of(q)
    width = draw(st.one_of(st.just(WIDTH_LIMIT[q]),
                           st.integers(1, WIDTH_LIMIT[q])))
    k = draw(st.integers(1, 6))
    kU = draw(st.integers(0, k))
    heads, tails = [], []
    for _ in range(draw(st.integers(1, 4))):
        # canonical heads, zero-padded to kU rows when the draw is dependent
        drawn = []
        for _ in range(kU):
            drawn.append(edge_row(draw, f, width, drawn))
        u = list(packed_rref(drawn, f, width))
        u += [0] * (kU - len(u))
        if u and draw(st.booleans()):
            tails.append(u + [0] * (k - kU))  # a copy of U
            heads.append(u)
            continue
        w = []
        for _ in range(k):
            w.append(edge_row(draw, f, width, u + w, u))
        heads.append(u)
        tails.append(w)
    return width, heads, tails


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_join_ranks_matches_scalar_rank(data):
    for q in (2, 3, 4, 9):
        width, heads, tails = data.draw(head_tail_stacks(q))
        assert_join_matches_scalar(heads, tails, q, width)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_join_ranks_clears_a_pivot_in_the_last_column(q):
    # the head's pivot is the top digit, bit 63 for q = 2
    width = WIDTH_LIMIT[q]
    f = field_of(q)
    top = q ** (width - 1)
    heads = [[top], [top], [top], [1]]
    tails = [[top, (q - 1) * top + 1],
             [combine([top], [q - 1], f, width), 0],
             [q ** width - 1, top + 1],
             [top, q ** width - 1]]
    assert_join_matches_scalar(heads, tails, q, width)
    added = join_ranks(np.array(heads, dtype=np.uint64),
                       np.array(tails, dtype=np.uint64), q, width)
    assert added.tolist() == [1, 0, 2, 2]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("stacks", [CHUNK - 1, CHUNK + 1])
def test_join_ranks_across_chunk_seams(q, stacks):
    # narrow rows, so heads lose rank; each tail is its own head plus one
    # drawn row, so it adds at most 1 to its own head but more to another
    width, kU = 4, 2
    rng = np.random.default_rng(stacks + q)
    heads = rng.integers(0, q ** width, size=(stacks, kU), dtype=np.uint64)
    rref_rows(heads, q, width)
    drawn = rng.integers(0, q ** width, size=(stacks, 1), dtype=np.uint64)
    tails = np.concatenate([heads, drawn], axis=1)
    assert_join_matches_scalar(heads.tolist(), tails.tolist(), q, width)


def ternary_planes(digit_rows):
    """(r, 2, B) planes of rows given as digit lists, one row per stack."""
    width = len(digit_rows[0])
    rows = np.array([[pack_row(r, 3)] for r in digit_rows], dtype=np.uint64)
    return fields._encode(rows, 3, width), width


def test_ternary_clearing_step_matches_the_field():
    """x - c * v for monic v, every pivot digit c and every digit pair."""
    f = field_of(3)
    pairs = list(itertools.product(range(3), repeat=2))
    # column 0 is v's pivot; column 1 + j holds the j-th pair (a, b), a in
    # x and b in v: c = 2 adds v (plane addition), c = 1 adds v's planes
    # swapped (negation)
    v = [1] + [b for _, b in pairs]
    for c in range(3):
        x = [c] + [a for a, _ in pairs]
        planes, width = ternary_planes([v, x])
        fields._clear(planes[0], planes[1:], 3)
        want = [f.sub(a, f.mul(c, b)) for a, b in zip(x, v)]
        rows = fields._decode(planes, 3, width).tolist()
        assert rows == [[pack_row(v, 3)], [pack_row(want, 3)]]


@pytest.mark.parametrize("lead", [1, 2])
def test_ternary_rows_are_made_monic(lead):
    """A lead of 2 swaps the planes: the row times 2, every digit pair."""
    f = field_of(3)
    for offset in range(3):  # the lead in column 0, 1 or 2
        row = [0] * offset + [lead] + [a for a, b in
                                       itertools.product(range(3), repeat=2)]
        planes, width = ternary_planes([row])
        fields._eliminate(planes, 3, True)
        want = [f.mul(f.inv(lead), a) for a in row]
        assert fields._decode(planes, 3, width).tolist() == [[pack_row(want, 3)]]


@given(row_stacks(3))
@settings(max_examples=200, deadline=None)
def test_rref_rows_matches_scalar_at_q3(case):
    # more q = 3 draws of the all-q edge cases: leading 2s, rows twice
    # another and leads in the top column, up to width 40
    width, stacks = case
    assert_matches_scalar(stacks, 3, width)


@given(head_tail_stacks(3))
@settings(max_examples=200, deadline=None)
def test_join_ranks_matches_scalar_at_q3(case):
    # as above, and tail rows with a 2 at a head pivot
    width, heads, tails = case
    assert_join_matches_scalar(heads, tails, 3, width)


def test_q3_kernels_across_chunk_seams_at_width_40():
    # sparse digit rows: zero rows, repeats and leads anywhere up to column
    # 39, so ranks vary across the seam
    width, r, stacks = 40, 4, CHUNK + 3
    rng = np.random.default_rng(40)
    digits = rng.integers(0, 3, size=(stacks, r, width), dtype=np.uint8)
    digits *= rng.random((stacks, r, width)) < 0.06
    rows = pack_rows(digits, 3)
    assert_matches_scalar(rows.tolist(), 3, width)
    heads = rows[:, :2].copy()
    rref_rows(heads, 3, width)
    assert_join_matches_scalar(heads.tolist(), rows[:, 1:].tolist(), 3, width)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_kernels_take_only_their_own_row_form(monkeypatch, q):
    def refuse(*args):
        raise AssertionError(f"q = {q} rows called a helper they must not")

    # the lru-cached tables of the forms that q's rows must not take
    other_forms = {2: ("_tables", "_plane_tables", "_digit_table"),
                   3: ("_tables",), 4: ("_plane_tables",)}
    field_of(q)  # built first: Field.__init__ unpacks its add table
    for name in other_forms[q]:
        monkeypatch.setattr(fields, name, refuse)
    # leads other than 1, a lead in the top column and a dependent stack
    width = WIDTH_LIMIT[q]
    stacks = [[5, (q - 1) * q ** (width - 1), 7], [0, 2, q ** width - 1],
              [6, 3, 0]]
    assert_matches_scalar(stacks, q, width)
    heads = np.array(stacks, dtype=np.uint64)[:, 1:].copy()
    rref_rows(heads, q, width)
    # join_ranks and pivot_masks give back no packed rows, so they pack no
    # digits: a reduced stack with no zero row gets its leading columns
    monkeypatch.setattr(fields, "pack_rows", refuse)
    assert_join_matches_scalar(heads.tolist(), stacks, q, width)
    assert pivot_masks(heads, q, width).tolist() == [
        sum(1 << next(c for c, d in enumerate(unpack_row(v, q, width)) if d)
            for v in rows) if all(rows) else 0
        for rows in heads.tolist()]


@st.composite
def digit_stacks(draw):
    """Stacks of k digit rows: packed_rref output, mostly then damaged."""
    q = draw(st.sampled_from(SUPPORTED_Q))
    f = field_of(q)
    width = draw(st.one_of(st.just(WIDTH_LIMIT[q]),
                           st.integers(1, WIDTH_LIMIT[q])))
    top = q ** width - 1
    k = draw(st.integers(1, min(width, 6)))
    stacks = []
    for _ in range(draw(st.integers(1, 4))):
        drawn = [draw(st.one_of(st.just(top), st.integers(0, top)))
                 for _ in range(k)]
        # a dependent draw leaves zero rows at the bottom
        rows = [unpack_row(v, q, width) for v in packed_rref(drawn, f, width)]
        rows += [[0] * width for _ in range(k - len(rows))]
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        lead = next((c for c, d in enumerate(rows[i]) if d), None)
        kind = draw(st.sampled_from(("canonical", "leading-digit",
                                     "pivot-column", "swap", "zero",
                                     "repeat", "random")))
        if kind == "leading-digit" and lead is not None and q > 2:
            rows[i][lead] = draw(st.integers(2, q - 1))
        elif kind == "pivot-column" and lead is not None and i != j:
            rows[j][lead] = draw(st.integers(1, q - 1))
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "zero":
            rows[i] = [0] * width
        elif kind == "repeat":
            rows[j] = list(rows[i])
        elif kind == "random":
            rows = [[draw(st.integers(0, q - 1)) for _ in range(width)]
                    for _ in range(k)]
        stacks.append(rows)
    return q, width, stacks


def binary_row(*cols):
    """A GF(2) row of width 64 with ones at ``cols``."""
    return [int(c in cols) for c in range(64)]


@given(digit_stacks())
@settings(max_examples=300, deadline=None)
# a row leading at column 63 is the top bit of its word: s & -s still finds
# it, and it compares above every other lead only as an unsigned word
@example((2, 64, [[binary_row(63)]]))
@example((2, 64, [
    [binary_row(0, 5), binary_row(63)],
    [binary_row(63), binary_row(0)],        # the leads decrease
    [binary_row(0, 63), binary_row(63)],    # row 0 in row 1's pivot column
    [binary_row(62, 63), binary_row(63)],
    [binary_row(63), binary_row(63)],
    [binary_row(0), binary_row()],
]))
def test_pivot_masks_match_scalar_rref(case):
    """A stack that packed_rref returns at rank k gets its identifying
    vector, the mask of its leading columns; any other stack gets 0."""
    q, width, stacks = case
    f = field_of(q)
    packed = [tuple(pack_row(r, q) for r in rows) for rows in stacks]
    got = pivot_masks(np.array(packed, dtype=np.uint64), q, width)
    assert got.dtype == np.uint64 and got.shape == (len(stacks),)
    for b, rows in enumerate(stacks):
        # equality leaves no room for zero rows, so the rank is k
        want = sum(1 << next(c for c, d in enumerate(r) if d) for r in rows) \
            if packed_rref(packed[b], f, width) == packed[b] else 0
        assert int(got[b]) == want, rows


@st.composite
def packed_arrays(draw):
    q = draw(st.sampled_from(SUPPORTED_Q))
    width = draw(st.one_of(st.just(WIDTH_LIMIT[q]),
                           st.integers(1, WIDTH_LIMIT[q])))
    top = q ** width - 1
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    values = draw(st.lists(st.one_of(st.just(top), st.integers(0, top)),
                           min_size=shape[0] * shape[1],
                           max_size=shape[0] * shape[1]))
    return q, width, np.array(values, dtype=np.uint64).reshape(shape)


@given(packed_arrays())
@settings(max_examples=300, deadline=None)
def test_row_codec_matches_scalar_and_roundtrips(case):
    q, width, rows = case
    digits = unpack_rows(rows, q, width)
    assert digits.dtype == np.uint8 and digits.shape == rows.shape + (width,)
    packed = pack_rows(digits, q)
    assert packed.dtype == np.uint64
    assert np.array_equal(packed, rows)
    # a transposed view decodes like the rows it holds
    assert np.array_equal(unpack_rows(rows.T, q, width),
                          digits.transpose(1, 0, 2))
    for index, value in np.ndenumerate(rows):
        assert digits[index].tolist() == unpack_row(int(value), q, width)
        assert int(packed[index]) == pack_row(digits[index].tolist(), q)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_row_codec_at_digit_group_seams(q):
    # unpack_rows reads g digits per lookup, g the widest with q**g <= 2**12
    g = max(c for c in range(1, 13) if q ** c <= 1 << 12)
    rng = np.random.default_rng(q)
    for width in sorted({1, g - 1, g, g + 1, 2 * g + 1, WIDTH_LIMIT[q]} - {0}):
        values = [0, 1, q ** width - 1] + [
            pack_row(rng.integers(0, q, width).tolist(), q) for _ in range(6)]
        rows = np.array(values, dtype=np.uint64).reshape(3, 3)
        for held in (rows, rows.T):
            digits = unpack_rows(held, q, width)
            assert np.array_equal(pack_rows(digits, q), held)
            for index, value in np.ndenumerate(held):
                assert digits[index].tolist() == unpack_row(int(value), q, width)
        # a row at or above q**width is refused, never read as other digits;
        # 2**64 - 1 would index a table from its end if it were not clamped
        for bad in {q ** width, (1 << 64) - 1}:
            if q ** width <= bad < 1 << 64:
                with pytest.raises(IndexError):
                    unpack_rows(np.array([[1, bad]], dtype=np.uint64), q, width)


# widths at and just past the bits of an unsigned type, where the digits
# that _held packs are padded to the next type
PAD_EDGES = (8, 9, 16, 17, 32, 33, 64)


@st.composite
def digit_blocks(draw):
    """A (B, k, width) uint8 block of GF(q) digits, laid out as the lines
    of a code file are."""
    q = draw(st.sampled_from(SUPPORTED_Q))
    edges = [w for w in PAD_EDGES if w <= WIDTH_LIMIT[q]]
    width = draw(st.one_of(st.sampled_from(edges),
                           st.integers(1, WIDTH_LIMIT[q])))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)), width)
    size = shape[0] * shape[1] * width
    digits = draw(st.lists(st.one_of(st.just(q - 1), st.integers(0, q - 1)),
                           min_size=size, max_size=size))
    return q, width, np.array(digits, dtype=np.uint8).reshape(shape)


@given(digit_blocks())
@settings(max_examples=300, deadline=None)
def test_held_reads_digits_as_the_kernels_hold_rows(case):
    q, width, lines = case
    # row t of every stack, the strided view the code-file reader passes
    digits = lines.transpose(1, 0, 2)
    held = fields._held(digits, q)
    want = fields._encode(pack_rows(digits, q), q, width)
    assert np.array_equal(held, want)
    # q = 2 rows come in the narrowest unsigned type, like q = 3 planes
    assert held.dtype == (want.dtype if q > 3
                          else np.min_scalar_type((1 << width) - 1))
    rows = fields._decode(held, q, width)
    assert rows.shape == digits.shape[:-1]
    for (t, b), value in np.ndenumerate(rows):
        assert int(value) == pack_row(digits[t, b].tolist(), q)


@st.composite
def span_bases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    width = draw(st.one_of(st.just(WIDTH_LIMIT[p]),
                           st.integers(1, WIDTH_LIMIT[p])))
    m, k = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    top = p ** width - 1
    basis = [[draw(st.one_of(st.just(top), st.integers(0, top)))
              for _ in range(k)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        # two all-(p - 1) rows in one place: the sums reach 2p - 2, the
        # largest value the wrapping reduction has to bring back below p
        basis[0][0] = basis[-1][0] = top
    return p, width, np.array(basis, dtype=np.uint64).reshape(m, k)


@given(span_bases())
@settings(max_examples=150, deadline=None)
def test_span_words_matches_scalar_combinations(case):
    p, width, basis = case
    m, k = basis.shape
    got = span_words(basis, p, width)
    assert got.dtype == np.uint64 and got.shape == (p ** m, k)
    digits = [[unpack_row(int(v), p, width) for v in word] for word in basis]
    for t, word in enumerate(got.tolist()):
        coeffs = unpack_row(t, p, m)
        want = [pack_row([sum(a * digits[i][r][c] for i, a in enumerate(coeffs)) % p
                          for c in range(width)], p) for r in range(k)]
        assert word == want, (t, coeffs)


def test_mat_sub():
    f = field_of(3)
    a = matrix(f, [[1, 2], [0, 1]])
    b = matrix(f, [[2, 0], [1, 1]])
    assert mat_sub(a, b).to_lists() == [[2, 2], [2, 0]]
    assert mat_sub(a, a).to_lists() == [[0, 0], [0, 0]]
