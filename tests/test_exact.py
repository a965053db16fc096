import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

import dense_oracle as oracle
from algcert.exact import (
    Mat,
    Table,
    Tensor2,
    Tensor3,
    flip,
    integral,
    leg_sum,
    mat_apply,
    mat_comb,
    rat,
    rat_str,
    table_rows,
    tensor2_map,
    tensor3_map,
    tensor_map,
    vbasis,
    vec,
    vzero,
)


def rand_frac(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def rand_mat(rng, rows, cols):
    return Mat([[rand_frac(rng) for _ in range(cols)] for _ in range(rows)])


def rand_tensor(rng, n):
    entries = {}
    for _ in range(rng.randint(0, 2 * n)):
        entries[(rng.randrange(n), rng.randrange(n))] = rand_frac(rng)
    return Tensor2(n, n, entries)


def test_rat_parsing_and_rendering():
    assert rat("3/6") == Fraction(1, 2)
    assert rat_str(Fraction(-4, 8)) == "-1/2"
    assert rat_str(Fraction(14, 7)) == "2"
    assert rat(7) == Fraction(7)
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_arithmetic_is_exact():
    rng = random.Random(11)
    for _ in range(200):
        a, b = rand_frac(rng), rand_frac(rng)
        assert (a + b) - b == a
        s = a + b
        assert s.denominator > 0
        import math
        assert math.gcd(s.numerator, s.denominator) == 1


def test_mat_apply_identity_and_zero():
    v = vec([1, 2, 3])
    assert mat_apply(Mat.identity(3), v) == v
    assert mat_apply(Mat.zeros(2, 2), vec([5, 7])) == vec([0, 0])


def test_mat_apply_hand_product():
    m = Mat([[0, 0, 0], [2, 0, 0], [0, 0, -1]])
    assert mat_apply(m, vec([1, 0, 1])) == vec([0, 2, -1])


def test_mat_apply_shape_mismatch():
    with pytest.raises(ValueError):
        mat_apply(Mat.identity(3), vec([1, 2]))


def test_transpose_identity_and_shape():
    assert Mat.identity(4).transpose() == Mat.identity(4)
    m = Mat([[1, 2]])
    t = m.transpose()
    assert (t.rows, t.cols) == (2, 1)


def test_transpose_is_dual_map():
    # B(H)=2X, B(X)=0, B(Y)=-H  =>  B*(H*)=-Y*, B*(X*)=2H*, B*(Y*)=0
    b = Mat([[0, 0, -1], [2, 0, 0], [0, 0, 0]])
    bt = b.transpose()
    assert bt.apply(vbasis(3, 0)) == vec([0, 0, -1])
    assert bt.apply(vbasis(3, 1)) == vec([2, 0, 0])
    assert bt.apply(vbasis(3, 2)) == vec([0, 0, 0])
    # pairing <B* xi, x> = <xi, B x> on random inputs
    rng = random.Random(5)
    for _ in range(25):
        x = vec([rand_frac(rng) for _ in range(3)])
        xi = vec([rand_frac(rng) for _ in range(3)])
        lhs = sum(a * b_ for a, b_ in zip(bt.apply(xi), x))
        rhs = sum(a * b_ for a, b_ in zip(xi, b.apply(x)))
        assert lhs == rhs


def test_transpose_involution():
    rng = random.Random(7)
    for _ in range(20):
        m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert m.transpose().transpose() == m


def test_det_and_inverse():
    m = Mat([[2, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert m.det() == Fraction(-2)
    assert m @ m.inverse() == Mat.identity(3)
    with pytest.raises(ValueError):
        Mat.zeros(2, 2).inverse()
    rng = random.Random(3)
    for _ in range(20):
        m = rand_mat(rng, 3, 3)
        d = m.det()
        if d != 0:
            assert m.inverse() @ m == Mat.identity(3)


def test_tensor2_never_stores_zeros_and_orders_items():
    t = Tensor2(2, 2, {(1, 0): Fraction(0), (0, 1): 3, (1, 1): -1})
    assert (1, 0) not in t.entries
    assert [k for k, _ in t.items()] == [(0, 1), (1, 1)]


def test_tensor2_map_identity_and_zero():
    r = Tensor2(3, 3, {(0, 1): 1, (1, 0): -1})
    ident = Mat.identity(3)
    assert tensor2_map(ident, ident, r) == r
    assert tensor2_map(Mat.zeros(3, 3), ident, r).is_zero()


def test_tensor2_map_hand_value():
    # (B ⊗ Id)(H⊗X - X⊗H) = 2 X⊗X
    b = Mat([[0, 0, -1], [2, 0, 0], [0, 0, 0]])
    r = Tensor2(3, 3, {(0, 1): 1, (1, 0): -1})
    assert tensor2_map(b, Mat.identity(3), r) == Tensor2(3, 3, {(1, 1): 2})


def test_tensor2_map_composes():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 3)
        f, f2 = rand_mat(rng, n, n), rand_mat(rng, n, n)
        g, g2 = rand_mat(rng, n, n), rand_mat(rng, n, n)
        t = rand_tensor(rng, n)
        assert tensor2_map(f @ f2, g @ g2, t) == tensor2_map(f, g, tensor2_map(f2, g2, t))


def test_tensor_maps_match_the_fraction_bodies():
    # tensor2_map/tensor3_map run `tensor_map` on the integer forms and divide once; the
    # term-by-term Fraction bodies they replaced are the reference, and a leg sum is the sum
    # of its one-leg maps
    rng = random.Random(29)
    for _ in range(25):
        a, b, c, n = (rng.randint(1, 3) for _ in range(4))
        f, g, h = rand_mat(rng, a, n), rand_mat(rng, b, n), rand_mat(rng, c, n)
        t = rand_tensor(rng, n)
        assert tensor2_map(f, g, t) == oracle.tensor2_map(f, g, t)
        t3 = Tensor3((n, n, n), {(rng.randrange(n), rng.randrange(n), rng.randrange(n)):
                                 rand_frac(rng) for _ in range(2 * n)})
        assert tensor3_map(f, g, h, t3) == oracle.tensor3_map(f, g, h, t3)
        sq, ident = rand_mat(rng, n, n), Mat.identity(n)
        body, d = t.ientries, t.den
        legs = Tensor2(n, n, {k: Fraction(c, d * sq.den)
                              for k, c in leg_sum(body, sq.icols, 2).items()})
        assert legs == tensor2_map(sq, ident, t) + tensor2_map(ident, sq, t)
        assert tensor_map(body, [None, None]) is body


def test_flip_cases():
    skew = Tensor2(3, 3, {(0, 1): 1, (1, 0): -1})
    assert flip(skew) == skew.scale(-1)
    sym = Tensor2(3, 3, {(0, 0): 1})
    assert flip(sym) == sym
    assert flip(Tensor2(2, 2, {(0, 1): 1})) == Tensor2(2, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        flip(Tensor2(2, 3, {(0, 1): 1}))


def test_flip_involution():
    rng = random.Random(23)
    for _ in range(25):
        t = rand_tensor(rng, rng.randint(1, 4))
        assert flip(flip(t)) == t


def test_tensor3_map_and_zero():
    t = Tensor3((2, 2, 2), {(0, 1, 0): 2})
    ident = Mat.identity(2)
    assert tensor3_map(ident, ident, ident, t) == t
    assert tensor3_map(Mat.zeros(2, 2), ident, ident, t).is_zero()


def test_block_diag_and_submatrix():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[5]])
    big = Mat.block_diag(a, b)
    assert big.rows == 3 and big.cols == 3
    assert big.submatrix(range(2), range(2)) == a
    assert big.submatrix([2], [2]) == b


def test_table_validates_once_and_drops_zeros():
    for entries, skew in (({(0, 2): {0: 1}}, False), ({(-1, 1): {0: 1}}, False),
                          ({(1, 0): {0: 1}}, True), ({(1, 1): {0: 1}}, True),
                          ({(0, 1): {2: 1}}, True), ({(1, 0): {-1: 0}}, False)):
        with pytest.raises(ValueError):
            Table(2, entries, skew)
    t = Table(2, {(0, 1): {0: "1/2", 1: 0}, (1, 0): {0: 0}}, skew=False)
    assert t == {(0, 1): {0: Fraction(1, 2)}} and (t.dim, t.skew) == (2, False)
    assert Table(2, {(0, 1): {1: "0"}}, skew=True) == {}
    assert t.basis_prod(1, 0) == vzero(2)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 4))
    skew = draw(st.booleans())
    keys = [(i, j) for i in range(n) for j in range(n) if not skew or i < j]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entries = draw(st.dictionaries(st.sampled_from(keys), st.dictionaries(
        st.integers(0, n - 1), coeff, max_size=n), max_size=len(keys))) if keys else {}
    return Table(n, entries, skew)


@given(tables())
def test_table_rows_agree_with_dense_products(t):
    rows = table_rows(t.ientries, t.dim, t.skew)
    for i in range(t.dim):
        for j in range(t.dim):
            sparse = rows[i].get(j, {})
            dense = tuple(Fraction(sparse.get(k, 0), t.den) for k in range(t.dim))
            assert dense == t.basis_prod(i, j)
            assert t.prod(vbasis(t.dim, i), vbasis(t.dim, j)) == t.basis_prod(i, j)


# ---------------------------------------------------------------------------
# the kept integer forms against the dense bodies they replaced
# ---------------------------------------------------------------------------

DENOMS = (1, 1, 2, 3, 4, 6, 9, 35)


def rand_rows(rng, rows, cols, density=0.6):
    """Rows of rationals with mixed denominators and about `density` nonzeros."""
    return [[Fraction(rng.randint(-9, 9), rng.choice(DENOMS)) if rng.random() < density else 0
             for _ in range(cols)] for _ in range(rows)]


def shapes(rng):
    """0×0, 1×n, n×1, square and non-square shapes, all-zero ones included."""
    yield 0, 0
    for _ in range(40):
        yield rng.choice(((1, rng.randint(1, 5)), (rng.randint(1, 5), 1),
                          (rng.randint(2, 5), rng.randint(2, 5))))


def same_matrix(m: Mat, d) -> bool:
    """Equal shapes and entries; the dense type reads the column count off its first row,
    so it holds a 0×n matrix as 0×0, which `Mat` keeps as 0×n."""
    return (m.rows, m.cols if m.rows else 0, m.entries) == (d.rows, d.cols, d.entries)


def fresh_form(m: Mat) -> tuple:
    cols, den = oracle.integral(oracle.DenseMat(m.entries))
    return tuple(cols), den


def test_mat_form_is_the_dense_integral():
    rng = random.Random(31)
    for rows, cols in shapes(rng):
        for density in (0.0, 0.6, 1.0):
            entries = rand_rows(rng, rows, cols, density)
            m = Mat(entries)
            assert m.form == fresh_form(m) == (m.icols, m.den)
            assert same_matrix(m, oracle.DenseMat(entries))
            assert m.entries == tuple(tuple(map(Fraction, row)) for row in entries)


def test_integral_matches_the_dense_integral():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 4)
        t = Table(n, {(i, j): {k: c for k, c in enumerate(rand_rows(rng, 1, n)[0]) if c}
                      for i in range(n) for j in range(n) if rng.random() < 0.5})
        mats = [Mat(rand_rows(rng, n, n, rng.choice((0.0, 0.5, 1.0))))
                for _ in range(rng.randint(0, 3))]
        *got, den = integral(t, *mats)
        *want, want_den = oracle.integral(t, *mats)
        assert den == want_den
        assert got[0] == want[0] and [list(c) for c in got[1:]] == want[1:]
        # a form already on the common denominator is the kept one, not a copy
        assert integral(t)[0] is t.form[0]
        assert all(integral(m)[0] is m.icols for m in mats)


def test_every_mat_operation_matches_the_dense_one():
    rng = random.Random(41)
    for rows, cols in shapes(rng):
        a_rows, b_rows = rand_rows(rng, rows, cols), rand_rows(rng, rows, cols)
        a, b = Mat(a_rows), Mat(b_rows)
        da, db = oracle.DenseMat(a_rows), oracle.DenseMat(b_rows)
        c_rows = rand_rows(rng, cols, rng.randint(0, 4))
        c, dc = Mat(c_rows), oracle.DenseMat(c_rows)
        x = vec(rand_rows(rng, 1, cols)[0]) if cols else ()
        k = Fraction(rng.randint(-5, 5), rng.choice(DENOMS))
        assert same_matrix(a + b, da + db) and same_matrix(a - b, da - db)
        assert same_matrix(-a, -da) and same_matrix(a.scale(k), da.scale(k))
        if rows:
            assert same_matrix(a @ c, da @ dc)
        assert same_matrix(a.transpose(), da.transpose())
        assert a.apply(x) == da.apply(x)
        ints = tuple(rng.randint(-3, 3) for _ in range(cols))   # int coordinates stay exact
        assert a.apply(ints) == da.apply(ints) and all(type(c) is Fraction for c in a.apply(ints))
        assert [a.col(j) for j in range(cols)] == [da.col(j) for j in range(cols)]
        assert (a.is_zero(), a.is_symmetric()) == (da.is_zero(), da.is_symmetric())
        pick_r = [rng.randrange(rows) for _ in range(rng.randint(0, 3))] if rows else []
        pick_c = [rng.randrange(cols) for _ in range(rng.randint(0, 3))] if cols else []
        assert same_matrix(a.submatrix(pick_r, pick_c), da.submatrix(pick_r, pick_c))
        assert same_matrix(Mat.block_diag(a, c), oracle.DenseMat.block_diag(da, dc))
        assert repr(a) == repr(da).replace("DenseMat", "Mat")
        if rows == cols:
            assert a.det() == da.det()
            if da.det() != 0:
                assert same_matrix(a.inverse(), da.inverse())
            else:
                with pytest.raises(ValueError):
                    a.inverse()
        for op in (lambda m: m.det(), lambda m: m.inverse()):
            if rows != cols:
                with pytest.raises(ValueError):
                    op(a)
        if cols:
            mats = [Mat(rand_rows(rng, rows, rows)) for _ in range(cols)]
            v = {j: Fraction(rng.randint(-3, 3), rng.choice(DENOMS)) for j in range(cols)}
            want = oracle.DenseMat.zeros(rows, rows)
            for j, m in enumerate(mats):
                want = want + oracle.DenseMat(m.entries).scale(v[j])
            assert same_matrix(mat_comb(mats, v, rows, rows), want)
    for n in range(4):
        assert same_matrix(Mat.identity(n), oracle.DenseMat.identity(n))
        assert same_matrix(Mat.zeros(n, n + 1), oracle.DenseMat.zeros(n, n + 1))
        columns = rand_rows(rng, n + 1, n)
        assert same_matrix(Mat.from_cols(columns), oracle.DenseMat.from_cols(columns))


def test_ragged_rows_are_rejected():
    for rows in ([[1, 2], [3]], [[1], []], [[], [0]]):
        with pytest.raises(ValueError):
            Mat(rows)
    with pytest.raises(ValueError):
        Mat.from_cols([[1, 2], [3]])
    assert (Mat([]).rows, Mat([]).cols) == (0, 0) and (Mat([[]]).rows, Mat([[]]).cols) == (1, 0)


def test_equal_entries_are_equal_matrices_with_equal_hashes():
    rng = random.Random(43)
    for rows, cols in shapes(rng):
        entries = rand_rows(rng, rows, cols)
        a = Mat(entries)
        k = Fraction(rng.randint(1, 9), rng.choice(DENOMS))
        # the same entries by other routes: their forms pass through other denominators
        for b in (a.scale(k).scale(1 / k), a.transpose().transpose(), -(-a),
                  (a + a) - a, Mat.from_cols(zip(*entries)) if rows and cols else a,
                  a.submatrix(range(rows), range(cols))):
            assert b == a and hash(b) == hash(a) and b.entries == a.entries
        if rows and cols:
            i, j = rng.randrange(rows), rng.randrange(cols)
            changed = [list(row) for row in entries]
            changed[i][j] += Fraction(1, rng.choice(DENOMS))
            b = Mat(changed)
            assert b != a and b.entries != a.entries
    assert Mat.zeros(2, 3) != Mat.zeros(3, 2) and Mat.zeros(0, 0) == Mat([])


# ---------------------------------------------------------------------------
# tables and tensors: their integer forms against the Fraction bodies they replaced
# ---------------------------------------------------------------------------

MALFORMED = {
    "short tensor key": lambda: Tensor3((3, 3, 3), {(0, 1): 1}),
    "long tensor key": lambda: Tensor2(2, 2, {(0, 1, 1): 1}),
    "non-tuple tensor key": lambda: Tensor2(2, 2, {0: 1}),
    "float tensor index": lambda: Tensor2(2, 2, {(0.5, 1): 1}),
    "bool tensor index": lambda: Tensor3((2, 2, 2), {(0, True, 1): 1}),
    "float output index": lambda: Table(2, {(0, 1): {1.7: 1}}),
    "bool output index": lambda: Table(2, {(0, 1): {True: 1}}),
    "float table index": lambda: Table(2, {(0.5, 1): {1: 1}}),
    "bool table index": lambda: Table(2, {(False, 1): {1: 1}}, skew=True),
    "long table key": lambda: Table(2, {(0, 1, 1): {1: 1}}),
}


@pytest.mark.parametrize("build", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_keys_are_rejected(build):
    # indices are ints, never bools, and a key has the container's order
    with pytest.raises(ValueError):
        build()


def rand_coeff(rng):
    """A rational with a mixed denominator, or an explicit zero one time in five."""
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMS)) if rng.random() < 0.8 else 0


def rand_table_entries(rng, n: int, skew: bool) -> dict:
    """Rational entries {(i, j): {k: c}} with zeros and empty products among them."""
    keys = [(i, j) for i in range(n) for j in range(n) if not skew or i < j]
    density = rng.choice((0.0, 0.5, 1.0))
    return {key: {k: rand_coeff(rng) for k in range(n) if rng.random() < 0.6}
            for key in keys if rng.random() < density}


def rand_tensor_entries(rng, dims: tuple) -> dict:
    density = rng.choice((0.0, 0.4, 1.0))
    return {key: rand_coeff(rng) for key in product(*map(range, dims)) if rng.random() < density}


def table_cases(rng):
    """Tables of dim 0 to 4, skew and full, empty ones included, with their entries."""
    for n in (0, 1):
        for skew in (False, True):
            yield n, skew, {}
    for _ in range(60):
        n, skew = rng.randint(1, 4), rng.random() < 0.5
        yield n, skew, rand_table_entries(rng, n, skew)


def without_zeros(entries: dict) -> dict:
    out = {key: {k: Fraction(c) for k, c in comp.items() if c} for key, comp in entries.items()}
    return {key: comp for key, comp in out.items() if comp}


def test_table_view_is_its_entries_without_zeros():
    rng = random.Random(47)
    for n, skew, entries in table_cases(rng):
        t = Table(n, entries, skew)
        want = without_zeros(entries)
        assert dict(t.items()) == want and len(t) == len(want) and set(t) == set(want)
        assert t == want and want == t and not t != want
        assert all(t[key] == comp == t.get(key) for key, comp in want.items())
        assert oracle.stale_forms(t) == []
        for i, j in product(range(n), repeat=2):     # a skew table negates the key (j, i)
            comp, sign = (want.get((j, i), {}), -1) if skew and i > j else (want.get((i, j), {}), 1)
            assert t.basis_prod(i, j) == tuple(sign * comp.get(k, 0) for k in range(n))
        if want:
            key = next(iter(want))
            changed = {**want, key: {k: 2 * c for k, c in want[key].items()}}
            assert t != changed and changed != t and t != Table(n, changed, skew)


def test_equal_table_entries_are_equal_forms_with_equal_hashes():
    rng = random.Random(53)
    for n, skew, entries in table_cases(rng):
        t = Table(n, entries, skew)
        m = rng.choice((2, 6, 35))
        # the same entries by other routes: a plain dict, the table itself, and its form on
        # a multiple of its denominator
        for u in (Table(n, dict(t.items()), skew), Table(n, t, skew),
                  Table._of(n, {key: {k: m * c for k, c in comp.items()}
                                for key, comp in t.ientries.items()}, skew, m * t.den)):
            assert u == t and hash(u) == hash(t) and u.form == t.form


def tensor_shapes(rng, order: int):
    """Shapes of dim 0 and 1, then random ones, square and not."""
    yield (0,) * order
    yield (1,) * order
    for _ in range(40):
        n = rng.randint(1, 4)
        yield (n,) * order if rng.random() < 0.5 else tuple(rng.randint(1, 4) for _ in range(order))


def test_tensor_view_is_its_entries_without_zeros():
    rng = random.Random(59)
    for order, cls in ((2, lambda dims, e: Tensor2(*dims, e)), (3, Tensor3)):
        for dims in tensor_shapes(rng, order):
            entries = rand_tensor_entries(rng, dims)
            t = cls(dims, entries)
            want = {key: Fraction(c) for key, c in entries.items() if c}
            assert t.entries == want and list(t.items()) == sorted(want.items())
            assert t.is_zero() == (not want) and oracle.stale_forms(t) == []


def test_tensor_operations_match_the_fraction_bodies():
    rng = random.Random(61)
    for dims in tensor_shapes(rng, 2):
        a, b = (Tensor2(*dims, rand_tensor_entries(rng, dims)) for _ in range(2))
        k = Fraction(rng.randint(-5, 5), rng.choice(DENOMS))
        assert (a + b).entries == oracle.tensor_sum(a.entries, b.entries)
        assert (a - b).entries == oracle.tensor_sum(a.entries, b.entries, -1)
        assert (-a).entries == oracle.tensor_scale(a.entries, -1)
        assert a.scale(k).entries == oracle.tensor_scale(a.entries, k)
        if dims[0] == dims[1]:
            assert flip(a).entries == oracle.tensor_flip(a.entries)
            skew = a - flip(a)
            for t in (a, skew, a + flip(a)):
                assert t.is_skew() == oracle.tensor_is_skew(t.entries, dims)
            assert skew.is_skew()
        else:
            assert not a.is_skew()
        f, g = (Mat(rand_rows(rng, rng.randint(1, 3), n)) for n in dims)
        assert tensor2_map(f, g, a) == oracle.tensor2_map(f, g, a)
        assert all(oracle.stale_forms(t) == [] for t in (a + b, a - b, -a, a.scale(k)))
    for dims in tensor_shapes(rng, 3):
        a, b = (Tensor3(dims, rand_tensor_entries(rng, dims)) for _ in range(2))
        assert (a + b).entries == oracle.tensor_sum(a.entries, b.entries)
        f, g, h = (Mat(rand_rows(rng, rng.randint(1, 3), n)) for n in dims)
        assert tensor3_map(f, g, h, a) == oracle.tensor3_map(f, g, h, a)


def test_equal_tensor_entries_are_equal_forms_with_equal_hashes():
    rng = random.Random(67)
    for dims in tensor_shapes(rng, 2):
        a = Tensor2(*dims, rand_tensor_entries(rng, dims))
        k = Fraction(rng.randint(1, 9), rng.choice(DENOMS))
        m = rng.choice((2, 6, 35))
        routes = [a.scale(k).scale(1 / k), -(-a), (a + a) - a, Tensor2(*dims, a.entries),
                  Tensor2._of(dims, {key: m * c for key, c in a.ientries.items()}, m * a.den)]
        if dims[0] == dims[1]:
            routes.append(flip(flip(a)))
        for b in routes:
            assert b == a and hash(b) == hash(a) and b.form == a.form
        if a.entries:
            key = next(iter(a.entries))
            assert Tensor2(*dims, {**a.entries, key: 2 * a.entries[key]}) != a
    assert Tensor2(2, 3) != Tensor2(3, 2) and Tensor3((1, 1, 1)) != Tensor2(1, 1)
