"""`Mat.det`, `Mat.inverse` and `BilinForm.is_nondegenerate` against the dense oracle.

The fraction-free elimination must give the dense Gauss-Jordan's determinant and the
canonical form of its inverse on every input.  The inputs are seeded and chosen to
reach each of its paths:
- signed cyclic permutations, where every pivot needs a row swap;
- singular matrices whose only missing pivot is the last one;
- 0×0 and 1×1 matrices;
- negative pivots and diagonals;
- mixed and large denominators such as 2⁶¹ − 1;
- dense and sparse random matrices.
"""

import random
from fractions import Fraction

import pytest

import dense_oracle as oracle
from algcert.cybe import (RelativeRB, left_rep, prelie_from_invertible_relrb, prelie_from_relrb,
                          r_plus)
from algcert.exact import Mat
from algcert.lie import BilinForm, s_sharp
from algcert.reynolds import reynolds_coadjoint_rep
from algcert.rotabaxter import r_from_qrb

BIG = 2 ** 61 - 1
DENOMS = (1, 1, 2, 3, 7, 12, 35, BIG, 10 ** 20 + 39)


def entry(rng, dens=DENOMS, span=9):
    return Fraction(rng.randint(-span, span), rng.choice(dens))


def random_rows(rng, n, density):
    return [[entry(rng) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]


def signed_cycle(rng, n):
    """A signed cyclic shift times a diagonal of random sign and size: column j has its one
    entry in row j + 1 (or j − 1), so each elimination step has to swap rows."""
    step = rng.choice((1, -1))
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[(j + step) % n][j] = rng.choice((1, -1)) * (entry(rng) or 1)
    return rows


def last_pivot_missing(rng, n):
    """[[B, Bx], [yᵀB, yᵀBx]] for a B whose leading minors are nonzero: rank n − 1, and
    both the last row and the last column depend on the others, so each elimination
    finds its first n − 1 pivots and none in the last column."""
    while True:
        b = random_rows(rng, n - 1, 1.0)
        db = oracle.DenseMat(b)
        if all(db.submatrix(range(k), range(k)).det() for k in range(1, n)):
            break
    x = [entry(rng) for _ in range(n - 1)]
    y = [entry(rng) for _ in range(n - 1)]
    bx = [sum(r * c for r, c in zip(row, x)) for row in b]
    ytb = [sum(y[i] * b[i][j] for i in range(n - 1)) for j in range(n - 1)]
    return [row + [v] for row, v in zip(b, bx)] + [ytb + [sum(a * c for a, c in zip(y, bx))]]


def negative_pivots(rng, n):
    """Lower triangular with a negative diagonal, times a random upper unit triangle."""
    low = [[-(abs(entry(rng)) or 1) if i == j else entry(rng) if j < i else 0
            for j in range(n)] for i in range(n)]
    up = [[1 if i == j else entry(rng) if j > i else 0 for j in range(n)] for i in range(n)]
    return (oracle.DenseMat(low) @ oracle.DenseMat(up)).entries


def inputs(seed=2024):
    rng = random.Random(seed)
    yield []
    for c in (0, 1, -1, Fraction(-3, 7), Fraction(5, BIG), Fraction(-BIG, 2)):
        yield [[c]]
    for _ in range(300):
        n = rng.randint(1, 7)
        yield random_rows(rng, n, rng.choice((0.3, 0.6, 1.0)))
    for _ in range(150):
        yield signed_cycle(rng, rng.randint(2, 9))
    for _ in range(150):
        yield last_pivot_missing(rng, rng.randint(2, 6))
    for _ in range(150):
        yield negative_pivots(rng, rng.randint(1, 6))
    for _ in range(250):
        n = rng.randint(2, 6)
        dens = rng.choice(((BIG,), (1, BIG), (BIG, 10 ** 20 + 39, 3)))
        yield [[entry(rng, dens, 10 ** 6) if rng.random() < 0.7 else 0 for _ in range(n)]
               for _ in range(n)]


def oracle_form(d: oracle.DenseMat) -> tuple:
    cols, den = oracle.integral(d)
    return tuple(cols), den


def test_det_inverse_and_nondegeneracy_match_the_dense_oracle():
    seen = {"inputs": 0, "singular": 0, "invertible": 0}
    for rows in inputs():
        m, d = Mat(rows), oracle.DenseMat(rows)
        n = m.rows
        det = m.det()
        assert det == d.det() and type(det) is Fraction, rows
        s, ds = m + m.transpose(), d + d.transpose()
        assert BilinForm(s).is_nondegenerate() == (ds.det() != 0)
        if det:
            inv, dinv = m.inverse(), d.inverse()
            assert (inv.rows, inv.cols) == (n, n)
            assert (inv.icols, inv.den) == oracle_form(dinv)
            assert inv == Mat(dinv.entries) and inv.entries == dinv.entries
            seen["invertible"] += 1
        else:
            for a in (m, d):
                with pytest.raises(ValueError, match="singular matrix has no inverse"):
                    a.inverse()
            seen["singular"] += 1
        seen["inputs"] += 1
    assert seen["inputs"] >= 1000 and min(seen.values()) >= 150, seen


def test_the_constructed_inputs_take_the_path_they_are_built_for():
    rng = random.Random(7)
    for n in range(2, 8):
        rows = signed_cycle(rng, n)
        assert all(rows[k][k] == 0 for k in range(n)) and Mat(rows).det() != 0
        rows = last_pivot_missing(rng, n)
        d = oracle.DenseMat(rows)
        assert d.det() == 0 and d.submatrix(range(n - 1), range(n - 1)).det() != 0
        assert Mat(rows).det() == 0 and Mat(rows).transpose().det() == 0
        rows = negative_pivots(rng, n)
        minors = [oracle.DenseMat(rows).submatrix(range(k), range(k)).det()
                  for k in range(1, n + 1)]
        assert all(a * b < 0 for a, b in zip([1] + minors, minors))


def test_non_square_input_raises():
    rng = random.Random(11)
    for rows, cols in ((1, 2), (2, 1), (3, 5), (4, 2), (0, 3)):
        m = Mat.zeros(rows, cols) if rows == 0 else Mat(
            [[entry(rng) for _ in range(cols)] for _ in range(rows)])
        with pytest.raises(ValueError, match="determinant of a non-square matrix"):
            m.det()
        with pytest.raises(ValueError, match="inverse of a non-square matrix"):
            m.inverse()


def test_one_elimination_callers_keep_their_messages(sl2_reynolds, sl2_qrb):
    with pytest.raises(ValueError, match="^degenerate form has no musical isomorphism$"):
        s_sharp(BilinForm(Mat([[1, 2], [2, 4]])))
    half = Fraction(1, 2)
    assert BilinForm(Mat([[0, 2], [2, 0]])).gram.inverse() == Mat([[0, half], [half, 0]])
    K = r_plus(r_from_qrb(sl2_qrb))
    lr = left_rep(prelie_from_relrb(RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), K)))
    with pytest.raises(ValueError, match="^invertible variant requires a square invertible K$"):
        prelie_from_invertible_relrb(RelativeRB(lr, Mat.zeros(3, 3)))
