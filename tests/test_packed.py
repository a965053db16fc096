"""Packed integer vectors, and the packed kernels against the dict kernels they replaced.

`lie.jacobiator`, `lie.pair_blocks` and `reynolds.operator_brackets` combine integer
vectors packed into one ``int`` each (`exact.pack`), in signed slots whose width is
derived per call from a bound on every coefficient the kernel tests or decodes.  Their
certificates and tables must equal, in full, those of the dict and dense kernels of
`dense_oracle`: on tables whose entries all sit at ±max, where a residual reaches the
derived bound closely enough that one slot bit fewer could not hold it, on dense conjugates scaled by 1/7, −5/11 and 13/6,
with P ≠ Q and nonzero λ and κ, and on failing inputs with many violations.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import dense_oracle as dense
from algcert import bialgebra, matched, reynolds
from algcert.certificates import Certificate
from algcert.cybe import PreLieAlgebra, is_prelie
from algcert.exact import (Mat, Table, Tensor2, integral, pack, sapply, saxpy, table_rows, unpack,
                           width)
from algcert.lie import (LieAlgebra, Representation, adjoint_rep, coadjoint_rep, is_representation,
                         jacobi_check, jacobi_width, packed_outer)
from algcert.nslie import NSLieAlgebra, NSRep, is_ns_rep, is_nslie, regular_rep
from algcert.reynolds import compat_certificate, is_reynolds
from algcert.rotabaxter import is_rota_baxter

ZERO, ONE = Fraction(0), Fraction(1)
SCALES = (Fraction(1, 7), Fraction(-5, 11), Fraction(13, 6))


def same(a, b) -> bool:
    if isinstance(a, Certificate):
        return a.to_json() == b.to_json()
    return [x.to_json() for x in a] == [x.to_json() for x in b]


def nonzero(inner: dict) -> dict:
    """The dict kernel's inner sums without their cancelled zeros (a packed one has none)."""
    return {key: {k: c for k, c in v.items() if c} for key, v in inner.items()}


def nonzero_sums(products: tuple[dict, int]) -> tuple[dict, int]:
    """`dict_inner_products`' sums without their cancelled zeros, and their scale."""
    inner, s = products
    return nonzero(inner), s


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------

def test_pack_unpack_round_trip_at_zero_and_the_slot_limits():
    rng = random.Random(13)
    for w in (1, 2, 3, 7, 8, 31, 64, 65, 200):
        top = (1 << w - 1) - 1
        for dim in range(65):
            for v in ({k: 0 for k in range(dim)},
                      {k: top for k in range(dim)}, {k: -top for k in range(dim)},
                      {k: rng.choice((0, top, -top)) for k in range(dim)}):
                assert unpack(pack(v, w), w) == {k: c for k, c in v.items() if c}
    assert pack({}, 5) == 0 and unpack(0, 5) == {}


def test_packed_outer_keeps_one_block():
    rng = random.Random(3)
    n = 7
    table, _, _ = integral(Table(n, {(a, b): {k: rng.choice((0, 5, -5)) for k in range(n)}
                                     for a, b in combinations(range(n), 2)}, skew=True))
    rows = table_rows(table, n, True)
    for lo, hi in ((0, n), (0, 3), (3, n), (2, 5)):
        outer = packed_outer(table, n, 4, lo, hi)
        for c, m in product(range(n), repeat=2):
            block = {k - lo: x for k, x in rows[m].get(c, {}).items() if lo <= k < hi}
            assert unpack(outer[c][m], 4) == block


def test_width_is_the_least_that_holds_the_bound():
    for bound in list(range(70)) + [2 ** 64 - 1, 2 ** 64, 3 ** 90]:
        w = width(bound)
        assert (1 << w - 1) - 1 >= bound
        assert w == 1 or (1 << w - 2) - 1 < bound


# ---------------------------------------------------------------------------
# residuals at the derived bound
# ---------------------------------------------------------------------------

def aligned_table(n: int, M: int, seed: int) -> LieAlgebra:
    """Every entry ±M, signed so that every term of J(e_0, e_1, e_2) at e_0 with outer
    index outside {0, 1, 2} is +M²: that coefficient is 3(n − 3)M², against the bound
    3nM² the width is derived from."""
    rng = random.Random(seed)
    sc = {(a, b): {k: rng.choice((M, -M)) for k in range(n)} for a, b in combinations(range(n), 2)}
    for a, b, sign in ((0, 1, 1), (1, 2, 1), (0, 2, -1)):       # [e_0,e_1], [e_1,e_2], [e_2,e_0]
        sc[a, b] = {k: sign * M for k in range(n)}
    for c in range(3):
        for m in range(3, n):
            sc[c, m][0] = -M                                       # [e_m, e_c] at e_0 is +M
    return LieAlgebra.unchecked(n, None, sc)


def test_a_jacobi_residual_at_the_bound():
    for M, seed in ((1, 1), (2 ** 20, 2), (2 ** 61, 3)):
        L = aligned_table(10, M, seed)
        cert = jacobi_check(L)
        assert same(cert, dense.dict_jacobi_check(L))
        assert cert.where == (0, 1, 2)
        # one slot bit fewer could not hold this coefficient
        w = jacobi_width(10, integral(L.sc)[-1])
        assert dict(cert.residual)[(0,)] == 21 * M * M >= 1 << w - 2


def commuting_at_the_bound(m: int, M, seed: int) -> tuple[Mat, Mat]:
    """m×m matrices A, B with every entry ±M and [A, B] = 2mM² at (0, 1): row 0 of A and
    column 1 of B are +M, and every B[0][k]·A[k][1] is −M²."""
    rng = random.Random(seed)
    A = [[rng.choice((M, -M)) for _ in range(m)] for _ in range(m)]
    B = [[rng.choice((M, -M)) for _ in range(m)] for _ in range(m)]
    for k in range(m):
        A[0][k], B[k][1] = M, M
        if k:
            A[k][1] = -M
        if k != 1:
            B[0][k] = -M if k == 0 else M
    return Mat(A), Mat(B)


def test_a_representation_residual_at_the_bound():
    """ρ(e_0), ρ(e_1) from `commuting_at_the_bound` and [e_0, e_1] = −M(e_0 + e_1): the
    residual at (0, 1), entry (0, 1), is −(2 + 2m)M², above half the bound 3(2 + m)M² the
    `jacobi_width` of `is_representation` holds."""
    m = 16
    for M, seed in ((1, 1), (3, 2), (2 ** 20, 3), (Fraction(3, 7), 4)):
        A, B = commuting_at_the_bound(m, M, seed)
        L = LieAlgebra.unchecked(2, None, {(0, 1): {0: -M, 1: -M}})
        rep = Representation.unchecked(L, m, [A, B])
        cert = is_representation(rep)
        assert same(cert, dense.dict_is_representation(rep))
        assert same(cert, dense.is_representation(rep))
        *_, top = integral(L.sc, A, B)
        w = jacobi_width(2 + m, top)
        assert dict(cert.residual)[(0, 1)] == -(2 + 2 * m) * M * M
        # one slot bit fewer could not hold this coefficient
        assert (2 + 2 * m) * top ** 2 >= 1 << w - 2


def ns_at_the_bound(M) -> NSLieAlgebra:
    """◁ and ▷ on dimension 3 with every entry ±M such that NS identity 1 at (0, 1, 0) is
    11M² at e_0: 9M² from [e_0, e_1]◁e_0, whose coefficients are ±3M, and M² from each
    of the two other terms' aligned products."""
    left = {(a, b): {k: M for k in range(3)} for a, b in product(range(3), repeat=2)}
    left[1, 0] = {0: -M, 1: M, 2: -M}
    left[0, 1] = {0: M, 1: -M, 2: M}
    wedge = {(a, b): {k: M for k in range(3)} for a, b in combinations(range(3), 2)}
    wedge[0, 1] = {0: M, 1: -M, 2: M}
    return NSLieAlgebra.unchecked(3, None, left, wedge)


def test_an_ns_identity_1_residual_at_the_bound():
    """Identity 1's slots hold 5n·top² (`is_nslie`, `is_prelie`); on `ns_at_the_bound` the
    first violation, at (0, 1, 0), has the coefficient 11M² ≥ 2^(w−2) at e_0."""
    for M in (1, 2 ** 20, 2 ** 61):
        A = ns_at_the_bound(M)
        cert = is_nslie(A)
        assert same(cert, dense.is_nslie(A))
        pre = PreLieAlgebra.unchecked(3, None, A.left)
        assert same(is_prelie(pre), dense.is_prelie(pre))
        first = cert.parts[0]
        assert first.where == (0, 1, 0) and dict(first.residual)[(0,)] == 11 * M * M
        # ns-rep-1 of the regular representation is identity 1, entry (a, b) at (i, j)
        # its e_a-component at (i, j, b), on slots for (3n + 2m)·top² = 15M²
        rep = regular_rep(A)
        cert = is_ns_rep(rep)
        assert same(cert, dense.is_ns_rep(rep))
        assert dict(cert.parts[0].residual)[(0, 0)] == 11 * M * M
        # one slot bit fewer could not hold this coefficient
        assert 11 * M * M >= 1 << width(5 * 3 * M * M) - 2


def ns_identity_2_at_the_bound(M) -> NSLieAlgebra:
    """◁ and ▷ on dimension 3 with every entry +M but six −M, such that NS identity 2 at
    (0, 1, 2) is 17M² at e_0, against the bound (12n − 9)M² = 27M² of its slots."""
    left = {(a, b): {k: M for k in range(3)} for a, b in product(range(3), repeat=2)}
    wedge = {(a, b): {k: M for k in range(3)} for a, b in combinations(range(3), 2)}
    for table, key, k in ((wedge, (0, 2), 2), (left, (0, 1), 1), (left, (0, 2), 2),
                          (left, (1, 1), 0), (left, (2, 1), 1), (left, (2, 1), 2)):
        table[key][k] = -M
    return NSLieAlgebra.unchecked(3, None, left, wedge)


def test_an_ns_identity_2_residual_at_the_bound():
    for M in (1, 3, 2 ** 20, Fraction(3, 7)):
        A = ns_identity_2_at_the_bound(M)
        cert = is_nslie(A)
        assert same(cert, dense.is_nslie(A))
        second = cert.parts[1]
        assert second.where == (0, 1, 2) and dict(second.residual)[(0,)] == 17 * M * M
        # one slot bit fewer could not hold this coefficient
        *_, top = integral(A.left, A.wedge)
        assert 17 * top ** 2 >= 1 << width(27 * top ** 2) - 2


def ns_rep(n: int, m: int, left: dict, wedge: dict, varrho, mu, nu) -> NSRep:
    A = NSLieAlgebra.unchecked(n, None, left, wedge)
    return NSRep.unchecked(A, m, *([Mat(x) for x in family] for family in (varrho, mu, nu)))


def test_an_ns_rep_2_residual_at_the_bound():
    """On dimension 1 with m = 3, every entry +M but e_0◁e_0 = −Me_0, column 1 of nu(e_0)
    and entry (1, 1) of mu(e_0) and of varrho(e_0): the residual nu(e_0◁e_0) +
    nu(e_0)·s(e_0) − mu(e_0)·nu(e_0) at (0, 0), entry (0, 1), is (1 + 3 + 1 + 3 + 3)M² =
    11M², against the bound (n + 4m)M² = 13M² of its slots."""
    for M in (1, 3, 2 ** 20, Fraction(3, 7)):
        corner = [[M, M, M], [M, -M, M], [M, M, M]]
        rep = ns_rep(1, 3, {(0, 0): {0: -M}}, {}, [corner], [corner], [[[M, -M, M]] * 3])
        cert = is_ns_rep(rep)
        assert same(cert, dense.is_ns_rep(rep))
        second = cert.parts[1]
        assert second.where == (0, 0) and dict(second.residual)[(0, 1)] == 11 * M * M
        # one slot bit fewer could not hold this coefficient
        *_, top = integral(*rep.mu)
        assert 11 * top ** 2 >= 1 << width(13 * top ** 2) - 2


def test_an_ns_rep_3_residual_at_the_bound():
    """On dimension 2 with m = 2: [e_0, e_1] = 3M(e_0 + e_1) from e_0◁e_1 = −e_1◁e_0 =
    e_0▷e_1 = M(e_0 + e_1), and ±M matrices signed so that every product in identity 2 at
    (e_0, e_1, w_1) is +M² at w_0: the residual at (0, 1), entry (0, 1), is the bound
    4(n + 2m)M² = 24M² of its slots itself."""
    for M in (1, 3, 2 ** 20, Fraction(3, 7)):
        left = {(0, 0): {0: M, 1: M}, (0, 1): {0: M, 1: M}, (1, 0): {0: -M, 1: -M},
                (1, 1): {0: M, 1: M}}
        varrho = [[[-M, -M], [M, M]], [[M, -M], [M, -M]]]
        nu = [[[M, M], [M, -M]], [[M, M], [M, M]]]
        rep = ns_rep(2, 2, left, {(0, 1): {0: M, 1: M}}, varrho, varrho, nu)
        cert = is_ns_rep(rep)
        assert same(cert, dense.is_ns_rep(rep))
        third = cert.parts[2]
        assert third.where == (0, 1) and dict(third.residual)[(0, 1)] == 24 * M * M
        # one slot bit fewer could not hold this coefficient
        *_, top = integral(*rep.mu)
        assert 24 * top ** 2 >= 1 << width(24 * top ** 2) - 2


def test_a_reynolds_residual_at_the_bound():
    """On a non-skew table with every entry +M and P = Q = M on every entry, the residual
    for κ = −1 is N²M³(NM − 1) and the inner sum for κ = 1 is N²M³ + 2NM², both at the
    bounds the two widths are derived from, to lower order."""
    for n, M in ((3, 1), (4, 2 ** 30), (5, 7)):
        table = Table(n, {(a, b): {k: M for k in range(n)} for a, b in product(range(n), repeat=2)})
        P = Mat([[M] * n for _ in range(n)])
        pairs = list(product(range(n), repeat=2))
        got = reynolds.operator_identity("reynolds", table, P, P, iter(pairs), ZERO, -ONE)
        assert same(got, dense.dict_operator_identity("reynolds", table, P, P, iter(pairs),
                                                      ZERO, -ONE))
        assert got.violations == n * n
        assert dict(got.residual)[(0,)] == n ** 2 * M ** 3 * (n * M - 1)
        inner, s = reynolds.inner_products(table, P, P, iter(pairs), ZERO, ONE)
        assert (inner, s) == nonzero_sums(dense.dict_inner_products(table, P, P, iter(pairs),
                                                                    ZERO, ONE))
        assert Fraction(inner[0, 0][0], s) == n * n * M ** 3 + 2 * n * M * M


# ---------------------------------------------------------------------------
# ±max tables and actions
# ---------------------------------------------------------------------------

def max_table(n: int, M: int, rng) -> LieAlgebra:
    return LieAlgebra.unchecked(n, None, {(a, b): {k: rng.choice((M, -M)) for k in range(n)}
                                          for a, b in combinations(range(n), 2)})


def max_mat(n: int, M, rng) -> Mat:
    return Mat([[rng.choice((M, -M)) for _ in range(n)] for _ in range(n)])


def test_max_entry_tables_match_dict_kernels():
    rng = random.Random(5)
    for n, M in ((3, 1), (4, 2 ** 40 + 1), (6, Fraction(3, 7)), (7, 9)):
        g, h = max_table(n, M, rng), max_table(n, M, rng)
        R, T = max_mat(n, M, rng), max_mat(n, M, rng)
        rho = Representation.unchecked(g, n, [max_mat(n, M, rng) for _ in range(n)])
        mu = Representation.unchecked(h, n, [max_mat(n, M, rng) for _ in range(n)])
        assert same(jacobi_check(g), dense.dict_jacobi_check(g))
        assert same(is_representation(rho), dense.dict_is_representation(rho))
        assert same(matched._compat_stages(g, h, rho, mu), dense.dict_compat_stages(g, h, rho, mu))
        deltas = bialgebra.cobracket_from_dual(h)
        assert same(bialgebra.cocycle_check(g, deltas), dense.dict_cocycle_check(g, deltas))
        assert same(bialgebra.is_lie_coalgebra(deltas), dense.dict_is_lie_coalgebra(deltas))
        pairs = list(combinations(range(n), 2))
        for P, Q, lam, kappa in ((R, R, ZERO, -ONE), (R, T, Fraction(2, 3), Fraction(-5, 7)),
                                 (T, R, M, ONE)):
            args = (P, Q, iter(pairs), Fraction(lam), Fraction(kappa))
            assert same(reynolds.operator_identity("op", g.sc, *args),
                        dense.dict_operator_identity("op", g.sc, *args[:2], iter(pairs), *args[3:]))
            assert (reynolds.inner_products(g.sc, P, Q, iter(pairs), Fraction(lam), Fraction(kappa))
                    == nonzero_sums(dense.dict_inner_products(g.sc, P, Q, iter(pairs),
                                                              Fraction(lam), Fraction(kappa))))
            action = list(product(range(n), range(n)))
            assert same(reynolds.operator_identity("op", rho.rho, P, Q, iter(action), lam, kappa),
                        dense.dict_operator_identity("op", rho.rho, P, Q, iter(action), lam, kappa))


# ---------------------------------------------------------------------------
# dense rational conjugates, scaled
# ---------------------------------------------------------------------------

def matrix_units(n: int, upper: bool = False) -> LieAlgebra:
    units = [(a, b) for a in range(n) for b in range(n) if a <= b or not upper]
    index = {u: k for k, u in enumerate(units)}
    sc = {}
    for (i, (a, b)), (j, (c, d)) in combinations(enumerate(units), 2):
        comp = {}
        if b == c:
            comp[index[a, d]] = comp.get(index[a, d], 0) + 1
        if d == a:
            comp[index[c, b]] = comp.get(index[c, b], 0) - 1
        sc[i, j] = comp
    return LieAlgebra.unchecked(len(units), None, sc)


def dense_change(n: int, rng) -> Mat:
    """Unit lower- times unit upper-triangular with entries of coprime denominators."""
    entries = [Fraction(c) for c in (1, -2)] + [Fraction(1, 7), Fraction(-5, 11), Fraction(13, 6)]
    lower = [[Fraction(int(a == b)) if a <= b else rng.choice(entries) for b in range(n)]
             for a in range(n)]
    upper = [[Fraction(int(a == b)) if a >= b else rng.choice(entries) for b in range(n)]
             for a in range(n)]
    return Mat(lower) @ Mat(upper)


def conjugate(L: LieAlgebra, P: Mat, c: Fraction) -> LieAlgebra:
    """c·[,] in the basis f_i = P e_i: [f_i, f_j] = c·P⁻¹[Pe_i, Pe_j]."""
    inv = P.inverse()
    return LieAlgebra.unchecked(L.dim, None, {
        (i, j): {k: c * x for k, x in enumerate(inv.apply(L.bracket(P.col(i), P.col(j)))) if x}
        for i, j in combinations(range(L.dim), 2)})


def test_dense_conjugates_match_dict_kernels():
    rng = random.Random(11)
    for base, c in zip((matrix_units(2), matrix_units(3, upper=True), matrix_units(3)), SCALES):
        n = base.dim
        P = dense_change(n, rng)
        L = conjugate(base, P, c)
        R = Mat([[rng.choice((0, 1, Fraction(-5, 11), Fraction(13, 6))) for _ in range(n)]
                 for _ in range(n)])
        two = Mat.identity(n).scale(2)
        adj = adjoint_rep(L)
        scaled = Representation.unchecked(L, n, [m.scale(c) for m in adj.rho])
        assert jacobi_check(L).ok and is_representation(adj).ok
        assert same(is_representation(scaled), dense.dict_is_representation(scaled))
        pairs = list(combinations(range(n), 2))
        for Q in (R, two, P):
            assert same(is_reynolds(L, Q),
                        dense.dict_operator_identity("reynolds", L.sc, Q, Q, iter(pairs),
                                                     ZERO, -ONE))
            lam = Fraction(3, 5)
            assert same(is_rota_baxter(L, Q, lam),
                        dense.dict_operator_identity("rota-baxter", L.sc, Q, Q, iter(pairs),
                                                     lam, ZERO))
            assert (reynolds.inner_products(L.sc, Q, Q, iter(pairs), ZERO, -ONE)
                    == nonzero_sums(dense.dict_inner_products(L.sc, Q, Q, iter(pairs), ZERO, -ONE)))
            action = list(product(range(n), repeat=2))
            for rep in (adj, scaled):
                for A, B in ((Q, R), (R, Q)):
                    assert same(compat_certificate(A, rep, B),
                                dense.dict_operator_identity("compatibility", rep.rho, A, B,
                                                             iter(action), ZERO, -ONE))
                    assert (reynolds.inner_products(rep.rho, A, B, iter(action), ZERO, -ONE)
                            == nonzero_sums(dense.dict_inner_products(rep.rho, A, B,
                                                                      iter(action), ZERO, -ONE)))
        if n <= 6:
            co = coadjoint_rep(L)
            for rho, mu in ((adj, scaled), (co, adj)):
                assert same(matched._compat_stages(L, L, rho, mu),
                            dense.dict_compat_stages(L, L, rho, mu))
            r = Tensor2(n, n, {(i, j): x for i, row in enumerate(R.entries)
                               for j, x in enumerate(row) if x})
            for deltas in (bialgebra.cobracket_from_dual(L), bialgebra.coboundary_cobracket(L, r)):
                deltas = [d.scale(c) for d in deltas]
                assert same(bialgebra.cocycle_check(L, deltas), dense.dict_cocycle_check(L, deltas))
                assert same(bialgebra.is_lie_coalgebra(deltas),
                            dense.dict_is_lie_coalgebra(deltas))


# ---------------------------------------------------------------------------
# failing inputs
# ---------------------------------------------------------------------------

def test_failing_inputs_count_every_violation():
    rng = random.Random(17)
    L = conjugate(matrix_units(3), dense_change(9, rng), Fraction(-5, 11))
    two = Mat.identity(9).scale(2)
    # [2x,2y] − 2([2x,y] + [x,2y] − [2x,2y]) = 4[x,y]: one violation per nonzero bracket
    cert = is_reynolds(L, two)
    assert cert.violations == len(L.sc) and cert.where == min(L.sc)
    assert dict(cert.residual) == {(k,): 4 * x for k, x in L.sc[min(L.sc)].items()}
    broken = LieAlgebra.unchecked(9, None, {**L.sc, (0, 1): {k: ONE for k in range(9)}})
    assert same(jacobi_check(broken), dense.dict_jacobi_check(broken))
    assert jacobi_check(broken).violations > 1
    rho = Representation.unchecked(L, 9, [m.scale(Fraction(13, 6)) for m in adjoint_rep(L).rho])
    cert = is_representation(rho)
    assert same(cert, dense.dict_is_representation(rho)) and cert.violations > 1
    _, den, _ = integral(L.sc)
    assert den > 1


def test_every_decoded_value_fits_its_slot_width():
    """Each slot width is derived from the column and row ℓ1 norms of p·P and d·Q; every
    inner sum and residual the kernel packs, passing or not, must fit it, and decode to
    the dict kernel's exact value."""
    rng = random.Random(23)
    for base in (matrix_units(3, upper=True), matrix_units(3)):
        n = base.dim
        for c in SCALES:
            L = conjugate(base, dense_change(n, rng), c)
            R = Mat([[rng.choice((0, 1, Fraction(-5, 11), Fraction(13, 6))) for _ in range(n)]
                     for _ in range(n)])
            T = dense_change(n, rng)
            pairs, action = list(combinations(range(n), 2)), list(product(range(n), repeat=2))
            for table, keys in ((L.sc, pairs), (adjoint_rep(L).rho, action)):
                for P, Q, lam, kappa in ((R, R, ZERO, -ONE), (R, T, Fraction(3, 5), c),
                                         (T, R, c, ONE)):
                    s, d, residuals, inners = reynolds.operator_brackets(table, P, Q, lam, kappa)
                    cols, _, _, brackets = dense.dict_operator_brackets(table, P, Q, iter(keys),
                                                                        lam, kappa)
                    want = {(i, j): (saxpy(pq, -1, sapply(cols, inner)), inner)
                            for i, j, pq, inner in brackets}
                    for at, kernel in enumerate((residuals, inners)):
                        w, values = kernel(iter(keys))
                        for key, v in values:
                            exact = nonzero({key: want[key][at]})[key]
                            assert max(map(abs, exact.values()), default=0) <= (1 << w - 1) - 1
                            assert unpack(v, w) == exact
