"""Packed integer vectors, and the packed kernels against the dict kernels they replaced.

`lie.jacobiator`, `lie.pair_blocks` and `reynolds.operator_brackets` combine integer
vectors packed into one ``int`` each (`exact.pack`), in signed slots whose width the
kernel that packs returns, by the one rule of `exact.slot_width`.  Their certificates and
tables must equal, in full, those of the dict and dense kernels of `dense_oracle`, and
every value of every packed stage, decoded at its kernel's width, the oracle's value: on
inputs that put a coefficient of every stage above half of what its slots hold (so one
slot bit fewer could not hold it), on tables whose entries all sit at ±max, on dense
conjugates scaled by 1/7, −5/11 and 13/6, with P ≠ Q and nonzero λ and κ, and on failing
inputs with many violations.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from unittest.mock import patch

import pytest

import dense_oracle as dense
from algcert import bialgebra, matched, reynolds
from algcert.certificates import Certificate, _entries, scan
from algcert.cybe import PreLieAlgebra, is_prelie
from algcert.exact import (Mat, Table, Tensor2, integral, pack, sapply, saxpy, table_rows, unpack,
                           width)
from algcert.lie import (LieAlgebra, Representation, adjoint_rep, block_entries, coadjoint_cols,
                         coadjoint_rep, double_table, is_representation, jacobi_check, jacobiator,
                         packed_outer, pair_blocks)
from algcert.nslie import (NSLieAlgebra, NSRep, _commutator, _identity_2, _semidirect_tables,
                           is_ns_rep, is_nslie, ns_from_reynolds, regular_rep)
from algcert.reynolds import ReynoldsLieAlgebra, compat_certificate, is_reynolds
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
    table, _ = integral(Table(n, {(a, b): {k: rng.choice((0, 5, -5)) for k in range(n)}
                                     for a, b in combinations(range(n), 2)}, skew=True))
    rows = table_rows(table, n, True)
    for lo, hi in ((0, n), (0, 3), (3, n), (2, 5)):
        outer, w = packed_outer(table, n, lo, hi)
        # three sums of a product's coefficients times entries of the block
        l1 = max(sum(map(abs, comp.values())) for comp in table.values())
        top = max(abs(x) for comp in table.values() for k, x in comp.items() if lo <= k < hi)
        assert w == width(3 * l1 * top)
        for c, m in product(range(n), repeat=2):
            block = {k - lo: x for k, x in rows[m].get(c, {}).items() if lo <= k < hi}
            assert unpack(outer[c][m], w) == block


def test_width_is_the_least_that_holds_the_bound():
    for bound in list(range(70)) + [2 ** 64 - 1, 2 ** 64, 3 ** 90]:
        w = width(bound)
        assert (1 << w - 1) - 1 >= bound
        assert w == 1 or (1 << w - 2) - 1 < bound


# ---------------------------------------------------------------------------
# every packed stage, decoded at the width its kernel returns
# ---------------------------------------------------------------------------
#
# Each function below evaluates the stages of one check through the packing kernels
# themselves, on the integer operands the check packs, and decodes every packed value
# at the width the kernel returned: {stage: (w, scale, {where: decoded value})}.

def blocks(values, m: int, w: int) -> dict:
    return {where: block_entries(v, m, w) for where, v in values}


def columns(values, n: int, w: int) -> dict:
    """Each n×n pair matrix split into its columns k, at (i, j, k)."""
    out = {}
    for (i, j), v in values:
        entries = block_entries(v, n, w)
        for k in range(n):
            out[i, j, k] = {a: c for (a, b), c in entries.items() if b == k}
    return out


def triples(table: dict, outer, w: int, n: int) -> dict:
    """J at every x<y<z of range(n), decoded."""
    return {t: unpack(jacobiator(table, outer, *t), w) for t in combinations(range(n), 3)}


def jacobi_stages(L) -> dict:
    sc, den = integral(L.sc)
    outer, w = packed_outer(sc, L.dim)
    return {"jacobi": (w, den * den, triples(sc, outer, w, L.dim))}


def compat_stages(g, h, rho, mu) -> dict:
    """`matched.compat_stage` on (g, h, ρ, μ), and on the swapped pair for compat-on-g."""
    def on_h(g, h, rho, mu):
        n, m = g.dim, h.dim
        gsc, hsc, *cols, den = integral(g.sc, h.sc, *rho.rho, *mu.rho)
        table = double_table(gsc, hsc, cols[:n], cols[n:])
        outer, w = packed_outer(table, n + m, n, n + m)
        return w, -den * den, {(i, a, b): unpack(jacobiator(table, outer, i, n + a, n + b), w)
                               for i in range(n) for a, b in combinations(range(m), 2)}
    return {"compat-on-h": on_h(g, h, rho, mu), "compat-on-g": on_h(h, g, mu, rho)}


def cocycle_stages(g, deltas) -> dict:
    n = g.dim
    sc, co, den = integral(g.sc, bialgebra._cotable(deltas, False))
    table = double_table(sc, {}, coadjoint_cols(table_rows(sc, n, True), n),
                         coadjoint_cols(table_rows(co, n), n))
    outer, w = packed_outer(table, 2 * n, 0, n)
    return {"cocycle": (w, den * den, {
        (i, j): {(a, b): c for a in range(n)
                 for b, c in unpack(jacobiator(table, outer, i, j, n + a), w).items()}
        for i, j in combinations(range(n), 2)})}


def coalgebra_stages(deltas) -> dict:
    """Co-Jacobi at e_k: −J*(eˣ, eʸ, eᶻ)_k at every ordered (x, y, z), J* alternating."""
    n = len(deltas)
    co, den = integral(bialgebra._cotable(deltas, True))
    outer, w = packed_outer(co, n)
    out = {(k,): {} for k in range(n)}
    for t, v in triples(co, outer, w, n).items():
        for k, c in v.items():
            out[(k,)].update(zip(permutations(t), (c, -c, -c, c, c, -c)))
    return {"coalgebra": (w, -den * den, out)}


def representation_stages(rep) -> dict:
    sc, *cols, den = integral(rep.algebra.sc, *rep.rho)
    w, values = pair_blocks(sc, cols, rep.module_dim)
    return {"representation": (w, den * den, blocks(values, rep.module_dim, w))}


def nslie_stages(A) -> dict:
    n = A.dim
    left, wedge, den = integral(A.left, A.wedge)
    comm = _commutator(left, wedge, n)
    w1, values = pair_blocks(comm, table_rows(left, n), n)
    table, outer, w2 = _identity_2(comm, left, wedge, n)
    return {"ns-identity-1": (w1, den * den, columns(values, n, w1)),
            "ns-identity-2": (w2, den * den, triples(table, outer, w2, n))}


def prelie_stages(P) -> dict:
    prod, den = integral(P.prod)
    w, values = pair_blocks(_commutator(prod, {}, P.dim), table_rows(prod, P.dim), P.dim)
    return {"pre-lie": (w, den * den, columns(values, P.dim, w))}


def ns_rep_stages(rep) -> dict:
    n, md = rep.base.dim, rep.module_dim
    g_left, g_wedge, *maps, d = integral(rep.base.left, rep.base.wedge, *rep.mu, *rep.nu,
                                            *rep.varrho)
    mu, nu, vr = maps[:n], maps[n:2 * n], maps[2 * n:]
    s = [[saxpy(saxpy(dict(a), -1, b), 1, c) for a, b, c in zip(*abc)] for abc in zip(mu, nu, vr)]
    w1, ns1 = pair_blocks(_commutator(g_left, g_wedge, n), mu, md)
    w2, ns2 = pair_blocks(g_left, nu, md, product(range(n), repeat=2), mu, s)
    left, wedge = _semidirect_tables(g_left, g_wedge, maps, n)
    table, outer, w3 = _identity_2(_commutator(left, wedge, n + md), left, wedge, n + md, n)
    ns3 = {(i, j): {(a, b): c for b in range(md)
                    for a, c in unpack(jacobiator(table, outer, i, j, n + b), w3).items()}
           for i, j in combinations(range(n), 2)}
    return {"ns-rep-1": (w1, d * d, blocks(ns1, md, w1)),
            "ns-rep-2": (w2, d * d, blocks(ns2, md, w2)), "ns-rep-3": (w3, d * d, ns3)}


def operator_stages(table, P, Q, pairs, lam, kappa) -> dict:
    """The residuals and inner sums of `reynolds.operator_brackets`."""
    s, d, residuals, inners = reynolds.operator_brackets(table, P, Q, lam, kappa)
    (wr, res), (wi, inner) = residuals(iter(pairs)), inners(iter(pairs))
    return {"residual": (wr, s * d, {key: unpack(v, wr) for key, v in res}),
            "inner": (wi, s, {key: unpack(v, wi) for key, v in inner})}


def reported(where, value, scale=1) -> tuple:
    """A stage's value at `where` as `scan` reports a residual: its nonzero entries in index
    order, divided by the scale."""
    if isinstance(value, dict) and not value:
        return ()
    return tuple((idx, c / Fraction(scale)) for idx, c in _entries(where, value) if c)


def oracle_values(oracle, *args) -> dict:
    """{stage: {where: reported value}} of every stage a `dense_oracle` check scans."""
    seen = {}

    def record(check, cases, scale=1, decode=None, orbit=None):
        cases = list(cases)
        seen[check] = {where: reported(where, v, scale) for where, v in cases}
        return scan(check, cases, scale, decode, orbit)
    with patch.object(dense, "scan", record):
        oracle(*args)
    return seen


def operator_oracle(table, P, Q, pairs, lam, kappa) -> dict:
    cols, d, s, brackets = dense.dict_operator_brackets(table, P, Q, iter(pairs), lam, kappa)
    out = {"residual": {}, "inner": {}}
    for i, j, pq, inner in brackets:
        out["residual"][i, j] = reported((i, j), saxpy(pq, -1, sapply(cols, inner)), s * d)
        out["inner"][i, j] = reported((i, j), inner, s)
    return out


def operator_checks(table, P, Q, pairs, lam, kappa):
    return (reynolds.operator_identity("op", table, P, Q, iter(pairs), lam, kappa),
            reynolds.inner_products(table, P, Q, iter(pairs), lam, kappa))


def dict_operator_checks(table, P, Q, pairs, lam, kappa):
    return (dense.dict_operator_identity("op", table, P, Q, iter(pairs), lam, kappa),
            nonzero_sums(dense.dict_inner_products(table, P, Q, iter(pairs), lam, kappa)))


# check: (the packed check, its dense oracle, its stages through the kernels)
CHECKS = {
    "jacobi": (jacobi_check, dense.dict_jacobi_check, jacobi_stages),
    "compat": (matched._compat_stages, dense.dict_compat_stages, compat_stages),
    "cocycle": (bialgebra.cocycle_check, dense.dict_cocycle_check, cocycle_stages),
    "coalgebra": (bialgebra.is_lie_coalgebra, dense.dict_is_lie_coalgebra, coalgebra_stages),
    "representation": (is_representation, dense.is_representation, representation_stages),
    "nslie": (is_nslie, dense.is_nslie, nslie_stages),
    "prelie": (is_prelie, dense.is_prelie, prelie_stages),
    "ns-rep": (is_ns_rep, dense.is_ns_rep, ns_rep_stages),
    "operator": (operator_checks, dict_operator_checks, operator_stages),
}


def decoded_stages(check: str, *args) -> dict:
    """{stage: (w, every decoded value)} of one check on args, after asserting that every
    decoded value, passing or not, equals the oracle's."""
    _, oracle, stages = CHECKS[check]
    values = operator_oracle(*args) if check == "operator" else oracle_values(oracle, *args)
    out = {}
    for stage, (w, scale, decoded) in stages(*args).items():
        for where, v in decoded.items():
            assert reported(where, v, scale) == values[stage][where], (stage, where)
            assert max(map(abs, v.values()), default=0) <= (1 << w - 1) - 1
        out[stage] = w, list(decoded.values())
    return out


# ---------------------------------------------------------------------------
# residuals at the bound of their slots
# ---------------------------------------------------------------------------
#
# Each input puts a coefficient of some packed value above 2^(w−2), half what a slot of
# width w holds, so a slot one bit narrower could not hold it.  The designed ones below
# reach the bound of `exact.slot_width` exactly: every term Σ_m c_m·v_m of it has
# ‖c‖₁·max|v| aligned products and no other entry is nonzero; a bound with the factor 3
# of the Jacobiator's three terms (or of 3M², 6M²) is never a power of two, so it lies
# above 2^(w−2) for every M.

def aligned_table(n: int, M: int, seed: int) -> LieAlgebra:
    """Every entry ±M, signed so that every term of J(e_0, e_1, e_2) at e_0 with outer
    index outside {0, 1, 2} is +M²: that coefficient is 3(n − 3)M², against the bound
    3nM² of its slots."""
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
        assert dict(cert.residual)[(0,)] == 21 * M * M


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


def representation_at_the_bound(M, seed: int) -> Representation:
    """ρ(e_0), ρ(e_1) from `commuting_at_the_bound` (m = 16) and [e_0, e_1] = −M(e_0 + e_1):
    the residual at (0, 1), entry (0, 1), is −(2 + 2m)M², the bound of its slots."""
    A, B = commuting_at_the_bound(16, M, seed)
    return Representation.unchecked(LieAlgebra.unchecked(2, None, {(0, 1): {0: -M, 1: -M}}),
                                    16, [A, B])


def test_a_representation_residual_at_the_bound():
    for M, seed in ((1, 1), (3, 2), (2 ** 20, 3), (Fraction(3, 7), 4)):
        rep = representation_at_the_bound(M, seed)
        cert = is_representation(rep)
        assert same(cert, dense.dict_is_representation(rep))
        assert same(cert, dense.is_representation(rep))
        assert dict(cert.residual)[(0, 1)] == -34 * M * M


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
    for M in (1, 2 ** 20, 2 ** 61):
        A = ns_at_the_bound(M)
        cert = is_nslie(A)
        assert same(cert, dense.is_nslie(A))
        pre = PreLieAlgebra.unchecked(3, None, A.left)
        assert same(is_prelie(pre), dense.is_prelie(pre))
        first = cert.parts[0]
        assert first.where == (0, 1, 0) and dict(first.residual)[(0,)] == 11 * M * M
        # ns-rep-1 of the regular representation is identity 1, entry (a, b) at (i, j)
        # its e_a-component at (i, j, b)
        rep = regular_rep(A)
        cert = is_ns_rep(rep)
        assert same(cert, dense.is_ns_rep(rep))
        assert dict(cert.parts[0].residual)[(0, 0)] == 11 * M * M


def ns_identity_2_at_the_bound(M) -> NSLieAlgebra:
    """◁ and ▷ on dimension 3 with every entry +M but six −M, such that NS identity 2 at
    (0, 1, 2) is 17M² at e_0."""
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


def ns_rep(n: int, m: int, left: dict, wedge: dict, varrho, mu, nu) -> NSRep:
    A = NSLieAlgebra.unchecked(n, None, left, wedge)
    return NSRep.unchecked(A, m, *([Mat(x) for x in family] for family in (varrho, mu, nu)))


def ns_rep_2_at_the_bound(M) -> NSRep:
    """On dimension 1 with m = 3, every entry +M but e_0◁e_0 = −Me_0, column 1 of nu(e_0)
    and entry (1, 1) of mu(e_0) and of varrho(e_0): the residual nu(e_0◁e_0) +
    nu(e_0)·s(e_0) − mu(e_0)·nu(e_0) at (0, 0), entry (0, 1), is (1 + 3 + 1 + 3 + 3)M² =
    11M²."""
    corner = [[M, M, M], [M, -M, M], [M, M, M]]
    return ns_rep(1, 3, {(0, 0): {0: -M}}, {}, [corner], [corner], [[[M, -M, M]] * 3])


def test_an_ns_rep_2_residual_at_the_bound():
    for M in (1, 3, 2 ** 20, Fraction(3, 7)):
        rep = ns_rep_2_at_the_bound(M)
        cert = is_ns_rep(rep)
        assert same(cert, dense.is_ns_rep(rep))
        second = cert.parts[1]
        assert second.where == (0, 0) and dict(second.residual)[(0, 1)] == 11 * M * M


def ns_rep_3_at_the_bound(M) -> NSRep:
    """On dimension 2 with m = 2: [e_0, e_1] = 3M(e_0 + e_1) from e_0◁e_1 = −e_1◁e_0 =
    e_0▷e_1 = M(e_0 + e_1), and ±M matrices signed so that every product in identity 2 at
    (e_0, e_1, w_1) is +M² at w_0: the residual at (0, 1), entry (0, 1), is 24M²."""
    left = {(0, 0): {0: M, 1: M}, (0, 1): {0: M, 1: M}, (1, 0): {0: -M, 1: -M},
            (1, 1): {0: M, 1: M}}
    varrho = [[[-M, -M], [M, M]], [[M, -M], [M, -M]]]
    nu = [[[M, M], [M, -M]], [[M, M], [M, M]]]
    return ns_rep(2, 2, left, {(0, 1): {0: M, 1: M}}, varrho, varrho, nu)


def test_an_ns_rep_3_residual_at_the_bound():
    for M in (1, 3, 2 ** 20, Fraction(3, 7)):
        rep = ns_rep_3_at_the_bound(M)
        cert = is_ns_rep(rep)
        assert same(cert, dense.is_ns_rep(rep))
        third = cert.parts[2]
        assert third.where == (0, 1) and dict(third.residual)[(0, 1)] == 24 * M * M


def operator_at_the_bound(n: int, M) -> tuple:
    """A non-skew table with every entry +M, P = Q = M on every entry, every ordered pair,
    λ = 0: for κ = −1 the residual is N²M³(NM − 1) and for κ = 1 the inner sum
    N²M³ + 2NM², both the bounds of their slots to lower order."""
    table = Table(n, {(a, b): {k: M for k in range(n)} for a, b in product(range(n), repeat=2)})
    P = Mat([[M] * n for _ in range(n)])
    return table, P, P, list(product(range(n), repeat=2)), ZERO


def test_a_reynolds_residual_at_the_bound():
    for n, M in ((3, 1), (4, 2 ** 30), (5, 7)):
        table, P, _, pairs, lam = operator_at_the_bound(n, M)
        got = reynolds.operator_identity("reynolds", table, P, P, iter(pairs), lam, -ONE)
        assert same(got, dense.dict_operator_identity("reynolds", table, P, P, iter(pairs),
                                                      lam, -ONE))
        assert got.violations == n * n
        assert dict(got.residual)[(0,)] == n ** 2 * M ** 3 * (n * M - 1)
        inner, s = reynolds.inner_products(table, P, P, iter(pairs), lam, ONE)
        assert (inner, s) == nonzero_sums(dense.dict_inner_products(table, P, P, iter(pairs),
                                                                    lam, ONE))
        assert Fraction(inner[0, 0][0], s) == n * n * M ** 3 + 2 * n * M * M


def lie_at_the_bound(M) -> LieAlgebra:
    """[e_0,e_1] = [e_1,e_2] = [e_2,e_0] = Me_3 and [e_3,e_c] = Me_0 for c < 3: J(e_0, e_1, e_2)
    is 3M²e_0, the bound of its slots."""
    return LieAlgebra.unchecked(4, None, {(0, 1): {3: M}, (1, 2): {3: M}, (0, 2): {3: -M},
                                          **{(c, 3): {0: -M} for c in range(3)}})


def ns_identity_2_aligned(M) -> NSLieAlgebra:
    """On dimension 4, NS identity 2 at (0, 1, 2) is 12M² at e_0, the bound of its slots:
    for each cyclic (x, y, z), x◁y = −y◁x = x▷y = Me_3, so T(x, y) = [x,y] ⊕ x▷y is
    3Me_3 ⊕ Me_3, and z▷e_3 = z◁e_3 = Me_0."""
    left, wedge = {}, {}
    for x, y, z in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        left[x, y], left[y, x] = {3: M}, {3: -M}
        wedge[min(x, y), max(x, y)] = {3: M if x < y else -M}
        left[z, 3] = wedge[z, 3] = {0: M}
    return NSLieAlgebra.unchecked(4, None, left, wedge)


def prelie_at_the_bound(M) -> PreLieAlgebra:
    """On dimension 4, (e_0, e_1, e_2) − (e_1, e_0, e_2) is 6M² at e_0, the bound of its
    slots: [e_0, e_1] = 2Me_3 with e_3·e_2 = Me_0; e_0·e_2 = M(e_1 + e_3) with
    e_1·e_1 = e_1·e_3 = Me_0; e_1·e_2 = M(e_0 + e_3) with e_0·e_0 = e_0·e_3 = −Me_0."""
    return PreLieAlgebra.unchecked(4, None, {
        (0, 1): {3: M}, (1, 0): {3: -M}, (3, 2): {0: M}, (0, 2): {1: M, 3: M}, (1, 1): {0: M},
        (1, 3): {0: M}, (1, 2): {0: M, 3: M}, (0, 0): {0: -M}, (0, 3): {0: -M}})


def compat_at_the_bound(M, on_g: bool) -> tuple:
    """g = ke_0 abelian acting on h = span(f_0, f_1, f_2) by ρ(e_0), μ = 0 (`on_g`: the
    roles swapped): compat-on-h at (0, 0, 1) is −3M² at f_0, the bound of its slots, as
    on the table of g⋈h each cyclic term of J(e_0, f_0, f_1) is one product through f_2."""
    one = LieAlgebra.abelian(1)
    three = LieAlgebra.unchecked(3, None, {(0, 1): {2: M}, (0, 2): {0: -M}, (1, 2): {0: -M}})
    act = Representation.unchecked(one, 3, [Mat([[0, 0, -M], [0, 0, 0], [M, -M, 0]])])
    zero = Representation.unchecked(three, 1, [Mat.zeros(1, 1)] * 3)
    return (three, one, zero, act) if on_g else (one, three, act, zero)


def cocycle_at_the_bound(M) -> tuple:
    """A 4-dimensional g and dual bracket [e²,e³] = M(e⁰ − e¹) on which the cocycle residual
    reaches 6M², the bound of its slots (found by a search over entries in {−M, 0, M})."""
    g = LieAlgebra.unchecked(4, None, {(0, 1): {0: -M, 1: M}, (0, 2): {2: -M}, (0, 3): {3: -M},
                                       (1, 2): {2: -M}, (1, 3): {3: -M}})
    return g, bialgebra.cobracket_from_dual(LieAlgebra.unchecked(4, None, {(2, 3): {0: M, 1: -M}}))


MS = (1, 3, 2 ** 20, Fraction(3, 7))
# stage: (its check, inputs with a coefficient above 2^(w−2)); ns_identity_2_at_the_bound
# attains 17M² of a bound 36M², and the Reynolds residual N²M³(NM − 1) of a bound
# N³M⁴ + 3N²M³, so each is above 2^(w−2) only for the M (and N) listed
AT_THE_BOUND = {
    "jacobi": ("jacobi", [(aligned_table(10, M, seed),)
                          for M, seed in ((1, 1), (2 ** 20, 2), (2 ** 61, 3))]),
    "compat-on-h": ("compat", [compat_at_the_bound(M, False) for M in MS]),
    "compat-on-g": ("compat", [compat_at_the_bound(M, True) for M in MS]),
    "cocycle": ("cocycle", [cocycle_at_the_bound(M) for M in MS]),
    "coalgebra": ("coalgebra", [(bialgebra.cobracket_from_dual(lie_at_the_bound(M)),)
                                for M in MS]),
    "representation": ("representation", [
        (representation_at_the_bound(M, seed),) for M, seed in zip(MS, range(1, 5))]),
    "ns-identity-1": ("nslie", [(ns_at_the_bound(M),) for M in (1, 2 ** 20, 2 ** 61)]),
    "ns-identity-2": ("nslie", [(ns_identity_2_aligned(M),) for M in MS]
                      + [(ns_identity_2_at_the_bound(M),) for M in (1, 2 ** 20)]),
    "pre-lie": ("prelie", [(prelie_at_the_bound(M),) for M in MS]),
    "ns-rep-1": ("ns-rep", [(regular_rep(ns_at_the_bound(M)),) for M in (1, 2 ** 20, 2 ** 61)]),
    "ns-rep-2": ("ns-rep", [(ns_rep_2_at_the_bound(M),) for M in MS]),
    "ns-rep-3": ("ns-rep", [(ns_rep_3_at_the_bound(M),) for M in MS]),
    "residual": ("operator", [(*operator_at_the_bound(n, M), -ONE)
                              for n, M in ((3, 9), (4, 3), (5, 7))]),
    "inner": ("operator", [(*operator_at_the_bound(n, M), ONE)
                           for n, M in ((3, 9), (4, 3), (5, 7))]),
}


@pytest.mark.parametrize("stage", AT_THE_BOUND)
def test_every_packed_stage_at_its_bound(stage):
    """On each input the check equals its dense oracle, every value its kernels pack decodes
    at their width to the oracle's, and one coefficient exceeds 2^(w−2)."""
    check, inputs = AT_THE_BOUND[stage]
    packed, oracle, _ = CHECKS[check]
    for args in inputs:
        assert packed(*args) == oracle(*args)
        w, values = decoded_stages(check, *args)[stage]
        assert max(abs(c) for v in values for c in v.values()) > 1 << w - 2, args


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
            # the action's matrices on different denominators: `integral` rescales them to
            # one before the kernel reads their largest coefficient
            mats = [m.scale(Fraction(1, (1, 2, 5, 11)[x % 4])) for x, m in enumerate(rho.rho)]
            assert len({m.den for m in mats}) > 1
            args = (mats, P, Q, action, Fraction(lam), Fraction(kappa))
            decoded_stages("operator", *args)
            assert operator_checks(*args) == dict_operator_checks(*args)


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
    _, den = integral(L.sc)
    assert den > 1


def test_every_decoded_value_fits_its_slot_width():
    """Every value every packed stage computes, passing or not, decodes at the width its
    kernel returned to the dense or dict oracle's exact value, on dense conjugates: the
    Jacobi-type and NS-type stages, and the Reynolds kernel's inner sums and residuals
    with P ≠ Q and nonzero λ and κ."""
    rng = random.Random(23)
    for base in (matrix_units(2), matrix_units(3, upper=True), matrix_units(3)):
        n = base.dim
        for c in SCALES:
            L = conjugate(base, dense_change(n, rng), c)
            R = Mat([[rng.choice((0, 1, Fraction(-5, 11), Fraction(13, 6))) for _ in range(n)]
                     for _ in range(n)])
            T = dense_change(n, rng)
            adj = adjoint_rep(L)
            scaled = Representation.unchecked(L, n, [m.scale(c) for m in adj.rho])
            deltas = [d.scale(c) for d in bialgebra.cobracket_from_dual(L)]
            checks = [("jacobi", L), ("coalgebra", deltas)]
            if n <= 6:
                checks += [("representation", scaled), ("compat", L, L, adj, scaled),
                           ("cocycle", L, deltas)]
            if n <= 4:
                A = ns_from_reynolds(ReynoldsLieAlgebra.unchecked(L, R))
                checks += [("nslie", A), ("prelie", PreLieAlgebra.unchecked(n, None, A.left)),
                           ("ns-rep", regular_rep(A))]
            pairs, action = list(combinations(range(n), 2)), list(product(range(n), repeat=2))
            for table, keys in ((L.sc, pairs), (adj.rho, action)):
                for P, Q, lam, kappa in ((R, R, ZERO, -ONE), (R, T, Fraction(3, 5), c),
                                         (T, R, c, ONE)):
                    checks.append(("operator", table, P, Q, keys, lam, kappa))
            for check, *args in checks:
                decoded_stages(check, *args)
