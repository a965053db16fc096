"""The sparse basis-index kernel against the dense reference, and gl(5) at full size.

The differential tests draw random structure tables (Lie ones, as conjugates
of matrix Lie algebras, and Jacobi-breaking ones), random small rational
operators and random symmetric forms, and require every certificate to be
identical, in full `to_json()`, to the one the dense kernels of
`dense_oracle` compute; constructions must produce identical tables.  The
matched-pair, bialgebra and CYBE layers are compared the same way, on
conjugated quadratic Rota-Baxter data of sl(2) and gl(2) and on perturbed
or random inputs, by running each call once as it is and once inside
`dense_oracle.swapped()`.  The integer kernel of the identity checks is
compared on dense conjugates whose coefficients have coprime denominators,
with rational Rota-Baxter weights and failing inputs, and a change of basis
must not change any verdict.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as dense
from algcert import bialgebra, cybe, matched, rotabaxter
from algcert.catalog import sl2 as catalog_sl2, sl2_b, sl2_s
from algcert.certificates import CheckFailed
from algcert.exact import Mat, Table, Tensor2, flip
from algcert.lie import (
    BilinForm,
    LieAlgebra,
    Representation,
    adjoint_rep,
    coadjoint_rep,
    is_invariant_form,
    is_representation,
    jacobi_check,
)
from algcert.nslie import (
    NSLieAlgebra,
    NSRep,
    is_ns_rep,
    is_nslie,
    ns_commutator,
    ns_from_reynolds,
    regular_rep,
)
from algcert.reynolds import (ReynoldsLieAlgebra, ReynoldsRep, compat_certificate,
                              induced_algebra, is_reynolds, operator_form_compat)
from algcert.rotabaxter import RotaBaxterAlg, descendent, is_rota_baxter


def matrix_unit_algebra(units) -> LieAlgebra:
    """The span of the matrix units E_ab, (a, b) in `units`, under the commutator.

    [E_ab, E_cd] = δ_bc E_ad − δ_da E_cb; the caller passes a closed set of units.
    """
    index = {u: k for k, u in enumerate(units)}
    sc = {}
    for (i, (a, b)), (j, (c, d)) in combinations(enumerate(units), 2):
        comp = {}
        if b == c:
            comp[index[a, d]] = comp.get(index[a, d], 0) + 1
        if d == a:
            comp[index[c, b]] = comp.get(index[c, b], 0) - 1
        sc[(i, j)] = comp
    return LieAlgebra.unchecked(len(units), None, sc)


def gl(n: int) -> LieAlgebra:
    return matrix_unit_algebra(list(product(range(n), repeat=2)))


def trace_form(n: int) -> BilinForm:
    """tr(XY) on gl(n) in the basis E_ab, index a·n + b."""
    d = n * n
    return BilinForm(Mat([[int(k // n == m % n and k % n == m // n) for m in range(d)]
                          for k in range(d)]))


def gl_projection(n: int) -> Mat:
    """The projection of gl(n) onto sl(n) along the centre: E_cd ↦ E_cd − δ_cd/n·Σ_a E_aa."""
    d = n * n
    centre = [a * n + a for a in range(n)]
    return Mat([[Fraction(int(k == m)) - (Fraction(1, n) if k in centre and m in centre else 0)
                 for m in range(d)] for k in range(d)])


# ---------------------------------------------------------------------------
# gl(5): every check at dimension 25
# ---------------------------------------------------------------------------

def test_gl5_checks_pass_and_pinned_failure():
    n = 5
    L = gl(n)
    d = L.dim
    proj = gl_projection(n)
    assert jacobi_check(L).ok
    assert is_reynolds(L, proj).ok
    assert is_rota_baxter(L, proj, -1).ok
    assert is_invariant_form(L, trace_form(n)).ok

    # 2·Id: [2x,2y] − 2([2x,y] + [x,2y] − [2x,2y]) = 4[x,y] on every pair
    nonzero = [(i, j) for i, j in combinations(range(d), 2) if L.sc.get((i, j))]
    i, j = nonzero[0]
    assert (i, j) == (0, 1) and len(nonzero) == 110
    assert is_reynolds(L, Mat.identity(d).scale(2)).to_json() == {
        "check": "reynolds", "ok": False, "where": [0, 1],
        "residual": [{"at": [k], "c": str(4 * c)} for k, c in sorted(L.sc[(0, 1)].items())],
        "violations": 110,
    }


# ---------------------------------------------------------------------------
# differential tests against the dense kernels
# ---------------------------------------------------------------------------

SMALL = st.sampled_from([Fraction(c) for c in (0, 0, 0, 0, 1, -1, 2, -3)]
                        + [Fraction(1, 2), Fraction(-2, 3)])
# closed sets of matrix units: gl(2), b(3), n(3), b(2), gl(1)
BASES = [
    list(product(range(2), repeat=2)),
    [(a, b) for a in range(3) for b in range(3) if a <= b],
    [(a, b) for a in range(3) for b in range(3) if a < b],
    [(a, b) for a in range(2) for b in range(2) if a <= b],
    [(0, 0)],
]
SL2 = LieAlgebra.unchecked(3, None, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def rand_mat(draw, rows: int, cols: int) -> Mat:
    return Mat([[draw(SMALL) for _ in range(cols)] for _ in range(rows)])


def conjugate(L: LieAlgebra, P: Mat) -> LieAlgebra:
    """Structure constants in the basis f_i = P e_i: [f_i,f_j] = P⁻¹[Pe_i,Pe_j]."""
    inv = P.inverse()
    sc = {(i, j): dict(enumerate(inv.apply(L.bracket(P.col(i), P.col(j)))))
          for i, j in combinations(range(L.dim), 2)}
    return LieAlgebra.unchecked(L.dim, None, sc)


def conjugated(L: LieAlgebra, R: Mat, S: BilinForm, P: Mat):
    """(L, R, S) in the basis f_i = P e_i: R becomes P⁻¹RP and S becomes PᵀSP."""
    return conjugate(L, P), P.inverse() @ R @ P, BilinForm(P.transpose() @ S.gram @ P)


@st.composite
def algebras(draw, max_dim: int = 6) -> LieAlgebra:
    kind = draw(st.sampled_from(["lie", "broken", "random"]))
    if kind == "random":
        n = draw(st.integers(1, max_dim))
        return LieAlgebra.unchecked(n, None, {
            (i, j): {draw(st.integers(0, n - 1)): draw(SMALL)}
            for i, j in combinations(range(n), 2) if draw(st.booleans())})
    base = draw(st.sampled_from([SL2] + [matrix_unit_algebra(u) for u in BASES]))
    base = base if base.dim <= max_dim else SL2
    n = base.dim
    # unit upper-triangular times a permutation: invertible by construction
    perm = draw(st.permutations(range(n)))
    upper = [[Fraction(int(a == b)) if a >= b else draw(SMALL) for b in range(n)]
             for a in range(n)]
    P = Mat(upper) @ Mat([[int(perm[b] == a) for b in range(n)] for a in range(n)])
    L = conjugate(base, P)
    if kind == "broken" and n >= 3:
        sc = dict(L.sc)
        key = draw(st.sampled_from(list(combinations(range(n), 2))))
        sc[key] = {**sc.get(key, {}), draw(st.integers(0, n - 1)): draw(SMALL) + 1}
        L = LieAlgebra.unchecked(n, None, sc)
    return L


@st.composite
def operators(draw, n: int) -> Mat:
    kind = draw(st.sampled_from(["random", "2id", "id", "zero"]))
    if kind == "random":
        return rand_mat(draw, n, n)
    return Mat.identity(n).scale({"2id": 2, "id": 1, "zero": 0}[kind])


@st.composite
def forms(draw, n: int) -> BilinForm:
    upper = {(a, b): draw(SMALL) for a in range(n) for b in range(a, n)}
    return BilinForm(Mat([[upper[min(a, b), max(a, b)] for b in range(n)] for a in range(n)]))


@st.composite
def cases(draw, max_dim: int = 6):
    L = draw(algebras(max_dim))
    return L, draw(operators(L.dim)), draw(forms(L.dim)), draw(SMALL)


@given(cases())
def test_lie_checks_match_dense(case):
    L, R, S, lam = case
    assert jacobi_check(L).to_json() == dense.jacobi_check(L).to_json()
    assert is_invariant_form(L, S).to_json() == dense.is_invariant_form(L, S).to_json()
    for name, op_lam in (("compat", None), ("compat-lam", lam)):
        assert (operator_form_compat(L, S, R, name, op_lam).to_json()
                == dense.operator_form_compat(L, S, R, name, op_lam).to_json())


@given(algebras())
def test_adjoint_matrices_match_ad(L):
    # ad(e_i), adjoint_rep and coadjoint_rep fill their matrices from the table's integer
    # rows; the reference builds them column by column
    ads = [dense.ad(L, i) for i in range(L.dim)]
    assert [L.ad(i) for i in range(L.dim)] == ads == list(adjoint_rep(L).rho)
    assert list(coadjoint_rep(L).rho) == [-a.transpose() for a in ads]
    v = [Fraction(1 - 2 * k, 7 + k) for k in range(L.dim)]
    assert L.ad_vec(v) == dense.ad_vec(L, v)


@given(st.integers(1, 4), st.data())
def test_multiplication_matrices_match_from_cols(n, data):
    # regular_rep and left_rep build left and right multiplication from the table's integer
    # rows; on random tables with coprime denominators they equal the `from_cols` matrices
    def table(pairs):
        return {key: {data.draw(st.integers(0, n - 1)): data.draw(COPRIME)}
                for key in pairs if data.draw(st.booleans())}

    def by_cols(prod):
        return [Mat.from_cols([prod(i, j) for j in range(n)]) for i in range(n)]
    A = NSLieAlgebra.unchecked(n, None, table(product(range(n), repeat=2)),
                               table(combinations(range(n), 2)))
    reg = regular_rep(A)
    assert list(reg.varrho) == by_cols(A.wedge_basis)
    assert list(reg.mu) == by_cols(A.left_basis)
    assert list(reg.nu) == by_cols(lambda i, j: A.left_basis(j, i))
    P = data.draw(prelies())
    n = P.dim
    if cybe.is_prelie(P).ok:     # R = 0 is Reynolds on any pre-Lie algebra
        rep = cybe.left_rep(cybe.ReynoldsPreLie.unchecked(P, Mat.zeros(n, n))).rep
        assert list(rep.rho) == by_cols(P.prod_basis)


@given(cases())
def test_operator_checks_match_dense(case):
    L, R, _, lam = case
    assert is_reynolds(L, R).to_json() == dense.is_reynolds(L, R).to_json()
    assert is_rota_baxter(L, R, lam).to_json() == dense.is_rota_baxter(L, R, lam).to_json()
    # a scalar operator c·Id is Rota-Baxter of weight −c: the passing case
    assert (is_rota_baxter(L, R, -R.entries[0][0]).to_json()
            == dense.is_rota_baxter(L, R, -R.entries[0][0]).to_json())


@given(cases(), st.data())
def test_representation_matches_dense(case, data):
    L, R, _, lam = case
    m = data.draw(st.integers(1, 3))
    reps = [adjoint_rep(L),
            Representation.unchecked(L, L.dim, [r.scale(lam) for r in adjoint_rep(L).rho]),
            Representation.unchecked(L, m, [rand_mat(data.draw, m, m) for _ in range(L.dim)])]
    for rep in reps:
        assert is_representation(rep).to_json() == dense.is_representation(rep).to_json()


@given(cases())
def test_constructions_match_dense(case):
    L, R, _, _ = case
    expected = dense.induced_sc(L, R)
    induced = LieAlgebra.unchecked(L.dim, None, expected)
    if dense.jacobi_check(induced).ok and dense.is_reynolds(induced, R).ok:
        assert induced_algebra(ReynoldsLieAlgebra.unchecked(L, R)).L.sc == expected
    else:
        with pytest.raises(CheckFailed):
            induced_algebra(ReynoldsLieAlgebra.unchecked(L, R))
    weight = -R.entries[0][0]   # c·Id is Rota-Baxter of weight −c, so those get a descendent
    rb = RotaBaxterAlg.unchecked(L, R, weight)
    expected = dense.descendent_sc(L, R, weight)
    if (dense.is_rota_baxter(L, R, weight).ok
            and dense.jacobi_check(LieAlgebra.unchecked(L.dim, None, expected)).ok):
        assert descendent(rb).sc == expected
    else:
        with pytest.raises(CheckFailed):
            descendent(rb)
    A = ns_from_reynolds(ReynoldsLieAlgebra.unchecked(L, R))
    assert (A.left, A.wedge) == dense.ns_from_reynolds_tables(L, R)


@given(cases(max_dim=3), st.data())
def test_nslie_checks_match_dense(case, data):
    L, R, _, lam = case
    n = L.dim
    if data.draw(st.booleans()):
        A = ns_from_reynolds(ReynoldsLieAlgebra.unchecked(L, R))
    else:
        A = NSLieAlgebra.unchecked(n, None, *(
            {(i, j): {data.draw(st.integers(0, n - 1)): data.draw(SMALL)}
             for i, j in pairs if data.draw(st.booleans())}
            for pairs in (list(product(range(n), repeat=2)), list(combinations(range(n), 2)))))
    assert is_nslie(A).to_json() == dense.is_nslie(A).to_json()
    expected = dense.ns_commutator_sc(A)
    if dense.jacobi_check(LieAlgebra.unchecked(n, None, expected)).ok:
        assert ns_commutator(A).sc == expected
    else:
        with pytest.raises(CheckFailed):
            ns_commutator(A)
    reg = regular_rep(A)
    rep = NSRep.unchecked(A, n, reg.varrho, [m.scale(lam) for m in reg.mu], reg.nu)
    assert is_ns_rep(rep).to_json() == dense.is_ns_rep(rep).to_json()


@given(st.integers(1, 4), st.integers(0, 4), st.integers(1, 4), st.data())
def test_matmul_matches_dense(rows, inner, cols, data):
    a = rand_mat(data.draw, rows, inner)
    b = rand_mat(data.draw, inner, cols)
    assert (a @ b).entries == dense.matmul(a, b).entries


# ---------------------------------------------------------------------------
# matched pairs, bialgebras and the CYBE layer against the dense bodies
# ---------------------------------------------------------------------------
#
# Calls go through the module attributes (`cybe.is_prelie`, not an imported
# name), so that `dense.swapped()` reaches them.

def data(x):
    """A structure, certificate or tuple of them as plain comparable data."""
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, (tuple, list)):
        return tuple(data(v) for v in x)
    if isinstance(x, Table):          # its items, so that it compares with a plain dict
        return dict(x)
    slots = getattr(type(x), "__slots__", ())
    if slots:
        return type(x).__name__, tuple(data(getattr(x, name)) for name in slots)
    return x


def test_data_sees_every_structure_constant():
    # `data` compares the fields named in `__slots__`, and a `Table` by its items; a
    # table reduced to a subset of its slots, such as (dim, skew), would hide any difference
    L = LieAlgebra.unchecked(2, None, {(0, 1): {1: 1}})
    assert data(L) != data(LieAlgebra.unchecked(2, None, {(0, 1): {1: 2}}))


def outcome(fn):
    try:
        return data(fn())
    except CheckFailed as exc:
        return "CheckFailed", exc.certificate.to_json()
    except ValueError as exc:
        return "ValueError", str(exc)


def agree(fn):
    """fn() on the sparse kernels equals fn() on the dense bodies; returns the outcome."""
    sparse = outcome(fn)
    with dense.swapped():
        assert outcome(fn) == sparse
    return sparse


def gl_qrb(n: int):
    """gl(n) with the trace form S, and B = r₊S♯ for r = h∧e (h = E_00 − E_11, e = E_01)."""
    L, S = gl(n), trace_form(n)
    d = L.dim
    h = {0: 1, n + 1: -1}
    r = Tensor2(d, d, {**{(k, 1): c for k, c in h.items()}, **{(1, k): -c for k, c in h.items()}})
    return L, cybe.r_plus(r) @ S.gram, S


def qrb(L, B, S, R=None):
    q = rotabaxter.QuadraticRB.unchecked(rotabaxter.RotaBaxterAlg.unchecked(L, B, 0), S)
    return q if R is None else rotabaxter.thmFL_bialgebra(q, R)


@st.composite
def invertible(draw, n: int) -> Mat:
    perm = draw(st.permutations(range(n)))
    upper = [[Fraction(int(a == b)) if a >= b else draw(SMALL) for b in range(n)]
             for a in range(n)]
    return Mat(upper) @ Mat([[int(perm[b] == a) for b in range(n)] for a in range(n)])


@st.composite
def qrbs(draw):
    """(L, B, S): sl(2) or gl(2) with its quadratic Rota-Baxter data, in a random basis."""
    L, B, S = draw(st.sampled_from([(catalog_sl2(), sl2_b(), sl2_s()), gl_qrb(2)]))
    return conjugated(L, B, S, draw(invertible(L.dim)))


def bump(m: Mat, draw) -> Mat:
    """m with one entry changed by a nonzero amount."""
    rows = [list(r) for r in m.entries]
    i, j = draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1))
    rows[i][j] += draw(SMALL.filter(lambda c: c != -1)) + 1
    return Mat(rows)


@given(qrbs(), st.data())
def test_matched_pairs_match_dense(case, data_):
    L, B, S = case
    draw = data_.draw
    rb = qrb(L, B, S, draw(st.sampled_from([B, Mat.zeros(L.dim, L.dim)])))
    rmp = bialgebra.canonical_pair(rb)
    mp = rmp.pair
    rho, mu, Rg, Rh = list(mp.rho.rho), list(mp.mu.rho), rmp.Rg, rmp.Rh
    kind = draw(st.sampled_from(["none", "rho", "mu", "Rg", "Rh"]))
    k = draw(st.integers(0, L.dim - 1))
    if kind == "rho":
        rho[k] = bump(rho[k], draw)
    elif kind == "mu":
        mu[k] = mu[k].scale(2)
    elif kind == "Rg":
        Rg = bump(Rg, draw)
    elif kind == "Rh":
        Rh = bump(Rh, draw)
    g, h = mp.g, mp.h
    rho = Representation.unchecked(g, h.dim, rho, mp.rho.labels)
    mu = Representation.unchecked(h, g.dim, mu, mp.mu.labels)
    pair = matched.ReynoldsMatchedPair.unchecked(matched.MatchedPair.unchecked(g, h, rho, mu),
                                                 Rg, Rh)
    verdict = agree(lambda: matched.is_reynolds_matched_pair(pair))
    assert verdict["ok"] == (kind == "none")
    # the compatibility stages on their own, also when a representation fails
    agree(lambda: matched._compat_stages(g, h, rho, mu))
    agree(lambda: matched.induced_matched_pair(pair))
    if kind == "none":
        agree(lambda: bialgebra.drinfeld_double(rb))


def unit_product(units) -> dict:
    """E_ab·E_cd = δ_bc E_ad on a closed set of matrix units: an associative, so pre-Lie, table."""
    index = {u: k for k, u in enumerate(units)}
    return {(i, j): {index[a, d]: 1} for i, (a, b) in enumerate(units)
            for j, (c, d) in enumerate(units) if b == c}


@st.composite
def prelies(draw):
    kind = draw(st.sampled_from(["assoc", "broken", "random"]))
    if kind == "random":
        n = draw(st.integers(1, 4))
        return cybe.PreLieAlgebra.unchecked(n, None, {
            (i, j): {draw(st.integers(0, n - 1)): draw(SMALL)}
            for i, j in product(range(n), repeat=2) if draw(st.booleans())})
    units = draw(st.sampled_from(BASES[:4]))
    n = len(units)
    A = cybe.PreLieAlgebra.unchecked(n, None, unit_product(units))
    P = draw(invertible(n))
    inv = P.inverse()
    prod = {(i, j): dict(enumerate(inv.apply(A.prod_vec(P.col(i), P.col(j)))))
            for i, j in product(range(n), repeat=2)}
    if kind == "broken":
        key = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        prod[key] = {**prod[key], draw(st.integers(0, n - 1)): draw(SMALL) + 1}
    return cybe.PreLieAlgebra.unchecked(n, None, prod)


@given(prelies(), st.data())
def test_prelie_checks_match_dense(A, data_):
    R = data_.draw(operators(A.dim))
    agree(lambda: cybe.is_prelie(A))
    agree(lambda: cybe.is_reynolds_prelie(A, R))
    rp = cybe.ReynoldsPreLie.unchecked(A, R)
    agree(lambda: cybe.subadjacent(rp))
    agree(lambda: cybe.left_rep(rp))


@given(qrbs(), st.data())
def test_relative_rb_matches_dense(case, data_):
    L, B, S = case
    draw = data_.draw
    n = L.dim
    kind = draw(st.sampled_from(["adjoint", "coadjoint", "random"]))
    R = draw(st.sampled_from([B, Mat.zeros(n, n)]))
    A = ReynoldsLieAlgebra.unchecked(L, R)
    if kind == "adjoint":     # a Rota-Baxter operator of weight 0 is relative to ad
        rr, K = ReynoldsRep.unchecked(A, adjoint_rep(L), R), B
    elif kind == "coadjoint":   # r₊ = B·S⁻¹ of a CYBE solution is relative to ad*
        rr = ReynoldsRep.unchecked(A, coadjoint_rep(L), -R.transpose())
        K = B @ S.gram.inverse()
    else:
        m = draw(st.integers(1, 3))
        rep = Representation.unchecked(L, m, [rand_mat(draw, m, m) for _ in range(n)])
        rr, K = ReynoldsRep.unchecked(A, rep, rand_mat(draw, m, m)), rand_mat(draw, n, m)
    if kind != "random" and draw(st.booleans()):
        K = bump(K, draw)
    rel = cybe.RelativeRB.unchecked(rr, K)
    agree(lambda: cybe.is_relative_rb(rel))
    for build in (cybe.descendent_on_W, cybe.matched_from_relrb, cybe.prelie_from_relrb,
                  cybe.prelie_from_invertible_relrb, cybe.rk_solution):
        agree(lambda: build(rel))
    agree(lambda: cybe.canonical_r(cybe.prelie_from_relrb(rel)))


@given(cases(max_dim=5), st.data())
def test_cybe_and_bialgebra_checks_match_dense(case, data_):
    L, _, _, _ = case
    draw = data_.draw
    n = L.dim
    pairs = list(product(range(n), repeat=2))
    entries = {key: draw(SMALL) for key in draw(st.lists(st.sampled_from(pairs), max_size=6))}
    r = Tensor2(n, n, entries)
    for t in (r, r - flip(r)):
        agree(lambda: cybe.cybe_bracket(L, t))
        agree(lambda: cybe.is_cybe_solution(L, t))
        agree(lambda: cybe.ad_invariance_cert(L, t))
        agree(lambda: rotabaxter.dual_bracket_from_r(L, t))
        agree(lambda: bialgebra.coboundary_conditions(L, t))
        agree(lambda: bialgebra.coboundary_cobracket(L, t))
        agree(lambda: bialgebra.is_lie_coalgebra([t] * n))
    # the zero cobracket is always a cocycle; a random one rarely
    dual = LieAlgebra.unchecked(n, None, {
        (i, j): {draw(st.integers(0, n - 1)): draw(SMALL)}
        for i, j in combinations(range(n), 2) if draw(st.booleans())})
    deltas = bialgebra.cobracket_from_dual(dual)
    agree(lambda: bialgebra.cocycle_check(L, deltas))
    agree(lambda: bialgebra.is_lie_coalgebra(deltas))
    agree(lambda: bialgebra.is_lie_bialgebra(L, dual))
    # the Reynolds checks on a dense conjugate of sl(2) or gl(2), with its projection, a
    # random or the zero operator, and a dense r whose coefficients have coprime denominators
    base, P0 = draw(st.sampled_from([(SL2, Mat.identity(3)), (GL2, gl_projection(2))]))
    P = draw(dense_invertible(base.dim))
    G, m = conjugate(base, P), base.dim
    R = draw(st.sampled_from([P.inverse() @ P0 @ P, Mat.zeros(m, m),
                              Mat([[draw(COPRIME) for _ in range(m)] for _ in range(m)])]))
    r = Tensor2(m, m, {key: draw(COPRIME) for key in product(range(m), repeat=2)})
    A = ReynoldsLieAlgebra.unchecked(G, R)
    for t in (r, r - flip(r)):
        agree(lambda: cybe.is_cybe_solution_reynolds(A, t))
        agree(lambda: cybe.reynolds_tensor_condition(R, t))
        agree(lambda: bialgebra.coboundary_conditions(G, t))
        agree(lambda: bialgebra.reynolds_coboundary_condition(G, R, t))
        agree(lambda: bialgebra.is_reynolds_coalgebra(bialgebra.coboundary_cobracket(G, t), R))
        agree(lambda: rotabaxter.is_factorizable(G, t))


def test_cybe_where_skips_cancelled_entries():
    # the integer [[r,r]] keeps cancelled zeros; a seeded search finds an r with one below its
    # first nonzero key, and the single-shot `where` and residual must still be the dense ones
    rng = random.Random(0)
    for _ in range(500):
        r = Tensor2(3, 3, {(rng.randrange(3), rng.randrange(3)):
                           Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7])) for _ in range(4)})
        rr, _ = cybe._double_bracket(SL2, r)
        first = min((k for k, c in rr.items() if c), default=None)
        if first is not None and min(rr) < first:
            break
    else:
        pytest.fail("no r whose [[r,r]] has a cancelled entry below its first nonzero key")
    cert = agree(lambda: cybe.is_cybe_solution(SL2, r))
    assert not cert["ok"] and cert["where"] == list(first)


@given(qrbs(), st.data())
def test_r_matrix_pipeline_matches_dense(case, data_):
    L, B, S = case
    if data_.draw(st.booleans()):     # break S-compatibility of B
        S = BilinForm(Mat([[c * (1 + (a == b == 0)) for b, c in enumerate(row)]
                           for a, row in enumerate(S.gram.entries)]))
    agree(lambda: rotabaxter.r_from_qrb(qrb(L, B, S)))
    for R in (B, Mat.zeros(L.dim, L.dim)):
        agree(lambda: rotabaxter.thmFL_bialgebra(qrb(L, B, S), R))


@pytest.mark.parametrize("n, with_r", [(2, True), (2, False), (3, True)])
def test_doubles_and_solutions_match_dense_on_gl(n, with_r):
    L, B, S = gl_qrb(n)
    R = B if with_r else Mat.zeros(L.dim, L.dim)
    rb = qrb(L, B, S, R)
    assert agree(lambda: bialgebra.drinfeld_double(rb))[0] == "ReynoldsLieAlgebra"
    assert agree(lambda: bialgebra.double_quasitriangular(rb))[0] == "ReynoldsLieBialgebra"
    rel = cybe.RelativeRB(cybe.ReynoldsRep(cybe.ReynoldsLieAlgebra(L, R), adjoint_rep(L), R), B)
    for solution in (lambda: cybe.rk_solution(rel),
                     lambda: cybe.canonical_r(cybe.prelie_from_relrb(rel))):
        assert agree(solution)[0][0] == "ReynoldsLieAlgebra"


# ---------------------------------------------------------------------------
# the integer kernel under non-trivial common denominators
# ---------------------------------------------------------------------------
#
# The checks scale each table to integers under the lcm of its denominators
# and divide only the reported residual by the identity's scale.  Coefficients
# with coprime denominators and dense changes of basis make those scales
# large and different per table; failing inputs exercise the division.

COPRIME = st.sampled_from([Fraction(c) for c in (0, 1, -2)]
                          + [Fraction(1, 7), Fraction(-5, 11), Fraction(13, 6), Fraction(4, 9)])
WEIGHTS = (Fraction(3, 5), Fraction(-7, 4))
SCALES = (Fraction(1, 7), Fraction(-5, 11), Fraction(13, 6))
GL2 = matrix_unit_algebra(list(product(range(2), repeat=2)))


@st.composite
def dense_invertible(draw, n: int) -> Mat:
    """Unit lower- times unit upper-triangular: invertible, and dense for nonzero draws."""
    lower = [[Fraction(int(a == b)) if a <= b else draw(COPRIME) for b in range(n)]
             for a in range(n)]
    upper = [[Fraction(int(a == b)) if a >= b else draw(COPRIME) for b in range(n)]
             for a in range(n)]
    return Mat(lower) @ Mat(upper)


@st.composite
def rational_cases(draw):
    """A dense conjugate of sl(2), gl(2) or b(3), possibly Jacobi-broken, with its operators.

    The operators are the conjugated projection (gl(2): onto sl(2) along the
    centre, Reynolds and Rota-Baxter of weight −1), a dense random one, Id
    and 2·Id; the forms the conjugated trace form (sl(2), gl(2): invariant)
    and a random symmetric one.
    """
    base, R, S = draw(st.sampled_from([
        (SL2, Mat.identity(3), BilinForm(Mat([[2, 0, 0], [0, 0, 1], [0, 1, 0]]))),
        (GL2, gl_projection(2), trace_form(2)),
        (matrix_unit_algebra(BASES[1]), Mat.identity(6), BilinForm(Mat.identity(6)))]))
    L, R, S = conjugated(base, R, S, draw(dense_invertible(base.dim)))
    n = L.dim
    if draw(st.booleans()):
        sc = dict(L.sc)
        key = draw(st.sampled_from(list(combinations(range(n), 2))))
        sc[key] = {**sc.get(key, {}), draw(st.integers(0, n - 1)): Fraction(1, 7)}
        L = LieAlgebra.unchecked(n, None, sc)
    ops = [R, Mat([[draw(COPRIME) for _ in range(n)] for _ in range(n)]),
           Mat.identity(n), Mat.identity(n).scale(2)]
    upper = {(a, b): draw(COPRIME) for a in range(n) for b in range(a, n)}
    forms_ = [S, BilinForm(Mat([[upper[min(a, b), max(a, b)] for b in range(n)]
                                for a in range(n)]))]
    return L, ops, forms_


@given(rational_cases())
def test_rational_checks_match_dense(case):
    L, ops, forms_ = case
    assert jacobi_check(L).to_json() == dense.jacobi_check(L).to_json()
    for S in forms_:
        assert is_invariant_form(L, S).to_json() == dense.is_invariant_form(L, S).to_json()
    adj = adjoint_rep(L)
    scaled = Representation.unchecked(L, L.dim, [m.scale(Fraction(-5, 11)) for m in adj.rho])
    for rep in (adj, scaled):
        assert is_representation(rep).to_json() == dense.is_representation(rep).to_json()
    for R in ops:
        assert is_reynolds(L, R).to_json() == dense.is_reynolds(L, R).to_json()
        # −λ·R is Rota-Baxter of weight λ when R is a projection, or Id
        for lam in WEIGHTS:
            for B in (R, R.scale(-lam)):
                assert (is_rota_baxter(L, B, lam).to_json()
                        == dense.is_rota_baxter(L, B, lam).to_json())
    # the kernel with P ≠ Q, on an action: (ad; R, R) passes for the projection R, the
    # random operator fails
    R, T = ops[0], ops[1]
    for rep in (adj, scaled):
        for P, Q in ((R, R), (R, T), (T, R)):
            assert (compat_certificate(P, rep, Q).to_json()
                    == dense.compat_certificate(P, rep, Q).to_json())
    # the kernel on a non-skew table: L's bracket on all ordered pairs as a product
    A = cybe.PreLieAlgebra.unchecked(L.dim, None, {
        **L.sc, **{(j, i): {k: -c for k, c in comp.items()} for (i, j), comp in L.sc.items()}})
    assert cybe.is_reynolds_prelie(A, T).to_json() == dense.is_reynolds_prelie(A, T).to_json()
    # the Jacobi kernel's callers on actions and cobrackets scaled by coprime factors:
    # (L, L; ad, 0) is a matched pair when L is Lie, (L, L; ad, c·ad) fails the
    # compatibilities, c·ad fails as a representation; a coboundary is a cocycle for any
    # r, Δ = δ(r − σr) is skew, and the transposed bracket is a Lie coalgebra when L is Lie;
    # on the dim-6 conjugates of b(3) the dense reference bodies take seconds per call
    n = L.dim
    r = Tensor2(n, n, {(i, j): c for i, row in enumerate(T.entries) for j, c in enumerate(row)})
    for c in SCALES if n <= 4 else ():
        by_c = Representation.unchecked(L, n, [m.scale(c) for m in adj.rho])
        for rho, mu in ((adj, Representation.zero(L, n)), (adj, by_c), (by_c, adj)):
            got = matched.is_matched_pair(L, L, rho, mu).to_json()
            with dense.swapped():
                assert matched.is_matched_pair(L, L, rho, mu).to_json() == got
            assert ([x.to_json() for x in matched._compat_stages(L, L, rho, mu)]
                    == [x.to_json() for x in dense._compat_stages(L, L, rho, mu)])
        for t in (r, r - flip(r), None):
            deltas = (bialgebra.cobracket_from_dual(L) if t is None
                      else bialgebra.coboundary_cobracket(L, t))
            deltas = [d.scale(c) for d in deltas]
            assert (bialgebra.cocycle_check(L, deltas).to_json()
                    == dense.cocycle_check(L, deltas).to_json())
            assert (bialgebra.is_lie_coalgebra(deltas).to_json()
                    == dense.is_lie_coalgebra(deltas).to_json())


@settings(max_examples=8)
@given(rational_cases())
def test_rational_constructions_and_nslie_match_dense(case):
    """Equal tables; a refused construction fails the dense check of its hypothesis."""
    L, ops, _ = case
    for R in ops:
        A = ns_from_reynolds(ReynoldsLieAlgebra.unchecked(L, R))
        assert (A.left, A.wedge) == dense.ns_from_reynolds_tables(L, R)
        if L.dim <= 4:
            assert is_nslie(A).to_json() == dense.is_nslie(A).to_json()
        got = outcome(lambda: induced_algebra(ReynoldsLieAlgebra.unchecked(L, R)).L.sc)
        expected = dense.induced_sc(L, R)
        if isinstance(got, tuple):   # ("CheckFailed", certificate), else the table
            induced = LieAlgebra.unchecked(L.dim, None, expected)
            assert got[0] == "CheckFailed" and got[1] in (dense.jacobi_check(induced).to_json(),
                              dense.is_reynolds(induced, R).to_json())
        else:
            assert got == expected
        for lam in WEIGHTS:
            B = R.scale(-lam)
            got = outcome(lambda: descendent(RotaBaxterAlg.unchecked(L, B, lam)).sc)
            expected = dense.descendent_sc(L, B, lam)
            if isinstance(got, tuple):
                assert got[0] == "CheckFailed" and got[1] in (dense.is_rota_baxter(L, B, lam).to_json(), dense.jacobi_check(
                    LieAlgebra.unchecked(L.dim, None, expected)).to_json())
            else:
                assert got == expected


def test_rational_failure_is_divided_by_the_scale():
    # the projection of gl(2) in a basis with denominators 7, 11, 6: 2·Id fails with
    # residual 4[f_0,f_1], a vector whose entries keep their own reduced denominators
    P = Mat([[1, Fraction(1, 7), 0, 0], [0, 1, Fraction(-5, 11), 0],
             [Fraction(13, 6), 0, 1, 0], [0, 0, 0, 1]])
    L, R, S = conjugated(GL2, gl_projection(2), trace_form(2), P)
    assert is_reynolds(L, R).ok and is_rota_baxter(L, R, -1).ok
    assert is_invariant_form(L, S).ok and jacobi_check(L).ok
    two = Mat.identity(4).scale(2)
    cert = is_reynolds(L, two)
    i, j = cert.where
    assert cert.residual == tuple(((k,), 4 * c) for k, c in sorted(L.sc[(i, j)].items()) if c)
    assert any(c.denominator > 1 for _, c in cert.residual)
    assert cert.to_json() == dense.is_reynolds(L, two).to_json()


# ---------------------------------------------------------------------------
# change of basis: verdicts do not depend on the basis
# ---------------------------------------------------------------------------

B3 = matrix_unit_algebra(BASES[1])
# the torus of b(3) (the diagonal units, indices 0, 3, 5) along the nilradical
B3_TORUS = Mat([[int(k == m and k in (0, 3, 5)) for m in range(6)] for k in range(6)])
B3_TRACE = BilinForm(Mat([[int(BASES[1][k] == BASES[1][m][::-1]) for m in range(6)]
                          for k in range(6)]))


def verdicts(L: LieAlgebra, R: Mat, S: BilinForm) -> dict:
    ns = ns_from_reynolds(ReynoldsLieAlgebra.unchecked(L, R))
    return {
        "jacobi": jacobi_check(L).ok,
        "reynolds": is_reynolds(L, R).ok,
        "rota-baxter": is_rota_baxter(L, R, -1).ok,
        "representation": is_representation(adjoint_rep(L)).ok,
        "invariant-form": is_invariant_form(L, S).ok,
        "nslie": is_nslie(ns).ok,
        "ns-rep": is_ns_rep(regular_rep(ns)).ok,
    }


@pytest.mark.parametrize("name", ["gl(3)", "b(3)"])
@settings(max_examples=4)
@given(data=st.data())
def test_verdicts_are_basis_independent(name, data):
    L, R, S = (gl(3), gl_projection(3), trace_form(3)) if name == "gl(3)" else (
        B3, B3_TORUS, B3_TRACE)
    n = L.dim
    assert verdicts(L, R, S) == dict.fromkeys(verdicts(L, R, S), True)
    P = data.draw(dense_invertible(n))
    for op in (R, Mat.identity(n).scale(2)):
        assert verdicts(*conjugated(L, op, S, P)) == verdicts(L, op, S)
    # 2·Id is neither Reynolds nor Rota-Baxter of weight −1, in any basis
    assert not verdicts(*conjugated(L, Mat.identity(n).scale(2), S, P))["reynolds"]
