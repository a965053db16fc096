"""The sparse basis-index kernel against the dense reference, and gl(5) at full size.

The differential tests draw random structure tables (Lie ones, as conjugates
of matrix Lie algebras, and Jacobi-breaking ones), random small rational
operators and random symmetric forms, and require every certificate to be
identical, in full `to_json()`, to the one the dense kernels of
`dense_oracle` compute; constructions must produce identical tables.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

import dense_oracle as dense
from algcert.certificates import CheckFailed
from algcert.exact import Mat
from algcert.lie import (
    BilinForm,
    LieAlgebra,
    Representation,
    adjoint_rep,
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
from algcert.reynolds import ReynoldsLieAlgebra, induced_algebra, is_reynolds, operator_form_compat
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


# ---------------------------------------------------------------------------
# gl(5): every check at dimension 25
# ---------------------------------------------------------------------------

def test_gl5_checks_pass_and_pinned_failure():
    n = 5
    L = gl(n)
    d = L.dim
    centre = [a * n + a for a in range(n)]
    # projection onto sl(5) along the centre: E_cd ↦ E_cd − δ_cd/5·Σ_a E_aa
    proj = Mat([[Fraction(int(k == m)) - (Fraction(1, n) if k in centre and m in centre else 0)
                 for m in range(d)] for k in range(d)])
    trace_form = BilinForm(Mat([[int(k // n == m % n and k % n == m // n) for m in range(d)]
                                for k in range(d)]))
    assert jacobi_check(L).ok
    assert is_reynolds(L, proj).ok
    assert is_rota_baxter(L, proj, -1).ok
    assert is_invariant_form(L, trace_form).ok

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
