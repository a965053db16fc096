"""The compatibility conditions of matched pairs and Lie bialgebras as blocks of one Jacobi identity.

On the double g⋈h (g block first, then h), with [e_i, f_a] = −μ(f_a)e_i + ρ(e_i)f_a,
every condition below is one block of the Jacobiator
J(x, y, z) = [[x,y],z] + [[y,z],x] + [[z,x],y] (Majid, Pacific J. Math. 141, 1990):

* Jacobi of g: J(e_i, e_j, e_k) for i<j<k;
* ρ a representation: on g⋉V (h abelian, μ = 0) the residual at (i, j), entry
  (a, b), is +J(e_i, e_j, v_b) at v_a;
* compat-on-h at (i, a, b): −(h-block of J(e_i, f_a, f_b));
* compat-on-g at (a, i, j): −(g-block of J(f_a, e_i, e_j));
* the cocycle condition of Δ: on g⋈g* with the coadjoint actions of g and of the
  dual, the residual at (i, j), entry (a, b), is +J(e_i, e_j, eᵃ) at e_b;
* co-Jacobi of Δ (skew): the residual at (k,), entry (x, y, z), is −J*(eˣ, eʸ, eᶻ) at
  eᵏ, J* the Jacobiator of the dual bracket.

The double's table is built here from the dense definitions in `dense_oracle`, and
each relation is checked tuple by tuple against the dense reference bodies and
certificate by certificate against the library, on the canonical pairs of thmFL
bialgebras on sl(2), gl(2) and sl(3), as they are and with ρ or μ perturbed, and on
random skew cobrackets.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle as dense
from algcert.bialgebra import (canonical_pair, cobracket_from_dual, cocycle_check,
                               dual_from_cobracket, is_lie_coalgebra)
from algcert.catalog import sl2, sl2_b, sl2_s
from algcert.certificates import scan
from algcert.cybe import r_plus
from algcert.exact import Mat, Tensor2, vbasis
from algcert.lie import (BilinForm, LieAlgebra, Representation, coadjoint_rep,
                         is_representation, jacobi_check)
from algcert.matched import is_matched_pair
from algcert.rotabaxter import QuadraticRB, RotaBaxterAlg, thmFL_bialgebra
from test_sparse_kernel import gl, trace_form


def _coords(v) -> dict:
    return {k: c for k, c in enumerate(v) if c != 0}


def double_table(g, h, rho, mu) -> LieAlgebra:
    """g⋈h by its structure constants, from dense brackets and dense ρ, μ:
    [x+ξ, y+η] = ([x,y] + μ(ξ)y − μ(η)x) + ([ξ,η] + ρ(x)η − ρ(y)ξ)."""
    n, m = g.dim, h.dim

    def bracket(u, v):
        x, xi, y, eta = u[:n], u[n:], v[:n], v[n:]
        gpart = [a + b - c for a, b, c in zip(
            g.bracket(x, y), dense._lin(mu.rho, xi, n).apply(y),
            dense._lin(mu.rho, eta, n).apply(x))]
        hpart = [a + b - c for a, b, c in zip(
            h.bracket(xi, eta), dense._lin(rho.rho, x, m).apply(eta),
            dense._lin(rho.rho, y, m).apply(xi))]
        return tuple(gpart + hpart)
    d = n + m
    sc = {(p, q): _coords(bracket(vbasis(d, p), vbasis(d, q)))
          for p, q in combinations(range(d), 2)}
    return LieAlgebra.unchecked(d, None, {key: comp for key, comp in sc.items() if comp})


def jacobiator(D: LieAlgebra, x: int, y: int, z: int) -> tuple:
    """J(e_x, e_y, e_z) as a coordinate tuple, [[e_a,e_b],e_c] = Σ_m [e_a,e_b]_m·[e_m,e_c]."""
    out = [Fraction(0)] * D.dim
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for m, coeff in enumerate(D.bracket_basis(a, b)):
            if coeff:
                out = [s + coeff * t for s, t in zip(out, D.bracket_basis(m, c))]
    return tuple(out)


def sl3_matrices() -> list[Mat]:
    """E_01, E_02, E_10, E_12, E_20, E_21, H_1 = E_00 − E_11, H_2 = E_11 − E_22."""
    off = [(a, b) for a in range(3) for b in range(3) if a != b]
    mats = [[[int((r, c) == u) for c in range(3)] for r in range(3)] for u in off]
    mats += [[[int(r == c == k) - int(r == c == k + 1) for c in range(3)] for r in range(3)]
             for k in range(2)]
    return [Mat(m) for m in mats]


def sl3() -> LieAlgebra:
    """sl(3) in the basis of `sl3_matrices`, under the commutator."""
    mats = sl3_matrices()

    def coords(m: Mat) -> list:
        # diag(c1, c2 − c1, −c2) = c1·H_1 + c2·H_2
        e = m.entries
        return [e[a][b] for a in range(3) for b in range(3) if a != b] + [e[0][0], -e[2][2]]
    sc = {(i, j): _coords(coords(mats[i] @ mats[j] - mats[j] @ mats[i]))
          for i, j in combinations(range(8), 2)}
    return LieAlgebra(8, None, {key: comp for key, comp in sc.items() if comp})


def sl3_trace_form() -> BilinForm:
    mats = sl3_matrices()
    return BilinForm(Mat([[sum((x @ y).entries[k][k] for k in range(3)) for y in mats]
                          for x in mats]))


def quadratic_rb(L: LieAlgebra, S: BilinForm, h: dict, e: int) -> QuadraticRB:
    """B = r₊S♯ for the triangular r = h∧e ([h, e] = 2e)."""
    d = L.dim
    r = Tensor2(d, d, {**{(k, e): c for k, c in h.items()}, **{(e, k): -c for k, c in h.items()}})
    return QuadraticRB(RotaBaxterAlg(L, r_plus(r) @ S.gram, 0), S)


def thmfl_pairs():
    """The canonical pairs (g, g*; ad*, ad*) of thmFL bialgebras on sl(2), gl(2), sl(3)."""
    q2 = QuadraticRB(RotaBaxterAlg(sl2(), sl2_b(), 0), sl2_s())
    cases = [("sl(2)", thmFL_bialgebra(q2, sl2_b())),
             ("gl(2)", thmFL_bialgebra(quadratic_rb(gl(2), trace_form(2), {0: 1, 3: -1}, 1),
                                       Mat.zeros(4, 4))),
             ("sl(3)", thmFL_bialgebra(quadratic_rb(sl3(), sl3_trace_form(), {6: 1}, 0),
                                       Mat.zeros(8, 8)))]
    return [(name, canonical_pair(rb).pair) for name, rb in cases]


def bump(m: Mat, i: int, j: int, by) -> Mat:
    rows = [list(r) for r in m.entries]
    rows[i][j] += by
    return Mat(rows)


def perturbed(mp):
    """(label, ρ, μ): the pair as it is, ρ or μ broken as representations, and ρ or μ
    set to zero (still representations, but the compatibilities fail)."""
    g, h, rho, mu = mp.g, mp.h, mp.rho, mp.mu
    rho_bumped = list(rho.rho)
    rho_bumped[0] = bump(rho_bumped[0], 0, h.dim - 1, 1)
    mu_doubled = list(mu.rho)
    k = next(k for k, x in enumerate(mu_doubled) if not x.is_zero())
    mu_doubled[k] = mu_doubled[k].scale(2)
    return [
        ("as is", rho, mu),
        ("rho bumped", Representation.unchecked(g, h.dim, rho_bumped, rho.labels), mu),
        ("mu doubled", rho, Representation.unchecked(h, g.dim, mu_doubled, mu.labels)),
        ("rho zero", Representation.zero(g, h.dim, rho.labels), mu),
        ("mu zero", rho, Representation.zero(h, g.dim, mu.labels)),
    ]


PAIRS = thmfl_pairs()


def test_sl3_table_and_thmfl_pairs():
    assert jacobi_check(sl3()).ok
    for name, mp in PAIRS:
        assert is_matched_pair(mp.g, mp.h, mp.rho, mp.mu).ok, name


def test_jacobi_and_representation_are_blocks():
    for name, mp in PAIRS:
        g, n = mp.g, mp.g.dim
        assert jacobi_check(g) == scan("jacobi", (
            ((i, j, k), jacobiator(g, i, j, k)) for i, j, k in combinations(range(n), 3)))
        for label, rho, _ in perturbed(mp)[:2]:
            m = rho.module_dim
            V = LieAlgebra.abelian(m)
            D = double_table(g, V, rho, Representation.zero(V, n, g.basis))
            blocks = {(i, j): {(a, b): c for b in range(m)
                               for a, c in enumerate(jacobiator(D, i, j, n + b)[n:])}
                      for i, j in combinations(range(n), 2)}
            assert scan("representation", blocks.items()) == is_representation(rho), (name, label)
            assert scan("representation", blocks.items()) == dense.is_representation(rho)


@pytest.mark.parametrize("index", range(len(PAIRS)), ids=[name for name, _ in PAIRS])
def test_matched_pair_compatibilities_are_blocks(index):
    name, mp = PAIRS[index]
    g, h = mp.g, mp.h
    n, m = g.dim, h.dim
    for label, rho, mu in perturbed(mp):
        D = double_table(g, h, rho, mu)
        on_h = [((i, a, b), tuple(-c for c in jacobiator(D, i, n + a, n + b)[n:]))
                for i in range(n) for a, b in combinations(range(m), 2)]
        on_g = [((a, i, j), tuple(-c for c in jacobiator(D, n + a, i, j)[:n]))
                for a in range(m) for i, j in combinations(range(n), 2)]
        # tuple by tuple against the reference body of the compatibility identities
        for blocks, cases in ((on_h, dense._compat_cases(g, h, rho, mu)),
                              (on_g, dense._compat_cases(h, g, mu, rho))):
            assert blocks == list(cases), (name, label)
        cert = is_matched_pair(g, h, rho, mu)
        reps_ok = is_representation(rho).ok and is_representation(mu).ok
        assert len(cert.parts) == (4 if reps_ok else 2)
        if reps_ok:
            assert cert.parts[2:] == (scan("compat-on-h", on_h), scan("compat-on-g", on_g))
        assert cert.ok == (label == "as is")


def coadjoint_double(g: LieAlgebra, deltas) -> LieAlgebra:
    """g⋈g* with ρ = ad* of g and μ = ad* of the dual bracket read off Δ."""
    dual = dual_from_cobracket(deltas)
    rho = Representation.unchecked(g, g.dim, coadjoint_rep(g).rho)
    mu = Representation.unchecked(dual, g.dim, coadjoint_rep(dual).rho)
    return double_table(g, dual, rho, mu)


def cocycle_blocks(g: LieAlgebra, deltas):
    D = coadjoint_double(g, deltas)
    n = g.dim
    return scan("cocycle", (((i, j), {(a, b): c for a in range(n)
                                      for b, c in enumerate(jacobiator(D, i, j, n + a)[:n])})
                            for i, j in combinations(range(n), 2)))


def co_jacobi_blocks(deltas):
    dual = dual_from_cobracket(deltas)
    n = dual.dim
    J = {t: jacobiator(dual, *t) for t in product(range(n), repeat=3)}
    return scan("coalgebra", (((k,), {t: -v[k] for t, v in J.items()}) for k in range(n)))


@st.composite
def skew_cobrackets(draw):
    """A random skew Δ on sl(2) or gl(2), small entries, about half of them zero."""
    g = draw(st.sampled_from([sl2(), gl(2)]))
    n = g.dim
    coeff = st.sampled_from([Fraction(c) for c in (0, 0, 0, 1, -1, 2)] + [Fraction(1, 3)])
    deltas = []
    for _ in range(n):
        upper = {(i, j): draw(coeff) for i, j in combinations(range(n), 2)}
        deltas.append(Tensor2(n, n, {**upper, **{(j, i): -c for (i, j), c in upper.items()}}))
    return g, deltas


def test_bialgebra_conditions_are_blocks_on_thmfl_duals():
    for name, mp in PAIRS:
        deltas = cobracket_from_dual(mp.h)
        assert cocycle_blocks(mp.g, deltas) == cocycle_check(mp.g, deltas), name
        assert cocycle_check(mp.g, deltas).ok
        assert co_jacobi_blocks(deltas) == is_lie_coalgebra(deltas), name
        # μ broken: twice one cobracket vector fails the cocycle condition
        k = next(k for k, d in enumerate(deltas) if d.entries)
        broken = deltas[:k] + [deltas[k].scale(2)] + deltas[k + 1:]
        assert cocycle_blocks(mp.g, broken) == cocycle_check(mp.g, broken), name
        assert not cocycle_check(mp.g, broken).ok
        assert co_jacobi_blocks(broken) == is_lie_coalgebra(broken), name


@settings(max_examples=12)
@given(skew_cobrackets())
def test_bialgebra_conditions_are_blocks_on_random_cobrackets(case):
    g, deltas = case
    assert cocycle_blocks(g, deltas) == cocycle_check(g, deltas) == dense.cocycle_check(g, deltas)
    assert co_jacobi_blocks(deltas) == is_lie_coalgebra(deltas) == dense.is_lie_coalgebra(deltas)
