"""Reference kernels for differential tests: the dense evaluation paths.

These are the dense-vector bodies the sparse basis-index kernels replaced:
every product is evaluated on full coordinate vectors built with `vbasis`
through `LieAlgebra.bracket`, operator sums are `Mat` sums, ad(e_i) is
built column by column, and tensor maps go term by term on `Fraction`s
(`tensor2_map`, `tensor3_map`, the bodies `exact.tensor_map` replaced).  They are
slow and test-only; a certificate must not depend on which of the two
computed it.  `swapped()` runs the library with them in place, so whole
constructions can be compared as well.  The `dict_*` functions are the
integer dict kernels that the packed `lie.jacobiator` and
`reynolds.operator_brackets` replaced, with their callers.
"""

import contextlib
import importlib
from types import SimpleNamespace
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm
from operator import mul
from typing import Iterable

from algcert.certificates import Certificate, CheckFailed, residual_from_mat, scan
from algcert.bialgebra import _cotable
from algcert.cybe import PreLieAlgebra, ReynoldsPreLie, is_cybe_solution, r_plus
from algcert.exact import (ONE, ZERO, Mat, Table, Tensor2, Tensor3, Vec, flip, rat, rat_str,
                           sapply, saxpy, table_rows, vadd, vbasis, vec, vsub, vzero)
from algcert.lie import (LieAlgebra, Representation, block_rows, coadjoint_cols, double_table,
                         dual_basis, s_sharp)
from algcert.matched import MatchedPair, ReynoldsMatchedPair, is_reynolds_matched_pair
from algcert.reynolds import ReynoldsLieAlgebra, ReynoldsRep, induced_algebra, is_reynolds_rep
from algcert.rotabaxter import descendent, is_quadratic_rb


def _mm(a, b, cols: int) -> list:
    """a·b for matrices given by their rational rows, b with `cols` columns: entry (i, j) is
    the dot product of row i of a and column j of b."""
    bt = list(zip(*b)) or [()] * cols
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def matmul(a: Mat, b: Mat) -> Mat:
    return Mat(_mm(a.entries, b.entries, b.cols))


def _lin(mats, v, module_dim: int) -> Mat:
    out = Mat.zeros(module_dim, module_dim)
    for i, c in enumerate(v):
        if c != 0:
            out = out + mats[i].scale(c)
    return out


def _form_eval(gram: Mat, x, y) -> Fraction:
    gy = gram.apply(y)
    return sum((a * b for a, b in zip(x, gy)), ZERO)


def jacobi_check(L) -> Certificate:
    def cases():
        for i, j, k in combinations(range(L.dim), 3):
            ei, ej, ek = vbasis(L.dim, i), vbasis(L.dim, j), vbasis(L.dim, k)
            yield (i, j, k), vadd(
                vadd(L.bracket(L.bracket(ei, ej), ek), L.bracket(L.bracket(ej, ek), ei)),
                L.bracket(L.bracket(ek, ei), ej),
            )
    return scan("jacobi", cases())


def is_representation(rep) -> Certificate:
    L = rep.algebra
    return scan("representation", (
        ((i, j), _lin(rep.rho, L.bracket_basis(i, j), rep.module_dim)
         - (rep.rho[i] @ rep.rho[j] - rep.rho[j] @ rep.rho[i]))
        for i, j in combinations(range(L.dim), 2)))


def is_invariant_form(L, S) -> Certificate:
    n = L.dim
    return scan("invariant-form", (
        ((i, j, k), _form_eval(S.gram, L.bracket_basis(i, j), vbasis(n, k))
         + _form_eval(S.gram, vbasis(n, j), L.bracket_basis(i, k)))
        for i, j, k in product(range(n), repeat=3)))


def _induced_bracket(L, R: Mat, x, y):
    rx, ry = R.apply(x), R.apply(y)
    return vsub(
        tuple(a + b for a, b in zip(L.bracket(rx, y), L.bracket(x, ry))),
        L.bracket(rx, ry),
    )


def _reynolds_residual(L, R: Mat, x, y):
    rx, ry = R.apply(x), R.apply(y)
    return vsub(L.bracket(rx, ry), R.apply(_induced_bracket(L, R, x, y)))


def is_reynolds(L, R: Mat) -> Certificate:
    return scan("reynolds", (
        ((i, j), _reynolds_residual(L, R, vbasis(L.dim, i), vbasis(L.dim, j)))
        for i, j in combinations(range(L.dim), 2)))


def _rb_inner(L, B: Mat, lam: Fraction, x, y):
    return tuple(a + b + lam * c for a, b, c in zip(
        L.bracket(B.apply(x), y), L.bracket(x, B.apply(y)), L.bracket(x, y)))


def is_rota_baxter(L, B: Mat, lam) -> Certificate:
    lam = Fraction(lam)

    def residual(x, y):
        return vsub(L.bracket(B.apply(x), B.apply(y)), B.apply(_rb_inner(L, B, lam, x, y)))
    return scan("rota-baxter", (((i, j), residual(vbasis(L.dim, i), vbasis(L.dim, j)))
                                for i, j in combinations(range(L.dim), 2)))


def operator_form_compat(L, S, R: Mat, lam=None) -> Certificate:
    def value(ei, ej):
        val = _form_eval(S.gram, R.apply(ei), ej) + _form_eval(S.gram, ei, R.apply(ej))
        return val if lam is None else val + lam * _form_eval(S.gram, ei, ej)
    n = L.dim
    return scan("reynolds-compat" if lam is None else "rb-compat",
                (((i, j), value(vbasis(n, i), vbasis(n, j)))
                 for i, j in product(range(n), repeat=2)))


# -- NS-Lie products on dense vectors ---------------------------------------

def _on_integers(A, *mats):
    """A's two products as integer dicts and the matrices as integer rows, all D times
    theirs for D the lcm of every denominator (`integral`), and D: an NS identity, bilinear
    in them, comes out D² times too large."""
    left, wedge, *cols, den = integral(A.left, A.wedge, *mats)
    rows = [[[col.get(a, 0) for col in m] for a in range(len(m))] for m in cols]
    return SimpleNamespace(dim=A.dim, left=left, wedge=wedge), rows, den


def left_prod(A, x, y):
    out = [0] * A.dim
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in ys:
            comp = A.left.get((i, j))
            if comp:
                ab = a * b
                for k, c in comp.items():
                    out[k] += ab * c
    return tuple(out)


def wedge_prod(A, x, y):
    out = [0] * A.dim
    for (i, j), comp in A.wedge.items():
        if not (x[i] or x[j]) or not (y[i] or y[j]):
            continue
        coeff = x[i] * y[j] - x[j] * y[i]
        if not coeff:
            continue
        for k, c in comp.items():
            out[k] += coeff * c
    return tuple(out)


def _add(a, b):
    return tuple([x + y if y else x for x, y in zip(a, b)])


def _sub(a, b):
    return tuple([x - y if y else x for x, y in zip(a, b)])


def comm(A, x, y):
    return _add(_sub(left_prod(A, x, y), left_prod(A, y, x)), wedge_prod(A, x, y))


def _tables(A):
    """A's products of two basis vectors, ◁, ▷ and the commutator, each tabulated once."""
    e = [tuple([int(k == i) for k in range(A.dim)]) for i in range(A.dim)]
    return ([[f(A, x, y) for y in e] for x in e] for f in (left_prod, wedge_prod, comm))


def _comb(n: int, terms) -> tuple:
    """Σ c·v over the (c, v) in `terms`, v dense Fraction vectors of length n."""
    out = [0] * n
    for c, v in terms:
        if c:
            for k, x in enumerate(v):
                if x:
                    out[k] += c * x
    return tuple(out)


def is_nslie(A) -> Certificate:
    """Both identities at every ordered basis triple, on dense vectors (`_on_integers`).
    The products of two basis vectors are tabulated once, and so is each product of a
    tabulated one with a basis vector that the identities read: (e_i◁e_j)◁e_k,
    (e_i▷e_j)◁e_k, e_i◁(e_j◁e_k) and e_u▷[e_v,e_w] + e_u◁(e_v▷e_w), each a combination of
    the rows or columns of a table."""
    A, _, den = _on_integers(A)
    n = A.dim
    L, W, C = _tables(A)
    idx = range(n)

    def right(x, k):                        # x◁e_k
        return _comb(n, ((c, L[m][k]) for m, c in enumerate(x)))

    def left(table, i, x):                  # e_i◁x or e_i▷x
        return _comb(n, ((c, table[i][m]) for m, c in enumerate(x)))
    LL, WL = ([[[right(T[i][j], k) for k in idx] for j in idx] for i in idx] for T in (L, W))
    EL = [[[left(L, i, L[j][k]) for k in idx] for j in idx] for i in idx]
    X = [[[_add(left(W, u, C[v][w]), left(L, u, W[v][w])) for w in idx] for v in idx]
         for u in idx]

    def identity1(i, j, k):
        return _add(_sub(_sub(LL[i][j][k], EL[i][j][k]), _sub(LL[j][i][k], EL[j][i][k])),
                    WL[i][j][k])

    def identity2(i, j, k):
        return _add(_add(X[i][j][k], X[j][k][i]), X[k][i][j])

    triples = list(product(range(n), repeat=3))
    return Certificate.combine("nslie", [
        scan(name, ((t, identity(*t)) for t in triples), den * den)
        for name, identity in (("ns-identity-1", identity1), ("ns-identity-2", identity2))])


def _sum(m: int, terms) -> list:
    """Σ c·M over the (c, M) in `terms`, M given by its rational rows."""
    out = [[0] * m for _ in range(m)]
    for c, rows in terms:
        for acc, row in zip(out, rows):
            for j, y in enumerate(row):
                if y:
                    acc[j] += y if c == 1 else -y if c == -1 else c * y
    return out


def is_ns_rep(rep) -> Certificate:
    """The three identities per ordered basis pair on dense rows (`_on_integers`), as
    matrices {(a, b): c}; the products of two basis vectors are tabulated once, and the
    terms ρ(e_i◁e_j) − ρ(e_j◁e_i) + ρ(e_i▷e_j) are read as ρ([e_i,e_j])."""
    n, md = rep.base.dim, rep.module_dim
    A, rows, den = _on_integers(rep.base, *rep.varrho, *rep.mu, *rep.nu)
    L, W, C = _tables(A)
    vr, mu, nu = rows[:n], rows[n:2 * n], rows[2 * n:]
    # every product f(e_i)·g(e_j) of two action matrices, once
    MM, MN, NM, NN, NV, MV, VM, VN, VV = ([[_mm(a, b, md) for b in g] for a in f] for f, g in (
        (mu, mu), (mu, nu), (nu, mu), (nu, nu), (nu, vr), (mu, vr), (vr, mu), (vr, nu), (vr, vr)))

    def lin(mats, v):
        return [(c, mats[k]) for k, c in enumerate(v) if c]

    diffs = {}
    for i in range(n):
        for j in range(n):
            d1 = _sum(md, lin(mu, C[i][j]) + [(-1, MM[i][j]), (1, MM[j][i])])
            d2 = _sum(md, lin(nu, L[i][j]) + [(-1, MN[i][j]), (1, NM[j][i]), (-1, NN[j][i]),
                                              (1, NV[j][i])])
            d3 = _sum(md, lin(nu, W[i][j]) + [(-1, MV[j][i]), (1, VM[i][j]), (-1, VN[i][j]),
                                              (1, VN[j][i]), (-1, VV[j][i]), (1, VV[i][j]),
                                              (-1, VM[j][i]), (1, MV[i][j])]
                      + [(-c, m) for c, m in lin(vr, C[i][j])])
            diffs[i, j] = [{(a, b): c for a, row in enumerate(d) for b, c in enumerate(row) if c}
                           for d in (d1, d2, d3)]
    return Certificate.combine("ns-rep", [
        scan(name, ((ij, d[k]) for ij, d in diffs.items()), den * den)
        for k, name in enumerate(("ns-rep-1", "ns-rep-2", "ns-rep-3"))])


# -- constructions, as the structure-constant tables they produce ----------

def _comp(v):
    return {k: c for k, c in enumerate(v) if c != 0}


def _nonempty(table: dict) -> dict:
    return {key: comp for key, comp in table.items() if comp}


def induced_sc(L, R: Mat) -> dict:
    n = L.dim
    return _nonempty({(i, j): _comp(_induced_bracket(L, R, vbasis(n, i), vbasis(n, j)))
                      for i, j in combinations(range(n), 2)})


def descendent_sc(L, B: Mat, lam) -> dict:
    n = L.dim
    return _nonempty({(i, j): _comp(_rb_inner(L, B, Fraction(lam), vbasis(n, i), vbasis(n, j)))
                      for i, j in combinations(range(n), 2)})


def ns_from_reynolds_tables(L, R: Mat) -> tuple[dict, dict]:
    n = L.dim
    left = {(i, j): _comp(L.bracket(R.apply(vbasis(n, i)), vbasis(n, j)))
            for i in range(n) for j in range(n)}
    wedge = {(i, j): {k: -c for k, c in
                      _comp(L.bracket(R.apply(vbasis(n, i)), R.apply(vbasis(n, j)))).items()}
             for i, j in combinations(range(n), 2)}
    return _nonempty(left), _nonempty(wedge)


def ns_commutator_sc(A) -> dict:
    n = A.dim
    return _nonempty({(i, j): _comp(comm(A, vbasis(n, i), vbasis(n, j)))
                      for i, j in combinations(range(n), 2)})


# -- matched pairs and Reynolds representations -----------------------------

def _compat_cases(g, h, rho, mu):
    for i in range(g.dim):
        x = vbasis(g.dim, i)
        rho_x = rho.rho[i]
        for a, b in combinations(range(h.dim), 2):
            xi, eta = vbasis(h.dim, a), vbasis(h.dim, b)
            lhs = rho_x.apply(h.bracket_basis(a, b))
            rhs = vadd(
                vadd(h.bracket(rho_x.apply(xi), eta), h.bracket(xi, rho_x.apply(eta))),
                vsub(
                    rho.rho_vec(mu.rho[b].apply(x)).apply(xi),
                    rho.rho_vec(mu.rho[a].apply(x)).apply(eta),
                ),
            )
            yield (i, a, b), vsub(lhs, rhs)


def _compat_stages(g, h, rho, mu) -> list:
    return [scan("compat-on-h", _compat_cases(g, h, rho, mu)),
            scan("compat-on-g", _compat_cases(h, g, mu, rho))]


def compat_cases(R: Mat, rep, T: Mat):
    """((i, a), ρ(Re_i)(Tw_a) − T(ρ(e_i)(Tw_a) + ρ(Re_i)w_a − ρ(Re_i)(Tw_a))) over (i, a)."""
    for i in range(rep.algebra.dim):
        rho_rx = _lin(rep.rho, R.col(i), rep.module_dim)
        diff = rho_rx @ T - T @ (rep.rho[i] @ T + rho_rx - rho_rx @ T)
        for a in range(rep.module_dim):
            yield (i, a), diff.col(a)


def compat_certificate(R: Mat, rep, T: Mat) -> Certificate:
    return scan("compatibility", compat_cases(R, rep, T))


def induced_matched_pair(rmp):
    cert = is_reynolds_matched_pair(rmp)
    if not cert.ok:
        raise CheckFailed(cert)
    mp, Rg, Rh = rmp.pair, rmp.Rg, rmp.Rh
    g_ind = induced_algebra(ReynoldsLieAlgebra.unchecked(mp.g, Rg)).L
    h_ind = induced_algebra(ReynoldsLieAlgebra.unchecked(mp.h, Rh)).L
    rho_new = []
    for i in range(mp.g.dim):
        rho_rx = _lin(mp.rho.rho, Rg.apply(vbasis(mp.g.dim, i)), mp.h.dim)
        rho_new.append(mp.rho.rho[i] @ Rh + rho_rx - rho_rx @ Rh)
    mu_new = []
    for a in range(mp.h.dim):
        mu_rxi = _lin(mp.mu.rho, Rh.apply(vbasis(mp.h.dim, a)), mp.g.dim)
        mu_new.append(mp.mu.rho[a] @ Rg + mu_rxi - mu_rxi @ Rg)
    rho2 = Representation.unchecked(g_ind, mp.h.dim, rho_new, labels=mp.rho.labels)
    mu2 = Representation.unchecked(h_ind, mp.g.dim, mu_new, labels=mp.mu.labels)
    return MatchedPair(g_ind, h_ind, rho2, mu2)


def ad(L, i: int) -> Mat:
    return Mat.from_cols([L.bracket_basis(i, j) for j in range(L.dim)])


def ad_vec(L, x) -> Mat:
    return _lin([ad(L, i) for i in range(L.dim)], x, L.dim)


# -- the Fraction tensors the integer forms replaced ------------------------

def tensor_sum(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign·b on Fraction entries {index tuple: c}, zeros dropped."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, ZERO) + sign * c
    return {k: c for k, c in out.items() if c}


def tensor_scale(a: dict, c) -> dict:
    return {k: c * v for k, v in a.items() if c * v}


def tensor_flip(a: dict) -> dict:
    return {(j, i): c for (i, j), c in a.items()}


def tensor_is_skew(a: dict, dims: tuple) -> bool:
    return dims[0] == dims[1] and all(a.get((j, i)) == -c for (i, j), c in a.items())


# -- the CYBE layer ---------------------------------------------------------

def tensor2_map(f: Mat, g: Mat, t: Tensor2) -> Tensor2:
    """(f⊗g)(t) term by term on Fractions: the body `exact.tensor_map` replaced."""
    if f.cols != t.dim_left or g.cols != t.dim_right:
        raise ValueError("operator/tensor dimension mismatch in tensor2_map")
    data: dict = {}
    for (i, j), c in t.entries.items():
        gcol = g.icols[j]
        for a, fa in f.icols[i].items():
            fc = fa * c
            for b, gb in gcol.items():
                key = (a, b)
                data[key] = data.get(key, ZERO) + fc * gb
    den = f.den * g.den
    return Tensor2(f.rows, g.rows, {k: v / den for k, v in data.items()})


def tensor3_map(f: Mat, g: Mat, h: Mat, t: Tensor3) -> Tensor3:
    """(f⊗g⊗h)(t) term by term on Fractions: the body `exact.tensor_map` replaced."""
    if (f.cols, g.cols, h.cols) != t.dims:
        raise ValueError("operator/tensor dimension mismatch in tensor3_map")
    data: dict = {}
    for (i, j, k), c in t.entries.items():
        gcol, hcol = g.icols[j], h.icols[k]
        for a, fa in f.icols[i].items():
            for b, gb in gcol.items():
                fg = fa * gb * c
                for d, hd in hcol.items():
                    key = (a, b, d)
                    data[key] = data.get(key, ZERO) + fg * hd
    den = f.den * g.den * h.den
    return Tensor3((f.rows, g.rows, h.rows), {k: v / den for k, v in data.items()})


def cybe_bracket(g, r) -> Tensor3:
    n = g.dim
    data = {}

    def put(key, c):
        if c != 0:
            data[key] = data.get(key, Fraction(0)) + c

    items = list(r.items())
    for (i, j), c1 in items:
        for (k, l), c2 in items:
            c = c1 * c2
            for m, b in enumerate(g.bracket_basis(i, k)):
                put((m, j, l), c * b)
            for m, b in enumerate(g.bracket_basis(j, l)):
                put((i, k, m), c * b)
            for m, b in enumerate(g.bracket_basis(j, k)):
                put((i, m, l), c * b)
    return Tensor3((n, n, n), data)


def ad_invariance_cert(g, t) -> Certificate:
    ident = Mat.identity(g.dim)

    def residual(ad_k):
        return tensor2_map(ad_k, ident, t) + tensor2_map(ident, ad_k, t)
    return scan("ad-invariance", (((k,), residual(ad(g, k))) for k in range(g.dim)))


def reynolds_tensor_condition(R: Mat, r) -> Certificate:
    ident = Mat.identity(R.rows)
    res = tensor2_map(R, ident, r) + tensor2_map(ident, R, r)
    return scan("reynolds-tensor-condition", [(min(res.entries, default=()), res)])


def is_relative_rb(rel) -> Certificate:
    rep_cert = is_reynolds_rep(rel.rr)
    if not rep_cert.ok:
        return Certificate.combine("relative-rb", [rep_cert],
                                   note="invalid Reynolds representation")
    L, rep, K = rel.rr.base.L, rel.rr.rep, rel.K
    m = rep.module_dim

    def residual(u, v):
        ku, kv = K.apply(u), K.apply(v)
        rhs = K.apply(vsub(_lin(rep.rho, ku, m).apply(v), _lin(rep.rho, kv, m).apply(u)))
        return vsub(L.bracket(ku, kv), rhs)
    op_cert = scan("operator-identity", (((a, b), residual(vbasis(m, a), vbasis(m, b)))
                                         for a, b in combinations(range(m), 2)))
    diff = rel.rr.base.R @ K - K @ rel.rr.T
    if diff.is_zero():
        compat = Certificate.passed("rk-equals-kt")
    else:
        compat = Certificate.failed("rk-equals-kt", (0,), residual_from_mat(diff), 1)
    return Certificate.combine("relative-rb", [rep_cert, op_cert, compat])


def descendent_on_W(rel):
    cert = is_relative_rb(rel)
    if not cert.ok:
        raise CheckFailed(cert)
    rep, K = rel.rr.rep, rel.K
    m = rep.module_dim
    sc = {}
    for a, b in combinations(range(m), 2):
        u, v = vbasis(m, a), vbasis(m, b)
        sc[(a, b)] = _comp(vsub(_lin(rep.rho, K.apply(u), m).apply(v),
                                _lin(rep.rho, K.apply(v), m).apply(u)))
    return ReynoldsLieAlgebra(LieAlgebra(m, rep.labels, _nonempty(sc)), rel.rr.T)


def matched_from_relrb(rel):
    desc = descendent_on_W(rel)
    g = rel.rr.base.L
    rep, K = rel.rr.rep, rel.K
    m = rep.module_dim
    rho = Representation.unchecked(g, m, rep.rho, labels=rep.labels)
    mu_mats = []
    for a in range(m):
        u = vbasis(m, a)
        ku = K.apply(u)
        mu_mats.append(Mat.from_cols([
            vsub(K.apply(rep.rho[i].apply(u)), g.bracket(vbasis(g.dim, i), ku))
            for i in range(g.dim)]))
    mu = Representation.unchecked(desc.L, g.dim, mu_mats, labels=g.basis)
    return ReynoldsMatchedPair(MatchedPair(g, desc.L, rho, mu), rel.rr.base.R, rel.rr.T)


def prelie_from_relrb(rel):
    cert = is_relative_rb(rel)
    if not cert.ok:
        raise CheckFailed(cert)
    rep, K = rel.rr.rep, rel.K
    m = rep.module_dim
    prod = {}
    for a in range(m):
        mat = _lin(rep.rho, K.apply(vbasis(m, a)), m)
        for b in range(m):
            prod[(a, b)] = _comp(mat.col(b))
    return ReynoldsPreLie(PreLieAlgebra(m, rep.labels, _nonempty(prod)), rel.rr.T)


def prelie_from_invertible_relrb(rel):
    cert = is_relative_rb(rel)
    if not cert.ok:
        raise CheckFailed(cert)
    K = rel.K
    if K.rows != K.cols or K.det() == 0:
        raise ValueError("invertible variant requires a square invertible K")
    kinv = K.inverse()
    g = rel.rr.base.L
    n = g.dim
    prod = {(i, j): _comp(K.apply(rel.rr.rep.rho[i].apply(kinv.apply(vbasis(n, j)))))
            for i in range(n) for j in range(n)}
    return ReynoldsPreLie(PreLieAlgebra(n, g.basis, _nonempty(prod)), rel.rr.base.R)


def is_prelie(A) -> Certificate:
    """(x,y,z) − (y,x,z) on dense vectors, with the product read as `left_prod` reads ◁, on
    integers D times the product's (D² on the residual); the products (e_i·e_j)·e_k and
    e_i·(e_j·e_k) are tabulated once."""
    n = A.dim
    prod, den = integral(A.prod)
    P = SimpleNamespace(dim=n, left=prod)
    e = [tuple([int(k == i) for k in range(n)]) for i in range(n)]
    table = [[left_prod(P, x, y) for y in e] for x in e]
    idx = range(n)
    after = [[[left_prod(P, table[i][j], e[k]) for k in idx] for j in idx] for i in idx]
    before = [[[left_prod(P, e[i], table[j][k]) for k in idx] for j in idx] for i in idx]

    def residual(i, j, k):
        return vsub(vsub(after[i][j][k], before[i][j][k]), vsub(after[j][i][k], before[j][i][k]))
    return scan("pre-lie", (((i, j, k), residual(i, j, k))
                            for i, j in combinations(range(n), 2) for k in range(n)), den * den)


def is_reynolds_prelie(A, R: Mat) -> Certificate:
    base = is_prelie(A)
    n = A.dim

    def residual(x, y):
        rx, ry = R.apply(x), R.apply(y)
        lhs = A.prod_vec(rx, ry)
        inner = vsub(
            tuple(a + b for a, b in zip(A.prod_vec(rx, y), A.prod_vec(x, ry))),
            A.prod_vec(rx, ry),
        )
        return vsub(lhs, R.apply(inner))
    op = scan("reynolds-product", (((i, j), residual(vbasis(n, i), vbasis(n, j)))
                                   for i, j in product(range(n), repeat=2)))
    return Certificate.combine("reynolds-prelie", [base, op])


def subadjacent(rp):
    cert = is_reynolds_prelie(rp.A, rp.R)
    if not cert.ok:
        raise CheckFailed(cert)
    A = rp.A
    sc = {(i, j): _comp(vsub(A.prod_basis(i, j), A.prod_basis(j, i)))
          for i, j in combinations(range(A.dim), 2)}
    return ReynoldsLieAlgebra(LieAlgebra(A.dim, A.basis, _nonempty(sc)), rp.R)


def left_rep(rp):
    sub = subadjacent(rp)
    n = rp.A.dim
    mats = [Mat.from_cols([rp.A.prod_basis(i, j) for j in range(n)]) for i in range(n)]
    rep = Representation.unchecked(sub.L, n, mats, labels=rp.A.basis)
    return ReynoldsRep(sub, rep, rp.R)


# -- bialgebras and the r-matrix pipeline -----------------------------------

def delta_vec(deltas, v) -> Tensor2:
    n = deltas[0].dim_left
    out = Tensor2(n, n)
    for k, c in enumerate(v):
        if c != 0:
            out = out + deltas[k].scale(c)
    return out


def _eps(t: Tensor3) -> Tensor3:
    d = t.dims
    return Tensor3((d[2], d[0], d[1]), {(c, a, b): v for (a, b, c), v in t.entries.items()})


def is_lie_coalgebra(deltas) -> Certificate:
    n = len(deltas)
    skew = scan("coalgebra", (((k,), d + flip(d)) for k, d in enumerate(deltas)))
    if not skew.ok:
        return Certificate.failed("coalgebra", skew.where, skew.residual, skew.violations,
                                  note="cobracket is not skew")

    def co_jacobi(k):
        t = Tensor3((n, n, n))
        for (i, j), c in deltas[k].entries.items():
            for (a, b), c2 in deltas[j].entries.items():
                t = t + Tensor3((n, n, n), {(i, a, b): c * c2})
        e1 = _eps(t)
        return t + e1 + _eps(e1)
    return scan("coalgebra", (((k,), co_jacobi(k)) for k in range(n)))


def cocycle_residual(g, deltas, i: int, j: int) -> Tensor2:
    """Δ[e_i,e_j] − (ad_i⊗Id + Id⊗ad_i)Δe_j + (ad_j⊗Id + Id⊗ad_j)Δe_i, for any i, j."""
    ident, ad_i, ad_j = Mat.identity(g.dim), ad(g, i), ad(g, j)
    lhs = delta_vec(deltas, g.bracket_basis(i, j))
    rhs = (
        tensor2_map(ad_i, ident, deltas[j])
        + tensor2_map(ident, ad_i, deltas[j])
        - tensor2_map(ad_j, ident, deltas[i])
        - tensor2_map(ident, ad_j, deltas[i])
    )
    return lhs - rhs


def cocycle_check(g, deltas) -> Certificate:
    return scan("cocycle", (((i, j), cocycle_residual(g, deltas, i, j))
                            for i, j in combinations(range(g.dim), 2)))


def is_reynolds_coalgebra(deltas, R: Mat) -> Certificate:
    n = len(deltas)
    if R.rows != n or R.cols != n:
        raise ValueError("operator shape does not match the coalgebra")
    ident = Mat.identity(n)

    def residual(k):
        delta_rk = delta_vec(deltas, R.col(k))
        rhs = (tensor2_map(R, ident, delta_rk) + tensor2_map(ident, R, delta_rk)
               - tensor2_map(R, R, delta_rk))
        return tensor2_map(R, R, deltas[k]) - rhs
    return scan("reynolds-coalgebra", (((k,), residual(k)) for k in range(n)))


def coboundary_cobracket(g, r) -> list:
    ident = Mat.identity(g.dim)
    return [tensor2_map(ad(g, k), ident, r) + tensor2_map(ident, ad(g, k), r)
            for k in range(g.dim)]


def coboundary_conditions(g, r) -> Certificate:
    ident = Mat.identity(g.dim)
    inv = ad_invariance_cert(g, r + flip(r))._replace(check="symmetric-part-invariance")
    rr = cybe_bracket(g, r)

    def residual(ad_k):
        return (tensor3_map(ad_k, ident, ident, rr) + tensor3_map(ident, ad_k, ident, rr)
                + tensor3_map(ident, ident, ad_k, rr))
    cy = scan("cybe-bracket-invariance", (((k,), residual(ad(g, k))) for k in range(g.dim)))
    return Certificate.combine("coboundary-conditions", [inv, cy])


def reynolds_coboundary_condition(g, R: Mat, r) -> Certificate:
    ident = Mat.identity(g.dim)
    s = tensor2_map(R, ident, r) + tensor2_map(ident, R, r)

    def residual(k):
        ad_rk, ad_k = ad_vec(g, R.col(k)), ad(g, k)
        return (tensor2_map(ad_rk, ident, s) + tensor2_map(ident, ad_rk, s)
                + tensor2_map(R @ ad_rk, ident, s) + tensor2_map(ident, R @ ad_rk, s)
                - tensor2_map(R @ ad_k, ident, s) - tensor2_map(ident, R @ ad_k, s))
    return scan("reynolds-coboundary", (((k,), residual(k)) for k in range(g.dim)))


def dual_bracket_from_r(g, r):
    inv = ad_invariance_cert(g, r + flip(r))._replace(check="symmetric-part-invariance")
    if not inv.ok:
        raise CheckFailed(inv)
    n = g.dim
    rp = r_plus(r)
    rm = -rp.transpose()
    sc = {}
    for a, b in combinations(range(n), 2):
        coad_rp = -ad_vec(g, rp.col(a)).transpose()
        coad_rm = -ad_vec(g, rm.col(b)).transpose()
        sc[(a, b)] = _comp(vsub(coad_rp.col(b), coad_rm.col(a)))
    return LieAlgebra(n, dual_basis(g.basis), _nonempty(sc))


def r_from_qrb(qrb) -> Tensor2:
    cert = is_quadratic_rb(qrb.rb, qrb.S)
    if not cert.ok:
        raise CheckFailed(cert)
    L = qrb.rb.L
    n = L.dim
    m = qrb.rb.B @ qrb.S.gram.inverse()
    r = Tensor2(n, n, {(i, j): m.entries[j][i] for i in range(n) for j in range(n)})
    cy = is_cybe_solution(L, r)
    if not cy.ok:
        raise CheckFailed(cy)
    dual = dual_bracket_from_r(L, r)
    sharp = s_sharp(qrb.S)
    desc = descendent(qrb.rb)
    compat = scan("descendent-compatibility", (
        ((i, j), vsub(dual.bracket(sharp.col(i), sharp.col(j)),
                      sharp.apply(desc.bracket_basis(i, j))))
        for i, j in combinations(range(n), 2)))
    if not compat.ok:
        raise CheckFailed(compat)
    return r


# -- the dense matrix and the per-call integer tables ---------------------------

# `Mat`, `Table` and the tensors store their integer forms (nonzero integer
# coefficients on one canonical denominator) and `integral` reads them.  These
# are the bodies they replaced: a dense matrix of Fraction rows, and the integer
# tables built from the Fractions on every call.

class DenseMat:
    """The dense `Mat` the sparse one replaced: rows of Fractions, zeros included."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple([tuple([rat(c) for c in row]) for row in entries])
        self.entries: tuple[tuple[Fraction, ...], ...] = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def _of(cls, rows) -> "DenseMat":
        """A matrix from rows of Fractions, taken as they are: no coercion, no shape check."""
        m = object.__new__(cls)
        m.entries = tuple([tuple(row) for row in rows])
        m.rows = len(m.entries)
        m.cols = len(m.entries[0]) if m.entries else 0
        return m

    def _same_shape(self, other: "DenseMat") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMat":
        return cls._of([ZERO] * cols for _ in range(rows))

    @classmethod
    def identity(cls, n: int) -> "DenseMat":
        return cls._of([ONE if i == j else ZERO for j in range(n)] for i in range(n))

    @classmethod
    def from_cols(cls, cols: Iterable[Vec]) -> "DenseMat":
        cols = [vec(c) for c in cols]
        if not cols:
            return cls.zeros(0, 0)
        n = len(cols[0])
        return cls._of([c[i] for c in cols] for i in range(n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(c) for c in row) for row in self.entries)
        return f"Mat[{body}]"

    def __add__(self, other: "DenseMat") -> "DenseMat":
        self._same_shape(other)
        return DenseMat._of([a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries))

    def __sub__(self, other: "DenseMat") -> "DenseMat":
        self._same_shape(other)
        return DenseMat._of([a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries))

    def __neg__(self) -> "DenseMat":
        return DenseMat._of([-a for a in row] for row in self.entries)

    def __matmul__(self, other: "DenseMat") -> "DenseMat":
        if self.cols != other.rows:
            raise ValueError(
                f"matrix product shape mismatch: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        out = []
        for row in self.entries:
            acc = [ZERO] * other.cols
            for a, orow in zip(row, other.entries):
                if a:
                    for k, b in enumerate(orow):
                        if b:
                            acc[k] += a * b
            out.append(acc)
        return DenseMat._of(out)

    def scale(self, c) -> "DenseMat":
        c = rat(c)
        return DenseMat._of([c * a for a in row] for row in self.entries)

    def apply(self, v: Vec) -> Vec:
        """Exact matrix-vector product (column-vector convention)."""
        if self.cols != len(v):
            raise ValueError(f"cannot apply {self.rows}x{self.cols} to vector of length {len(v)}")
        nonzero = [(k, x) for k, x in enumerate(v) if x]
        return tuple([sum((row[k] * x for k, x in nonzero if row[k]), ZERO)
                      for row in self.entries])

    def transpose(self) -> "DenseMat":
        """Matrix of the dual map in dual bases."""
        return DenseMat._of(zip(*self.entries))

    def col(self, j: int) -> Vec:
        return tuple([row[j] for row in self.entries])

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def det(self) -> Fraction:
        """Exact determinant by fraction-pivoting Gaussian elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        work = [list(row) for row in self.entries]
        det = ONE
        for j in range(n):
            pivot = next((i for i in range(j, n) if work[i][j] != 0), None)
            if pivot is None:
                return ZERO
            if pivot != j:
                work[j], work[pivot] = work[pivot], work[j]
                det = -det
            det *= work[j][j]
            inv = 1 / work[j][j]
            for i in range(j + 1, n):
                if work[i][j] == 0:
                    continue
                factor = work[i][j] * inv
                for k in range(j, n):
                    work[i][k] -= factor * work[j][k]
        return det

    def inverse(self) -> "DenseMat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) + [ONE if i == k else ZERO for k in range(n)]
                for i, row in enumerate(self.entries)]
        for j in range(n):
            pivot = next((i for i in range(j, n) if work[i][j] != 0), None)
            if pivot is None:
                raise ValueError("singular matrix has no inverse")
            work[j], work[pivot] = work[pivot], work[j]
            inv = 1 / work[j][j]
            work[j] = [a * inv for a in work[j]]
            for i in range(n):
                if i != j and work[i][j] != 0:
                    factor = work[i][j]
                    work[i] = [a - factor * b for a, b in zip(work[i], work[j])]
        return DenseMat._of(row[n:] for row in work)

    def submatrix(self, row_ids: Iterable[int], col_ids: Iterable[int]) -> "DenseMat":
        rows = list(row_ids)
        cols = list(col_ids)
        return DenseMat._of([self.entries[i][j] for j in cols] for i in rows)

    @staticmethod
    def block_diag(a: "DenseMat", b: "DenseMat") -> "DenseMat":
        """Block-diagonal assembly; first factor block then second."""
        out = [
            list(row) + [ZERO] * b.cols for row in a.entries
        ] + [
            [ZERO] * a.cols + list(row) for row in b.entries
        ]
        return DenseMat._of(out)


def scols(m) -> list:
    """The nonzero entries of each column of a `Mat` or `DenseMat`."""
    return [{i: c for i, c in enumerate(col) if c != 0} for col in zip(*m.entries)]


def integral(*tables):
    """Each `Table`, tensor, list of sparse vectors or matrix (as its sparse columns) times D,
    on ``int``s, followed by D, the lcm of all the coefficients' denominators."""
    def rational(t):            # the sparse vectors of t's Fraction coefficients, read once
        if isinstance(t, (Mat, DenseMat)):
            return [dict(enumerate(col)) for col in zip(*t.entries)]
        if isinstance(t, Table):
            return dict(t.items())
        if isinstance(t, (Tensor2, Tensor3)):
            return {None: t.entries}
        return list(t)
    bodies = [rational(t) for t in tables]
    den = lcm(*{c.denominator for b in bodies
                for v in (b.values() if isinstance(b, dict) else b) for c in v.values()})

    def scale(v):
        return {k: c.numerator * (den // c.denominator) for k, c in v.items() if c}
    return (*[scale(b[None]) if None in b else {key: scale(v) for key, v in b.items()}
              if isinstance(b, dict) else [scale(v) for v in b] for b in bodies], den)


def coefficients(body) -> list:
    """The coefficients of an integer form's body: a `Table`'s {(i, j): {k: c}}, a tensor's
    {index tuple: c}, or sparse vectors (a matrix's columns)."""
    if isinstance(body, dict):
        values = list(body.values())
        return ([c for v in values for c in v.values()] if values and isinstance(values[0], dict)
                else values)
    return [c for v in body for c in v.values()]


def stale_forms(*objs) -> list:
    """Every `Mat`, `Table`, `Tensor2` and `Tensor3` reachable from objs (through slots, dicts,
    lists and tuples, so also through the certificates and arguments a `Checked` structure's
    `carried` slot holds) whose integer form is not canonical (a zero coefficient, or
    gcd(den, every coefficient) ≠ 1) or not a fresh `integral` of its entries."""
    seen, todo, stale = set(), list(objs), []
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (int, str, Fraction, type(None))):
            continue
        seen.add(id(x))
        if isinstance(x, (Mat, Table, Tensor2, Tensor3)):
            body, den = x.form
            coeffs = coefficients(body)
            fresh, fresh_den = integral(DenseMat(x.entries) if isinstance(x, Mat) else x)
            if isinstance(x, Mat):
                fresh = tuple(fresh)
            if (not all(coeffs) or den < 1 or gcd(den, *coeffs) != 1
                    or x.form != (fresh, fresh_den)):
                stale.append(x)
        if isinstance(x, dict):
            todo += [*x.keys(), *x.values()]
        elif isinstance(x, (list, tuple)):
            todo += x
        else:
            todo += [getattr(x, s) for c in type(x).__mro__ for s in getattr(c, "__slots__", ())
                     if not isinstance(getattr(type(x), s, None), property)]
    return stale


# -- the integer dict kernels the packed ones replaced ------------------------

# `lie.jacobiator` and `reynolds.operator_brackets` combine packed vectors (one
# ``int`` per vector); these are their dict bodies and callers as they were
# before, per-entry ``{k: c}`` updates on the same integer tables.  They are
# fast enough for the dense conjugates and ±max tables of `test_packed.py`.

def dict_jacobiator(rows, outer, x: int, y: int, z: int) -> dict:
    """J(e_x,e_y,e_z) = Σ_cyc Σ_m rows[a][b][m]·outer[m][c], `outer` the rows cut to a block."""
    out: dict = {}
    for prod, c in ((rows[x].get(y), z), (rows[y].get(z), x), (rows[z].get(x), y)):
        if prod:
            for m, coeff in prod.items():
                col = outer[m].get(c)
                if col:
                    for k, v in col.items():
                        out[k] = out.get(k, 0) + coeff * v
    return out


def dict_jacobi_check(L) -> Certificate:
    sc, den = integral(L.sc)
    rows = table_rows(sc, L.dim, True)
    return scan("jacobi", (((i, j, k), dict_jacobiator(rows, rows, i, j, k))
                           for i, j, k in combinations(range(L.dim), 3)), den * den)


def dict_is_representation(rep) -> Certificate:
    n, m = rep.algebra.dim, rep.module_dim
    sc, *cols, den = integral(rep.algebra.sc, *[scols(x) for x in rep.rho])
    rows, wrows = table_rows(sc, n, True), [{} for _ in range(m)]
    for i, row in enumerate(rows):
        for b, col in enumerate(cols[i]):
            if col:
                row[n + b] = {n + k: c for k, c in col.items()}
                wrows[b][i] = {n + k: -c for k, c in col.items()}
    rows += wrows

    def residual(i, j):
        return {(a - n, b): c for b in range(m)
                for a, c in dict_jacobiator(rows, rows, i, j, n + b).items()}
    return scan("representation", (((i, j), residual(i, j))
                                   for i, j in combinations(range(n), 2)), den * den)


def dict_compat_stages(g, h, rho, mu) -> list:
    n, m = g.dim, h.dim
    gsc, hsc, *cols, den = integral(g.sc, h.sc, *[scols(x) for x in rho.rho + mu.rho])
    rows = table_rows(double_table(gsc, hsc, cols[:n], cols[n:]), n + m, True)
    on_h, on_g = block_rows(rows, n, n + m), block_rows(rows, 0, n)
    return [
        scan("compat-on-h", (((i, a, b), dict_jacobiator(rows, on_h, i, n + a, n + b))
                             for i in range(n) for a, b in combinations(range(m), 2)), -den * den),
        scan("compat-on-g", (((a, i, j), dict_jacobiator(rows, on_g, n + a, i, j))
                             for a in range(m) for i, j in combinations(range(n), 2)), -den * den),
    ]


def dict_cocycle_check(g, deltas) -> Certificate:
    n = g.dim
    sc, co, den = integral(g.sc, _cotable(deltas, False))
    rows = table_rows(double_table(sc, {}, coadjoint_cols(table_rows(sc, n, True), n),
                                   coadjoint_cols(table_rows(co, n), n)), 2 * n, True)
    outer = block_rows(rows, 0, n)

    def residual(i, j):
        return {(a, b): c for a in range(n)
                for b, c in dict_jacobiator(rows, outer, i, j, n + a).items()}
    return scan("cocycle", (((i, j), residual(i, j))
                            for i, j in combinations(range(n), 2)), den * den)


def dict_is_lie_coalgebra(deltas) -> Certificate:
    n = len(deltas)
    skew = scan("coalgebra", (((k,), d + flip(d)) for k, d in enumerate(deltas)))
    if not skew.ok:
        return skew._replace(note="cobracket is not skew")
    co, den = integral(_cotable(deltas, True))
    rows = table_rows(co, n, True)
    out: list = [{} for _ in range(n)]
    for x, y, z in combinations(range(n), 3):
        for k, c in dict_jacobiator(rows, rows, x, y, z).items():
            out[k].update({(x, y, z): c, (y, z, x): c, (z, x, y): c,
                           (x, z, y): -c, (z, y, x): -c, (y, x, z): -c})
    return scan("coalgebra", (((k,), v) for k, v in enumerate(out)), -den * den)


def _ad_rows(rows, cols) -> list:
    """ad[a][j] = (Σ_i cols[a][i]·e_i)·e_j, term by term over the rows (cancelled zeros kept)."""
    out = []
    for col in cols:
        ad: dict = {}
        for i, c in col.items():
            for j, comp in rows[i].items():
                acc = ad.setdefault(j, {})
                for k, v in comp.items():
                    acc[k] = acc.get(k, 0) + c * v
        out.append(ad)
    return out


def _row_prod(row: dict, y: dict) -> dict:
    """Σ_j y_j·row[j], the product of the vector with row {j: x·e_j} and y (zeros kept)."""
    out: dict = {}
    for j, b in y.items():
        for k, v in row.get(j, {}).items():
            out[k] = out.get(k, 0) + b * v
    return out


def dict_operator_brackets(table, P: Mat, Q: Mat, pairs, lam, kappa):
    """(cols, d, s, brackets): integer columns of d·Q, and (i, j, pq, inner) per pair on the
    scales s·d and s, as sparse integer vectors."""
    if isinstance(table, Table):
        sc, den = integral(table)
        rows = table_rows(sc, table.dim, table.skew)
    else:
        *mats, den = integral(*[scols(m) for m in table])
        rows = [dict(enumerate(m)) for m in mats]
    cols, d = integral(Q)
    pcols, p = (cols, d) if P is Q else integral(P)
    q = lcm(lam.denominator, kappa.denominator)
    lam_q, kappa_q = int(lam * q), int(kappa * q)
    adr = _ad_rows(rows, pcols)
    lookup = P is Q and getattr(table, "skew", False)

    def brackets():
        for i, j in pairs:
            pq = _row_prod(adr[i], cols[j])
            inner = saxpy({}, q * d, adr[i].get(j, {}))
            if lookup:
                saxpy(inner, -q * d, adr[j].get(i, {}))
            else:
                saxpy(inner, q * p, _row_prod(rows[i], cols[j]))
            saxpy(inner, lam_q * p * d, rows[i].get(j, {}))
            saxpy(inner, kappa_q, pq)
            yield i, j, saxpy({}, q * d, pq), inner
    return cols, d, q * den * p * d, brackets()


def dict_operator_identity(check: str, table, P: Mat, Q: Mat, pairs, lam, kappa) -> Certificate:
    cols, d, s, brackets = dict_operator_brackets(table, P, Q, pairs, lam, kappa)
    return scan(check, (((i, j), saxpy(pq, -1, sapply(cols, inner)))
                        for i, j, pq, inner in brackets), s * d)


def dict_inner_products(table, P: Mat, Q: Mat, pairs, lam, kappa) -> tuple[dict, int]:
    _, _, s, brackets = dict_operator_brackets(table, P, Q, pairs, lam, kappa)
    return {(i, j): inner for i, j, _, inner in brackets}, s


# -- every evaluation path at once ------------------------------------------

# (module, name) -> dense replacement, for `swapped`: the evaluation paths of the
# matched-pair, bialgebra and CYBE layers (the Jacobi and Reynolds kernels stay
# sparse there; the tests above compare them on their own)
SWAPS = {
    ("lie", "is_representation"): is_representation,
    ("reynolds", "compat_certificate"): compat_certificate,
    ("matched", "_compat_stages"): _compat_stages,
    ("cybe", "cybe_bracket"): cybe_bracket,
    ("cybe", "ad_invariance_cert"): ad_invariance_cert,
    ("cybe", "is_relative_rb"): is_relative_rb,
    ("cybe", "is_prelie"): is_prelie,
    ("cybe", "is_reynolds_prelie"): is_reynolds_prelie,
    ("cybe", "descendent_on_W"): descendent_on_W,
    ("cybe", "matched_from_relrb"): matched_from_relrb,
    ("cybe", "prelie_from_relrb"): prelie_from_relrb,
    ("cybe", "prelie_from_invertible_relrb"): prelie_from_invertible_relrb,
    ("cybe", "subadjacent"): subadjacent,
    ("cybe", "left_rep"): left_rep,
    ("matched", "induced_matched_pair"): induced_matched_pair,
    ("cybe", "reynolds_tensor_condition"): reynolds_tensor_condition,
    ("bialgebra", "is_lie_coalgebra"): is_lie_coalgebra,
    ("bialgebra", "is_reynolds_coalgebra"): is_reynolds_coalgebra,
    ("bialgebra", "cocycle_check"): cocycle_check,
    ("bialgebra", "coboundary_cobracket"): coboundary_cobracket,
    ("bialgebra", "coboundary_conditions"): coboundary_conditions,
    ("bialgebra", "reynolds_coboundary_condition"): reynolds_coboundary_condition,
    ("rotabaxter", "dual_bracket_from_r"): dual_bracket_from_r,
    ("rotabaxter", "r_from_qrb"): r_from_qrb,
}
MODULES = ("lie", "reynolds", "nslie", "matched", "cybe", "bialgebra", "rotabaxter")


@contextlib.contextmanager
def swapped():
    """Run the library with every check above replaced by its dense body.

    Each replacement is installed in every algcert module that binds the
    library function under its name (modules import checks from each
    other), and `LieAlgebra.ad_vec` becomes a sum of `Mat`s; all of it is
    restored on exit.
    """
    mods = {m: importlib.import_module(f"algcert.{m}") for m in MODULES}
    saved = []
    for (home, name), fn in SWAPS.items():
        original = getattr(mods[home], name)
        for mod in mods.values():
            if getattr(mod, name, None) is original:
                saved.append((mod, name, original))
                setattr(mod, name, fn)
    lie = mods["lie"]
    saved.append((lie.LieAlgebra, "ad_vec", lie.LieAlgebra.ad_vec))
    lie.LieAlgebra.ad_vec = ad_vec
    try:
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
