"""The classical Yang-Baxter equation in Reynolds Lie algebras.

Solutions here must satisfy both [[r,r]] = 0 and (R⊗Id + Id⊗R)(r) = 0.
Relative Rota-Baxter operators and Reynolds pre-Lie algebras manufacture
such solutions inside semidirect product Reynolds Lie algebras.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .certificates import Certificate, Checked, require, scan, verified
from .exact import (ONE, ZERO, Mat, Rows, Table, Tensor2, Tensor3, Vec, action_rows, dense, flip,
                    precompose, sapply, saxpy, scols, sprod, tensor2_map)
from .lie import LieAlgebra, Representation, default_basis, dual_rep, semidirect
from .matched import MatchedPair, ReynoldsMatchedPair
from .reynolds import (
    ReynoldsLieAlgebra,
    ReynoldsRep,
    is_reynolds_rep,
    operator_identity,
)


def cybe_bracket(g: LieAlgebra, r: Tensor2) -> Tensor3:
    """[[r,r]] = [r12,r13] + [r13,r23] + [r12,r23] as an order-3 tensor."""
    if r.dim_left != g.dim or r.dim_right != g.dim:
        raise ValueError("tensor must live on g⊗g")
    n = g.dim
    rows = g.sc.rows()
    data: dict[tuple[int, int, int], Fraction] = {}

    def put(key, c):
        data[key] = data.get(key, ZERO) + c

    items = list(r.entries.items())
    for (i, j), c1 in items:
        for (k, l), c2 in items:
            c = c1 * c2
            for m, b in rows[i].get(k, {}).items():
                put((m, j, l), c * b)
            for m, b in rows[j].get(l, {}).items():
                put((i, k, m), c * b)
            for m, b in rows[j].get(k, {}).items():
                put((i, m, l), c * b)
    return Tensor3((n, n, n), data)


def ad_on_tensor(rows: Rows, k: int, t: Tensor2) -> dict:
    """(ad_{e_k}⊗Id + Id⊗ad_{e_k})(t) entrywise, for the bracket table `rows`."""
    out: dict = {}
    for (i, j), a in t.entries.items():
        for m, b in rows[k].get(i, {}).items():
            out[m, j] = out.get((m, j), ZERO) + a * b
        for m, b in rows[k].get(j, {}).items():
            out[i, m] = out.get((i, m), ZERO) + a * b
    return out


@verified
def ad_invariance_cert(g: LieAlgebra, t: Tensor2, name: str = "ad-invariance") -> Certificate:
    """(ad_x⊗Id + Id⊗ad_x)(t) = 0 for every basis x."""
    rows = g.sc.rows()
    return scan(name, (((k,), ad_on_tensor(rows, k, t)) for k in range(g.dim)))


@verified
def is_cybe_solution(g: LieAlgebra, r: Tensor2) -> Certificate:
    """[[r,r]] = 0."""
    rr = cybe_bracket(g, r)
    return scan("cybe", [(min(rr.entries, default=()), rr)])


@verified
def reynolds_tensor_condition(R: Mat, r: Tensor2) -> Certificate:
    """(R⊗Id + Id⊗R)(r) = 0."""
    ident = Mat.identity(R.rows)
    res = tensor2_map(R, ident, r) + tensor2_map(ident, R, r)
    return scan("reynolds-tensor-condition", [(min(res.entries, default=()), res)])


@verified
def is_cybe_solution_reynolds(A: ReynoldsLieAlgebra, r: Tensor2) -> Certificate:
    """CYBE in the Reynolds Lie algebra: both conditions exactly."""
    parts = [is_cybe_solution(A.L, r), reynolds_tensor_condition(A.R, r)]
    return Certificate.combine("reynolds-cybe", parts)


def r_plus(r: Tensor2) -> Mat:
    """The induced map g*→g, ξ ↦ r(ξ,·), as a matrix in dual bases."""
    n = r.dim_left
    m = [[Fraction(0)] * n for _ in range(r.dim_right)]
    for (i, j), c in r.entries.items():
        m[j][i] = c
    return Mat(m)


# ---------------------------------------------------------------------------
# relative Rota-Baxter operators
# ---------------------------------------------------------------------------

class RelativeRB(Checked):
    """K: W→g with [Ku,Kv] = K(rho(Ku)v − rho(Kv)u) and R∘K = K∘T."""

    __slots__ = ("rr", "K")

    def __init__(self, rr: ReynoldsRep, K: Mat, check: bool = True):
        if K.rows != rr.base.L.dim or K.cols != rr.rep.module_dim:
            raise ValueError("K must map the module into the algebra")
        self.rr = rr
        self.K = K
        if check:
            require(is_relative_rb(self))


@verified
def is_relative_rb(rel: RelativeRB) -> Certificate:
    """Representation validity, the operator identity, and R∘K = K∘T."""
    rep_cert = is_reynolds_rep(rel.rr)
    if not rep_cert.ok:
        return Certificate.combine("relative-rb", [rep_cert],
                                   note="invalid Reynolds representation")
    L = rel.rr.base.L
    rows = L.sc.rows()
    kcols = scols(rel.K)
    desc = _descendent_sc(rel)

    def residual(a, b):
        out = sprod(rows, kcols[a], kcols[b])
        return saxpy(out, -ONE, sapply(kcols, desc[a, b]))
    op_cert = scan("operator-identity", (((a, b), residual(a, b)) for a, b in desc))
    compat = scan("rk-equals-kt", [((0,), rel.rr.base.R @ rel.K - rel.K @ rel.rr.T)])
    return Certificate.combine("relative-rb", [rep_cert, op_cert, compat])


def _k_action(rel: RelativeRB):
    """rows[a][b] = rho(Ke_a)e_b, as a table on the module's basis indices."""
    return precompose(action_rows(rel.rr.rep.rho), scols(rel.K))


def _descendent_sc(rel: RelativeRB) -> dict[tuple[int, int], dict[int, Fraction]]:
    """[e_a,e_b]_K = rho(Ke_a)e_b − rho(Ke_b)e_a for a<b (cancelled zeros kept)."""
    rk = _k_action(rel)
    sc = {}
    for a, b in combinations(range(rel.rr.rep.module_dim), 2):
        comp = dict(rk[a].get(b, {}))
        sc[a, b] = saxpy(comp, -ONE, rk[b].get(a, {}))
    return sc


@verified
def descendent_on_W(rel: RelativeRB) -> ReynoldsLieAlgebra:
    """Bracket [u,v]_K = rho(Ku)v − rho(Kv)u on W with operator T."""
    require(is_relative_rb(rel))
    rep = rel.rr.rep
    W = LieAlgebra(rep.module_dim, rep.labels, _descendent_sc(rel))
    return ReynoldsLieAlgebra(W, rel.rr.T)


@verified
def matched_from_relrb(rel: RelativeRB) -> ReynoldsMatchedPair:
    """((g,R), (W_K,T); rho, mu) with mu(u)x = K(rho(x)u) − [x,Ku]."""
    desc = descendent_on_W(rel)
    g = rel.rr.base.L
    rep = rel.rr.rep
    m = rep.module_dim
    rho = Representation(g, m, rep.rho, labels=rep.labels, check=False)
    rows = g.sc.rows()
    act = action_rows(rep.rho)
    kcols = scols(rel.K)
    mu_mats = []
    for a, ku in enumerate(kcols):
        cols = []
        for i in range(g.dim):
            col = sapply(kcols, act[i].get(a, {}))
            cols.append(dense(g.dim, saxpy(col, -ONE, sprod(rows, {i: ONE}, ku))))
        mu_mats.append(Mat.from_cols(cols))
    mu = Representation(desc.L, g.dim, mu_mats, labels=g.basis, check=False)
    pair = MatchedPair(g, desc.L, rho, mu)
    return ReynoldsMatchedPair(pair, rel.rr.base.R, rel.rr.T)


@verified
def rk_solution(rel: RelativeRB) -> tuple[ReynoldsLieAlgebra, Tensor2]:
    """Embed K into g⋉W* and return the skew solution r_K = K̄ − σ(K̄).

    With blocks ordered (g, W*), K̄ places K's entries at
    (W*-row n+i, g-column a): pairing K̄(ξ+u, η+v) = ⟨Ku, η⟩.
    """
    require(is_relative_rb(rel))
    base, rep, K = rel.rr.base, rel.rr.rep, rel.K
    n, m = base.L.dim, rep.module_dim
    big = semidirect(base.L, dual_rep(rep))
    op = Mat.block_diag(base.R, -rel.rr.T.transpose())
    ambient = ReynoldsLieAlgebra(big, op)
    kbar = Tensor2(n + m, n + m,
                   {(n + i, a): K.entries[a][i] for a in range(n) for i in range(m)
                    if K.entries[a][i] != 0})
    r_k = kbar - flip(kbar)
    require(is_cybe_solution_reynolds(ambient, r_k))
    return ambient, r_k


# ---------------------------------------------------------------------------
# pre-Lie algebras
# ---------------------------------------------------------------------------

class PreLieAlgebra(Checked):
    """Product with left-symmetric associator: (x,y,z) = (y,x,z)."""

    __slots__ = ("dim", "basis", "prod")

    def __init__(self, dim: int, basis=None, prod=None, check: bool = True):
        self.dim = dim
        self.basis = tuple(basis) if basis is not None else default_basis(dim)
        if len(self.basis) != dim:
            raise ValueError("basis label count must equal dim")
        self.prod = Table(dim, prod)
        if check:
            require(is_prelie(self))

    def prod_basis(self, i: int, j: int) -> Vec:
        return self.prod.basis_prod(i, j)

    def prod_vec(self, x: Vec, y: Vec) -> Vec:
        return self.prod.prod(x, y)


@verified
def is_prelie(A: PreLieAlgebra) -> Certificate:
    """Left-symmetry of the associator over all basis triples."""
    n = A.dim
    rows = A.prod.rows()

    def residual(i, j, k):
        # (e_ie_j − e_je_i)e_k − e_i(e_je_k) + e_j(e_ie_k)
        comm = dict(rows[i].get(j, {}))
        saxpy(comm, -ONE, rows[j].get(i, {}))
        out = sprod(rows, comm, {k: ONE})
        saxpy(out, -ONE, sprod(rows, {i: ONE}, rows[j].get(k, {})))
        return saxpy(out, ONE, sprod(rows, {j: ONE}, rows[i].get(k, {})))
    return scan("pre-lie", (((i, j, k), residual(i, j, k))
                            for i, j in combinations(range(n), 2) for k in range(n)))


class ReynoldsPreLie(Checked):
    __slots__ = ("A", "R")

    def __init__(self, A: PreLieAlgebra, R: Mat, check: bool = True):
        if R.rows != A.dim or R.cols != A.dim:
            raise ValueError("operator shape does not match the algebra")
        self.A = A
        self.R = R
        if check:
            require(is_reynolds_prelie(A, R))


@verified
def is_reynolds_prelie(A: PreLieAlgebra, R: Mat) -> Certificate:
    """{Rx,Ry} = R({Rx,y} + {x,Ry} − {Rx,Ry}) over all ordered basis pairs."""
    if R.rows != A.dim or R.cols != A.dim:
        raise ValueError("operator shape does not match the algebra")
    base = is_prelie(A)
    op = operator_identity("reynolds-product", A.prod, R, R, product(range(A.dim), repeat=2),
                           ZERO, -ONE)
    return Certificate.combine("reynolds-prelie", [base, op])


@verified
def subadjacent(rp: ReynoldsPreLie) -> ReynoldsLieAlgebra:
    """Bracket {x,y} − {y,x}; the operator stays Reynolds on it."""
    require(is_reynolds_prelie(rp.A, rp.R))
    n, prod = rp.A.dim, rp.A.prod
    sc = {(i, j): saxpy(dict(prod.get((i, j), {})), -ONE, prod.get((j, i), {}))
          for i, j in combinations(range(n), 2)}
    L = LieAlgebra(n, rp.A.basis, sc)
    return ReynoldsLieAlgebra(L, rp.R)


@verified
def left_rep(rp: ReynoldsPreLie) -> ReynoldsRep:
    """(g; R, L) with L(x)y = {x,y}, over the sub-adjacent algebra."""
    sub = subadjacent(rp)
    n = rp.A.dim
    mats = [Mat.from_cols(rp.A.prod.basis_prod(i, j) for j in range(n)) for i in range(n)]
    rep = Representation(sub.L, n, mats, labels=rp.A.basis, check=False)
    return ReynoldsRep(sub, rep, rp.R)


@verified
def prelie_from_relrb(rel: RelativeRB) -> ReynoldsPreLie:
    """{u,v}_K = rho(Ku)v on W, with operator T."""
    require(is_relative_rb(rel))
    rep = rel.rr.rep
    prod = {(a, b): comp for a, row in enumerate(_k_action(rel)) for b, comp in row.items()}
    A = PreLieAlgebra(rep.module_dim, rep.labels, prod)
    return ReynoldsPreLie(A, rel.rr.T)


@verified
def prelie_from_invertible_relrb(rel: RelativeRB) -> ReynoldsPreLie:
    """{x,y} = K(rho(x)K⁻¹y) on g, with operator R; needs K invertible."""
    require(is_relative_rb(rel))
    K = rel.K
    if K.rows != K.cols or K.det() == 0:
        raise ValueError("invertible variant requires a square invertible K")
    g = rel.rr.base.L
    kcols, kinv = scols(K), scols(K.inverse())
    prod = {(i, j): sapply(kcols, sapply(rho, kinv[j]))
            for i, rho in enumerate(scols(m) for m in rel.rr.rep.rho) for j in range(g.dim)}
    A = PreLieAlgebra(g.dim, g.basis, prod)
    return ReynoldsPreLie(A, rel.rr.base.R)


@verified
def canonical_r(rp: ReynoldsPreLie) -> tuple[ReynoldsLieAlgebra, Tensor2]:
    """r = Σ_i (e_i⊗e_i* − e_i*⊗e_i) inside g⋉_{L*}g* with operator R⊕(−Rᵀ)."""
    lr = left_rep(rp)
    sub = lr.base
    n = rp.A.dim
    big = semidirect(sub.L, dual_rep(lr.rep))
    op = Mat.block_diag(rp.R, -rp.R.transpose())
    ambient = ReynoldsLieAlgebra(big, op)
    entries: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        entries[(i, n + i)] = Fraction(1)
        entries[(n + i, i)] = Fraction(-1)
    r = Tensor2(2 * n, 2 * n, entries)
    require(is_cybe_solution_reynolds(ambient, r))
    return ambient, r
