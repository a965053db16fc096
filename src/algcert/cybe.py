"""The classical Yang-Baxter equation in Reynolds Lie algebras.

Solutions here must satisfy both [[r,r]] = 0 and (R⊗Id + Id⊗R)(r) = 0.
Relative Rota-Baxter operators and Reynolds pre-Lie algebras manufacture
such solutions inside semidirect product Reynolds Lie algebras.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .certificates import (
    Certificate,
    CheckFailed,
    residual_from_mat,
    residual_from_tensor,
    scan,
)
from .exact import Mat, Tensor2, Tensor3, Vec, flip, tensor2_map, vbasis, vsub
from .lie import LieAlgebra, Representation, default_basis, dual_rep, semidirect
from .matched import MatchedPair, ReynoldsMatchedPair
from .reynolds import (
    ReynoldsLieAlgebra,
    ReynoldsRep,
    is_reynolds_rep,
)


def cybe_bracket(g: LieAlgebra, r: Tensor2) -> Tensor3:
    """[[r,r]] = [r12,r13] + [r13,r23] + [r12,r23] as an order-3 tensor."""
    if r.dim_left != g.dim or r.dim_right != g.dim:
        raise ValueError("tensor must live on g⊗g")
    n = g.dim
    data: dict[tuple[int, int, int], Fraction] = {}

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


def ad_invariance_cert(g: LieAlgebra, t: Tensor2, name: str = "ad-invariance") -> Certificate:
    """(ad_x⊗Id + Id⊗ad_x)(t) = 0 for every basis x."""
    ident = Mat.identity(g.dim)

    def residual(ad_k):
        return tensor2_map(ad_k, ident, t) + tensor2_map(ident, ad_k, t)
    return scan(name, (((k,), residual(g.ad(k))) for k in range(g.dim)))


def is_cybe_solution(g: LieAlgebra, r: Tensor2) -> Certificate:
    """[[r,r]] = 0."""
    rr = cybe_bracket(g, r)
    if rr.is_zero():
        return Certificate.passed("cybe")
    first = next(iter(rr.items()))
    return Certificate.failed("cybe", first[0], residual_from_tensor(rr), 1)


def reynolds_tensor_condition(R: Mat, r: Tensor2) -> Certificate:
    """(R⊗Id + Id⊗R)(r) = 0."""
    ident = Mat.identity(R.rows)
    res = tensor2_map(R, ident, r) + tensor2_map(ident, R, r)
    if res.is_zero():
        return Certificate.passed("reynolds-tensor-condition")
    first = next(iter(res.items()))
    return Certificate.failed("reynolds-tensor-condition", first[0],
                              residual_from_tensor(res), 1)


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

class RelativeRB:
    """K: W→g with [Ku,Kv] = K(rho(Ku)v − rho(Kv)u) and R∘K = K∘T."""

    __slots__ = ("rr", "K")

    def __init__(self, rr: ReynoldsRep, K: Mat, check: bool = True):
        if K.rows != rr.base.L.dim or K.cols != rr.rep.module_dim:
            raise ValueError("K must map the module into the algebra")
        self.rr = rr
        self.K = K
        if check:
            cert = is_relative_rb(self)
            if not cert.ok:
                raise CheckFailed(cert)

    @classmethod
    def unchecked(cls, rr, K) -> "RelativeRB":
        return cls(rr, K, check=False)


def is_relative_rb(rel: RelativeRB) -> Certificate:
    """Representation validity, the operator identity, and R∘K = K∘T."""
    rep_cert = is_reynolds_rep(rel.rr)
    if not rep_cert.ok:
        return Certificate.combine("relative-rb", [rep_cert],
                                   note="invalid Reynolds representation")
    L = rel.rr.base.L
    rep = rel.rr.rep
    K = rel.K
    m = rep.module_dim

    def residual(u, v):
        ku, kv = K.apply(u), K.apply(v)
        rhs = K.apply(vsub(rep.rho_vec(ku).apply(v), rep.rho_vec(kv).apply(u)))
        return vsub(L.bracket(ku, kv), rhs)
    op_cert = scan("operator-identity", (((a, b), residual(vbasis(m, a), vbasis(m, b)))
                                         for a, b in combinations(range(m), 2)))
    diff = rel.rr.base.R @ K - K @ rel.rr.T
    if diff.is_zero():
        compat = Certificate.passed("rk-equals-kt")
    else:
        compat = Certificate.failed("rk-equals-kt", (0,), residual_from_mat(diff), 1)
    return Certificate.combine("relative-rb", [rep_cert, op_cert, compat])


def descendent_on_W(rel: RelativeRB) -> ReynoldsLieAlgebra:
    """Bracket [u,v]_K = rho(Ku)v − rho(Kv)u on W with operator T."""
    cert = is_relative_rb(rel)
    if not cert.ok:
        raise CheckFailed(cert)
    rep, K = rel.rr.rep, rel.K
    m = rep.module_dim
    sc: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a, b in combinations(range(m), 2):
        u, v = vbasis(m, a), vbasis(m, b)
        out = vsub(rep.rho_vec(K.apply(u)).apply(v), rep.rho_vec(K.apply(v)).apply(u))
        comp = {k: c for k, c in enumerate(out) if c != 0}
        if comp:
            sc[(a, b)] = comp
    W = LieAlgebra(m, rep.labels, sc)
    return ReynoldsLieAlgebra(W, rel.rr.T)


def matched_from_relrb(rel: RelativeRB) -> ReynoldsMatchedPair:
    """((g,R), (W_K,T); rho, mu) with mu(u)x = K(rho(x)u) − [x,Ku]."""
    desc = descendent_on_W(rel)
    g = rel.rr.base.L
    rep, K = rel.rr.rep, rel.K
    m = rep.module_dim
    rho = Representation(g, m, rep.rho, labels=rep.labels, check=False)
    mu_mats = []
    for a in range(m):
        u = vbasis(m, a)
        ku = K.apply(u)
        cols = []
        for i in range(g.dim):
            x = vbasis(g.dim, i)
            cols.append(vsub(K.apply(rep.rho[i].apply(u)), g.bracket(x, ku)))
        mu_mats.append(Mat.from_cols(cols))
    mu = Representation(desc.L, g.dim, mu_mats, labels=g.basis, check=False)
    pair = MatchedPair(g, desc.L, rho, mu)
    return ReynoldsMatchedPair(pair, rel.rr.base.R, rel.rr.T)


def rk_solution(rel: RelativeRB) -> tuple[ReynoldsLieAlgebra, Tensor2]:
    """Embed K into g⋉W* and return the skew solution r_K = K̄ − σ(K̄).

    With blocks ordered (g, W*), K̄ places K's entries at
    (W*-row n+i, g-column a): pairing K̄(ξ+u, η+v) = ⟨Ku, η⟩.
    """
    cert = is_relative_rb(rel)
    if not cert.ok:
        raise CheckFailed(cert)
    base, rep, K = rel.rr.base, rel.rr.rep, rel.K
    n, m = base.L.dim, rep.module_dim
    big = semidirect(base.L, dual_rep(rep))
    op = Mat.block_diag(base.R, -rel.rr.T.transpose())
    ambient = ReynoldsLieAlgebra(big, op)
    kbar = Tensor2(n + m, n + m,
                   {(n + i, a): K.entries[a][i] for a in range(n) for i in range(m)
                    if K.entries[a][i] != 0})
    r_k = kbar - flip(kbar)
    final = is_cybe_solution_reynolds(ambient, r_k)
    if not final.ok:
        raise CheckFailed(final)
    return ambient, r_k


# ---------------------------------------------------------------------------
# pre-Lie algebras
# ---------------------------------------------------------------------------

class PreLieAlgebra:
    """Product with left-symmetric associator: (x,y,z) = (y,x,z)."""

    __slots__ = ("dim", "basis", "prod")

    def __init__(self, dim: int, basis=None, prod=None, check: bool = True):
        from .nslie import _clean_full

        self.dim = dim
        self.basis = tuple(basis) if basis is not None else default_basis(dim)
        if len(self.basis) != dim:
            raise ValueError("basis label count must equal dim")
        self.prod = _clean_full(dim, prod or {})
        if check:
            cert = is_prelie(self)
            if not cert.ok:
                raise CheckFailed(cert)

    @classmethod
    def unchecked(cls, dim, basis=None, prod=None) -> "PreLieAlgebra":
        return cls(dim, basis, prod, check=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PreLieAlgebra)
            and self.dim == other.dim
            and self.basis == other.basis
            and self.prod == other.prod
        )

    def prod_basis(self, i: int, j: int) -> Vec:
        comp = self.prod.get((i, j))
        out = [Fraction(0)] * self.dim
        if comp:
            for k, c in comp.items():
                out[k] = c
        return tuple(out)

    def prod_vec(self, x: Vec, y: Vec) -> Vec:
        out = [Fraction(0)] * self.dim
        for (i, j), comp in self.prod.items():
            c = x[i] * y[j]
            if c == 0:
                continue
            for k, v in comp.items():
                out[k] += c * v
        return tuple(out)


def is_prelie(A: PreLieAlgebra) -> Certificate:
    """Left-symmetry of the associator over all basis triples."""
    n = A.dim
    basis = [vbasis(n, i) for i in range(n)]

    def residual(x, y, z):
        lhs = vsub(A.prod_vec(A.prod_vec(x, y), z), A.prod_vec(x, A.prod_vec(y, z)))
        rhs = vsub(A.prod_vec(A.prod_vec(y, x), z), A.prod_vec(y, A.prod_vec(x, z)))
        return vsub(lhs, rhs)
    return scan("pre-lie", (((i, j, k), residual(basis[i], basis[j], basis[k]))
                            for i, j in combinations(range(n), 2) for k in range(n)))


class ReynoldsPreLie:
    __slots__ = ("A", "R")

    def __init__(self, A: PreLieAlgebra, R: Mat, check: bool = True):
        if R.rows != A.dim or R.cols != A.dim:
            raise ValueError("operator shape does not match the algebra")
        self.A = A
        self.R = R
        if check:
            cert = is_reynolds_prelie(A, R)
            if not cert.ok:
                raise CheckFailed(cert)

    @classmethod
    def unchecked(cls, A, R) -> "ReynoldsPreLie":
        return cls(A, R, check=False)


def is_reynolds_prelie(A: PreLieAlgebra, R: Mat) -> Certificate:
    """{Rx,Ry} = R({Rx,y} + {x,Ry} − {Rx,Ry}) over all ordered basis pairs."""
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


def subadjacent(rp: ReynoldsPreLie) -> ReynoldsLieAlgebra:
    """Bracket {x,y} − {y,x}; the operator stays Reynolds on it."""
    cert = is_reynolds_prelie(rp.A, rp.R)
    if not cert.ok:
        raise CheckFailed(cert)
    n = rp.A.dim
    sc: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j in combinations(range(n), 2):
        out = vsub(rp.A.prod_basis(i, j), rp.A.prod_basis(j, i))
        comp = {k: c for k, c in enumerate(out) if c != 0}
        if comp:
            sc[(i, j)] = comp
    L = LieAlgebra(n, rp.A.basis, sc)
    return ReynoldsLieAlgebra(L, rp.R)


def left_rep(rp: ReynoldsPreLie) -> ReynoldsRep:
    """(g; R, L) with L(x)y = {x,y}, over the sub-adjacent algebra."""
    sub = subadjacent(rp)
    n = rp.A.dim
    mats = [Mat.from_cols([rp.A.prod_basis(i, j) for j in range(n)]) for i in range(n)]
    rep = Representation(sub.L, n, mats, labels=rp.A.basis, check=False)
    return ReynoldsRep(sub, rep, rp.R)


def prelie_from_relrb(rel: RelativeRB) -> ReynoldsPreLie:
    """{u,v}_K = rho(Ku)v on W, with operator T."""
    cert = is_relative_rb(rel)
    if not cert.ok:
        raise CheckFailed(cert)
    rep, K = rel.rr.rep, rel.K
    m = rep.module_dim
    prod: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(m):
        mat = rep.rho_vec(K.apply(vbasis(m, a)))
        for b in range(m):
            col = mat.col(b)
            comp = {k: c for k, c in enumerate(col) if c != 0}
            if comp:
                prod[(a, b)] = comp
    A = PreLieAlgebra(m, rep.labels, prod)
    return ReynoldsPreLie(A, rel.rr.T)


def prelie_from_invertible_relrb(rel: RelativeRB) -> ReynoldsPreLie:
    """{x,y} = K(rho(x)K⁻¹y) on g, with operator R; needs K invertible."""
    cert = is_relative_rb(rel)
    if not cert.ok:
        raise CheckFailed(cert)
    K = rel.K
    if K.rows != K.cols or K.det() == 0:
        raise ValueError("invertible variant requires a square invertible K")
    kinv = K.inverse()
    g = rel.rr.base.L
    rep = rel.rr.rep
    n = g.dim
    prod: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(n):
        for j in range(n):
            out = K.apply(rep.rho[i].apply(kinv.apply(vbasis(n, j))))
            comp = {k: c for k, c in enumerate(out) if c != 0}
            if comp:
                prod[(i, j)] = comp
    A = PreLieAlgebra(n, g.basis, prod)
    return ReynoldsPreLie(A, rel.rr.base.R)


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
    final = is_cybe_solution_reynolds(ambient, r)
    if not final.ok:
        raise CheckFailed(final)
    return ambient, r
