"""The classical Yang-Baxter equation in Reynolds Lie algebras.

Solutions here must satisfy both [[r,r]] = 0 and (R⊗Id + Id⊗R)(r) = 0.
Relative Rota-Baxter operators and Reynolds pre-Lie algebras manufacture
such solutions inside semidirect product Reynolds Lie algebras.
"""

from __future__ import annotations

from itertools import combinations, product

from .certificates import Certificate, Checked, entail, require, scan, verified
from .exact import (ONE, ZERO, Mat, Rows, Table, Tensor2, Tensor3, Vec, flip, integral, leg_sum,
                    products, sapply, saxpy, table_rows)
from .lie import (LieAlgebra, Representation, default_basis, is_representation, mult_cols,
                  mult_mats)
from .matched import MatchedPair, ReynoldsMatchedPair
from .reynolds import (ReynoldsLieAlgebra, ReynoldsRep, compat_certificate, dual_reynolds_rep,
                       operator_identity, semidirect_reynolds)


def _double_bracket(g: LieAlgebra, r: Tensor2) -> tuple[dict, int]:
    """[[r,r]] on integers {(i, j, k): c} (cancelled zeros kept), and its scale.

    With the columns C_j = Σ_i r^{ij}e_i and the rows R_i = Σ_j r^{ij}e_j of r,
    [r12,r13] = Σ [C_j,C_l]⊗e_j⊗e_l, [r12,r23] = Σ e_i⊗[R_i,C_l]⊗e_l and
    [r13,r23] = Σ e_i⊗e_k⊗[R_i,R_k], as `products` of the two families, which leaves out the
    brackets with no term.
    """
    if r.dim_left != g.dim or r.dim_right != g.dim:
        raise ValueError("tensor must live on g⊗g")
    rows = table_rows(g.sc.ientries, g.dim, True)
    rp = r_plus(r)                      # rp's columns are r's rows, on the scale d = rp.den
    C, R = rp.transpose().icols, rp.icols
    adr = products(rows, R)             # adr[i][y] = den·d·[R_i, e_y]
    out = {(m, j, l): c for j, row in enumerate(products(rows, C, C))
           for l, v in row.items() for m, c in v.items()}
    saxpy(out, 1, {(i, m, l): c for i, row in enumerate(products(adr, None, C))
                   for l, v in row.items() for m, c in v.items()})
    saxpy(out, 1, {(i, k, m): c for i, row in enumerate(products(adr, None, R))
                   for k, v in row.items() for m, c in v.items()})
    return out, rp.den ** 2 * g.sc.den


def cybe_bracket(g: LieAlgebra, r: Tensor2) -> Tensor3:
    """[[r,r]] = [r12,r13] + [r13,r23] + [r12,r23] as an order-3 tensor."""
    rr, s = _double_bracket(g, r)
    return Tensor3._of((g.dim,) * 3, rr, s)


@verified
def ad_invariance_cert(g: LieAlgebra, t: Tensor2) -> Certificate:
    """(ad_x⊗Id + Id⊗ad_x)(t) = 0 for every basis x."""
    if t.dim_left != g.dim or t.dim_right != g.dim:
        raise ValueError("tensor must live on g⊗g")
    ads, den = mult_cols(g.sc)
    return scan("ad-invariance", (((k,), leg_sum(t.ientries, ad, 2)) for k, ad in enumerate(ads)),
                den * t.den)


@verified
def symmetric_part_invariance(g: LieAlgebra, r: Tensor2) -> Certificate:
    """ad-invariance of r + σ(r), keyed on r itself, so that a step can name the certificate
    that a check it called required."""
    return ad_invariance_cert(g, r + flip(r))._replace(check="symmetric-part-invariance")


@verified
def is_cybe_solution(g: LieAlgebra, r: Tensor2) -> Certificate:
    """[[r,r]] = 0."""
    rr = cybe_bracket(g, r)
    return scan("cybe", [(min(rr.ientries, default=()), rr)])


@verified
def reynolds_tensor_condition(R: Mat, r: Tensor2) -> Certificate:
    """(R⊗Id + Id⊗R)(r) = 0."""
    if not R.rows == R.cols == r.dim_left == r.dim_right:
        raise ValueError("operator/tensor dimension mismatch")
    res = leg_sum(r.ientries, R.icols, 2)
    return scan("reynolds-tensor-condition",
                [(min((k for k, c in res.items() if c), default=()), res)], R.den * r.den)


@verified
def is_cybe_solution_reynolds(A: ReynoldsLieAlgebra, r: Tensor2) -> Certificate:
    """CYBE in the Reynolds Lie algebra: both conditions exactly."""
    parts = [is_cybe_solution(A.L, r), reynolds_tensor_condition(A.R, r)]
    return Certificate.combine("reynolds-cybe", parts)


def r_plus(r: Tensor2) -> Mat:
    """The induced map g*→g, ξ ↦ r(ξ,·), as a matrix in dual bases."""
    cols: list[dict] = [{} for _ in range(r.dim_left)]
    for (i, j), c in r.ientries.items():
        cols[i][j] = c
    return Mat._of(r.dim_right, r.dim_left, cols, r.den)


# ---------------------------------------------------------------------------
# relative Rota-Baxter operators
# ---------------------------------------------------------------------------

class RelativeRB(Checked, gate=lambda rel: is_relative_rb(rel)):
    """K: W→g with [Ku,Kv] = K(rho(Ku)v − rho(Kv)u) and R∘K = K∘T."""

    __slots__ = ("rr", "K")

    def __init__(self, rr: ReynoldsRep, K: Mat):
        if K.rows != rr.base.L.dim or K.cols != rr.rep.module_dim:
            raise ValueError("K must map the module into the algebra")
        self.rr = rr
        self.K = K


@verified
def is_relative_rb(rel: RelativeRB) -> Certificate:
    """Representation validity, the operator identity, and R∘K = K∘T."""
    rep_cert = rel.rr.gate()
    if not rep_cert.ok:
        return Certificate.combine("relative-rb", [rep_cert],
                                   note="invalid Reynolds representation")
    L = rel.rr.base.L
    rows, den = table_rows(L.sc.ientries, L.dim, True), L.sc.den
    kcols, k = rel.K.icols, rel.K.den
    desc, s = _descendent_sc(rel)
    kk = products(rows, kcols, kcols)

    def residual(a, b):
        # den·k²·s times [Ke_a, Ke_b] − K[e_a, e_b]_K
        out = saxpy({}, s, kk[a].get(b, {}))
        return saxpy(out, -den * k, sapply(kcols, desc[a, b]))
    op_cert = scan("operator-identity", (((a, b), residual(a, b)) for a, b in desc),
                   den * k * k * s)
    compat = scan("rk-equals-kt", [((0,), rel.rr.base.R @ rel.K - rel.K @ rel.rr.T)])
    return Certificate.combine("relative-rb", [rep_cert, op_cert, compat])


def _k_action(rel: RelativeRB) -> tuple[Rows, int]:
    """rows[a][b] = s·rho(Ke_a)e_b on integers, a table on the module's basis indices, and s:
    the `products` of K's columns with the basis through the rows rho(e_i)e_j."""
    *rho, d = integral(*rel.rr.rep.rho)
    return (products([{j: col for j, col in enumerate(m) if col} for m in rho], rel.K.icols),
            d * rel.K.den)


def _descendent_sc(rel: RelativeRB) -> tuple[dict[tuple[int, int], dict[int, int]], int]:
    """s·[e_a,e_b]_K = s·(rho(Ke_a)e_b − rho(Ke_b)e_a), a<b, on integers (zeros kept), and s."""
    rk, s = _k_action(rel)
    return {(a, b): saxpy(dict(rk[a].get(b, {})), -1, rk[b].get(a, {}))
            for a, b in combinations(range(rel.rr.rep.module_dim), 2)}, s


@verified
def descendent_on_W(rel: RelativeRB) -> ReynoldsLieAlgebra:
    """Bracket [u,v]_K = rho(Ku)v − rho(Kv)u on W with operator T."""
    require(rel.gate())
    rep = rel.rr.rep
    desc, s = _descendent_sc(rel)
    W = LieAlgebra(rep.module_dim, rep.labels, Table._of(rep.module_dim, desc, True, s))
    return ReynoldsLieAlgebra(W, rel.rr.T)


@verified
def matched_from_relrb(rel: RelativeRB) -> ReynoldsMatchedPair:
    """((g,R), (W_K,T); rho, mu) with mu(u)x = K(rho(x)u) − [x,Ku]."""
    desc = descendent_on_W(rel)
    g, rep = rel.rr.base.L, rel.rr.rep
    m = rep.module_dim
    rows, den = table_rows(g.sc.ientries, g.dim, True), g.sc.den
    *act, kcols, d = integral(*rep.rho, rel.K)
    ek = products(rows, None, kcols)        # ek[i][a] = den·d·[e_i, Ke_a]

    def mu_col(a, i):
        """d²·den·(K(rho(e_i)e_a) − [e_i, Ke_a])"""
        return saxpy(saxpy({}, den, sapply(kcols, act[i][a])), -d, ek[i].get(a, {}))
    mu_mats = [Mat._of(g.dim, g.dim, [mu_col(a, i) for i in range(g.dim)], d * d * den)
               for a in range(m)]
    mu = Representation.unchecked(desc.L, g.dim, mu_mats, labels=g.basis)
    pair = MatchedPair(g, desc.L, rep, mu)
    return ReynoldsMatchedPair(pair, rel.rr.base.R, rel.rr.T)


@verified
def rk_solution(rel: RelativeRB) -> tuple[ReynoldsLieAlgebra, Tensor2]:
    """Embed K into g⋉W* and return the skew solution r_K = K̄ − σ(K̄).

    With blocks ordered (g, W*), K̄ places K's entries at
    (W*-row n+i, g-column a): pairing K̄(ξ+u, η+v) = ⟨Ku, η⟩.

    Both conditions are entailed by stages of the gate, for any bracket on g and any ρ: the
    (W*, W*, g) block of [[r_K, r_K]] at (n+a, n+b, k) is the operator-identity residual
    [Ke_a, Ke_b] − K(ρ(Ke_a)e_b − ρ(Ke_b)e_a) at (a, b), entry k, and the (g, W*, W*) and
    (W*, g, W*) blocks are its cyclic images, the rest 0 (Kupershmidt 1999: a skew r solves the
    CYBE exactly when r♯ is an O-operator); (R⊕(−Tᵀ)⊗Id + Id⊗R⊕(−Tᵀ))(r_K) is D̄ − σ(D̄), D̄
    placing D = RK − KT as K̄ places K, so rk-equals-kt entails the tensor condition.
    """
    reynolds_rep, operator, commutes = require(rel.gate()).parts
    K = rel.K
    n, m = rel.rr.base.L.dim, rel.rr.rep.module_dim
    ambient = semidirect_reynolds(dual_reynolds_rep(rel.rr, [reynolds_rep]))
    kbar = Tensor2._of((n + m, n + m), {(n + i, a): c for i, col in enumerate(K.icols)
                                        for a, c in col.items()}, K.den)
    r_k = kbar - flip(kbar)
    entail(is_cybe_solution, (ambient.L, r_k), "cybe", [operator])
    entail(reynolds_tensor_condition, (ambient.R, r_k), "reynolds-tensor-condition", [commutes])
    require(is_cybe_solution_reynolds(ambient, r_k))
    return ambient, r_k


# ---------------------------------------------------------------------------
# pre-Lie algebras
# ---------------------------------------------------------------------------

class PreLieAlgebra(Checked, gate=lambda A: is_prelie(A)):
    """Product with left-symmetric associator: (x,y,z) = (y,x,z)."""

    __slots__ = ("dim", "basis", "prod")

    def __init__(self, dim: int, basis=None, prod=None):
        self.dim = dim
        self.basis = tuple(basis) if basis is not None else default_basis(dim)
        if len(self.basis) != dim:
            raise ValueError("basis label count must equal dim")
        self.prod = Table(dim, prod)

    def prod_basis(self, i: int, j: int) -> Vec:
        return self.prod.basis_prod(i, j)

    def prod_vec(self, x: Vec, y: Vec) -> Vec:
        return self.prod.prod(x, y)


@verified
def is_prelie(A: PreLieAlgebra) -> Certificate:
    """Left-symmetry of the associator over basis triples i<j and every k.

    A pre-Lie algebra is an NS-Lie algebra with ▷ = 0: the residual
    (x,y,z) − (y,x,z) is NS identity 1 of (A.prod, 0): column k of the `pair_blocks`
    matrix at (i, j) of the commutator and the matrices x·(−).  It is counted once per
    visited triple."""
    from .nslie import _commutator, _identity_1

    n, prod = A.dim, A.prod.ientries
    return scan("pre-lie", _identity_1(_commutator(prod, {}, n), prod, n), A.prod.den ** 2)


class ReynoldsPreLie(Checked, gate=lambda rp: is_reynolds_prelie(rp.A, rp.R)):
    __slots__ = ("A", "R")

    def __init__(self, A: PreLieAlgebra, R: Mat):
        if R.rows != A.dim or R.cols != A.dim:
            raise ValueError("operator shape does not match the algebra")
        self.A = A
        self.R = R


@verified
def is_reynolds_prelie(A: PreLieAlgebra, R: Mat) -> Certificate:
    """{Rx,Ry} = R({Rx,y} + {x,Ry} − {Rx,Ry}) over all ordered basis pairs."""
    if R.rows != A.dim or R.cols != A.dim:
        raise ValueError("operator shape does not match the algebra")
    base = A.gate()
    op = operator_identity("reynolds-product", A.prod, R, R, product(range(A.dim), repeat=2),
                           ZERO, -ONE)
    return Certificate.combine("reynolds-prelie", [base, op])


@verified
def subadjacent(rp: ReynoldsPreLie) -> ReynoldsLieAlgebra:
    """Bracket {x,y} − {y,x}; the operator stays Reynolds on it.  Its Jacobiator J(x, y, z) is
    the cyclic sum of the pre-Lie residuals (x,y,z) − (y,x,z), so the gate's `is_prelie`
    entails its Jacobi identity."""
    from .nslie import _commutator

    require(rp.gate())
    n, prod = rp.A.dim, rp.A.prod
    L = LieAlgebra(n, rp.A.basis, Table._of(n, _commutator(prod.ientries, {}, n), True, prod.den),
                   given=[rp.A.gate()])
    return ReynoldsLieAlgebra(L, rp.R)


@verified
def left_rep(rp: ReynoldsPreLie) -> ReynoldsRep:
    """(g; R, L) with L(x)y = {x,y}, over the sub-adjacent algebra.  The representation
    residual L([x,y]) − [L(x), L(y)] at (x, y), column z, is the pre-Lie residual
    (x,y,z) − (y,x,z), and the compatibility residual of (R, L, R) at (x, y) is the
    reynolds-product residual {Rx,Ry} − R({Rx,y} + {x,Ry} − {Rx,Ry}): the gate's two stages
    entail the Reynolds representation."""
    sub = subadjacent(rp)
    prelie, product = rp.gate().parts
    rep = Representation.unchecked(sub.L, rp.A.dim, mult_mats(rp.A.prod), labels=rp.A.basis)
    entail(is_representation, (rep,), "representation", [prelie])
    entail(compat_certificate, (rp.R, rep, rp.R), "compatibility", [product])
    return ReynoldsRep(sub, rep, rp.R)


@verified
def prelie_from_relrb(rel: RelativeRB) -> ReynoldsPreLie:
    """{u,v}_K = rho(Ku)v on W, with operator T.  Its pre-Lie residual at (u, v, w) is
    ρ(−O(u, v))w plus the representation residual of ρ at (Ku, Kv) applied to w, O the
    operator-identity residual [Ku, Kv] − K(ρ(Ku)v − ρ(Kv)u): the gate's representation and
    operator-identity stages entail the pre-Lie identity, for any bracket on g, and the output's
    gate asks it of A."""
    _, operator, _ = require(rel.gate()).parts
    rep = rel.rr.rep
    rk, s = _k_action(rel)
    prod = {(a, b): comp for a, row in enumerate(rk) for b, comp in row.items()}
    m = rep.module_dim
    A = PreLieAlgebra.unchecked(m, rep.labels, Table._of(m, prod, False, s))
    entail(is_prelie, (A,), "pre-lie", [rep.gate(), operator])
    return ReynoldsPreLie(A, rel.rr.T)


@verified
def prelie_from_invertible_relrb(rel: RelativeRB) -> ReynoldsPreLie:
    """{x,y} = K(rho(x)K⁻¹y) on g, with operator R; needs K invertible."""
    require(rel.gate())
    K = rel.K
    try:
        kinv = K.inverse()
    except ValueError:
        raise ValueError("invertible variant requires a square invertible K") from None
    g = rel.rr.base.L
    *mats, d = integral(*rel.rr.rep.rho)
    prod = {(i, j): sapply(K.icols, sapply(rho, kinv.icols[j]))
            for i, rho in enumerate(mats) for j in range(g.dim)}
    A = PreLieAlgebra(g.dim, g.basis, Table._of(g.dim, prod, False, K.den * kinv.den * d))
    return ReynoldsPreLie(A, rel.rr.base.R)


@verified
def canonical_r(rp: ReynoldsPreLie) -> tuple[ReynoldsLieAlgebra, Tensor2]:
    """r = Σ_i (e_i⊗e_i* − e_i*⊗e_i) inside g⋉_{L*}g* with operator R⊕(−Rᵀ).

    Both conditions hold for every product and every R (Bai 2007): r is −r_K of K = Id from
    (g; L) to g, whose operator-identity residual [x,y] − (x·y − y·x) is 0 on the sub-adjacent
    bracket, so [[r,r]] = 0 as in `rk_solution`; and (R⊕(−Rᵀ)⊗Id + Id⊗R⊕(−Rᵀ))(r) =
    Σ (Re_i⊗e_i* − e_i⊗Rᵀe_i*) − σ(…) = 0.  They need no hypothesis, and `entail` records from
    a nonempty one, so both are recorded under the gate's `is_prelie`, which has passed.
    """
    n, rr = rp.A.dim, left_rep(rp)
    ambient = semidirect_reynolds(dual_reynolds_rep(rr, [rr.gate()]))
    r = Tensor2(2 * n, 2 * n, {key: c for i in range(n)
                               for key, c in (((i, n + i), 1), ((n + i, i), -1))})
    prelie = [rp.A.gate()]
    entail(is_cybe_solution, (ambient.L, r), "cybe", prelie)
    entail(reynolds_tensor_condition, (ambient.R, r), "reynolds-tensor-condition", prelie)
    require(is_cybe_solution_reynolds(ambient, r))
    return ambient, r
