"""Lie bialgebras, Reynolds Lie bialgebras, Drinfeld doubles and coboundary theory.

A bialgebra is stored as two structure-constant tables (g, dual); the
cobracket is derived, never stored, under the pairing
⟨Δ(x), ξ⊗η⟩ = ⟨x, [ξ,η]⟩ with Δ skew, i.e.
Δ(e_k) = Σ_{i<j} c*_{ij}^k (e_i⊗e_j − e_j⊗e_i) from the one-sided dual
table.  Any uniform rescaling of Δ leaves every verdict unchanged, so the
wedge-normalization ambiguity cannot affect a certificate.
"""

from __future__ import annotations

from itertools import combinations

from .certificates import Certificate, Checked, entail, require, scan, verified
from .cybe import _double_bracket, symmetric_part_invariance
from .exact import (Mat, Table, Tensor2, flip, integral, leg_sum, products, sapply, saxpy,
                    table_rows, tensor_map, unpack)
from .lie import (LieAlgebra, Representation, coadjoint_cols, coadjoint_rep, double_table,
                  dual_basis, jacobiator, mult_cols, packed_outer)
from .matched import MatchedPair, ReynoldsMatchedPair
from .reynolds import ReynoldsLieAlgebra, is_reynolds


class LieBialgebra(Checked, gate=lambda b: is_lie_bialgebra(b.g, b.dual)):
    """(g, dual): two Lie algebras on dual coordinate spaces, cocycle-compatible."""

    __slots__ = ("g", "dual")

    def __init__(self, g: LieAlgebra, dual: LieAlgebra):
        if g.dim != dual.dim:
            raise ValueError("g and its dual must have equal dimension")
        self.g = g
        self.dual = dual


def cobracket_from_dual(dual: LieAlgebra) -> list[Tensor2]:
    """Δ(e_k) as a skew tensor read off the dual structure constants."""
    n, rows = dual.dim, table_rows(dual.sc.ientries, dual.dim, True)
    return [Tensor2._of((n, n), {(i, j): comp[k] for i, row in enumerate(rows)
                                 for j, comp in row.items() if k in comp}, dual.sc.den)
            for k in range(n)]


def dual_from_cobracket(deltas: list[Tensor2], basis=None) -> LieAlgebra:
    """Recover the dual structure constants; exact inverse of cobracket_from_dual."""
    if not deltas:
        raise ValueError("empty cobracket list")
    n = len(deltas)
    for k, d in enumerate(deltas):
        if d.dim_left != n or d.dim_right != n:
            raise ValueError("cobracket tensor shape mismatch")
        if not d.is_skew():
            raise ValueError(f"cobracket of basis vector {k} is not skew")
    return LieAlgebra.unchecked(n, basis, _cotable(deltas, True))


def _cotable(deltas: list[Tensor2], skew: bool) -> Table:
    """The dual product eᵃ·eᵇ = Σ_k Δ(e_k)_ab eᵏ; a skew table keeps the keys a < b."""
    *ds, den = integral(*deltas)
    sc: dict[tuple[int, int], dict[int, int]] = {}
    for k, d in enumerate(ds):
        for (a, b), c in d.items():
            if a < b or not skew:
                sc.setdefault((a, b), {})[k] = c
    return Table._of(len(deltas), sc, skew, den)


@verified
def is_lie_coalgebra(deltas: list[Tensor2]) -> Certificate:
    """Skewness Δ + σΔ = 0, then the co-Jacobi identity (Id+ε+ε²)(Id⊗Δ)Δ = 0, per basis vector.

    A non-skew cobracket fails with the first non-skew basis vector, the
    entries of Δ(e_k) + σΔ(e_k) as its residual, and the number of non-skew
    basis vectors as `violations`; co-Jacobi is then not evaluated.  Entry (x, y, z)
    of the co-Jacobi tensor of e_k is −J*(eˣ, eʸ, eᶻ)_k, J* the alternating Jacobiator
    of the dual bracket, evaluated once per x<y<z on the integer dual table (scale −D²).
    """
    n = len(deltas)
    if any(d.dim_left != n or d.dim_right != n for d in deltas):
        raise ValueError("cobracket tensor shape mismatch")
    skew = scan("coalgebra", (((k,), d + flip(d)) for k, d in enumerate(deltas)))
    if not skew.ok:
        return skew._replace(note="cobracket is not skew")
    co, den = integral(_cotable(deltas, True))
    outer, w = packed_outer(co, n)
    out: list[dict] = [{} for _ in range(n)]
    for x, y, z in combinations(range(n), 3):
        # each e_k's residual gathers one coefficient of every J*, so only a nonzero J* is decoded
        for k, c in unpack(jacobiator(co, outer, x, y, z), w).items():
            out[k].update({(x, y, z): c, (y, z, x): c, (z, x, y): c,
                           (x, z, y): -c, (z, y, x): -c, (y, x, z): -c})
    return scan("coalgebra", (((k,), v) for k, v in enumerate(out)), -den * den)


@verified
def is_reynolds_coalgebra(deltas: list[Tensor2], R: Mat) -> Certificate:
    """(R⊗R)Δ = (R⊗Id + Id⊗R − R⊗R)ΔR per basis vector.

    On the integer cobrackets D·Δ and columns d·R, the residual at e_k is d³D times
    (R⊗R)Δ(e_k) − (R⊗Id + Id⊗R)Δ(Re_k) + (R⊗R)Δ(Re_k).
    """
    n = len(deltas)
    if R.rows != n or R.cols != n or any(d.dim_left != n or d.dim_right != n for d in deltas):
        raise ValueError("operator shape does not match the coalgebra")
    *ds, e = integral(*deltas)
    cols, d = R.icols, R.den

    def residual(k):
        drk = sapply(ds, cols[k])                   # d·D·Δ(Re_k)
        out = saxpy(tensor_map(drk, (cols, cols)), -d, leg_sum(drk, cols, 2))
        return saxpy(out, d, tensor_map(ds[k], (cols, cols)))
    return scan("reynolds-coalgebra", (((k,), residual(k)) for k in range(n)), d ** 3 * e)


@verified
def cocycle_check(g: LieAlgebra, deltas: list[Tensor2]) -> Certificate:
    """Δ[x,y] = (ad_x⊗Id+Id⊗ad_x)Δy − (ad_y⊗Id+Id⊗ad_y)Δx over basis pairs.

    The residual at (i, j), entry (a, b), is J(e_i, e_j, eᵃ) at e_b on g⋈g* with the
    coadjoint actions of g and of the dual product read off Δ, on integers under one
    scale D (D²).  That block never reads the bracket of g*, so the table omits it.
    """
    n = g.dim
    if len(deltas) != n or any(d.dim_left != n or d.dim_right != n for d in deltas):
        raise ValueError("cobracket shape does not match the algebra")
    sc, co, den = integral(g.sc, _cotable(deltas, False))
    table = double_table(sc, {}, coadjoint_cols(table_rows(sc, n, True), n),
                         coadjoint_cols(table_rows(co, n), n))
    outer, w = packed_outer(table, 2 * n, 0, n)

    def residual(i, j):
        return sum([jacobiator(table, outer, i, j, n + a) << a * n * w for a in range(n)])

    def decode(v):
        return {(k // n, k % n): c for k, c in unpack(v, w).items()}
    return scan("cocycle", (((i, j), residual(i, j))
                            for i, j in combinations(range(n), 2)), den * den, decode)


@verified
def bialgebra_cocycle(g: LieAlgebra, dual: LieAlgebra) -> Certificate:
    """The cocycle stage of (g, dual): `cocycle_check` on the cobracket read off the dual."""
    return cocycle_check(g, cobracket_from_dual(dual))


@verified
def is_lie_bialgebra(g: LieAlgebra, dual: LieAlgebra) -> Certificate:
    """Jacobi on both sides plus the 1-cocycle condition, each a leaf keyed on the algebras
    (the cocycle through `bialgebra_cocycle`), so a checked bialgebra carries all three."""
    parts = [
        Certificate.combine("jacobi-primal", [g.gate()]),
        Certificate.combine("jacobi-dual", [dual.gate()]),
        bialgebra_cocycle(g, dual),
    ]
    return Certificate.combine("lie-bialgebra", parts)


class ReynoldsLieBialgebra(Checked, gate=lambda rb: is_reynolds_bialgebra(rb.bialg, rb.R, rb.Rt)):
    __slots__ = ("bialg", "R", "Rt")

    def __init__(self, bialg: LieBialgebra, R: Mat):
        if R.rows != bialg.g.dim or R.cols != bialg.g.dim:
            raise ValueError("operator shape does not match the bialgebra")
        self.bialg = bialg
        self.R = R
        self.Rt = -R.transpose()      # the one −Rᵀ every check of this bialgebra is handed


@verified
def is_reynolds_bialgebra(bialg: LieBialgebra, R: Mat, Rt: Mat | None = None) -> Certificate:
    """R Reynolds on g and Rt = −Rᵀ Reynolds on the dual (bialgebra axioms included).

    A caller that checks −Rᵀ again later passes the one −Rᵀ it holds (`ReynoldsLieBialgebra`
    builds one, `Rt`), so that the check hits the memo of `verified`, which keys on identity.
    """
    parts = [
        bialg.gate(),
        Certificate.combine("reynolds-primal", [is_reynolds(bialg.g, R)]),
        Certificate.combine("reynolds-dual",
                            [is_reynolds(bialg.dual, -R.transpose() if Rt is None else Rt)]),
    ]
    return Certificate.combine("reynolds-bialgebra", parts)


def canonical_pair(rb: ReynoldsLieBialgebra) -> ReynoldsMatchedPair:
    """((g,R), (g*,Rt); ad*, ad-of-dual*), Rt = −Rᵀ — the pair behind every equivalence."""
    g, dual = rb.bialg.g, rb.bialg.dual
    rho = Representation.unchecked(g, dual.dim, coadjoint_rep(g).rho, labels=dual.basis)
    mu = Representation.unchecked(dual, g.dim, coadjoint_rep(dual).rho, labels=g.basis)
    pair = MatchedPair.unchecked(g, dual, rho, mu)
    return ReynoldsMatchedPair.unchecked(pair, rb.R, rb.Rt)


@verified
def drinfeld_double(rb: ReynoldsLieBialgebra) -> ReynoldsLieAlgebra:
    """g⋈g* with mixed bracket via the two coadjoint actions; operator R⊕(−Rᵀ).

    Each of the double's two checks is a linear identity of passed leaves of the gate.  Its
    Jacobiator is, block by block, J of g and of g*, the representation residuals of ad* of each
    (−(ad's)ᵀ: column k is J(e_i, e_j, e_k)) and compat-on-h and compat-on-g (the cocycle
    residual reindexed), so `jacobi_check` of g and of g* and `bialgebra_cocycle` entail its
    Jacobi check.  Its Reynolds residual is made of those of (g, R) and (g*, −Rᵀ) and ± the two
    cross compatibilities, which are minus the transposed Reynolds residuals of the same two (as
    in `dual_reynolds_rep`), so `is_reynolds` of each entails its Reynolds check.
    """
    require(rb.gate())
    g, dual, n = rb.bialg.g, rb.bialg.dual, rb.bialg.g.dim
    sc, dsc, den = integral(g.sc, dual.sc)
    table = double_table(sc, dsc, coadjoint_cols(table_rows(sc, n, True), n),
                         coadjoint_cols(table_rows(dsc, n, True), n))
    L = LieAlgebra(2 * n, g.basis + dual.basis, Table._of(2 * n, table, True, den),
                   given=[g.gate(), dual.gate(), bialgebra_cocycle(g, dual)])
    return ReynoldsLieAlgebra(L, Mat.block_diag(rb.R, rb.Rt),
                              given=[is_reynolds(g, rb.R), is_reynolds(dual, rb.Rt)])


@verified
def double_quasitriangular(rb: ReynoldsLieBialgebra) -> ReynoldsLieBialgebra:
    """The double as a Reynolds Lie bialgebra (D, D*_r, R⊕(−Rᵀ)).

    The bracket on D* is (−[ξ,η]_dual, [x,y]_g) blockwise: the first block
    of D* carries the negated dual bracket, the second carries g's bracket,
    mixed brackets vanish.  So D* = (g*)⁻ ⊕ g, and the gate of `drinfeld_double` entails its
    Jacobi and (−Rᵀ)⊕R = −(R⊕−Rᵀ)ᵀ Reynolds identities blockwise.  The cobracket D* defines is
    d r for r = Σᵢ eⁱ⊗eᵢ (eⁱ at index n + i), for any skew tables, and the cocycle residual of
    d r at (x, y) is (A⊗1 + 1⊗A) r, column k of A being J(x, y, e_k): the double's Jacobi
    check, which `drinfeld_double` entails, entails its cocycle.
    """
    dd = drinfeld_double(rb)
    g, dual, n = rb.bialg.g, rb.bialg.dual, rb.bialg.g.dim
    dsc, gsc, den = integral(dual.sc, g.sc)
    negated = {key: {k: -c for k, c in comp.items()} for key, comp in dsc.items()}
    sc = double_table(negated, gsc, [[{}] * n] * n, [[{}] * n] * n)
    star = LieAlgebra(2 * n, dual_basis(dd.L.basis), Table._of(2 * n, sc, True, den),
                      given=[dual.gate(), g.gate()])
    entail(bialgebra_cocycle, (dd.L, star), "cocycle", [dd.L.gate()])
    out = ReynoldsLieBialgebra.unchecked(LieBialgebra(dd.L, star), dd.R)
    given = [is_reynolds(dual, rb.Rt), is_reynolds(g, rb.R)]
    entail(is_reynolds, (star, out.Rt), "reynolds", given)
    require(out.gate())
    return out


# ---------------------------------------------------------------------------
# coboundary theory
# ---------------------------------------------------------------------------

def coboundary_cobracket(g: LieAlgebra, r: Tensor2) -> list[Tensor2]:
    """Δ(e_k) = (ad_{e_k}⊗Id + Id⊗ad_{e_k}) r."""
    if r.dim_left != g.dim or r.dim_right != g.dim:
        raise ValueError("tensor must live on g⊗g")
    ads, den = mult_cols(g.sc)
    return [Tensor2._of(r.dims, leg_sum(r.ientries, ad, 2), den * r.den) for ad in ads]


@verified
def coboundary_conditions(g: LieAlgebra, r: Tensor2) -> Certificate:
    """Invariance of r+σ(r) and ad-invariance of [[r,r]], per basis vector."""
    inv = symmetric_part_invariance(g, r)
    rr, s = _double_bracket(g, r)
    ads, den = mult_cols(g.sc)
    cy = scan("cybe-bracket-invariance",
              (((k,), leg_sum(rr, ad, 3)) for k, ad in enumerate(ads)), s * den)
    return Certificate.combine("coboundary-conditions", [inv, cy])


@verified
def reynolds_coboundary_condition(g: LieAlgebra, R: Mat, r: Tensor2) -> Certificate:
    """The coboundary Reynolds criterion applied to (R⊗Id+Id⊗R)(r).

    Vanishing for every basis x is equivalent to −Rᵀ being a Reynolds
    operator on the dual algebra of the coboundary bialgebra.  A ↦ A⊗Id + Id⊗A
    is linear, so the residual at e_k is that one map of M_k = ad_{Re_k} +
    R·ad_{Re_k} − R·ad_{e_k} applied to s = (R⊗Id + Id⊗R)(r), all on integers.
    """
    n = g.dim
    if not R.rows == R.cols == r.dim_left == r.dim_right == n:
        raise ValueError("operator/tensor dimension mismatch")
    rows, den = table_rows(g.sc.ientries, n, True), g.sc.den
    cols, d, e = R.icols, R.den, r.den
    s = leg_sum(r.ientries, cols, 2)        # d·e·s
    adr = products(rows, cols)              # adr[k][y] = den·d·[Re_k, e_y]

    def m_cols(k):                          # den·d²·M_k
        return [saxpy(saxpy(sapply(cols, adr[k].get(y, {})), d, adr[k].get(y, {})),
                      -d, sapply(cols, rows[k].get(y, {}))) for y in range(n)]
    return scan("reynolds-coboundary", (((k,), leg_sum(s, m_cols(k), 2)) for k in range(n)),
                den * d ** 3 * e)
