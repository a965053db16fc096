"""Lie bialgebras, Reynolds Lie bialgebras, Drinfeld doubles and coboundary theory.

A bialgebra is stored as two structure-constant tables (g, dual); the
cobracket is derived, never stored, under the pairing
⟨Δ(x), ξ⊗η⟩ = ⟨x, [ξ,η]⟩ with Δ skew, i.e.
Δ(e_k) = Σ_{i<j} c*_{ij}^k (e_i⊗e_j − e_j⊗e_i) from the one-sided dual
table.  Any uniform rescaling of Δ leaves every verdict unchanged, so the
wedge-normalization ambiguity cannot affect a certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .certificates import Certificate, Checked, require, scan, verified
from .cybe import ad_invariance_cert, ad_on_tensor, cybe_bracket
from .exact import ZERO, Mat, Table, Tensor2, flip, integral, tensor2_map, tensor3_map
from .lie import (LieAlgebra, Representation, block_rows, coadjoint_cols, coadjoint_rep,
                  double_table, dual_basis, jacobi_check, jacobiator)
from .matched import MatchedPair, ReynoldsMatchedPair, reynolds_double
from .reynolds import ReynoldsLieAlgebra, is_reynolds


class LieBialgebra(Checked):
    """(g, dual): two Lie algebras on dual coordinate spaces, cocycle-compatible."""

    __slots__ = ("g", "dual")

    def __init__(self, g: LieAlgebra, dual: LieAlgebra, check: bool = True):
        if g.dim != dual.dim:
            raise ValueError("g and its dual must have equal dimension")
        self.g = g
        self.dual = dual
        if check:
            require(is_lie_bialgebra(g, dual))

    def cobracket(self) -> list[Tensor2]:
        return cobracket_from_dual(self.dual)


def cobracket_from_dual(dual: LieAlgebra) -> list[Tensor2]:
    """Δ(e_k) as a skew tensor read off the dual structure constants."""
    n, rows = dual.dim, dual.sc.rows()
    return [Tensor2(n, n, {(i, j): comp[k] for i, row in enumerate(rows)
                           for j, comp in row.items() if k in comp}) for k in range(n)]


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
    return LieAlgebra(n, basis, _cotable(deltas, True), check=False)


def _cotable(deltas: list[Tensor2], skew: bool) -> Table:
    """The dual product eᵃ·eᵇ = Σ_k Δ(e_k)_ab eᵏ; a skew table keeps the keys a < b."""
    sc: dict[tuple[int, int], dict[int, Fraction]] = {}
    for k, d in enumerate(deltas):
        for (a, b), c in d.entries.items():
            if a < b or not skew:
                sc.setdefault((a, b), {})[k] = c
    return Table._of(len(deltas), sc, skew)


def delta_vec(deltas: list[Tensor2], v) -> Tensor2:
    """Δ extended linearly to an arbitrary vector."""
    n = deltas[0].dim_left
    out: dict[tuple[int, int], Fraction] = {}
    for k, c in enumerate(v):
        if c != 0:
            for key, d in deltas[k].entries.items():
                out[key] = out.get(key, ZERO) + c * d
    return Tensor2(n, n, out)


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
    rows = co.rows()
    out: list[dict] = [{} for _ in range(n)]
    for x, y, z in combinations(range(n), 3):
        for k, c in jacobiator(rows, rows, x, y, z).items():
            out[k].update({(x, y, z): c, (y, z, x): c, (z, x, y): c,
                           (x, z, y): -c, (z, y, x): -c, (y, x, z): -c})
    return scan("coalgebra", (((k,), v) for k, v in enumerate(out)), -den * den)


@verified
def is_reynolds_coalgebra(deltas: list[Tensor2], R: Mat) -> Certificate:
    """(R⊗R)Δ = (R⊗Id + Id⊗R − R⊗R)ΔR per basis vector."""
    n = len(deltas)
    if R.rows != n or R.cols != n:
        raise ValueError("operator shape does not match the coalgebra")
    ident = Mat.identity(n)

    def residual(k):
        delta_rk = delta_vec(deltas, R.col(k))
        rhs = (
            tensor2_map(R, ident, delta_rk)
            + tensor2_map(ident, R, delta_rk)
            - tensor2_map(R, R, delta_rk)
        )
        return tensor2_map(R, R, deltas[k]) - rhs
    return scan("reynolds-coalgebra", (((k,), residual(k)) for k in range(n)))


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
    rows = double_table(sc, Table._of(n, {}, True), coadjoint_cols(sc.rows(), n),
                        coadjoint_cols(co.rows(), n)).rows()
    outer = block_rows(rows, 0, n)

    def residual(i, j):
        return {(a, b): c for a in range(n)
                for b, c in jacobiator(rows, outer, i, j, n + a).items()}
    return scan("cocycle", (((i, j), residual(i, j))
                            for i, j in combinations(range(n), 2)), den * den)


@verified
def is_lie_bialgebra(g: LieAlgebra, dual: LieAlgebra) -> Certificate:
    """Jacobi on both sides plus the 1-cocycle condition."""
    parts = [
        Certificate.combine("jacobi-primal", [jacobi_check(g)]),
        Certificate.combine("jacobi-dual", [jacobi_check(dual)]),
        cocycle_check(g, cobracket_from_dual(dual)),
    ]
    return Certificate.combine("lie-bialgebra", parts)


class ReynoldsLieBialgebra(Checked):
    __slots__ = ("bialg", "R")

    def __init__(self, bialg: LieBialgebra, R: Mat, check: bool = True):
        if R.rows != bialg.g.dim or R.cols != bialg.g.dim:
            raise ValueError("operator shape does not match the bialgebra")
        self.bialg = bialg
        self.R = R
        if check:
            require(is_reynolds_bialgebra(bialg, R))


@verified
def is_reynolds_bialgebra(bialg: LieBialgebra, R: Mat) -> Certificate:
    """R Reynolds on g and −Rᵀ Reynolds on the dual (bialgebra axioms included)."""
    parts = [
        is_lie_bialgebra(bialg.g, bialg.dual),
        Certificate.combine("reynolds-primal", [is_reynolds(bialg.g, R)]),
        Certificate.combine("reynolds-dual",
                            [is_reynolds(bialg.dual, -R.transpose())]),
    ]
    return Certificate.combine("reynolds-bialgebra", parts)


def canonical_pair(rb: ReynoldsLieBialgebra) -> ReynoldsMatchedPair:
    """((g,R), (g*,−Rᵀ); ad*, ad-of-dual*) — the pair behind every equivalence."""
    g, dual = rb.bialg.g, rb.bialg.dual
    rho = Representation(g, dual.dim, coadjoint_rep(g).rho, labels=dual.basis, check=False)
    mu = Representation(dual, g.dim, coadjoint_rep(dual).rho, labels=g.basis, check=False)
    pair = MatchedPair.unchecked(g, dual, rho, mu)
    return ReynoldsMatchedPair.unchecked(pair, rb.R, -rb.R.transpose())


@verified
def drinfeld_double(rb: ReynoldsLieBialgebra) -> ReynoldsLieAlgebra:
    """g⋈g* with mixed bracket via the two coadjoint actions; operator R⊕(−Rᵀ)."""
    require(is_reynolds_bialgebra(rb.bialg, rb.R))
    return reynolds_double(canonical_pair(rb))


@verified
def double_quasitriangular(rb: ReynoldsLieBialgebra) -> ReynoldsLieBialgebra:
    """The double as a Reynolds Lie bialgebra (D, D*_r, R⊕(−Rᵀ)).

    The bracket on D* is (−[ξ,η]_dual, [x,y]_g) blockwise: the first block
    of D* carries the negated dual bracket, the second carries g's bracket,
    mixed brackets vanish.
    """
    dd = drinfeld_double(rb)
    g, dual = rb.bialg.g, rb.bialg.dual
    n = g.dim
    negated = Table._of(n, {key: {k: -c for k, c in comp.items()}
                            for key, comp in dual.sc.items()}, True)
    sc = double_table(negated, g.sc, [[{}] * n] * n, [[{}] * n] * n)
    dual_of_double = LieAlgebra(2 * n, dual_basis(dd.L.basis), sc)
    return ReynoldsLieBialgebra(LieBialgebra(dd.L, dual_of_double), dd.R)


# ---------------------------------------------------------------------------
# coboundary theory
# ---------------------------------------------------------------------------

def coboundary_cobracket(g: LieAlgebra, r: Tensor2) -> list[Tensor2]:
    """Δ(e_k) = (ad_{e_k}⊗Id + Id⊗ad_{e_k}) r."""
    if r.dim_left != g.dim or r.dim_right != g.dim:
        raise ValueError("tensor must live on g⊗g")
    rows = g.sc.rows()
    return [Tensor2(g.dim, g.dim, ad_on_tensor(rows, k, r)) for k in range(g.dim)]


@verified
def coboundary_conditions(g: LieAlgebra, r: Tensor2) -> Certificate:
    """Invariance of r+σ(r) and ad-invariance of [[r,r]], per basis vector."""
    ident = Mat.identity(g.dim)
    inv = ad_invariance_cert(g, r + flip(r), name="symmetric-part-invariance")
    rr = cybe_bracket(g, r)

    def cybe_residual(ad_k):
        return (
            tensor3_map(ad_k, ident, ident, rr)
            + tensor3_map(ident, ad_k, ident, rr)
            + tensor3_map(ident, ident, ad_k, rr)
        )
    cy = scan("cybe-bracket-invariance",
              (((k,), cybe_residual(g.ad(k))) for k in range(g.dim)))
    return Certificate.combine("coboundary-conditions", [inv, cy])


@verified
def reynolds_coboundary_condition(g: LieAlgebra, R: Mat, r: Tensor2) -> Certificate:
    """The coboundary Reynolds criterion applied to (R⊗Id+Id⊗R)(r).

    Vanishing for every basis x is equivalent to −Rᵀ being a Reynolds
    operator on the dual algebra of the coboundary bialgebra.
    """
    n = g.dim
    ident = Mat.identity(n)
    s = tensor2_map(R, ident, r) + tensor2_map(ident, R, r)

    def residual(k):
        ad_rk = g.ad_vec(R.col(k))
        ad_k = g.ad(k)
        return (
            tensor2_map(ad_rk, ident, s)
            + tensor2_map(ident, ad_rk, s)
            + tensor2_map(R @ ad_rk, ident, s)
            + tensor2_map(ident, R @ ad_rk, s)
            - tensor2_map(R @ ad_k, ident, s)
            - tensor2_map(ident, R @ ad_k, s)
        )
    return scan("reynolds-coboundary", (((k,), residual(k)) for k in range(n)))
