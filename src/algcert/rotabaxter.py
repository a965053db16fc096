"""Rota-Baxter operators, quadratic structures, and the pipeline to r-matrices.

Two different adjoints coexist and are kept apart throughout: the plain
dual-basis transpose (for maps to/from the dual space) and the S-adjoint
R^{*,S} = I_S∘Rᵀ∘I_S⁻¹ inside one quadratic space.  The compatibility
gate B∘R^{*,S} = −R∘B is exactly equivalent to (R⊗Id+Id⊗R)(r^{B,S}) = 0;
the plain-transpose comparison is reported alongside for inspection.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .certificates import (Certificate, Checked, CheckFailed, require, residual_from_vec, scan,
                           verified)
from .exact import (ONE, ZERO, Mat, Tensor2, flip, precompose, rat, sapply, saxpy, scols,
                    sprod, unscale)
from .lie import BilinForm, LieAlgebra, dual_basis, is_quadratic, s_sharp
from .reynolds import (is_reynolds, lie_operands, operator_brackets, operator_form_compat,
                       operator_identity)


class RotaBaxterAlg(Checked):
    """[Bx,By] = B([Bx,y] + [x,By] + λ[x,y])."""

    __slots__ = ("L", "B", "lam")

    def __init__(self, L: LieAlgebra, B: Mat, lam, check: bool = True):
        if B.rows != L.dim or B.cols != L.dim:
            raise ValueError("operator shape does not match the algebra")
        self.L = L
        self.B = B
        self.lam = rat(lam)
        if check:
            require(is_rota_baxter(L, B, self.lam))


@verified
def is_rota_baxter(L: LieAlgebra, B: Mat, lam) -> Certificate:
    """Exhaustive basis-pair check of the Rota-Baxter identity of weight λ."""
    return operator_identity("rota-baxter", *lie_operands(L, B), rat(lam), ZERO)


@verified
def descendent(rb: RotaBaxterAlg) -> LieAlgebra:
    """[x,y]_B = [Bx,y] + [x,By] + λ[x,y]; B becomes a homomorphism to g."""
    require(is_rota_baxter(rb.L, rb.B, rb.lam))
    _, _, s, pairs = operator_brackets(*lie_operands(rb.L, rb.B), rb.lam, ZERO)
    sc = {(i, j): unscale(inner, s) for i, j, _, inner in pairs}
    return LieAlgebra(rb.L.dim, rb.L.basis, sc)


@verified
def reynolds_descends(rb: RotaBaxterAlg, R: Mat) -> Certificate:
    """Whether R stays Reynolds on the descendent algebra.

    Commuting R∘B = B∘R is the sufficient hypothesis; when it fails the
    check still runs and the outcome is reported as found.
    """
    base = is_reynolds(rb.L, R)
    commutes = (R @ rb.B - rb.B @ R).is_zero()
    desc_cert = is_reynolds(descendent(rb), R)
    note = "R and B commute" if commutes else "R and B do not commute (hypothesis unmet)"
    return Certificate.combine(
        "reynolds-descends",
        [Certificate.combine("reynolds-on-base", [base]),
         Certificate.combine("reynolds-on-descendent", [desc_cert])],
        note=note,
    )


class QuadraticRB(Checked):
    """Quadratic Rota-Baxter Lie algebra: S invariant, nondegenerate, B-compatible."""

    __slots__ = ("rb", "S")

    def __init__(self, rb: RotaBaxterAlg, S: BilinForm, check: bool = True):
        self.rb = rb
        self.S = S
        if check:
            require(is_quadratic_rb(rb, S))


@verified
def is_quadratic_rb(rb: RotaBaxterAlg, S: BilinForm) -> Certificate:
    """Quadratic (L,S) plus S(x,By) + S(Bx,y) + λS(x,y) = 0 over pairs."""
    quad = is_quadratic(rb.L, S)
    compat = operator_form_compat(rb.L, S, rb.B, "rb-compat", lam=rb.lam)
    rbc = is_rota_baxter(rb.L, rb.B, rb.lam)
    return Certificate.combine("quadratic-rb", [rbc, quad, compat])


@verified
def r_from_qrb(qrb: QuadraticRB) -> Tensor2:
    """The tensor with r_+ = B∘I_S; a CYBE solution with descendent compatibility.

    Entry convention: r_+(e_i*) = Σ_j r_ij e_j, i.e. the tensor is the
    transpose-indexed matrix of B∘I_S.
    """
    from .cybe import is_cybe_solution

    require(is_quadratic_rb(qrb.rb, qrb.S))
    L = qrb.rb.L
    n = L.dim
    m = qrb.rb.B @ qrb.S.gram.inverse()
    entries = {
        (i, j): m.entries[j][i]
        for i in range(n)
        for j in range(n)
        if m.entries[j][i] != 0
    }
    r = Tensor2(n, n, entries)

    require(is_cybe_solution(L, r))
    dual = dual_bracket_from_r(L, r).sc.rows()
    sharp = scols(s_sharp(qrb.S))
    desc = descendent(qrb.rb)
    for i, j in combinations(range(n), 2):
        # S♯ is a homomorphism from the descendent algebra to the dual algebra
        diff = sprod(dual, sharp[i], sharp[j])
        saxpy(diff, -ONE, sapply(sharp, desc.sc.get((i, j), {})))
        if any(diff.values()):
            raise CheckFailed(
                Certificate.failed(
                    "descendent-compatibility", (i, j),
                    residual_from_vec(diff), 1,
                )
            )
    return r


@verified
def dual_bracket_from_r(g: LieAlgebra, r: Tensor2) -> LieAlgebra:
    """[ξ,η]_r = ad*_{r₊ξ}η − ad*_{r₋η}ξ on dual coordinates, r₋ = −r₊ᵀ."""
    from .cybe import ad_invariance_cert, r_plus

    if r.dim_left != g.dim or r.dim_right != g.dim:
        raise ValueError("tensor must live on g⊗g")
    require(ad_invariance_cert(g, r + flip(r), name="symmetric-part-invariance"))
    n = g.dim
    rp = r_plus(r)
    rows = g.sc.rows()
    # ad*_v e_b* = −Σ_k [v,e_k]_b e_k*, with adp[a][k] = [r₊e_a*, e_k], adm[b][k] = [r₋e_b*, e_k]
    adp = precompose(rows, scols(rp))
    adm = precompose(rows, scols(-rp.transpose()))
    sc = {}
    for a, b in combinations(range(n), 2):
        comp: dict[int, Fraction] = {}
        for k, v in adp[a].items():
            comp[k] = comp.get(k, ZERO) - v.get(b, ZERO)
        for k, v in adm[b].items():
            comp[k] = comp.get(k, ZERO) + v.get(a, ZERO)
        sc[a, b] = comp
    return LieAlgebra(n, dual_basis(g.basis), sc)


def i_operator(r: Tensor2) -> Mat:
    """I = r₊ − r₋ = r₊ + r₊ᵀ; symmetric part of r (doubled)."""
    from .cybe import r_plus

    rp = r_plus(r)
    return rp + rp.transpose()


@verified
def is_factorizable(g: LieAlgebra, r: Tensor2) -> Certificate:
    """Quasi-triangular conditions plus invertibility of I, with I∘ad* = ad∘I."""
    from .cybe import ad_invariance_cert, is_cybe_solution

    parts = [
        ad_invariance_cert(g, r + flip(r), name="symmetric-part-invariance"),
        is_cybe_solution(g, r),
    ]
    i_mat = i_operator(r)
    if i_mat.det() != 0:
        parts.append(Certificate.passed("i-invertible"))
    else:
        parts.append(Certificate(check="i-invertible", ok=False,
                                 note="I = r₊ − r₋ is singular"))

    def residual(ad_k):
        return i_mat @ (-ad_k.transpose()) - ad_k @ i_mat
    parts.append(scan("i-intertwines", (((k,), residual(g.ad(k))) for k in range(g.dim))))
    return Certificate.combine("factorizable", parts)


def s_adjoint(S: BilinForm, R: Mat) -> Mat:
    """R^{*,S} = I_S∘Rᵀ∘I_S⁻¹ = gram⁻¹·Rᵀ·gram."""
    gram = S.gram
    return gram.inverse() @ R.transpose() @ gram


@verified
def is_reynolds_on_qrb(qrb: QuadraticRB, R: Mat) -> Certificate:
    """R Reynolds on L and B∘R^{*,S} = −R∘B (S-adjoint reading).

    The note reports the plain-transpose comparison B∘Rᵀ vs −R∘B and
    whether λ(R + R^{*,S}) = 0, both for inspection only.
    """
    rey = is_reynolds(qrb.rb.L, R)
    rs = s_adjoint(qrb.S, R)
    compat = scan("adjoint-compat", [((0,), qrb.rb.B @ rs + R @ qrb.rb.B)])
    plain = (qrb.rb.B @ R.transpose() + R @ qrb.rb.B).is_zero()
    lam_skew = (rs + R).scale(qrb.rb.lam).is_zero()
    note = (
        f"plain-transpose variant {'holds' if plain else 'fails'}; "
        f"lambda-skewness {'holds' if lam_skew else 'fails'}"
    )
    return Certificate.combine(
        "reynolds-on-qrb",
        [Certificate.combine("reynolds", [rey]), compat],
        note=note,
    )


@verified
def minus_rstar_on_descendent(qrb: QuadraticRB, R: Mat) -> Certificate:
    """−R^{*,S} is Reynolds on the descendent algebra."""
    gate = is_reynolds_on_qrb(qrb, R)
    desc = descendent(qrb.rb)
    rs = s_adjoint(qrb.S, R)
    cert = is_reynolds(desc, -rs)
    return Certificate.combine(
        "minus-rstar-on-descendent",
        [gate, Certificate.combine("reynolds-on-descendent", [cert])],
    )


@verified
def thmFL_bialgebra(qrb: QuadraticRB, R: Mat) -> ReynoldsLieBialgebra:
    """Assemble (g, dual-from-r^{B,S}, R); a Reynolds Lie bialgebra."""
    from .bialgebra import LieBialgebra, ReynoldsLieBialgebra

    require(is_reynolds_on_qrb(qrb, R))
    r = r_from_qrb(qrb)
    dual = dual_bracket_from_r(qrb.rb.L, r)
    return ReynoldsLieBialgebra(LieBialgebra(qrb.rb.L, dual), R)
