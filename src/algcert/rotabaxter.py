"""Rota-Baxter operators, quadratic structures, and the pipeline to r-matrices.

Two different adjoints coexist and are kept apart throughout: the plain
dual-basis transpose (for maps to/from the dual space) and the S-adjoint
R^{*,S} = I_S∘Rᵀ∘I_S⁻¹ inside one quadratic space.  The compatibility
gate B∘R^{*,S} = −R∘B is exactly equivalent to (R⊗Id+Id⊗R)(r^{B,S}) = 0;
the plain-transpose comparison is reported alongside for inspection.
"""

from __future__ import annotations

from itertools import combinations

from .certificates import Certificate, Checked, entail, require, scan, verified
from .exact import (ZERO, Mat, Table, Tensor2, integral, products, rat, sapply, saxpy,
                    table_rows)
from .lie import BilinForm, LieAlgebra, dual_basis, is_quadratic, mult_mats
from .reynolds import (inner_products, is_reynolds, lie_operands, operator_form_compat,
                       operator_identity)


class RotaBaxterAlg(Checked, gate=lambda A: is_rota_baxter(A.L, A.B, A.lam)):
    """[Bx,By] = B([Bx,y] + [x,By] + λ[x,y])."""

    __slots__ = ("L", "B", "lam")

    def __init__(self, L: LieAlgebra, B: Mat, lam):
        if B.rows != L.dim or B.cols != L.dim:
            raise ValueError("operator shape does not match the algebra")
        self.L = L
        self.B = B
        self.lam = rat(lam)


@verified
def is_rota_baxter(L: LieAlgebra, B: Mat, lam) -> Certificate:
    """Exhaustive basis-pair check of the Rota-Baxter identity of weight λ."""
    return operator_identity("rota-baxter", *lie_operands(L, B), rat(lam), ZERO)


@verified
def descendent(rb: RotaBaxterAlg) -> LieAlgebra:
    """[x,y]_B = [Bx,y] + [x,By] + λ[x,y]; B becomes a homomorphism to g."""
    require(rb.gate())
    sc, s = inner_products(*lie_operands(rb.L, rb.B), rb.lam, ZERO)
    return LieAlgebra(rb.L.dim, rb.L.basis, Table._of(rb.L.dim, sc, True, s))


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


class QuadraticRB(Checked, gate=lambda Q: is_quadratic_rb(Q.rb, Q.S)):
    """Quadratic Rota-Baxter Lie algebra: S invariant, nondegenerate, B-compatible."""

    __slots__ = ("rb", "S")

    def __init__(self, rb: RotaBaxterAlg, S: BilinForm):
        self.rb = rb
        self.S = S


@verified
def is_quadratic_rb(rb: RotaBaxterAlg, S: BilinForm) -> Certificate:
    """Quadratic (L,S) plus S(x,By) + S(Bx,y) + λS(x,y) = 0 over pairs."""
    quad = is_quadratic(rb.L, S)
    compat = operator_form_compat(rb.L, S, rb.B, "rb-compat", lam=rb.lam)
    rbc = rb.gate()
    return Certificate.combine("quadratic-rb", [rbc, quad, compat])


@verified
def r_from_qrb(qrb: QuadraticRB) -> Tensor2:
    """The tensor with r_+ = B∘I_S; a CYBE solution with descendent compatibility.

    Entry convention: r_+(e_i*) = Σ_j r_ij e_j, i.e. the tensor is the
    transpose-indexed matrix of B∘I_S.

    [[r,r]] = (I_S⁻¹⊗I_S⁻¹⊗Id)(P), P(e_a, e_b) = [Be_a,Be_b] − B([Be_a,e_b] + [e_a,Be_b] +
    λ[e_a,e_b]) the Rota-Baxter residual, for any bracket, any weight λ and any S that is
    invariant with S(x,By) + S(Bx,y) + λS(x,y) = 0 (Kupershmidt 1999 at λ = 0): the gate's
    stages entail the CYBE.
    """
    return _r_and_dual(qrb)[0]


def _r_and_dual(qrb: QuadraticRB) -> tuple[Tensor2, LieAlgebra]:
    """`r_from_qrb`'s tensor r and the dual bracket it builds from r on the way."""
    from .cybe import is_cybe_solution

    gate = require(qrb.gate())
    L = qrb.rb.L
    n = L.dim
    m = qrb.rb.B @ qrb.S.gram.inverse()
    r = Tensor2._of((n, n), {(i, j): c for i, col in enumerate(m.icols) for j, c in col.items()},
                    m.den)

    entail(is_cybe_solution, (L, r), "cybe", gate.parts)
    require(is_cybe_solution(L, r))
    dual = dual_bracket_from_r(L, r)
    desc = descendent(qrb.rb)
    # S♯ is the gram matrix, nondegenerate as `is_quadratic_rb` certified and inverted above
    sharp, dual_sc, desc_sc, d = integral(qrb.S.gram, dual.sc, desc.sc)
    ss = products(table_rows(dual_sc, n, True), sharp, sharp)

    def diff(i, j):
        # S♯ is a homomorphism from the descendent algebra to the dual algebra; d³ times
        return saxpy(ss[i].get(j, {}), -d, sapply(sharp, desc_sc.get((i, j), {})))
    require(scan("descendent-compatibility",
                 (((i, j), diff(i, j)) for i, j in combinations(range(n), 2)), d ** 3))
    return r, dual


@verified
def dual_bracket_from_r(g: LieAlgebra, r: Tensor2) -> LieAlgebra:
    """[ξ,η]_r = ad*_{r₊ξ}η − ad*_{r₋η}ξ on dual coordinates, r₋ = −r₊ᵀ."""
    from .cybe import r_plus, symmetric_part_invariance

    if r.dim_left != g.dim or r.dim_right != g.dim:
        raise ValueError("tensor must live on g⊗g")
    require(symmetric_part_invariance(g, r))
    n = g.dim
    rows, den, rp = table_rows(g.sc.ientries, n, True), g.sc.den, r_plus(r)
    # ad*_v e_b* = −Σ_k [v,e_k]_b e_k*; adp[a][k] = D·d·[r₊e_a*,e_k], adm[b][k] = D·d·[r₋e_b*,e_k]
    adp = products(rows, rp.icols)
    adm = products(rows, (-rp.transpose()).icols)

    def comp(a, b):      # D·d·[eᵃ, eᵇ]_r, its k-th coefficient −adp[a][k]_b + adm[b][k]_a
        return saxpy({k: -v.get(b, 0) for k, v in adp[a].items()}, 1,
                     {k: v.get(a, 0) for k, v in adm[b].items()})
    return LieAlgebra(n, dual_basis(g.basis), Table._of(n, {
        (a, b): comp(a, b) for a, b in combinations(range(n), 2)}, True, den * rp.den))


def i_operator(r: Tensor2) -> Mat:
    """I = r₊ − r₋ = r₊ + r₊ᵀ; symmetric part of r (doubled)."""
    from .cybe import r_plus

    rp = r_plus(r)
    return rp + rp.transpose()


@verified
def is_factorizable(g: LieAlgebra, r: Tensor2) -> Certificate:
    """Quasi-triangular conditions plus invertibility of I, with I∘ad* = ad∘I."""
    from .cybe import is_cybe_solution, symmetric_part_invariance

    parts = [symmetric_part_invariance(g, r), is_cybe_solution(g, r)]
    i_mat = i_operator(r)
    parts.append(Certificate.decide("i-invertible", i_mat.det() != 0,
                                    "I = r₊ − r₋ is singular"))
    parts.append(scan("i-intertwines", (((k,), i_mat @ (-ad.transpose()) - ad @ i_mat)
                                        for k, ad in enumerate(mult_mats(g.sc)))))
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
    """Assemble (g, dual-from-r^{B,S}, R); a Reynolds Lie bialgebra.

    r is entailed a CYBE solution as in `r_from_qrb`.  The cobracket read off the dual table
    is d r = (ad⊗Id + Id⊗ad) r whenever r + σ(r) is invariant, for any bracket, and the
    cocycle residual of d r at (x, y) is (A⊗1 + 1⊗A) r, column k of A being J(x, y, e_k), as
    in `double_quasitriangular`: `jacobi_check(g)` and the symmetric-part invariance that
    `dual_bracket_from_r` required entail the bialgebra's cocycle.
    """
    from .bialgebra import LieBialgebra, ReynoldsLieBialgebra, bialgebra_cocycle
    from .cybe import symmetric_part_invariance

    require(is_reynolds_on_qrb(qrb, R))
    r, dual = _r_and_dual(qrb)
    g = qrb.rb.L
    entail(bialgebra_cocycle, (g, dual), "cocycle", [g.gate(), symmetric_part_invariance(g, r)])
    return ReynoldsLieBialgebra(LieBialgebra(g, dual), R)
