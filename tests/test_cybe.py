from fractions import Fraction

import pytest

from algcert.exact import Mat, Tensor2, flip, vbasis, vec
from algcert.cybe import (
    PreLieAlgebra,
    RelativeRB,
    ReynoldsPreLie,
    canonical_r,
    cybe_bracket,
    descendent_on_W,
    is_cybe_solution,
    is_cybe_solution_reynolds,
    is_prelie,
    is_relative_rb,
    is_reynolds_prelie,
    left_rep,
    matched_from_relrb,
    prelie_from_invertible_relrb,
    prelie_from_relrb,
    r_plus,
    rk_solution,
    subadjacent,
)
from algcert.matched import is_reynolds_matched_pair
from algcert.reynolds import (
    is_reynolds,
    reynolds_adjoint_rep,
    reynolds_coadjoint_rep,
)
from algcert.rotabaxter import dual_bracket_from_r, r_from_qrb


def x_wedge_y():
    return Tensor2(3, 3, {(1, 2): 1, (2, 1): -1})


def test_cybe_bracket_trivial(sl2):
    assert cybe_bracket(sl2, Tensor2(3, 3)).is_zero()
    assert cybe_bracket(sl2, Tensor2(3, 3, {(0, 0): 1})).is_zero()  # H⊗H


def test_cybe_bracket_solution(sl2, r_tensor):
    assert cybe_bracket(sl2, r_tensor).is_zero()
    assert is_cybe_solution(sl2, r_tensor).ok


def test_cybe_bracket_nonsolution(sl2):
    rr = cybe_bracket(sl2, x_wedge_y())
    expected = {
        (0, 1, 2): Fraction(1), (0, 2, 1): Fraction(-1),
        (1, 2, 0): Fraction(1), (2, 1, 0): Fraction(-1),
        (1, 0, 2): Fraction(-1), (2, 0, 1): Fraction(1),
    }
    assert dict(rr.items()) == expected


def test_is_cybe_solution_reynolds(sl2_reynolds, r_tensor):
    assert is_cybe_solution_reynolds(sl2_reynolds, r_tensor).ok
    assert is_cybe_solution_reynolds(sl2_reynolds, Tensor2(3, 3)).ok
    cert = is_cybe_solution_reynolds(sl2_reynolds, x_wedge_y())
    assert not cert.ok
    names = {p.check: p.ok for p in cert.parts}
    assert names["reynolds-tensor-condition"] is False


def test_r_plus_values(r_tensor):
    m = r_plus(r_tensor)
    assert m.apply(vbasis(3, 0)) == vec([0, 1, 0])   # r+(H*) = X
    assert m.apply(vbasis(3, 1)) == vec([-1, 0, 0])  # r+(X*) = -H
    assert m.apply(vbasis(3, 2)) == vec([0, 0, 0])
    assert r_plus(Tensor2(2, 2)).is_zero()
    sym = Tensor2(2, 2, {(0, 1): 1, (1, 0): 1})
    assert not sym.is_skew()
    assert r_tensor.is_skew()


def coadjoint_relrb(sl2_reynolds, sl2_qrb):
    K = r_plus(r_from_qrb(sl2_qrb))
    return RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), K)


def test_is_relative_rb(sl2_reynolds, sl2_qrb):
    rel = coadjoint_relrb(sl2_reynolds, sl2_qrb)
    assert is_relative_rb(rel).ok
    zero = RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), Mat.zeros(3, 3))
    assert is_relative_rb(zero).ok


def test_relative_rb_failure(sl2_reynolds):
    rel = RelativeRB.unchecked(reynolds_adjoint_rep(sl2_reynolds), Mat.identity(3))
    cert = is_relative_rb(rel)
    assert not cert.ok
    assert cert.first_failure().check == "operator-identity"


def test_descendent_on_w(sl2_reynolds, sl2_qrb, sl2):
    rel = coadjoint_relrb(sl2_reynolds, sl2_qrb)
    desc = descendent_on_W(rel)
    r = r_from_qrb(sl2_qrb)
    # for skew r the K-bracket on g* equals the r-bracket
    assert desc.L.sc == dual_bracket_from_r(sl2, r).sc
    assert is_reynolds(desc.L, desc.R).ok
    # K is a homomorphism onto (g, R)
    K = rel.K
    for a in range(3):
        for b in range(3):
            lhs = K.apply(desc.L.bracket_basis(a, b))
            rhs = sl2.bracket(K.apply(vbasis(3, a)), K.apply(vbasis(3, b)))
            assert lhs == rhs


def test_descendent_on_w_zero_k(sl2_reynolds):
    rel = RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), Mat.zeros(3, 3))
    desc = descendent_on_W(rel)
    assert desc.L.sc == {}


def test_matched_from_relrb(sl2_reynolds, sl2_qrb):
    rel = coadjoint_relrb(sl2_reynolds, sl2_qrb)
    rmp = matched_from_relrb(rel)
    assert is_reynolds_matched_pair(rmp).ok
    zero = RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), Mat.zeros(3, 3))
    assert is_reynolds_matched_pair(matched_from_relrb(zero)).ok


def test_matched_from_relrb_hands_on_the_relative_rb_representation(sl2_reynolds, sl2_qrb,
                                                                    scans):
    # ρ of the pair is rel.rr.rep itself, whose checks rel carries or its gate decided: the
    # pair's gate scans only μ's representation and cross-compat-mu
    rel = coadjoint_relrb(sl2_reynolds, sl2_qrb)
    scans.clear()
    rmp = matched_from_relrb(rel)
    assert dict(scans) == {"jacobi": 1, "reynolds": 2, "representation": 1, "compat-on-h": 2,
                           "compatibility": 1}
    assert rmp.pair.rho is rel.rr.rep
    # an unchecked copy carries nothing: its gate scans ρ's representation and compatibility
    scans.clear()
    matched_from_relrb(RelativeRB.unchecked(rel.rr, rel.K))
    assert (scans["representation"], scans["compatibility"]) == (2, 2)


def test_rk_solution(sl2_reynolds, sl2_qrb):
    rel = coadjoint_relrb(sl2_reynolds, sl2_qrb)
    ambient, rk = rk_solution(rel)
    assert ambient.L.dim == 6
    assert flip(rk) == rk.scale(-1)
    assert is_cybe_solution_reynolds(ambient, rk).ok


def test_rk_solution_zero(sl2_reynolds):
    rel = RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), Mat.zeros(3, 3))
    ambient, rk = rk_solution(rel)
    assert rk.is_zero()
    assert ambient.L.dim == 6


def test_is_prelie():
    assoc = PreLieAlgebra(2, None, {(0, 0): {0: 1}})
    assert is_prelie(assoc).ok
    bad = PreLieAlgebra.unchecked(2, None, {(0, 0): {1: 1}, (1, 0): {0: 1}})
    cert = is_prelie(bad)
    assert not cert.ok
    assert cert.where is not None


def test_prelie_from_relrb(sl2_reynolds, sl2_qrb):
    rel = coadjoint_relrb(sl2_reynolds, sl2_qrb)
    rp = prelie_from_relrb(rel)
    assert is_prelie(rp.A).ok
    assert is_reynolds_prelie(rp.A, rp.R).ok
    assert rp.R == rel.rr.T


def test_reynolds_prelie_identity_and_scaling(sl2_reynolds, sl2_qrb):
    rp = prelie_from_relrb(coadjoint_relrb(sl2_reynolds, sl2_qrb))
    assert is_reynolds_prelie(rp.A, Mat.identity(3)).ok
    cert = is_reynolds_prelie(rp.A, Mat.identity(3).scale(2))
    assert not cert.ok


def test_subadjacent_matches_descendent(sl2_reynolds, sl2_qrb):
    rel = coadjoint_relrb(sl2_reynolds, sl2_qrb)
    rp = prelie_from_relrb(rel)
    sub = subadjacent(rp)
    assert sub.L.sc == descendent_on_W(rel).L.sc
    assert is_reynolds(sub.L, sub.R).ok


def test_subadjacent_commutative_prelie():
    sym = PreLieAlgebra(2, None, {(0, 0): {0: 1}})
    sub = subadjacent(ReynoldsPreLie(sym, Mat.zeros(2, 2)))
    assert sub.L.sc == {}


def test_left_rep_and_identity_relative_rb(sl2_reynolds, sl2_qrb):
    rp = prelie_from_relrb(coadjoint_relrb(sl2_reynolds, sl2_qrb))
    lr = left_rep(rp)
    rel = RelativeRB(lr, Mat.identity(3))
    assert is_relative_rb(rel).ok


def test_prelie_from_invertible_relrb(sl2_reynolds, sl2_qrb):
    rp = prelie_from_relrb(coadjoint_relrb(sl2_reynolds, sl2_qrb))
    lr = left_rep(rp)
    rel = RelativeRB(lr, Mat.identity(3))
    back = prelie_from_invertible_relrb(rel)
    assert back.A == rp.A
    # sub-adjacent of the invertible construction is the base algebra, exactly
    assert subadjacent(back).L.sc == lr.base.L.sc
    singular = RelativeRB(lr, Mat.zeros(3, 3))
    with pytest.raises(ValueError):
        prelie_from_invertible_relrb(singular)


def test_canonical_r_one_dim():
    one = PreLieAlgebra(1, ("e",), {})
    ambient, r = canonical_r(ReynoldsPreLie(one, Mat.zeros(1, 1)))
    assert ambient.L.dim == 2
    assert r == Tensor2(2, 2, {(0, 1): 1, (1, 0): -1})
    assert is_cybe_solution_reynolds(ambient, r).ok


def test_canonical_r_sl2_case(sl2_reynolds, sl2_qrb):
    rp = prelie_from_relrb(coadjoint_relrb(sl2_reynolds, sl2_qrb))
    ambient, r = canonical_r(rp)
    assert ambient.L.dim == 6
    assert is_cybe_solution_reynolds(ambient, r).ok
    assert flip(r) == r.scale(-1)


def test_canonical_r_commutative_identity_operator():
    sym = PreLieAlgebra(2, None, {(0, 0): {0: 1}})
    ambient, r = canonical_r(ReynoldsPreLie(sym, Mat.identity(2)))
    assert is_cybe_solution_reynolds(ambient, r).ok


def test_canonical_r_is_negated_rk(sl2_reynolds, sl2_qrb):
    rp = prelie_from_relrb(coadjoint_relrb(sl2_reynolds, sl2_qrb))
    lr = left_rep(rp)
    ambient_rk, rk = rk_solution(RelativeRB(lr, Mat.identity(3)))
    ambient_can, rcan = canonical_r(rp)
    assert ambient_rk.L == ambient_can.L and ambient_rk.R == ambient_can.R
    assert rcan == rk.scale(-1)


def test_rplus_relative_rb_iff_cybe(sl2_reynolds, r_tensor):
    # skew r: r+ relative RB w.r.t. coadjoint <=> both CYBE conditions
    rel_ok = is_relative_rb(
        RelativeRB.unchecked(reynolds_coadjoint_rep(sl2_reynolds), r_plus(r_tensor))
    ).ok
    cybe_ok = is_cybe_solution_reynolds(sl2_reynolds, r_tensor).ok
    assert rel_ok is True and cybe_ok is True
    bad = Tensor2(3, 3, {(1, 2): 1, (2, 1): -1})
    rel_bad = is_relative_rb(
        RelativeRB.unchecked(reynolds_coadjoint_rep(sl2_reynolds), r_plus(bad))
    ).ok
    cybe_bad = is_cybe_solution_reynolds(sl2_reynolds, bad).ok
    assert rel_bad is False and cybe_bad is False


def test_relative_rb_iff_rb_weight0(sl2_reynolds, sl2_qrb, s_form):
    # K relative RB w.r.t. coadjoint <=> K∘S# is a commuting Rota-Baxter of weight 0
    from algcert.lie import s_sharp
    from algcert.rotabaxter import is_rota_baxter

    sharp = s_sharp(s_form)
    for K, expected in (
        (r_plus(r_from_qrb(sl2_qrb)), True),
        (Mat.zeros(3, 3), True),
        (r_plus(Tensor2(3, 3, {(1, 2): 1, (2, 1): -1})), False),
    ):
        rel_ok = is_relative_rb(
            RelativeRB.unchecked(reynolds_coadjoint_rep(sl2_reynolds), K)
        ).ok
        ks = K @ sharp
        rb_ok = (
            is_rota_baxter(sl2_reynolds.L, ks, 0).ok
            and (sl2_reynolds.R @ ks - ks @ sl2_reynolds.R).is_zero()
        )
        assert rel_ok == rb_ok == expected


def test_identity_k_on_left_rep_gives_subadjacent(sl2_reynolds, sl2_qrb):
    rp = prelie_from_relrb(coadjoint_relrb(sl2_reynolds, sl2_qrb))
    rel = RelativeRB(left_rep(rp), Mat.identity(3))
    desc = descendent_on_W(rel)
    assert desc.L.sc == subadjacent(rp).L.sc
    rmp = matched_from_relrb(rel)
    assert is_reynolds_matched_pair(rmp).ok
