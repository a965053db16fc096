import random
from fractions import Fraction

import pytest

from algcert.certificates import CheckFailed
from algcert.exact import Mat, vbasis, vec
from algcert.lie import (
    BilinForm,
    LieAlgebra,
    Representation,
    adjoint_rep,
    bracket,
    coadjoint_rep,
    dual_rep,
    is_invariant_form,
    is_quadratic,
    is_representation,
    jacobi_check,
    s_sharp,
    semidirect,
)


def test_bracket_values(sl2):
    h, x, y = vbasis(3, 0), vbasis(3, 1), vbasis(3, 2)
    assert bracket(sl2, h, x) == vec([0, 2, 0])
    assert bracket(sl2, x, y) == vec([1, 0, 0])
    assert bracket(sl2, h, y) == vec([0, 0, -2])


def test_bracket_skew_on_random_vectors(sl2):
    rng = random.Random(1)
    for _ in range(30):
        v = vec([Fraction(rng.randint(-3, 3)) for _ in range(3)])
        w = vec([Fraction(rng.randint(-3, 3)) for _ in range(3)])
        assert bracket(sl2, v, v) == vec([0, 0, 0])
        assert bracket(sl2, v, w) == tuple(-c for c in bracket(sl2, w, v))


def test_jacobi_pass(sl2):
    assert jacobi_check(sl2).ok
    assert jacobi_check(LieAlgebra.abelian(4)).ok


def test_jacobi_fail_pinpoints(broken_jacobi):
    cert = jacobi_check(broken_jacobi)
    assert not cert.ok
    assert cert.where == (0, 1, 2)
    assert cert.residual == (((2,), Fraction(-1)),)
    assert cert.violations == 1


def test_checked_constructor_rejects_non_jacobi():
    with pytest.raises(CheckFailed):
        LieAlgebra(3, None, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}})


def test_sc_storage_validation():
    with pytest.raises(ValueError):
        LieAlgebra(2, None, {(1, 0): {0: 1}})
    with pytest.raises(ValueError):
        LieAlgebra(2, None, {(0, 1): {5: 1}})


def test_is_representation(sl2):
    assert is_representation(adjoint_rep(sl2)).ok
    assert is_representation(Representation.zero(sl2, 2)).ok
    broken = Representation.unchecked(
        sl2, 3, [Mat.identity(3), Mat.zeros(3, 3), Mat.zeros(3, 3)]
    )
    cert = is_representation(broken)
    assert not cert.ok
    assert cert.where == (1, 2)  # rho([X,Y]) = rho(H) = Id but [rho X, rho Y] = 0
    assert cert.violations == 1


def test_adjoint_values(sl2):
    ad_h = sl2.ad(0)
    assert ad_h.apply(vbasis(3, 0)) == vec([0, 0, 0])
    assert ad_h.apply(vbasis(3, 1)) == vec([0, 2, 0])
    assert ad_h.apply(vbasis(3, 2)) == vec([0, 0, -2])
    abelian = LieAlgebra.abelian(3)
    assert all(abelian.ad(i).is_zero() for i in range(3))


def test_coadjoint_values(sl2):
    coad = coadjoint_rep(sl2)
    # ad*_H X* = -2 X*
    assert coad.rho[0].apply(vbasis(3, 1)) == vec([0, -2, 0])
    assert is_representation(coad).ok


def test_dual_rep(sl2):
    assert dual_rep(Representation.zero(sl2, 2)).rho == Representation.zero(sl2, 2).rho
    assert tuple(dual_rep(adjoint_rep(sl2)).rho) == tuple(coadjoint_rep(sl2).rho)
    rep = adjoint_rep(sl2)
    assert tuple(dual_rep(dual_rep(rep)).rho) == tuple(rep.rho)
    assert is_representation(dual_rep(rep)).ok


def test_semidirect_zero_rep_is_direct_sum(sl2):
    out = semidirect(sl2, Representation.zero(sl2, 2))
    assert out.dim == 5
    assert jacobi_check(out).ok
    assert out.sc == sl2.sc  # no mixed or W-W brackets


def test_semidirect_adjoint_value(sl2):
    out = semidirect(sl2, adjoint_rep(sl2))
    # [H + 0, 0 + X] = 0 + 2X  (W block offset 3)
    got = out.bracket(vbasis(6, 0), vbasis(6, 4))
    assert got == vec([0, 0, 0, 0, 2, 0])
    assert jacobi_check(out).ok


def test_semidirect_always_jacobi(sl2):
    for rep in (adjoint_rep(sl2), coadjoint_rep(sl2), Representation.zero(sl2, 3)):
        assert jacobi_check(semidirect(sl2, rep)).ok


def test_semidirect_rejects_a_non_lie_base(non_lie):
    # the zero action is a representation of any table, so only the Jacobi identity of the
    # base fails: the output's Jacobi check, no longer entailed, fails at the base's triple
    L = non_lie
    rep = Representation.zero(L, 1)
    assert is_representation(rep).ok and not jacobi_check(L).ok
    with pytest.raises(CheckFailed) as exc:
        semidirect(L, rep)
    cert = exc.value.certificate
    assert (cert.check, cert.where, cert.violations) == ("jacobi", (0, 1, 2), 1)
    assert cert.residual == (((0,), Fraction(-1)), ((2,), Fraction(-1)))


def test_semidirect_needs_a_representation_of_its_base(sl2):
    other = LieAlgebra(3, ("H", "X", "Y"), {(0, 1): {1: 1}, (0, 2): {2: -1}})
    with pytest.raises(ValueError, match="rep must represent L"):
        semidirect(sl2, Representation.zero(other, 1))


def test_invariant_form(sl2, s_form):
    assert is_invariant_form(sl2, s_form).ok
    assert is_quadratic(sl2, s_form).ok
    abelian = LieAlgebra.abelian(2)
    ident = BilinForm(Mat.identity(2))
    assert is_quadratic(abelian, ident).ok
    cert = is_invariant_form(sl2, BilinForm(Mat.identity(3)))
    assert not cert.ok
    assert cert.where == (0, 1, 1)
    assert cert.residual == (((0, 1, 1), Fraction(4)),)


def test_quadratic_flags_degenerate(sl2):
    degenerate = BilinForm(Mat.zeros(3, 3))
    cert = is_quadratic(sl2, degenerate)
    assert not cert.ok
    names = {p.check: p.ok for p in cert.parts}
    assert names["invariant-form"] is True
    assert names["nondegenerate"] is False


def test_s_sharp_values(s_form):
    sharp = s_sharp(s_form)
    assert sharp.apply(vbasis(3, 0)) == vec([2, 0, 0])   # S#(H) = 2H*
    assert sharp.apply(vbasis(3, 1)) == vec([0, 0, 1])   # S#(X) = Y*
    assert sharp.apply(vbasis(3, 2)) == vec([0, 1, 0])   # S#(Y) = X*
    assert s_form.gram.inverse() @ sharp == Mat.identity(3)
    assert s_sharp(BilinForm(Mat.identity(2))) == Mat.identity(2)
    with pytest.raises(ValueError):
        s_sharp(BilinForm(Mat.zeros(2, 2)))


def test_s_sharp_intertwines_ad_and_coad(sl2, s_form):
    sharp = s_sharp(s_form)
    coad = coadjoint_rep(sl2)
    for i in range(3):
        assert sharp @ sl2.ad(i) == coad.rho[i] @ sharp


def test_semidirect_random_low_dim_reps():
    # commuting (diagonal) random actions of an abelian algebra are valid reps
    rng = random.Random(41)
    g = LieAlgebra.abelian(2)
    for _ in range(10):
        mats = [
            Mat([[Fraction(rng.randint(-3, 3)), 0], [0, Fraction(rng.randint(-3, 3))]])
            for _ in range(2)
        ]
        rep = Representation(g, 2, mats)
        assert jacobi_check(semidirect(g, rep)).ok
