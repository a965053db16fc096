from fractions import Fraction

import pytest

from algcert.bialgebra import (
    LieBialgebra,
    ReynoldsLieBialgebra,
    canonical_pair,
    cobracket_from_dual,
    coboundary_cobracket,
    coboundary_conditions,
    double_quasitriangular,
    drinfeld_double,
    dual_from_cobracket,
    is_lie_bialgebra,
    is_lie_coalgebra,
    is_reynolds_bialgebra,
    is_reynolds_coalgebra,
    reynolds_coboundary_condition,
)
from algcert.certificates import CheckFailed
from algcert.exact import Mat, Tensor2, vbasis, vec
from algcert.lie import LieAlgebra
from algcert.matched import reynolds_double
from algcert.reynolds import is_reynolds


def thmfl_dual():
    # [H*,X*] = 2H*, [H*,Y*] = 0, [X*,Y*] = -2Y*
    return LieAlgebra(3, ("H*", "X*", "Y*"), {(0, 1): {0: 2}, (1, 2): {2: -2}})


def km_dual():
    q = Fraction(1, 4)
    return LieAlgebra(3, ("H*", "X*", "Y*"), {(0, 1): {1: q}, (0, 2): {2: q}})


def test_cobracket_values():
    deltas = cobracket_from_dual(thmfl_dual())
    assert deltas[0] == Tensor2(3, 3, {(0, 1): 2, (1, 0): -2})
    assert deltas[1].is_zero()
    assert deltas[2] == Tensor2(3, 3, {(1, 2): -2, (2, 1): 2})


def test_cobracket_abelian_dual():
    deltas = cobracket_from_dual(LieAlgebra.abelian(3))
    assert all(d.is_zero() for d in deltas)


def test_cobracket_round_trip():
    for dual in (thmfl_dual(), km_dual(), LieAlgebra.abelian(2)):
        deltas = cobracket_from_dual(dual)
        back = dual_from_cobracket(deltas, dual.basis)
        assert back.sc == dual.sc and back.basis == dual.basis


def test_dual_from_cobracket_rejects_non_skew():
    with pytest.raises(ValueError):
        dual_from_cobracket([Tensor2(1, 1, {(0, 0): 1})])


def test_co_jacobi(sl2, broken_jacobi):
    assert is_lie_coalgebra(cobracket_from_dual(thmfl_dual())).ok
    cert = is_lie_coalgebra(cobracket_from_dual(broken_jacobi))
    assert not cert.ok
    assert cert.where is not None


# Δ(e_0) is skew; Δ(e_1) = e_0⊗e_1 and Δ(e_2) = ½ e_2⊗e_2 are not
NON_SKEW = [Tensor2(3, 3, {(0, 1): 1, (1, 0): -1}), Tensor2(3, 3, {(0, 1): 1}),
            Tensor2(3, 3, {(2, 2): Fraction(1, 2)})]


def test_non_skew_cobracket_is_a_counted_failure():
    # the residual is Δ(e_1) + σΔ(e_1); violations counts e_1 and e_2
    assert is_lie_coalgebra(NON_SKEW).to_json() == {
        "check": "coalgebra", "ok": False, "where": [1],
        "residual": [{"at": [0, 1], "c": "1"}, {"at": [1, 0], "c": "1"}],
        "violations": 2, "note": "cobracket is not skew"}


def test_co_jacobi_zero():
    assert is_lie_coalgebra([Tensor2(2, 2), Tensor2(2, 2)]).ok


def test_reynolds_coalgebra_iff_dual_operator_reynolds(sl2, b_op):
    deltas = cobracket_from_dual(thmfl_dual())
    # (g, Δ, -B) Reynolds coalgebra <=> -B^T Reynolds on the dual algebra
    assert is_reynolds_coalgebra(deltas, -b_op).ok
    assert is_reynolds(thmfl_dual(), -b_op.transpose()).ok
    # and the identity operator fails on both sides of the equivalence
    assert not is_reynolds_coalgebra(deltas, -Mat.identity(3)).ok
    assert not is_reynolds(thmfl_dual(), -Mat.identity(3).transpose()).ok
    # Δ = 0 passes for any operator
    zero = [Tensor2(3, 3) for _ in range(3)]
    assert is_reynolds_coalgebra(zero, b_op).ok


def test_is_lie_bialgebra(sl2):
    assert is_lie_bialgebra(sl2, thmfl_dual()).ok
    assert is_lie_bialgebra(sl2, km_dual()).ok
    # sl2 against its own bracket constants on dual coordinates: cocycle fails
    dual = LieAlgebra(3, ("H*", "X*", "Y*"), dict(sl2.sc))
    cert = is_lie_bialgebra(sl2, dual)
    assert not cert.ok
    assert cert.first_failure().check == "cocycle"


def test_is_reynolds_bialgebra(sl2, b_op):
    bialg = LieBialgebra(sl2, thmfl_dual())
    assert is_reynolds_bialgebra(bialg, b_op).ok
    assert is_reynolds_bialgebra(bialg, Mat.zeros(3, 3)).ok
    cert = is_reynolds_bialgebra(bialg, Mat.identity(3))
    assert not cert.ok
    names = {p.check: p.ok for p in cert.parts}
    assert names["reynolds-primal"] is True
    assert names["reynolds-dual"] is False


def test_drinfeld_double_abelian():
    g = LieAlgebra.abelian(2)
    rb = ReynoldsLieBialgebra(LieBialgebra(g, LieAlgebra.abelian(2)), Mat.zeros(2, 2))
    dd = drinfeld_double(rb)
    assert dd.L.dim == 4 and dd.L.sc == {} and dd.R.is_zero()


def test_drinfeld_double_mixed_bracket(thmfl):
    dd = drinfeld_double(thmfl)
    # [H, X*] = ad*_H X* - adh*_{X*} H = -2H - 2X*
    assert dd.L.bracket(vbasis(6, 0), vbasis(6, 4)) == vec([-2, 0, 0, 0, -2, 0])
    assert is_reynolds(dd.L, dd.R).ok


def test_drinfeld_double_matches_matched_module(thmfl):
    dd = drinfeld_double(thmfl)
    via_pair = reynolds_double(canonical_pair(thmfl))
    assert dd.L == via_pair.L and dd.R == via_pair.R


def test_double_quasitriangular(thmfl):
    qt = double_quasitriangular(thmfl)
    assert qt.bialg.g.dim == 6
    assert is_reynolds_bialgebra(qt.bialg, qt.R).ok
    # dual operator of the output is (-R^T, R) blockwise
    n = 3
    minus_rt = -qt.R.transpose()
    assert minus_rt.submatrix(range(n), range(n)) == -thmfl.R.transpose()
    assert minus_rt.submatrix(range(n, 2 * n), range(n, 2 * n)) == thmfl.R


def test_double_quasitriangular_abelian():
    g = LieAlgebra.abelian(2)
    rb = ReynoldsLieBialgebra(LieBialgebra(g, LieAlgebra.abelian(2)), Mat.zeros(2, 2))
    qt = double_quasitriangular(rb)
    assert qt.bialg.g.sc == {} and qt.bialg.dual.sc == {}


def test_coboundary_cobracket_values(sl2, r_tensor):
    deltas = coboundary_cobracket(sl2, r_tensor)
    # Δ(H) = 2(H⊗X - X⊗H), matches the cobracket of the dual of r
    assert deltas[0] == Tensor2(3, 3, {(0, 1): 2, (1, 0): -2})
    assert deltas == cobracket_from_dual(thmfl_dual())
    assert all(d.is_zero() for d in coboundary_cobracket(sl2, Tensor2(3, 3)))


def test_coboundary_cobracket_casimir_invariant(sl2):
    casimir = Tensor2(3, 3, {(0, 0): Fraction(1, 2), (1, 2): 1, (2, 1): 1})
    assert all(d.is_zero() for d in coboundary_cobracket(sl2, casimir))


def test_coboundary_conditions(sl2, r_tensor):
    assert coboundary_conditions(sl2, r_tensor).ok
    casimir = Tensor2(3, 3, {(0, 0): Fraction(1, 2), (1, 2): 1, (2, 1): 1})
    cert = coboundary_conditions(sl2, casimir)
    names = {p.check: p.ok for p in cert.parts}
    assert names["symmetric-part-invariance"] is True
    bad = coboundary_conditions(sl2, Tensor2(3, 3, {(0, 1): 1}))
    names = {p.check: p.ok for p in bad.parts}
    assert names["symmetric-part-invariance"] is False


def test_coboundary_yields_bialgebra(sl2, r_tensor):
    assert coboundary_conditions(sl2, r_tensor).ok
    deltas = coboundary_cobracket(sl2, r_tensor)
    assert is_lie_coalgebra(deltas).ok
    from algcert.bialgebra import cocycle_check

    assert cocycle_check(sl2, deltas).ok


def test_reynolds_coboundary_condition(sl2, b_op, r_tensor):
    assert reynolds_coboundary_condition(sl2, b_op, r_tensor).ok       # vacuous: s = 0
    assert reynolds_coboundary_condition(sl2, b_op, Tensor2(3, 3)).ok  # r = 0
    assert reynolds_coboundary_condition(sl2, Mat.zeros(3, 3), r_tensor).ok
    # biconditional with the dual-side Reynolds check, on a failing instance:
    # R = Id is Reynolds on g but -Id is not Reynolds on the nonabelian dual
    cert = reynolds_coboundary_condition(sl2, Mat.identity(3), r_tensor)
    assert not cert.ok
    assert not is_reynolds(thmfl_dual(), -Mat.identity(3)).ok


def test_delta_scaling_never_changes_verdicts(sl2):
    deltas = cobracket_from_dual(thmfl_dual())
    scaled = [d.scale(Fraction(5, 3)) for d in deltas]
    assert is_lie_coalgebra(deltas).ok == is_lie_coalgebra(scaled).ok
    from algcert.bialgebra import cocycle_check

    assert cocycle_check(sl2, deltas).ok == cocycle_check(sl2, scaled).ok
    b = Mat([[0, 0, -1], [2, 0, 0], [0, 0, 0]])
    assert is_reynolds_coalgebra(deltas, -b).ok == is_reynolds_coalgebra(scaled, -b).ok


def test_checked_bialgebra_constructor_rejects(sl2):
    dual = LieAlgebra(3, None, dict(sl2.sc))
    with pytest.raises(CheckFailed):
        LieBialgebra(sl2, dual)
