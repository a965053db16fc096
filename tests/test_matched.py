import pytest

from algcert.bialgebra import canonical_pair
from algcert.exact import Mat, vbasis, vec
from algcert.lie import (
    BilinForm,
    LieAlgebra,
    Representation,
    coadjoint_rep,
    jacobi_check,
)
from algcert.matched import (
    MatchedPair,
    ReynoldsMatchedPair,
    double,
    induced_matched_pair,
    is_manin_triple,
    is_matched_pair,
    is_reynolds_matched_pair,
    manin_to_matched,
    matched_to_manin,
    reynolds_double,
    standard_pairing_form,
)
from algcert.reynolds import induced_algebra, is_reynolds


def trivial_pair(g, h):
    return MatchedPair.trivial(g, h)


def test_trivial_matched_pair(sl2):
    mp = trivial_pair(sl2, LieAlgebra.abelian(2))
    assert is_matched_pair(mp.g, mp.h, mp.rho, mp.mu).ok


def test_canonical_pair_is_matched(thmfl):
    rmp = canonical_pair(thmfl)
    mp = rmp.pair
    assert is_matched_pair(mp.g, mp.h, mp.rho, mp.mu).ok
    assert is_reynolds_matched_pair(rmp).ok


def test_matched_pair_failure_pinpointed(sl2):
    # coadjoint matrices of h = sl2 are not derivations of g's bracket
    g = sl2
    h = sl2
    rho = Representation.zero(g, 3)
    mu = Representation.unchecked(h, 3, coadjoint_rep(h).rho)
    cert = is_matched_pair(g, h, rho, mu)
    assert not cert.ok
    bad = cert.first_failure()
    assert bad.check == "compat-on-g"
    assert bad.where == (1, 0, 1)


def test_matched_pair_flags_invalid_rep(sl2):
    bad_rho = Representation.unchecked(
        sl2, 3, [Mat.identity(3), Mat.zeros(3, 3), Mat.zeros(3, 3)]
    )
    cert = is_matched_pair(sl2, LieAlgebra.abelian(3), bad_rho,
                           Representation.zero(LieAlgebra.abelian(3), 3))
    assert not cert.ok
    assert "invalid action representation" in cert.note


def test_double_trivial_is_direct_sum(sl2):
    h = LieAlgebra.abelian(2)
    d = double(trivial_pair(sl2, h))
    assert d.dim == 5
    assert d.sc == sl2.sc
    assert jacobi_check(d).ok


def test_double_coadjoint_mixed_bracket(sl2):
    h = LieAlgebra.abelian(3, ("H*", "X*", "Y*"))
    rho = Representation.unchecked(sl2, 3, coadjoint_rep(sl2).rho, labels=h.basis)
    mu = Representation.zero(h, 3, labels=sl2.basis)
    d = double(MatchedPair(sl2, h, rho, mu))
    # [H, X*] = ad*_H X* = -2X*
    assert d.bracket(vbasis(6, 0), vbasis(6, 4)) == vec([0, 0, 0, 0, -2, 0])
    assert jacobi_check(d).ok


def test_reynolds_matched_trivial(sl2, b_op):
    h = LieAlgebra.abelian(2)
    rmp = ReynoldsMatchedPair(trivial_pair(sl2, h), b_op, Mat.identity(2))
    assert is_reynolds_matched_pair(rmp).ok


def test_reynolds_matched_non_example_fails(thmfl, b_op):
    # same matched pair, dual operator +B^T instead of -B^T
    good = canonical_pair(thmfl)
    bad = ReynoldsMatchedPair.unchecked(good.pair, b_op, b_op.transpose())
    cert = is_reynolds_matched_pair(bad)
    assert not cert.ok
    names = {p.check: p.ok for p in cert.parts}
    assert names["matched-pair"] is True
    assert names["reynolds-g"] is True
    assert names["reynolds-h"] is True          # +B^T happens to be Reynolds here
    assert names["cross-compat-rho"] is False   # the Remark's computation
    assert is_reynolds_matched_pair(good).ok


def test_reynolds_double(thmfl):
    rmp = canonical_pair(thmfl)
    dd = reynolds_double(rmp)
    assert dd.L.dim == 6
    assert is_reynolds(dd.L, dd.R).ok
    assert dd.R == Mat.block_diag(rmp.Rg, rmp.Rh)


def test_reynolds_double_zero_ops(sl2):
    h = LieAlgebra.abelian(2)
    rmp = ReynoldsMatchedPair(trivial_pair(sl2, h), Mat.zeros(3, 3), Mat.zeros(2, 2))
    dd = reynolds_double(rmp)
    assert dd.R.is_zero()


def test_induced_matched_trivial_ops(sl2):
    h = LieAlgebra.abelian(2)
    rmp = ReynoldsMatchedPair(trivial_pair(sl2, h), Mat.zeros(3, 3), Mat.zeros(2, 2))
    imp = induced_matched_pair(rmp)
    assert all(m.is_zero() for m in imp.rho.rho)
    assert all(m.is_zero() for m in imp.mu.rho)
    assert imp.g.sc == {}  # induced by zero operator


def test_induced_matched_identity_ops(thmfl):
    rmp = canonical_pair(thmfl)
    ident_pair = ReynoldsMatchedPair(rmp.pair, Mat.identity(3), Mat.identity(3))
    imp = induced_matched_pair(ident_pair)
    assert tuple(imp.rho.rho) == tuple(rmp.pair.rho.rho)
    assert tuple(imp.mu.rho) == tuple(rmp.pair.mu.rho)


def test_induced_double_coherence(thmfl):
    rmp = canonical_pair(thmfl)
    lhs = double(induced_matched_pair(rmp))
    rhs = induced_algebra(reynolds_double(rmp)).L
    assert lhs == rhs


def test_matched_to_manin(thmfl):
    rmp = canonical_pair(thmfl)
    mt = matched_to_manin(rmp)
    n = rmp.pair.g.dim
    assert mt.part_g == tuple(range(n))
    assert mt.part_h == tuple(range(n, 2 * n))
    cert = is_manin_triple(mt.G.base.L, mt.G.base.R, mt.G.S, mt.part_g, mt.part_h)
    assert cert.ok


def test_manin_round_trip(thmfl):
    rmp = canonical_pair(thmfl)
    assert manin_to_matched(matched_to_manin(rmp)) == rmp


def test_matched_to_manin_abelian():
    g = LieAlgebra.abelian(2)
    h = LieAlgebra.abelian(2, ("e0*", "e1*"))
    rho = Representation.zero(g, 2, labels=h.basis)
    mu = Representation.zero(h, 2, labels=g.basis)
    rmp = ReynoldsMatchedPair(MatchedPair(g, h, rho, mu),
                              Mat.zeros(2, 2), Mat.zeros(2, 2))
    mt = matched_to_manin(rmp)
    assert mt.G.base.L.sc == {}


def test_matched_to_manin_rejects_wrong_shape(thmfl, b_op):
    good = canonical_pair(thmfl)
    bad = ReynoldsMatchedPair.unchecked(good.pair, b_op, b_op.transpose())
    with pytest.raises(ValueError):
        matched_to_manin(bad)


def test_manin_triple_negative_partition(thmfl):
    mt = matched_to_manin(canonical_pair(thmfl))
    cert = is_manin_triple(mt.G.base.L, mt.G.base.R, mt.G.S, (0, 3), (1, 2, 4, 5))
    assert not cert.ok
    names = {p.check: p.ok for p in cert.parts}
    assert names["isotropy-g"] is False or names["closure-g"] is False


def test_a_manin_pinpoint_does_not_depend_on_how_the_parts_are_listed():
    # closure and isotropy walk each part in index order, each index once, so `where` is the
    # lexicographically first violation however a part is ordered, and a repeated index is
    # not counted twice.  Here [e_i, e_j] = e3 for i < j ≤ 2, R e0 = e2, R e1 = e3 and S = I:
    # closure-g fails at (0, 1) and isotropy-g at (0, 0)
    L = LieAlgebra(4, None, {(0, 1): {3: 1}, (0, 2): {3: 1}, (1, 2): {3: 1}})
    R = Mat([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])
    S = BilinForm(Mat.identity(4))

    def stages(part_g, part_h):
        return {p.check: p for p in is_manin_triple(L, R, S, part_g, part_h).parts
                if p.check != "partition"}
    first = stages((0, 1, 2), (3,))
    assert (first["closure-g"].where, first["isotropy-g"].where) == ((0, 1), (0, 0))
    assert first["isotropy-g"].violations == 3
    for part_g in ((2, 1, 0), (1, 2, 0), (2, 1, 0, 1)):
        assert stages(part_g, (3,)) == first, part_g


def test_manin_triple_negative_operator(thmfl, b_op):
    mt = matched_to_manin(canonical_pair(thmfl))
    bad_op = Mat.block_diag(b_op, b_op.transpose())
    cert = is_manin_triple(mt.G.base.L, bad_op, mt.G.S, mt.part_g, mt.part_h)
    assert not cert.ok


def test_standard_pairing_form_isotropy():
    S = standard_pairing_form(3)
    for i in range(3):
        for j in range(3):
            assert S.gram.entries[i][j] == 0
            assert S.gram.entries[3 + i][3 + j] == 0
            assert S.gram.entries[i][3 + j] == (1 if i == j else 0)
