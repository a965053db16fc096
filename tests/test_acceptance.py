"""Acceptance suite: one test per criterion, each printing its verdict line.

Everything is exact rational arithmetic with zero tolerance; the block
family window check is additionally held under a one-second budget.
"""

import time
from fractions import Fraction

from algcert.bialgebra import (
    LieBialgebra,
    ReynoldsLieBialgebra,
    canonical_pair,
    drinfeld_double,
    is_lie_bialgebra,
    is_reynolds_bialgebra,
    is_lie_coalgebra,
    cobracket_from_dual,
)
from algcert.catalog import catalog
from algcert.certificates import Certificate
from algcert.exact import Mat, Tensor2, vbasis, vec
from algcert.lie import (
    LieAlgebra,
    Representation,
    adjoint_rep,
    coadjoint_rep,
    is_quadratic,
    jacobi_check,
    s_sharp,
)
from algcert.matched import (
    MatchedPair,
    ReynoldsMatchedPair,
    double,
    induced_matched_pair,
    is_manin_triple,
    is_matched_pair,
    is_reynolds_matched_pair,
    matched_to_manin,
    reynolds_double,
    standard_pairing_form,
)
from algcert.nslie import NSRep, is_nslie, is_ns_rep, ns_commutator, ns_from_reynolds, regular_rep
from algcert.reynolds import (
    ReynoldsLieAlgebra,
    ReynoldsRep,
    block_window_check,
    induced_algebra,
    is_reynolds,
    is_reynolds_rep,
    reynolds_adjoint_rep,
    reynolds_coadjoint_rep,
    semidirect_reynolds,
)
from algcert.rotabaxter import (
    QuadraticRB,
    RotaBaxterAlg,
    descendent,
    is_quadratic_rb,
    is_reynolds_on_qrb,
    is_rota_baxter,
    r_from_qrb,
    thmFL_bialgebra,
)
from algcert.cybe import (
    PreLieAlgebra,
    RelativeRB,
    ReynoldsPreLie,
    canonical_r,
    cybe_bracket,
    is_cybe_solution,
    is_cybe_solution_reynolds,
    is_prelie,
    is_relative_rb,
    is_reynolds_prelie,
    prelie_from_relrb,
    r_plus,
    rk_solution,
)
from algcert.lie import Representation as Rep


def _report(num: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} failed: {label}"


def _sl2_bundle():
    sl2 = catalog("sl2").payload
    B = catalog("sl2.B").payload
    S = catalog("sl2.S").payload
    r = catalog("sl2.r").payload
    return sl2, B, S, r


def test_criterion_1_sl2_example_suite():
    sl2, B, S, r_expected = _sl2_bundle()
    qrb = QuadraticRB.unchecked(RotaBaxterAlg.unchecked(sl2, B, 0), S)
    ok = (
        jacobi_check(sl2).ok
        and is_quadratic(sl2, S).ok
        and is_rota_baxter(sl2, B, 0).ok
        and is_reynolds(sl2, B).ok
        and is_quadratic_rb(qrb.rb, S).ok
        and is_reynolds_on_qrb(qrb, B).ok
        and r_from_qrb(qrb) == r_expected
    )
    _report(1, "sl(2) example suite, exact equality throughout", ok)


def test_criterion_2_block_algebra_windows():
    started = time.perf_counter()
    ok = True
    for q in (Fraction(1, 2), Fraction(2), Fraction(-3)):
        cert = block_window_check(q, 1, 3)
        parts = {p.check: p for p in cert.parts}
        ok = ok and cert.ok and parts["block-reynolds-identity"].skipped == 0
        cert = block_window_check(q, -3, 3, skip_singular=True)
        parts = {p.check: p for p in cert.parts}
        ok = ok and cert.ok and parts["block-induced-closed-form"].ok
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    _report(2, f"block windows [1,3] and [-3,3] for q in {{1/2, 2, -3}} in {elapsed:.3f}s", ok)


def test_criterion_3_cybe_in_reynolds_sl2():
    sl2, B, _, r = _sl2_bundle()
    ident = Mat.identity(3)
    from algcert.exact import tensor2_map

    rr_zero = cybe_bracket(sl2, r).is_zero()
    op_zero = (tensor2_map(B, ident, r) + tensor2_map(ident, B, r)).is_zero()
    cert = is_cybe_solution_reynolds(ReynoldsLieAlgebra.unchecked(sl2, B), r)
    _report(3, "[[r,r]] = 0 and (B⊗Id+Id⊗B)r = 0 exactly", rr_zero and op_zero and cert.ok)


def test_criterion_4_thmfl_pipeline():
    sl2, B, S, _ = _sl2_bundle()
    qrb = QuadraticRB(RotaBaxterAlg(sl2, B, 0), S)
    out = thmFL_bialgebra(qrb, B)
    dual = out.bialg.dual
    fixture_ok = (
        dual.bracket_basis(0, 1) == vec([2, 0, 0])
        and dual.bracket_basis(0, 2) == vec([0, 0, 0])
        and dual.bracket_basis(1, 2) == vec([0, 0, -2])
    )
    bialg_ok = is_reynolds_bialgebra(out.bialg, out.R).ok
    r = r_from_qrb(qrb)
    sharp = s_sharp(S)
    desc = descendent(qrb.rb)
    display_ok = all(
        dual.bracket(sharp.apply(vbasis(3, i)), sharp.apply(vbasis(3, j)))
        == sharp.apply(desc.bracket_basis(i, j))
        for i in range(3)
        for j in range(3)
    )
    _report(4, "thm:FL pipeline: Reynolds bialgebra + descendent display + dual fixture",
            fixture_ok and bialg_ok and display_ok)


def test_criterion_5_equivalences_as_biconditionals():
    sl2, B, S, _ = _sl2_bundle()
    qrb = QuadraticRB(RotaBaxterAlg(sl2, B, 0), S)
    thmfl = thmFL_bialgebra(qrb, B)
    dual = thmfl.bialg.dual
    ok = True

    # (a) Reynolds bialgebra <=> Reynolds matched pair of the canonical pair
    for op, expected in ((B, True), (Mat.zeros(3, 3), True), (Mat.identity(3), False)):
        bial_ok = is_reynolds_bialgebra(thmfl.bialg, op).ok
        pair = canonical_pair(ReynoldsLieBialgebra.unchecked(thmfl.bialg, op))
        pair_ok = is_reynolds_matched_pair(pair).ok
        ok = ok and (bial_ok == pair_ok == expected)

    # (b) dual-shaped matched pair <=> Manin triple
    good = canonical_pair(thmfl)
    mt = matched_to_manin(good)
    ok = ok and is_manin_triple(mt.G.base.L, mt.G.base.R, mt.G.S,
                                mt.part_g, mt.part_h).ok
    bad = ReynoldsMatchedPair.unchecked(good.pair, B, B.transpose())
    bad_matched = is_reynolds_matched_pair(bad).ok
    candidate_op = Mat.block_diag(B, B.transpose())
    bad_manin = is_manin_triple(double(good.pair), candidate_op,
                                standard_pairing_form(3), range(3), range(3, 6)).ok
    ok = ok and (bad_matched is False) and (bad_manin is False)

    # (c) induced-double coherence on catalog instances
    abelian = LieAlgebra.abelian(2)
    trivial = ReynoldsMatchedPair.unchecked(
        MatchedPair.trivial(sl2, abelian), B, Mat.identity(2))
    for rmp in (good, trivial):
        lhs = double(induced_matched_pair(rmp))
        rhs = induced_algebra(reynolds_double(rmp)).L
        ok = ok and lhs == rhs

    _report(5, "bialgebra<=>matched, matched<=>Manin, induced-double coherence", ok)


def _reynolds_roster():
    sl2, B, S, _ = _sl2_bundle()
    thmfl_dual = thmFL_bialgebra(
        QuadraticRB(RotaBaxterAlg(sl2, B, 0), S), B).bialg.dual
    roster = [
        ReynoldsLieAlgebra(sl2, B),
        ReynoldsLieAlgebra(sl2, Mat.zeros(3, 3)),
        ReynoldsLieAlgebra(sl2, Mat.identity(3)),
        ReynoldsLieAlgebra(LieAlgebra.abelian(3), Mat.zeros(3, 3)),
        ReynoldsLieAlgebra(LieAlgebra.abelian(2), Mat([[1, 1], [0, 1]])),
        ReynoldsLieAlgebra(thmfl_dual, -B.transpose()),
        induced_algebra(ReynoldsLieAlgebra(sl2, B)),
    ]
    return roster


def test_criterion_6_constructive_closure():
    sl2, B, S, _ = _sl2_bundle()
    chains = 0
    ok = True

    for A in _reynolds_roster():
        ind = induced_algebra(A)
        ok = ok and jacobi_check(ind.L).ok and is_reynolds(ind.L, ind.R).ok
        chains += 1

        ns = ns_from_reynolds(A)
        comm = ns_commutator(ns)
        ok = ok and is_nslie(ns).ok and jacobi_check(comm).ok and comm.sc == ind.L.sc
        chains += 1

        for rep in (reynolds_adjoint_rep(A), reynolds_coadjoint_rep(A),
                    ReynoldsRep.unchecked(A, Rep.zero(A.L, 2),
                                          Mat.zeros(2, 2))):
            out = semidirect_reynolds(rep)
            ok = ok and jacobi_check(out.L).ok and is_reynolds(out.L, out.R).ok
            chains += 1

    roster = _reynolds_roster()
    for a, b in zip(roster, roster[1:]):
        rmp = ReynoldsMatchedPair.unchecked(MatchedPair.trivial(a.L, b.L), a.R, b.R)
        out = reynolds_double(rmp)
        ok = ok and jacobi_check(out.L).ok and is_reynolds(out.L, out.R).ok
        chains += 1

    qrb = QuadraticRB(RotaBaxterAlg(sl2, B, 0), S)
    thmfl = thmFL_bialgebra(qrb, B)
    abelian_bialg = ReynoldsLieBialgebra(
        LieBialgebra(LieAlgebra.abelian(2), LieAlgebra.abelian(2)), Mat.zeros(2, 2))
    zero_bialg = ReynoldsLieBialgebra(thmfl.bialg, Mat.zeros(3, 3))
    for rb in (thmfl, abelian_bialg, zero_bialg):
        dd = drinfeld_double(rb)
        ok = ok and jacobi_check(dd.L).ok and is_reynolds(dd.L, dd.R).ok
        chains += 1

    A = ReynoldsLieAlgebra(sl2, B)
    rels = [
        RelativeRB(reynolds_coadjoint_rep(A), r_plus(r_from_qrb(qrb))),
        RelativeRB(reynolds_coadjoint_rep(A), Mat.zeros(3, 3)),
    ]
    for rel in rels:
        ambient, rk = rk_solution(rel)
        ok = ok and is_cybe_solution_reynolds(ambient, rk).ok
        chains += 1

    prelies = [
        prelie_from_relrb(rels[0]),
        ReynoldsPreLie(PreLieAlgebra(1, ("e",), {}), Mat.zeros(1, 1)),
        ReynoldsPreLie(PreLieAlgebra(2, None, {(0, 0): {0: 1}}), Mat.identity(2)),
    ]
    for rp in prelies:
        ambient, r = canonical_r(rp)
        ok = ok and is_cybe_solution_reynolds(ambient, r).ok
        chains += 1

    ok = ok and chains >= 30
    _report(6, f"constructive closure: {chains} construction-check chains, all exact", ok)


def _negative_fixtures():
    sl2, B, S, r = _sl2_bundle()
    A = ReynoldsLieAlgebra(sl2, B)
    qrb = QuadraticRB(RotaBaxterAlg(sl2, B, 0), S)
    thmfl = thmFL_bialgebra(qrb, B)
    dual = thmfl.bialg.dual
    broken_jac = LieAlgebra.unchecked(
        3, None, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}})
    bad_b = Mat([[0, 0, -1], [2, 1, 0], [0, 0, 0]])
    bad_ns_left = {(0, 0): {1: 1}, (1, 0): {0: 1}}
    from algcert.nslie import NSLieAlgebra

    ns = ns_from_reynolds(A)
    reg = regular_rep(ns)
    z3 = Mat.zeros(3, 3)
    bad_mu = Representation.unchecked(sl2, 3, coadjoint_rep(sl2).rho)
    good_pair = canonical_pair(thmfl)
    mt = matched_to_manin(good_pair)
    rel_bad = RelativeRB.unchecked(reynolds_adjoint_rep(A), Mat.identity(3))
    good_prelie = prelie_from_relrb(
        RelativeRB(reynolds_coadjoint_rep(A), r_plus(r_from_qrb(qrb))))
    x_wedge_y = Tensor2(3, 3, {(1, 2): 1, (2, 1): -1})

    return {
        "jacobi": lambda: jacobi_check(broken_jac),
        "reynolds": lambda: is_reynolds(sl2, bad_b),
        "reynolds-rep": lambda: is_reynolds_rep(
            ReynoldsRep.unchecked(A, adjoint_rep(sl2), Mat.identity(3))),
        "nslie": lambda: is_nslie(NSLieAlgebra.unchecked(2, None, bad_ns_left, {})),
        "ns-rep": lambda: is_ns_rep(NSRep.unchecked(ns, 3, reg.varrho, reg.mu, [z3, z3, z3])),
        "matched": lambda: is_matched_pair(
            sl2, sl2, Representation.zero(sl2, 3), bad_mu),
        "reynolds-matched": lambda: is_reynolds_matched_pair(
            ReynoldsMatchedPair.unchecked(good_pair.pair, B, B.transpose())),
        "manin": lambda: is_manin_triple(
            mt.G.base.L, mt.G.base.R, mt.G.S, (0, 3), (1, 2, 4, 5)),
        "coalgebra": lambda: is_lie_coalgebra(cobracket_from_dual(broken_jac)),
        "bialgebra": lambda: is_lie_bialgebra(
            sl2, LieAlgebra.unchecked(3, None, dict(sl2.sc))),
        "reynolds-bialgebra": lambda: is_reynolds_bialgebra(thmfl.bialg, Mat.identity(3)),
        "rb": lambda: is_rota_baxter(sl2, Mat.identity(3), 0),
        "quadratic-rb": lambda: is_quadratic_rb(
            RotaBaxterAlg.unchecked(sl2, Mat.zeros(3, 3), 1), S),
        "reynolds-on-qrb": lambda: is_reynolds_on_qrb(qrb, Mat.identity(3)),
        "cybe": lambda: is_cybe_solution(sl2, x_wedge_y),
        "reynolds-cybe": lambda: is_cybe_solution_reynolds(A, x_wedge_y),
        "relative-rb": lambda: is_relative_rb(rel_bad),
        "prelie": lambda: is_prelie(
            PreLieAlgebra.unchecked(2, None, {(0, 0): {1: 1}, (1, 0): {0: 1}})),
        "reynolds-prelie": lambda: is_reynolds_prelie(
            good_prelie.A, Mat.identity(3).scale(2)),
    }


def test_criterion_7_negative_certificates():
    fixtures = _negative_fixtures()
    ok = True
    for kind, run in fixtures.items():
        first = run()
        second = run()
        if first.ok:
            ok = False
            print(f"  fixture for {kind} unexpectedly passed")
            continue
        pin_a = first.first_failure()
        pin_b = second.first_failure()
        deterministic = (
            pin_a is not None
            and pin_b is not None
            and pin_a.check == pin_b.check
            and pin_a.where == pin_b.where
        )
        ok = ok and deterministic
    # the documented non-example fails exactly in the cross compatibility
    remark = fixtures["reynolds-matched"]()
    ok = ok and remark.first_failure().check == "cross-compat-rho"
    ok = ok and len(fixtures) == 19
    _report(7, "every check kind has a pinpointed, deterministic negative fixture", ok)


def test_criterion_8_km_dual_verdict_recorded():
    entry = catalog("sl2.km_dual")
    executed = [c for c in entry.certificates if c.check == "lie-bialgebra"]
    ok = len(executed) == 1 and isinstance(executed[0], Certificate)
    verdict = executed[0].ok
    print(f"  recorded verdict for the printed dual brackets: {'pass' if verdict else 'fail'}")
    _report(8, "KM dual entry loaded and bialgebra check executed (verdict recorded)",
            ok and verdict)
