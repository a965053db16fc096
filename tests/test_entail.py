"""Certificates by block entailment: what a construction records, and that it is true.

A construction that has certified the hypotheses of a block identity (see
`test_block_identities.py`) records the certificate of its output's check with
`certificates.entail` instead of scanning the output.  Each entailment is tested
twice here:

* trust: the output is built inside a construction's scope, without the entailed
  scan, and the entailed check, run directly outside any scope, passes;
* fall-through: on an input whose hypotheses fail, nothing is recorded, and the
  construction raises the certificate the computed check gives.
"""

import os

import pytest

from algcert import certificates
from algcert.bialgebra import (LieBialgebra, ReynoldsLieBialgebra, bialgebra_cocycle,
                               canonical_pair, double_quasitriangular, drinfeld_double,
                               is_lie_bialgebra, is_reynolds_bialgebra)
from algcert.certificates import Certificate, CheckFailed, entail, verified
from algcert.exact import Mat, Table, integral
from algcert.lie import (LieAlgebra, Representation, coadjoint_rep, double_table,
                         is_representation, jacobi_check, mult_mats, semidirect)
from algcert.matched import (MatchedPair, ReynoldsMatchedPair, compat_stage, double,
                             is_reynolds_matched_pair, matched_to_manin, reynolds_double)
from algcert.cybe import (PreLieAlgebra, RelativeRB, ReynoldsPreLie, canonical_r,
                          is_cybe_solution, is_prelie, is_relative_rb, is_reynolds_prelie,
                          left_rep, prelie_from_relrb, r_plus, reynolds_tensor_condition,
                          rk_solution, subadjacent)
from algcert.reynolds import (ReynoldsLieAlgebra, ReynoldsRep, compat_certificate,
                              dual_reynolds_rep, is_reynolds, reynolds_adjoint_rep,
                              reynolds_coadjoint_rep, semidirect_reynolds)
from algcert.rotabaxter import (QuadraticRB, RotaBaxterAlg, dual_bracket_from_r,
                                is_quadratic_rb, r_from_qrb, thmFL_bialgebra)

from test_block_identities import double_qrb, r_k, r_tensor

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def unchecked_double(mp: MatchedPair) -> LieAlgebra:
    """g⋈h with no check: the table `double` builds."""
    n = mp.g.dim + mp.h.dim
    gsc, hsc, *cols, den = integral(mp.g.sc, mp.h.sc, *mp.rho.rho, *mp.mu.rho)
    sc = double_table(gsc, hsc, cols[:mp.g.dim], cols[mp.g.dim:])
    return LieAlgebra.unchecked(n, mp.g.basis + mp.h.basis, Table._of(n, sc, True, den))


def unchecked_semidirect(L: LieAlgebra, rep: Representation) -> LieAlgebra:
    V = LieAlgebra.abelian(rep.module_dim)
    return unchecked_double(MatchedPair.unchecked(L, V, rep, Representation.zero(V, L.dim)))


# -- the helper ---------------------------------------------------------------------------

def test_entail_records_only_in_a_scope_and_only_from_passed_hypotheses():
    ok, bad = Certificate.passed("h"), Certificate.failed("h", (0,), (((0,), 1),), 1)
    x, runs, seen = object(), [], {}

    @verified
    def probe(_):
        runs.append(1)
        return Certificate.passed("probe")

    @verified
    def scope(given):
        entail(probe, (x,), "probe", given)
        seen["scope"] = dict(certificates._scope.get())
        return probe(x)

    for given, recorded in (([ok], True), ([ok, bad], False), ([], False)):
        runs.clear()
        assert scope(given) == Certificate.passed("probe")
        # recorded: the body never ran; otherwise it ran once, for the check itself
        assert len(runs) == (0 if recorded else 1), given
        assert len(seen["scope"]) == recorded
        assert all(type(v) is tuple for v in seen["scope"].values())
    # outside a scope nothing is recorded and nothing is called
    runs.clear()
    entail(probe, (x,), "probe", [ok])
    assert not runs and certificates._scope.get() is None


def test_entail_keeps_a_memoized_result():
    x = object()
    failed = Certificate.failed("probe", (0,), (((0,), 1),), 1)

    @verified
    def stored(_):
        return failed

    @verified
    def scope():
        first = stored(x)
        entail(stored, (x,), "probe", [Certificate.passed("h")])
        return first, stored(x), [v[0] for v in certificates._scope.get().values()]

    first, again, memo = scope()
    assert first is again is failed and memo == [failed]


# -- trust: each entailed output passes its check, run directly ------------------------------

def test_double_entails_jacobi(thmfl, scans):
    mp = canonical_pair(thmfl).pair
    D = double(mp)
    assert scans["jacobi"] == 2                      # g and h, not the double
    assert certificates._scope.get() is None
    assert jacobi_check(D) == Certificate.passed("jacobi")
    assert scans["jacobi"] == 3


def test_reynolds_double_and_manin_entail_reynolds(thmfl, scans):
    rmp = canonical_pair(thmfl)
    for build in (reynolds_double, lambda rmp: matched_to_manin(rmp).G.base):
        scans.clear()
        out = build(rmp)
        # reynolds-g and reynolds-h only; Jacobi of g and h only
        assert (scans["reynolds"], scans["jacobi"]) == (2, 2)
        assert is_reynolds(out.L, out.R) == Certificate.passed("reynolds")
        assert jacobi_check(out.L).ok


def test_double_quasitriangular_entails_its_dual(thmfl, scans):
    double_quasitriangular(ReynoldsLieBialgebra.unchecked(thmfl.bialg, thmfl.R))
    # on an unchecked copy, which carries nothing: Jacobi, Reynolds and the cocycle of (g, g*)
    # only; the double's and its dual's checks and the double's cocycle are entailed
    assert (scans["jacobi"], scans["reynolds"], scans["cocycle"]) == (2, 2, 1)
    assert sum(scans.values()) == 5
    scans.clear()
    out = double_quasitriangular(thmfl)
    # thmfl carries Jacobi and Reynolds of g and g* and the bialgebra axioms of (g, g*):
    # nothing is scanned
    assert sum(scans.values()) == 0
    star = out.bialg.dual
    assert jacobi_check(star) == Certificate.passed("jacobi")
    assert is_reynolds(star, out.Rt) == Certificate.passed("reynolds")
    # the double's cocycle, computed outside any scope
    assert bialgebra_cocycle(out.bialg.g, star) == Certificate.passed("cocycle")
    assert scans["cocycle"] == 1
    assert out.Rt == -out.R.transpose()
    assert is_reynolds_bialgebra(out.bialg, out.R).ok


def test_drinfeld_double_entails_the_coadjoint_actions(thmfl, scans, rebind):
    pairs = []
    rebind(canonical_pair, pairs.append)
    # on an unchecked copy, which carries nothing: Jacobi, Reynolds and the cocycle of (g, g*)
    # only; the double's Jacobi, whose blocks hold the residuals of the coadjoint actions, and
    # its Reynolds check are entailed: no action is built or scanned as a representation
    dd = drinfeld_double(ReynoldsLieBialgebra.unchecked(thmfl.bialg, thmfl.R))
    assert dict(scans) == {"jacobi": 2, "reynolds": 2, "cocycle": 1} and pairs == []
    # the coadjoint actions, built apart and computed outside any scope, are representations
    rmp = canonical_pair(thmfl)
    for rep in (rmp.pair.rho, rmp.pair.mu):
        assert is_representation(rep) == Certificate.passed("representation")
    assert is_reynolds(dd.L, dd.R).ok and jacobi_check(dd.L).ok


def test_drinfeld_double_entails_the_canonical_pair(thmfl, scans, rebind):
    pairs = []
    rebind(canonical_pair, pairs.append)
    # thmfl carries its gate: nothing is scanned; no canonical pair is built
    dd = drinfeld_double(thmfl)
    assert sum(scans.values()) == 0 and pairs == []
    # each entailed check, run directly outside any scope, passes with the entailed certificate
    assert certificates._scope.get() is None
    assert jacobi_check(dd.L) == Certificate.passed("jacobi")
    assert is_reynolds(dd.L, dd.R) == Certificate.passed("reynolds")
    assert dict(scans) == {"jacobi": 1, "reynolds": 1}
    # the canonical pair it no longer builds is a Reynolds matched pair with the same double
    rmp = canonical_pair(thmfl)
    assert is_reynolds_matched_pair(rmp).ok
    via_pair = reynolds_double(rmp)
    assert dd.L == via_pair.L and dd.R == via_pair.R


def test_the_dual_operator_is_always_minus_r_transpose(thmfl):
    # the dual-of-double entailment is keyed on the output's Rt and reads its hypothesis on
    # the input's Rt: neither can be an operator other than the −Rᵀ that was checked
    with pytest.raises(TypeError):
        ReynoldsLieBialgebra(thmfl.bialg, thmfl.R, Rt=-thmfl.R.transpose())
    assert thmfl.Rt == -thmfl.R.transpose()
    assert ReynoldsLieBialgebra.unchecked(thmfl.bialg, thmfl.R).Rt == thmfl.Rt


def test_semidirect_entails_jacobi_and_reynolds(sl2_reynolds, scans):
    rr = reynolds_coadjoint_rep(sl2_reynolds)
    out = semidirect_reynolds(rr)
    assert (scans["jacobi"], scans["reynolds"]) == (1, 1)   # of sl(2) only
    assert jacobi_check(out.L) == Certificate.passed("jacobi")
    assert is_reynolds(out.L, out.R) == Certificate.passed("reynolds")
    assert semidirect(rr.base.L, rr.rep) == out.L


def test_rk_and_canonical_r_entail_the_dual_actions(sl2_reynolds, sl2_qrb, scans, rebind):
    rel = RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), r_plus(r_from_qrb(sl2_qrb)))
    rp = prelie_from_relrb(rel)
    duals = []
    raw = dual_reynolds_rep

    def recorded(rr, given=()):
        duals.append(raw(rr, given))
        return duals[-1]
    rebind(raw, recorded)
    # the action and its compatibility are scanned for ρ only, not for ρ*: once on an
    # unchecked copy of rel, not at all on rel, which carries them (`is_reynolds_rep` of its
    # Reynolds representation), and not by `canonical_r`, whose gate entails both for ρ = L
    copy = RelativeRB.unchecked(rel.rr, rel.K)
    for build, arg, scanned in ((rk_solution, copy, 1), (rk_solution, rel, 0),
                                (canonical_r, rp, 0)):
        scans.clear()
        build(arg)
        assert (scans["representation"], scans["compatibility"]) == (scanned, scanned)
    assert len(duals) == 3
    for dual in duals:
        assert is_representation(dual.rep) == Certificate.passed("representation")
        assert (compat_certificate(dual.base.R, dual.rep, dual.T)
                == Certificate.passed("compatibility"))


# -- fall-through: a failed hypothesis records nothing; the computed check raises ----------

def test_the_dual_actions_are_computed_outside_a_scope_or_from_a_failed_rep(sl2_reynolds, scans):
    rr = reynolds_adjoint_rep(sl2_reynolds)
    bad = ReynoldsRep.unchecked(sl2_reynolds, rr.rep, Mat.identity(3).scale(2))
    for given in ([Certificate.passed("reynolds-rep")], [compat_certificate(bad.base.R, bad.rep,
                                                                             bad.T)]):
        scans.clear()
        dual = dual_reynolds_rep(bad, given)     # outside a scope: records nothing
        assert not scans
        assert is_representation(dual.rep).ok and scans["representation"] == 1
        # (R, ρ*, −Tᵀ) fails with (R, ρ, T): the computed certificate, not a recorded pass
        assert not compat_certificate(dual.base.R, dual.rep, dual.T).ok
    with pytest.raises(CheckFailed) as exc:
        rk_solution(RelativeRB.unchecked(bad, Mat.zeros(3, 3)))
    assert exc.value.certificate.first_failure().check == "compatibility"


def test_double_of_a_non_lie_algebra_raises_its_jacobi_failure(non_lie, sl2):
    # the matched-pair gate passes with zero actions; Jacobi of g fails, so the double's
    # Jacobi check is computed and fails at g's triple
    mp = MatchedPair.trivial(non_lie, sl2)
    rmp = ReynoldsMatchedPair.unchecked(mp, Mat.zeros(3, 3), Mat.zeros(3, 3))
    assert is_reynolds_matched_pair(rmp).ok
    for build, arg in ((double, mp), (reynolds_double, rmp)):
        with pytest.raises(CheckFailed) as exc:
            build(arg)
        assert exc.value.certificate == jacobi_check(unchecked_double(mp))
        assert exc.value.certificate.to_json() == {
            "check": "jacobi", "ok": False, "where": [0, 1, 2],
            "residual": [{"at": [0], "c": "-1"}, {"at": [2], "c": "-1"}], "violations": 1}


def test_failed_reynolds_hypotheses_raise_at_the_gate(thmfl, sl2):
    rmp = canonical_pair(thmfl)
    twice = Mat.identity(3).scale(2)
    broken = ReynoldsMatchedPair.unchecked(rmp.pair, twice, -twice)
    for build in (reynolds_double, matched_to_manin):
        with pytest.raises(CheckFailed) as exc:
            build(broken)
        assert exc.value.certificate == is_reynolds_matched_pair(broken)
        assert exc.value.certificate.first_failure().check == "reynolds"
    # semidirect_reynolds: the action and the compatibility pass, R is not Reynolds, so
    # the output's Reynolds check is computed and fails
    base = ReynoldsLieAlgebra.unchecked(sl2, twice)
    rr = ReynoldsRep.unchecked(base, Representation.zero(sl2, 1), Mat.zeros(1, 1))
    with pytest.raises(CheckFailed) as exc:
        semidirect_reynolds(rr)
    big = unchecked_semidirect(sl2, rr.rep)
    assert exc.value.certificate == is_reynolds(big, Mat.block_diag(twice, Mat.zeros(1, 1)))
    assert not exc.value.certificate.ok


def perturbed_dual(rb: ReynoldsLieBialgebra) -> ReynoldsLieBialgebra:
    """rb with the first structure constant of its dual doubled: a Lie algebra still, but the
    cocycle fails."""
    dual = rb.bialg.dual
    (key, comp), *rest = dual.sc.items()
    broken = LieAlgebra(dual.dim, dual.basis, {key: {k: 2 * c for k, c in comp.items()},
                                               **dict(rest)})
    return ReynoldsLieBialgebra.unchecked(LieBialgebra.unchecked(rb.bialg.g, broken), rb.R)


def test_failed_cocycle_or_reynolds_hypotheses_raise_at_the_gate(thmfl):
    # the cocycle of (g, g*) is the hypothesis of compat-on-h and compat-on-g; Reynolds of
    # (g, R) and of (g*, −Rᵀ) those of the cross compatibilities; Jacobi of the double that of
    # its cocycle.  Each is a stage of the gate, which raises first
    twice = Mat.identity(3).scale(2)
    bad_op = ReynoldsLieBialgebra.unchecked(thmfl.bialg, twice)
    for rb, stage in ((perturbed_dual(thmfl), "cocycle"), (bad_op, "reynolds")):
        for build in (drinfeld_double, double_quasitriangular):
            with pytest.raises(CheckFailed) as exc:
                build(rb)
            assert exc.value.certificate == is_reynolds_bialgebra(rb.bialg, rb.R)
            assert exc.value.certificate.first_failure().check == stage
        # and the canonical pair's stages, blocks of the checks they would entail, computed,
        # fail with them
        rmp = canonical_pair(rb)
        g, h, rho, mu = rmp.pair.g, rmp.pair.h, rmp.pair.rho, rmp.pair.mu
        if stage == "cocycle":
            assert not compat_stage(g, h, rho, mu).ok
            assert not compat_stage(h, g, mu, rho).ok
        else:
            assert not compat_certificate(rmp.Rg, rho, rmp.Rh).ok
            assert not compat_certificate(rmp.Rh, mu, rmp.Rg).ok


def test_doubles_of_a_non_lie_dual_raise_at_the_gate(thmfl, non_lie):
    # Jacobi of g* is a hypothesis of the double's and the dual-of-double entailments; it is
    # also a stage of the gate, which fails first
    rb = ReynoldsLieBialgebra.unchecked(LieBialgebra.unchecked(thmfl.bialg.g, non_lie), thmfl.R)
    for build in (drinfeld_double, double_quasitriangular):
        with pytest.raises(CheckFailed) as exc:
            build(rb)
        assert exc.value.certificate == is_reynolds_bialgebra(rb.bialg, rb.R)
        assert not is_representation(coadjoint_rep(non_lie)).ok



# -- the r-matrix and pre-Lie steps ---------------------------------------------------------

def raised_and_recorded(build, *args):
    """build(*args) in a scope of its own: the certificate it raised (or None) and the checks
    whose certificate the scope holds, by name, each with its certificates."""
    @verified
    def scope():
        try:
            build(*args)
            out = None
        except CheckFailed as exc:
            out = exc.certificate
        held = {}
        for key, (cert, *_) in certificates._scope.get().items():
            held.setdefault(key[0].__name__, []).append(cert)
        return out, held
    return scope()


def broken_prelie() -> PreLieAlgebra:
    # e0·e1 = e1·e1 = e0: the sub-adjacent bracket [e0,e1] = e0 is Lie, but L(e0) = L(e1) and
    # L([e0,e1]) = L(e0) ≠ 0 = [L(e0), L(e1)]
    return PreLieAlgebra.unchecked(2, None, {(0, 1): {0: 1}, (1, 1): {0: 1}})


def test_r_from_qrb_and_thmfl_entail_the_cybe_and_the_cocycle(sl2_qrb, b_op, scans):
    # on unchecked copies, which carry nothing: the gate is scanned, [[r,r]] is not; thmFL's
    # cocycle is entailed too; the paper's example, and weight 1 on the Drinfeld double
    for q, R in ((QuadraticRB.unchecked(sl2_qrb.rb, sl2_qrb.S), b_op),
                 (double_qrb(1), Mat.zeros(6, 6))):
        scans.clear()
        r = r_from_qrb(q)
        assert (scans["rota-baxter"], scans["cybe"]) == (1, 0)
        scans.clear()
        out = thmFL_bialgebra(q, R)
        assert (scans["rota-baxter"], scans["cybe"], scans["cocycle"]) == (1, 0, 0)
        # each entailed check, run directly outside any scope, passes
        assert is_cybe_solution(q.rb.L, r) == Certificate.passed("cybe")
        assert bialgebra_cocycle(out.bialg.g, out.bialg.dual) == Certificate.passed("cocycle")
        assert (scans["cybe"], scans["cocycle"]) == (1, 1)


def test_a_failed_rota_baxter_hypothesis_records_no_cybe(sl2_qrb):
    # S-skew operators that are not Rota-Baxter, at weight 0 on sl(2) and at weight 1 on the
    # double: the gate raises, and [[r,r]], computed, fails with it
    S = sl2_qrb.S
    skew = S.gram.inverse() @ Mat([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    double = double_qrb(1)
    # S-skew for S = [[0, I], [I, 0]]: the blocks N and −Nᵀ
    nudge = Mat.block_diag(Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
                           Mat([[0, 0, 0], [-1, 0, 0], [0, 0, 0]]))
    for q in (QuadraticRB.unchecked(RotaBaxterAlg.unchecked(sl2_qrb.rb.L, skew, 0), S),
              QuadraticRB.unchecked(RotaBaxterAlg.unchecked(double.rb.L, double.rb.B + nudge, 1),
                                    double.S)):
        assert is_quadratic_rb(q.rb, q.S).parts[1:] == (Certificate.combine("quadratic", [
            Certificate.passed("invariant-form"), Certificate.passed("nondegenerate")]),
            Certificate.passed("rb-compat"))
        zero = Mat.zeros(q.S.dim, q.S.dim)
        for build, args in ((r_from_qrb, (q,)), (thmFL_bialgebra, (q, zero))):
            raised, held = raised_and_recorded(build, *args)
            assert raised == is_quadratic_rb(q.rb, q.S)
            assert raised.first_failure().check == "rota-baxter"
            assert "is_cybe_solution" not in held
        assert not is_cybe_solution(q.rb.L, r_tensor(q.rb.B, q.S)).ok


def test_thmfl_on_a_non_lie_algebra_computes_its_cocycle():
    # the perturbed double: S invariant and B Rota-Baxter of weight 1, so the gate passes and
    # [[r,r]] is entailed, and the dual and the descendent are Lie algebras; Jacobi of g, the
    # cocycle's hypothesis, fails, so the cocycle is computed and fails as well
    q = double_qrb(1, perturb=True)
    raised, held = raised_and_recorded(thmFL_bialgebra, q, Mat.zeros(6, 6))
    g, dual = q.rb.L, dual_bracket_from_r(q.rb.L, r_from_qrb(q))
    assert raised == is_lie_bialgebra(g, dual)
    assert [p.ok for p in raised.parts] == [False, True, False]
    assert held["bialgebra_cocycle"] == [raised.parts[2]]
    assert held["is_cybe_solution"] == [Certificate.passed("cybe")]


def test_rk_solution_entails_both_conditions(sl2_reynolds, sl2_qrb, scans):
    rel = RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), r_plus(r_from_qrb(sl2_qrb)))
    for arg in (RelativeRB.unchecked(rel.rr, rel.K), rel):
        scans.clear()
        ambient, r = rk_solution(arg)
        assert (scans["cybe"], scans["reynolds-tensor-condition"]) == (0, 0)
        assert scans["operator-identity"] == (0 if arg is rel else 1)
        assert is_cybe_solution(ambient.L, r) == Certificate.passed("cybe")
        assert (reynolds_tensor_condition(ambient.R, r)
                == Certificate.passed("reynolds-tensor-condition"))


def test_a_failed_o_operator_records_nothing(sl2_reynolds):
    # K = 2·Id is no O-operator of (sl(2); ad*) and does not commute with R: `rk_solution`
    # and `prelie_from_relrb` raise the gate, and what they would entail fails when computed
    rr = reynolds_coadjoint_rep(sl2_reynolds)
    bad = RelativeRB.unchecked(rr, Mat.identity(3).scale(2))
    gate = is_relative_rb(bad)
    assert [p.ok for p in gate.parts] == [True, False, False]
    for build in (rk_solution, prelie_from_relrb):
        raised, held = raised_and_recorded(build, bad)
        assert raised == gate
        assert not {"is_cybe_solution", "reynolds_tensor_condition", "is_prelie"} & set(held)
    ambient = semidirect_reynolds(dual_reynolds_rep(rr))
    r = r_k(bad.K, 3)
    assert not is_cybe_solution(ambient.L, r).ok
    assert not reynolds_tensor_condition(ambient.R, r).ok
    # {u,v} = ρ(2u)v
    prod = {(a, b): {k: 2 * c for k, c in enumerate(rr.rep.rho[a].col(b)) if c}
            for a in range(3) for b in range(3)}
    assert not is_prelie(PreLieAlgebra.unchecked(3, None, prod)).ok


def test_the_pre_lie_steps_entail_their_stages(sl2_reynolds, sl2_qrb, scans):
    rel = RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), r_plus(r_from_qrb(sl2_qrb)))
    copy = RelativeRB.unchecked(rel.rr, rel.K)
    scans.clear()
    rp = prelie_from_relrb(copy)
    # the gate is scanned (on a copy that carries nothing), the pre-Lie identity is not
    assert (scans["operator-identity"], scans["pre-lie"]) == (1, 0)
    assert is_prelie(rp.A) == Certificate.passed("pre-lie")
    for build, algebra in ((subadjacent, lambda out: out.L), (left_rep, lambda out: out.base.L),
                           (canonical_r, lambda out: out[0].L)):
        scans.clear()
        out = build(rp)
        # rp carries its gate: no pre-Lie, Jacobi, representation, compatibility or CYBE stage
        # is scanned
        assert not any(scans[s] for s in ("pre-lie", "jacobi", "representation", "compatibility",
                                          "cybe", "reynolds-tensor-condition")), build.__name__
        L = algebra(out)
        assert jacobi_check(L) == Certificate.passed("jacobi")
        if build is left_rep:
            assert is_representation(out.rep) == Certificate.passed("representation")
            assert compat_certificate(rp.R, out.rep, rp.R) == Certificate.passed("compatibility")
        if build is canonical_r:
            assert is_cybe_solution(L, out[1]) == Certificate.passed("cybe")
            assert (reynolds_tensor_condition(out[0].R, out[1])
                    == Certificate.passed("reynolds-tensor-condition"))


def test_a_non_pre_lie_product_or_a_non_reynolds_operator_records_nothing(sl2_reynolds,
                                                                         sl2_qrb):
    A = broken_prelie()
    rp = ReynoldsPreLie.unchecked(A, Mat.zeros(2, 2))
    gate = is_reynolds_prelie(A, rp.R)
    assert gate.first_failure().check == "pre-lie"
    for build in (subadjacent, left_rep, canonical_r):
        raised, held = raised_and_recorded(build, rp)
        assert raised == gate
        assert not {"jacobi_check", "is_representation", "compat_certificate",
                    "is_cybe_solution"} & set(held)
    # the left multiplications, computed, are no representation of the sub-adjacent algebra
    left = Representation.unchecked(LieAlgebra(2, None, {(0, 1): {0: 1}}), 2, mult_mats(A.prod))
    assert not is_representation(left).ok
    # a pre-Lie product with an operator that fails the reynolds-product stage: the
    # compatibility of (R, L, R), computed, fails with it
    rel = RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), r_plus(r_from_qrb(sl2_qrb)))
    twice, rp = Mat.identity(3).scale(2), prelie_from_relrb(rel)
    bad = ReynoldsPreLie.unchecked(rp.A, twice)
    gate = is_reynolds_prelie(bad.A, twice)
    assert [p.ok for p in gate.parts] == [True, False]
    raised, held = raised_and_recorded(left_rep, bad)
    assert raised == gate and "compat_certificate" not in held
    assert not compat_certificate(twice, left_rep(rp).rep, twice).ok


def test_the_paper_chain_scans_no_entailed_stage(monkeypatch, tmp_path, scans):
    # on the build-pipeline's sl(2) chain of the paper: every CYBE, cocycle, pre-Lie and tensor
    # condition, and the left multiplications' representation and compatibility, is entailed
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    ops = [op for op in workloads.build_pipeline(1, str(tmp_path)) if " paper " in op.name]
    assert len(ops) == 11
    for op in ops:
        scans.clear()
        assert op.check(op.run()) is None, op.name
        entailed = ("cybe", "cocycle", "pre-lie", "reynolds-tensor-condition")
        assert [scans[s] for s in entailed] == [0] * 4, op.name
        if op.name.startswith("canonical_r"):
            assert (scans["representation"], scans["compatibility"]) == (0, 0)
