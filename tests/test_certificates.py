"""Pinned certificates: one small failing input per exhaustive check stage,
and per single-shot stage (one matrix or tensor identity, `where` (0,) for a
matrix and the first nonzero index for a tensor, `violations` 1).

Each case asserts the complete ``to_json()`` of the named stage, so the
pinpoint (`where`), the exact residual and the total violation count of
every stage stay fixed.  The Block-family identities hold on every window,
so their stages are pinned as passes that carry a skipped-pair count.
"""

import pytest

from algcert.bialgebra import (
    cobracket_from_dual,
    coboundary_conditions,
    cocycle_check,
    is_lie_coalgebra,
    is_reynolds_coalgebra,
    reynolds_coboundary_condition,
)
from algcert.cybe import (
    PreLieAlgebra,
    RelativeRB,
    ad_invariance_cert,
    is_cybe_solution,
    is_prelie,
    is_relative_rb,
    is_reynolds_prelie,
    reynolds_tensor_condition,
)
from algcert.certificates import CheckFailed
from algcert.exact import Mat, Tensor2
from algcert.lie import (
    BilinForm,
    LieAlgebra,
    Representation,
    adjoint_rep,
    is_invariant_form,
    is_representation,
    jacobi_check,
)
from algcert.matched import is_manin_triple, is_matched_pair
from algcert.nslie import NSLieAlgebra, NSRep, is_ns_rep, is_nslie, ns_from_reynolds, regular_rep
from algcert.reynolds import (
    QuadraticReynolds,
    ReynoldsLieAlgebra,
    block_window_check,
    check_ssharp_intertwiner,
    compat_certificate,
    is_reynolds,
    operator_form_compat,
    reynolds_adjoint_rep,
)
from algcert.rotabaxter import (
    QuadraticRB,
    RotaBaxterAlg,
    descendent,
    is_factorizable,
    is_reynolds_on_qrb,
    is_rota_baxter,
    r_from_qrb,
)

SL2 = LieAlgebra(3, ("H", "X", "Y"), {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
BROKEN = {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}   # violates Jacobi at (0,1,2)
B_OP = Mat([[0, 0, -1], [2, 0, 0], [0, 0, 0]])
S_FORM = BilinForm(Mat([[2, 0, 0], [0, 0, 1], [0, 1, 0]]))
BAD_FORM = BilinForm(Mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))  # nondegenerate, not invariant
ID3 = Mat.identity(3)
TWO = ID3.scale(2)
AD = adjoint_rep(SL2)
E00 = Tensor2(3, 3, {(0, 0): 1})
E01 = Tensor2(3, 3, {(0, 1): 1})


def _ns_rep():
    A = ns_from_reynolds(ReynoldsLieAlgebra(SL2, B_OP))
    reg = regular_rep(A)
    return NSRep.unchecked(A, 3, [m.scale(2) for m in reg.varrho], [m.scale(3) for m in reg.mu],
                           [m.scale(5) for m in reg.nu])


def _manin():
    return is_manin_triple(SL2, B_OP, S_FORM, (1, 2), (0,))


# stage name -> the check call whose certificate contains that stage
STAGES = {
    "jacobi": lambda: jacobi_check(LieAlgebra.unchecked(3, None, BROKEN)),
    "representation": lambda: is_representation(
        Representation.unchecked(SL2, 3, [m.scale(2) for m in AD.rho])),
    "invariant-form": lambda: is_invariant_form(SL2, BAD_FORM),
    "reynolds": lambda: is_reynolds(SL2, TWO),
    "compatibility": lambda: compat_certificate(B_OP, AD, TWO),
    "reynolds-compat": lambda: operator_form_compat(SL2, S_FORM, ID3),
    "ad-intertwiner": lambda: check_ssharp_intertwiner(
        QuadraticReynolds.unchecked(ReynoldsLieAlgebra.unchecked(SL2, B_OP), BAD_FORM)),
    "block-reynolds-identity": lambda: block_window_check(-3, -3, 3, skip_singular=True),
    "block-induced-closed-form": lambda: block_window_check(-3, -3, 3, skip_singular=True),
    "ns-identity-1": lambda: is_nslie(ns_from_reynolds(ReynoldsLieAlgebra.unchecked(SL2, TWO))),
    "ns-identity-2": lambda: is_nslie(NSLieAlgebra.unchecked(3, None, {}, BROKEN)),
    "ns-rep-1": lambda: is_ns_rep(_ns_rep()),
    "ns-rep-2": lambda: is_ns_rep(_ns_rep()),
    "ns-rep-3": lambda: is_ns_rep(_ns_rep()),
    "compat-on-h": lambda: is_matched_pair(SL2, SL2, AD, AD),
    "compat-on-g": lambda: is_matched_pair(SL2, SL2, AD, AD),
    "closure-g": _manin,
    "closure-h": _manin,
    "isotropy-g": _manin,
    "coalgebra": lambda: is_lie_coalgebra(
        cobracket_from_dual(LieAlgebra.unchecked(3, None, BROKEN))),
    "reynolds-coalgebra": lambda: is_reynolds_coalgebra(cobracket_from_dual(SL2), TWO),
    "cocycle": lambda: cocycle_check(SL2, cobracket_from_dual(SL2)),
    "symmetric-part-invariance": lambda: coboundary_conditions(SL2, E01),
    "cybe-bracket-invariance": lambda: coboundary_conditions(SL2, E01),
    "reynolds-coboundary": lambda: reynolds_coboundary_condition(SL2, TWO, E01),
    "ad-invariance": lambda: ad_invariance_cert(SL2, E00),
    "operator-identity": lambda: is_relative_rb(
        RelativeRB.unchecked(reynolds_adjoint_rep(ReynoldsLieAlgebra(SL2, B_OP)), ID3)),
    # the sl(2) bracket read as a product is not left-symmetric
    "pre-lie": lambda: is_prelie(PreLieAlgebra.unchecked(3, None, {
        (0, 1): {1: 2}, (1, 0): {1: -2}, (0, 2): {2: -2}, (2, 0): {2: 2},
        (1, 2): {0: 1}, (2, 1): {0: -1}})),
    "reynolds-product": lambda: is_reynolds_prelie(
        PreLieAlgebra.unchecked(1, None, {(0, 0): {0: 1}}), Mat([[2]])),
    "rota-baxter": lambda: is_rota_baxter(SL2, TWO, -1),
    "i-intertwines": lambda: is_factorizable(SL2, E00),
    # single-shot stages
    "rk-equals-kt": lambda: is_relative_rb(RelativeRB.unchecked(
        reynolds_adjoint_rep(ReynoldsLieAlgebra(SL2, B_OP)),
        Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))),
    "operator-skew": lambda: check_ssharp_intertwiner(
        QuadraticReynolds.unchecked(ReynoldsLieAlgebra.unchecked(SL2, ID3), S_FORM)),
    "adjoint-compat": lambda: is_reynolds_on_qrb(
        QuadraticRB.unchecked(RotaBaxterAlg.unchecked(SL2, B_OP, 0), S_FORM), ID3),
    "cybe": lambda: is_cybe_solution(SL2, Tensor2(3, 3, {(1, 2): 1, (2, 1): -1})),
    "reynolds-tensor-condition": lambda: reynolds_tensor_condition(TWO, E01),
}

PINNED = {
    "jacobi": {"check": "jacobi", "ok": False, "where": [0, 1, 2],
               "residual": [{"at": [2], "c": "-1"}], "violations": 1},
    "representation": {"check": "representation", "ok": False, "where": [0, 1],
                       "residual": [{"at": [0, 2], "c": "-4"}, {"at": [1, 0], "c": "8"}],
                       "violations": 3},
    "invariant-form": {"check": "invariant-form", "ok": False, "where": [1, 0, 2],
                       "residual": [{"at": [1, 0, 2], "c": "-1"}], "violations": 4},
    "reynolds": {"check": "reynolds", "ok": False, "where": [0, 1],
                 "residual": [{"at": [1], "c": "8"}], "violations": 3},
    "compatibility": {"check": "compatibility", "ok": False, "where": [0, 0],
                      "residual": [{"at": [1], "c": "-16"}], "violations": 8},
    "reynolds-compat": {"check": "reynolds-compat", "ok": False, "where": [0, 0],
                        "residual": [{"at": [0, 0], "c": "4"}], "violations": 3},
    "ad-intertwiner": {"check": "ad-intertwiner", "ok": False, "where": [1],
                       "residual": [{"at": [0, 2], "c": "-1"}, {"at": [2, 0], "c": "-1"}],
                       "violations": 2},
    "block-reynolds-identity": {"check": "block-reynolds-identity", "ok": True, "skipped": 140},
    "block-induced-closed-form": {"check": "block-induced-closed-form", "ok": True},
    "ns-identity-1": {"check": "ns-identity-1", "ok": False, "where": [0, 1, 0],
                      "residual": [{"at": [1], "c": "16"}], "violations": 12},
    "ns-identity-2": {"check": "ns-identity-2", "ok": False, "where": [0, 1, 2],
                      "residual": [{"at": [2], "c": "1"}], "violations": 6},
    "ns-rep-1": {"check": "ns-rep-1", "ok": False, "where": [0, 2],
                 "residual": [{"at": [0, 2], "c": "-24"}, {"at": [1, 0], "c": "48"}],
                 "violations": 2},
    "ns-rep-2": {"check": "ns-rep-2", "ok": False, "where": [0, 0],
                 "residual": [{"at": [1, 2], "c": "-80"}], "violations": 4},
    "ns-rep-3": {"check": "ns-rep-3", "ok": False, "where": [0, 2],
                 "residual": [{"at": [1, 2], "c": "-8"}], "violations": 2},
    "compat-on-h": {"check": "compat-on-h", "ok": False, "where": [0, 0, 1],
                    "residual": [{"at": [1], "c": "-4"}], "violations": 6},
    "compat-on-g": {"check": "compat-on-g", "ok": False, "where": [0, 0, 1],
                    "residual": [{"at": [1], "c": "-4"}], "violations": 6},
    "closure-g": {"check": "closure-g", "ok": False, "where": [1, 2],
                  "residual": [{"at": [0], "c": "1"}], "violations": 2},
    "closure-h": {"check": "closure-h", "ok": False, "where": [0],
                  "residual": [{"at": [1], "c": "2"}], "violations": 1},
    "isotropy-g": {"check": "isotropy-g", "ok": False, "where": [1, 2],
                   "residual": [{"at": [1, 2], "c": "1"}], "violations": 2},
    "coalgebra": {"check": "coalgebra", "ok": False, "where": [2],
                  "residual": [{"at": [0, 1, 2], "c": "1"}, {"at": [0, 2, 1], "c": "-1"},
                               {"at": [1, 0, 2], "c": "-1"}, {"at": [1, 2, 0], "c": "1"},
                               {"at": [2, 0, 1], "c": "1"}, {"at": [2, 1, 0], "c": "-1"}],
                  "violations": 1},
    "reynolds-coalgebra": {"check": "reynolds-coalgebra", "ok": False, "where": [0],
                           "residual": [{"at": [1, 2], "c": "4"}, {"at": [2, 1], "c": "-4"}],
                           "violations": 3},
    "cocycle": {"check": "cocycle", "ok": False, "where": [0, 1],
                "residual": [{"at": [0, 1], "c": "-1"}, {"at": [1, 0], "c": "1"}],
                "violations": 3},
    "symmetric-part-invariance": {"check": "symmetric-part-invariance", "ok": False, "where": [0],
                                  "residual": [{"at": [0, 1], "c": "2"}, {"at": [1, 0], "c": "2"}],
                                  "violations": 3},
    "cybe-bracket-invariance": {"check": "cybe-bracket-invariance", "ok": False, "where": [0],
                                "residual": [{"at": [0, 1, 1], "c": "-8"}], "violations": 3},
    "reynolds-coboundary": {"check": "reynolds-coboundary", "ok": False, "where": [0],
                            "residual": [{"at": [0, 1], "c": "32"}], "violations": 3},
    "ad-invariance": {"check": "ad-invariance", "ok": False, "where": [1],
                      "residual": [{"at": [0, 1], "c": "-2"}, {"at": [1, 0], "c": "-2"}],
                      "violations": 2},
    "operator-identity": {"check": "operator-identity", "ok": False, "where": [0, 1],
                          "residual": [{"at": [1], "c": "-2"}], "violations": 3},
    "pre-lie": {"check": "pre-lie", "ok": False, "where": [0, 1, 0],
                "residual": [{"at": [1], "c": "-4"}], "violations": 6},
    "reynolds-product": {"check": "reynolds-product", "ok": False, "where": [0, 0],
                         "residual": [{"at": [0], "c": "4"}], "violations": 1},
    "rota-baxter": {"check": "rota-baxter", "ok": False, "where": [0, 1],
                    "residual": [{"at": [1], "c": "-4"}], "violations": 3},
    "i-intertwines": {"check": "i-intertwines", "ok": False, "where": [1],
                      "residual": [{"at": [0, 1], "c": "4"}, {"at": [1, 0], "c": "4"}],
                      "violations": 2},
    "rk-equals-kt": {"check": "rk-equals-kt", "ok": False, "where": [0],
                     "residual": [{"at": [0, 2], "c": "1"}, {"at": [1, 0], "c": "2"}],
                     "violations": 1},
    "operator-skew": {"check": "operator-skew", "ok": False, "where": [0],
                      "residual": [{"at": [0, 0], "c": "4"}, {"at": [1, 2], "c": "2"},
                                   {"at": [2, 1], "c": "2"}],
                      "violations": 1},
    "adjoint-compat": {"check": "adjoint-compat", "ok": False, "where": [0],
                       "residual": [{"at": [0, 2], "c": "-2"}, {"at": [1, 0], "c": "4"}],
                       "violations": 1},
    "cybe": {"check": "cybe", "ok": False, "where": [0, 1, 2],
             "residual": [{"at": [0, 1, 2], "c": "1"}, {"at": [0, 2, 1], "c": "-1"},
                          {"at": [1, 0, 2], "c": "-1"}, {"at": [1, 2, 0], "c": "1"},
                          {"at": [2, 0, 1], "c": "1"}, {"at": [2, 1, 0], "c": "-1"}],
             "violations": 1},
    "reynolds-tensor-condition": {"check": "reynolds-tensor-condition", "ok": False,
                                  "where": [0, 1], "residual": [{"at": [0, 1], "c": "4"}],
                                  "violations": 1},
}


def stage(cert, name):
    if cert.check == name:
        return cert
    found = [s for s in (stage(p, name) for p in cert.parts) if s is not None]
    return found[0] if found else None


@pytest.mark.parametrize("name", list(STAGES))
def test_stage_certificate_pinned(name):
    assert stage(STAGES[name](), name).to_json() == PINNED[name]


def test_descendent_compatibility_pinned(rebind):
    # r_from_qrb's last stage holds for sl(2); with the descendent bracket doubled and
    # [e0,e1] = e2 added, all three pairs fail and `violations` counts each of them
    def perturbed(rb):
        d = descendent(rb)
        sc = {key: {k: 2 * c for k, c in comp.items()} for key, comp in d.sc.items()}
        return LieAlgebra.unchecked(d.dim, d.basis, {**sc, (0, 1): {2: 1}})
    rebind(descendent, perturbed)
    with pytest.raises(CheckFailed) as failure:
        r_from_qrb(QuadraticRB(RotaBaxterAlg(SL2, B_OP, 0), S_FORM))
    assert failure.value.certificate.to_json() == {
        "check": "descendent-compatibility", "ok": False, "where": [0, 1],
        "residual": [{"at": [1], "c": "-1"}], "violations": 3}
