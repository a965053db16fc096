"""The checked-structure base: one violating input per `Checked` subclass.

Each class declares its gate once, in its class statement; `x.gate()` must be
the class's check on x's slots.  `X(*args)` must raise `CheckFailed` carrying
exactly that certificate; `X.unchecked(*args)` must build it anyway, and
equality must be field-wise.  The violating inputs are those of the
negative-certificate criterion in `test_acceptance.py`.
"""

import gc
import inspect

import pytest

from algcert.bialgebra import (
    LieBialgebra,
    ReynoldsLieBialgebra,
    canonical_pair,
    is_lie_bialgebra,
    is_reynolds_bialgebra,
)
from algcert.catalog import catalog
from algcert.certificates import Checked, CheckFailed
from algcert.cybe import (
    PreLieAlgebra,
    RelativeRB,
    ReynoldsPreLie,
    is_prelie,
    is_relative_rb,
    is_reynolds_prelie,
    prelie_from_relrb,
    r_plus,
)
from algcert.exact import Mat
from algcert.lie import (
    BilinForm,
    LieAlgebra,
    Representation,
    adjoint_rep,
    coadjoint_rep,
    is_representation,
    jacobi_check,
)
from algcert.matched import (
    ManinTripleReynolds,
    MatchedPair,
    ReynoldsMatchedPair,
    is_manin_triple,
    is_matched_pair,
    is_reynolds_matched_pair,
    matched_to_manin,
)
from algcert.nslie import NSLieAlgebra, NSRep, is_ns_rep, is_nslie, ns_from_reynolds, regular_rep
from algcert.reynolds import (
    QuadraticReynolds,
    ReynoldsLieAlgebra,
    ReynoldsRep,
    is_quadratic_reynolds,
    is_reynolds,
    is_reynolds_rep,
    reynolds_adjoint_rep,
    reynolds_coadjoint_rep,
)
from algcert.rotabaxter import (
    QuadraticRB,
    RotaBaxterAlg,
    is_quadratic_rb,
    is_rota_baxter,
    r_from_qrb,
    thmFL_bialgebra,
)

SL2, B, S = (catalog(name).payload for name in ("sl2", "sl2.B", "sl2.S"))
A = ReynoldsLieAlgebra(SL2, B)
QRB = QuadraticRB(RotaBaxterAlg(SL2, B, 0), S)
THMFL = thmFL_bialgebra(QRB, B)
GOOD_PAIR = canonical_pair(THMFL)
MT = matched_to_manin(GOOD_PAIR)
NS = ns_from_reynolds(A)
REG = regular_rep(NS)
GOOD_PRELIE = prelie_from_relrb(RelativeRB(reynolds_coadjoint_rep(A), r_plus(r_from_qrb(QRB))))
ID3, Z3 = Mat.identity(3), Mat.zeros(3, 3)
TWO = ID3.scale(2)
ZERO_REP = Representation.zero(SL2, 3)
BROKEN = {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}}   # violates Jacobi at (0,1,2)
BAD_NS_LEFT = {(0, 0): {1: 1}, (1, 0): {0: 1}}
BAD_FORM = BilinForm(Mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))  # nondegenerate, not invariant

# class -> (violating arguments, the same with one field changed, its gate: the check on an
# instance)
CASES = {
    LieAlgebra: ((3, None, BROKEN), (3, ("a", "b", "c"), BROKEN), jacobi_check),
    Representation: ((SL2, 3, [ID3, Z3, Z3]), (SL2, 3, [TWO, Z3, Z3]), is_representation),
    ReynoldsLieAlgebra: ((SL2, Mat([[0, 0, -1], [2, 1, 0], [0, 0, 0]])), (SL2, TWO),
                         lambda x: is_reynolds(x.L, x.R)),
    ReynoldsRep: ((A, adjoint_rep(SL2), ID3), (A, adjoint_rep(SL2), TWO), is_reynolds_rep),
    QuadraticReynolds: ((A, BAD_FORM), (A, BilinForm(TWO)),
                        lambda x: is_quadratic_reynolds(x.base, x.S)),
    NSLieAlgebra: ((2, None, BAD_NS_LEFT, {}), (2, None, BAD_NS_LEFT, {(0, 1): {0: 1}}),
                   is_nslie),
    NSRep: ((NS, 3, REG.varrho, REG.mu, [Z3] * 3), (NS, 3, REG.varrho, REG.mu, [ID3] * 3),
            is_ns_rep),
    MatchedPair: ((SL2, SL2, ZERO_REP, coadjoint_rep(SL2)), (SL2, SL2, ZERO_REP, ZERO_REP),
                  lambda x: is_matched_pair(x.g, x.h, x.rho, x.mu)),
    ReynoldsMatchedPair: ((GOOD_PAIR.pair, B, B.transpose()), (GOOD_PAIR.pair, B, B),
                          is_reynolds_matched_pair),
    ManinTripleReynolds: ((MT.G, (0, 3), (1, 2, 4, 5)), (MT.G, (0, 1, 3), (2, 4, 5)),
                          lambda x: is_manin_triple(x.G.base.L, x.G.base.R, x.G.S,
                                                    x.part_g, x.part_h)),
    LieBialgebra: ((SL2, LieAlgebra.unchecked(3, None, dict(SL2.sc))),
                   (SL2, LieAlgebra.unchecked(3, None, BROKEN)),
                   lambda x: is_lie_bialgebra(x.g, x.dual)),
    ReynoldsLieBialgebra: ((THMFL.bialg, ID3), (THMFL.bialg, TWO),
                           lambda x: is_reynolds_bialgebra(x.bialg, x.R)),
    RotaBaxterAlg: ((SL2, ID3, 0), (SL2, ID3, 1), lambda x: is_rota_baxter(x.L, x.B, x.lam)),
    QuadraticRB: ((RotaBaxterAlg.unchecked(SL2, Z3, 1), S),
                  (RotaBaxterAlg.unchecked(SL2, Z3, 1), BAD_FORM),
                  lambda x: is_quadratic_rb(x.rb, x.S)),
    RelativeRB: ((reynolds_adjoint_rep(A), ID3), (reynolds_adjoint_rep(A), TWO), is_relative_rb),
    PreLieAlgebra: ((2, None, BAD_NS_LEFT), (2, ("a", "b"), BAD_NS_LEFT), is_prelie),
    ReynoldsPreLie: ((GOOD_PRELIE.A, TWO), (GOOD_PRELIE.A, TWO.scale(2)),
                     lambda x: is_reynolds_prelie(x.A, x.R)),
}


def test_every_checked_class_has_a_case():
    assert set(CASES) == set(Checked.__subclasses__())


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_checked_constructor_gate_and_equality(cls):
    args, changed, check = CASES[cls]
    assert not check(cls.unchecked(*args)).ok
    for a in (args, changed):
        gate = check(cls.unchecked(*a))
        assert cls.unchecked(*a).gate() == gate
        if gate.ok:          # the changed arguments of `MatchedPair` form a matched pair
            assert cls(*a).gate() == gate
        else:
            with pytest.raises(CheckFailed) as exc:
                cls(*a)
            assert exc.value.certificate == gate
    built = cls.unchecked(*args)
    assert built == cls.unchecked(*args) == cls.unchecked(*args)
    assert built != cls.unchecked(*changed)
    assert all(built != other.unchecked(*CASES[other][0]) for other in CASES if other is not cls)


def test_representation_equality_ignores_labels():
    rho = coadjoint_rep(SL2).rho
    assert Representation(SL2, 3, rho, labels=("p", "q", "r")) == Representation(SL2, 3, rho)
    assert Representation(SL2, 3, rho) != Representation(SL2, 3, adjoint_rep(SL2).rho)


def test_no_constructor_takes_a_check_flag():
    # `X.unchecked(...)` is the one way to skip the gate, and what it builds carries nothing
    assert [cls.__name__ for cls in CASES
            if "check" in inspect.signature(cls.__init__).parameters] == []
    for cls, (args, *_) in CASES.items():
        with pytest.raises(TypeError, match="unexpected keyword argument 'check'"):
            cls(*args, check=False)
        assert cls.unchecked(*args).carried == ()


def test_a_subclass_without_a_gate_is_refused():
    with pytest.raises(TypeError, match="Gateless declares no gate"):
        class Gateless(Checked):
            __slots__ = ()
    gc.collect()     # the refused class is a reference cycle: drop it from the subclasses
    assert set(Checked.__subclasses__()) == set(CASES)
