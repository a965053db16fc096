"""Checked structures carry their certificates across calls.

A `Checked` structure built with its check keeps, in `carried`, the memo entries of
`certificates.verified` that its check left about it and its parts; the next outermost
call it is handed starts from them.  That is sound only if nothing an entry is keyed on
can change, so every structure is frozen once built, and an entry is kept only when
every object it is keyed on is the structure or one of its frozen or read-only parts.

These tests pin the trust side: assignment raises, on a structure and on a `BilinForm`
(frozen too, so entries keyed on a form travel), an unchecked structure and a half-built
one carry nothing, no carried entry is keyed on a list, and every carried certificate
equals the one its check computes afresh, on every registry document of the command
line and on three seeds of the benchmark's construction chains.
"""

import os
import sys
from fractions import Fraction

import pytest

from algcert import certificates
from algcert.bialgebra import canonical_pair, drinfeld_double, is_reynolds_bialgebra
from algcert.certificates import Checked, CheckFailed, verified
from algcert.cli import main_build, main_check
from algcert.exact import Mat, Table, Tensor2, Tensor3
from algcert.lie import BilinForm, LieAlgebra, Representation, jacobi_check
from algcert.matched import ManinTripleReynolds, ReynoldsMatchedPair, matched_to_manin
from algcert.nslie import NSLieAlgebra
from algcert.reynolds import (ReynoldsLieAlgebra, ReynoldsRep, check_ssharp_intertwiner,
                              operator_form_compat)
from algcert.rotabaxter import is_quadratic_rb, r_from_qrb

from conftest import fresh, parts
from test_checked import CASES
from test_shell import _every_kind, write

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
FROZEN = (Checked, BilinForm, tuple, Mat, Table, Tensor2, Tensor3, int, Fraction, str)


@pytest.fixture
def built(monkeypatch):
    """Every `Checked` structure constructed while the fixture is active, checked or not."""
    out = []
    raw = certificates._Carrying.__call__

    def recording(cls, *args, **kwargs):
        out.append(raw(cls, *args, **kwargs))
        return out[-1]
    monkeypatch.setattr(certificates._Carrying, "__call__", recording)
    return out


def verify_carried(objs) -> int:
    """Every carried entry of objs is keyed on the carrier and its frozen or read-only parts
    only, or on a stage name the entry holds, and its certificate equals a fresh computation;
    the number of entries checked."""
    entries = [(x, key, v) for x in objs for key, v in dict(x.carried).items()]
    # no entry is keyed on a list, which its caller could change
    on_lists = [key[0].__name__ for _, key, v in entries if len(v) == 3 and
                any(type(a) is list for a in (*v[1], *v[2].values()))]
    assert on_lists == []
    certs = {}
    for x, key, (cert, *rest) in entries:
        held = parts(x)
        held.update((id(a), a) for a in (rest[0] if rest else ()) if type(a) is str)
        fn, ids = key[0], key[1:]
        assert all(type(i) is int and i in held for i in ids), (fn.__name__, x)
        args = tuple(held[i] for i in ids)
        assert all(isinstance(a, FROZEN) for a in args), fn.__name__
        assert certs.setdefault(key, (cert, args))[0] == cert
    for key, (cert, args) in certs.items():
        assert fresh(key[0], args) == cert, key[0].__name__
    return len(certs)


# -- frozen ---------------------------------------------------------------------------------

def test_assigning_a_slot_raises(thmfl, built):
    checked = [thmfl, thmfl.bialg, thmfl.bialg.g, thmfl.bialg.dual]
    unchecked = [cls.unchecked(*args) for cls, (args, *_) in CASES.items()]
    drinfeld_double(thmfl)
    assert {type(x) for x in unchecked} == set(Checked.__subclasses__())
    for x in checked + unchecked + built:
        for slot in (*type(x).__slots__, "carried"):
            value = getattr(x, slot)
            with pytest.raises(AttributeError):
                setattr(x, slot, value)
            assert getattr(x, slot) is value
    assert all(x.carried for x in checked)


# -- nothing carried from an unchecked or a failed construction -----------------------------

def test_an_unchecked_structure_carries_nothing(sl2, b_op, thmfl, rebind):
    assert LieAlgebra.unchecked(sl2.dim, sl2.basis, sl2.sc).carried == ()

    @verified
    def scope(L):
        # inside a scope that holds certificates of L, an unchecked structure over L
        assert jacobi_check(L).ok
        return ReynoldsLieAlgebra.unchecked(L, b_op), LieAlgebra.unchecked(L.dim, L.basis, L.sc)

    for x in scope(LieAlgebra.unchecked(sl2.dim, sl2.basis, sl2.sc)):
        assert x.carried == ()
    # the unchecked matched pair `drinfeld_double` builds in its scope, and its actions
    pairs, raw = [], canonical_pair
    rebind(raw, lambda rb: pairs.append(raw(rb)) or pairs[-1])
    drinfeld_double(thmfl)
    rmp = pairs[0]
    for x in (rmp, rmp.pair, rmp.pair.rho, rmp.pair.mu):
        assert x.carried == ()
    assert rmp.pair.g.carried and rmp.pair.h.carried    # thmfl's own g and g*


def test_a_failed_construction_carries_nothing():
    # outside a scope the constructor opens one and drops it, so nothing outlives it
    for cls, (args, *_) in CASES.items():
        with pytest.raises(CheckFailed):
            cls(*args)
        assert certificates._scope.get() is None
    inputs = {}
    for args, *_ in CASES.values():
        parts(args, inputs)

    @verified
    def scope():
        for cls, (args, *_) in CASES.items():
            with pytest.raises(CheckFailed):
                cls(*args)
        return dict(certificates._scope.get())

    # inside a scope its failed entries stay there, keyed on the half-built structures,
    # which are frozen and carry nothing
    half = [a for _, args, _ in scope().values() for a in args
            if isinstance(a, Checked) and id(a) not in inputs]
    assert {type(x) for x in half} >= {LieAlgebra, Representation, ReynoldsRep, NSLieAlgebra}
    for x in half:
        assert x.carried == ()
        with pytest.raises(AttributeError):
            setattr(x, type(x).__slots__[0], None)


# -- what is carried is keyed on frozen parts and equals a fresh computation ----------------

def test_a_checked_structure_carries_its_check(thmfl):
    g, dual = thmfl.bialg.g, thmfl.bialg.dual
    for L in (g, dual):
        assert (jacobi_check.__wrapped__, id(L)) in L.carried
    assert ((is_reynolds_bialgebra.__wrapped__, id(thmfl.bialg), id(thmfl.R), id(thmfl.Rt))
            in thmfl.carried)
    # `is_lie_bialgebra`'s cocycle stage is keyed on (g, g*), so it travels; the list-keyed
    # `cocycle_check` it calls on the cobracket tensors does not
    names = {key[0].__name__ for key in thmfl.bialg.carried}
    assert {"is_lie_bialgebra", "bialgebra_cocycle"} <= names and "cocycle_check" not in names
    # the carrier's own entries drop their arguments, so a structure holds no cycle
    assert all(len(v) == 1 for k, v in dual.carried.items() if id(dual) in k)
    assert verify_carried([thmfl, thmfl.bialg, g, dual]) == len(thmfl.carried)


def test_a_form_is_frozen():
    # once built, a form cannot be rebound: a rebound Gram matrix would void what was checked
    # of the old one (here S = 0, on which R = Id passes; on [[0,1],[−1,0]] the residual at
    # (0, 1) would be 2)
    S = BilinForm(Mat([[0, 0], [0, 0]]))
    with pytest.raises(AttributeError):
        S.gram = Mat([[0, 1], [-1, 0]])
    assert S.gram == Mat.zeros(2, 2)
    L = LieAlgebra.abelian(2)
    assert operator_form_compat(L, S, Mat.identity(2), "reynolds-compat").ok


def test_entries_keyed_on_a_form_travel(thmfl, sl2_qrb, scans):
    # a `BilinForm` is frozen, so entries keyed on a form, or on a structure that holds one,
    # travel, stage names included; each equals a fresh computation
    mt = matched_to_manin(canonical_pair(thmfl))

    @verified
    def scope(G):
        assert check_ssharp_intertwiner(G).ok          # keyed on G; it reads G.S
        return ManinTripleReynolds(G, mt.part_g, mt.part_h)

    out = scope(mt.G)
    names = {key[0].__name__ for key in out.carried}
    assert names >= {"check_ssharp_intertwiner", "is_manin_triple", "is_quadratic_reynolds",
                     "is_quadratic", "is_invariant_form", "operator_form_compat",
                     "jacobi_check", "is_reynolds"}
    # a checked quadratic Rota-Baxter algebra carries its check: `r_from_qrb` on it scans
    # neither the invariance of its form nor its B-compatibility again
    assert (is_quadratic_rb.__wrapped__, id(sl2_qrb.rb), id(sl2_qrb.S)) in sl2_qrb.carried
    scans.clear()
    r_from_qrb(sl2_qrb)
    assert scans["invariant-form"] == 0
    assert verify_carried([out, sl2_qrb]) == len(out.carried) + len(sl2_qrb.carried)


def test_a_checked_matched_pair_carries_its_cross_compatibilities(thmfl):
    # the stage names are passed positionally, so the entries keyed on them travel
    rmp = canonical_pair(thmfl)
    checked = ReynoldsMatchedPair(rmp.pair, rmp.Rg, rmp.Rh)
    stages = {v[0].check for key, v in checked.carried.items()
              if key[0].__name__ in ("compat_certificate", "compat_stage")}
    assert stages == {"cross-compat-rho", "cross-compat-mu", "compat-on-h", "compat-on-g"}
    assert verify_carried([checked]) == len(checked.carried)


def test_carried_certificates_on_every_registry_document(tmp_path, sl2, b_op, sl2_reynolds,
                                                        sl2_qrb, thmfl, built, capsys):
    docs, checks, builds = _every_kind(tmp_path, sl2, b_op, sl2_reynolds, sl2_qrb, thmfl)
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    for kind, (name, flags) in checks.items():
        assert main_check([kind, paths[name]] + flags) == 0, kind
    for kind, (name, flags) in builds.items():
        assert main_build([kind, paths[name]] + flags + ["-o", str(tmp_path / "o.json")]) == 0
    capsys.readouterr()
    carriers = [x for x in built if x.carried]
    assert len(carriers) > len(builds)
    assert verify_carried(built) >= 50


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_carried_certificates_on_the_build_pipeline(seed, built, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    for op in workloads.build_pipeline(seed, str(tmp_path)):
        assert op.check(op.run()) is None, op.name
    assert verify_carried(built) >= 300
