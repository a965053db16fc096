"""Checked structures carry their certificates across calls.

A `Checked` structure built with its check keeps, in `carried`, the memo entries of
`certificates.verified` that its check left about it and its parts; the next outermost
call it is handed starts from them.  That is sound only if nothing an entry is keyed on
can change, so every structure is frozen once built, and an entry is kept only when
every object it is keyed on is the structure or one of its frozen or read-only parts.

These tests pin the trust side: assignment raises, on a structure and on a `BilinForm`
(frozen too, so entries keyed on a form travel), an unchecked structure and a half-built
one carry nothing, and the structures that carry are built where the audit sees them.
The audit of `tests/conftest.py` recomputes carried certificates: after every test it checks
that no carried entry of a structure the test built is keyed on a list or on anything but
the structure's frozen parts and the entry's stage names, and that each carried certificate
equals the one its check computes afresh.  Here it covers every registry document of the
command line and three seeds of the benchmark's construction chains.
"""

import os
from contextlib import contextmanager

import pytest

from algcert import certificates
from algcert.bialgebra import (canonical_pair, cobracket_from_dual, cocycle_check,
                               drinfeld_double, is_reynolds_bialgebra)
from algcert.certificates import Certificate, Checked, CheckFailed, verified
from algcert.cli import main_build, main_check
from algcert.exact import Mat
from algcert.lie import BilinForm, LieAlgebra, Representation, jacobi_check
from algcert.matched import ManinTripleReynolds, ReynoldsMatchedPair, matched_to_manin
from algcert.nslie import NSLieAlgebra
from algcert.reynolds import (ReynoldsLieAlgebra, ReynoldsRep, check_ssharp_intertwiner,
                              operator_form_compat)
from algcert.rotabaxter import is_quadratic_rb, r_from_qrb

from conftest import audit, parts
from test_checked import CASES
from test_shell import _every_kind, write

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def carried_keys(record, objs) -> set:
    """The keys of objs' carried entries, which the audit checks after the test: each of objs
    is among the structures it recorded."""
    assert {id(x) for x in objs} <= {id(x) for x in record.built}
    return {key for x in objs for key in x.carried}


@contextmanager
def carrying(x, entries):
    """x carries `entries` besides its own while the block runs."""
    own = x.carried
    object.__setattr__(x, "carried", {**dict(own), **entries})
    try:
        yield
    finally:
        object.__setattr__(x, "carried", own)


# -- the audit ------------------------------------------------------------------------------

def test_the_audit_refuses_a_false_claim(thmfl, broken_jacobi):
    # `audit` runs after every test; here it is handed claims it must refuse, one fault each
    with pytest.raises(AssertionError, match="entailed jacobi_check"):
        audit([(jacobi_check, (broken_jacobi,), Certificate.passed("jacobi"))], [])
    # a true certificate, but keyed on a list, which its caller could change
    g, deltas = thmfl.bialg.g, cobracket_from_dual(thmfl.bialg.dual)
    on_list = {(cocycle_check.__wrapped__, id(g), id(deltas)):
               (cocycle_check(g, deltas), (g, deltas), {})}
    with carrying(thmfl.bialg, on_list), pytest.raises(AssertionError, match="on a list"):
        audit([], [thmfl.bialg])
    # the fresh certificate with one violation more
    cert = jacobi_check(broken_jacobi)
    miscounted = {(jacobi_check.__wrapped__, id(broken_jacobi)):
                  (cert._replace(violations=cert.violations + 1),)}
    with carrying(broken_jacobi, miscounted), pytest.raises(AssertionError,
                                                            match="carried jacobi_check"):
        audit([], [broken_jacobi])
    # the true claims pass
    audit([(jacobi_check, (g,), Certificate.passed("jacobi"))], [thmfl.bialg, broken_jacobi])


# -- frozen ---------------------------------------------------------------------------------

def test_assigning_a_slot_raises(thmfl, entailment_audit):
    checked = [thmfl, thmfl.bialg, thmfl.bialg.g, thmfl.bialg.dual]
    unchecked = [cls.unchecked(*args) for cls, (args, *_) in CASES.items()]
    drinfeld_double(thmfl)
    assert {type(x) for x in unchecked} == set(Checked.__subclasses__())
    for x in checked + unchecked + entailment_audit.built:
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

def test_a_checked_structure_carries_its_check(thmfl, entailment_audit):
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
    assert carried_keys(entailment_audit, [thmfl, thmfl.bialg, g, dual]) == set(thmfl.carried)


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


def test_entries_keyed_on_a_form_travel(thmfl, sl2_qrb, scans, entailment_audit):
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
    assert len(carried_keys(entailment_audit, [out, sl2_qrb])) == len(out.carried) + len(
        sl2_qrb.carried)


def test_a_checked_matched_pair_carries_its_cross_compatibilities(thmfl, entailment_audit):
    # the stage names are passed positionally, so the entries keyed on them travel
    rmp = canonical_pair(thmfl)
    checked = ReynoldsMatchedPair(rmp.pair, rmp.Rg, rmp.Rh)
    stages = {v[0].check for key, v in checked.carried.items()
              if key[0].__name__ in ("compat_certificate", "compat_stage")}
    assert stages == {"cross-compat-rho", "cross-compat-mu", "compat-on-h", "compat-on-g"}
    assert carried_keys(entailment_audit, [checked]) == set(checked.carried)


def test_carried_certificates_on_every_registry_document(tmp_path, sl2, b_op, sl2_reynolds,
                                                        sl2_qrb, thmfl, entailment_audit,
                                                        capsys):
    # count only what the sweep builds, not what the fixtures built before it
    start = len(entailment_audit.built)
    docs, checks, builds = _every_kind(tmp_path, sl2, b_op, sl2_reynolds, sl2_qrb, thmfl)
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    for kind, (name, flags) in checks.items():
        assert main_check([kind, paths[name]] + flags) == 0, kind
    for kind, (name, flags) in builds.items():
        assert main_build([kind, paths[name]] + flags + ["-o", str(tmp_path / "o.json")]) == 0
    capsys.readouterr()
    built = entailment_audit.built[start:]
    assert len([x for x in built if x.carried]) > len(builds)
    assert len(carried_keys(entailment_audit, built)) >= 50


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_carried_certificates_on_the_build_pipeline(seed, entailment_audit, monkeypatch,
                                                   tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    for op in workloads.build_pipeline(seed, str(tmp_path)):
        assert op.check(op.run()) is None, op.name
    assert len(carried_keys(entailment_audit, entailment_audit.built)) >= 300
