import inspect
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, settings

from algcert import certificates
from algcert.certificates import Certificate, Checked
from algcert.exact import Mat, Table, Tensor2, Tensor3
from algcert.lie import BilinForm, LieAlgebra
from algcert.reynolds import ReynoldsLieAlgebra
from algcert.rotabaxter import QuadraticRB, RotaBaxterAlg, thmFL_bialgebra


# what a carried entry may be keyed on: read-only or frozen values
FROZEN = (Checked, BilinForm, tuple, Mat, Table, Tensor2, Tensor3, int, Fraction, str)


def parts(x, seen=None) -> dict:
    """id -> object for x and every value in its slots, down through `Checked` values and
    tuples: what a carried entry of x may be keyed on."""
    seen = {} if seen is None else seen
    seen[id(x)] = x
    values = x if type(x) is tuple else (
        [getattr(x, s) for s in type(x).__slots__] if isinstance(x, Checked) else ())
    for y in values:
        if id(y) not in seen:
            parts(y, seen)
    return seen


def fresh(fn, args) -> Certificate:
    """fn(*args) for the undecorated check fn, computed in an empty scope: no entry of any
    structure is seeded, so every check it asks is computed."""
    token = certificates._scope.set({})
    try:
        return fn(*args)
    finally:
        certificates._scope.reset(token)


def audit(entailed, built) -> None:
    """Assert that the claims library calls left behind are true.  `entailed` holds
    ``(check, args, certificate)`` for each certificate `certificates.entail` recorded, and
    `built` the structures constructed.  No carried entry is keyed on a list, and each is keyed
    only on its carrier and the carrier's read-only or frozen parts, or on a stage name the
    entry holds.  Every claimed certificate, entailed or carried, equals the one its
    undecorated check computes on the same arguments in an empty scope, so all claims on one
    key agree."""
    claims = {}      # key -> (args, [(how it was claimed, certificate), ...])
    for check, args, cert in entailed:
        key = (inspect.unwrap(check), *map(id, args))
        claims.setdefault(key, (args, []))[1].append(("entailed", cert))
    for x in built:
        held = parts(x) if x.carried else {}
        for key, (cert, *rest) in dict(x.carried).items():
            fn, ids = key[0], key[1:]
            stored, kwargs = rest or ((), {})     # an entry keyed on x stores no arguments
            assert not any(type(a) is list for a in (*stored, *kwargs.values())), (
                f"carried {fn.__name__} is keyed on a list")
            names = {id(a): a for a in stored if type(a) is str}
            assert all(type(i) is int and (i in held or i in names) for i in ids), (
                f"carried {fn.__name__} is keyed on what {type(x).__name__} does not hold")
            args = tuple(held[i] if i in held else names[i] for i in ids)
            assert all(isinstance(a, FROZEN) for a in args), (
                f"carried {fn.__name__} is keyed on a value that can change")
            claims.setdefault(key, (args, []))[1].append(("carried", cert))
    for key, (args, recorded) in claims.items():
        got = fresh(key[0], args)
        for how, cert in recorded:
            assert cert == got, (
                f"{how} {key[0].__name__}: recorded {cert!r}, computed {got!r}")


@pytest.fixture(autouse=True)
def entailment_audit():
    """Every test is audited: the certificates `certificates.entail` records while it runs
    and the structures it builds, checked or not, are recorded, and `audit` checks them after
    it, once its own patches are undone.  A test that reads what was recorded asks for this
    fixture; it yields the record, with fields `entailed` and `built`."""
    record = SimpleNamespace(entailed=[], built=[])
    raw_entail, raw_build = certificates.entail, certificates._Carrying._build

    def entail(check, args, stage, given):
        if certificates._scope.get() is not None and given and all(c.ok for c in given):
            record.entailed.append((check, args, Certificate.passed(stage)))
        raw_entail(check, args, stage, given)

    def build(cls, init, args, kwargs):
        record.built.append(raw_build(cls, init, args, kwargs))
        return record.built[-1]
    bound = [(mod, key) for name, mod in list(sys.modules.items()) if name.startswith("algcert.")
             for key, val in vars(mod).items() if val is raw_entail]
    for mod, key in bound:
        setattr(mod, key, entail)
    certificates._Carrying._build = build
    try:
        yield record
    finally:
        for mod, key in bound:
            setattr(mod, key, raw_entail)
        certificates._Carrying._build = raw_build
    audit(record.entailed, record.built)


@pytest.fixture
def sl2():
    return LieAlgebra(3, ("H", "X", "Y"),
                      {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


@pytest.fixture
def b_op():
    return Mat([[0, 0, -1], [2, 0, 0], [0, 0, 0]])


@pytest.fixture
def s_form():
    return BilinForm(Mat([[2, 0, 0], [0, 0, 1], [0, 1, 0]]))


@pytest.fixture
def r_tensor():
    return Tensor2(3, 3, {(0, 1): 1, (1, 0): -1})


@pytest.fixture
def sl2_reynolds(sl2, b_op):
    return ReynoldsLieAlgebra(sl2, b_op)


@pytest.fixture
def sl2_qrb(sl2, b_op, s_form):
    return QuadraticRB(RotaBaxterAlg(sl2, b_op, 0), s_form)


@pytest.fixture
def thmfl(sl2_qrb, b_op):
    return thmFL_bialgebra(sl2_qrb, b_op)


@pytest.fixture
def broken_jacobi():
    # [e0,e1]=e2, [e0,e2]=e1, [e1,e2]=e1 violates Jacobi at (0,1,2)
    return LieAlgebra.unchecked(3, None, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}})


@pytest.fixture
def non_lie():
    # [e0,e1] = e2, [e1,e2] = e2, [e0,e2] = e0: J(e0,e1,e2) = −e0 − e2; the zero action is a
    # representation of it, so it breaks only the Jacobi hypothesis of a semidirect product
    return LieAlgebra.unchecked(3, None, {(0, 1): {2: 1}, (1, 2): {2: 1}, (0, 2): {0: 1}})


@pytest.fixture
def rebind(monkeypatch):
    """rebind(raw, wrapper) replaces a function in every algcert module bound to it."""
    def rebind(raw, wrapper):
        for name, mod in list(sys.modules.items()):
            for key, val in list(vars(mod).items()) if name.startswith("algcert.") else ():
                if val is raw:
                    monkeypatch.setattr(mod, key, wrapper)
    return rebind


@pytest.fixture
def scans(rebind):
    """Stage name -> number of `scan` calls: one per evaluation of an exhaustive stage."""
    counts = Counter()
    raw = certificates.scan

    def counted(check, *args, **kwargs):
        counts[check] += 1
        return raw(check, *args, **kwargs)
    rebind(raw, counted)
    return counts


def frac(p, q=1):
    return Fraction(p, q)


# Property tests run a fixed, bounded set of examples: tier-1 stays reproducible
# and its run time does not depend on the machine or on earlier runs.  Failing
# examples are reported as found, not shrunk: each shrink step re-runs the dense
# reference bodies on large rationals, which took minutes per failing test.
settings.register_profile("algcert", derandomize=True, deadline=None, max_examples=20,
                          database=None, suppress_health_check=[HealthCheck.too_slow],
                          phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("algcert")
