import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, settings

from algcert import certificates
from algcert.certificates import Certificate, Checked
from algcert.exact import Mat, Tensor2
from algcert.lie import BilinForm, LieAlgebra
from algcert.reynolds import ReynoldsLieAlgebra
from algcert.rotabaxter import QuadraticRB, RotaBaxterAlg, thmFL_bialgebra


def pytest_addoption(parser):
    parser.addoption("--audit-entailment", action="store_true",
                     help="after each test, recompute in an empty scope every certificate that "
                          "certificates.entail recorded and every one a checked structure carries")


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


@pytest.fixture(autouse=True)
def entailment_audit(request):
    """Under --audit-entailment, the claims a test's library calls left behind are recomputed
    after it: every certificate `certificates.entail` recorded and every entry of every
    checked structure's `carried`, which is what `verified` seeds an outermost scope with.
    Each is recomputed by its undecorated check in an empty scope, and the test fails unless
    the recorded and the fresh certificate agree in `ok` and stage name (an entailed one is
    a pass).  The wraps are removed before the recomputation, after the test's own patches."""
    if not request.config.getoption("--audit-entailment"):
        yield
        return
    raw_entail, raw_call = certificates.entail, certificates._Carrying.__call__
    entailed, built = [], []

    def entail(check, args, stage, given):
        if certificates._scope.get() is not None and given and all(c.ok for c in given):
            entailed.append((check, args, Certificate.passed(stage)))
        raw_entail(check, args, stage, given)

    def construct(cls, *args, **kwargs):
        built.append(raw_call(cls, *args, **kwargs))
        return built[-1]
    bound = [(mod, key) for name, mod in list(sys.modules.items()) if name.startswith("algcert.")
             for key, val in vars(mod).items() if val is raw_entail]
    for mod, key in bound:
        setattr(mod, key, entail)
    certificates._Carrying.__call__ = construct
    try:
        yield
    finally:
        for mod, key in bound:
            setattr(mod, key, raw_entail)
        certificates._Carrying.__call__ = raw_call
    claims = {}
    for check, args, cert in entailed:
        while hasattr(check, "__wrapped__"):
            check = check.__wrapped__
        claims.setdefault((check, *map(id, args)), (args, cert, "entailed"))
    for x in built:
        for key, (cert, *rest) in dict(x.carried).items():
            if key not in claims:
                held = parts(x)
                args = rest[0] if rest else tuple(held[i] for i in key[1:])
                claims[key] = (args, cert, "carried")
    for key, (args, cert, how) in claims.items():
        got = fresh(key[0], args)
        assert (got.ok, got.check) == (cert.ok, cert.check), (
            f"{how} {key[0].__name__}: recorded {cert.render()}, computed {got.render()}")


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
