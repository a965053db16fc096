import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, settings

from algcert import certificates
from algcert.exact import Mat, Tensor2
from algcert.lie import BilinForm, LieAlgebra
from algcert.reynolds import ReynoldsLieAlgebra
from algcert.rotabaxter import QuadraticRB, RotaBaxterAlg, thmFL_bialgebra


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

    def counted(check, cases, scale=1):
        counts[check] += 1
        return raw(check, cases, scale)
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
