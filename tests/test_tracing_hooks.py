"""The traced benchmark run wraps named algcert functions from outside the package.

Installing its tracer fails with a KeyError or AttributeError as soon as a
name it wraps is renamed or deleted, so this test guards those names.
"""

import importlib.util
import os

import algcert
from algcert import bialgebra, lie, reynolds
from algcert.exact import Mat

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(sl2):
    tracing = load_tracing()
    raw_check, raw_bracket = reynolds.is_reynolds, lie.LieAlgebra.bracket
    tracer = tracing.Tracer().install()
    try:
        assert reynolds.is_reynolds is not raw_check
        cert = reynolds.is_reynolds(sl2, Mat.identity(3).scale(2))
    finally:
        tracer.uninstall()
    assert reynolds.is_reynolds is raw_check and lie.LieAlgebra.bracket is raw_bracket
    assert not cert.ok
    # the failed certificate and the conversion of its one residual, both traced
    assert tracer.stats["certificates"][0] == 2
    assert tracer.stats["check.reynolds"][0] == 1


def test_lazy_export_is_not_left_wrapped(sl2):
    # the package resolves a name on its module at each access and never stores it,
    # so a name read while the tracer is installed is unwrapped after uninstall
    tracing = load_tracing()
    raw_check = reynolds.is_reynolds
    assert "is_reynolds" not in vars(algcert)
    tracer = tracing.Tracer().install()
    try:
        assert algcert.is_reynolds is reynolds.is_reynolds is not raw_check
    finally:
        tracer.uninstall()
    assert algcert.is_reynolds is algcert.reynolds.is_reynolds is raw_check
    assert "is_reynolds" not in vars(algcert)


def test_tracer_wraps_the_decorated_names():
    # every traced check and construction is `verified`; the tracer wraps the decorated
    # function and puts it back
    tracing = load_tracing()
    names = [(mod, fn) for mod, fn, *_ in tracing.CHECKS.values()]
    names += list(tracing.OTHER_CHECKS) + list(tracing.BUILDS.values())
    raw = {(mod, fn): getattr(mod, fn) for mod, fn in names}
    assert all(hasattr(f, "__wrapped__") for f in raw.values())
    tracer = tracing.Tracer().install()
    try:
        assert all(getattr(mod, fn) is not raw[mod, fn] for mod, fn in names)
    finally:
        tracer.uninstall()
    assert all(getattr(mod, fn) is raw[mod, fn] for mod, fn in names)


def test_a_memo_hit_is_one_traced_call(thmfl, scans):
    tracing = load_tracing()

    def traced(rb):
        scans.clear()
        tracer = tracing.Tracer().install()
        try:
            bialgebra.drinfeld_double(rb)
        finally:
            tracer.uninstall()
        return {k: v[0] for k, v in tracer.stats.items()}, tracer.counts
    # on an unchecked copy of thmfl, which carries nothing:
    calls, counts = traced(bialgebra.ReynoldsLieBialgebra.unchecked(thmfl.bialg, thmfl.R))
    # is_reynolds(g, R) and is_reynolds(g*, −Rᵀ) (the bialgebra's one −Rᵀ) are asked twice
    # each (the gate, the hypotheses of the double's Reynolds check): each later call is a memo
    # hit, which the tracer still counts as a call.  The tracer's wrapper does not expose
    # `__wrapped__`, so `entail` cannot name the check under it: a traced run records nothing
    # under a wrapped name and computes the double's checks (3 Reynolds scans)
    assert (calls["check.reynolds"], scans["reynolds"]) == (5, 3)
    assert "check.matched_pair" not in calls and "check.representation" not in calls
    assert scans["compat-on-h"] == scans["representation"] == scans["compatibility"] == 0
    # Jacobi of g, g* and the double scanned once each; the hypotheses of the double's Jacobi
    # check ask Jacobi of g and g* again (2 hits)
    assert (calls["check.jacobi"], scans["jacobi"]) == (5, 3)
    assert (counts["check_calls"], counts["repeats"]) == (13, 4)
    # on thmfl, which carries its gate `is_reynolds_bialgebra(bialg, R, Rt)` and Jacobi and
    # Reynolds of g and g*: the gate is one call and a hit, so its body, with 2 Jacobi, 2
    # Reynolds and 1 cocycle call, does not run; the 2 Jacobi and 2 Reynolds hypotheses are
    # hits; the double's Jacobi and Reynolds scan
    calls, counts = traced(thmfl)
    assert (calls["check.reynolds"], scans["reynolds"]) == (3, 1)
    assert (calls["check.jacobi"], scans["jacobi"]) == (3, 1)
    assert "check.cocycle" not in calls
    assert (counts["check_calls"], counts["repeats"]) == (7, 0)
