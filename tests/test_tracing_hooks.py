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
    tracer = tracing.Tracer().install()
    try:
        bialgebra.drinfeld_double(thmfl)
    finally:
        tracer.uninstall()
    calls = {k: v[0] for k, v in tracer.stats.items()}
    # is_reynolds(g, R) and is_matched_pair(g, g*, ad*, ad*) are each asked twice: the
    # second call is a memo hit, which the tracer still counts as a call
    assert (calls["check.reynolds"], scans["reynolds"]) == (5, 4)
    assert (calls["check.matched_pair"], scans["compat-on-h"]) == (2, 1)
    # a hit does not run the body, so the second is_matched_pair calls no is_representation
    assert (calls["check.representation"], scans["representation"]) == (2, 2)
    assert (tracer.counts["check_calls"], tracer.counts["repeats"]) == (18, 3)
