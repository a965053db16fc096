"""The traced benchmark run wraps named algcert functions from outside the package.

Installing its tracer fails with a KeyError or AttributeError as soon as a
name it wraps is renamed or deleted, so this test guards those names.
"""

import importlib.util
import os

import algcert
from algcert import lie, reynolds
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
