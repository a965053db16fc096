"""Verify once per call: a check runs once per argument tuple inside one public call.

The memo of `certificates.verified` is keyed on argument identity, which is sound
only while no library function mutates its arguments; the first test guards that
premise for every construction.  The others pin what the memo may and may not do:
each distinct check body runs once, a gate sees what a standalone call returns,
and nothing outlives the outermost call or crosses threads.
"""

import sys
import threading
from collections import Counter

import pytest

from algcert import certificates, lie
from algcert.bialgebra import (LieBialgebra, ReynoldsLieBialgebra, canonical_pair,
                               coboundary_cobracket, double_quasitriangular, drinfeld_double,
                               is_reynolds_bialgebra)
from algcert.certificates import Certificate, CheckFailed, verified
from algcert.cybe import (RelativeRB, ReynoldsPreLie, canonical_r, prelie_from_relrb, r_plus,
                          rk_solution)
from algcert.exact import Mat, Tensor2
from algcert.lie import LieAlgebra, Representation
from algcert.matched import (MatchedPair, ReynoldsMatchedPair, double, induced_matched_pair,
                             reynolds_double)
from algcert.nslie import ns_from_reynolds
from algcert.reynolds import (ReynoldsLieAlgebra, ReynoldsRep, induced_algebra,
                              reynolds_coadjoint_rep, semidirect_reynolds)
from algcert.rotabaxter import (QuadraticRB, RotaBaxterAlg, descendent, dual_bracket_from_r,
                                r_from_qrb, thmFL_bialgebra)


def snapshot(x):
    """The content of x, down to its numbers, as a fresh nested value."""
    if isinstance(x, dict):
        extra = snapshot(vars(x)) if hasattr(x, "__dict__") else None   # a Table's dim, skew
        return type(x).__name__, sorted((repr(k), snapshot(v)) for k, v in x.items()), extra
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [snapshot(v) for v in x]
    slots = [s for cls in type(x).__mro__ for s in getattr(cls, "__slots__", ())]
    if slots:
        return type(x).__name__, [(s, snapshot(getattr(x, s))) for s in slots]
    return x


def perturbed(rb: ReynoldsLieBialgebra) -> ReynoldsLieBialgebra:
    """rb with the first structure constant of its dual doubled: the cocycle fails."""
    dual = rb.bialg.dual
    (key, comp), *rest = dual.sc.items()
    sc = {key: {k: 2 * c for k, c in comp.items()}, **dict(rest)}
    broken = LieAlgebra(dual.dim, dual.basis, sc)
    return ReynoldsLieBialgebra.unchecked(LieBialgebra.unchecked(rb.bialg.g, broken), rb.R)


@pytest.fixture
def check_calls(rebind):
    """Every call of a memoized check, as (function, args, kwargs, certificate)."""
    calls = []

    def recording(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((fn, args, kwargs, out))
            return out
        return call
    for name, mod in list(sys.modules.items()):
        for fn in list(vars(mod).values()) if name.startswith("algcert.") else ():
            if hasattr(fn, "__wrapped__") and fn.__annotations__.get("return") == "Certificate":
                rebind(fn, recording(fn))
    return calls


def constructions(sl2, b_op, sl2_reynolds, sl2_qrb, thmfl):
    """Every build kind of the CLI registry plus the paper's chain, each with the
    arguments it is called on: a passing input and, where a gate can fail, a broken one."""
    rr = reynolds_coadjoint_rep(sl2_reynolds)
    r = r_from_qrb(sl2_qrb)
    rel = RelativeRB(rr, r_plus(r))
    rp = prelie_from_relrb(rel)
    rmp = canonical_pair(thmfl)
    pair = rmp.pair
    twice = Mat.identity(3).scale(2)
    bad_rb = RotaBaxterAlg.unchecked(sl2, twice, 0)
    bad_mu = Representation(pair.h, 3, [m.scale(2) for m in pair.mu.rho], check=False)
    bad_rmp = ReynoldsMatchedPair.unchecked(pair, twice, rmp.Rh)
    bad_op = Mat([[1, 1, 0], [0, 0, 1], [1, 0, 0]])   # its induced bracket fails Jacobi
    return [
        (induced_algebra, sl2_reynolds),
        (induced_algebra, ReynoldsLieAlgebra.unchecked(sl2, bad_op)),
        (descendent, sl2_qrb.rb), (descendent, bad_rb),
        (ns_from_reynolds, sl2_reynolds),
        (semidirect_reynolds, rr),
        (semidirect_reynolds, ReynoldsRep.unchecked(rr.base, rr.rep, twice)),
        (double, pair), (double, MatchedPair.unchecked(pair.g, pair.h, pair.rho, bad_mu)),
        (reynolds_double, rmp), (reynolds_double, bad_rmp),
        (induced_matched_pair, rmp), (induced_matched_pair, bad_rmp),
        (drinfeld_double, thmfl), (drinfeld_double, perturbed(thmfl)),
        (double_quasitriangular, thmfl), (double_quasitriangular, perturbed(thmfl)),
        (coboundary_cobracket, sl2, r),
        (r_from_qrb, sl2_qrb), (r_from_qrb, QuadraticRB.unchecked(bad_rb, sl2_qrb.S)),
        (thmFL_bialgebra, sl2_qrb, b_op), (thmFL_bialgebra, sl2_qrb, twice),
        (rk_solution, rel), (rk_solution, RelativeRB.unchecked(rr, twice)),
        (canonical_r, rp), (canonical_r, ReynoldsPreLie.unchecked(rp.A, twice)),
        (dual_bracket_from_r, sl2, r),
        (dual_bracket_from_r, sl2, Tensor2(3, 3, {(0, 1): 1})),
    ]


def test_constructions_do_not_mutate_their_arguments(sl2, b_op, sl2_reynolds, sl2_qrb,
                                                     thmfl):
    failed = 0
    for fn, *args in constructions(sl2, b_op, sl2_reynolds, sl2_qrb, thmfl):
        before = snapshot(args)
        try:
            fn(*args)
        except CheckFailed:
            failed += 1
        assert snapshot(args) == before, fn.__name__
    assert failed == 13   # every broken input reaches a failing gate


def test_each_distinct_check_runs_once(thmfl, scans, check_calls):
    double_quasitriangular(thmfl)
    distinct = Counter()
    for fn, args, kwargs, _ in {(c[0], *map(id, c[1]), *c[2].items()): c
                                for c in check_calls}.values():
        distinct[fn.__name__, kwargs.get("name")] += 1
    calls = Counter((fn.__name__, kwargs.get("name")) for fn, _, kwargs, _ in check_calls)
    # each memoized check that decides one stage: its body ran once per argument tuple
    for check, stage in (("jacobi_check", "jacobi"), ("is_reynolds", "reynolds"),
                         ("is_representation", "representation"), ("cocycle_check", "cocycle"),
                         ("is_matched_pair", "compat-on-h")):
        assert scans[stage] == distinct[check, None], check
    for name in ("cross-compat-rho", "cross-compat-mu"):
        assert scans[name] == distinct["compat_certificate", name] == 1
    # ... although the chain asks again: Jacobi on the double and on its dual, Reynolds
    # on (g, R) and on the double with its operator, and the double's bialgebra axioms
    assert (calls["jacobi_check", None], distinct["jacobi_check", None]) == (6, 4)
    assert (calls["is_reynolds", None], distinct["is_reynolds", None]) == (7, 5)
    assert (calls["is_lie_bialgebra", None], distinct["is_lie_bialgebra", None]) == (3, 2)
    # every gate saw the certificate a standalone call returns
    for fn, args, kwargs, cert in list(check_calls):
        assert fn(*args, **kwargs) == cert, fn.__name__


def test_a_broken_input_fails_at_the_same_gate(thmfl):
    # the pinpoint and residual are those of the unmemoized code
    broken = perturbed(thmfl)
    for build in (drinfeld_double, double_quasitriangular):
        with pytest.raises(CheckFailed) as exc:
            build(broken)
        cert = exc.value.certificate
        assert cert == is_reynolds_bialgebra(broken.bialg, broken.R)
        assert cert.first_failure().to_json() == {
            "check": "cocycle", "ok": False, "where": [0, 2],
            "residual": [{"at": [1, 2], "c": "-4"}, {"at": [2, 1], "c": "4"}], "violations": 2}


def test_the_scope_is_dropped_on_return_and_on_check_failed(thmfl, monkeypatch):
    raw, seen = lie.scan, []

    def scan(check, cases, scale=1):
        seen.append(certificates._scope.get())
        return raw(check, cases, scale)
    monkeypatch.setattr(lie, "scan", scan)
    assert certificates._scope.get() is None
    drinfeld_double(thmfl)
    assert certificates._scope.get() is None
    # every Jacobi check inside the call ran in the one scope, which holds certificates
    scope = seen[0]
    assert all(s is scope for s in seen) and scope
    assert all(type(cert) is Certificate for cert, *_ in scope.values())
    seen.clear()
    with pytest.raises(CheckFailed):
        drinfeld_double(perturbed(thmfl))
    assert certificates._scope.get() is None
    assert seen and seen[0] is not scope


def test_a_later_call_sees_changed_content(thmfl):
    drinfeld_double(thmfl)
    # change the dual's table in place between two top-level calls on the same objects
    sc = thmfl.bialg.dual.sc
    key = next(iter(sc))
    sc[key] = {k: 2 * c for k, c in sc[key].items()}
    with pytest.raises(CheckFailed) as exc:
        drinfeld_double(thmfl)
    assert exc.value.certificate.first_failure().check == "cocycle"
    assert exc.value.certificate == is_reynolds_bialgebra(thmfl.bialg, thmfl.R)


def test_threads_get_separate_scopes():
    barrier = threading.Barrier(2, timeout=10)
    scopes = {}

    @verified
    def probe(tag):
        barrier.wait()               # both threads are inside their outermost call here
        scopes[tag] = certificates._scope.get()
        return Certificate.passed(tag)

    @verified
    def outer(tag):
        return Certificate.combine("outer", [probe(tag)])

    threads = [threading.Thread(target=outer, args=(tag,)) for tag in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert scopes["a"] is not scopes["b"]
    for tag in "ab":
        assert [cert.check for cert, *_ in scopes[tag].values()] == [tag]
    assert certificates._scope.get() is None
