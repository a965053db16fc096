"""Verify once per call: a check runs once per argument tuple inside one public call.

The memo of `certificates.verified` is keyed on argument identity, which is sound
only while no library function mutates its arguments; the first test guards that
premise for every construction.  The others pin what the memo may and may not do:
each distinct check body runs once, a gate sees what a standalone call returns,
and no scope outlives the outermost call or crosses threads; what a checked structure
carries from one call to the next is pinned in `test_carried.py`.
"""

import importlib
import inspect
import pkgutil
import sys
import threading
from collections import Counter
from functools import wraps

import pytest

import algcert
from algcert import certificates, lie, rotabaxter
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
        return type(x).__name__, sorted((repr(k), snapshot(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [snapshot(v) for v in x]
    # a `Checked` structure's content: its slots but `carried`, the certificates it keeps
    slots = [s for cls in type(x).__mro__ for s in getattr(cls, "__slots__", ()) if s != "carried"]
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
        @wraps(fn)      # `entail` finds the check it records under through `__wrapped__`
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((fn, args, kwargs, out))
            return out
        return call
    checks = {fn for name, mod in list(sys.modules.items()) if name.startswith("algcert.")
              for fn in vars(mod).values()
              if hasattr(fn, "__wrapped__") and fn.__annotations__.get("return") == "Certificate"}
    for fn in checks:
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
    bad_mu = Representation.unchecked(pair.h, 3, [m.scale(2) for m in pair.mu.rho])
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


def test_kept_integer_forms_stay_fresh(sl2, b_op, sl2_reynolds, sl2_qrb, thmfl, check_calls):
    """After every construction, passing or failing, and every check they ran, called again
    on its own, each Mat and Table read or built still keeps the integer form of its entries."""
    import dense_oracle as oracle
    seen = []
    for fn, *args in constructions(sl2, b_op, sl2_reynolds, sl2_qrb, thmfl):
        try:
            seen.append(fn(*args))
        except CheckFailed:
            pass
        seen.append(args)
    for fn, args, kwargs, cert in list(check_calls):
        assert fn(*args, **kwargs) == cert
        seen.append(args)
    assert len({fn for fn, *_ in check_calls}) > 20
    assert oracle.stale_forms(seen) == []


def test_no_memoized_check_takes_a_stage_name():
    # a memo key holds only the objects a check decides: no `verified` check takes the name of
    # the stage it reports (a composite renames the certificate), so one computation asked
    # under two names is one entry, and what a structure carries is keyed on its parts only
    call = verified(print).__code__
    checks = {fn for info in pkgutil.iter_modules(algcert.__path__)
              for fn in vars(importlib.import_module(f"algcert.{info.name}")).values()
              if getattr(fn, "__code__", None) is call
              and fn.__annotations__.get("return") == "Certificate"}
    assert len(checks) > 30
    for fn in checks:
        for p in inspect.signature(fn.__wrapped__).parameters.values():
            assert p.annotation != "str" and type(p.default) is not str, (fn.__name__, p.name)


def test_each_distinct_check_runs_once(thmfl, scans, check_calls):
    # on an unchecked copy of thmfl, which carries nothing, and on thmfl, which carries what
    # its constructor certified: Jacobi of g and g*, Reynolds of (g, R) and of (g*, −Rᵀ) (its
    # one −Rᵀ object), the bialgebra axioms of (g, g*), its cocycle stage among them, and its
    # own Reynolds bialgebra check
    copy = ReynoldsLieBialgebra.unchecked(thmfl.bialg, thmfl.R)
    on_thmfl = {"jacobi_check": 2, "is_reynolds": 2, "bialgebra_cocycle": 1}
    for rb, carried, pins in ((copy, {}, ((11, 4), (9, 4), (3, 2))),
                              (thmfl, on_thmfl, ((9, 4), (7, 4), (2, 1)))):
        scans.clear()
        check_calls.clear()
        double_quasitriangular(rb)
        distinct = Counter(fn.__name__ for fn, _, _, _ in {
            (c[0], *map(id, c[1]), *c[2].items()): c for c in check_calls}.values())
        calls = Counter(fn.__name__ for fn, _, _, _ in check_calls)
        # each memoized check that decides one stage: its body ran once per argument tuple,
        # or not at all where a gate entails it: Jacobi and Reynolds of the double and of
        # its dual and the double's cocycle; or where rb carries it.  No canonical pair is
        # built, so no representation or compatibility of one is asked
        entailed = {"jacobi_check": 2, "is_reynolds": 2, "bialgebra_cocycle": 1}
        for key, stage in (("jacobi_check", "jacobi"), ("is_reynolds", "reynolds"),
                           ("is_representation", "representation"),
                           ("bialgebra_cocycle", "cocycle"), ("cocycle_check", "cocycle"),
                           ("compat_stage", "compat-on-h"),
                           ("compat_certificate", "compatibility")):
            assert (scans[stage] + entailed.get(key, 0) + carried.get(key, 0)
                    == distinct[key]), key
        assert scans["compat-on-h"] == scans["compatibility"] == 0
        # ... although the chain asks again: Jacobi on the double and on its dual, Reynolds
        # on (g, R), on (g*, −Rᵀ) (the bialgebra's one −Rᵀ object) and on the double with
        # its operator, and the double's bialgebra axioms; the entailments ask their
        # hypotheses again (memo hits): Jacobi of g and g* for the double and for its dual,
        # Jacobi of the double for its cocycle, Reynolds of (g, R) and (g*, −Rᵀ) for the double
        # and for its dual.  Recording a certificate calls nothing.  On
        # thmfl the gate `is_reynolds_bialgebra(bialg, R, Rt)` is a hit on a carried entry, so
        # its body does not run: 2 fewer Jacobi calls (g, g*), 2 fewer Reynolds calls ((g, R),
        # (g*, −Rᵀ)) and no `is_lie_bialgebra(g, g*)`
        assert (calls["jacobi_check"], distinct["jacobi_check"]) == pins[0]
        assert (calls["is_reynolds"], distinct["is_reynolds"]) == pins[1]
        assert (calls["is_lie_bialgebra"], distinct["is_lie_bialgebra"]) == pins[2]
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

    def scan(*args, **kwargs):
        seen.append(certificates._scope.get())
        return raw(*args, **kwargs)
    monkeypatch.setattr(lie, "scan", scan)
    assert certificates._scope.get() is None
    # thmfl carries the Jacobi certificates of g and g*, and the double's is entailed: the
    # call scans no Jacobi identity.  An unchecked copy carries nothing, so g's and g*'s are
    # computed
    drinfeld_double(thmfl)
    assert certificates._scope.get() is None and seen == []
    drinfeld_double(ReynoldsLieBialgebra.unchecked(thmfl.bialg, thmfl.R))
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
    # the content of a structure cannot change between two top-level calls: a `Table` is
    # read-only and a `Checked` structure is frozen, so rebinding the dual's table to one
    # with one key doubled raises
    broken = perturbed(thmfl)
    dual = thmfl.bialg.dual
    with pytest.raises(AttributeError):
        dual.sc = broken.bialg.dual.sc
    assert dual.sc != broken.bialg.dual.sc
    # a bialgebra rebuilt with the doubled key is verified afresh by the next call, although
    # its g and its dual carry their Jacobi certificates
    with pytest.raises(CheckFailed) as exc:
        drinfeld_double(broken)
    assert exc.value.certificate.first_failure().check == "cocycle"
    assert exc.value.certificate == is_reynolds_bialgebra(broken.bialg, broken.R)
    drinfeld_double(thmfl)


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


def test_thmfl_builds_the_dual_once(sl2_qrb, b_op, rebind, scans):
    """thmFL_bialgebra builds the dual bracket of r once, with r, and so checks it once."""
    calls = []
    raw = rotabaxter.dual_bracket_from_r

    def counted(*args):
        calls.append(args)
        return raw(*args)
    rebind(raw, counted)
    rb = thmFL_bialgebra(sl2_qrb, b_op)
    assert len(calls) == 1
    assert scans["ad-invariance"] == 1
    # the output is what the two public steps build
    assert rb.bialg.dual == raw(sl2_qrb.rb.L, r_from_qrb(sl2_qrb))
