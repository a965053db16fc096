import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import algcert
from algcert import fileio as fio
from algcert.catalog import catalog, names
from algcert.cli import main_block, main_build, main_cat, main_check
from algcert.exact import Mat, Tensor2
from algcert.nslie import ns_from_reynolds, regular_rep
from algcert.reynolds import reynolds_coadjoint_rep
from algcert.cybe import RelativeRB, prelie_from_relrb, r_plus
from algcert.rotabaxter import r_from_qrb


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------

def test_catalog_sl2_family():
    assert catalog("sl2").ok
    assert catalog("sl2.B").ok
    assert catalog("sl2.S").ok
    assert catalog("sl2.r").ok
    entry = catalog("sl2.km_dual")
    assert entry.ok  # paper-asserted verdict recorded as a pass
    dual = entry.payload
    assert dual.bracket_basis(0, 1) == (Fraction(0), Fraction(1, 4), Fraction(0))
    assert dual.bracket_basis(0, 2) == (Fraction(0), Fraction(0), Fraction(1, 4))
    assert dual.bracket_basis(1, 2) == (Fraction(0), Fraction(0), Fraction(0))


def test_catalog_r_has_two_unit_entries():
    r = catalog("sl2.r").payload
    assert sorted(r.entries.values()) == [Fraction(-1), Fraction(1)]


def test_catalog_parametric():
    assert catalog("abelian(3)").payload.sc == {}
    assert catalog("block(1/2,1,3)").ok
    assert catalog("block(2,1,2)").ok
    assert catalog("trivial_matched(sl2,abelian(2))").ok


def test_catalog_unknown_name(capsys):
    # a fixed name matches only itself; an unknown or malformed name is an input error
    for name in ("nope", "sl2xB", "nosuch(1)", "block(1/0,1,2)", "block(1/2,3,1)",
                 "trivial_matched(sl2.B,sl2)"):
        with pytest.raises(fio.InputError):
            catalog(name)
        assert main_cat([name]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: "), name


@pytest.mark.parametrize("name, message", [
    ("trivial_matched(sl2.B,sl2)", "trivial_matched needs two algebra entries"),
    ("trivial_matched(sl2,block(1/0,1,2))", "trivial_matched needs two algebra entries"),
    ("trivial_matched(sl2,block(1/2,3,1))", "trivial_matched needs two algebra entries"),
    ("trivial_matched(sl2.B,nosuch)", "unknown catalog entry: 'nosuch'"),
])
def test_trivial_matched_looks_both_entries_up_before_it_builds_either(name, message, scans,
                                                                      capsys):
    # both sub-entries are looked up, g then h, and a non-algebra kind is rejected before
    # either is built, so no check runs
    assert main_cat([name]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert sum(scans.values()) == 0


@pytest.mark.parametrize("name", ["trivial_matched(sl2,sl2)", "trivial_matched(sl2, sl2)"])
def test_trivial_matched_builds_an_entry_named_twice_once(name, scans, capsys):
    # g and h are one algebra, built and checked once, so its Jacobi identity is scanned once
    assert main_cat([name]) == 0
    assert capsys.readouterr().out.endswith("verdict: pass\n")
    assert scans["jacobi"] == 1


def test_catalog_names_listing():
    assert names() == ("sl2", "sl2.B", "sl2.S", "sl2.r", "sl2.km_dual",
                       "abelian(n)", "block(q,lo,hi)", "trivial_matched(a,b)")


# one instance of each catalog family; a fixed name is its own instance
_FAMILY_INSTANCES = {"abelian(n)": "abelian(2)", "block(q,lo,hi)": "block(1/2,1,3)",
                     "trivial_matched(a,b)": "trivial_matched(sl2,abelian(2))"}
# entry kind -> its document's loader; a block entry's document is its parameters
_RELOAD = {"algebra": fio.doc_to_algebra, "operator": fio.doc_to_operator,
           "form": fio.doc_to_form, "tensor": fio.doc_to_tensor,
           "matched": fio.doc_to_matched, "block": lambda doc: {**doc, "q": Fraction(doc["q"])}}


@pytest.mark.parametrize("listed", names())
def test_catalog_every_name_writes_a_document_that_reloads(listed, tmp_path, capsys):
    name = _FAMILY_INSTANCES.get(listed, listed)
    path = str(tmp_path / "entry.json")
    assert main_cat([name, "-o", path]) == 0
    assert capsys.readouterr().out.endswith("verdict: pass\n")
    doc = fio.read_doc(path)
    assert doc.pop("provenance") == {"construction": "catalog", "sources": [name]}
    entry = catalog(name)
    assert _RELOAD[entry.kind](doc) == entry.payload


# --------------------------------------------------------------------------
# document round trips
# --------------------------------------------------------------------------

def roundtrip(doc):
    return json.loads(json.dumps(doc))


def test_algebra_roundtrip(sl2):
    doc = roundtrip(fio.algebra_to_doc(sl2))
    back = fio.doc_to_algebra(doc)
    assert back == sl2


def test_reynolds_algebra_roundtrip(sl2_reynolds):
    doc = roundtrip(fio.reynolds_algebra_to_doc(sl2_reynolds))
    back = fio.doc_to_reynolds_algebra(doc)
    assert back.L == sl2_reynolds.L and back.R == sl2_reynolds.R


def test_tensor_and_form_roundtrip(r_tensor, s_form):
    assert fio.doc_to_tensor(roundtrip(fio.tensor_to_doc(r_tensor))) == r_tensor
    assert fio.doc_to_form(roundtrip(fio.form_to_doc(s_form))) == s_form


def test_ns_roundtrip(sl2_reynolds):
    ns = ns_from_reynolds(sl2_reynolds)
    back = fio.doc_to_ns(roundtrip(fio.ns_to_doc(ns)))
    assert back == ns


def test_ns_rep_roundtrip(sl2_reynolds):
    rep = regular_rep(ns_from_reynolds(sl2_reynolds))
    doc = roundtrip(fio.ns_rep_to_doc(rep))
    back = fio.doc_to_ns_rep(doc)
    assert back.base == rep.base
    assert tuple(back.varrho) == tuple(rep.varrho)
    assert tuple(back.mu) == tuple(rep.mu)
    assert tuple(back.nu) == tuple(rep.nu)


def test_reynolds_rep_and_relrb_roundtrip(sl2_reynolds, sl2_qrb):
    rr = reynolds_coadjoint_rep(sl2_reynolds)
    back = fio.doc_to_reynolds_rep(roundtrip(fio.reynolds_rep_to_doc(rr)))
    assert back.base.L == rr.base.L and back.T == rr.T
    assert tuple(back.rep.rho) == tuple(rr.rep.rho)
    rel = RelativeRB(rr, r_plus(r_from_qrb(sl2_qrb)))
    back = fio.doc_to_relative_rb(roundtrip(fio.relative_rb_to_doc(rel)))
    assert back.K == rel.K


def test_matched_roundtrip(thmfl):
    from algcert.bialgebra import canonical_pair

    rmp = canonical_pair(thmfl)
    back = fio.doc_to_matched(roundtrip(fio.matched_to_doc(rmp)))
    assert back == rmp


def test_bialgebra_qrb_prelie_roundtrips(thmfl, sl2_qrb, sl2_reynolds, b_op):
    doc = roundtrip(fio.bialgebra_to_doc(thmfl.bialg, thmfl.R))
    bialg, R = fio.doc_to_bialgebra(doc)
    assert bialg == thmfl.bialg and R == thmfl.R

    doc = roundtrip(fio.qrb_to_doc(sl2_qrb, b_op))
    qrb, R = fio.doc_to_qrb(doc)
    assert qrb.rb.B == sl2_qrb.rb.B and qrb.rb.lam == 0 and qrb.S == sl2_qrb.S
    assert R == b_op

    rel = RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), r_plus(r_from_qrb(sl2_qrb)))
    rp = prelie_from_relrb(rel)
    doc = roundtrip(fio.prelie_to_doc(rp.A, rp.R))
    A, R = fio.doc_to_prelie(doc)
    assert A == rp.A and R == rp.R


def test_malformed_documents_raise_input_error():
    with pytest.raises(fio.InputError):
        fio.doc_to_algebra({"dim": 2})
    with pytest.raises(fio.InputError):
        fio.doc_to_algebra({"dim": 2, "brackets": [{"i": 0, "j": 1, "out": {"0": "1/0"}}]})
    with pytest.raises(fio.InputError):
        fio.doc_to_operator({})
    with pytest.raises(fio.InputError):
        fio.read_doc("/nonexistent/path.json")
    # bracket cells: non-object `out`, duplicate (i, j), bool or fractional indices
    for cell in ({"i": 0, "j": 1, "out": ["1"]},
                 {"i": 0, "j": 1.9, "out": {"0": "1"}},
                 {"i": True, "j": 2, "out": {"0": "1"}},
                 {"i": 0, "j": 1, "out": {"0.5": "1"}},
                 {"i": 0, "j": 1, "out": {" 1": "1"}},
                 ["i", "j"]):
        with pytest.raises(fio.InputError):
            fio.doc_to_algebra({"dim": 3, "brackets": [cell]})
    with pytest.raises(fio.InputError):
        fio.doc_to_algebra({"dim": 3, "brackets": [{"i": 0, "j": 1, "out": {"0": "1"}},
                                                   {"i": 0, "j": 1, "out": {"2": "1"}}]})
    # tensor entries: the same defects
    for entries in ([{"i": 0, "j": 1, "c": "1"}, {"i": 0, "j": 1, "c": "-1"}],
                    [{"i": 1.9, "j": 0, "c": "1"}],
                    [{"i": 0, "j": False, "c": "1"}]):
        with pytest.raises(fio.InputError):
            fio.doc_to_tensor({"dim_left": 2, "dim_right": 2, "entries": entries})
    # dimensions are JSON integers ≥ 0; labels a list of dim strings; tables lists;
    # a bool is not a rational
    for doc in ({"dim": "3", "brackets": []}, {"dim": 3.0, "brackets": []},
                {"dim": 2.5, "brackets": []}, {"dim": -1, "brackets": []},
                {"dim": True, "brackets": []}, {"dim": 3, "basis": 5, "brackets": []},
                {"dim": 3, "basis": "abc", "brackets": []},
                {"dim": 3, "basis": ["a", "b", 3], "brackets": []},
                {"dim": 3, "brackets": {}},
                {"dim": 3, "brackets": [{"i": 0, "j": 1, "out": {"2": True}}]}):
        with pytest.raises(fio.InputError):
            fio.doc_to_algebra(doc)
    for doc in ({"dim_left": 2.5, "dim_right": 2, "entries": []},
                {"dim_left": 2, "dim_right": "2", "entries": []},
                {"dim_left": 2, "dim_right": 2, "entries": {}},
                {"dim_left": 2, "dim_right": 2, "entries": [{"i": 0, "j": 1, "c": True}]}):
        with pytest.raises(fio.InputError):
            fio.doc_to_tensor(doc)
    for doc in ({"dim": 2, "prod": {}}, {"dim": 2.0, "prod": []}):
        with pytest.raises(fio.InputError):
            fio.doc_to_prelie(doc)
    with pytest.raises(fio.InputError):
        fio.doc_to_operator({"matrix": [[True, 0], [0, 1]]})


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def write(tmp_path, name, doc):
    path = tmp_path / name
    fio.write_doc(str(path), doc)
    return str(path)


def sl2_file(tmp_path, sl2):
    return write(tmp_path, "sl2.json", fio.algebra_to_doc(sl2))


def test_cli_check_reynolds(tmp_path, sl2, b_op, capsys):
    alg = sl2_file(tmp_path, sl2)
    op = write(tmp_path, "B.json", fio.operator_to_doc(b_op))
    code = main_check(["reynolds", alg, "--op", op])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] reynolds" in out and "verdict: pass" in out


def test_cli_check_jacobi_failure(tmp_path, broken_jacobi, capsys):
    bad = write(tmp_path, "bad.json", fio.algebra_to_doc(broken_jacobi))
    code = main_check(["jacobi", bad])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] jacobi at (0, 1, 2)" in out
    assert "verdict: fail" in out


def test_cli_exit_2_on_bad_input(tmp_path, sl2, r_tensor, capsys):
    assert main_check(["jacobi", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert main_check(["jacobi", str(bad)]) == 2
    for cell in ({"i": 0, "j": 1, "out": ["1"]}, {"i": 0, "j": 1.9, "out": {"0": "1"}},
                 {"i": True, "j": 2, "out": {"0": "1"}}):
        doc = write(tmp_path, "cell.json", {"dim": 3, "brackets": [cell]})
        assert main_check(["jacobi", doc]) == 2
    dup = write(tmp_path, "dup.json", {"dim": 3, "brackets": [
        {"i": 0, "j": 1, "out": {"2": "1"}}, {"i": 0, "j": 1, "out": {"2": "1"}}]})
    assert main_check(["jacobi", dup]) == 2
    alg = write(tmp_path, "alg.json", {"dim": 2, "brackets": []})
    r = write(tmp_path, "r.json", {"dim_left": 2, "dim_right": 2, "entries": [
        {"i": 0, "j": 1, "c": "1"}, {"i": 0, "j": 1, "c": "1"}]})
    assert main_check(["cybe", alg, "--tensor", r]) == 2
    for doc in ({"dim": 3, "basis": 5, "brackets": []},
                {"dim": 3, "brackets": [{"i": 0, "j": 1, "out": {"2": True}}]},
                {"dim": "3", "brackets": []}, {"dim": 3.0, "brackets": []},
                {"dim": 3, "brackets": {}}):
        assert main_check(["jacobi", write(tmp_path, "mut.json", doc)]) == 2, doc
    capsys.readouterr()
    # unreadable input, unwritable output, Manin part indices outside [0, dim) and cobracket
    # tensors or an operator of the wrong size: a message on stderr, nothing on stdout
    sl2_doc = sl2_file(tmp_path, sl2)
    r_file = write(tmp_path, "r.json", fio.tensor_to_doc(r_tensor))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"dim": 1, "basis": ["\xe9"], "brackets": []}')
    nowhere = tmp_path / "no-such-dir"
    manin = {**fio.algebra_to_doc(sl2), "reynolds": fio.operator_to_doc(Mat.zeros(3, 3)),
             "gram": fio.matrix_to_json(Mat.identity(3)), "part_h": [1, 2]}
    manin_big = write(tmp_path, "manin-big.json", {**manin, "part_g": [0, 3]})
    manin_neg = write(tmp_path, "manin-neg.json", {**manin, "part_g": [0, -1]})
    skew01 = [{"i": 0, "j": 1, "c": "1"}, {"i": 1, "j": 0, "c": "-1"}]
    co_big = write(tmp_path, "co-big.json", {"dim": 2, "deltas": [
        {"dim_left": 3, "dim_right": 3, "entries": skew01}, {"entries": []}]})
    co2 = write(tmp_path, "co2.json", {"dim": 2, "deltas": [{"entries": skew01}, {"entries": []}]})
    ones3 = write(tmp_path, "ones3.json", {"matrix": [["1"] * 3] * 3})
    for run, argv in (
            (main_check, ["manin", manin_big]),
            (main_check, ["manin", manin_neg]),
            (main_check, ["coalgebra", co_big]),
            (main_check, ["coalgebra", co2, "--op", ones3]),
            (main_check, ["jacobi", str(tmp_path)]),
            (main_check, ["jacobi", str(latin1)]),
            (main_check, ["reynolds", sl2_doc, "--op", str(tmp_path)]),
            (main_check, ["cybe", sl2_doc, "--tensor", str(tmp_path)]),
            (main_cat, ["sl2", "-o", str(nowhere / "x.json")]),
            (main_build, ["dual-from-r", sl2_doc, "--tensor", r_file,
                          "-o", str(nowhere / "o.json")])):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: "), argv
    main_check(["jacobi", str(latin1)])
    assert f"{latin1}: not UTF-8 text" in capsys.readouterr().err
    # `ReynoldsLieAlgebra` refuses an operator of the wrong shape, and the loader contract
    # turns its message into the input error
    op2 = write(tmp_path, "op2.json", fio.operator_to_doc(Mat.identity(2)))
    assert main_check(["reynolds", sl2_doc, "--op", op2]) == 2
    assert capsys.readouterr() == ("", "input error: operator shape does not match the algebra\n")


def test_cli_takes_one_input_document(tmp_path, sl2, capsys):
    # a second file was echoed on the command line but never read
    alg = sl2_file(tmp_path, sl2)
    for run, argv in ((main_check, ["jacobi", alg, alg]),
                      (main_build, ["descendent", alg, alg, "-o", str(tmp_path / "o.json")])):
        assert run(argv) == 2, argv
        assert capsys.readouterr().out == "", argv


def test_cli_op_and_reynolds_are_exclusive(tmp_path, sl2, b_op, capsys):
    # with both given, only --op was read
    alg = sl2_file(tmp_path, sl2)
    op = write(tmp_path, "B.json", fio.operator_to_doc(b_op))
    for run, argv in ((main_check, ["reynolds", alg, "--op", op, "--reynolds", op]),
                      (main_build, ["induced", alg, "--op", op, "--reynolds", op,
                                    "-o", str(tmp_path / "o.json")])):
        assert run(argv) == 2, argv
        assert capsys.readouterr().out == "", argv


def _loaded_after(imports: str, run: str = "None", code: int = 0) -> set[str]:
    """The modules a fresh interpreter holds after `import <imports>` and then `<run>`,
    which must give None or `code`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(algcert.__file__)))
    script = (f"import sys; sys.path.insert(0, {src!r}); import {imports}; "
              f"assert {run} in ({code}, None); print(' '.join(sorted(sys.modules)))")
    return set(subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                              text=True, check=True).stdout.splitlines()[-1].split())


def test_cli_import_footprint(tmp_path, sl2, r_tensor):
    # a CLI process imports a kind's module when the kind first uses it, not at start-up
    loaded = _loaded_after("algcert.cli")
    assert "algcert.cli" in loaded
    for name in ("dataclasses", "traceback", "algcert.bialgebra", "algcert.rotabaxter",
                 "algcert.cybe", "algcert.matched", "algcert.nslie"):
        assert name not in loaded, name
    # a cybe check loads its module, but not the NS-Lie one that the pre-Lie checks use
    argv = ["cybe", sl2_file(tmp_path, sl2), "--tensor",
            write(tmp_path, "r.json", fio.tensor_to_doc(r_tensor))]
    loaded = _loaded_after("algcert.cli", f"algcert.cli.main_check({argv!r})")
    assert "algcert.cybe" in loaded and "algcert.nslie" not in loaded
    # a document that fails to load is an input error before the check's module is needed
    argv[1] = write(tmp_path, "bad.json", {"dim": 2})
    loaded = _loaded_after("algcert.cli", f"algcert.cli.main_check({argv!r})", code=2)
    assert "algcert.cybe" not in loaded and "algcert.matched" not in loaded


def test_rotabaxter_import_footprint():
    # the r-matrix steps import bialgebra and cybe (and with them matched) when they run
    loaded = _loaded_after("algcert.cli, algcert.rotabaxter")
    assert "algcert.rotabaxter" in loaded
    for name in ("algcert.bialgebra", "algcert.cybe", "algcert.matched"):
        assert name not in loaded, name


def test_package_exports_resolve(capsys):
    import algcert.catalog  # noqa: F401  (the submodule import must leave the function bound)

    assert all(getattr(algcert, name) is not None for name in algcert.__all__)
    assert callable(algcert.catalog)
    assert main_cat(["sl2"]) == 0
    capsys.readouterr()
    assert callable(algcert.catalog) and algcert.catalog("sl2").ok


def test_cli_internal_error_exits_3(tmp_path, sl2, monkeypatch, capsys):
    import algcert.cli as cli

    def boom(*args):
        raise TypeError("boom")
    monkeypatch.setattr(cli, "_run_check", boom)
    monkeypatch.setattr(cli, "_run_build", boom)
    alg = sl2_file(tmp_path, sl2)
    assert main_check(["jacobi", alg]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "internal error: TypeError: boom" in captured.err
    assert main_build(["induced", alg, "-o", str(tmp_path / "o.json")]) == 3
    assert "internal error" in capsys.readouterr().err


def test_cli_thmfl_pipeline(tmp_path, sl2_qrb, b_op, capsys):
    qrb = write(tmp_path, "qrb.json", fio.qrb_to_doc(sl2_qrb))
    op = write(tmp_path, "B.json", fio.operator_to_doc(b_op))
    out_file = str(tmp_path / "bialg.json")
    assert main_build(["thmfl", qrb, "--reynolds", op, "-o", out_file]) == 0
    capsys.readouterr()
    assert main_check(["reynolds-bialgebra", out_file]) == 0
    report = capsys.readouterr().out
    assert "verdict: pass" in report
    doc = fio.read_doc(out_file)
    assert doc["provenance"]["construction"] == "thmfl"


def test_cli_build_r_from_qrb_matches_catalog(tmp_path, sl2_qrb, capsys):
    qrb = write(tmp_path, "qrb.json", fio.qrb_to_doc(sl2_qrb))
    out_file = str(tmp_path / "r.json")
    assert main_build(["r-from-qrb", qrb, "-o", out_file]) == 0
    capsys.readouterr()
    built = fio.doc_to_tensor(fio.read_doc(out_file))
    assert built == catalog("sl2.r").payload


def test_cli_build_outputs_reload_and_reverify(tmp_path, sl2_qrb, sl2_reynolds, b_op, capsys):
    qrb = write(tmp_path, "qrb.json", fio.qrb_to_doc(sl2_qrb, b_op))
    ra = write(tmp_path, "ra.json",
               fio.reynolds_algebra_to_doc(sl2_reynolds))
    plans = [
        (["induced", ra], "reynolds"),
        (["descendent", qrb], "jacobi"),
        (["ns-from-reynolds", ra], "nslie"),
        (["r-from-qrb", qrb], None),
        (["thmfl", qrb], "reynolds-bialgebra"),
    ]
    for argv, recheck in plans:
        out_file = str(tmp_path / (argv[0] + ".out.json"))
        assert main_build(argv + ["-o", out_file]) == 0, argv
        capsys.readouterr()
        if recheck:
            assert main_check([recheck, out_file]) == 0, (argv, recheck)
            capsys.readouterr()


def test_cli_rk_build(tmp_path, sl2_reynolds, sl2_qrb, capsys):
    # `rk` and `canonical-r` build g⋉W* as `semidirect_reynolds` of the dual Reynolds
    # representation: the report is pinned, the ambient written is g⋉W* with R⊕(−Tᵀ) built
    # by hand, and r solves the CYBE in it
    from algcert.cybe import is_cybe_solution_reynolds, left_rep
    from algcert.lie import dual_rep, semidirect
    from algcert.reynolds import ReynoldsLieAlgebra

    rel = RelativeRB(reynolds_coadjoint_rep(sl2_reynolds), r_plus(r_from_qrb(sl2_qrb)))
    rp = prelie_from_relrb(rel)
    for kind, doc, rr in (("rk", fio.relative_rb_to_doc(rel), rel.rr),
                          ("canonical-r", fio.prelie_to_doc(rp.A, rp.R), left_rep(rp))):
        out_file = str(tmp_path / f"{kind}.out.json")
        assert main_build([kind, write(tmp_path, f"{kind}.json", doc), "-o", out_file]) == 0
        report = capsys.readouterr().out.splitlines()[1:]
        assert report == ["[PASS] reynolds-cybe", "  [PASS] cybe",
                          "  [PASS] reynolds-tensor-condition", "verdict: pass"], kind
        out = fio.read_doc(out_file)
        by_hand = ReynoldsLieAlgebra(semidirect(rr.base.L, dual_rep(rr.rep)),
                                     Mat.block_diag(rr.base.R, -rr.T.transpose()))
        assert out["g"] == fio.reynolds_algebra_to_doc(by_hand), kind
        amb, r = fio.doc_to_reynolds_algebra(out["g"]), fio.doc_to_tensor(out["r"])
        assert is_cybe_solution_reynolds(amb, r).ok, kind


def test_cli_json_report_agrees_with_human(tmp_path, sl2, capsys):
    alg = sl2_file(tmp_path, sl2)
    assert main_check(["jacobi", alg, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert payload["checks"][0]["check"] == "jacobi"
    assert payload["checks"][0]["ok"] is True


def test_cli_reports_are_byte_stable(tmp_path, sl2, capsys):
    alg = sl2_file(tmp_path, sl2)
    main_check(["jacobi", alg])
    first = capsys.readouterr().out
    main_check(["jacobi", alg])
    second = capsys.readouterr().out
    assert first == second


def test_cli_first_only(tmp_path, broken_jacobi, capsys):
    from algcert.bialgebra import cobracket_from_dual

    deltas = cobracket_from_dual(broken_jacobi)
    doc = fio.coalgebra_to_doc(deltas, Mat.identity(3))
    path = write(tmp_path, "co.json", doc)
    assert main_check(["coalgebra", path]) == 1
    full = capsys.readouterr().out
    assert main_check(["coalgebra", path, "--first-only"]) == 1
    trimmed = capsys.readouterr().out
    assert full.count("[") > trimmed.count("[")


def test_cli_non_skew_coalgebra_exits_1_with_residual(tmp_path, capsys):
    deltas = [Tensor2(3, 3, {(0, 1): 1, (1, 0): -1}), Tensor2(3, 3, {(0, 1): 1}),
              Tensor2(3, 3, {(2, 2): Fraction(1, 2)})]
    path = write(tmp_path, "co.json", fio.coalgebra_to_doc(deltas))
    assert main_check(["coalgebra", path]) == 1
    assert ("[FAIL] coalgebra at (1,) residual {[0, 1]=1, [1, 0]=1} violations=2"
            "  (cobracket is not skew)") in capsys.readouterr().out
    assert main_check(["coalgebra", path, "--json"]) == 1
    check = json.loads(capsys.readouterr().out)["checks"][0]
    assert (check["where"], check["residual"], check["violations"]) == (
        [1], [{"at": [0, 1], "c": "1"}, {"at": [1, 0], "c": "1"}], 2)


def test_cli_algcat(tmp_path, capsys):
    assert main_cat(["sl2"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] jacobi" in out
    dest = str(tmp_path / "sl2.json")
    assert main_cat(["sl2", "-o", dest]) == 0
    capsys.readouterr()
    assert fio.doc_to_algebra(fio.read_doc(dest)).dim == 3
    assert main_cat(["unknown-entry"]) == 2


def test_cli_algblock(capsys):
    assert main_block(["--q", "1/2", "--lo", "1", "--hi", "3"]) == 0
    out = capsys.readouterr().out
    assert "block-window" in out and "verdict: pass" in out
    assert main_block(["--q", "1", "--lo", "-1", "--hi", "0"]) == 2
    capsys.readouterr()
    assert main_block(["--q", "1", "--lo", "-1", "--hi", "0", "--skip-singular"]) == 0
    capsys.readouterr()
    assert main_block(["--q", "x", "--lo", "0", "--hi", "1"]) == 2


def test_cli_double_builds(tmp_path, thmfl, capsys):
    from algcert.bialgebra import canonical_pair

    rmp = canonical_pair(thmfl)
    mp_file = write(tmp_path, "mp.json", fio.matched_to_doc(rmp))
    for kind, recheck in (
        ("double", "jacobi"),
        ("reynolds-double", "reynolds"),
        ("induced-matched", "reynolds-matched"),
    ):
        out_file = str(tmp_path / f"{kind}.json")
        assert main_build([kind, mp_file, "-o", out_file]) == 0, kind
        capsys.readouterr()
        assert main_check([recheck, out_file]) == 0, kind
        capsys.readouterr()


def test_cli_bialgebra_builds(tmp_path, thmfl, capsys):
    bi_file = write(tmp_path, "bi.json", fio.bialgebra_to_doc(thmfl.bialg, thmfl.R))
    for kind, recheck in (
        ("drinfeld-double", "reynolds"),
        ("quasitriangular-double", "reynolds-bialgebra"),
    ):
        out_file = str(tmp_path / f"{kind}.json")
        assert main_build([kind, bi_file, "-o", out_file]) == 0, kind
        capsys.readouterr()
        assert main_check([recheck, out_file]) == 0, kind
        capsys.readouterr()


def test_cli_build_verifies_its_output_once(tmp_path, thmfl, scans, rebind, capsys):
    """One scope over construction and emit: `algbuild quasitriangular-double` runs
    is_reynolds_bialgebra on its output once; the emit's second call is a memo hit."""
    from algcert import bialgebra
    calls = []
    raw = bialgebra.is_reynolds_bialgebra

    def counted(*args):
        calls.append((args, raw(*args)))
        return calls[-1][1]
    rebind(raw, counted)
    bi_file = write(tmp_path, "bi.json", fio.bialgebra_to_doc(thmfl.bialg, thmfl.R))
    assert main_build(["quasitriangular-double", bi_file, "-o", str(tmp_path / "o.json")]) == 0
    capsys.readouterr()
    output = [(args, cert) for args, cert in calls if args[0].g.dim == 6]
    assert len(output) == 2 and output[0][0][0] is output[1][0][0]  # the constructor and the emit
    # the emit gets the constructor's very arguments, Rt included, and the very certificate
    # the constructor's call stored: a memo hit
    assert all(a is b for a, b in zip(output[0][0], output[1][0])) and len(output[0][0]) == 3
    assert output[1][1] is output[0][1] and output[0][1].ok
    # the cocycle, Jacobi and Reynolds of g and g* only: those of the double and of its dual,
    # and every stage of the canonical pair, are entailed by the gates, not scanned
    assert (scans["cocycle"], scans["jacobi"], scans["reynolds"]) == (1, 2, 2)
    assert sum(scans.values()) == 5


def test_cli_semidirect_of_a_non_lie_base_exits_1(tmp_path, non_lie, capsys):
    # R = 0 is Reynolds and the zero action a Reynolds representation of any table, so
    # only the base's Jacobi identity fails; the output's Jacobi check reports it
    from algcert.lie import Representation
    from algcert.reynolds import ReynoldsLieAlgebra, ReynoldsRep
    rr = ReynoldsRep.unchecked(ReynoldsLieAlgebra.unchecked(non_lie, Mat.zeros(3, 3)),
                               Representation.zero(non_lie, 1), Mat.zeros(1, 1))
    path = write(tmp_path, "nonlie.json", fio.reynolds_rep_to_doc(rr))
    out = tmp_path / "sd.json"
    assert main_build(["semidirect", path, "-o", str(out)]) == 1
    report = capsys.readouterr().out
    assert "[FAIL] jacobi at (0, 1, 2) residual {[0]=-1, [2]=-1} violations=1" in report
    assert "verdict: fail" in report and not out.exists()


def test_cli_dual_from_r_and_cobracket(tmp_path, sl2, r_tensor, capsys):
    alg = sl2_file(tmp_path, sl2)
    r_file = write(tmp_path, "r.json", fio.tensor_to_doc(r_tensor))
    out_file = str(tmp_path / "dual.json")
    assert main_build(["dual-from-r", alg, "--tensor", r_file, "-o", out_file]) == 0
    capsys.readouterr()
    dual = fio.doc_to_algebra(fio.read_doc(out_file))
    assert dual.bracket_basis(0, 1) == (Fraction(2), Fraction(0), Fraction(0))
    co_file = str(tmp_path / "co.json")
    assert main_build(["cobracket", alg, "--tensor", r_file, "-o", co_file]) == 0
    capsys.readouterr()
    assert main_check(["coalgebra", co_file]) == 0
    capsys.readouterr()


def test_cli_build_gate_failure_exits_1(tmp_path, sl2, capsys):
    doc = fio.algebra_to_doc(sl2)
    doc["reynolds"] = fio.operator_to_doc(Mat([[0, 1, 0], [0, 1, 0], [0, 0, 0]]))
    bad = write(tmp_path, "badrey.json", doc)
    code = main_build(["induced", bad, "-o", str(tmp_path / "out.json")])
    capsys.readouterr()
    assert code == 1


def _every_kind(tmp_path, sl2, b_op, sl2_reynolds, sl2_qrb, thmfl):
    """One passing document per structure, and per check and build kind the document
    it reads with its extra flags (the tensor kinds read `r.json`)."""
    from algcert.bialgebra import canonical_pair, cobracket_from_dual
    from algcert.matched import matched_to_manin

    rmp = canonical_pair(thmfl)
    mt = matched_to_manin(rmp)
    rr = reynolds_coadjoint_rep(sl2_reynolds)
    rel = RelativeRB(rr, r_plus(r_from_qrb(sl2_qrb)))
    rp = prelie_from_relrb(rel)
    ns = ns_from_reynolds(sl2_reynolds)

    docs = {
        "alg": fio.algebra_to_doc(sl2),
        "ra": fio.reynolds_algebra_to_doc(sl2_reynolds),
        "rrep": fio.reynolds_rep_to_doc(rr),
        "ns": fio.ns_to_doc(ns),
        "nsrep": fio.ns_rep_to_doc(regular_rep(ns)),
        "mp": fio.matched_to_doc(rmp),
        "manin": fio.manin_to_doc(mt.G.base.L, mt.G.base.R, mt.G.S, mt.part_g, mt.part_h),
        "co": fio.coalgebra_to_doc(cobracket_from_dual(thmfl.bialg.dual), -thmfl.R),
        "bia": fio.bialgebra_to_doc(thmfl.bialg, thmfl.R),
        "qrb": fio.qrb_to_doc(sl2_qrb, b_op),
        "rel": fio.relative_rb_to_doc(rel),
        "pre": fio.prelie_to_doc(rp.A, rp.R),
    }
    rten = ["--tensor", write(tmp_path, "r.json", fio.tensor_to_doc(r_from_qrb(sl2_qrb)))]
    checks = {
        "jacobi": ("alg", []), "reynolds": ("ra", []), "reynolds-rep": ("rrep", []),
        "nslie": ("ns", []), "ns-rep": ("nsrep", []), "matched": ("mp", []),
        "reynolds-matched": ("mp", []), "manin": ("manin", []), "coalgebra": ("co", []),
        "bialgebra": ("bia", []), "reynolds-bialgebra": ("bia", []), "rb": ("qrb", []),
        "quadratic-rb": ("qrb", []), "reynolds-on-qrb": ("qrb", []),
        "cybe": ("alg", rten), "reynolds-cybe": ("ra", rten),
        "relative-rb": ("rel", []), "prelie": ("pre", []), "reynolds-prelie": ("pre", []),
    }
    builds = {
        "induced": ("ra", []), "descendent": ("qrb", []), "ns-from-reynolds": ("ra", []),
        "semidirect": ("rrep", []), "double": ("mp", []), "reynolds-double": ("mp", []),
        "induced-matched": ("mp", []), "drinfeld-double": ("bia", []),
        "quasitriangular-double": ("bia", []),
        "cobracket": ("alg", rten), "r-from-qrb": ("qrb", []),
        "thmfl": ("qrb", []), "rk": ("rel", []), "canonical-r": ("pre", []),
        "dual-from-r": ("alg", rten),
    }
    return docs, checks, builds


def test_cli_every_kind_dispatches(tmp_path, sl2, b_op, s_form, sl2_reynolds,
                                   sl2_qrb, thmfl, capsys):
    docs, checks, builds = _every_kind(tmp_path, sl2, b_op, sl2_reynolds, sl2_qrb, thmfl)
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    from algcert.cli import CHECK_KINDS, BUILD_KINDS

    assert set(checks) == set(CHECK_KINDS)
    for kind, (name, flags) in checks.items():
        assert main_check([kind, paths[name]] + flags) == 0, kind
        capsys.readouterr()

    assert set(builds) == set(BUILD_KINDS)
    for kind, (name, flags) in builds.items():
        out = str(tmp_path / f"out-{kind}.json")
        assert main_build([kind, paths[name]] + flags + ["-o", out]) == 0, kind
        capsys.readouterr()


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def test_cli_kept_integer_forms_stay_fresh(tmp_path, sl2, b_op, s_form, sl2_reynolds,
                                           sl2_qrb, thmfl, monkeypatch, capsys):
    """Every check and build kind on its registry document: afterwards each Mat and Table
    the loaders built still keeps the integer form of its entries."""
    import dense_oracle as oracle
    docs, checks, builds = _every_kind(tmp_path, sl2, b_op, sl2_reynolds, sl2_qrb, thmfl)
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    loaded = []
    for name in [n for n in dir(fio) if n.startswith("doc_to_")]:
        def record(*args, _load=getattr(fio, name), **kwargs):
            out = _load(*args, **kwargs)
            loaded.append(out)
            return out
        monkeypatch.setattr(fio, name, record)
    for kind, (name, flags) in checks.items():
        assert main_check([kind, paths[name]] + flags) == 0, kind
    for kind, (name, flags) in builds.items():
        assert main_build([kind, paths[name]] + flags + ["-o", str(tmp_path / "o.json")]) == 0
    capsys.readouterr()
    assert len(loaded) > len(checks) + len(builds)
    assert oracle.stale_forms(loaded) == []


def _mutants(doc: dict):
    """Documents one defect away from `doc`: each matrix one row and column smaller and
    larger, each integer set to 1, 0 and -1, each rational string set to "7/3" and "x",
    each top-level key dropped."""
    def nodes(value, at=()):
        yield at, value
        items = value.items() if isinstance(value, dict) else (
            enumerate(value) if isinstance(value, list) else ())
        for k, v in items:
            yield from nodes(v, at + (k,))

    def put(at, value):
        out = json.loads(json.dumps(doc))
        cur = out
        for k in at[:-1]:
            cur = cur[k]
        cur[at[-1]] = value
        return out

    for at, v in nodes(doc):
        if v and isinstance(v, list) and all(isinstance(row, list) and row for row in v):
            yield put(at, [row[:-1] for row in v[:-1]])
            yield put(at, [row + ["0"] for row in v] + [["0"] * (len(v[0]) + 1)])
        elif type(v) is int:
            yield from (put(at, w) for w in (1, 0, -1) if w != v)
        elif isinstance(v, str) and _RATIONAL.fullmatch(v):
            yield put(at, "7/3")
            yield put(at, "x")
    for key in doc:
        yield {k: v for k, v in doc.items() if k != key}


def test_cli_malformed_documents_never_exit_3(tmp_path, sl2, b_op, sl2_reynolds,
                                              sl2_qrb, thmfl, capsys):
    # every kind of the registry on every mutant of its passing document: exit 2 is an
    # input error with nothing on stdout, exit 1 a certified failure, never an exit 3
    docs, checks, builds = _every_kind(tmp_path, sl2, b_op, sl2_reynolds, sl2_qrb, thmfl)
    loaders = [getattr(fio, name) for name in dir(fio) if name.startswith("doc_to_")]
    mutants = {}
    for name, doc in docs.items():
        mutants[name] = []
        for k, mutant in enumerate(_mutants(doc)):
            for load in loaders:
                try:
                    load(mutant)
                except fio.InputError:
                    pass
            mutants[name].append(write(tmp_path, f"{name}-{k}.json", mutant))
    op2 = ["--op", write(tmp_path, "op2.json", fio.operator_to_doc(Mat.identity(2)))]
    t5 = ["--tensor", write(tmp_path, "t5.json", fio.tensor_to_doc(
        Tensor2(5, 5, {(3, 4): 1, (4, 3): -1})))]
    missing = ["--op", str(tmp_path / "missing.json")]
    out = ["-o", str(tmp_path / "out.json")]
    for run, table, tail in ((main_check, checks, []), (main_build, builds, out)):
        for kind, (name, flags) in table.items():
            # with no operator, with a wrong-size --op (for the kinds that read one) and with
            # a wrong-size --tensor in place of the tensor kinds' own
            reads_op = run([kind, write(tmp_path, "doc.json", docs[name])]
                           + flags + missing + tail) == 2
            capsys.readouterr()
            runs = [flags] + ([flags + op2] if reads_op else [])
            for extra in runs + ([t5] if "--tensor" in flags else []):
                for path in mutants[name]:
                    argv = [kind, path] + extra + tail
                    code = run(argv)
                    captured = capsys.readouterr()
                    assert code in (0, 1, 2), (argv, captured.err)
                    if code == 2:
                        assert captured.out == "" and captured.err.startswith("input error: "), argv
                    if code == 1:
                        assert "[FAIL]" in captured.out, argv


def test_cli_shape_mismatch_is_input_error(tmp_path, sl2, capsys):
    alg = sl2_file(tmp_path, sl2)
    op = write(tmp_path, "op2.json", fio.operator_to_doc(Mat.identity(2)))
    assert main_check(["reynolds", alg, "--op", op]) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert main_build(["induced", alg, "--op", op, "-o", str(tmp_path / "o.json")]) == 2


def test_cli_matched_check_without_operators(tmp_path, thmfl, capsys):
    from algcert.bialgebra import canonical_pair

    doc = fio.matched_to_doc(canonical_pair(thmfl))
    del doc["Rg"], doc["Rh"]
    path = write(tmp_path, "mp_noops.json", doc)
    assert main_check(["matched", path]) == 0
    capsys.readouterr()
    assert main_check(["reynolds-matched", path]) == 2  # ops required here
    capsys.readouterr()


def test_cli_matched_operators_are_read_when_present(tmp_path, thmfl, capsys):
    # `matched` and `double` zero-fill an absent Rg or Rh and read a present one; the
    # Reynolds kinds need both
    from algcert.bialgebra import canonical_pair

    doc = fio.matched_to_doc(canonical_pair(thmfl))
    out = ["-o", str(tmp_path / "out.json")]
    for key in ("Rg", "Rh"):
        dropped = write(tmp_path, f"no-{key}.json", {k: v for k, v in doc.items() if k != key})
        bad = write(tmp_path, f"bad-{key}.json", {**doc, key: [["x"]]})
        for run, kind, tail in ((main_check, "matched", []), (main_build, "double", out)):
            assert run([kind, dropped] + tail) == 0, (kind, key)
            assert run([kind, bad] + tail) == 2, (kind, key)
        for run, kind, tail in ((main_check, "reynolds-matched", []),
                                (main_build, "reynolds-double", out),
                                (main_build, "induced-matched", out)):
            assert run([kind, dropped] + tail) == 2, (kind, key)
        capsys.readouterr()


def test_cli_embedded_operator_is_always_validated(tmp_path, sl2, b_op, sl2_reynolds,
                                                   sl2_qrb, thmfl, capsys):
    # a shrunk, grown or non-rational embedded 'reynolds' is an input error for every kind
    # whose loader reads it, whether or not the kind uses it and with or without --op
    docs, checks, builds = _every_kind(tmp_path, sl2, b_op, sl2_reynolds, sl2_qrb, thmfl)
    out = ["-o", str(tmp_path / "out.json")]
    # the algebra loader reads it too: `jacobi` and `cybe` on the Reynolds-algebra document
    on_ra = {"jacobi": ("ra", []), "cybe": ("ra", checks["cybe"][1])}
    for run, table, tail in ((main_check, [*checks.items(), *on_ra.items()], []),
                             (main_build, builds.items(), out)):
        for kind, (name, flags) in table:
            doc = docs[name]
            if "reynolds" not in doc:
                continue
            m = doc["reynolds"]["matrix"]
            op = ["--op", write(tmp_path, "op.json", doc["reynolds"])]
            for bad in ([row[:-1] for row in m[:-1]],
                        [row + ["0"] for row in m] + [["0"] * (len(m) + 1)],
                        [["x"] + m[0][1:]] + m[1:]):
                path = write(tmp_path, "bad.json", {**doc, "reynolds": {"matrix": bad}})
                for extra in ([], op):
                    assert run([kind, path] + flags + extra + tail) == 2, (kind, bad, extra)
                    captured = capsys.readouterr()
                    assert captured.out == "" and captured.err.startswith("input error: ")


def test_catalog_degenerate_abelian_sizes(capsys):
    assert main_cat(["abelian(1)"]) == 0
    capsys.readouterr()
    assert main_cat(["abelian(0)"]) == 0
    capsys.readouterr()


def test_catalog_block_skip_variant():
    entry = catalog("block(1/2,-3,3,skip)")
    assert entry.ok
    assert entry.payload["skip_singular"] is True
    with pytest.raises(fio.InputError):
        catalog("block(1/2,-3,3)")  # strict form hits the singular index
