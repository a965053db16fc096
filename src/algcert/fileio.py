"""One JSON document format for every structure; rationals as "p/q" strings.

Loaders return unchecked objects (check commands must be able to load
violating data); constructors and builders re-validate.  Writers emit a
canonical layout (sorted bracket keys, fixed key order, 2-space indent)
so build outputs are byte-stable and diffable.  Build documents carry a
provenance header naming the source files and the construction; loaders
ignore it.  A loader reaches the class of the structure it builds through the
package's lazy exports, so reading a document loads only what that document
needs.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction

from .exact import Mat, Tensor2, rat, rat_str
from .lie import BilinForm, LieAlgebra, Representation

# the package: its lazy exports look each name up on its module at call time
ac = sys.modules[__package__]


class InputError(ValueError):
    """Malformed document or value; maps to CLI exit code 2."""


def _loader(load):
    """The loader contract: a `ValueError` raised while a document is read, by the
    loader or by a constructor it calls, reaches the caller as `InputError` with the
    same message."""
    @functools.wraps(load)
    def read(*args, **kwargs):
        try:
            return load(*args, **kwargs)
        except InputError:
            raise
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    return read


def _need(doc: dict, key: str, context: str):
    if not isinstance(doc, dict):
        raise InputError(f"{context}: expected a JSON object, got {doc!r}")
    if key not in doc:
        raise InputError(f"{context}: missing key '{key}'")
    return doc[key]


def _index(value, context: str) -> int:
    """A basis index: a JSON integer, or an integer string (object keys are strings)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise InputError(f"{context}: bad index {value!r}")


def _dim(value, context: str) -> int:
    """A dimension: a JSON integer ≥ 0 (not a bool, a float or a string)."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise InputError(f"{context}: bad dimension {value!r}")


def _labels(value, n: int, context: str):
    """Basis labels: absent, or a list of n strings."""
    if value is not None and not (isinstance(value, list) and len(value) == n
                                  and all(isinstance(b, str) for b in value)):
        raise InputError(f"{context}: expected a list of {n} label strings, got {value!r}")
    return value


def _list(value, context: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{context}: expected a list, got {value!r}")
    return value


def _rat(value, context: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{context}: bad rational {value!r}")
    try:
        return rat(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{context}: bad rational {value!r}") from exc


# -- matrices, forms, tensors ------------------------------------------------

def matrix_to_json(m: Mat) -> list[list[str]]:
    return [[rat_str(c) for c in row] for row in m.entries]


def json_to_matrix(rows, context: str = "matrix") -> Mat:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{context}: expected a list of rows")
    return Mat([[_rat(c, context) for c in row] for row in rows])


def operator_to_doc(m: Mat) -> dict:
    return {"matrix": matrix_to_json(m)}


def _with_op(doc: dict, R: Mat | None) -> dict:
    """The document with the operator R under 'reynolds', last, when R is given."""
    return doc if R is None else {**doc, "reynolds": operator_to_doc(R)}


@_loader
def doc_to_operator(doc: dict) -> Mat:
    return json_to_matrix(_need(doc, "matrix", "operator"), "operator")


def _embedded_op(doc: dict, dim: int) -> Mat | None:
    """The operator a document embeds under 'reynolds', if any, checked to be dim × dim.
    Loaders read it also when their kind does not use it or --op replaces it."""
    op = doc_to_operator(doc["reynolds"]) if "reynolds" in doc else None
    if op is not None and (op.rows, op.cols) != (dim, dim):
        raise InputError(f"reynolds: operator is {op.rows}x{op.cols}, expected {dim}x{dim}")
    return op


def form_to_doc(S: BilinForm) -> dict:
    return {"gram": matrix_to_json(S.gram)}


@_loader
def doc_to_form(doc: dict) -> BilinForm:
    return BilinForm(json_to_matrix(_need(doc, "gram", "form"), "gram"))


def tensor_to_doc(t: Tensor2) -> dict:
    return {
        "dim_left": t.dim_left,
        "dim_right": t.dim_right,
        "entries": [
            {"i": i, "j": j, "c": rat_str(c)} for (i, j), c in t.items()
        ],
    }


@_loader
def doc_to_tensor(doc: dict, dim: int | None = None) -> Tensor2:
    entries = {}
    for cell in _list(_need(doc, "entries", "tensor"), "tensor entries"):
        key = tuple(_index(_need(cell, k, "tensor entry"), "tensor entry") for k in "ij")
        if key in entries:
            raise InputError(f"tensor: duplicate entry {key}")
        entries[key] = _rat(_need(cell, "c", "tensor entry"), "tensor entry")
    dl = _dim(doc.get("dim_left", dim if dim is not None else 0), "tensor dim_left")
    dr = _dim(doc.get("dim_right", dim if dim is not None else 0), "tensor dim_right")
    if dl == 0 and entries:
        dl = dr = max(max(i, j) for i, j in entries) + 1
    return Tensor2(dl, dr, entries)


# -- bracket tables and algebras ----------------------------------------------

def _table_to_json(table) -> list[dict]:
    out = []
    for (i, j) in sorted(table):
        comp = table[(i, j)]
        out.append(
            {"i": i, "j": j, "out": {str(k): rat_str(c) for k, c in sorted(comp.items())}}
        )
    return out


def _json_to_table(items, context: str):
    table = {}
    for cell in _list(items, context):
        key = tuple(_index(_need(cell, k, context), context) for k in "ij")
        if key in table:
            raise InputError(f"{context}: duplicate entry {key}")
        out = _need(cell, "out", context)
        if not isinstance(out, dict):
            raise InputError(f"{context}: 'out' must be an object, got {out!r}")
        table[key] = {_index(k, context): _rat(c, context) for k, c in out.items()}
    return table


def algebra_to_doc(L: LieAlgebra) -> dict:
    return {
        "dim": L.dim,
        "basis": list(L.basis),
        "brackets": _table_to_json(L.sc),
    }


@_loader
def doc_to_algebra(doc: dict) -> LieAlgebra:
    dim = _dim(_need(doc, "dim", "algebra"), "algebra")
    basis = _labels(doc.get("basis"), dim, "algebra basis")
    table = _json_to_table(_need(doc, "brackets", "algebra"), "algebra brackets")
    _embedded_op(doc, dim)
    return LieAlgebra.unchecked(dim, basis, table)


def reynolds_algebra_to_doc(A: ReynoldsLieAlgebra) -> dict:
    return _with_op(algebra_to_doc(A.L), A.R)


@_loader
def doc_to_reynolds_algebra(doc: dict, op: Mat | None = None) -> ReynoldsLieAlgebra:
    L = doc_to_algebra(doc)   # which also checks an embedded operator
    # `op` replaces the embedded operator; with neither, `_need` reports the missing key
    op = op or _embedded_op(doc, L.dim) or _need(doc, "reynolds", "reynolds algebra")
    return ac.ReynoldsLieAlgebra.unchecked(L, op)


# -- NS-Lie -------------------------------------------------------------------

def ns_to_doc(A: NSLieAlgebra) -> dict:
    return {
        "dim": A.dim,
        "basis": list(A.basis),
        "left": _table_to_json(A.left),
        "wedge": _table_to_json(A.wedge),
    }


@_loader
def doc_to_ns(doc: dict) -> NSLieAlgebra:
    dim = _dim(_need(doc, "dim", "ns algebra"), "ns algebra")
    basis = _labels(doc.get("basis"), dim, "ns algebra basis")
    left = _json_to_table(_need(doc, "left", "ns algebra"), "left table")
    wedge = _json_to_table(_need(doc, "wedge", "ns algebra"), "wedge table")
    return ac.NSLieAlgebra.unchecked(dim, basis, left, wedge)


def _mats_to_json(mats) -> list[list[list[str]]]:
    return [matrix_to_json(m) for m in mats]


def _json_to_mats(items, context: str) -> list[Mat]:
    return [json_to_matrix(m, context) for m in _list(items, context)]


def ns_rep_to_doc(rep: NSRep) -> dict:
    return {
        "ns": ns_to_doc(rep.base),
        "rep": {
            "module_dim": rep.module_dim,
            "labels": list(rep.labels),
            "varrho": _mats_to_json(rep.varrho),
            "mu": _mats_to_json(rep.mu),
            "nu": _mats_to_json(rep.nu),
        },
    }


@_loader
def doc_to_ns_rep(doc: dict) -> NSRep:
    base = doc_to_ns(_need(doc, "ns", "ns-rep"))
    rep = _need(doc, "rep", "ns-rep")
    varrho = _json_to_mats(_need(rep, "varrho", "ns-rep"), "varrho")
    mu = _json_to_mats(_need(rep, "mu", "ns-rep"), "mu")
    nu = _json_to_mats(_need(rep, "nu", "ns-rep"), "nu")
    md = _dim(rep.get("module_dim", varrho[0].rows if varrho else 0), "ns-rep module_dim")
    labels = _labels(rep.get("labels"), md, "ns-rep labels")
    return ac.NSRep.unchecked(base, md, varrho, mu, nu, labels)


# -- representations over Reynolds algebras ------------------------------------

def reynolds_rep_to_doc(rr: ReynoldsRep) -> dict:
    return {
        "g": reynolds_algebra_to_doc(rr.base),
        "rep": {
            "module_dim": rr.rep.module_dim,
            "labels": list(rr.rep.labels),
            "rho": _mats_to_json(rr.rep.rho),
            "T": matrix_to_json(rr.T),
        },
    }


@_loader
def doc_to_reynolds_rep(doc: dict) -> ReynoldsRep:
    base = doc_to_reynolds_algebra(_need(doc, "g", "reynolds-rep"))
    rep = _need(doc, "rep", "reynolds-rep")
    rho = _json_to_mats(_need(rep, "rho", "reynolds-rep"), "rho")
    T = json_to_matrix(_need(rep, "T", "reynolds-rep"), "T")
    md = _dim(rep.get("module_dim", T.rows), "reynolds-rep module_dim")
    labels = _labels(rep.get("labels"), md, "reynolds-rep labels")
    inner = Representation.unchecked(base.L, md, rho, labels)
    return ac.ReynoldsRep.unchecked(base, inner, T)


def relative_rb_to_doc(rel: RelativeRB) -> dict:
    doc = reynolds_rep_to_doc(rel.rr)
    doc["K"] = matrix_to_json(rel.K)
    return doc


@_loader
def doc_to_relative_rb(doc: dict) -> RelativeRB:
    rr = doc_to_reynolds_rep(doc)
    K = json_to_matrix(_need(doc, "K", "relative-rb"), "K")
    return ac.RelativeRB.unchecked(rr, K)


# -- matched pairs --------------------------------------------------------------

def matched_to_doc(rmp: ReynoldsMatchedPair) -> dict:
    mp = rmp.pair
    return {
        "g": algebra_to_doc(mp.g),
        "h": algebra_to_doc(mp.h),
        "rho": _mats_to_json(mp.rho.rho),
        "mu": _mats_to_json(mp.mu.rho),
        "Rg": matrix_to_json(rmp.Rg),
        "Rh": matrix_to_json(rmp.Rh),
    }


@_loader
def doc_to_matched(doc: dict, need_ops: bool = True) -> ReynoldsMatchedPair:
    g = doc_to_algebra(_need(doc, "g", "matched pair"))
    h = doc_to_algebra(_need(doc, "h", "matched pair"))
    rho_mats = _json_to_mats(_need(doc, "rho", "matched pair"), "rho")
    mu_mats = _json_to_mats(_need(doc, "mu", "matched pair"), "mu")
    rho = Representation.unchecked(g, h.dim, rho_mats, h.basis)
    mu = Representation.unchecked(h, g.dim, mu_mats, g.basis)
    pair = ac.MatchedPair.unchecked(g, h, rho, mu)
    # without need_ops an absent operator is zero; a present one is read either way
    Rg, Rh = (json_to_matrix(_need(doc, key, "matched pair"), key) if need_ops or key in doc
              else Mat.zeros(n, n) for key, n in (("Rg", g.dim), ("Rh", h.dim)))
    return ac.ReynoldsMatchedPair.unchecked(pair, Rg, Rh)


# -- bialgebras ------------------------------------------------------------------

def bialgebra_to_doc(bialg: LieBialgebra, R: Mat | None = None) -> dict:
    return _with_op({"g": algebra_to_doc(bialg.g), "dual": algebra_to_doc(bialg.dual)}, R)


@_loader
def doc_to_bialgebra(doc: dict) -> tuple[LieBialgebra, Mat | None]:
    g = doc_to_algebra(_need(doc, "g", "bialgebra"))
    dual = doc_to_algebra(_need(doc, "dual", "bialgebra"))
    if g.dim != dual.dim:
        raise InputError("bialgebra: g and dual dimensions differ")
    return ac.LieBialgebra.unchecked(g, dual), _embedded_op(doc, g.dim)


# -- quadratic Rota-Baxter --------------------------------------------------------

def qrb_to_doc(qrb: QuadraticRB, R: Mat | None = None) -> dict:
    doc = algebra_to_doc(qrb.rb.L)
    doc["rb"] = {"matrix": matrix_to_json(qrb.rb.B), "lambda": rat_str(qrb.rb.lam)}
    doc["gram"] = matrix_to_json(qrb.S.gram)
    return _with_op(doc, R)


@_loader
def doc_to_qrb(doc: dict) -> tuple[QuadraticRB, Mat | None]:
    rb = doc_to_rb(doc)
    gram = json_to_matrix(_need(doc, "gram", "quadratic-rb"), "gram")
    return ac.QuadraticRB.unchecked(rb, BilinForm(gram)), _embedded_op(doc, rb.L.dim)


@_loader
def doc_to_rb(doc: dict) -> RotaBaxterAlg:
    L = doc_to_algebra(doc)
    rb_doc = _need(doc, "rb", "rota-baxter")
    B = json_to_matrix(_need(rb_doc, "matrix", "rb"), "rb matrix")
    lam = _rat(rb_doc.get("lambda", "0"), "rb lambda")
    return ac.RotaBaxterAlg.unchecked(L, B, lam)


# -- pre-Lie -----------------------------------------------------------------------

def prelie_to_doc(A: PreLieAlgebra, R: Mat | None = None) -> dict:
    return _with_op({"dim": A.dim, "basis": list(A.basis), "prod": _table_to_json(A.prod)}, R)


@_loader
def doc_to_prelie(doc: dict) -> tuple[PreLieAlgebra, Mat | None]:
    dim = _dim(_need(doc, "dim", "pre-lie"), "pre-lie")
    basis = _labels(doc.get("basis"), dim, "pre-lie basis")
    prod = _json_to_table(_need(doc, "prod", "pre-lie"), "pre-lie product")
    return ac.PreLieAlgebra.unchecked(dim, basis, prod), _embedded_op(doc, dim)


# -- coalgebra (delta list) ---------------------------------------------------------

def coalgebra_to_doc(deltas: list[Tensor2], R: Mat | None = None) -> dict:
    return _with_op({"dim": len(deltas), "deltas": [tensor_to_doc(d) for d in deltas]}, R)


@_loader
def doc_to_coalgebra(doc: dict) -> tuple[list[Tensor2], Mat | None]:
    dim = _dim(_need(doc, "dim", "coalgebra"), "coalgebra")
    deltas = [doc_to_tensor(d, dim) for d in _list(_need(doc, "deltas", "coalgebra"), "deltas")]
    if len(deltas) != dim:
        raise InputError("coalgebra: need one cobracket tensor per basis vector")
    for k, d in enumerate(deltas):
        if d.dim_left != dim or d.dim_right != dim:
            raise InputError(f"coalgebra: cobracket tensor {k} is not on a dim-{dim} space")
    return deltas, _embedded_op(doc, dim)


# -- Manin triple ---------------------------------------------------------------------

def manin_to_doc(L: LieAlgebra, R: Mat, S: BilinForm, part_g, part_h) -> dict:
    doc = _with_op(algebra_to_doc(L), R)
    doc["gram"] = matrix_to_json(S.gram)
    doc["part_g"] = list(part_g)
    doc["part_h"] = list(part_h)
    return doc


@_loader
def doc_to_manin(doc: dict) -> ManinTripleReynolds:
    A = doc_to_reynolds_algebra(doc)
    S = BilinForm(json_to_matrix(_need(doc, "gram", "manin"), "gram"))
    part_g, part_h = (tuple(_index(i, f"manin {key}") for i in _list(_need(doc, key, "manin"), key))
                      for key in ("part_g", "part_h"))
    for i in part_g + part_h:
        if not 0 <= i < A.L.dim:
            raise InputError(f"manin: part index {i} is outside the basis 0..{A.L.dim - 1}")
    return ac.ManinTripleReynolds.unchecked(ac.QuadraticReynolds.unchecked(A, S), part_g, part_h)


# -- document reading/writing -----------------------------------------------------------

def read_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


def render_doc(doc: dict, provenance: dict | None = None) -> str:
    if provenance:
        doc = {"provenance": provenance, **doc}
    return json.dumps(doc, indent=2) + "\n"


def write_doc(path: str, doc: dict, provenance: dict | None = None) -> None:
    text = render_doc(doc, provenance)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"{path}: cannot write ({exc.strerror or exc})") from exc
