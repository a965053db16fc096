"""Named example structures; loading an entry re-runs its declared checks.

Provenance notes record whether an entry is printed data or a derived
fixture.  Parametric families take rational/integer arguments in the
name, e.g. ``block(1/2,1,3)``, ``abelian(4)``,
``trivial_matched(sl2,abelian(2))``.  Every name, fixed or a family's, is
one registry entry.  An entry's checks resolve through the package's lazy
exports when it is looked up, so the package can import this module eagerly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .certificates import Certificate
from .exact import Mat, Tensor2, rat
from .fileio import (
    InputError,
    algebra_to_doc,
    form_to_doc,
    matched_to_doc,
    operator_to_doc,
    tensor_to_doc,
)
from .lie import BilinForm, LieAlgebra, is_quadratic

# the package: its lazy exports look each name up on its module at call time
ac = sys.modules[__package__]


def sl2() -> LieAlgebra:
    """Basis (H, X, Y): [H,X] = 2X, [H,Y] = -2Y, [X,Y] = H."""
    return LieAlgebra(3, ("H", "X", "Y"), {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def sl2_b() -> Mat:
    """B(H) = 2X, B(X) = 0, B(Y) = -H (columns are images)."""
    return Mat([[0, 0, -1], [2, 0, 0], [0, 0, 0]])


def sl2_s() -> BilinForm:
    """S(H,H) = 2, S(X,Y) = 1, every other pair 0."""
    return BilinForm(Mat([[2, 0, 0], [0, 0, 1], [0, 1, 0]]))


def sl2_r() -> Tensor2:
    """r = H⊗X − X⊗H."""
    return Tensor2(3, 3, {(0, 1): 1, (1, 0): -1})


def sl2_km_dual() -> LieAlgebra:
    """Dual brackets as printed: [H*,X*] = X*/4, [H*,Y*] = Y*/4, [X*,Y*] = 0."""
    q = Fraction(1, 4)
    return LieAlgebra(
        3, ("H*", "X*", "Y*"), {(0, 1): {1: q}, (0, 2): {2: q}}
    )


class CatalogEntry(NamedTuple):
    name: str
    kind: str
    payload: object
    provenance: str
    certificates: tuple[Certificate, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.certificates)


def _algebra(L: LieAlgebra) -> tuple:
    return L, (L.gate(),)


def _sl2_b(name: str) -> tuple:
    L, B = sl2(), sl2_b()
    return B, (ac.is_reynolds(L, B), ac.is_rota_baxter(L, B, 0))


def _sl2_s(name: str) -> tuple:
    S = sl2_s()
    return S, (is_quadratic(sl2(), S),)


def _sl2_r(name: str) -> tuple:
    r = sl2_r()
    return r, (ac.is_cybe_solution(sl2(), r),)


def _sl2_km_dual(name: str) -> tuple:
    L, dual = sl2(), sl2_km_dual()
    return dual, (dual.gate(), ac.is_lie_bialgebra(L, dual))


def _block(name: str, q: str, lo: str, hi: str, skip: str | None) -> tuple:
    try:
        q = rat(q)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational parameter in {name!r}") from exc
    lo, hi, skip = int(lo), int(hi), skip is not None
    try:
        cert = ac.block_window_check(q, lo, hi, skip_singular=skip)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return {"family": "block", "q": q, "lo": lo, "hi": hi, "skip_singular": skip}, (cert,)


def _trivial_matched(name: str, g: str, h: str) -> tuple:
    """rho = mu = 0, zero operators, on two algebra entries looked up first; each built once."""
    names = [x.strip() for x in (g, h)]
    if [_lookup(x)[0] for x in names] != ["algebra", "algebra"]:
        raise InputError("trivial_matched needs two algebra entries")
    g = catalog(names[0]).payload
    h = g if names[1] == names[0] else catalog(names[1]).payload
    rmp = ac.ReynoldsMatchedPair.unchecked(
        ac.MatchedPair.trivial(g, h), Mat.zeros(g.dim, g.dim), Mat.zeros(h.dim, h.dim))
    return rmp, (rmp.gate(),)


# name as listed -> (kind, provenance, build, pattern): build(name, *the pattern's groups)
# returns the payload and the certificates of the entry's declared checks; a family's
# pattern matches its instances, and a fixed name, with no pattern, matches only itself
_REGISTRY = {
    "sl2": ("algebra", "PAPER: the 3-dimensional simple algebra example",
            lambda name: _algebra(sl2()), None),
    "sl2.B": ("operator", "PAPER: the skew operator of the worked example", _sl2_b, None),
    "sl2.S": ("form", "PAPER: S(h,h) = 2S(x,y) = 2 from the worked example", _sl2_s, None),
    "sl2.r": ("tensor", "PAPER: r = h⊗x − x⊗h, a skew CYBE solution", _sl2_r, None),
    "sl2.km_dual": ("algebra",
                    "PAPER: the printed dual brackets; bialgebra verdict recorded, not assumed",
                    _sl2_km_dual, None),
    "abelian(n)": ("algebra", "TRIVIAL: all brackets zero",
                   lambda name, n: _algebra(LieAlgebra.abelian(int(n))), r"abelian\((\d+)\)"),
    "block(q,lo,hi)": ("block", "PAPER: the windowed two-index family with R = 1/(m+i+1)",
                       _block, r"block\(([^,]+),(-?\d+),(-?\d+)(,skip)?\)"),
    "trivial_matched(a,b)": ("matched", "PAPER: zero actions always form a matched pair",
                             _trivial_matched, r"trivial_matched\(([^,]+),(.+)\)"),
}


def names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def _lookup(name: str) -> tuple:
    """The kind, provenance and build of the registry entry `name` matches, and the arguments
    of its build."""
    for key, (kind, provenance, build, pattern) in _REGISTRY.items():
        m = re.fullmatch(pattern or re.escape(key), name)
        if m:
            return kind, provenance, build, m.groups()
    raise InputError(f"unknown catalog entry: {name!r}")


def catalog(name: str) -> CatalogEntry:
    """Look an entry up by name and re-run its declared invariant suite."""
    name = name.strip()
    kind, provenance, build, groups = _lookup(name)
    payload, certs = build(name, *groups)
    return CatalogEntry(name, kind, payload, provenance, certs)


# entry kind -> the writer of its payload's document
_WRITERS = {
    "algebra": algebra_to_doc,
    "operator": operator_to_doc,
    "form": form_to_doc,
    "tensor": tensor_to_doc,
    "matched": matched_to_doc,
    "block": lambda p: {**p, "q": str(p["q"])},
}


def entry_to_doc(entry: CatalogEntry) -> dict:
    if entry.kind not in _WRITERS:
        raise InputError(f"entry kind {entry.kind!r} has no document form")
    return _WRITERS[entry.kind](entry.payload)
