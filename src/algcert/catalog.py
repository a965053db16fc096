"""Named example structures; loading an entry re-runs its declared checks.

Provenance notes record whether an entry is printed data or a derived
fixture.  Parametric families take rational/integer arguments in the
name, e.g. ``block(1/2,1,3)``, ``abelian(4)``,
``trivial_matched(sl2,abelian(2))``.  An entry imports the modules of its
checks when it is looked up, so the package can import this module eagerly.
"""

from __future__ import annotations

import re
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
from .lie import BilinForm, LieAlgebra, is_quadratic, jacobi_check


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


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra.abelian(n)


def trivial_matched(g: LieAlgebra, h: LieAlgebra) -> ReynoldsMatchedPair:
    """rho = mu = 0 with zero operators on both sides."""
    from .matched import MatchedPair, ReynoldsMatchedPair
    return ReynoldsMatchedPair.unchecked(
        MatchedPair.trivial(g, h), Mat.zeros(g.dim, g.dim), Mat.zeros(h.dim, h.dim)
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


_NAMES = (
    "sl2",
    "sl2.B",
    "sl2.S",
    "sl2.r",
    "sl2.km_dual",
    "abelian(n)",
    "block(q,lo,hi)",
    "trivial_matched(a,b)",
)


def names() -> tuple[str, ...]:
    return _NAMES


def catalog(name: str) -> CatalogEntry:
    """Look an entry up by name and re-run its declared invariant suite."""
    name = name.strip()
    if name == "sl2":
        L = sl2()
        return CatalogEntry(name, "algebra", L,
                            "PAPER: the 3-dimensional simple algebra example",
                            (jacobi_check(L),))
    if name == "sl2.B":
        from .reynolds import is_reynolds
        from .rotabaxter import is_rota_baxter
        L, B = sl2(), sl2_b()
        return CatalogEntry(
            name, "operator", B,
            "PAPER: the skew operator of the worked example",
            (is_reynolds(L, B), is_rota_baxter(L, B, 0)),
        )
    if name == "sl2.S":
        L, S = sl2(), sl2_s()
        return CatalogEntry(
            name, "form", S,
            "PAPER: S(h,h) = 2S(x,y) = 2 from the worked example",
            (is_quadratic(L, S),),
        )
    if name == "sl2.r":
        from .cybe import is_cybe_solution
        L, r = sl2(), sl2_r()
        return CatalogEntry(
            name, "tensor", r,
            "PAPER: r = h⊗x − x⊗h, a skew CYBE solution",
            (is_cybe_solution(L, r),),
        )
    if name == "sl2.km_dual":
        from .bialgebra import is_lie_bialgebra
        L, dual = sl2(), sl2_km_dual()
        return CatalogEntry(
            name, "algebra", dual,
            "PAPER: the printed dual brackets; bialgebra verdict recorded, not assumed",
            (jacobi_check(dual), is_lie_bialgebra(L, dual)),
        )
    m = re.fullmatch(r"abelian\((\d+)\)", name)
    if m:
        L = abelian(int(m.group(1)))
        return CatalogEntry(name, "algebra", L, "TRIVIAL: all brackets zero",
                            (jacobi_check(L),))
    m = re.fullmatch(r"block\(([^,]+),(-?\d+),(-?\d+)(,skip)?\)", name)
    if m:
        try:
            q = rat(m.group(1))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational parameter in {name!r}") from exc
        lo, hi = int(m.group(2)), int(m.group(3))
        skip = m.group(4) is not None
        from .reynolds import block_window_check
        try:
            cert = block_window_check(q, lo, hi, skip_singular=skip)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        payload = {"family": "block", "q": q, "lo": lo, "hi": hi, "skip_singular": skip}
        return CatalogEntry(name, "block", payload,
                            "PAPER: the windowed two-index family with R = 1/(m+i+1)",
                            (cert,))
    m = re.fullmatch(r"trivial_matched\(([^,]+),(.+)\)", name)
    if m:
        g_entry = catalog(m.group(1).strip())
        h_entry = catalog(m.group(2).strip())
        if g_entry.kind != "algebra" or h_entry.kind != "algebra":
            raise InputError("trivial_matched needs two algebra entries")
        from .matched import is_reynolds_matched_pair
        rmp = trivial_matched(g_entry.payload, h_entry.payload)
        return CatalogEntry(
            name, "matched", rmp,
            "PAPER: zero actions always form a matched pair",
            (is_reynolds_matched_pair(rmp),),
        )
    raise InputError(f"unknown catalog entry: {name!r}")


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
