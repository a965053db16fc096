"""Matched pairs of (Reynolds) Lie algebras, doubles and Manin triples.

A matched pair carries two algebras acting on each other compatibly; its
double g⋈h is a Lie algebra on g⊕h (g block first).  Manin triples live
inside one ambient quadratic Reynolds algebra and are described by
basis-index subsets, which keeps closure and isotropy exhaustively
checkable.
"""

from __future__ import annotations

from itertools import chain, combinations, product

from .certificates import Certificate, Checked, require, scan, verified
from .exact import ONE, ZERO, Mat, Rows, Table, integral, table_rows, unpack
from .lie import (
    BilinForm,
    LieAlgebra,
    Representation,
    block_rows,
    coadjoint_rep,
    double_table,
    jacobiator,
    packed_outer,
)
from .reynolds import (
    QuadraticReynolds,
    ReynoldsLieAlgebra,
    compat_certificate,
    inner_products,
    is_quadratic_reynolds,
    is_reynolds,
)


class MatchedPair(Checked, gate=lambda mp: is_matched_pair(mp.g, mp.h, mp.rho, mp.mu)):
    """(g, h; rho, mu): rho acts on h's space, mu on g's space."""

    __slots__ = ("g", "h", "rho", "mu")

    def __init__(self, g: LieAlgebra, h: LieAlgebra, rho: Representation, mu: Representation):
        if rho.algebra != g or rho.module_dim != h.dim:
            raise ValueError("rho must represent g on h's space")
        if mu.algebra != h or mu.module_dim != g.dim:
            raise ValueError("mu must represent h on g's space")
        self.g = g
        self.h = h
        self.rho = rho
        self.mu = mu

    @classmethod
    def trivial(cls, g: LieAlgebra, h: LieAlgebra) -> "MatchedPair":
        return cls.unchecked(g, h, Representation.zero(g, h.dim, labels=h.basis),
                             Representation.zero(h, g.dim, labels=g.basis))


# the stage names, passed positionally: a check keyed on one object of each travels with a
# checked structure, and `drinfeld_double` entails it under the same key
COMPAT_ON_H, COMPAT_ON_G = "compat-on-h", "compat-on-g"
CROSS_RHO, CROSS_MU = "cross-compat-rho", "cross-compat-mu"


@verified
def compat_stage(g: LieAlgebra, h: LieAlgebra, rho: Representation, mu: Representation,
                 name: str) -> Certificate:
    """rho(x)[a,b] = [rho(x)a,b] + [a,rho(x)b] + rho(mu(b)x)a − rho(mu(a)x)b over basis x of g
    and a < b of h.  The residual is minus the h-block of J(e_x, f_a, f_b) on the integer table
    of g⋈h under one scale D: the scale is −D²."""
    n, m = g.dim, h.dim
    gsc, hsc, *cols, den = integral(g.sc, h.sc, *rho.rho, *mu.rho)
    table = double_table(gsc, hsc, cols[:n], cols[n:])
    outer, w = packed_outer(table, n + m, n, n + m)
    return scan(name, (((i, a, b), jacobiator(table, outer, i, n + a, n + b))
                       for i in range(n) for a, b in combinations(range(m), 2)),
                -den * den, lambda v: unpack(v, w))


def _compat_stages(g: LieAlgebra, h: LieAlgebra, rho: Representation,
                   mu: Representation) -> list[Certificate]:
    """compat-on-h, then compat-on-g: the same identity with the roles swapped, whose residual at
    (a, i, j) is minus the g-block of J(f_a, e_i, e_j), as h⋈g is g⋈h with its blocks swapped.
    On the canonical pair (g, g*; ad*, ad*), where the pairing is invariant, compat-on-h at
    (i, a, b), entry c, is −cocycle(i, c) at (a, b), and compat-on-g at (a, i, j), entry c,
    is −cocycle(i, j) at (a, c)."""
    return [compat_stage(g, h, rho, mu, COMPAT_ON_H), compat_stage(h, g, mu, rho, COMPAT_ON_G)]


@verified
def is_matched_pair(g: LieAlgebra, h: LieAlgebra, rho: Representation,
                    mu: Representation) -> Certificate:
    """Representation validity, then both compatibility identities."""
    reps = [Certificate.combine("rho-representation", [rho.gate()]),
            Certificate.combine("mu-representation", [mu.gate()])]
    if not all(rep.ok for rep in reps):
        return Certificate.combine("matched-pair", reps, note="invalid action representation")
    return Certificate.combine("matched-pair", reps + _compat_stages(g, h, rho, mu))


@verified
def double(mp: MatchedPair) -> LieAlgebra:
    """g⋈h: [x+xi, y+eta] = ([x,y] + mu(xi)y - mu(eta)x) + ([xi,eta] + rho(x)eta - rho(y)xi).
    Its Jacobiator is J of g, of h and the gate's four stages (two actions, two compatibilities),
    so the gate, `jacobi_check(g)` and `jacobi_check(h)` entail its Jacobi check."""
    gate = require(mp.gate())
    n = mp.g.dim + mp.h.dim
    gsc, hsc, *cols, den = integral(mp.g.sc, mp.h.sc, *mp.rho.rho, *mp.mu.rho)
    sc = double_table(gsc, hsc, cols[:mp.g.dim], cols[mp.g.dim:])
    return LieAlgebra(n, mp.g.basis + mp.h.basis, Table._of(n, sc, True, den),
                      given=[gate, mp.g.gate(), mp.h.gate()])


class ReynoldsMatchedPair(Checked, gate=lambda rmp: is_reynolds_matched_pair(rmp)):
    __slots__ = ("pair", "Rg", "Rh")

    def __init__(self, pair: MatchedPair, Rg: Mat, Rh: Mat):
        if Rg.rows != pair.g.dim or Rg.cols != pair.g.dim:
            raise ValueError("Rg shape does not match g")
        if Rh.rows != pair.h.dim or Rh.cols != pair.h.dim:
            raise ValueError("Rh shape does not match h")
        self.pair = pair
        self.Rg = Rg
        self.Rh = Rh


@verified
def is_reynolds_matched_pair(rmp: ReynoldsMatchedPair) -> Certificate:
    """Matched pair, both operators Reynolds, and the two cross compatibilities."""
    mp = rmp.pair
    parts = [
        mp.gate(),
        Certificate.combine("reynolds-g", [is_reynolds(mp.g, rmp.Rg)]),
        Certificate.combine("reynolds-h", [is_reynolds(mp.h, rmp.Rh)]),
        compat_certificate(rmp.Rg, mp.rho, rmp.Rh, CROSS_RHO),
        compat_certificate(rmp.Rh, mp.mu, rmp.Rg, CROSS_MU),
    ]
    return Certificate.combine("reynolds-matched-pair", parts)


@verified
def reynolds_double(rmp: ReynoldsMatchedPair) -> ReynoldsLieAlgebra:
    """The double with the block-diagonal operator Rg⊕Rh; the gate entails its Reynolds check: the
    residual is reynolds-g's, reynolds-h's, cross-compat-rho's (h block) and −cross-compat-mu's."""
    gate = require(rmp.gate())
    return ReynoldsLieAlgebra(double(rmp.pair), Mat.block_diag(rmp.Rg, rmp.Rh), given=[gate])


@verified
def induced_matched_pair(rmp: ReynoldsMatchedPair) -> MatchedPair:
    """The induced pair (g_R, h_R'; rho', mu') of a Reynolds matched pair."""
    from .reynolds import induced_algebra

    require(rmp.gate())
    mp, Rg, Rh = rmp.pair, rmp.Rg, rmp.Rh
    g_ind = induced_algebra(ReynoldsLieAlgebra.unchecked(mp.g, Rg)).L
    h_ind = induced_algebra(ReynoldsLieAlgebra.unchecked(mp.h, Rh)).L
    rho2 = Representation.unchecked(g_ind, mp.h.dim, _induced_action(mp.rho, Rg, Rh),
                                    labels=mp.rho.labels)
    mu2 = Representation.unchecked(h_ind, mp.g.dim, _induced_action(mp.mu, Rh, Rg),
                                   labels=mp.mu.labels)
    return MatchedPair(g_ind, h_ind, rho2, mu2)


def _induced_action(act: Representation, R: Mat, T: Mat) -> list[Mat]:
    """act'(x) = act(x)T + act(Rx) − act(Rx)T on the basis of the acting algebra."""
    n, md = len(act.rho), act.module_dim
    inner, s = inner_products(act.rho, R, T, product(range(n), range(md)), ZERO, -ONE)
    return [Mat._of(md, md, [inner[i, u] for u in range(md)], s) for i in range(n)]


class ManinTripleReynolds(Checked, gate=lambda mt: is_manin_triple(
        mt.G.base.L, mt.G.base.R, mt.G.S, mt.part_g, mt.part_h)):
    """A quadratic Reynolds algebra split into two isotropic index blocks."""

    __slots__ = ("G", "part_g", "part_h")

    def __init__(self, G: QuadraticReynolds, part_g, part_h):
        self.G = G
        self.part_g = tuple(part_g)
        self.part_h = tuple(part_h)


def _closure_cert(L: LieAlgebra, R: Mat, part: tuple[int, ...], name: str) -> Certificate:
    """Brackets of pairs in `part`, then R of each member, have no component outside it."""
    inside = set(part)
    sc, cols, den = integral(L.sc, R)

    def outside(v):
        return {k: c for k, c in v.items() if k not in inside}

    pairs = (((i, j), outside(sc.get((i, j), {}))) for i in part for j in part if i < j)
    images = (((i,), outside(cols[i])) for i in part)
    return scan(name, chain(pairs, images), den)


def _isotropy_cert(S: BilinForm, part: tuple[int, ...], name: str) -> Certificate:
    cols = S.gram.icols
    return scan(name, (((i, j), cols[j].get(i, 0)) for i in part for j in part), S.gram.den)


@verified
def is_manin_triple(L: LieAlgebra, R: Mat, S: BilinForm,
                    part_g, part_h) -> Certificate:
    """Quadratic Reynolds ambient + partition + closure + isotropy."""
    part_g, part_h = tuple(part_g), tuple(part_h)
    parts = [L.gate(),
             Certificate.combine("reynolds", [is_reynolds(L, R)])]
    parts.append(is_quadratic_reynolds(ReynoldsLieAlgebra.unchecked(L, R), S))
    parts.append(Certificate.decide("partition", sorted(part_g + part_h) == list(range(L.dim)),
                                    "index parts do not partition the basis"))
    parts.append(_closure_cert(L, R, part_g, "closure-g"))
    parts.append(_closure_cert(L, R, part_h, "closure-h"))
    parts.append(_isotropy_cert(S, part_g, "isotropy-g"))
    parts.append(_isotropy_cert(S, part_h, "isotropy-h"))
    return Certificate.combine("manin-triple", parts)


def standard_pairing_form(n: int) -> BilinForm:
    """S(x+xi, y+eta) = xi(y) + eta(x) on g⊕g* coordinates."""
    return BilinForm(Mat([[int(abs(i - j) == n) for j in range(2 * n)] for i in range(2 * n)]))


def _require_dual_shape(rmp: ReynoldsMatchedPair) -> None:
    mp = rmp.pair
    if mp.h.dim != mp.g.dim:
        raise ValueError("dual-shaped pair needs h.dim == g.dim")
    ad_star = coadjoint_rep(mp.g)
    if tuple(mp.rho.rho) != tuple(ad_star.rho):
        raise ValueError("rho is not the coadjoint action of g under the canonical pairing")
    coad_h = coadjoint_rep(mp.h)
    if tuple(mp.mu.rho) != tuple(coad_h.rho):
        raise ValueError("mu is not the coadjoint action of h under the canonical pairing")
    if rmp.Rh != -rmp.Rg.transpose():
        raise ValueError("dual-shaped pair needs Rh == -Rgᵀ")


@verified
def matched_to_manin(rmp: ReynoldsMatchedPair) -> ManinTripleReynolds:
    """Dual-shaped Reynolds matched pair -> Manin triple on g⊕g*."""
    _require_dual_shape(rmp)
    n = rmp.pair.g.dim
    ambient = QuadraticReynolds(reynolds_double(rmp), standard_pairing_form(n))
    return ManinTripleReynolds(ambient, tuple(range(n)), tuple(range(n, 2 * n)))


def _restrict_algebra(L: LieAlgebra, block: Rows, offset: int, n: int) -> LieAlgebra:
    """The span of e_offset, …, e_offset+n−1, from L's integer rows cut to it (`block_rows`)."""
    return LieAlgebra(n, L.basis[offset:offset + n], Table._of(n, {
        (i - offset, j - offset): block[i][j] for i, j in L.sc
        if offset <= i and j < offset + n}, True, L.sc.den))


@verified
def manin_to_matched(mt: ManinTripleReynolds) -> ReynoldsMatchedPair:
    """Extract the two Reynolds subalgebras and the induced dual actions."""
    L = mt.G.base.L
    n = L.dim // 2
    if mt.part_g != tuple(range(n)) or mt.part_h != tuple(range(n, 2 * n)):
        raise ValueError("standard-form triple expected: contiguous g then g* blocks")
    if mt.G.S != standard_pairing_form(n):
        raise ValueError("standard-form triple expected: the canonical pairing form")
    require(mt.gate())
    rows, den = table_rows(L.sc.ientries, L.dim, True), L.sc.den
    on_g, on_h = block_rows(rows, 0, n), block_rows(rows, n, 2 * n)
    g, h = _restrict_algebra(L, on_g, 0, n), _restrict_algebra(L, on_h, n, n)
    # inverse to `double_table`: ρ(e_i)f_a = [e_i, f_a]_h and μ(f_a)e_i = [f_a, e_i]_g
    rho_mats = [Mat._of(n, n, [on_h[i].get(n + a, {}) for a in range(n)], den) for i in range(n)]
    mu_mats = [Mat._of(n, n, [on_g[n + a].get(i, {}) for i in range(n)], den) for a in range(n)]
    rho = Representation.unchecked(g, n, rho_mats, labels=h.basis)
    mu = Representation.unchecked(h, n, mu_mats, labels=g.basis)
    Rg = mt.G.base.R.submatrix(range(n), range(n))
    Rh = mt.G.base.R.submatrix(range(n, 2 * n), range(n, 2 * n))
    return ReynoldsMatchedPair(MatchedPair(g, h, rho, mu), Rg, Rh)
