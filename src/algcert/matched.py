"""Matched pairs of (Reynolds) Lie algebras, doubles and Manin triples.

A matched pair carries two algebras acting on each other compatibly; its
double g⋈h is a Lie algebra on g⊕h (g block first).  Manin triples live
inside one ambient quadratic Reynolds algebra and are described by
basis-index subsets, which keeps closure and isotropy exhaustively
checkable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, product

from .certificates import Certificate, Checked, require, scan
from .exact import ONE, ZERO, Mat, dense, precompose, sapply, saxpy, scols, scomb, unscale
from .lie import (
    BilinForm,
    LieAlgebra,
    Representation,
    coadjoint_rep,
    is_representation,
    jacobi_check,
)
from .reynolds import (
    QuadraticReynolds,
    ReynoldsLieAlgebra,
    compat_certificate,
    is_quadratic_reynolds,
    is_reynolds,
    operator_brackets,
)


class MatchedPair(Checked):
    """(g, h; rho, mu): rho acts on h's space, mu on g's space."""

    __slots__ = ("g", "h", "rho", "mu")

    def __init__(self, g: LieAlgebra, h: LieAlgebra, rho: Representation,
                 mu: Representation, check: bool = True):
        if rho.algebra != g or rho.module_dim != h.dim:
            raise ValueError("rho must represent g on h's space")
        if mu.algebra != h or mu.module_dim != g.dim:
            raise ValueError("mu must represent h on g's space")
        self.g = g
        self.h = h
        self.rho = rho
        self.mu = mu
        if check:
            require(is_matched_pair(g, h, rho, mu))

    @classmethod
    def trivial(cls, g: LieAlgebra, h: LieAlgebra) -> "MatchedPair":
        return cls(g, h, Representation.zero(g, h.dim, labels=h.basis),
                   Representation.zero(h, g.dim, labels=g.basis), check=False)


def _compat_cases(g: LieAlgebra, h: LieAlgebra, rho: Representation,
                  mu: Representation):
    """Residuals of rho(x)[a,b] = [rho(x)a,b] + [a,rho(x)b] + rho(mu(b)x)a − rho(mu(a)x)b
    over basis x of g and a < b of h, in (x, a, b) order."""
    hrows = h.sc.rows()
    rho_cols = [scols(m) for m in rho.rho]
    mu_cols = [scols(m) for m in mu.rho]
    for i, rc in enumerate(rho_cols):
        adr = precompose(hrows, rc)   # adr[a][b] = [rho(x)a, b]
        mixed = [scomb(rho_cols, mc[i], h.dim) for mc in mu_cols]   # rho(mu(a)x)
        for a, b in combinations(range(h.dim), 2):
            out = sapply(rc, hrows[a].get(b, {}))
            saxpy(out, -ONE, adr[a].get(b, {}))
            saxpy(out, ONE, adr[b].get(a, {}))
            saxpy(out, -ONE, mixed[b][a])
            saxpy(out, ONE, mixed[a][b])
            yield (i, a, b), out


def is_matched_pair(g: LieAlgebra, h: LieAlgebra, rho: Representation,
                    mu: Representation) -> Certificate:
    """Representation validity, then both compatibility identities."""
    rep_g = is_representation(rho)
    rep_h = is_representation(mu)
    if not (rep_g.ok and rep_h.ok):
        return Certificate.combine(
            "matched-pair",
            [Certificate.combine("rho-representation", [rep_g]),
             Certificate.combine("mu-representation", [rep_h])],
            note="invalid action representation",
        )

    return Certificate.combine("matched-pair", [
        Certificate.combine("rho-representation", [rep_g]),
        Certificate.combine("mu-representation", [rep_h]),
        scan("compat-on-h", _compat_cases(g, h, rho, mu)),
        scan("compat-on-g", _compat_cases(h, g, mu, rho)),
    ])


def double(mp: MatchedPair) -> LieAlgebra:
    """g⋈h: [x+xi, y+eta] = ([x,y] + mu(xi)y - mu(eta)x) + ([xi,eta] + rho(x)eta - rho(y)xi)."""
    require(is_matched_pair(mp.g, mp.h, mp.rho, mp.mu))
    n, m = mp.g.dim, mp.h.dim
    sc: dict[tuple[int, int], dict[int, Fraction]] = {}
    for key, comp in mp.g.sc.items():
        sc[key] = dict(comp)
    for (a, b), comp in mp.h.sc.items():
        sc[(n + a, n + b)] = {n + k: c for k, c in comp.items()}
    for i in range(n):
        for a in range(m):
            gpart = mp.mu.rho[a].col(i)  # mu(h_a) e_i, negated below
            hpart = mp.rho.rho[i].col(a)  # rho(e_i) h_a
            comp = {k: -c for k, c in enumerate(gpart) if c != 0}
            comp.update({n + k: c for k, c in enumerate(hpart) if c != 0})
            if comp:
                sc[(i, n + a)] = comp
    return LieAlgebra(n + m, mp.g.basis + mp.h.basis, sc)


class ReynoldsMatchedPair(Checked):
    __slots__ = ("pair", "Rg", "Rh")

    def __init__(self, pair: MatchedPair, Rg: Mat, Rh: Mat, check: bool = True):
        if Rg.rows != pair.g.dim or Rg.cols != pair.g.dim:
            raise ValueError("Rg shape does not match g")
        if Rh.rows != pair.h.dim or Rh.cols != pair.h.dim:
            raise ValueError("Rh shape does not match h")
        self.pair = pair
        self.Rg = Rg
        self.Rh = Rh
        if check:
            require(is_reynolds_matched_pair(self))


def is_reynolds_matched_pair(rmp: ReynoldsMatchedPair) -> Certificate:
    """Matched pair, both operators Reynolds, and the two cross compatibilities."""
    mp = rmp.pair
    parts = [
        is_matched_pair(mp.g, mp.h, mp.rho, mp.mu),
        Certificate.combine("reynolds-g", [is_reynolds(mp.g, rmp.Rg)]),
        Certificate.combine("reynolds-h", [is_reynolds(mp.h, rmp.Rh)]),
        compat_certificate(rmp.Rg, mp.rho, rmp.Rh, name="cross-compat-rho"),
        compat_certificate(rmp.Rh, mp.mu, rmp.Rg, name="cross-compat-mu"),
    ]
    return Certificate.combine("reynolds-matched-pair", parts)


def reynolds_double(rmp: ReynoldsMatchedPair) -> ReynoldsLieAlgebra:
    """The double with the block-diagonal operator Rg⊕Rh."""
    require(is_reynolds_matched_pair(rmp))
    return ReynoldsLieAlgebra(double(rmp.pair), Mat.block_diag(rmp.Rg, rmp.Rh))


def induced_matched_pair(rmp: ReynoldsMatchedPair) -> MatchedPair:
    """The induced pair (g_R, h_R'; rho', mu') of a Reynolds matched pair."""
    from .reynolds import induced_algebra

    require(is_reynolds_matched_pair(rmp))
    mp, Rg, Rh = rmp.pair, rmp.Rg, rmp.Rh
    g_ind = induced_algebra(ReynoldsLieAlgebra(mp.g, Rg, check=False)).L
    h_ind = induced_algebra(ReynoldsLieAlgebra(mp.h, Rh, check=False)).L
    rho2 = Representation(g_ind, mp.h.dim, _induced_action(mp.rho, Rg, Rh),
                          labels=mp.rho.labels, check=False)
    mu2 = Representation(h_ind, mp.g.dim, _induced_action(mp.mu, Rh, Rg),
                         labels=mp.mu.labels, check=False)
    return MatchedPair(g_ind, h_ind, rho2, mu2)


def _induced_action(act: Representation, R: Mat, T: Mat) -> list[Mat]:
    """act'(x) = act(x)T + act(Rx) − act(Rx)T on the basis of the acting algebra."""
    n, md = len(act.rho), act.module_dim
    _, _, s, pairs = operator_brackets(act.rho, R, T, product(range(n), range(md)), ZERO, -ONE)
    cols = [dense(md, unscale(inner, s)) for _, _, _, inner in pairs]
    return [Mat.from_cols(cols[i * md:(i + 1) * md]) for i in range(n)]


class ManinTripleReynolds(Checked):
    """A quadratic Reynolds algebra split into two isotropic index blocks."""

    __slots__ = ("G", "part_g", "part_h")

    def __init__(self, G: QuadraticReynolds, part_g, part_h, check: bool = True):
        self.G = G
        self.part_g = tuple(part_g)
        self.part_h = tuple(part_h)
        if check:
            require(is_manin_triple(G.base.L, G.base.R, G.S, self.part_g, self.part_h))


def _closure_cert(L: LieAlgebra, R: Mat, part: tuple[int, ...], name: str) -> Certificate:
    """Brackets of pairs in `part`, then R of each member, have no component outside it."""
    inside = set(part)

    def outside(v):
        return tuple(ZERO if k in inside else c for k, c in enumerate(v))

    pairs = (((i, j), outside(L.bracket_basis(i, j))) for i in part for j in part if i < j)
    images = (((i,), outside(R.col(i))) for i in part)
    return scan(name, chain(pairs, images))


def _isotropy_cert(S: BilinForm, part: tuple[int, ...], name: str) -> Certificate:
    return scan(name, (((i, j), S.gram.entries[i][j]) for i in part for j in part))


def is_manin_triple(L: LieAlgebra, R: Mat, S: BilinForm,
                    part_g, part_h) -> Certificate:
    """Quadratic Reynolds ambient + partition + closure + isotropy."""
    part_g, part_h = tuple(part_g), tuple(part_h)
    parts = [jacobi_check(L),
             Certificate.combine("reynolds", [is_reynolds(L, R)])]
    parts.append(is_quadratic_reynolds(ReynoldsLieAlgebra.unchecked(L, R), S))
    if sorted(part_g + part_h) == list(range(L.dim)):
        parts.append(Certificate.passed("partition"))
    else:
        parts.append(Certificate(check="partition", ok=False,
                                 note="index parts do not partition the basis"))
    parts.append(_closure_cert(L, R, part_g, "closure-g"))
    parts.append(_closure_cert(L, R, part_h, "closure-h"))
    parts.append(_isotropy_cert(S, part_g, "isotropy-g"))
    parts.append(_isotropy_cert(S, part_h, "isotropy-h"))
    return Certificate.combine("manin-triple", parts)


def standard_pairing_form(n: int) -> BilinForm:
    """S(x+xi, y+eta) = xi(y) + eta(x) on g⊕g* coordinates."""
    gram = Mat.block_diag(Mat.zeros(n, n), Mat.zeros(n, n))
    rows = [list(r) for r in gram.entries]
    for i in range(n):
        rows[i][n + i] = Fraction(1)
        rows[n + i][i] = Fraction(1)
    return BilinForm(Mat(rows))


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


def matched_to_manin(rmp: ReynoldsMatchedPair) -> ManinTripleReynolds:
    """Dual-shaped Reynolds matched pair -> Manin triple on g⊕g*."""
    _require_dual_shape(rmp)
    require(is_reynolds_matched_pair(rmp))
    n = rmp.pair.g.dim
    D = double(rmp.pair)
    op = Mat.block_diag(rmp.Rg, rmp.Rh)
    S = standard_pairing_form(n)
    ambient = QuadraticReynolds(ReynoldsLieAlgebra(D, op), S)
    return ManinTripleReynolds(ambient, tuple(range(n)), tuple(range(n, 2 * n)))


def _restrict_algebra(L: LieAlgebra, offset: int, n: int) -> LieAlgebra:
    sc = {}
    for (i, j), comp in L.sc.items():
        if offset <= i < offset + n and offset <= j < offset + n:
            kept = {k - offset: c for k, c in comp.items()
                    if offset <= k < offset + n}
            if kept:
                sc[(i - offset, j - offset)] = kept
    return LieAlgebra(n, L.basis[offset:offset + n], sc)


def manin_to_matched(mt: ManinTripleReynolds) -> ReynoldsMatchedPair:
    """Extract the two Reynolds subalgebras and the induced dual actions."""
    L = mt.G.base.L
    n = L.dim // 2
    if mt.part_g != tuple(range(n)) or mt.part_h != tuple(range(n, 2 * n)):
        raise ValueError("standard-form triple expected: contiguous g then g* blocks")
    if mt.G.S != standard_pairing_form(n):
        raise ValueError("standard-form triple expected: the canonical pairing form")
    require(is_manin_triple(L, mt.G.base.R, mt.G.S, mt.part_g, mt.part_h))
    g = _restrict_algebra(L, 0, n)
    h = _restrict_algebra(L, n, n)
    rho_mats = []
    for i in range(n):
        cols = [L.bracket_basis(i, n + a)[n:] for a in range(n)]
        rho_mats.append(Mat.from_cols(cols))
    mu_mats = []
    for a in range(n):
        cols = [tuple(-c for c in L.bracket_basis(i, n + a)[:n]) for i in range(n)]
        mu_mats.append(Mat.from_cols(cols))
    rho = Representation(g, n, rho_mats, labels=h.basis, check=False)
    mu = Representation(h, n, mu_mats, labels=g.basis, check=False)
    Rg = mt.G.base.R.submatrix(range(n), range(n))
    Rh = mt.G.base.R.submatrix(range(n, 2 * n), range(n, 2 * n))
    return ReynoldsMatchedPair(MatchedPair(g, h, rho, mu), Rg, Rh)
