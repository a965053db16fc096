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
from .exact import ONE, ZERO, Mat, Rows, dense, integral, scols, unscale
from .lie import (
    BilinForm,
    LieAlgebra,
    Representation,
    block_rows,
    coadjoint_rep,
    double_table,
    is_representation,
    jacobi_check,
    jacobiator,
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


def _compat_stages(g: LieAlgebra, h: LieAlgebra, rho: Representation,
                   mu: Representation) -> list[Certificate]:
    """compat-on-h, rho(x)[a,b] = [rho(x)a,b] + [a,rho(x)b] + rho(mu(b)x)a − rho(mu(a)x)b
    over basis x of g and a < b of h, then compat-on-g, the same with the roles swapped.

    The residuals are minus the h-block of J(e_x, f_a, f_b) and minus the g-block of
    J(f_a, e_x, e_y) on the integer table of g⋈h under one scale D: the scale is −D².
    """
    n, m = g.dim, h.dim
    gsc, hsc, *cols, den = integral(g.sc, h.sc, *[scols(x) for x in rho.rho + mu.rho])
    rows = double_table(gsc, hsc, cols[:n], cols[n:]).rows()
    on_h, on_g = block_rows(rows, n, n + m), block_rows(rows, 0, n)
    return [
        scan("compat-on-h", (((i, a, b), jacobiator(rows, on_h, i, n + a, n + b))
                             for i in range(n) for a, b in combinations(range(m), 2)), -den * den),
        scan("compat-on-g", (((a, i, j), jacobiator(rows, on_g, n + a, i, j))
                             for a in range(m) for i, j in combinations(range(n), 2)), -den * den),
    ]


@verified
def is_matched_pair(g: LieAlgebra, h: LieAlgebra, rho: Representation,
                    mu: Representation) -> Certificate:
    """Representation validity, then both compatibility identities."""
    reps = [Certificate.combine("rho-representation", [is_representation(rho)]),
            Certificate.combine("mu-representation", [is_representation(mu)])]
    if not all(rep.ok for rep in reps):
        return Certificate.combine("matched-pair", reps, note="invalid action representation")
    return Certificate.combine("matched-pair", reps + _compat_stages(g, h, rho, mu))


@verified
def double(mp: MatchedPair) -> LieAlgebra:
    """g⋈h: [x+xi, y+eta] = ([x,y] + mu(xi)y - mu(eta)x) + ([xi,eta] + rho(x)eta - rho(y)xi)."""
    require(is_matched_pair(mp.g, mp.h, mp.rho, mp.mu))
    sc = double_table(mp.g.sc, mp.h.sc, [scols(x) for x in mp.rho.rho],
                      [scols(x) for x in mp.mu.rho])
    return LieAlgebra(mp.g.dim + mp.h.dim, mp.g.basis + mp.h.basis, sc)


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


@verified
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


@verified
def reynolds_double(rmp: ReynoldsMatchedPair) -> ReynoldsLieAlgebra:
    """The double with the block-diagonal operator Rg⊕Rh."""
    require(is_reynolds_matched_pair(rmp))
    return ReynoldsLieAlgebra(double(rmp.pair), Mat.block_diag(rmp.Rg, rmp.Rh))


@verified
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
        return {k: c for k, c in v.items() if k not in inside}

    pairs = (((i, j), outside(L.sc.get((i, j), {}))) for i in part for j in part if i < j)
    images = (((i,), outside(dict(enumerate(R.col(i))))) for i in part)
    return scan(name, chain(pairs, images))


def _isotropy_cert(S: BilinForm, part: tuple[int, ...], name: str) -> Certificate:
    return scan(name, (((i, j), S.gram.entries[i][j]) for i in part for j in part))


@verified
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
    require(is_reynolds_matched_pair(rmp))
    n = rmp.pair.g.dim
    D = double(rmp.pair)
    op = Mat.block_diag(rmp.Rg, rmp.Rh)
    S = standard_pairing_form(n)
    ambient = QuadraticReynolds(ReynoldsLieAlgebra(D, op), S)
    return ManinTripleReynolds(ambient, tuple(range(n)), tuple(range(n, 2 * n)))


def _restrict_algebra(L: LieAlgebra, block: Rows, offset: int, n: int) -> LieAlgebra:
    """The span of e_offset, …, e_offset+n−1, from L's rows cut to it (`block_rows`)."""
    return LieAlgebra(n, L.basis[offset:offset + n], {
        (i - offset, j - offset): block[i][j] for i, j in L.sc
        if offset <= i and j < offset + n and block[i][j]})


@verified
def manin_to_matched(mt: ManinTripleReynolds) -> ReynoldsMatchedPair:
    """Extract the two Reynolds subalgebras and the induced dual actions."""
    L = mt.G.base.L
    n = L.dim // 2
    if mt.part_g != tuple(range(n)) or mt.part_h != tuple(range(n, 2 * n)):
        raise ValueError("standard-form triple expected: contiguous g then g* blocks")
    if mt.G.S != standard_pairing_form(n):
        raise ValueError("standard-form triple expected: the canonical pairing form")
    require(is_manin_triple(L, mt.G.base.R, mt.G.S, mt.part_g, mt.part_h))
    rows = L.sc.rows()
    on_g, on_h = block_rows(rows, 0, n), block_rows(rows, n, 2 * n)
    g, h = _restrict_algebra(L, on_g, 0, n), _restrict_algebra(L, on_h, n, n)
    # inverse to `double_table`: ρ(e_i)f_a = [e_i, f_a]_h and μ(f_a)e_i = [f_a, e_i]_g
    rho_mats = [Mat.from_cols([dense(n, on_h[i].get(n + a, {})) for a in range(n)])
                for i in range(n)]
    mu_mats = [Mat.from_cols([dense(n, on_g[n + a].get(i, {})) for i in range(n)])
               for a in range(n)]
    rho = Representation(g, n, rho_mats, labels=h.basis, check=False)
    mu = Representation(h, n, mu_mats, labels=g.basis, check=False)
    Rg = mt.G.base.R.submatrix(range(n), range(n))
    Rh = mt.G.base.R.submatrix(range(n, 2 * n), range(n, 2 * n))
    return ReynoldsMatchedPair(MatchedPair(g, h, rho, mu), Rg, Rh)
