"""Lie algebras by exact structure constants, representations and bilinear forms.

Structure constants are stored sparsely for i<j only; the bracket is skew
by reconstruction, so [e_j,e_i] = -[e_i,e_j] and [e_i,e_i] = 0 hold by
construction.  Checked constructors enforce the Jacobi identity; check
operations accept unchecked data so they can report violations.

Composite spaces always order blocks first factor then second factor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .certificates import Certificate, Checked, require, scan, verified
from .exact import Mat, Rows, SVec, Table, Vec, ZERO, integral, mat_comb, sapply, scols


def default_basis(dim: int, prefix: str = "e") -> tuple[str, ...]:
    return tuple(f"{prefix}{k}" for k in range(dim))


def dual_basis(basis: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"{b}*" for b in basis)


class LieAlgebra(Checked):
    """Finite-dimensional Lie algebra over Q given by structure constants."""

    __slots__ = ("dim", "basis", "sc")

    def __init__(self, dim: int, basis=None, sc=None, check: bool = True):
        self.dim = dim
        self.basis = tuple(basis) if basis is not None else default_basis(dim)
        if len(self.basis) != dim:
            raise ValueError("basis label count must equal dim")
        self.sc = Table(dim, sc, skew=True)
        if check:
            require(jacobi_check(self))

    @classmethod
    def abelian(cls, dim: int, basis=None) -> "LieAlgebra":
        return cls(dim, basis, {})

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, basis={self.basis})"

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[e_i, e_j] as a coordinate vector."""
        return self.sc.basis_prod(i, j)

    def bracket(self, x: Vec, y: Vec) -> Vec:
        return self.sc.prod(x, y)

    def ad(self, i: int) -> Mat:
        """Adjoint-action matrix of e_i; columns are [e_i, e_j]."""
        return Mat.from_cols([self.bracket_basis(i, j) for j in range(self.dim)])

    def ad_vec(self, x: Vec) -> Mat:
        v = {i: c for i, c in enumerate(x) if c != 0}
        return mat_comb({i: self.ad(i) for i in v}, v, self.dim, self.dim)


def bracket(L: LieAlgebra, x: Vec, y: Vec) -> Vec:
    return L.bracket(x, y)


def jacobiator(rows: Rows, outer: Rows, x: int, y: int, z: int) -> SVec:
    """J(e_x,e_y,e_z) = Σ_cyc [[e_a,e_b],e_c] = Σ_cyc Σ_m rows[a][b][m]·outer[m][c], sparse.

    `outer` is `rows` cut to the output block the caller reads (`block_rows`), or
    `rows` itself.  Every Jacobi-type check is a block of J on a `double_table`;
    on an integer table D·sc, J comes out D² times too large.
    """
    out: SVec = {}
    for prod, c in ((rows[x].get(y), z), (rows[y].get(z), x), (rows[z].get(x), y)):
        if prod:
            for m, coeff in prod.items():
                col = outer[m].get(c)
                if col:
                    for k, v in col.items():
                        out[k] = out.get(k, 0) + coeff * v
    return out


def block_rows(rows: Rows, lo: int, hi: int) -> Rows:
    """The rows with every product cut to its components in [lo, hi), renumbered from 0."""
    return [{j: {k - lo: c for k, c in comp.items() if lo <= k < hi} for j, comp in row.items()}
            for row in rows]


def double_table(g: Table, h: Table, rho: list[list[SVec]], mu: list[list[SVec]]) -> Table:
    """The skew table of g⋈h on g⊕h, g block first: g's and h's brackets and [e_i, f_a] =
    −μ(f_a)e_i + ρ(e_i)f_a, for sparse columns rho[i][a] = ρ(e_i)f_a and mu[a][i] =
    μ(f_a)e_i.  Number-generic: on `integral` tables it stays on ``int``."""
    n = g.dim
    sc = dict(g)
    sc.update({(n + a, n + b): {n + k: c for k, c in comp.items()} for (a, b), comp in h.items()})
    for i, cols in enumerate(rho):
        for a, col in enumerate(cols):
            comp = {k: -c for k, c in mu[a][i].items()}
            for k, c in col.items():
                comp[n + k] = c
            if comp:
                sc[i, n + a] = comp
    return Table._of(n + h.dim, sc, True)


@verified
def jacobi_check(L: LieAlgebra) -> Certificate:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0 for all i<j<k.

    On the integer table D·sc the Jacobiator comes out D² times too large.
    """
    sc, den = integral(L.sc)
    rows = sc.rows()
    return scan("jacobi", (((i, j, k), jacobiator(rows, rows, i, j, k))
                           for i, j, k in combinations(range(L.dim), 3)), den * den)


class Representation(Checked):
    """Matrices rho(e_i) acting on a module space W."""

    __slots__ = ("algebra", "module_dim", "rho", "labels")

    def __init__(self, algebra: LieAlgebra, module_dim: int, rho, labels=None, check: bool = True):
        self.algebra = algebra
        self.module_dim = module_dim
        self.rho = tuple(rho)
        self.labels = tuple(labels) if labels is not None else default_basis(module_dim, "w")
        if len(self.rho) != algebra.dim:
            raise ValueError("need one matrix per basis vector of the algebra")
        for m in self.rho:
            if m.rows != module_dim or m.cols != module_dim:
                raise ValueError("representation matrix shape mismatch")
        if len(self.labels) != module_dim:
            raise ValueError("module label count must equal module_dim")
        if check:
            require(is_representation(self))

    @classmethod
    def zero(cls, algebra: LieAlgebra, module_dim: int, labels=None) -> "Representation":
        z = Mat.zeros(module_dim, module_dim)
        return cls(algebra, module_dim, [z] * algebra.dim, labels, check=False)

    def __eq__(self, other) -> bool:
        # labels only name the module basis, so they do not enter equality
        return (
            isinstance(other, Representation)
            and self.algebra == other.algebra
            and self.module_dim == other.module_dim
            and self.rho == other.rho
        )

    def rho_vec(self, x: Vec) -> Mat:
        """rho extended linearly to an arbitrary vector of the algebra."""
        return mat_comb(self.rho, {i: c for i, c in enumerate(x) if c != 0},
                        self.module_dim, self.module_dim)


@verified
def is_representation(rep: Representation) -> Certificate:
    """rho([e_i,e_j]) == rho(e_i)rho(e_j) − rho(e_j)rho(e_i) for all i<j.

    The residual at (i, j), entry (a, b), is J(e_i, e_j, w_b) at w_a on the integer
    table of g⋉W under one scale D (so D² times too large).  Every product J reads
    there lands in W, so `rows` serves as its own W-block, with w_a at n + a.
    """
    n, m = rep.algebra.dim, rep.module_dim
    sc, *cols, den = integral(rep.algebra.sc, *[scols(x) for x in rep.rho])
    # the rows of g⋉W as `double_table` would give them: [e_i, w_b] = ρ(e_i)w_b = −[w_b, e_i]
    rows, wrows = sc.rows(), [{} for _ in range(m)]
    for i, row in enumerate(rows):
        for b, col in enumerate(cols[i]):
            if col:
                row[n + b] = {n + k: c for k, c in col.items()}
                wrows[b][i] = {n + k: -c for k, c in col.items()}
    rows += wrows

    def residual(i, j):
        return {(a - n, b): c for b in range(m)
                for a, c in jacobiator(rows, rows, i, j, n + b).items()}
    return scan("representation", (((i, j), residual(i, j))
                                   for i, j in combinations(range(n), 2)), den * den)


def coadjoint_cols(rows: Rows, n: int) -> list[list[SVec]]:
    """ad*(e_x)eʸ = −Σ_z (e_x·e_z)_y eᶻ for every x and y, as sparse columns."""
    cols: list[list[SVec]] = [[{} for _ in range(n)] for _ in rows]
    for x, row in enumerate(rows):
        for z, comp in row.items():
            for y, c in comp.items():
                cols[x][y][z] = -c
    return cols


def _ad_mats(L: LieAlgebra, dual: bool) -> list[Mat]:
    """ad(e_i), or ad*(e_i) = −ad(e_i)ᵀ, for every i, filled from their sparse columns."""
    n, rows = L.dim, L.sc.rows()
    mats = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for m, cols in zip(mats, coadjoint_cols(rows, n) if dual else rows):
        for j, col in enumerate(cols) if dual else cols.items():
            for k, c in col.items():
                m[k][j] = c
    return [Mat._of(m) for m in mats]


def adjoint_rep(L: LieAlgebra) -> Representation:
    return Representation(L, L.dim, _ad_mats(L, False), labels=L.basis, check=False)


def coadjoint_rep(L: LieAlgebra) -> Representation:
    """ad*(x) = −ad(x)ᵀ on dual coordinates."""
    return Representation(L, L.dim, _ad_mats(L, True), labels=dual_basis(L.basis), check=False)


def dual_rep(rep: Representation) -> Representation:
    """rho*(e_i) = −rho(e_i)ᵀ on W*."""
    return Representation(
        rep.algebra,
        rep.module_dim,
        [-m.transpose() for m in rep.rho],
        labels=dual_basis(rep.labels),
        check=False,
    )


@verified
def semidirect(L: LieAlgebra, rep: Representation) -> LieAlgebra:
    """Semidirect product on g⊕W: [x+u, y+v] = [x,y] + rho(x)v − rho(y)u."""
    require(is_representation(rep))
    n, m = L.dim, rep.module_dim
    sc = double_table(L.sc, Table._of(m, {}, True), [scols(x) for x in rep.rho], [[{}] * n] * m)
    return LieAlgebra(n + m, L.basis + rep.labels, sc, check=False)


class BilinForm:
    """Symmetric bilinear form by its Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: Mat):
        if not gram.is_symmetric():
            raise ValueError("gram matrix must be symmetric")
        self.gram = gram

    def __eq__(self, other) -> bool:
        return isinstance(other, BilinForm) and self.gram == other.gram

    @property
    def dim(self) -> int:
        return self.gram.rows

    def eval(self, x: Vec, y: Vec) -> Fraction:
        return sum((a * b for a, b in zip(x, self.gram.apply(y))), ZERO)

    def is_nondegenerate(self) -> bool:
        return self.gram.det() != 0


@verified
def is_invariant_form(L: LieAlgebra, S: BilinForm) -> Certificate:
    """S([e_i,e_j],e_k) + S(e_j,[e_i,e_k]) = 0 over all basis triples."""
    if S.dim != L.dim:
        raise ValueError("form dimension does not match the algebra")
    n = L.dim
    gram, g = integral(scols(S.gram))
    sc, den = integral(L.sc)
    rows = sc.rows()
    # S([e_i,e_j], e_k) is entry k of S[e_i,e_j], and S(e_j,[e_i,e_k]) = S([e_i,e_k], e_j)
    # because the gram matrix S is symmetric; on the integer tables both are g·D times too large
    s = [[sapply(gram, rows[i].get(j, {})) for j in range(n)] for i in range(n)]
    return scan("invariant-form", (((i, j, k), s[i][j].get(k, 0) + s[i][k].get(j, 0))
                                   for i, j, k in product(range(n), repeat=3)), g * den)


@verified
def is_quadratic(L: LieAlgebra, S: BilinForm) -> Certificate:
    """Invariance plus nondegeneracy (exact determinant ≠ 0)."""
    inv = is_invariant_form(L, S)
    if S.is_nondegenerate():
        nd = Certificate.passed("nondegenerate")
    else:
        nd = Certificate(check="nondegenerate", ok=False, note="gram determinant is 0")
    return Certificate.combine("quadratic", [inv, nd])


def s_sharp(S: BilinForm) -> Mat:
    """The gram matrix viewed as the map g→g*, x ↦ S(x,·)."""
    if not S.is_nondegenerate():
        raise ValueError("degenerate form has no musical isomorphism")
    return S.gram


def i_s(S: BilinForm) -> Mat:
    """Inverse musical map g*→g (called I_S below the r-matrix pipeline)."""
    if not S.is_nondegenerate():
        raise ValueError("degenerate form has no musical isomorphism")
    return S.gram.inverse()
