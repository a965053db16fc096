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

from .certificates import Certificate, Checked, require, scan
from .exact import Mat, Table, Vec, ZERO, integral, mat_comb, sapply, saxpy, scols, scomb


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


def jacobi_check(L: LieAlgebra) -> Certificate:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0 for all i<j<k.

    On the integer table D·sc the Jacobiator comes out D² times too large.
    """
    sc, den = integral(L.sc)
    rows = sc.rows()

    def cases():
        for i, j, k in combinations(range(L.dim), 3):
            out = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, coeff in rows[a].get(b, {}).items():
                    saxpy(out, coeff, rows[m].get(c, {}))
            yield (i, j, k), out
    return scan("jacobi", cases(), den * den)


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


def is_representation(rep: Representation) -> Certificate:
    """rho([e_i,e_j]) == rho(e_i)rho(e_j) − rho(e_j)rho(e_i) for all i<j.

    With sc = sc'/D and every rho(e_k) = rho'_k/r on integers, the residual
    is r·Σ sc'_ij^k rho'_k − D·[rho'_i, rho'_j] on the scale D·r².
    """
    L = rep.algebra
    sc, den = integral(L.sc)
    *cols, r = integral(*[scols(m) for m in rep.rho])

    def residual(i, j):
        out = scomb(cols, {k: r * c for k, c in sc.get((i, j), {}).items()}, rep.module_dim)
        for b, col in enumerate(out):
            for k, a in cols[j][b].items():
                saxpy(col, -den * a, cols[i][k])
            for k, a in cols[i][b].items():
                saxpy(col, den * a, cols[j][k])
        return {(a, b): c for b, col in enumerate(out) for a, c in col.items()}
    return scan("representation", (((i, j), residual(i, j))
                                   for i, j in combinations(range(L.dim), 2)), den * r * r)


def _ad_mats(L: LieAlgebra, dual: bool) -> list[Mat]:
    """ad(e_i), or ad*(e_i) = −ad(e_i)ᵀ, for every i, filled from one pass over the table."""
    n = L.dim
    mats = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(L.sc.rows()):
        m = mats[i]
        for j, comp in row.items():
            for k, c in comp.items():
                if dual:
                    m[j][k] = -c
                else:
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


def semidirect(L: LieAlgebra, rep: Representation) -> LieAlgebra:
    """Semidirect product on g⊕W: [x+u, y+v] = [x,y] + rho(x)v − rho(y)u."""
    require(is_representation(rep))
    n, m = L.dim, rep.module_dim
    sc = dict(L.sc)
    for i in range(n):
        for a in range(m):
            col = rep.rho[i].col(a)  # rho(e_i) w_a
            comp = {n + k: c for k, c in enumerate(col) if c != 0}
            if comp:
                sc[(i, n + a)] = comp
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
