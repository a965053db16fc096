"""Lie algebras by exact structure constants, representations and bilinear forms.

Structure constants are stored sparsely for i<j only; the bracket is skew
by reconstruction, so [e_j,e_i] = -[e_i,e_j] and [e_i,e_i] = 0 hold by
construction.  Checked constructors enforce the Jacobi identity; check
operations accept unchecked data so they can report violations.

Composite spaces always order blocks first factor then second factor.
"""

from __future__ import annotations

import sys
from itertools import combinations, combinations_with_replacement

from .certificates import _LEAVES, Certificate, Checked, entail, require, scan, verified
from .exact import (Mat, Rows, SVec, Table, Vec, integral, mat_comb, pack, sapply, slot_width,
                    table_rows, unpack)


def default_basis(dim: int, prefix: str = "e") -> tuple[str, ...]:
    return tuple(f"{prefix}{k}" for k in range(dim))


def dual_basis(basis: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"{b}*" for b in basis)


class LieAlgebra(Checked, gate=lambda L: jacobi_check(L)):
    """Finite-dimensional Lie algebra over Q given by structure constants.  `given`, passed
    hypotheses of a theorem, entails the Jacobi identity: the gate is then a memo hit."""

    __slots__ = ("dim", "basis", "sc")

    def __init__(self, dim: int, basis=None, sc=None, given=()):
        self.dim = dim
        self.basis = tuple(basis) if basis is not None else default_basis(dim)
        if len(self.basis) != dim:
            raise ValueError("basis label count must equal dim")
        self.sc = Table(dim, sc, skew=True)
        entail(jacobi_check, (self,), "jacobi", given)

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
        """Adjoint-action matrix of e_i: columns [e_i, e_j], read off e_i's row of the table."""
        n, sc = self.dim, self.sc.ientries
        return Mat._of(n, n, [dict(sc.get((i, j), {})) if i < j else
                              {k: -c for k, c in sc.get((j, i), {}).items()} for j in range(n)],
                       self.sc.den)

    def ad_vec(self, x: Vec) -> Mat:
        v = {i: c for i, c in enumerate(x) if c != 0}
        return mat_comb({i: self.ad(i) for i in v}, v, self.dim, self.dim)


def bracket(L: LieAlgebra, x: Vec, y: Vec) -> Vec:
    return L.bracket(x, y)


def jacobiator(table: dict, outer: list[list[int]], x: int, y: int, z: int) -> int:
    """J(e_x,e_y,e_z) = Σ_cyc Σ_m table(e_a,e_b)_m·outer[c][m], packed.

    `table` is a skew integer table ([e_b,e_a] = −[e_a,e_b] is read off the key (a, b)), and
    each `outer[c][m]` a packed vector, so each term is one bigint multiply-add.  With
    `outer[c][m]` = e_m·e_c cut to the output block the caller reads (`packed_outer`), J is
    the Jacobiator Σ_cyc [[e_a,e_b],e_c]: every Jacobi-type check is a block of it on a
    `double_table`, D² times too large on an integer table D·sc.  NS identity 2 is J on the
    stacked table and `outer` of `nslie._identity_2`.  Whoever builds `outer` returns the
    slot width: 3 sums of a product's coefficients times packed vectors of `outer`.
    """
    acc = 0
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        prod = table.get((a, b) if a < b else (b, a))
        if prod:
            col, t = outer[c], 0
            for m, coeff in prod.items():
                t += coeff * col[m]
            acc = acc + t if a < b else acc - t
    return acc


def packed_outer(table: dict, n: int, lo: int = 0,
                 hi: int = sys.maxsize) -> tuple[list[list[int]], int]:
    """outer[c][m] = e_m·e_c of a skew integer table on dimension n, its components in
    [lo, hi) packed from slot 0, and the slot width of `jacobiator` on the table and it."""
    cut = {key: {k - lo: c for k, c in comp.items() if lo <= k < hi}
           for key, comp in table.items()} if lo or hi < n else table
    w = slot_width((3, table, cut))
    outer = [[0] * n for _ in range(n)]
    for (i, j), comp in cut.items():
        outer[j][i] = x = pack(comp, w)
        outer[i][j] = -x
    return outer, w


def block_rows(rows: Rows, lo: int, hi: int) -> Rows:
    """The rows with every product cut to its components in [lo, hi), renumbered from 0."""
    return [{j: {k - lo: c for k, c in comp.items() if lo <= k < hi} for j, comp in row.items()}
            for row in rows]


def double_table(g: dict, h: dict, rho: list[list[SVec]], mu: list[list[SVec]]) -> dict:
    """The skew integer table of g⋈h on g⊕h, g block first: g's and h's brackets and
    [e_i, f_a] = −μ(f_a)e_i + ρ(e_i)f_a, for sparse columns rho[i][a] = ρ(e_i)f_a and
    mu[a][i] = μ(f_a)e_i, all on one scale (`integral`)."""
    n = len(rho)
    sc = dict(g)
    sc.update({(n + a, n + b): {n + k: c for k, c in comp.items()} for (a, b), comp in h.items()})
    for i, cols in enumerate(rho):
        for a, col in enumerate(cols):
            comp = {k: -c for k, c in mu[a][i].items()}
            for k, c in col.items():
                comp[n + k] = c
            if comp:
                sc[i, n + a] = comp
    return sc


@verified
def jacobi_check(L: LieAlgebra) -> Certificate:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0 for all i<j<k.

    On the integer table D·sc the Jacobiator comes out D² times too large.
    """
    sc, den = integral(L.sc)
    outer, w = packed_outer(sc, L.dim)
    return scan("jacobi", (((i, j, k), jacobiator(sc, outer, i, j, k))
                           for i, j, k in combinations(range(L.dim), 3)), den * den,
                lambda v: unpack(v, w))


class Representation(Checked, gate=lambda rep: is_representation(rep)):
    """Matrices rho(e_i) acting on a module space W."""

    __slots__ = ("algebra", "module_dim", "rho", "labels")

    def __init__(self, algebra: LieAlgebra, module_dim: int, rho, labels=None):
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

    @classmethod
    def zero(cls, algebra: LieAlgebra, module_dim: int, labels=None) -> "Representation":
        z = Mat.zeros(module_dim, module_dim)
        return cls.unchecked(algebra, module_dim, [z] * algebra.dim, labels)

    def __eq__(self, other) -> bool:
        # labels only name the module basis, so they do not enter equality
        return isinstance(other, Representation) and all(
            getattr(self, s) == getattr(other, s) for s in ("algebra", "module_dim", "rho"))

    def rho_vec(self, x: Vec) -> Mat:
        """rho extended linearly to an arbitrary vector of the algebra."""
        return mat_comb(self.rho, {i: c for i, c in enumerate(x) if c != 0},
                        self.module_dim, self.module_dim)


@verified
def is_representation(rep: Representation) -> Certificate:
    """rho([e_i,e_j]) == rho(e_i)rho(e_j) − rho(e_j)rho(e_i) for all i<j.

    The residual at (i, j) is the `pair_blocks` matrix on the integer table and ρ's
    integer columns under one scale D (so D² times too large), entry (a, b) in the slot
    b·m + a.
    """
    sc, *cols, den = integral(rep.algebra.sc, *rep.rho)
    w, values = pair_blocks(sc, cols, rep.module_dim)
    return scan("representation", values, den * den, lambda v: block_entries(v, rep.module_dim, w))


def pair_blocks(table: dict, cols: list, m: int, pairs=None, left=None, right=None):
    """The slot width w, and ((i, j), v) for every pair of `pairs` (default: i<j in
    lexicographic order), v the m×m matrix ρ(e_i·e_j) + ρ(e_j)·R(e_i) − L(e_i)·ρ(e_j) packed
    with its column b in the slots b·m to b·m + m − 1, for an integer table (e_i·e_j at the
    key (i, j); for a skew one only i<j is read) on the n = len(cols) basis vectors and
    integer families ρ = `cols`, L = `left` and R = `right` of m×m matrices on one scale,
    each matrix by its m columns (`Mat.icols`; ρ's may be a map from b to the nonzero ones).
    L and R default to ρ, when v = ρ([e_i,e_j]) − [ρ(e_i), ρ(e_j)].  Each column of ρ and L
    is packed once as C_x[b] and each ρ(e_x) once as a whole matrix M_x, so a pair costs its
    nonzeros: Σ_k c_ij^k·M_k, then Σ_k R_i[k,b]·C_j[k] for each nonzero column b of R_i and
    Σ_k ρ_j[k,b]·L_i[k] for each of ρ_j, each shifted once into place: the three terms of
    the slot width."""
    cols = [x if type(x) is dict else {b: c for b, c in enumerate(x) if c} for x in cols]
    rho = [col for x in cols for col in x.values()]
    w = slot_width((1, table, rho),
                   (1, rho if right is None else [col for x in right for col in x], rho),
                   (1, rho, rho if left is None else [col for x in left for col in x]))
    right = cols if right is None else [{b: c for b, c in enumerate(x) if c} for x in right]
    shift, packed, whole = m * w, [], []
    for x in cols:
        px, mx = [0] * m, 0
        for b, col in x.items():
            px[b] = p = pack(col, w)
            mx += p << b * shift
        packed.append(px)
        whole.append(mx)
    left = packed if left is None else [[pack(col, w) for col in x] for x in left]

    def values():
        for i, j in combinations(range(len(cols)), 2) if pairs is None else pairs:
            v = 0
            for k, c in table.get((i, j), {}).items():
                v += c * whole[k]
            pj, li = packed[j], left[i]
            for b, col in right[i].items():
                t = 0
                for k, c in col.items():
                    t += c * pj[k]
                v += t << b * shift
            for b, col in cols[j].items():
                t = 0
                for k, c in col.items():
                    t += c * li[k]
                v -= t << b * shift
            yield (i, j), v
    return w, values()


def block_entries(v: int, m: int, w: int) -> dict:
    """The nonzero entries {(a, b): c} of an m×m matrix packed as `pair_blocks` packs it."""
    return {(k % m, k // m): c for k, c in unpack(v, w).items()}


def coadjoint_cols(rows: Rows, n: int) -> list[list[SVec]]:
    """ad*(e_x)eʸ = −Σ_z (e_x·e_z)_y eᶻ for every x and y, as sparse columns."""
    cols: list[list[SVec]] = [[{} for _ in range(n)] for _ in rows]
    for x, row in enumerate(rows):
        for z, comp in row.items():
            for y, c in comp.items():
                cols[x][y][z] = -c
    return cols


def mult_cols(table: Table, right: bool = False) -> tuple[list[list[SVec]], int]:
    """cols[i][j] = D·e_i·e_j, or D·e_j·e_i when `right`, as fresh dicts: the integer columns
    of left (right) multiplication by e_i, from the table's integer form D·table; and D."""
    n = table.dim
    rows = table_rows(table.ientries, n, table.skew)
    if right:
        rows = [{j: row[i] for j, row in enumerate(rows) if i in row} for i in range(n)]
    return [[dict(row.get(j, {})) for j in range(n)] for row in rows], table.den


def mult_mats(table: Table, right: bool = False) -> list[Mat]:
    """The matrix of x ↦ e_i·x (`right`: x ↦ x·e_i) for every i."""
    cols, den = mult_cols(table, right)
    return [Mat._of(table.dim, table.dim, c, den) for c in cols]


def adjoint_rep(L: LieAlgebra) -> Representation:
    return Representation.unchecked(L, L.dim, mult_mats(L.sc), labels=L.basis)


def coadjoint_rep(L: LieAlgebra) -> Representation:
    """ad*(x) = −ad(x)ᵀ on dual coordinates."""
    rows = table_rows(L.sc.ientries, L.dim, True)
    mats = [Mat._of(L.dim, L.dim, c, L.sc.den) for c in coadjoint_cols(rows, L.dim)]
    return Representation.unchecked(L, L.dim, mats, labels=dual_basis(L.basis))


def dual_rep(rep: Representation) -> Representation:
    """rho*(e_i) = −rho(e_i)ᵀ on W*."""
    return Representation.unchecked(rep.algebra, rep.module_dim,
                                    [-m.transpose() for m in rep.rho], dual_basis(rep.labels))


@verified
def semidirect(L: LieAlgebra, rep: Representation) -> LieAlgebra:
    """Semidirect product on g⊕W: [x+u, y+v] = [x,y] + rho(x)v − rho(y)u.  Its Jacobiator is J of
    g, the gate's residual at (e_i, e_j, w) and 0: the gate and `jacobi_check(L)` entail it."""
    if rep.algebra != L:
        raise ValueError("rep must represent L")
    gate = require(rep.gate())
    n, m = L.dim, rep.module_dim
    sc, *cols, den = integral(L.sc, *rep.rho)
    sc = double_table(sc, {}, cols, [[{}] * n] * m)
    return LieAlgebra(n + m, L.basis + rep.labels, Table._of(n + m, sc, True, den),
                      given=[gate, L.gate()])


class BilinForm:
    """Symmetric bilinear form by its Gram matrix, frozen once built: the certificates keyed
    on a form stay true, so a checked structure that holds one carries them."""

    __slots__ = ("gram",)

    def __init__(self, gram: Mat):
        if not gram.is_symmetric():
            raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)

    def __setattr__(self, name, value):
        raise AttributeError("BilinForm is frozen; build a new one")

    def __eq__(self, other) -> bool:
        return isinstance(other, BilinForm) and self.gram == other.gram

    @property
    def dim(self) -> int:
        return self.gram.rows

    def is_nondegenerate(self) -> bool:
        return self.gram.det() != 0


_LEAVES.add(BilinForm)


@verified
def is_invariant_form(L: LieAlgebra, S: BilinForm) -> Certificate:
    """S([e_i,e_j],e_k) + S(e_j,[e_i,e_k]) = 0 over all basis triples, one per orbit.

    S(e_j,[e_i,e_k]) = S([e_i,e_k],e_j) because `BilinForm` rejects a
    non-symmetric gram matrix, so the value at (i, j, k) is symmetric in (j, k)
    for any bracket: `scan` visits j ≤ k and counts j < k twice.  S[e_i,e_j] is
    skew in (i, j) because the bracket is, so it is built for i<j only.
    """
    if S.dim != L.dim:
        raise ValueError("form dimension does not match the algebra")
    n = L.dim
    gram, g = integral(S.gram)
    sc, den = integral(L.sc)
    # s[i][j][k] = S([e_i,e_j], e_k), on the integer tables g·D times too large
    s: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), comp in sc.items():
        s[i][j] = v = sapply(gram, comp)
        s[j][i] = {k: -c for k, c in v.items()}
    pairs = list(combinations_with_replacement(range(n), 2))
    return scan("invariant-form", (((i, j, k), s[i][j].get(k, 0) + s[i][k].get(j, 0))
                                   for i in range(n) for j, k in pairs),
                g * den, orbit=lambda t: 1 + (t[1] < t[2]))


@verified
def is_quadratic(L: LieAlgebra, S: BilinForm) -> Certificate:
    """Invariance plus nondegeneracy (exact determinant ≠ 0)."""
    nd = Certificate.decide("nondegenerate", S.is_nondegenerate(), "gram determinant is 0")
    return Certificate.combine("quadratic", [is_invariant_form(L, S), nd])


def s_sharp(S: BilinForm) -> Mat:
    """The gram matrix viewed as the map g→g*, x ↦ S(x,·)."""
    if not S.is_nondegenerate():
        raise ValueError("degenerate form has no musical isomorphism")
    return S.gram
