"""NS-Lie algebras: two products, one skew, generalizing Lie and pre-Lie.

The product x◁y (stored as a full table `left`) carries no symmetry; x▷y
(stored one-sided as `wedge`) is skew.  The commutator
[x,y] = x◁y - y◁x + x▷y is a Lie bracket whenever the two NS identities
hold.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .certificates import Certificate, Checked, require, scan, verified
from .exact import (Table, Vec, integral, mat_comb, precompose, saxpy, sprod, srow, table_rows,
                    vadd, vsub, width)
from .lie import LieAlgebra, block_entries, default_basis, mult_mats, pair_blocks
from .reynolds import ReynoldsLieAlgebra, ReynoldsRep


class NSLieAlgebra(Checked):
    __slots__ = ("dim", "basis", "left", "wedge")

    def __init__(self, dim: int, basis=None, left=None, wedge=None, check: bool = True):
        self.dim = dim
        self.basis = tuple(basis) if basis is not None else default_basis(dim)
        if len(self.basis) != dim:
            raise ValueError("basis label count must equal dim")
        self.left = Table(dim, left)
        self.wedge = Table(dim, wedge, skew=True)
        if check:
            require(is_nslie(self))

    def left_basis(self, i: int, j: int) -> Vec:
        return self.left.basis_prod(i, j)

    def wedge_basis(self, i: int, j: int) -> Vec:
        return self.wedge.basis_prod(i, j)

    def left_prod(self, x: Vec, y: Vec) -> Vec:
        return self.left.prod(x, y)

    def wedge_prod(self, x: Vec, y: Vec) -> Vec:
        return self.wedge.prod(x, y)

    def comm(self, x: Vec, y: Vec) -> Vec:
        """[x,y] = x◁y - y◁x + x▷y."""
        return vadd(vsub(self.left_prod(x, y), self.left_prod(y, x)), self.wedge_prod(x, y))


def _commutator(left: dict, wedge: dict, n: int) -> dict:
    """[e_i,e_j] = e_i◁e_j - e_j◁e_i + e_i▷e_j as a skew integer table (cancelled zeros kept),
    from the integer tables ◁ and ▷ (skew) on dimension n, on one scale."""
    left, wedge = table_rows(left, n), table_rows(wedge, n, True)
    return {(i, j): saxpy(saxpy(dict(left[i].get(j, {})), -1, left[j].get(i, {})),
                          1, wedge[i].get(j, {}))
            for i, j in combinations(range(n), 2)}


def _identities(left: dict, wedge: dict, n: int):
    """The two NS identities of the integer tables ◁ and ▷ (skew) on dimension n.

    Identity 1 is (x◁y)◁z - x◁(y◁z) - (y◁x)◁z + y◁(x◁z) + (x▷y)◁z
    = [x,y]◁z - x◁(y◁z) + y◁(x◁z), so it says x ↦ (x◁·) represents the commutator;
    identity 2 is the cyclic sum of x▷[y,z] + x◁(y▷z).  Returns ``(ns1, id1, id2)``:
    id1 and id2 give an identity at a basis triple as a sparse vector; ns1(w) yields
    ((i, j, k), id1(i, j, k)) where it is nonzero, i<j, in lexicographic order, as the
    columns of the `pair_blocks` matrices of [,] and x◁· on slots of width w.  Both
    identities are quadratic in the tables, so on the integer tables D·◁ and D·▷ of
    `integral` they come out D² times too large.

    Identity 1 is skew in (x, y): [y,x] = −[x,y] exactly, because the skew
    tables of ▷ and [,] keep i<j keys and `table_rows` negates, and the other two
    terms swap.  Identity 2 is totally skew: it is cyclic by definition and
    skew in (x, y) for the same reason.  A repeated index gives exactly 0.
    This holds for any tables, valid or not.
    """
    table = _commutator(left, wedge, n)
    comm = table_rows(table, n, True)
    left, wedge = table_rows(left, n), table_rows(wedge, n, True)

    def ns1(w):
        for (i, j), v in pair_blocks(table, left, n, w):
            if not v:
                continue
            cols: dict = {}
            for (a, k), c in block_entries(v, n, w).items():
                cols.setdefault(k, {})[a] = c
            yield from (((i, j, k), col) for k, col in cols.items())

    def id1(i, j, k):
        out = sprod(left, comm[i].get(j, {}), {k: 1})
        if k in left[j]:
            srow(out, left[i], {m: -c for m, c in left[j][k].items()})
        if k in left[i]:
            srow(out, left[j], left[i][k])
        return out

    def id2(i, j, k):
        out = {}
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            if comm[v].get(w):
                srow(out, wedge[u], comm[v][w])
            if w in wedge[v]:
                srow(out, left[u], wedge[v][w])
        return out
    return ns1, id1, id2


@verified
def is_nslie(A: NSLieAlgebra) -> Certificate:
    """Both NS identities over all ordered basis triples, one triple per symmetry orbit.

    By the symmetries of `_identities`, `scan` visits i<j with every k for
    identity 1, counted twice, and i<j<k for identity 2, counted six times.
    Identity 1 at (i, j, k) is column k of the `pair_blocks` matrix at (i, j), in the
    slots k·n to k·n + n − 1.  The commutator's coefficients reach 3·top, so an entry of
    that matrix is at most 3n·top² + 2n·top²: its slots hold 5n·top².
    """
    n = A.dim
    left, wedge, den, top = integral(A.left, A.wedge)
    ns1, _, id2 = _identities(left, wedge, n)
    return Certificate.combine("nslie", [
        scan("ns-identity-1", ns1(width(5 * n * top ** 2)), den * den, orbit=lambda t: 2),
        scan("ns-identity-2", ((t, id2(*t)) for t in combinations(range(n), 3)),
             den * den, orbit=lambda t: 6)])


@verified
def ns_from_reynolds(A: ReynoldsLieAlgebra) -> NSLieAlgebra:
    """x◁y = [Rx,y], x▷y = -[Rx,Ry]."""
    L, R = A.L, A.R
    n = L.dim
    adr = precompose(table_rows(L.sc.ientries, n, True), R.icols)   # adr[i][j] = D·d·[Re_i, e_j]
    left = {(i, j): adr[i][j] for i in range(n) for j in range(n) if j in adr[i]}
    wedge = {(i, j): {k: -c for k, c in srow({}, adr[i], R.icols[j]).items()}
             for i, j in combinations(range(n), 2)}
    return NSLieAlgebra(n, L.basis, Table._of(n, left, False, L.sc.den * R.den),
                        Table._of(n, wedge, True, L.sc.den * R.den ** 2), check=False)


def ns_commutator(A: NSLieAlgebra) -> LieAlgebra:
    """The commutator Lie algebra of a (valid) NS-Lie algebra."""
    left, wedge, den, _ = integral(A.left, A.wedge)
    return LieAlgebra(A.dim, A.basis, Table._of(A.dim, _commutator(left, wedge, A.dim), True, den))


class NSRep(Checked):
    __slots__ = ("base", "module_dim", "varrho", "mu", "nu", "labels")

    def __init__(self, base: NSLieAlgebra, module_dim: int, varrho, mu, nu,
                 labels=None, check: bool = True):
        self.base = base
        self.module_dim = module_dim
        self.varrho = tuple(varrho)
        self.mu = tuple(mu)
        self.nu = tuple(nu)
        self.labels = tuple(labels) if labels is not None else default_basis(module_dim, "w")
        for group in (self.varrho, self.mu, self.nu):
            if len(group) != base.dim:
                raise ValueError("need one matrix per basis vector")
            for m in group:
                if m.rows != module_dim or m.cols != module_dim:
                    raise ValueError("action matrix shape mismatch")
        if check:
            require(is_ns_rep(self))


def _semidirect_tables(rep: NSRep) -> tuple[Table, Table]:
    """◁ and ▷ of G⊕W, W's basis after G's: e_i◁w = mu(e_i)w, w◁e_i = nu(e_i)w,
    e_i▷w = varrho(e_i)w, and W◁W = W▷W = 0."""
    A, n = rep.base, rep.base.dim
    left, wedge, *mats, den, _ = integral(A.left, A.wedge, *rep.mu, *rep.nu, *rep.varrho)
    left, wedge = dict(left), dict(wedge)
    for i in range(n):
        for b, (mu, nu, vr) in enumerate(zip(mats[i], mats[n + i], mats[2 * n + i])):
            for table, key, col in ((left, (i, n + b), mu), (left, (n + b, i), nu),
                                    (wedge, (i, n + b), vr)):
                if col:
                    table[key] = {n + k: c for k, c in col.items()}
    m = n + rep.module_dim
    return Table._of(m, left, False, den), Table._of(m, wedge, True, den)


@verified
def is_ns_rep(rep: NSRep) -> Certificate:
    """The three NS-representation identities over all basis pairs.

    (W; varrho, mu, nu) is an NS-representation exactly when the semidirect
    product G⊕W satisfies the NS identities on every triple with one vector in
    W; the other triples are G's own or 0.  So the stages are those identities
    of `_semidirect_tables`, entry (a, b) at (i, j) their w_a-component at
    ns-rep-1: id1(e_i, e_j, w_b), ns-rep-2: id1(e_i, w_b, e_j) and
    ns-rep-3: id2(e_i, e_j, w_b).  ns-rep-1 and ns-rep-3 are skew in (i, j), by
    the symmetries of `_identities`, and are evaluated for i<j and counted
    twice; ns-rep-2 runs over every ordered pair.  ns-rep-1 is the `pair_blocks`
    matrix of mu on G's commutator, entry (a, b) in the slot b·m + a, whose entries are
    at most (3n + 2m)·top².
    """
    n, md = rep.base.dim, rep.module_dim
    g_left, g_wedge, *mu, d, top = integral(rep.base.left, rep.base.wedge, *rep.mu)
    w = width((3 * n + 2 * md) * top ** 2)
    left, wedge, den, _ = integral(*_semidirect_tables(rep))
    _, id1, id2 = _identities(left, wedge, n + md)

    def matrix(vecs):
        """{(a, b): c} from the vectors {n + a: c} at w_0, w_1, ..."""
        return {(a - n, b): c for b, v in enumerate(vecs) for a, c in v.items()}

    W = range(n, n + md)
    return Certificate.combine("ns-rep", [
        scan("ns-rep-1", pair_blocks(_commutator(g_left, g_wedge, n), mu, md, w), d * d,
             lambda v: block_entries(v, md, w), orbit=lambda ij: 2),
        scan("ns-rep-2", (((i, j), matrix(id1(i, u, j) for u in W))
                          for i, j in product(range(n), repeat=2)), den * den),
        scan("ns-rep-3", (((i, j), matrix(id2(i, j, u) for u in W))
                          for i, j in combinations(range(n), 2)),
             den * den, orbit=lambda ij: 2)])


def regular_rep(A: NSLieAlgebra) -> NSRep:
    """(G; Ad, left-◁, right-◁): Ad_x y = x▷y, mu(x)y = x◁y, nu(x)y = y◁x."""
    return NSRep(A, A.dim, mult_mats(A.wedge), mult_mats(A.left), mult_mats(A.left, right=True),
                 labels=A.basis, check=False)


@verified
def ns_semidirect(rep: NSRep) -> NSLieAlgebra:
    """Semidirect product NS-Lie algebra on G⊕W."""
    require(is_ns_rep(rep))
    if rep.module_dim == 0:
        return rep.base
    return NSLieAlgebra(rep.base.dim + rep.module_dim, rep.base.basis + rep.labels,
                        *_semidirect_tables(rep), check=False)


@verified
def ns_rep_from_reynolds_rep(rr: ReynoldsRep) -> NSRep:
    """varrho(x) = -rho(Rx)T, mu(x) = rho(Rx), nu(x) = -rho(x)T on the induced NS-Lie algebra."""
    from .reynolds import is_reynolds_rep

    require(is_reynolds_rep(rr))
    base = ns_from_reynolds(rr.base)
    R, T, rep = rr.base.R, rr.T, rr.rep
    mu = [mat_comb(rep.rho, {k: Fraction(c, R.den) for k, c in col.items()}, rep.module_dim,
                   rep.module_dim) for col in R.icols]       # rho(Re_i)
    return NSRep(base, rep.module_dim, [-(m @ T) for m in mu], mu, [-(m @ T) for m in rep.rho],
                 labels=rep.labels, check=False)
