"""NS-Lie algebras: two products, one skew, generalizing Lie and pre-Lie.

The product x◁y (stored as a full table `left`) carries no symmetry; x▷y
(stored one-sided as `wedge`) is skew.  The commutator
[x,y] = x◁y - y◁x + x▷y is a Lie bracket whenever the two NS identities
hold.
"""

from __future__ import annotations

from itertools import combinations, product

from .certificates import Certificate, Checked, require, scan, verified
from .exact import (Mat, Table, Vec, integral, mat_comb, precompose, saxpy, scols, sprod, srow,
                    unscale, vadd, vsub)
from .lie import LieAlgebra, default_basis
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


def _commutator(left: Table, wedge: Table) -> Table:
    """[e_i,e_j] = e_i◁e_j - e_j◁e_i + e_i▷e_j as a skew table (cancelled zeros kept)."""
    n, left, wedge = left.dim, left.rows(), wedge.rows()
    return Table._of(n, {(i, j): saxpy(saxpy(dict(left[i].get(j, {})), -1, left[j].get(i, {})),
                                       1, wedge[i].get(j, {}))
                         for i, j in combinations(range(n), 2)}, skew=True)


@verified
def is_nslie(A: NSLieAlgebra) -> Certificate:
    """Both NS identities over all ordered basis triples, one triple per symmetry orbit.

    Identity 1 is (x◁y)◁z - x◁(y◁z) - (y◁x)◁z + y◁(x◁z) + (x▷y)◁z
    = [x,y]◁z - x◁(y◁z) + y◁(x◁z); identity 2 is the cyclic sum of
    x▷[y,z] + x◁(y▷z).  Both are quadratic in the tables, so on the integer
    tables D·◁ and D·▷ they come out D² times too large.

    Identity 1 is skew in (x, y): [y,x] = −[x,y] exactly, because the skew
    tables of ▷ and [,] keep i<j keys and `rows()` negates, and the other two
    terms swap.  Identity 2 is totally skew: it is cyclic by definition and
    skew in (x, y) for the same reason.  A repeated index gives exactly 0, so
    `scan` visits i<j with every k, counted twice, and i<j<k, counted six
    times.  This holds for any tables, valid or not.
    """
    n = A.dim
    left, wedge, den = integral(A.left, A.wedge)
    comm = _commutator(left, wedge).rows()
    left, wedge = left.rows(), wedge.rows()

    def identity1(i, j, k):
        out = sprod(left, comm[i].get(j, {}), {k: 1})
        if k in left[j]:
            srow(out, left[i], {m: -c for m, c in left[j][k].items()})
        if k in left[i]:
            srow(out, left[j], left[i][k])
        return out

    def identity2(i, j, k):
        out = {}
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            if comm[v].get(w):
                srow(out, wedge[u], comm[v][w])
            if w in wedge[v]:
                srow(out, left[u], wedge[v][w])
        return out

    pairs = combinations(range(n), 2)
    return Certificate.combine("nslie", [
        scan("ns-identity-1", (((i, j, k), identity1(i, j, k)) for i, j in pairs for k in range(n)),
             den * den, orbit=lambda t: 2),
        scan("ns-identity-2", ((t, identity2(*t)) for t in combinations(range(n), 3)),
             den * den, orbit=lambda t: 6)])


@verified
def ns_from_reynolds(A: ReynoldsLieAlgebra) -> NSLieAlgebra:
    """x◁y = [Rx,y], x▷y = -[Rx,Ry]."""
    L, R = A.L, A.R
    n = L.dim
    sc, den = integral(L.sc)
    cols, d = integral(scols(R))
    adr = precompose(sc.rows(), cols)   # adr[i][j] = D·d·[Re_i, e_j]
    left = {(i, j): unscale(adr[i][j], den * d) for i in range(n) for j in range(n) if j in adr[i]}
    wedge = {(i, j): unscale(srow({}, adr[i], cols[j]), -den * d * d)
             for i, j in combinations(range(n), 2)}
    return NSLieAlgebra(n, L.basis, left, wedge, check=False)


def ns_commutator(A: NSLieAlgebra) -> LieAlgebra:
    """The commutator Lie algebra of a (valid) NS-Lie algebra."""
    return LieAlgebra(A.dim, A.basis, _commutator(A.left, A.wedge))


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


@verified
def is_ns_rep(rep: NSRep) -> Certificate:
    """The three NS-representation identities over all basis pairs.

    ns-rep-1 and ns-rep-3 are skew in (x, y) for any maps: ▷ and [,] are skew
    (their tables keep i<j keys and `rows()` negates) and the other terms swap in
    pairs, so both are exactly 0 at x = y.  They are evaluated for i<j and counted
    twice.  ns-rep-2 has no such symmetry and runs over every ordered pair.
    """
    A, md = rep.base, rep.module_dim
    n = A.dim
    comm = _commutator(A.left, A.wedge).rows()
    left, wedge = A.left.rows(), A.wedge.rows()
    vr, mu, nu = rep.varrho, rep.mu, rep.nu

    def lin(mats, v):
        return mat_comb(mats, v, md, md)

    def d1(i, j):
        return lin(mu, wedge[i].get(j, {})) - (
            mu[i] @ mu[j] - mu[j] @ mu[i] - lin(mu, left[i].get(j, {}))
            + lin(mu, left[j].get(i, {})))

    def d2(i, j):
        return lin(nu, left[i].get(j, {})) - (
            mu[i] @ nu[j] - nu[j] @ mu[i] + nu[j] @ nu[i] - nu[j] @ vr[i])

    def d3(i, j):
        return lin(nu, wedge[i].get(j, {})) - (
            mu[j] @ vr[i] - vr[i] @ mu[j] + vr[i] @ nu[j] - vr[j] @ nu[i]
            + vr[j] @ vr[i] - vr[i] @ vr[j] + vr[j] @ mu[i] - mu[i] @ vr[j]
            + lin(vr, comm[i].get(j, {})))

    pairs = list(combinations(range(n), 2))
    return Certificate.combine("ns-rep", [
        scan("ns-rep-1", ((ij, d1(*ij)) for ij in pairs), orbit=lambda ij: 2),
        scan("ns-rep-2", ((ij, d2(*ij)) for ij in product(range(n), repeat=2))),
        scan("ns-rep-3", ((ij, d3(*ij)) for ij in pairs), orbit=lambda ij: 2)])


def regular_rep(A: NSLieAlgebra) -> NSRep:
    """(G; Ad, left-◁, right-◁): Ad_x y = x▷y, mu(x)y = x◁y, nu(x)y = y◁x."""
    n = A.dim
    varrho = [Mat.from_cols([A.wedge_basis(i, j) for j in range(n)]) for i in range(n)]
    mu = [Mat.from_cols([A.left_basis(i, j) for j in range(n)]) for i in range(n)]
    nu = [Mat.from_cols([A.left_basis(j, i) for j in range(n)]) for i in range(n)]
    return NSRep(A, n, varrho, mu, nu, labels=A.basis, check=False)


@verified
def ns_semidirect(rep: NSRep) -> NSLieAlgebra:
    """Semidirect product NS-Lie algebra on G⊕W."""
    require(is_ns_rep(rep))
    A, m = rep.base, rep.module_dim
    if m == 0:
        return A
    n = A.dim
    left, wedge = dict(A.left), dict(A.wedge)
    for i in range(n):
        for b in range(m):
            col = rep.mu[i].col(b)  # e_i ◁ w_b
            comp = {n + k: c for k, c in enumerate(col) if c != 0}
            if comp:
                left[(i, n + b)] = comp
            col = rep.nu[i].col(b)  # w_b ◁ e_i
            comp = {n + k: c for k, c in enumerate(col) if c != 0}
            if comp:
                left[(n + b, i)] = comp
            col = rep.varrho[i].col(b)  # e_i ▷ w_b, skew storage needs i < n+b
            comp = {n + k: c for k, c in enumerate(col) if c != 0}
            if comp:
                wedge[(i, n + b)] = comp
    return NSLieAlgebra(n + m, A.basis + rep.labels, left, wedge, check=False)


@verified
def ns_rep_from_reynolds_rep(rr: ReynoldsRep) -> NSRep:
    """varrho(x) = -rho(Rx)T, mu(x) = rho(Rx), nu(x) = -rho(x)T on the induced NS-Lie algebra."""
    from .reynolds import is_reynolds_rep

    require(is_reynolds_rep(rr))
    base = ns_from_reynolds(rr.base)
    L, R, T = rr.base.L, rr.base.R, rr.T
    n = L.dim
    varrho = []
    mu = []
    nu = []
    for i in range(n):
        rho_rx = rr.rep.rho_vec(R.col(i))
        varrho.append(-(rho_rx @ T))
        mu.append(rho_rx)
        nu.append(-(rr.rep.rho[i] @ T))
    return NSRep(base, rr.rep.module_dim, varrho, mu, nu, labels=rr.rep.labels, check=False)
