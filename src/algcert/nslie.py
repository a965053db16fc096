"""NS-Lie algebras: two products, one skew, generalizing Lie and pre-Lie.

The product x◁y (stored as a full table `left`) carries no symmetry; x▷y
(stored one-sided as `wedge`) is skew.  The commutator
[x,y] = x◁y - y◁x + x▷y is a Lie bracket whenever the two NS identities
hold.
"""

from __future__ import annotations

from itertools import combinations, groupby, product

from .certificates import Certificate, Checked, require, scan, verified
from .exact import (Table, Vec, integral, mat_comb, pack, products, saxpy, slot_width, table_rows,
                    unpack)
from .lie import LieAlgebra, block_entries, default_basis, jacobiator, mult_mats, pair_blocks
from .reynolds import ReynoldsLieAlgebra, ReynoldsRep


class NSLieAlgebra(Checked, gate=lambda A: is_nslie(A)):
    __slots__ = ("dim", "basis", "left", "wedge")

    def __init__(self, dim: int, basis=None, left=None, wedge=None):
        self.dim = dim
        self.basis = tuple(basis) if basis is not None else default_basis(dim)
        if len(self.basis) != dim:
            raise ValueError("basis label count must equal dim")
        self.left = Table(dim, left)
        self.wedge = Table(dim, wedge, skew=True)

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
        return tuple([a - b + c for a, b, c in zip(self.left_prod(x, y), self.left_prod(y, x),
                                                    self.wedge_prod(x, y))])


def _commutator(left: dict, wedge: dict, n: int) -> dict:
    """[e_i,e_j] = e_i◁e_j - e_j◁e_i + e_i▷e_j as a skew integer table (cancelled zeros kept),
    from the integer tables ◁ and ▷ (skew) on dimension n, on one scale."""
    left, wedge = table_rows(left, n), table_rows(wedge, n, True)
    return {(i, j): saxpy(saxpy(dict(left[i].get(j, {})), -1, left[j].get(i, {})),
                          1, wedge[i].get(j, {}))
            for i, j in combinations(range(n), 2)}


def _identity_1(comm: dict, left: dict, n: int):
    """NS identity 1, (x◁y)◁z - x◁(y◁z) - (y◁x)◁z + y◁(x◁z) + (x▷y)◁z
    = [x,y]◁z - x◁(y◁z) + y◁(x◁z), of integer tables ◁ and ▷ (skew) on dimension n, from ◁
    and their commutator: ((i, j, k), v) where it is nonzero, i<j, in lexicographic order.
    It says x ↦ (x◁·) represents the commutator, so v is column k of the `pair_blocks`
    matrix at (i, j) of [,] and the matrices x◁·.
    """
    w, values = pair_blocks(comm, table_rows(left, n), n)
    for (i, j), v in values:
        for k, col in groupby(unpack(v, w).items(), lambda e: e[0] // n):
            yield (i, j, k), {x % n: c for x, c in col}


def _identity_2(comm: dict, left: dict, wedge: dict, n: int, lo: int = 0):
    """NS identity 2, Σ_cyc z▷[x,y] + z◁(x▷y), as `lie.jacobiator`'s
    J(x, y, z) = Σ_cyc Σ_m T(x,y)_m·outer[z][m]: returns the skew table
    T(e_a,e_b) = [e_a,e_b] ⊕ e_a▷e_b (▷ from slot n on), outer[c], which packs
    (e_c▷e_m | e_c◁e_m) cut to the components from lo on, and the slot width of J on them,
    for integer tables ◁, ▷ (skew) and their commutator on dimension n."""
    table = {key: {**comp, **{n + k: c for k, c in wedge[key].items()}} if key in wedge else comp
             for key, comp in comm.items()}
    if lo:
        wedge, left = ({key: {k - lo: c for k, c in comp.items() if k >= lo}
                        for key, comp in t.items()} for t in (wedge, left))
    w = slot_width((3, table, [*wedge.values(), *left.values()]))
    outer = [[0] * (2 * n) for _ in range(n)]
    for (a, b), comp in wedge.items():
        outer[a][b] = x = pack(comp, w)
        outer[b][a] = -x
    for (a, b), comp in left.items():
        outer[a][n + b] = pack(comp, w)
    return table, outer, w


@verified
def is_nslie(A: NSLieAlgebra) -> Certificate:
    """Both NS identities over all ordered basis triples, one triple per symmetry orbit.

    Identity 1 is skew in (x, y), [y,x] = −[x,y] exactly and the other two terms swap, so
    `scan` visits i<j with every k and counts two; identity 2 is cyclic and skew in (x, y)
    as T is, so it visits i<j<k and counts six.  On the integer tables D·◁ and D·▷ both
    come out D² times too large.
    """
    n = A.dim
    left, wedge, den = integral(A.left, A.wedge)
    comm = _commutator(left, wedge, n)
    table, outer, w = _identity_2(comm, left, wedge, n)
    return Certificate.combine("nslie", [
        scan("ns-identity-1", _identity_1(comm, left, n), den * den, orbit=lambda t: 2),
        scan("ns-identity-2", ((t, jacobiator(table, outer, *t))
                               for t in combinations(range(n), 3)),
             den * den, lambda v: unpack(v, w), orbit=lambda t: 6)])


@verified
def ns_from_reynolds(A: ReynoldsLieAlgebra) -> NSLieAlgebra:
    """x◁y = [Rx,y], x▷y = -[Rx,Ry]: the `products` of R's columns with the basis, then of
    those rows with R's columns."""
    L, R = A.L, A.R
    n = L.dim
    adr = products(table_rows(L.sc.ientries, n, True), R.icols)   # adr[i][j] = D·d·[Re_i, e_j]
    rr = products(adr, None, R.icols)                               # rr[i][j] = D·d²·[Re_i, Re_j]
    left = {(i, j): adr[i][j] for i in range(n) for j in range(n) if j in adr[i]}
    wedge = {(i, j): {k: -c for k, c in rr[i].get(j, {}).items()}
             for i, j in combinations(range(n), 2)}
    return NSLieAlgebra.unchecked(n, L.basis, Table._of(n, left, False, L.sc.den * R.den),
                                  Table._of(n, wedge, True, L.sc.den * R.den ** 2))


def ns_commutator(A: NSLieAlgebra) -> LieAlgebra:
    """The commutator Lie algebra of a (valid) NS-Lie algebra."""
    left, wedge, den = integral(A.left, A.wedge)
    return LieAlgebra(A.dim, A.basis, Table._of(A.dim, _commutator(left, wedge, A.dim), True, den))


class NSRep(Checked, gate=lambda rep: is_ns_rep(rep)):
    __slots__ = ("base", "module_dim", "varrho", "mu", "nu", "labels")

    def __init__(self, base: NSLieAlgebra, module_dim: int, varrho, mu, nu, labels=None):
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


def _semidirect_tables(left: dict, wedge: dict, mats: list, n: int) -> tuple[dict, dict]:
    """◁ and ▷ of G⊕W as integer tables, W's basis after G's: e_i◁w = mu(e_i)w,
    w◁e_i = nu(e_i)w, e_i▷w = varrho(e_i)w, and W◁W = W▷W = 0, from G's integer tables on
    dimension n and the integer columns `mats` of mu, nu and varrho in turn, on one scale."""
    left, wedge = dict(left), dict(wedge)
    for i in range(n):
        for b, (mu, nu, vr) in enumerate(zip(mats[i], mats[n + i], mats[2 * n + i])):
            for table, key, col in ((left, (i, n + b), mu), (left, (n + b, i), nu),
                                    (wedge, (i, n + b), vr)):
                if col:
                    table[key] = {n + k: c for k, c in col.items()}
    return left, wedge


@verified
def is_ns_rep(rep: NSRep) -> Certificate:
    """The three NS-representation identities over all basis pairs.

    (W; varrho, mu, nu) is an NS-representation exactly when the semidirect product G⊕W
    satisfies the NS identities on every triple with one vector in W; the other triples
    are G's own or 0.  So each stage is an m×m matrix at (i, j), entry (a, b) in the slot
    b·m + a, whose entry (a, b) is the w_a-component of
    - ns-rep-1: identity 1 at (e_i, e_j, w_b), mu([e_i,e_j]) − [mu(e_i), mu(e_j)]: the
      `pair_blocks` matrix of mu on G's commutator;
    - ns-rep-2: identity 1 at (e_i, w_b, e_j), nu(e_i◁e_j) + nu(e_j)·s(e_i) − mu(e_i)·nu(e_j)
      for s = mu − nu + varrho: the `pair_blocks` matrix of ◁, nu, mu and s over every
      ordered pair;
    - ns-rep-3: identity 2 at (e_i, e_j, w_b), the W-block of `_identity_2` on
      `_semidirect_tables`, one `jacobiator` per b.
    ns-rep-1 and ns-rep-3 are skew in (i, j), as identities 1 and 2 are in (x, y): they
    visit i<j and count two.
    """
    n, md = rep.base.dim, rep.module_dim
    g_left, g_wedge, *maps, d = integral(rep.base.left, rep.base.wedge, *rep.mu, *rep.nu,
                                            *rep.varrho)
    mu, nu, vr = maps[:n], maps[n:2 * n], maps[2 * n:]
    s = [[saxpy(saxpy(dict(a), -1, b), 1, c) for a, b, c in zip(*abc)] for abc in zip(mu, nu, vr)]
    w1, ns1 = pair_blocks(_commutator(g_left, g_wedge, n), mu, md)
    w2, ns2 = pair_blocks(g_left, nu, md, product(range(n), repeat=2), mu, s)
    left, wedge = _semidirect_tables(g_left, g_wedge, maps, n)
    table, outer, w3 = _identity_2(_commutator(left, wedge, n + md), left, wedge, n + md, n)

    def ns3(i, j):
        return sum([jacobiator(table, outer, i, j, n + b) << b * md * w3 for b in range(md)])
    return Certificate.combine("ns-rep", [
        scan("ns-rep-1", ns1, d * d, lambda v: block_entries(v, md, w1), orbit=lambda ij: 2),
        scan("ns-rep-2", ns2, d * d, lambda v: block_entries(v, md, w2)),
        scan("ns-rep-3", (((i, j), ns3(i, j)) for i, j in combinations(range(n), 2)),
             d * d, lambda v: block_entries(v, md, w3), orbit=lambda ij: 2)])


def regular_rep(A: NSLieAlgebra) -> NSRep:
    """(G; Ad, left-◁, right-◁): Ad_x y = x▷y, mu(x)y = x◁y, nu(x)y = y◁x."""
    return NSRep.unchecked(A, A.dim, mult_mats(A.wedge), mult_mats(A.left),
                           mult_mats(A.left, right=True), labels=A.basis)


@verified
def ns_semidirect(rep: NSRep) -> NSLieAlgebra:
    """Semidirect product NS-Lie algebra on G⊕W."""
    require(rep.gate())
    if rep.module_dim == 0:
        return rep.base
    A, m = rep.base, rep.base.dim + rep.module_dim
    left, wedge, *maps, den = integral(A.left, A.wedge, *rep.mu, *rep.nu, *rep.varrho)
    left, wedge = _semidirect_tables(left, wedge, maps, A.dim)
    return NSLieAlgebra.unchecked(m, rep.base.basis + rep.labels, Table._of(m, left, False, den),
                                  Table._of(m, wedge, True, den))


@verified
def ns_rep_from_reynolds_rep(rr: ReynoldsRep) -> NSRep:
    """varrho(x) = -rho(Rx)T, mu(x) = rho(Rx), nu(x) = -rho(x)T on the induced NS-Lie algebra."""
    require(rr.gate())
    base = ns_from_reynolds(rr.base)
    R, T, rep = rr.base.R, rr.T, rr.rep
    mu = [mat_comb(rep.rho, col, rep.module_dim, rep.module_dim, R.den)
          for col in R.icols]       # rho(Re_i)
    return NSRep.unchecked(base, rep.module_dim, [-(m @ T) for m in mu], mu,
                           [-(m @ T) for m in rep.rho], labels=rep.labels)
