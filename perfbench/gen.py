"""Seeded input generators.

Every family is a Lie algebra of square matrices given by a list of basis
matrices.  Structure constants, the projection operator and the trace form
are computed here with plain ``Fraction`` arithmetic, never with the code
under test, so every expected verdict follows from the construction:

* a projection onto a subalgebra along an ideal is a Reynolds operator and
  a Rota-Baxter operator of weight -1;
* the trace form tr(XY) of a matrix Lie algebra is invariant;
* a change of basis changes no verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

ZERO, ONE = F(0), F(1)

Table = dict  # {(i, j): {k: Fraction}} with i < j and no stored zeros


# -- exact dense linear algebra (lists of rows) ---------------------------------

def identity(n: int) -> list[list[F]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> list[list[F]]:
    return [[ZERO] * c for _ in range(r)]


def matmul(a, b):
    """Exact product; skips zero entries, since most generated matrices are sparse."""
    out = [[ZERO] * len(b[0]) for _ in a]
    for orow, row in zip(out, a):
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        orow[j] += x * y
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def inverse(a):
    n = len(a)
    work = [list(row) + ident for row, ident in zip(a, identity(n))]
    for j in range(n):
        pivot = next(i for i in range(j, n) if work[i][j] != 0)
        work[j], work[pivot] = work[pivot], work[j]
        inv = 1 / work[j][j]
        work[j] = [x * inv for x in work[j]]
        for i in range(n):
            if i != j and work[i][j] != 0:
                f = work[i][j]
                work[i] = [x - f * y for x, y in zip(work[i], work[j])]
    return [row[n:] for row in work]


def commutator(x, y):
    xy, yx = matmul(x, y), matmul(y, x)
    return [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(xy, yx)]


def trace(a) -> F:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def unit(n: int, a: int, b: int):
    m = zeros(n, n)
    m[a][b] = ONE
    return m


# -- tables -----------------------------------------------------------------------

def bracket(sc: Table, x, y) -> list[F]:
    """[x, y] for coordinate vectors x, y under the skew table sc."""
    out = [ZERO] * len(x)
    for (i, j), comp in sc.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, v in comp.items():
                out[k] += c * v
    return out


def apply(m, v) -> list[F]:
    nz = [(k, x) for k, x in enumerate(v) if x]
    return [sum((row[k] * x for k, x in nz), ZERO) for row in m]


def basis_vec(n: int, i: int) -> list[F]:
    v = [ZERO] * n
    v[i] = ONE
    return v


def table_from(dim: int, pair_fn) -> Table:
    """Skew table whose (i, j) entry is the vector pair_fn(i, j), zeros dropped."""
    sc: Table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            comp = {k: c for k, c in enumerate(pair_fn(i, j)) if c != 0}
            if comp:
                sc[(i, j)] = comp
    return sc


def direct_sum(sc_a: Table, dim_a: int, sc_b: Table) -> Table:
    out = {k: dict(v) for k, v in sc_a.items()}
    for (i, j), comp in sc_b.items():
        out[(i + dim_a, j + dim_a)] = {k + dim_a: c for k, c in comp.items()}
    return out


# -- matrix Lie algebras -----------------------------------------------------------

@dataclass
class Algebra:
    """A generated Lie algebra with its projection operator R and trace form S."""

    name: str
    dim: int
    labels: tuple[str, ...]
    sc: Table
    R: list[list[F]]        # columns are images of basis vectors
    S: list[list[F]]        # Gram matrix of the trace form
    mats: list              # basis matrices
    proj: object            # the projection, as a map on matrices
    coords: object          # matrix -> coordinate vector in this basis


def _coords_fn(mats):
    """Coordinates in the basis `mats` through the exact left inverse (BᵀB)⁻¹Bᵀ."""
    flat = [[c for row in m for c in row] for m in mats]    # dim x N²
    gram = matmul(flat, transpose(flat))
    left = matmul(inverse(gram), flat)                       # dim x N²

    def coords(m):
        v = [c for row in m for c in row]
        return apply(left, v)

    return coords


def matrix_algebra(name: str, mats, proj, labels=None, coords=None) -> Algebra:
    dim = len(mats)
    coords = coords or _coords_fn(mats)
    sc = table_from(dim, lambda i, j: coords(commutator(mats[i], mats[j])))
    R = transpose([coords(proj(m)) for m in mats])
    S = [[trace(matmul(a, b)) for b in mats] for a in mats]
    labels = tuple(labels) if labels else tuple(f"e{k}" for k in range(dim))
    return Algebra(name, dim, labels, sc, R, S, list(mats), proj, coords)


def gl(n: int) -> Algebra:
    """gl(n), basis E_ab; R projects onto sl(n) along the centre."""
    mats = [unit(n, a, b) for a in range(n) for b in range(n)]

    def proj(m):
        t = trace(m) / n
        return [[c - (t if i == j else 0) for j, c in enumerate(row)] for i, row in enumerate(m)]

    return matrix_algebra(f"gl({n})", mats, proj,
                          [f"E{a}{b}" for a in range(n) for b in range(n)])


def sl(n: int) -> Algebra:
    """sl(n), basis H_k = E_kk - E_k+1,k+1 then E_ab (a != b); R = Id (sl(n) is simple)."""
    hs = []
    for k in range(n - 1):
        h = unit(n, k, k)
        h[k + 1][k + 1] = -ONE
        hs.append(h)
    offs = [(a, b) for a in range(n) for b in range(n) if a != b]
    mats = hs + [unit(n, a, b) for a, b in offs]
    return matrix_algebra(f"sl({n})", mats, lambda m: m,
                          [f"H{k}" for k in range(n - 1)] + [f"E{a}{b}" for a, b in offs])


def heisenberg(m: int) -> Algebra:
    """heisenberg(m) = span{x_i, y_i, z}, [x_i, y_i] = z; R projects onto span{x_i} along span{y_i, z}."""
    n = m + 2
    mats = ([unit(n, 0, i + 1) for i in range(m)]
            + [unit(n, i + 1, n - 1) for i in range(m)] + [unit(n, 0, n - 1)])

    def proj(a):
        out = zeros(n, n)
        for i in range(1, n - 1):
            out[0][i] = a[0][i]
        return out

    return matrix_algebra(f"heisenberg({m})", mats, proj,
                          [f"x{i}" for i in range(m)] + [f"y{i}" for i in range(m)] + ["z"])


def borel(n: int) -> Algebra:
    """Upper-triangular b(n); R projects onto the torus along the nilradical."""
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    mats = [unit(n, a, b) for a, b in pairs]

    def proj(a):
        out = zeros(n, n)
        for i in range(n):
            out[i][i] = a[i][i]
        return out

    return matrix_algebra(f"b({n})", mats, proj, [f"E{a}{b}" for a, b in pairs])


FAMILIES = {"gl": gl, "sl": sl, "heisenberg": heisenberg, "b": borel}


def family(spec: str) -> Algebra:
    """'gl(3)' -> gl(3)."""
    head, arg = spec.rstrip(")").split("(")
    return FAMILIES[head](int(arg))


# -- changes of basis ----------------------------------------------------------------

def change_basis(alg: Algebra, P) -> Algebra:
    """The same algebra in the basis f_j = sum_i P[i][j] e_i (so R -> P⁻¹RP, S -> PᵀSP)."""
    n = len(alg.mats[0])
    mats = []
    for j in range(alg.dim):
        m = zeros(n, n)
        for i in range(alg.dim):
            if P[i][j]:
                for r, row in enumerate(alg.mats[i]):
                    for c, x in enumerate(row):
                        if x:
                            m[r][c] += P[i][j] * x
        mats.append(m)
    Pinv = inverse(P)
    return matrix_algebra(alg.name, mats, alg.proj, alg.labels,
                          lambda m: apply(Pinv, alg.coords(m)))


def monomial_change(dim: int, rng: random.Random, scales=(1,)):
    """Signed permutation times a diagonal of `scales`: keeps every table exactly as sparse."""
    perm = list(range(dim))
    rng.shuffle(perm)
    P = zeros(dim, dim)
    for j, i in enumerate(perm):
        P[i][j] = F(rng.choice(scales)) * rng.choice((-1, 1))
    return P


_DENSE_ENTRIES = tuple(F(p, q) for p in (-2, -1, 1, 2) for q in (1, 2, 3))


def dense_change(dim: int, rng: random.Random):
    """P = P0·Q: a fixed dense P0 = U·Lo, then a seeded signed permutation Q.

    U and Lo are unit upper/lower triangular with rational entries (det P0 = 1),
    drawn once per dimension.  The seed relabels and re-signs the dense basis;
    keeping P0 fixed keeps the size of the conjugated rationals, and so the
    cost of a run, the same from seed to seed.
    """
    fixed = random.Random(f"dense:{dim}")
    U, Lo = identity(dim), identity(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            U[i][j] = fixed.choice(_DENSE_ENTRIES)
            Lo[j][i] = fixed.choice(_DENSE_ENTRIES)
    return matmul(matmul(U, Lo), monomial_change(dim, rng))


# -- derived expectations ------------------------------------------------------------

def column(m, j) -> list[F]:
    return [row[j] for row in m]


def scaled_bracket_failure(sc: Table, c):
    """(where, violations, residual) of a pair check whose residual on (e_i, e_j) is c·[e_i, e_j]."""
    (i, j), comp = min(sc.items())
    return (i, j), len(sc), tuple(((k,), c * v) for k, v in sorted(comp.items()))


def induced_table(alg: Algebra) -> Table:
    """[x, y]_R = [Rx, y] + [x, Ry] - [Rx, Ry]."""
    n, sc = alg.dim, alg.sc
    R = [column(alg.R, i) for i in range(n)]
    e = [basis_vec(n, i) for i in range(n)]
    return table_from(n, lambda i, j: [a + b - c for a, b, c in zip(
        bracket(sc, R[i], e[j]), bracket(sc, e[i], R[j]), bracket(sc, R[i], R[j]))])


def descendent_table(alg: Algebra, B) -> Table:
    """[x, y]_B = [Bx, y] + [x, By] (weight 0)."""
    n, sc = alg.dim, alg.sc
    Bc = [column(B, i) for i in range(n)]
    e = [basis_vec(n, i) for i in range(n)]
    return table_from(n, lambda i, j: [a + b for a, b in zip(
        bracket(sc, Bc[i], e[j]), bracket(sc, e[i], Bc[j]))])


def ns_tables(alg: Algebra) -> tuple[Table, Table]:
    """x◁y = [Rx, y] over all ordered pairs, x▷y = -[Rx, Ry] for i < j."""
    n, sc = alg.dim, alg.sc
    R = [column(alg.R, i) for i in range(n)]
    e = [basis_vec(n, i) for i in range(n)]
    left = {}
    for i in range(n):
        for j in range(n):
            comp = {k: c for k, c in enumerate(bracket(sc, R[i], e[j])) if c != 0}
            if comp:
                left[(i, j)] = comp
    wedge = table_from(n, lambda i, j: [-c for c in bracket(sc, R[i], R[j])])
    return left, wedge


def jacobiator(sc: Table, dim: int, i: int, j: int, k: int) -> list[F]:
    e = [basis_vec(dim, t) for t in (i, j, k)]
    terms = [bracket(sc, bracket(sc, e[a], e[b]), e[c]) for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    return [x + y + z for x, y, z in zip(*terms)]


# the conftest algebra violating Jacobi at (0, 1, 2): [e0,e1]=e2, [e0,e2]=e1, [e1,e2]=e1
BROKEN = {(0, 1): {2: ONE}, (0, 2): {1: ONE}, (1, 2): {1: ONE}}


@dataclass
class QRB:
    """r = h∧e (h = E00 - E11, e = E01), S the trace form, B = r₊∘S♯ of weight 0."""

    alg: Algebra
    r: dict          # {(i, j): c}, no zeros
    B: list


def qrb(alg: Algebra) -> QRB:
    n = len(alg.mats[0])
    h = zeros(n, n)
    h[0][0], h[1][1] = ONE, -ONE
    hv, ev = alg.coords(h), alg.coords(unit(n, 0, 1))
    d = alg.dim
    r = {}
    for i in range(d):
        for j in range(d):
            c = hv[i] * ev[j] - ev[i] * hv[j]
            if c:
                r[(i, j)] = c
    rplus = zeros(d, d)
    for (i, j), c in r.items():
        rplus[j][i] = c
    return QRB(alg, r, matmul(rplus, alg.S))
