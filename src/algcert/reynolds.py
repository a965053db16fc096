"""Reynolds operators on Lie algebras and the structures they induce.

A Reynolds operator R satisfies [Rx,Ry] = R([Rx,y] + [x,Ry] - [Rx,Ry]).
All identity checks run exhaustively over basis tuples: bilinearity turns
the universally quantified identities into finite, exact decision
procedures.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .certificates import Certificate, Checked, require, scan
from .exact import (ONE, ZERO, Mat, integral, precompose, rat, sapply, saxpy, scols, scomb,
                    srow, unscale)
from .lie import (
    BilinForm,
    LieAlgebra,
    Representation,
    adjoint_rep,
    coadjoint_rep,
    dual_rep,
    is_quadratic,
    is_representation,
    s_sharp,
    semidirect,
)


class ReynoldsLieAlgebra(Checked):
    """A Lie algebra together with a Reynolds operator."""

    __slots__ = ("L", "R")

    def __init__(self, L: LieAlgebra, R: Mat, check: bool = True):
        if R.rows != L.dim or R.cols != L.dim:
            raise ValueError("operator shape does not match the algebra")
        self.L = L
        self.R = R
        if check:
            require(is_reynolds(L, R))

    def __repr__(self) -> str:
        return f"ReynoldsLieAlgebra({self.L!r})"


def operator_brackets(L: LieAlgebra, R: Mat, lam, kappa):
    """[Re_i,Re_j] and [Re_i,e_j] + [e_i,Re_j] + λ[e_i,e_j] + κ[Re_i,Re_j] for i<j, on integers.

    Returns (cols, d, s, pairs): cols are the integer columns of d·R, pairs
    yields (i, j, rr, inner), the two brackets as integer sparse vectors on
    the scales s·d and s, where s = q·D·d², D is the denominator of L's
    table and q that of λ and κ.  They come from integer tables of [e_a,e_b]
    and [Re_a,e_b] built once per call.
    """
    lam, kappa = rat(lam), rat(kappa)
    sc, den = integral(L.sc)
    cols, d = integral(scols(R))
    q = lcm(lam.denominator, kappa.denominator)
    lam_q, kappa_q = int(lam * q), int(kappa * q)
    rows = sc.rows()           # D·[e_a, e_b]
    adr = precompose(rows, cols)                      # D·d·[Re_i, e_j]

    def pairs():
        for i, j in combinations(range(L.dim), 2):
            rr = srow({}, adr[i], cols[j])            # D·d²·[Re_i, Re_j]
            inner = saxpy({}, q * d, adr[i].get(j, {}))
            saxpy(inner, -q * d, adr[j].get(i, {}))
            saxpy(inner, lam_q * d * d, rows[i].get(j, {}))
            saxpy(inner, kappa_q, rr)
            yield i, j, saxpy({}, q * d, rr), inner
    return cols, d, q * den * d * d, pairs()


def operator_identity(check: str, L: LieAlgebra, R: Mat, lam, kappa) -> Certificate:
    """[Re_i,Re_j] = R([Re_i,e_j] + [e_i,Re_j] + λ[e_i,e_j] + κ[Re_i,Re_j]) for all i<j.

    With R = R'/d, the residual rr − R'·inner of the integer brackets is s·d
    times the true one.
    """
    if R.rows != L.dim or R.cols != L.dim:
        raise ValueError("operator shape does not match the algebra")
    cols, d, s, pairs = operator_brackets(L, R, lam, kappa)
    return scan(check, (((i, j), saxpy(rr, -1, sapply(cols, inner)))
                        for i, j, rr, inner in pairs), s * d)


def is_reynolds(L: LieAlgebra, R: Mat) -> Certificate:
    """Exhaustive basis-pair check of the Reynolds identity (λ = 0, κ = −1)."""
    return operator_identity("reynolds", L, R, ZERO, -ONE)


def induced_algebra(A: ReynoldsLieAlgebra) -> ReynoldsLieAlgebra:
    """New bracket [x,y]_R = [Rx,y] + [x,Ry] - [Rx,Ry] with the same operator."""
    L, R = A.L, A.R
    _, _, s, pairs = operator_brackets(L, R, ZERO, -ONE)
    sc = {(i, j): unscale(inner, s) for i, j, _, inner in pairs}
    return ReynoldsLieAlgebra(LieAlgebra(L.dim, L.basis, sc), R)


class ReynoldsRep(Checked):
    """A pair (T, rho): rho a representation on W, T compatible with R."""

    __slots__ = ("base", "rep", "T")

    def __init__(self, base: ReynoldsLieAlgebra, rep: Representation, T: Mat, check: bool = True):
        if rep.algebra != base.L:
            raise ValueError("representation is not over the Reynolds algebra's space")
        if T.rows != rep.module_dim or T.cols != rep.module_dim:
            raise ValueError("T shape does not match the module")
        self.base = base
        self.rep = rep
        self.T = T
        if check:
            require(is_reynolds_rep(self))


def reynolds_adjoint_rep(A: ReynoldsLieAlgebra) -> ReynoldsRep:
    """(g; R, ad), always a Reynolds representation."""
    return ReynoldsRep(A, adjoint_rep(A.L), A.R, check=False)


def reynolds_coadjoint_rep(A: ReynoldsLieAlgebra) -> ReynoldsRep:
    """(g*; -Rᵀ, ad*), the dual of the adjoint representation."""
    return ReynoldsRep(A, coadjoint_rep(A.L), -A.R.transpose(), check=False)


def compat_certificate(R: Mat, rep: Representation, T: Mat,
                       name: str = "compatibility") -> Certificate:
    """rho(Rx)(Tu) = T(rho(x)(Tu) + rho(Rx)u - rho(Rx)(Tu)) over basis (x, u)."""
    md = rep.module_dim
    rho_cols = [scols(m) for m in rep.rho]
    tcols = scols(T)

    def cases():
        for i, rcol in enumerate(scols(R)):
            rho_rx = scomb(rho_cols, rcol, md)
            for a, tu in enumerate(tcols):
                lhs = sapply(rho_rx, tu)
                inner = sapply(rho_cols[i], tu)
                saxpy(inner, ONE, rho_rx[a])
                saxpy(inner, -ONE, lhs)
                yield (i, a), saxpy(lhs, -ONE, sapply(tcols, inner))
    return scan(name, cases())


def is_reynolds_rep(rr: ReynoldsRep) -> Certificate:
    """Underlying representation validity, then the (T, rho) compatibility."""
    rep_ok = is_representation(rr.rep)
    if not rep_ok.ok:
        return Certificate.combine(
            "reynolds-rep", [rep_ok], note="underlying representation invalid"
        )
    compat = compat_certificate(rr.base.R, rr.rep, rr.T)
    return Certificate.combine("reynolds-rep", [rep_ok, compat])


def dual_reynolds_rep(rr: ReynoldsRep) -> ReynoldsRep:
    """(W*; -Tᵀ, rho*)."""
    return ReynoldsRep(rr.base, dual_rep(rr.rep), -rr.T.transpose(), check=False)


def semidirect_reynolds(rr: ReynoldsRep) -> ReynoldsLieAlgebra:
    """g⋉W with the block-diagonal operator R⊕T."""
    require(is_reynolds_rep(rr))
    big = semidirect(rr.base.L, rr.rep)
    return ReynoldsLieAlgebra(big, Mat.block_diag(rr.base.R, rr.T))


class QuadraticReynolds(Checked):
    """Reynolds Lie algebra with an invariant form satisfying S(Rx,y)+S(x,Ry)=0."""

    __slots__ = ("base", "S")

    def __init__(self, base: ReynoldsLieAlgebra, S: BilinForm, check: bool = True):
        self.base = base
        self.S = S
        if check:
            require(is_quadratic_reynolds(base, S))


def operator_form_compat(L: LieAlgebra, S: BilinForm, R: Mat, name: str,
                         lam: Fraction | None = None) -> Certificate:
    """S(Re_i,e_j) + S(e_i,Re_j) (+ lam·S(e_i,e_j)) = 0 over all pairs."""
    g = S.gram
    m = (R.transpose() @ g + g @ R).entries
    return scan(name, (((i, j), m[i][j] if lam is None else m[i][j] + lam * g.entries[i][j])
                       for i, j in product(range(L.dim), repeat=2)))


def is_quadratic_reynolds(A: ReynoldsLieAlgebra, S: BilinForm) -> Certificate:
    """Quadratic (invariant + nondegenerate) plus the R-compatibility of S."""
    quad = is_quadratic(A.L, S)
    compat = operator_form_compat(A.L, S, A.R, "reynolds-compat")
    return Certificate.combine("quadratic-reynolds", [quad, compat])


def check_ssharp_intertwiner(Q: QuadraticReynolds) -> Certificate:
    """S♯ intertwines ad with ad* and satisfies S♯R = -RᵀS♯."""
    L, R = Q.base.L, Q.base.R
    sharp = s_sharp(Q.S)
    parts = [scan("ad-intertwiner", (
        ((i,), sharp @ L.ad(i) - (-L.ad(i).transpose()) @ sharp) for i in range(L.dim)))]
    parts.append(scan("operator-skew", [((0,), sharp @ R + R.transpose() @ sharp)]))
    return Certificate.combine("ssharp-intertwiner", parts)


# ---------------------------------------------------------------------------
# the Block-algebra family, checked on finite index windows
# ---------------------------------------------------------------------------

def block_window_check(q, lo: int, hi: int, skip_singular: bool = False) -> Certificate:
    """Verify the Reynolds identity for the Block family on a finite window.

    Basis symbols L_{m,i} for lo <= m,i <= hi with bracket
    [L_{m,i}, L_{n,j}] = (n(i+q)-m(j+q)) L_{m+n,i+j} and
    R(L_{m,i}) = L_{m,i}/(m+i+1).  Window indices with m+i+1 = 0 are an
    input error unless skip_singular is set, in which case they are dropped
    and counted.  Pairs whose target index has m+n+i+j+1 = 0 cannot be fed
    through R and are skipped and counted, never silently dropped.  The
    induced-bracket coefficient is checked against its closed form
    (m+n+i+j+1)(n(i+q)-m(j+q))/((m+i+1)(n+j+1)) on every checked pair.
    """
    q = rat(q)
    if lo > hi:
        raise ValueError("empty window: lo > hi")
    window = [(m, i) for m in range(lo, hi + 1) for i in range(lo, hi + 1)]
    singular = [(m, i) for (m, i) in window if m + i + 1 == 0]
    if singular and not skip_singular:
        raise ValueError(f"window contains singular index {singular[0]} (m+i+1=0)")
    active = [(m, i) for (m, i) in window if m + i + 1 != 0]

    # (m,i,n,j) -> the residuals of both identities, which share the pair's coefficients
    diffs = {}
    for m, i in active:
        for n, j in active:
            a = Fraction(m + i + 1)
            b = Fraction(n + j + 1)
            s = Fraction(m + n + i + j + 1)
            coeff = Fraction(n) * (i + q) - Fraction(m) * (j + q)

            induced = coeff * (1 / a + 1 / b - 1 / (a * b))
            closed = s * coeff / (a * b)
            rey = None   # s = 0: the target index cannot be fed through R
            if s != 0:
                lhs = coeff / (a * b)
                rhs = coeff / (a * s) + coeff / (b * s) - coeff / (a * b * s)
                rey = lhs - rhs
            diffs[m, i, n, j] = (rey, induced - closed)

    rey = scan("block-reynolds-identity", ((w, d[0]) for w, d in diffs.items()))
    ind = scan("block-induced-closed-form", ((w, d[1]) for w, d in diffs.items()))
    note = f"q={q}, window=[{lo},{hi}]"
    if singular:
        note += f", singular indices skipped={len(singular)}"
    return Certificate.combine("block-window", [rey, ind], note=note)
