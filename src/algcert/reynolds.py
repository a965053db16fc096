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

from .certificates import Certificate, Checked, require, scan, verified
from .exact import (ONE, ZERO, Mat, Table, integral, precompose, rat, sapply, saxpy, scols, srow,
                    unscale)
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


def operator_brackets(table, P: Mat, Q: Mat, pairs, lam, kappa):
    """Pe_i·Qe_j and Pe_i·e_j + e_i·Qe_j + λe_i·e_j + κPe_i·Qe_j for (i, j) in pairs, on integers.

    `table` is the product ·: a `Table` (a Lie bracket, a pre-Lie product) or a
    representation's matrices, x·u = ρ(x)u.  P acts on the first argument, Q on the
    second and on the output.  Returns (cols, d, s, pairs): cols are the integer
    columns of d·Q, pairs yields (i, j, pq, inner) as integer sparse vectors on the
    scales s·d and s, where s = q·D·p·d and D, p, q are the denominators of the
    table, of P and of λ and κ.  On a skew table with P = Q, e_i·Qe_j = −Qe_j·e_i.
    """
    if isinstance(table, Table):
        sc, den = integral(table)
        rows = sc.rows()                              # D·e_a·e_b
    else:
        *mats, den = integral(*[scols(m) for m in table])
        rows = [dict(enumerate(m)) for m in mats]
    cols, d = integral(scols(Q))
    pcols, p = (cols, d) if P is Q else integral(scols(P))
    q = lcm(lam.denominator, kappa.denominator)
    lam_q, kappa_q = int(lam * q), int(kappa * q)
    adr = precompose(rows, pcols)                     # D·p·Pe_a·e_b
    lookup = P is Q and getattr(table, "skew", False)

    def brackets():
        for i, j in pairs:
            pq = srow({}, adr[i], cols[j])            # D·p·d·Pe_i·Qe_j
            inner = saxpy({}, q * d, adr[i].get(j, {}))
            if lookup:
                saxpy(inner, -q * d, adr[j].get(i, {}))
            else:                                     # D·d·e_i·Qe_j
                saxpy(inner, q * p, srow({}, rows[i], cols[j]))
            saxpy(inner, lam_q * p * d, rows[i].get(j, {}))
            saxpy(inner, kappa_q, pq)
            yield i, j, saxpy({}, q * d, pq), inner
    return cols, d, q * den * p * d, brackets()


def operator_identity(check: str, table, P: Mat, Q: Mat, pairs, lam, kappa) -> Certificate:
    """Pe_i·Qe_j = Q(Pe_i·e_j + e_i·Qe_j + λe_i·e_j + κPe_i·Qe_j) for (i, j) in pairs.

    With Q = Q'/d, the residual pq − Q'·inner of the integer brackets is s·d
    times the true one.
    """
    cols, d, s, brackets = operator_brackets(table, P, Q, pairs, lam, kappa)
    return scan(check, (((i, j), saxpy(pq, -1, sapply(cols, inner)))
                        for i, j, pq, inner in brackets), s * d)


def lie_operands(L: LieAlgebra, R: Mat) -> tuple:
    """The kernel's arguments for R on L's bracket: the table, P = Q = R, the pairs i<j."""
    if R.rows != L.dim or R.cols != L.dim:
        raise ValueError("operator shape does not match the algebra")
    return L.sc, R, R, combinations(range(L.dim), 2)


@verified
def is_reynolds(L: LieAlgebra, R: Mat) -> Certificate:
    """Exhaustive basis-pair check of the Reynolds identity (λ = 0, κ = −1)."""
    return operator_identity("reynolds", *lie_operands(L, R), ZERO, -ONE)


@verified
def induced_algebra(A: ReynoldsLieAlgebra) -> ReynoldsLieAlgebra:
    """New bracket [x,y]_R = [Rx,y] + [x,Ry] - [Rx,Ry] with the same operator."""
    L, R = A.L, A.R
    _, _, s, pairs = operator_brackets(*lie_operands(L, R), ZERO, -ONE)
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


@verified
def compat_certificate(R: Mat, rep: Representation, T: Mat,
                       name: str = "compatibility") -> Certificate:
    """rho(Rx)(Tu) = T(rho(x)(Tu) + rho(Rx)u - rho(Rx)(Tu)) over basis (x, u)."""
    pairs = product(range(len(rep.rho)), range(rep.module_dim))
    return operator_identity(name, rep.rho, R, T, pairs, ZERO, -ONE)


@verified
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


@verified
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


@verified
def operator_form_compat(L: LieAlgebra, S: BilinForm, R: Mat, name: str,
                         lam: Fraction | None = None) -> Certificate:
    """S(Re_i,e_j) + S(e_i,Re_j) (+ lam·S(e_i,e_j)) = 0 over all pairs."""
    g = S.gram
    m = (R.transpose() @ g + g @ R).entries
    return scan(name, (((i, j), m[i][j] if lam is None else m[i][j] + lam * g.entries[i][j])
                       for i, j in product(range(L.dim), repeat=2)))


@verified
def is_quadratic_reynolds(A: ReynoldsLieAlgebra, S: BilinForm) -> Certificate:
    """Quadratic (invariant + nondegenerate) plus the R-compatibility of S."""
    quad = is_quadratic(A.L, S)
    compat = operator_form_compat(A.L, S, A.R, "reynolds-compat")
    return Certificate.combine("quadratic-reynolds", [quad, compat])


@verified
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

@verified
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
