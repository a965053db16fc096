"""Reynolds operators on Lie algebras and the structures they induce.

A Reynolds operator R satisfies [Rx,Ry] = R([Rx,y] + [x,Ry] - [Rx,Ry]).
All identity checks run exhaustively over basis tuples: bilinearity turns
the universally quantified identities into finite, exact decision
procedures.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, product
from math import lcm
from operator import add, itemgetter, mul

from .certificates import Certificate, Checked, entail, require, scan, verified
from .exact import ONE, ZERO, Mat, Table, integral, norms, rat, unpack, width
from .lie import (BilinForm, LieAlgebra, Representation, adjoint_rep, coadjoint_rep, dual_rep,
                  is_quadratic, is_representation, s_sharp, semidirect)


class ReynoldsLieAlgebra(Checked, gate=lambda A: is_reynolds(A.L, A.R)):
    """A Lie algebra together with a Reynolds operator; `given` as for `LieAlgebra`."""

    __slots__ = ("L", "R")

    def __init__(self, L: LieAlgebra, R: Mat, given=()):
        if R.rows != L.dim or R.cols != L.dim:
            raise ValueError("operator shape does not match the algebra")
        self.L = L
        self.R = R
        entail(is_reynolds, (L, R), "reynolds", given)

    def __repr__(self) -> str:
        return f"ReynoldsLieAlgebra({self.L!r})"


def operator_brackets(table, P: Mat, Q: Mat, lam, kappa):
    """The packed kernel of Pe_i·Qe_j = Q(Pe_i·e_j + e_i·Qe_j + λe_i·e_j + κPe_i·Qe_j).

    `table` is the product ·: a `Table` (a Lie bracket, a pre-Lie product) or a
    representation's matrices, x·u = ρ(x)u.  P acts on the first argument, Q on the
    second and on the output.  It works on D·table, p·P, d·Q and λ, κ on the scale q
    (D, p, d, q their denominators), so the inner sum
    I = Pe_i·e_j + e_i·Qe_j + λe_i·e_j + κPe_i·Qe_j comes out on the scale s = q·D·p·d.
    Returns (s, d, residuals, inners): residuals(pairs) and inners(pairs) give (w, values),
    values yielding ((i, j), v) for (i, j) in pairs with v packed in slots of width w:
    s·d times the residual Pe_i·Qe_j − Q·I, or s·I.

    Both are Σ_b (d·Q)[b, j]·A[i][b] + B[i][j] for packed vectors built from
    X = D·e_a·e_b packed and P (A a row at a time): with PY[i] = Σ_a p·P[a, i]·Y[a],
    s·I = Σ_b (dQ)[b, j]·(κq·PX + qp·X)[i][b] + (qd·PX + λq·pd·X)[i][j], and the
    residual q·d·(D·p·d·Pe_i·Qe_j) − dQ·(s·I) is the same with
    A = P(qd·X − κq·V) − qp·V and B = −(qd·PV + λq·pd·V), V = dQ·X packed.

    The slot widths follow the rule of `exact.slot_width`, composed through P and Q: let t
    be the largest |coefficient| of X, p1 the largest column ℓ1 norm of p·P, and q1 and q∞
    the largest column and row ℓ1 norms of d·Q (`exact.norms`).  A coefficient of
    Σ_a pP[a, i]·Y[a] is at most p1 times the largest coefficient of Y, one of
    Σ_b dQ[b, j]·Y[b] at most q1 times it, and one of dQ·y at most q∞ times the
    largest coefficient of y.  Term by term, a coefficient of s·I is at most t·k with
    k = q1·(|κq|·p1 + qp) + qd·p1 + |λq·pd|.  The residual's first term
    qd·Σ_{a,b} pP[a, i]·dQ[b, j]·X[a][b] is at most t·qd·p1·q1 and a coefficient of
    dQ·(s·I) at most q∞·t·k, so a residual coefficient is at most t·(qd·p1·q1 + q∞·k).
    """
    if isinstance(table, Table):
        sc, den = integral(table)
        n, products, skew = table.dim, sc.items(), table.skew
    else:
        *mats, den = integral(*table)
        n, skew = len(mats), False
        products = [((x, u), col) for x, m in enumerate(mats) for u, col in enumerate(m) if col]
    t = max(map(abs, chain.from_iterable(map(dict.values, map(itemgetter(1), products)))),
            default=0)
    cols, d = integral(Q)
    pcols, p = (cols, d) if P is Q else integral(P)
    q = lcm(lam.denominator, kappa.denominator)
    qd, qp = q * d, q * p
    lpd = lam.numerator * (q // lam.denominator) * p * d
    kq = kappa.numerator * (q // kappa.denominator)
    N = Q.rows
    q1, _, qinf = norms(cols, N)
    p1 = q1 if P is Q else norms(pcols)[0]
    k = q1 * (abs(kq) * p1 + qp) + qd * p1 + abs(lpd)

    def values(pairs, y, x, c0, c1, cq, cl):
        """((i, j), Σ_b (dQ)[b, j]·A_i[b] + cq·(PX)[i][j] + cl·X[i][j]) for (i, j) in pairs,
        A_i = c0·X[i] + c1·Σ_a p·P[a, i]·Y[a], built once per run of pairs with one i."""
        xt, last, ai = list(zip(*x)), None, None
        for i, j in pairs:
            col, pcol = cols[j], pcols[i]
            if i != last:
                last, ai = i, list(map(c0.__mul__, x[i]))
                for a, c in pcol.items():
                    ai = list(map(add, ai, map((c1 * c).__mul__, y[a])))
            yield (i, j), (sum(map(mul, col.values(), map(ai.__getitem__, col)))
                           + cq * sum(map(mul, pcol.values(), map(xt[j].__getitem__, pcol)))
                           + cl * x[i][j])

    def residuals(pairs):
        w = width(t * (qd * p1 * q1 + qinf * k))
        one = [1 << m * w for m in range(N)]
        dq = [sum(map(mul, col.values(), map(one.__getitem__, col))) for col in cols]
        g, v = [[0] * N for _ in range(n)], [[0] * N for _ in range(n)]
        for (a, b), comp in products:          # V = dQ·X, G = q·d·X − κq·V, X = D·e_a·e_b
            cs = comp.values()
            v[a][b] = y = sum(map(mul, cs, map(dq.__getitem__, comp)))
            g[a][b] = x = qd * sum(map(mul, cs, map(one.__getitem__, comp))) - kq * y
            if skew:
                v[b][a], g[b][a] = -y, -x
        return w, values(pairs, g, v, -qp, 1, -qd, -lpd)

    def inners(pairs):
        w = width(t * k)
        one = [1 << m * w for m in range(N)]
        x = [[0] * N for _ in range(n)]
        for (a, b), comp in products:          # X = D·e_a·e_b
            x[a][b] = u = sum(map(mul, comp.values(), map(one.__getitem__, comp)))
            if skew:
                x[b][a] = -u
        return w, values(pairs, x, x, qp, kq, qd, lpd)
    return q * den * p * d, d, residuals, inners


def operator_identity(check: str, table, P: Mat, Q: Mat, pairs, lam, kappa) -> Certificate:
    """Pe_i·Qe_j = Q(Pe_i·e_j + e_i·Qe_j + λe_i·e_j + κPe_i·Qe_j) for (i, j) in pairs."""
    s, d, residuals, _ = operator_brackets(table, P, Q, lam, kappa)
    w, values = residuals(pairs)
    return scan(check, values, s * d, lambda v: unpack(v, w))


def inner_products(table, P: Mat, Q: Mat, pairs, lam, kappa) -> tuple[dict, int]:
    """{(i, j): s·(Pe_i·e_j + e_i·Qe_j + λe_i·e_j + κPe_i·Qe_j)} for (i, j) in pairs, as
    sparse integer vectors, and the scale s."""
    s, _, _, inners = operator_brackets(table, P, Q, lam, kappa)
    w, values = inners(pairs)
    return {key: unpack(v, w) for key, v in values}, s


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
    sc, s = inner_products(*lie_operands(L, R), ZERO, -ONE)
    return ReynoldsLieAlgebra(LieAlgebra(L.dim, L.basis, Table._of(L.dim, sc, True, s)), R)


class ReynoldsRep(Checked, gate=lambda rr: is_reynolds_rep(rr)):
    """A pair (T, rho): rho a representation on W, T compatible with R."""

    __slots__ = ("base", "rep", "T")

    def __init__(self, base: ReynoldsLieAlgebra, rep: Representation, T: Mat):
        if rep.algebra != base.L:
            raise ValueError("representation is not over the Reynolds algebra's space")
        if T.rows != rep.module_dim or T.cols != rep.module_dim:
            raise ValueError("T shape does not match the module")
        self.base = base
        self.rep = rep
        self.T = T


def reynolds_adjoint_rep(A: ReynoldsLieAlgebra) -> ReynoldsRep:
    """(g; R, ad), always a Reynolds representation."""
    return ReynoldsRep.unchecked(A, adjoint_rep(A.L), A.R)


def reynolds_coadjoint_rep(A: ReynoldsLieAlgebra) -> ReynoldsRep:
    """(g*; -Rᵀ, ad*), the dual of the adjoint representation."""
    return ReynoldsRep.unchecked(A, coadjoint_rep(A.L), -A.R.transpose())


@verified
def compat_certificate(R: Mat, rep: Representation, T: Mat) -> Certificate:
    """rho(Rx)(Tu) = T(rho(x)(Tu) + rho(Rx)u - rho(Rx)(Tu)) over basis (x, u)."""
    pairs = product(range(len(rep.rho)), range(rep.module_dim))
    return operator_identity("compatibility", rep.rho, R, T, pairs, ZERO, -ONE)


@verified
def is_reynolds_rep(rr: ReynoldsRep) -> Certificate:
    """Underlying representation validity, then the (T, rho) compatibility."""
    rep_ok = rr.rep.gate()
    if not rep_ok.ok:
        return Certificate.combine(
            "reynolds-rep", [rep_ok], note="underlying representation invalid"
        )
    compat = compat_certificate(rr.base.R, rr.rep, rr.T)
    return Certificate.combine("reynolds-rep", [rep_ok, compat])


def dual_reynolds_rep(rr: ReynoldsRep, given=()) -> ReynoldsRep:
    """(W*; -Tᵀ, rho*).  Its representation and compatibility residuals are minus the
    transposes of rr's, so `given`, rr's passed `is_reynolds_rep`, entails both."""
    dual = ReynoldsRep.unchecked(rr.base, dual_rep(rr.rep), -rr.T.transpose())
    entail(is_representation, (dual.rep,), "representation", given)
    entail(compat_certificate, (rr.base.R, dual.rep, dual.T), "compatibility", given)
    return dual


@verified
def semidirect_reynolds(rr: ReynoldsRep) -> ReynoldsLieAlgebra:
    """g⋉W with the block-diagonal operator R⊕T.  Its Reynolds residual is that of (g, R), the
    compatibility residual at (e_i, w) and 0, so the gate and `is_reynolds(g, R)` entail it."""
    gate = require(rr.gate())
    return ReynoldsLieAlgebra(semidirect(rr.base.L, rr.rep), Mat.block_diag(rr.base.R, rr.T),
                              given=[gate, rr.base.gate()])


class QuadraticReynolds(Checked, gate=lambda Q: is_quadratic_reynolds(Q.base, Q.S)):
    """Reynolds Lie algebra with an invariant form satisfying S(Rx,y)+S(x,Ry)=0."""

    __slots__ = ("base", "S")

    def __init__(self, base: ReynoldsLieAlgebra, S: BilinForm):
        self.base = base
        self.S = S


@verified
def operator_form_compat(L: LieAlgebra, S: BilinForm, R: Mat,
                         lam: Fraction | None = None) -> Certificate:
    """S(Re_i,e_j) + S(e_i,Re_j) (+ lam·S(e_i,e_j)) = 0 over all pairs, one per orbit: the
    stage `reynolds-compat`, or `rb-compat` with a weight lam.

    `BilinForm` rejects a non-symmetric gram matrix S, so SR = (RᵀS)ᵀ and the value
    RᵀS + SR (+ lam·S) is symmetric: `scan` visits i ≤ j and counts i < j twice.
    """
    m = R.transpose() @ S.gram
    m = m + m.transpose() if lam is None else m + m.transpose() + S.gram.scale(lam)
    cols, pairs = m.icols, combinations_with_replacement(range(L.dim), 2)
    return scan("reynolds-compat" if lam is None else "rb-compat",
                (((i, j), cols[j].get(i, 0)) for i, j in pairs), m.den,
                orbit=lambda t: 1 + (t[0] < t[1]))


@verified
def is_quadratic_reynolds(A: ReynoldsLieAlgebra, S: BilinForm) -> Certificate:
    """Quadratic (invariant + nondegenerate) plus the R-compatibility of S."""
    quad = is_quadratic(A.L, S)
    compat = operator_form_compat(A.L, S, A.R)
    return Certificate.combine("quadratic-reynolds", [quad, compat])


@verified
def check_ssharp_intertwiner(Q: QuadraticReynolds) -> Certificate:
    """S♯ intertwines ad with ad* and satisfies S♯R = -RᵀS♯."""
    L, R = Q.base.L, Q.base.R
    sharp = s_sharp(Q.S)
    parts = [scan("ad-intertwiner", (((i,), sharp @ ad - coad @ sharp) for i, (ad, coad)
                                     in enumerate(zip(adjoint_rep(L).rho, coadjoint_rep(L).rho))))]
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
