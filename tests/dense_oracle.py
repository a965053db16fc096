"""Reference kernels for differential tests: the dense evaluation paths.

These are the dense-vector bodies the sparse basis-index kernels replaced:
every product is evaluated on full coordinate vectors built with `vbasis`
through `LieAlgebra.bracket`, and operator sums are `Mat` sums.  They are
slow and test-only; a certificate must not depend on which of the two
computed it.
"""

from fractions import Fraction
from itertools import combinations, product

from algcert.certificates import Certificate, scan
from algcert.exact import ZERO, Mat, vadd, vbasis, vsub, vzero


def matmul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b.entries)) if b.entries else []
    return Mat([[sum((x * y for x, y in zip(row, col)), ZERO) for col in cols]
                for row in a.entries])


def _lin(mats, v, module_dim: int) -> Mat:
    out = Mat.zeros(module_dim, module_dim)
    for i, c in enumerate(v):
        if c != 0:
            out = out + mats[i].scale(c)
    return out


def _form_eval(gram: Mat, x, y) -> Fraction:
    gy = gram.apply(y)
    return sum((a * b for a, b in zip(x, gy)), ZERO)


def jacobi_check(L) -> Certificate:
    def cases():
        for i, j, k in combinations(range(L.dim), 3):
            ei, ej, ek = vbasis(L.dim, i), vbasis(L.dim, j), vbasis(L.dim, k)
            yield (i, j, k), vadd(
                vadd(L.bracket(L.bracket(ei, ej), ek), L.bracket(L.bracket(ej, ek), ei)),
                L.bracket(L.bracket(ek, ei), ej),
            )
    return scan("jacobi", cases())


def is_representation(rep) -> Certificate:
    L = rep.algebra
    return scan("representation", (
        ((i, j), _lin(rep.rho, L.bracket_basis(i, j), rep.module_dim)
         - (matmul(rep.rho[i], rep.rho[j]) - matmul(rep.rho[j], rep.rho[i])))
        for i, j in combinations(range(L.dim), 2)))


def is_invariant_form(L, S) -> Certificate:
    n = L.dim
    return scan("invariant-form", (
        ((i, j, k), _form_eval(S.gram, L.bracket_basis(i, j), vbasis(n, k))
         + _form_eval(S.gram, vbasis(n, j), L.bracket_basis(i, k)))
        for i, j, k in product(range(n), repeat=3)))


def _induced_bracket(L, R: Mat, x, y):
    rx, ry = R.apply(x), R.apply(y)
    return vsub(
        tuple(a + b for a, b in zip(L.bracket(rx, y), L.bracket(x, ry))),
        L.bracket(rx, ry),
    )


def _reynolds_residual(L, R: Mat, x, y):
    rx, ry = R.apply(x), R.apply(y)
    return vsub(L.bracket(rx, ry), R.apply(_induced_bracket(L, R, x, y)))


def is_reynolds(L, R: Mat) -> Certificate:
    return scan("reynolds", (
        ((i, j), _reynolds_residual(L, R, vbasis(L.dim, i), vbasis(L.dim, j)))
        for i, j in combinations(range(L.dim), 2)))


def _rb_inner(L, B: Mat, lam: Fraction, x, y):
    return tuple(a + b + lam * c for a, b, c in zip(
        L.bracket(B.apply(x), y), L.bracket(x, B.apply(y)), L.bracket(x, y)))


def is_rota_baxter(L, B: Mat, lam) -> Certificate:
    lam = Fraction(lam)

    def residual(x, y):
        return vsub(L.bracket(B.apply(x), B.apply(y)), B.apply(_rb_inner(L, B, lam, x, y)))
    return scan("rota-baxter", (((i, j), residual(vbasis(L.dim, i), vbasis(L.dim, j)))
                                for i, j in combinations(range(L.dim), 2)))


def operator_form_compat(L, S, R: Mat, name: str, lam=None) -> Certificate:
    def value(ei, ej):
        val = S.eval(R.apply(ei), ej) + S.eval(ei, R.apply(ej))
        return val if lam is None else val + lam * S.eval(ei, ej)
    n = L.dim
    return scan(name, (((i, j), value(vbasis(n, i), vbasis(n, j)))
                       for i, j in product(range(n), repeat=2)))


# -- NS-Lie products on dense vectors ---------------------------------------

def _left_basis(A, i, j):
    comp = A.left.get((i, j))
    out = [ZERO] * A.dim
    if comp:
        for k, c in comp.items():
            out[k] = c
    return tuple(out)


def left_prod(A, x, y):
    out = [ZERO] * A.dim
    for i, a in enumerate(x):
        if a == 0:
            continue
        for j, b in enumerate(y):
            if b == 0:
                continue
            for k, c in enumerate(_left_basis(A, i, j)):
                if c != 0:
                    out[k] += a * b * c
    return tuple(out)


def wedge_prod(A, x, y):
    out = [ZERO] * A.dim
    for (i, j), comp in A.wedge.items():
        coeff = x[i] * y[j] - x[j] * y[i]
        if coeff == 0:
            continue
        for k, c in comp.items():
            out[k] += coeff * c
    return tuple(out)


def comm(A, x, y):
    return vadd(vsub(left_prod(A, x, y), left_prod(A, y, x)), wedge_prod(A, x, y))


def is_nslie(A) -> Certificate:
    n = A.dim
    basis = [vbasis(n, i) for i in range(n)]

    def identity1(x, y, z):
        return vadd(
            vsub(
                vsub(left_prod(A, left_prod(A, x, y), z), left_prod(A, x, left_prod(A, y, z))),
                vsub(left_prod(A, left_prod(A, y, x), z), left_prod(A, y, left_prod(A, x, z))),
            ),
            left_prod(A, wedge_prod(A, x, y), z),
        )

    def identity2(x, y, z):
        r2 = vzero(n)
        for (u, v, w) in ((x, y, z), (y, z, x), (z, x, y)):
            r2 = vadd(r2, wedge_prod(A, u, comm(A, v, w)))
            r2 = vadd(r2, left_prod(A, u, wedge_prod(A, v, w)))
        return r2

    triples = list(product(range(n), repeat=3))
    return Certificate.combine("nslie", [
        scan(name, ((t, identity(*(basis[k] for k in t))) for t in triples))
        for name, identity in (("ns-identity-1", identity1), ("ns-identity-2", identity2))])


def is_ns_rep(rep) -> Certificate:
    A, md = rep.base, rep.module_dim
    n = A.dim
    basis = [vbasis(n, i) for i in range(n)]
    diffs = {}
    for i in range(n):
        for j in range(n):
            x, y = basis[i], basis[j]
            vr_x, vr_y = rep.varrho[i], rep.varrho[j]
            mu_x, mu_y = rep.mu[i], rep.mu[j]
            nu_x, nu_y = rep.nu[i], rep.nu[j]
            lw, ll, lr = wedge_prod(A, x, y), left_prod(A, x, y), left_prod(A, y, x)
            d1 = _lin(rep.mu, lw, md) - (
                matmul(mu_x, mu_y) - matmul(mu_y, mu_x) - _lin(rep.mu, ll, md)
                + _lin(rep.mu, lr, md))
            d2 = _lin(rep.nu, ll, md) - (
                matmul(mu_x, nu_y) - matmul(nu_y, mu_x) + matmul(nu_y, nu_x)
                - matmul(nu_y, vr_x))
            d3 = _lin(rep.nu, lw, md) - (
                matmul(mu_y, vr_x) - matmul(vr_x, mu_y) + matmul(vr_x, nu_y)
                - matmul(vr_y, nu_x) + matmul(vr_y, vr_x) - matmul(vr_x, vr_y)
                + matmul(vr_y, mu_x) - matmul(mu_x, vr_y) + _lin(rep.varrho, comm(A, x, y), md))
            diffs[i, j] = (d1, d2, d3)
    return Certificate.combine("ns-rep", [
        scan(name, ((ij, d[k]) for ij, d in diffs.items()))
        for k, name in enumerate(("ns-rep-1", "ns-rep-2", "ns-rep-3"))])


# -- constructions, as the structure-constant tables they produce ----------

def _comp(v):
    return {k: c for k, c in enumerate(v) if c != 0}


def _nonempty(table: dict) -> dict:
    return {key: comp for key, comp in table.items() if comp}


def induced_sc(L, R: Mat) -> dict:
    n = L.dim
    return _nonempty({(i, j): _comp(_induced_bracket(L, R, vbasis(n, i), vbasis(n, j)))
                      for i, j in combinations(range(n), 2)})


def descendent_sc(L, B: Mat, lam) -> dict:
    n = L.dim
    return _nonempty({(i, j): _comp(_rb_inner(L, B, Fraction(lam), vbasis(n, i), vbasis(n, j)))
                      for i, j in combinations(range(n), 2)})


def ns_from_reynolds_tables(L, R: Mat) -> tuple[dict, dict]:
    n = L.dim
    left = {(i, j): _comp(L.bracket(R.apply(vbasis(n, i)), vbasis(n, j)))
            for i in range(n) for j in range(n)}
    wedge = {(i, j): {k: -c for k, c in
                      _comp(L.bracket(R.apply(vbasis(n, i)), R.apply(vbasis(n, j)))).items()}
             for i, j in combinations(range(n), 2)}
    return _nonempty(left), _nonempty(wedge)


def ns_commutator_sc(A) -> dict:
    n = A.dim
    return _nonempty({(i, j): _comp(comm(A, vbasis(n, i), vbasis(n, j)))
                      for i, j in combinations(range(n), 2)})
