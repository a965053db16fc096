"""Checks that visit one basis tuple per symmetry orbit, against full enumeration.

`is_nslie`, `is_invariant_form`, `operator_form_compat` and `is_ns_rep` evaluate
an identity with an exact symmetry once per orbit of basis tuples, and `scan`
counts a nonzero value by its orbit's size.  Their certificates must equal, in
full, those of the `dense_oracle` bodies, which visit every ordered tuple: on
random unchecked tables, forms, operators and representations, most of them
failing.  The NS-type checks read NS identity 1 off `lie.pair_blocks` and
identity 2 off `lie.jacobiator`; the last two tests check the equivalences that
let `is_ns_rep` and `is_prelie` be read off the NS identities of other tables.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from hypothesis import given, settings, strategies as st

import dense_oracle as dense
from algcert.certificates import scan
from algcert.exact import Mat, Table, integral
from algcert.lie import BilinForm, LieAlgebra, is_invariant_form
from algcert.cybe import PreLieAlgebra, is_prelie
from algcert.nslie import (NSLieAlgebra, NSRep, _semidirect_tables, is_ns_rep, is_nslie,
                           ns_from_reynolds, regular_rep)
from algcert.reynolds import ReynoldsLieAlgebra, operator_form_compat

SMALL = st.sampled_from([Fraction(c) for c in (0, 0, 0, 1, -1, 2, -3)]
                        + [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)])
SL2 = LieAlgebra.unchecked(3, None, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
SL2_FORM = BilinForm(Mat([[2, 0, 0], [0, 0, 1], [0, 1, 0]]))
# the profile of conftest.py with more examples: each runs in a few milliseconds
MORE = settings(max_examples=60)


def test_scan_counts_each_orbit_by_its_size():
    # v(i, j, k) skew in (i, j) and zero on i = j; w(i, j) symmetric
    def v(i, j, k):
        return (i - j) * (k - 1) * (i + j - 2)

    def w(i, j):
        return (i + j) % 3
    n = 4
    full = scan("skew", (((i, j, k), v(i, j, k)) for i, j, k in product(range(n), repeat=3)), 5)
    orbits = scan("skew", (((i, j, k), v(i, j, k)) for i, j in combinations(range(n), 2)
                           for k in range(n)), 5, orbit=lambda t: 2)
    assert orbits == full and full.violations == 2 * 15 and full.where == (0, 1, 0)
    full = scan("sym", (((i, j), w(i, j)) for i, j in product(range(n), repeat=2)))
    orbits = scan("sym", (((i, j), w(i, j)) for i, j in combinations_with_replacement(range(n), 2)),
                  orbit=lambda t: 1 + (t[0] < t[1]))
    assert orbits == full and full.violations == 10 and full.where == (0, 1)
    assert scan("none", iter([((0, 1), 0), ((0, 2), {})]), orbit=lambda t: 6).ok


def sparse(draw, n: int, keys) -> dict:
    """A random sparse table on the given keys: each key gets 0 to 2 random entries."""
    return {key: {draw(st.integers(0, n - 1)): draw(SMALL)
                  for _ in range(draw(st.integers(0, 2)))} for key in keys}


@st.composite
def lie_algebras(draw, max_dim: int) -> LieAlgebra:
    n = draw(st.integers(1, max_dim))
    return LieAlgebra.unchecked(n, None, sparse(draw, n, combinations(range(n), 2)))


def rand_mat(draw, rows: int, cols: int) -> Mat:
    return Mat([[draw(SMALL) for _ in range(cols)] for _ in range(rows)])


@st.composite
def ns_algebras(draw, max_dim: int = 4) -> NSLieAlgebra:
    """Arbitrary ◁ and skew ▷, or the NS-Lie tables of an arbitrary operator on a table."""
    if draw(st.integers(0, 3)) == 0:
        L = draw(st.sampled_from([SL2, draw(lie_algebras(max_dim))]))
        return ns_from_reynolds(ReynoldsLieAlgebra.unchecked(L, rand_mat(draw, L.dim, L.dim)))
    n = draw(st.integers(1, max_dim))
    return NSLieAlgebra.unchecked(n, None, sparse(draw, n, product(range(n), repeat=2)),
                                  sparse(draw, n, combinations(range(n), 2)))


@MORE
@given(ns_algebras())
def test_nslie_matches_full_enumeration(A):
    assert is_nslie(A).to_json() == dense.is_nslie(A).to_json()


@st.composite
def quadratic_cases(draw):
    """A table, a symmetric form, an operator and λ; sl(2) with its invariant form at times."""
    if draw(st.integers(0, 3)) == 0:
        L, S = SL2, SL2_FORM
    else:
        L = draw(lie_algebras(5))
        n = L.dim
        upper = {(a, b): draw(SMALL) for a, b in combinations_with_replacement(range(n), 2)}
        S = BilinForm(Mat([[upper[min(a, b), max(a, b)] for b in range(n)] for a in range(n)]))
    return L, S, rand_mat(draw, L.dim, L.dim), draw(SMALL)


@MORE
@given(quadratic_cases())
def test_form_checks_match_full_enumeration(case):
    L, S, R, lam = case
    assert is_invariant_form(L, S).to_json() == dense.is_invariant_form(L, S).to_json()
    for op_lam in (None, lam):
        assert (operator_form_compat(L, S, R, op_lam).to_json()
                == dense.operator_form_compat(L, S, R, op_lam).to_json())


def draw_rep(draw, A: NSLieAlgebra) -> NSRep:
    """Random maps on a module of dimension 0 to 3, or the regular representation with
    one of its three maps scaled."""
    n = A.dim
    if draw(st.booleans()):
        m = draw(st.integers(0, 3))
        return NSRep.unchecked(A, m, *([rand_mat(draw, m, m) for _ in range(n)] for _ in range(3)))
    reg, c = regular_rep(A), draw(SMALL)
    maps = [reg.varrho, reg.mu, reg.nu]
    k = draw(st.integers(0, 2))
    maps[k] = [x.scale(c) for x in maps[k]]
    return NSRep.unchecked(A, n, *maps)


@MORE
@given(ns_algebras(max_dim=3), st.data())
def test_ns_rep_matches_full_enumeration(A, data):
    rep = draw_rep(data.draw, A)
    assert is_ns_rep(rep).to_json() == dense.is_ns_rep(rep).to_json()


# `is_ns_rep` and `is_prelie` are read off the NS identities of other tables; the
# facts that this rests on, on random data, valid or not

SL2_NS = ns_from_reynolds(ReynoldsLieAlgebra(SL2, Mat([[0, 0, -1], [2, 0, 0], [0, 0, 0]])))


@MORE
@given(st.one_of(st.just(SL2_NS), ns_algebras(max_dim=3)), st.data())
def test_semidirect_is_nslie_exactly_when_rep_is(A, data):
    # the NS identities of G⊕W on triples in G are G's, with one vector in W the
    # representation's, and with two or more in W they vanish
    rep = draw_rep(data.draw, A)
    m = A.dim + rep.module_dim
    left, wedge, *maps, den = integral(A.left, A.wedge, *rep.mu, *rep.nu, *rep.varrho)
    left, wedge = _semidirect_tables(left, wedge, maps, A.dim)
    semidirect = NSLieAlgebra.unchecked(m, None, Table._of(m, left, False, den),
                                        Table._of(m, wedge, True, den))
    assert is_nslie(semidirect).ok == (is_nslie(A).ok and is_ns_rep(rep).ok)


@st.composite
def prelie_algebras(draw, max_dim: int = 4) -> PreLieAlgebra:
    """A random product, or the associative product of the 2×2 matrix units with one
    entry changed at times."""
    if draw(st.integers(0, 2)) == 0:
        n = draw(st.integers(1, max_dim))
        return PreLieAlgebra.unchecked(n, None, sparse(draw, n, product(range(n), repeat=2)))
    units = list(product(range(2), repeat=2))
    prod = {(i, j): {units.index((a, d)): Fraction(1)} for i, (a, b) in enumerate(units)
            for j, (c, d) in enumerate(units) if b == c}
    if draw(st.booleans()):
        prod[draw(st.sampled_from(list(product(range(4), repeat=2))))] = {
            draw(st.integers(0, 3)): draw(SMALL)}
    return PreLieAlgebra.unchecked(4, None, prod)


@MORE
@given(prelie_algebras())
def test_prelie_is_first_ns_identity(A):
    # pre-Lie is NS-Lie with ▷ = 0; ns-identity-1 counts both orders of (x, y), pre-lie one
    pre = is_prelie(A)
    ns = is_nslie(NSLieAlgebra.unchecked(A.dim, None, A.prod, {})).parts[0]
    assert ns.check == "ns-identity-1" and ns.ok == pre.ok
    assert (ns.where, ns.residual, ns.violations) == (pre.where, pre.residual, 2 * pre.violations)
