"""`exact.products` against a term-by-term `Fraction` body on seeded inputs.

The body evaluates x_a·y_b = Σ_i Σ_j x_i·y_j·(e_i·e_j) over the terms whose product e_i·e_j
is in the table, on `Fraction`s.  A product with no term is absent; a product whose terms
cancel keeps its zero coefficients, as the integer kernels that decide `where` expect.
"""

import random
from fractions import Fraction

from algcert.exact import products, table_rows

CASES = 1200


def body(rows, xs, ys, n: int, m: int) -> list:
    """out[a][b] = x_a·y_b term by term, a family given as None being the basis of its side."""
    xs = [{i: 1} for i in range(n)] if xs is None else xs
    ys = [{j: 1} for j in range(m)] if ys is None else ys
    out = []
    for x in xs:
        row = {}
        for b, y in enumerate(ys):
            acc = {}
            for i, xi in x.items():
                for j, yj in y.items():
                    for k, c in rows[i].get(j, {}).items():
                        acc[k] = acc.get(k, Fraction(0)) + Fraction(xi) * Fraction(yj) * c
            if acc:
                row[b] = acc
        out.append(row)
    return out


def coefficient(rng) -> int:
    return rng.choice([-3, -2, -1, 1, 1, 2, 5, 7, 60])


def table(rng, shape: str, n: int, m: int) -> list:
    """Rows of a random bilinear map: a skew or a non-skew table on n = m indices, or the
    ρ(e_i)e_j of a representation, e_i among n indices and e_j, ρ(e_i)e_j among m."""
    keys = [(i, j) for i in range(n) for j in range(m) if shape != "skew" or i < j]
    body = {key: {k: coefficient(rng) for k in rng.sample(range(m), rng.randint(1, m))}
            for key in keys if rng.random() < 0.7}
    if shape == "rep":
        return [{j: comp for (a, j), comp in body.items() if a == i} for i in range(n)]
    return table_rows(body, n, shape == "skew")


def family(rng, dim: int) -> list | None:
    """None (the basis), or a dense, monomial or perturbed family of rng-many vectors, zero
    vectors and vectors with a stored zero among them."""
    kind = rng.choice(["basis", "dense", "monomial", "perturbed", "empty"])
    if kind == "basis":
        return None
    if kind == "empty":
        return []
    out = []
    for _ in range(rng.randint(1, dim + 2)):
        if kind == "dense":
            v = {k: coefficient(rng) for k in range(dim)}
        else:
            v = {rng.randrange(dim): coefficient(rng)}
            if kind == "perturbed":
                v[rng.randrange(dim)] = coefficient(rng)
        if rng.random() < 0.1:
            v = {}
        elif rng.random() < 0.1:
            v[rng.randrange(dim)] = 0
        out.append(v)
    return out


def test_products_match_the_fraction_body_on_seeded_inputs():
    rng = random.Random(20261019)
    seen, cancelled = set(), 0
    for _ in range(CASES):
        shape = rng.choice(["skew", "nonskew", "rep"])
        n = rng.randint(1, 5)
        m = rng.randint(1, 5) if shape == "rep" else n
        rows = table(rng, shape, n, m)
        xs, ys = family(rng, n), family(rng, m)
        out = products(rows, xs, ys)
        assert out == body(rows, xs, ys, n, m), (rows, xs, ys)
        seen.add((shape, xs is None, ys is None))
        cancelled += any(0 in v.values() for row in out for v in row.values())
    assert len(seen) == 12 and cancelled > 0


def test_cancelled_zeros_survive_and_empty_products_are_left_out():
    # e_0·e_0 = e_2 and e_1·e_0 = −e_2: (e_0 + e_1)·e_0 = 0·e_2 has terms, e_0·e_1 has none
    rows = [{0: {2: 1}}, {0: {2: -1}}, {}]
    assert products(rows, [{0: 1, 1: 1}], [{0: 1}, {1: 1}, {}]) == [{0: {2: 0}}]
    assert products(rows, [{0: 1, 1: 1}]) == [{0: {2: 0}}]
    assert products(rows, None, [{0: 3}]) == [{0: {2: 3}}, {0: {2: -3}}, {}]
    assert products(rows) is rows
    assert products(rows, [], [{0: 1}]) == [] and products(rows, [{}], [{0: 1}]) == [{}]
