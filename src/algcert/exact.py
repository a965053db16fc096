"""Exact rational scalars, vectors, matrices and sparse tensors.

Conventions fixed here for the whole package:

* every stored scalar is a ``fractions.Fraction`` (arbitrary precision,
  always stored reduced, never a float); the identity checks scale the
  tables they read to integers under one common denominator per table
  (`integral`), built per call, do their arithmetic on ``int``, and turn
  only a reported residual back into a ``Fraction``;
* vectors are coordinate tuples, matrices act on column coordinate
  vectors, and the matrix of an operator has the images of the basis
  vectors as its columns;
* the transpose of an operator matrix is the matrix of the dual map in
  dual bases;
* sparse tensors never store zero entries and iterate in lexicographic
  index order, so serialized output is canonical.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import lshift
from typing import Iterable, Iterator, Mapping

Rat = Fraction
Vec = tuple[Fraction, ...]
SVec = dict[int, Fraction]


def rat(value) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(value)


ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------
#
# Tuples are built from lists, not generators: a tuple built from an iterator
# of unknown length is allocated at a guessed size and resized, and freeing it
# fills CPython's free list of its final size (up to 2,000 tuples per size)
# until the next full garbage collection, which raises peak memory.

def vec(coords: Iterable) -> Vec:
    return tuple([rat(c) for c in coords])


def vzero(n: int) -> Vec:
    return (ZERO,) * n


def vbasis(n: int, i: int) -> Vec:
    return tuple([ONE if k == i else ZERO for k in range(n)])


def vadd(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vector dimensions differ: {len(a)} vs {len(b)}")
    return tuple([x + y for x, y in zip(a, b)])


def vsub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vector dimensions differ: {len(a)} vs {len(b)}")
    return tuple([x - y for x, y in zip(a, b)])


def vis_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Mat:
    """Dense exact-rational matrix; immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple([tuple([rat(c) for c in row]) for row in entries])
        self.entries: tuple[tuple[Fraction, ...], ...] = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def _of(cls, rows) -> "Mat":
        """A matrix from rows of Fractions, taken as they are: no coercion, no shape check."""
        m = object.__new__(cls)
        m.entries = tuple([tuple(row) for row in rows])
        m.rows = len(m.entries)
        m.cols = len(m.entries[0]) if m.entries else 0
        return m

    def _same_shape(self, other: "Mat") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._of([ZERO] * cols for _ in range(rows))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._of([ONE if i == j else ZERO for j in range(n)] for i in range(n))

    @classmethod
    def from_cols(cls, cols: Iterable[Vec]) -> "Mat":
        cols = [vec(c) for c in cols]
        if not cols:
            return cls.zeros(0, 0)
        n = len(cols[0])
        return cls._of([c[i] for c in cols] for i in range(n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(c) for c in row) for row in self.entries)
        return f"Mat[{body}]"

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._of([a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries))

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat._of([a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries))

    def __neg__(self) -> "Mat":
        return Mat._of([-a for a in row] for row in self.entries)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(
                f"matrix product shape mismatch: {self.rows}x{self.cols} @ "
                f"{other.rows}x{other.cols}"
            )
        out = []
        for row in self.entries:
            acc = [ZERO] * other.cols
            for a, orow in zip(row, other.entries):
                if a:
                    for k, b in enumerate(orow):
                        if b:
                            acc[k] += a * b
            out.append(acc)
        return Mat._of(out)

    def scale(self, c) -> "Mat":
        c = rat(c)
        return Mat._of([c * a for a in row] for row in self.entries)

    def apply(self, v: Vec) -> Vec:
        """Exact matrix-vector product (column-vector convention)."""
        if self.cols != len(v):
            raise ValueError(f"cannot apply {self.rows}x{self.cols} to vector of length {len(v)}")
        nonzero = [(k, x) for k, x in enumerate(v) if x]
        return tuple([sum((row[k] * x for k, x in nonzero if row[k]), ZERO)
                      for row in self.entries])

    def transpose(self) -> "Mat":
        """Matrix of the dual map in dual bases."""
        return Mat._of(zip(*self.entries))

    def col(self, j: int) -> Vec:
        return tuple([row[j] for row in self.entries])

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.entries for a in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def det(self) -> Fraction:
        """Exact determinant by fraction-pivoting Gaussian elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        work = [list(row) for row in self.entries]
        det = ONE
        for j in range(n):
            pivot = next((i for i in range(j, n) if work[i][j] != 0), None)
            if pivot is None:
                return ZERO
            if pivot != j:
                work[j], work[pivot] = work[pivot], work[j]
                det = -det
            det *= work[j][j]
            inv = 1 / work[j][j]
            for i in range(j + 1, n):
                if work[i][j] == 0:
                    continue
                factor = work[i][j] * inv
                for k in range(j, n):
                    work[i][k] -= factor * work[j][k]
        return det

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) + [ONE if i == k else ZERO for k in range(n)]
                for i, row in enumerate(self.entries)]
        for j in range(n):
            pivot = next((i for i in range(j, n) if work[i][j] != 0), None)
            if pivot is None:
                raise ValueError("singular matrix has no inverse")
            work[j], work[pivot] = work[pivot], work[j]
            inv = 1 / work[j][j]
            work[j] = [a * inv for a in work[j]]
            for i in range(n):
                if i != j and work[i][j] != 0:
                    factor = work[i][j]
                    work[i] = [a - factor * b for a, b in zip(work[i], work[j])]
        return Mat._of(row[n:] for row in work)

    def submatrix(self, row_ids: Iterable[int], col_ids: Iterable[int]) -> "Mat":
        rows = list(row_ids)
        cols = list(col_ids)
        return Mat._of([self.entries[i][j] for j in cols] for i in rows)

    @staticmethod
    def block_diag(a: "Mat", b: "Mat") -> "Mat":
        """Block-diagonal assembly; first factor block then second."""
        out = [
            list(row) + [ZERO] * b.cols for row in a.entries
        ] + [
            [ZERO] * a.cols + list(row) for row in b.entries
        ]
        return Mat._of(out)


def mat_comb(mats, v: SVec, rows: int, cols: int) -> Mat:
    """Σ_k v[k]·mats[k] for a sparse coefficient vector v."""
    acc = [[ZERO] * cols for _ in range(rows)]
    for k, c in v.items():
        for arow, mrow in zip(acc, mats[k].entries):
            for b, x in enumerate(mrow):
                if x:
                    arow[b] += c * x
    return Mat._of(acc)


def mat_apply(m: Mat, v: Vec) -> Vec:
    return m.apply(v)


def transpose(m: Mat) -> Mat:
    return m.transpose()


# ---------------------------------------------------------------------------
# sparse order-2 and order-3 tensors
# ---------------------------------------------------------------------------

class Tensor2:
    """Sparse element of V⊗W; keys (i, j), zeros never stored."""

    __slots__ = ("dim_left", "dim_right", "entries")

    def __init__(self, dim_left: int, dim_right: int, entries: Mapping | None = None):
        self.dim_left = dim_left
        self.dim_right = dim_right
        data: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in (entries or {}).items():
            c = rat(c)
            if c == 0:
                continue
            if not (0 <= i < dim_left and 0 <= j < dim_right):
                raise ValueError(f"tensor index ({i},{j}) out of bounds")
            data[(i, j)] = c
        self.entries = data

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Entries in lexicographic (i, j) order."""
        return iter(sorted(self.entries.items()))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), ZERO)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor2)
            and self.dim_left == other.dim_left
            and self.dim_right == other.dim_right
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.dim_left, self.dim_right, tuple(sorted(self.entries.items()))))

    def __repr__(self) -> str:
        body = ", ".join(f"({i},{j}):{rat_str(c)}" for (i, j), c in self.items())
        return f"Tensor2<{self.dim_left}x{self.dim_right}>{{{body}}}"

    def __add__(self, other: "Tensor2") -> "Tensor2":
        self._same_shape(other)
        data = dict(self.entries)
        for k, c in other.entries.items():
            data[k] = data.get(k, ZERO) + c
        return Tensor2(self.dim_left, self.dim_right, data)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + other.scale(-1)

    def __neg__(self) -> "Tensor2":
        return self.scale(-1)

    def scale(self, c) -> "Tensor2":
        c = rat(c)
        return Tensor2(self.dim_left, self.dim_right,
                       {k: c * v for k, v in self.entries.items()})

    def is_zero(self) -> bool:
        return not self.entries

    def is_skew(self) -> bool:
        if self.dim_left != self.dim_right:
            return False
        return all(self.entry(j, i) == -c for (i, j), c in self.entries.items())

    def _same_shape(self, other: "Tensor2") -> None:
        if (self.dim_left, self.dim_right) != (other.dim_left, other.dim_right):
            raise ValueError("tensor shapes differ")


def tensor2_map(f: Mat, g: Mat, t: Tensor2) -> Tensor2:
    """(f⊗g)(t): entry (a,b) = Σ f[a][i]·g[b][j]·t[i][j]."""
    if f.cols != t.dim_left or g.cols != t.dim_right:
        raise ValueError("operator/tensor dimension mismatch in tensor2_map")
    data: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in t.entries.items():
        fcol = f.col(i)
        gcol = g.col(j)
        for a, fa in enumerate(fcol):
            if fa == 0:
                continue
            for b, gb in enumerate(gcol):
                if gb == 0:
                    continue
                key = (a, b)
                data[key] = data.get(key, ZERO) + fa * gb * c
    return Tensor2(f.rows, g.rows, data)


def flip(t: Tensor2) -> Tensor2:
    """The flip σ swapping tensor factors; square tensors only."""
    if t.dim_left != t.dim_right:
        raise ValueError("flip of a non-square tensor")
    return Tensor2(t.dim_right, t.dim_left,
                   {(j, i): c for (i, j), c in t.entries.items()})


def tensor3_map(f: Mat, g: Mat, h: Mat, t: "Tensor3") -> "Tensor3":
    """(f⊗g⊗h)(t) for order-3 tensors."""
    if (f.cols, g.cols, h.cols) != t.dims:
        raise ValueError("operator/tensor dimension mismatch in tensor3_map")
    data: dict[tuple[int, int, int], Fraction] = {}
    for (i, j, k), c in t.entries.items():
        fcol, gcol, hcol = f.col(i), g.col(j), h.col(k)
        for a, fa in enumerate(fcol):
            if fa == 0:
                continue
            for b, gb in enumerate(gcol):
                if gb == 0:
                    continue
                fg = fa * gb * c
                for d, hd in enumerate(hcol):
                    if hd == 0:
                        continue
                    key = (a, b, d)
                    data[key] = data.get(key, ZERO) + fg * hd
    return Tensor3((f.rows, g.rows, h.rows), data)


class Tensor3:
    """Sparse order-3 tensor, used only for computed residuals."""

    __slots__ = ("dims", "entries")

    def __init__(self, dims: tuple[int, int, int], entries: Mapping | None = None):
        self.dims = dims
        data: dict[tuple[int, int, int], Fraction] = {}
        for key, c in (entries or {}).items():
            c = rat(c)
            if c == 0:
                continue
            if not all(0 <= k < d for k, d in zip(key, dims)):
                raise ValueError(f"tensor index {key} out of bounds")
            data[key] = c
        self.entries = data

    def items(self) -> Iterator[tuple[tuple[int, int, int], Fraction]]:
        return iter(sorted(self.entries.items()))

    def entry(self, i: int, j: int, k: int) -> Fraction:
        return self.entries.get((i, j, k), ZERO)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor3)
            and self.dims == other.dims
            and self.entries == other.entries
        )

    def __add__(self, other: "Tensor3") -> "Tensor3":
        if self.dims != other.dims:
            raise ValueError("tensor shapes differ")
        data = dict(self.entries)
        for k, c in other.entries.items():
            data[k] = data.get(k, ZERO) + c
        return Tensor3(self.dims, data)

    def __repr__(self) -> str:
        body = ", ".join(f"{key}:{rat_str(c)}" for key, c in self.items())
        return f"Tensor3<{self.dims}>{{{body}}}"

    def is_zero(self) -> bool:
        return not self.entries


# ---------------------------------------------------------------------------
# sparse vectors and bilinear tables on basis indices
# ---------------------------------------------------------------------------
#
# Identity checks evaluate products on basis indices rather than on dense
# coordinate vectors: a sparse vector is a dict {index: coefficient} (it may
# hold cancelled zeros), and a bilinear map is stored as a `Table` and
# evaluated through its rows, rows[i][j] = e_i·e_j as a sparse vector, built
# per call by `Table.rows`; a matrix is its list of sparse columns.  The
# helpers below are number-generic: on `integral` tables they stay on ``int``,
# on ``Fraction`` ones on ``Fraction``.  A residual handed to `scan` is the
# sparse vector itself, or a dict {(row, column): coefficient} for a matrix.

Rows = list[dict[int, SVec]]


class Table(dict):
    """A bilinear map on basis indices: {(i, j): {k: c}} with e_i·e_j = Σ_k c·e_k.

    A skew table (a Lie bracket, the NS-Lie product ▷) stores keys with i < j
    only, and e_j·e_i = −e_i·e_j.  Entries are validated once, on
    construction, and zeros are never stored.  It compares equal to a plain
    dict with the same entries.
    """

    def __init__(self, dim: int, entries: Mapping | None = None, skew: bool = False):
        super().__init__()
        self.dim, self.skew = dim, skew
        for (i, j), comp in (entries or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"table key ({i},{j}) out of range for dim {dim}")
            if skew and i >= j:
                raise ValueError(f"skew table key ({i},{j}) must satisfy i<j")
            cleaned = {}
            for k, c in comp.items():
                c = rat(c)
                if not 0 <= int(k) < dim:
                    raise ValueError(f"table output index {k} out of range for dim {dim}")
                if c != 0:
                    cleaned[int(k)] = c
            if cleaned:
                self[i, j] = cleaned

    @classmethod
    def _of(cls, dim: int, entries: Mapping, skew: bool) -> "Table":
        """A table of valid entries, taken as they are: no coercion, no check."""
        t = cls.__new__(cls)
        t.update(entries)
        t.dim, t.skew = dim, skew
        return t

    def rows(self) -> Rows:
        """rows[i][j] = e_i·e_j as a sparse vector, both orders of a skew key."""
        rows: Rows = [{} for _ in range(self.dim)]
        for (i, j), comp in self.items():
            rows[i][j] = comp
            if self.skew:
                rows[j][i] = {k: -c for k, c in comp.items()}
        return rows

    def basis_prod(self, i: int, j: int) -> Vec:
        """e_i·e_j as a coordinate vector."""
        sign = 1
        if self.skew and i > j:
            i, j, sign = j, i, -1
        out = [ZERO] * self.dim
        for k, c in self.get((i, j), {}).items():
            out[k] = sign * c
        return tuple(out)

    def prod(self, x: Vec, y: Vec) -> Vec:
        """x·y on coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector dimension does not match the table")
        out = [ZERO] * self.dim
        for (i, j), comp in self.items():
            coeff = x[i] * y[j] - x[j] * y[i] if self.skew else x[i] * y[j]
            if coeff:
                for k, c in comp.items():
                    out[k] += coeff * c
        return tuple(out)


def saxpy(out: SVec, a, v: SVec) -> SVec:
    """out += a·v in place; returns out."""
    for k, c in v.items():
        if k in out:
            out[k] += a * c
        else:
            out[k] = a * c
    return out


def integral(*tables):
    """The tables scaled to integers under one common denominator.

    Each table is a `Table`, a list of sparse vectors, or a `Mat`, which is
    read straight into its list of sparse integer columns.  Returns each
    table (a `Mat` as its columns) with every coefficient multiplied by D,
    as an ``int``, followed by D, the lcm of all the coefficients'
    denominators.
    """
    dens = set()
    for t in tables:
        dens.update({c.denominator for row in t.entries for c in row} if isinstance(t, Mat) else
                    {c.denominator for v in (t.values() if isinstance(t, Table) else t)
                     for c in v.values()})
    den = lcm(*dens)

    def scale(v: SVec) -> dict[int, int]:
        return {k: c.numerator * (den // c.denominator) for k, c in v.items()}

    def columns(m: Mat) -> list[dict[int, int]]:
        return [{i: c.numerator * (den // c.denominator) for i, c in enumerate(col) if c}
                for col in zip(*m.entries)]
    return (*(Table._of(t.dim, {key: scale(v) for key, v in t.items()}, t.skew)
              if isinstance(t, Table) else columns(t) if isinstance(t, Mat) else
              [scale(v) for v in t] for t in tables), den)


def top(*tables) -> int:
    """The largest |coefficient| of integer tables as `integral` returns them."""
    out = 0
    for t in tables:
        vectors = t.values() if isinstance(t, Table) else t
        out = max(out, max(map(abs, chain.from_iterable(map(dict.values, vectors))), default=0))
    return out


def unscale(v: dict[int, int], den: int) -> SVec:
    """The Fraction vector v/den of an integer sparse vector on the scale den."""
    return {k: Fraction(c, den) for k, c in v.items()}


# Packed vectors.  The identity kernels store an integer sparse vector {k: c} as
# one ``int`` with signed slots of a fixed width w, Σ_k c·2^(k·w) (Kronecker
# substitution), so a vector multiply-add is one bigint multiply-add and a
# zero test is ``v == 0``.  The packed value is exact whatever its slots hold
# on the way; it decodes to the right coefficients, and is 0 only for the zero
# vector, when every coefficient c it stands for has |c| ≤ 2^(w−1) − 1.  A
# kernel derives w per call (`width`) from a proven bound on every
# coefficient it tests or decodes, from the `top` of its integer tables and
# the dimension.

def width(bound: int) -> int:
    """The least slot width w with 2^(w−1) − 1 ≥ bound."""
    return bound.bit_length() + 1


def pack(v: dict[int, int], w: int) -> int:
    """The vector v = {k: c} as one ``int``, c in the slot k of width w."""
    return sum(map(lshift, v.values(), map(w.__mul__, v)))


def unpack(v: int, w: int) -> dict[int, int]:
    """The nonzero slots {k: c} of a packed vector: the inverse of `pack`."""
    out: dict[int, int] = {}
    half, mask, k = 1 << (w - 1), (1 << w) - 1, 0
    while v:
        c = ((v + half) & mask) - half
        if c:
            out[k] = c
        v = (v - c) >> w
        k += 1
    return out


def scols(m: Mat) -> list[SVec]:
    """The nonzero entries of each column of m."""
    return [{i: c for i, c in enumerate(col) if c != 0} for col in zip(*m.entries)]


def sapply(cols: list[SVec], v: SVec) -> SVec:
    """M·v for M given by its sparse columns."""
    out: SVec = {}
    for j, a in v.items():
        saxpy(out, a, cols[j])
    return out


def sprod(rows: Rows, x: SVec, y: SVec) -> SVec:
    """x·y for the bilinear map with the given rows."""
    out: SVec = {}
    for i, a in x.items():
        row = rows[i]
        for j, b in y.items():
            comp = row.get(j)
            if comp:
                saxpy(out, a * b, comp)
    return out


def srow(out: SVec, row: dict[int, SVec], y: SVec) -> SVec:
    """out += e·y in place, for the row {j: e·e_j} of one basis vector e; returns out."""
    for j, b in y.items():
        comp = row.get(j)
        if comp:
            saxpy(out, b, comp)
    return out


def precompose(rows: Rows, cols: list[SVec]) -> Rows:
    """Rows of (x, y) ↦ (Mx)·y, M given by its sparse columns."""
    out: Rows = []
    for col in cols:
        row: dict[int, SVec] = {}
        for a, c in col.items():
            for j, comp in rows[a].items():
                saxpy(row.setdefault(j, {}), c, comp)
        out.append(row)
    return out


def action_rows(mats) -> Rows:
    """rows[k][j] = mats[k]·e_j: the table of (x, u) ↦ (Σ_k x_k·mats[k])u."""
    return [{j: col for j, col in enumerate(scols(m)) if col} for m in mats]


def dense(n: int, v: SVec) -> Vec:
    """The coordinate tuple of a sparse vector."""
    out = [ZERO] * n
    for k, c in v.items():
        out[k] = c
    return tuple(out)
