"""Exact rational scalars, vectors, matrices and sparse tensors.

Conventions fixed here for the whole package:

* every scalar is exact, never a float: a ``fractions.Fraction``
  (arbitrary precision, always reduced) or an ``int`` numerator over a
  common denominator;
* every `Mat` and `Table` keeps its exact integer form: its coefficients
  as ``int``s on one common denominator, and the largest |coefficient|,
  computed once per object (a `Mat` stores nothing else).  The identity
  checks read these forms through `integral`, do their arithmetic on
  ``int``, and turn only a reported residual back into a ``Fraction``;
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
from math import gcd, lcm
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

def _ints(vectors) -> tuple[list[dict[int, int]], int]:
    """Rational sparse vectors {k: c} as integer ones on the lcm D of their denominators, and D."""
    ratios = [{k: c.as_integer_ratio() for k, c in v.items()} for v in vectors]
    den = lcm(*{d for r in ratios for _, d in r.values()})
    return [{k: n * (den // d) for k, (n, d) in r.items()} for r in ratios], den


def _top(vectors) -> int:
    """The largest |coefficient| of integer sparse vectors."""
    return max(map(abs, chain.from_iterable(map(dict.values, vectors))), default=0)


class Mat:
    """Exact-rational matrix, stored sparse; immutable after construction.

    A matrix keeps its exact integer form and nothing else: `icols[j]` holds the
    nonzero entries of column j as integers {row: c} on one common denominator
    `den` > 0, entry (i, j) being icols[j][i] / den, and `top` is the largest |c|.
    `den` is canonical, gcd(den, every c) = 1, so equal entries are equal forms:
    `==` and `hash` compare the forms.  `entries` is the dense view of rows of
    Fractions, derived on each read.
    """

    __slots__ = ("rows", "cols", "icols", "den", "top")

    def __init__(self, entries: Iterable[Iterable]):
        rows = [[rat(c).as_integer_ratio() for c in row] for row in entries]
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged matrix rows")
        den = lcm(*{d for row in rows for _, d in row})
        self._keep(len(rows), cols, [{i: n * (den // d) for i, (n, d) in enumerate(col) if n}
                                     for col in zip(*rows)], den)

    def _keep(self, rows: int, cols: int, icols, den: int) -> None:
        """Keep fresh integer columns {row: c} over den > 0, zeros dropped, den canonical."""
        if not all(chain.from_iterable(map(dict.values, icols))):
            icols = [{i: c for i, c in col.items() if c} for col in icols]
        g = gcd(den, *chain.from_iterable(map(dict.values, icols)))
        if g != 1:
            icols = [{i: c // g for i, c in col.items()} for col in icols]
        self.rows, self.cols, self.den, self.icols = rows, cols, den // g, tuple(icols)
        self.top = _top(icols)

    @classmethod
    def _of(cls, rows: int, cols: int, icols, den: int = 1) -> "Mat":
        """The matrix of integer columns {row: c} over den > 0, taken as in range."""
        m = object.__new__(cls)
        m._keep(rows, cols, icols, den)
        return m

    @classmethod
    def _from(cls, rows: int, cols: int, fcols) -> "Mat":
        """The matrix of rational columns {row: c}, taken as in range: no coercion."""
        return cls._of(rows, cols, *_ints(fcols))

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense rows of Fractions."""
        return tuple(zip(*map(self.col, range(self.cols)))) if self.cols else ((),) * self.rows

    @property
    def form(self) -> tuple:
        """The integer form (icols, den, top), as `integral` reads it."""
        return self.icols, self.den, self.top

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._of(rows, cols, [{} for _ in range(cols)])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._of(n, n, [{j: 1} for j in range(n)])

    @classmethod
    def from_cols(cls, cols: Iterable[Vec]) -> "Mat":
        return cls(zip(*cols, strict=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and ((self.rows, self.cols, self.den, self.icols)
                                           == (other.rows, other.cols, other.den, other.icols))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, *map(frozenset, map(dict.items, self.icols))))

    def __repr__(self) -> str:
        return f"Mat[{'; '.join(' '.join(map(rat_str, row)) for row in self.entries)}]"

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return Mat._of(self.rows, self.cols, [saxpy({i: a * c for i, c in x.items()}, b, y)
                                              for x, y in zip(self.icols, other.icols)], den)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"matrix product shape mismatch: "
                             f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Mat._of(self.rows, other.cols, [sapply(self.icols, col) for col in other.icols],
                       self.den * other.den)

    def scale(self, c) -> "Mat":
        c = rat(c)
        return Mat._of(self.rows, self.cols, [{i: c.numerator * x for i, x in col.items()}
                                              for col in self.icols], self.den * c.denominator)

    def apply(self, v: Vec) -> Vec:
        """Exact matrix-vector product (column-vector convention)."""
        if self.cols != len(v):
            raise ValueError(f"cannot apply {self.rows}x{self.cols} to vector of length {len(v)}")
        acc = sapply(self.icols, {j: x for j, x in enumerate(v) if x})
        return tuple([Fraction(acc[i], self.den) if i in acc else ZERO for i in range(self.rows)])

    def transpose(self) -> "Mat":
        """Matrix of the dual map in dual bases."""
        rows: list[dict[int, int]] = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.icols):
            for i, c in col.items():
                rows[i][j] = c
        return Mat._of(self.cols, self.rows, rows, self.den)

    def col(self, j: int) -> Vec:
        col = self.icols[j]
        return tuple([Fraction(col[i], self.den) if i in col else ZERO for i in range(self.rows)])

    def is_zero(self) -> bool:
        return not any(self.icols)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self == self.transpose()

    def _reduce(self, inv: list[SVec]) -> Fraction:
        """Gauss-Jordan elimination on the rows, pivot j the first row ≥ j nonzero in column j,
        each row operation applied to `inv` too: the product of the pivots, negated per row
        swap (so det = it / den^n), or 0 at a column without a pivot."""
        n, work, det = self.rows, list(map(dict, self.transpose().icols)), ONE
        for j in range(n):
            pivot = next((i for i in range(j, n) if work[i].get(j)), None)
            if pivot is None:
                return ZERO
            if pivot != j:
                work[j], work[pivot], inv[j], inv[pivot] = work[pivot], work[j], inv[pivot], inv[j]
                det = -det
            det *= work[j][j]
            p = ONE / work[j][j]
            work[j], inv[j] = ({k: c * p for k, c in row.items()} for row in (work[j], inv[j]))
            for i in range(n):
                factor = work[i].get(j)
                if i != j and factor:
                    saxpy(work[i], -factor, work[j])
                    saxpy(inv[i], -factor, inv[j])
        return det

    def det(self) -> Fraction:
        """Exact determinant by Gauss-Jordan elimination on the sparse rows."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return self._reduce([{} for _ in range(self.rows)]) / self.den ** self.rows

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        inv: list[SVec] = [{i: self.den} for i in range(n)]     # (A/den)⁻¹ = den·A⁻¹
        if not self._reduce(inv):
            raise ValueError("singular matrix has no inverse")
        return Mat._from(n, n, inv).transpose()     # `inv` holds rows

    def submatrix(self, row_ids: Iterable[int], col_ids: Iterable[int]) -> "Mat":
        rows = list(row_ids)
        cols = [self.icols[j] for j in col_ids]
        return Mat._of(len(rows), len(cols),
                       [{k: col[i] for k, i in enumerate(rows) if i in col} for col in cols],
                       self.den)

    @staticmethod
    def block_diag(a: "Mat", b: "Mat") -> "Mat":
        """Block-diagonal assembly; first factor block then second."""
        d = lcm(a.den, b.den)
        return Mat._of(a.rows + b.rows, a.cols + b.cols,
                       [{i: d // a.den * c for i, c in col.items()} for col in a.icols]
                       + [{a.rows + i: d // b.den * c for i, c in v.items()} for v in b.icols], d)


def mat_comb(mats, v: SVec, rows: int, cols: int) -> Mat:
    """Σ_k v[k]·mats[k] for a sparse coefficient vector v."""
    acc: list[SVec] = [{} for _ in range(cols)]
    for k, c in v.items():
        for a, col in zip(acc, mats[k].icols):
            saxpy(a, Fraction(c, mats[k].den), col)
    return Mat._from(rows, cols, acc)


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
        return all(self.entries.get((j, i)) == -c for (i, j), c in self.entries.items())

    def _same_shape(self, other: "Tensor2") -> None:
        if (self.dim_left, self.dim_right) != (other.dim_left, other.dim_right):
            raise ValueError("tensor shapes differ")


def tensor2_map(f: Mat, g: Mat, t: Tensor2) -> Tensor2:
    """(f⊗g)(t): entry (a,b) = Σ f[a][i]·g[b][j]·t[i][j]."""
    if f.cols != t.dim_left or g.cols != t.dim_right:
        raise ValueError("operator/tensor dimension mismatch in tensor2_map")
    body, d = tensor_ints(t)
    return Tensor2(f.rows, g.rows, unscale(tensor_map(body, (f.icols, g.icols)), d * f.den * g.den))


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
    body, d = tensor_ints(t)
    return Tensor3((f.rows, g.rows, h.rows), unscale(tensor_map(body, (f.icols, g.icols, h.icols)),
                                                     d * f.den * g.den * h.den))


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


def tensor_ints(*tensors) -> tuple:
    """Sparse tensors as integer dicts {index tuple: c} on D, their denominators' lcm, and D."""
    bodies, den = _ints([t.entries for t in tensors])
    return (*bodies, den)


def tensor_map(t: dict, maps) -> dict:
    """(A₁⊗…⊗A_p)(t) on an integer tensor {index tuple: c}, one factor at a time: maps[q] is
    A_q's integer sparse columns, or None for Id.  The result is on the product of the maps'
    scales and may hold cancelled zeros; with every map None it is `t` itself."""
    for q, cols in enumerate(maps):
        if cols is not None:
            out: dict = {}
            for key, c in t.items():
                head, tail = key[:q], key[q + 1:]
                for a, x in cols[key[q]].items():
                    k = head + (a,) + tail
                    out[k] = out.get(k, 0) + c * x
            t = out
    return t


def leg_sum(t: dict, cols, p: int) -> dict:
    """(A⊗Id⊗…⊗Id + … + Id⊗…⊗Id⊗A)(t) on an integer p-tensor, A given by its integer columns."""
    out: dict = {}
    for q in range(p):
        saxpy(out, 1, tensor_map(t, [None] * q + [cols] + [None] * (p - q - 1)))
    return out


# ---------------------------------------------------------------------------
# sparse vectors and bilinear tables on basis indices
# ---------------------------------------------------------------------------
#
# Identity checks evaluate products on basis indices rather than on dense
# coordinate vectors: a sparse vector is a dict {index: coefficient} (it may
# hold cancelled zeros), and a bilinear map is stored as a `Table` and
# evaluated through its rows, rows[i][j] = e_i·e_j as a sparse vector, built
# per call by `Table.rows`; a matrix is its tuple of sparse integer columns
# (`Mat.icols`).  The helpers below are number-generic: on `integral` tables
# they stay on ``int``, on ``Fraction`` ones on ``Fraction``.  A residual
# handed to `scan` is the sparse vector itself, or a dict
# {(row, column): coefficient} for a matrix.

Rows = list[dict[int, SVec]]


class Table(dict):
    """A bilinear map on basis indices: {(i, j): {k: c}} with e_i·e_j = Σ_k c·e_k.

    A skew table (a Lie bracket, the NS-Lie product ▷) stores keys with i < j
    only, and e_j·e_i = −e_i·e_j.  Entries are validated once, on
    construction, and zeros are never stored.  It compares equal to a plain
    dict with the same entries.

    A table is read-only after construction.  It keeps its integer form
    (`form`, what `integral` reads), computed once per object: by the
    validating constructor in its coercion pass, and on first use for a table
    made by `_of`.  Assigning a key drops the kept form; no other change in
    place is supported.
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
                c, k = rat(c), int(k)
                if not 0 <= k < dim:
                    raise ValueError(f"table output index {k} out of range for dim {dim}")
                if c:
                    cleaned[k] = c
            if cleaned:
                dict.__setitem__(self, (i, j), cleaned)
        self._form = self._integral()

    @classmethod
    def _of(cls, dim: int, entries: Mapping, skew: bool) -> "Table":
        """A table of valid entries, taken as they are: no coercion, no check."""
        t = cls.__new__(cls)
        t.update(entries)
        t.dim, t.skew, t._form = dim, skew, None
        return t

    def __setitem__(self, key, comp) -> None:
        super().__setitem__(key, comp)
        self._form = None

    def _integral(self) -> tuple:
        comps, den = _ints(list(self.values()))
        return Table._of(self.dim, dict(zip(self, comps)), self.skew), den, _top(comps)

    @property
    def form(self) -> tuple:
        """(D·table on ints, D, its largest |coefficient|), D the lcm of its denominators."""
        if self._form is None:
            self._form = self._integral()
        return self._form

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
    """The integer forms of `Table`s and `Mat`s on one common denominator.

    Each table keeps its integer form (`Table.form`, `Mat.form`): D_t times the
    table, with ``int`` coefficients, D_t the lcm of its coefficients'
    denominators, and its largest |coefficient|.  Returns each form rescaled to
    D, the lcm of the D_t (a `Table` as a table of ints, a `Mat` as its integer
    columns), followed by D and the largest |coefficient| of them all.  A form
    already on D is returned as it is kept, not copied: callers only read it.
    """
    forms = [t.form for t in tables]
    den = lcm(*[d for _, d, _ in forms])
    out, top = [], 0
    for t, (body, d, m) in zip(tables, forms):
        k = den // d
        if k != 1:
            vectors = [{i: k * c for i, c in v.items()}
                       for v in (body.values() if isinstance(t, Table) else body)]
            body = (Table._of(t.dim, dict(zip(body, vectors)), t.skew) if isinstance(t, Table)
                    else tuple(vectors))
        out.append(body)
        top = max(top, k * m)
    return (*out, den, top)


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
