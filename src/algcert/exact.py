"""Exact rational scalars, vectors, matrices, product tables and sparse tensors.

Conventions fixed here for the whole package:

* every scalar is exact, never a float: a ``fractions.Fraction``
  (arbitrary precision, always reduced) or an ``int`` numerator over a
  common denominator;
* every exact container (`Mat`, `Table`, `Tensor2`, `Tensor3`) stores its
  integer form and nothing else: its nonzero coefficients as ``int``s on one
  canonical denominator `den` (gcd(den, every coefficient) = 1, so equal
  entries give equal forms, `==` and `hash`).  Its ``Fraction`` entries are
  derived on each read.  The identity checks and constructions read the forms
  through `integral`, do their arithmetic on ``int``, and hand an integer
  result straight to the container of their output (`_of`); only a reported
  residual is turned back into a ``Fraction``;
* vectors are coordinate tuples, matrices act on column coordinate
  vectors, and the matrix of an operator has the images of the basis
  vectors as its columns;
* the transpose of an operator matrix is the matrix of the dual map in
  dual bases;
* sparse containers never store zero entries, and tensors iterate in
  lexicographic index order, so serialized output is canonical.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

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

def _ints(ratios: list[dict]) -> tuple[list[dict[int, int]], int]:
    """Sparse vectors of integer ratios {k: (n, d)} as integer ones on the lcm D of the d
    (zeros dropped), and D."""
    den = lcm(*{d for r in ratios for _, d in r.values()})
    return [{k: n * (den // d) for k, (n, d) in r.items() if n} for r in ratios], den


def _canonical(vectors: list[dict], den: int) -> tuple[list[dict], int]:
    """Integer sparse vectors over den > 0 with their zeros dropped and den made canonical
    (all divided by gcd(den, every coefficient))."""
    if not all(chain.from_iterable(map(dict.values, vectors))):
        vectors = [{k: c for k, c in v.items() if c} for v in vectors]
    g = gcd(den, *chain.from_iterable(map(dict.values, vectors)))
    if g != 1:
        vectors = [{k: c // g for k, c in v.items()} for v in vectors]
    return vectors, den // g


class Mat:
    """Exact-rational matrix, stored sparse; immutable after construction.

    A matrix keeps its exact integer form and nothing else: `icols[j]` holds the
    nonzero entries of column j as integers {row: c} on one common denominator
    `den` > 0, entry (i, j) being icols[j][i] / den.  `den` is canonical,
    gcd(den, every c) = 1, so equal entries are equal forms: `==` and `hash`
    compare the forms.  `entries` is the dense view of rows of Fractions, derived
    on each read.
    """

    __slots__ = ("rows", "cols", "icols", "den")

    def __init__(self, entries: Iterable[Iterable]):
        rows = [[rat(c).as_integer_ratio() for c in row] for row in entries]
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged matrix rows")
        self._keep(len(rows), cols, *_ints([dict(enumerate(col)) for col in zip(*rows)]))

    def _keep(self, rows: int, cols: int, icols, den: int) -> None:
        """Keep fresh integer columns {row: c} over den > 0, zeros dropped, den canonical."""
        icols, self.den = _canonical(icols, den)
        self.rows, self.cols, self.icols = rows, cols, tuple(icols)

    @classmethod
    def _of(cls, rows: int, cols: int, icols, den: int = 1) -> "Mat":
        """The matrix of integer columns {row: c} over den > 0, taken as in range."""
        m = object.__new__(cls)
        m._keep(rows, cols, icols, den)
        return m

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense rows of Fractions."""
        return tuple(zip(*map(self.col, range(self.cols)))) if self.cols else ((),) * self.rows

    form = property(lambda self: (self.icols, self.den))   # as `integral` reads it

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

    def _eliminate(self, augment: bool) -> tuple[int, list[dict[int, int]], list[int]]:
        """Fraction-free (Bareiss) Gauss-Jordan elimination on the integer rows `icols` of
        M = den·Aᵀ, with the identity appended as columns n.. when `augment`.  Step k swaps up
        the first row ≥ k with an entry p in column k, the pivot (each swap negates the sign).
        Every other row with an entry f there (only those below, without `augment`) becomes
        (p·row − f·pivot row)/q without column k, q the previous pivot (1 at first): an exact
        division, every entry being a minor of M (Sylvester's identity).  A row i without an
        entry in column k is left as it is: it stands for row·q/scale[i], scale[i] the pivot it
        was last written at, and its next update divides by scale[i] in place of q.  Returns
        det M (the signed last pivot), the rows and scales; 0 at a column without a pivot."""
        n = self.rows
        rows = [{**col, n + i: 1} if augment else dict(col) for i, col in enumerate(self.icols)]
        scale, q, sign = [1] * n, 1, 1
        for k in range(n):
            r = next((i for i in range(k, n) if k in rows[i]), None)
            if r is None:
                return 0, rows, scale
            if r != k:
                rows[k], rows[r], scale[k], scale[r] = rows[r], rows[k], scale[r], scale[k]
                sign = -sign
            if scale[k] != q:
                rows[k] = {j: c * q // scale[k] for j, c in rows[k].items()}
            pivot = rows[k]
            p = pivot.pop(k)
            for i in range(0 if augment else k + 1, n):
                f = rows[i].get(k)
                if f:
                    row = saxpy({j: p * c for j, c in rows[i].items() if j != k}, -f, pivot)
                    rows[i], scale[i] = {j: c // scale[i] for j, c in row.items() if c}, p
            scale[k] = q = p
        return sign * q, rows, scale

    def det(self) -> Fraction:
        """Exact determinant, det(M)/den^n for the integer rows M = den·Aᵀ: det M is the last
        pivot of their fraction-free elimination (`_eliminate`), negated per row swap, or 0 at
        the first column without a pivot."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return Fraction(self._eliminate(False)[0], self.den ** self.rows)

    def inverse(self) -> "Mat":
        """Exact inverse from the fraction-free elimination of [M | I] (`_eliminate`): with
        d its last pivot, I ends as d·M⁻¹ (± the adjugate of M), row i on scale[i].  Column i
        of A⁻¹ = den·(row i of M⁻¹) is den·|d|·row/scale[i] over |d|."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n, (d, rows, scale) = self.rows, self._eliminate(True)
        if not d:
            raise ValueError("singular matrix has no inverse")
        a = self.den * abs(d)
        return Mat._of(n, n, [{j - n: c * a // s for j, c in row.items()}
                              for row, s in zip(rows, scale)], abs(d))

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


def mat_comb(mats, v: SVec, rows: int, cols: int, den: int = 1) -> Mat:
    """Σ_k v[k]·mats[k] / den for a sparse vector v of ints or Fractions, on integers: the
    integer columns of each mats[k] times v[k]/(den·mats[k].den) on one lcm (`_ints`)."""
    ratios = {k: c.as_integer_ratio() for k, c in v.items()}
    (coeffs,), D = _ints([{k: (p, q * den * mats[k].den) for k, (p, q) in ratios.items()}])
    acc: list[dict] = [{} for _ in range(cols)]
    for k, s in coeffs.items():
        for a, col in zip(acc, mats[k].icols):
            saxpy(a, s, col)
    return Mat._of(rows, cols, acc, D)


def mat_apply(m: Mat, v: Vec) -> Vec:
    return m.apply(v)


# ---------------------------------------------------------------------------
# sparse order-2 and order-3 tensors
# ---------------------------------------------------------------------------

def _valid(key, dims: tuple) -> bool:
    """Whether key is a tuple of len(dims) indices, each an int (not a bool) below its dim."""
    return (type(key) is tuple and len(key) == len(dims)
            and all([type(i) is int and 0 <= i < d for i, d in zip(key, dims)]))


def _show(key) -> str:
    """An index tuple as "(i,j,...)", the way error messages print it."""
    return f"({','.join(map(repr, key))})" if type(key) is tuple else repr(key)


class _Tensor:
    """The integer form a `Tensor2` or `Tensor3` keeps, and nothing else: `ientries` holds
    the nonzero entries as integers {index tuple: c} on one canonical denominator `den` > 0,
    entry c / den; `dims` is the shape.  `entries` is the dict of Fractions, derived on each
    read; `==` and `hash` compare the shape and the form."""

    __slots__ = ("dims", "ientries", "den")

    def _init(self, dims: tuple, entries: Mapping | None) -> None:
        """Validate and coerce rational entries {index tuple: c} in one pass."""
        ratios = {}
        for key, c in (entries or {}).items():
            if not _valid(key, dims):
                raise ValueError(f"tensor index {_show(key)} out of bounds")
            ratios[key] = rat(c).as_integer_ratio()
        self.dims = dims
        (self.ientries,), self.den = _canonical(*_ints([ratios]))

    @classmethod
    def _of(cls, dims: tuple, body: dict, den: int = 1):
        """The tensor of integer entries {index tuple: c} over den > 0, taken as in range."""
        t = object.__new__(cls)
        t.dims = dims
        (t.ientries,), t.den = _canonical([body], den)
        return t

    @property
    def entries(self) -> dict:
        """The nonzero entries {index tuple: c} as Fractions."""
        return {key: Fraction(c, self.den) for key, c in self.ientries.items()}

    form = property(lambda self: (self.ientries, self.den))   # as `integral` reads it

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and ((self.dims, self.den, self.ientries)
                                              == (other.dims, other.den, other.ientries))

    def __hash__(self) -> int:
        return hash((self.dims, self.den, frozenset(self.ientries.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{_show(key)}:{rat_str(c)}" for key, c in sorted(self.entries.items()))
        return f"{type(self).__name__}<{'x'.join(map(str, self.dims))}>{{{body}}}"

    def _plus(self, other: "_Tensor", sign: int):
        if self.dims != other.dims:
            raise ValueError("tensor shapes differ")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return self._of(self.dims, saxpy({k: a * c for k, c in self.ientries.items()}, b,
                                         other.ientries), den)


class Tensor2(_Tensor):
    """Sparse element of V⊗W; keys (i, j), zeros never stored."""

    __slots__ = ()

    def __init__(self, dim_left: int, dim_right: int, entries: Mapping | None = None):
        self._init((dim_left, dim_right), entries)

    dim_left = property(lambda self: self.dims[0])
    dim_right = property(lambda self: self.dims[1])

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Entries in lexicographic (i, j) order."""
        return iter(sorted(self.entries.items()))

    def __add__(self, other: "Tensor2") -> "Tensor2":
        return self._plus(other, 1)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self._plus(other, -1)

    def __neg__(self) -> "Tensor2":
        return self.scale(-1)

    def scale(self, c) -> "Tensor2":
        c = rat(c)
        return Tensor2._of(self.dims, {k: c.numerator * x for k, x in self.ientries.items()},
                           self.den * c.denominator)

    def is_zero(self) -> bool:
        return not self.ientries

    def is_skew(self) -> bool:
        return self.dim_left == self.dim_right and all(
            self.ientries.get((j, i)) == -c for (i, j), c in self.ientries.items())


def tensor2_map(f: Mat, g: Mat, t: Tensor2) -> Tensor2:
    """(f⊗g)(t): entry (a,b) = Σ f[a][i]·g[b][j]·t[i][j]."""
    if f.cols != t.dim_left or g.cols != t.dim_right:
        raise ValueError("operator/tensor dimension mismatch in tensor2_map")
    return Tensor2._of((f.rows, g.rows), tensor_map(t.ientries, (f.icols, g.icols)),
                       t.den * f.den * g.den)


def flip(t: Tensor2) -> Tensor2:
    """The flip σ swapping tensor factors; square tensors only."""
    if t.dim_left != t.dim_right:
        raise ValueError("flip of a non-square tensor")
    return Tensor2._of(t.dims, {(j, i): c for (i, j), c in t.ientries.items()}, t.den)


def tensor3_map(f: Mat, g: Mat, h: Mat, t: "Tensor3") -> "Tensor3":
    """(f⊗g⊗h)(t) for order-3 tensors."""
    if (f.cols, g.cols, h.cols) != t.dims:
        raise ValueError("operator/tensor dimension mismatch in tensor3_map")
    return Tensor3._of((f.rows, g.rows, h.rows),
                       tensor_map(t.ientries, (f.icols, g.icols, h.icols)),
                       t.den * f.den * g.den * h.den)


class Tensor3(_Tensor):
    """Sparse order-3 tensor, used only for computed residuals."""

    __slots__ = ()

    def __init__(self, dims: tuple[int, int, int], entries: Mapping | None = None):
        self._init(tuple(dims), entries)

    def items(self) -> Iterator[tuple[tuple[int, int, int], Fraction]]:
        return iter(sorted(self.entries.items()))

    def __add__(self, other: "Tensor3") -> "Tensor3":
        return self._plus(other, 1)

    def is_zero(self) -> bool:
        return not self.ientries


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
# Identity checks evaluate products on basis indices, on integers: a sparse
# vector is a dict {index: c} (it may hold cancelled zeros), a bilinear map is
# a `Table`'s integer form, read through its rows (`table_rows`), and a matrix
# is its sparse integer columns (`Mat.icols`).  A residual handed to `scan` is
# the sparse vector itself, or a dict {(row, column): c} for a matrix.

Rows = list[dict[int, SVec]]


class Table(Mapping):
    """A bilinear map on basis indices: {(i, j): {k: c}} with e_i·e_j = Σ_k c·e_k.

    A skew table (a Lie bracket, the NS-Lie product ▷) keeps keys with i < j
    only, and e_j·e_i = −e_i·e_j.  Like a `Mat`, a table keeps its integer form
    and nothing else: `ientries` holds the nonzero products as integers
    {(i, j): {k: c}} on one canonical denominator `den`.  It is a read-only
    mapping whose ``Fraction`` items (``t[key]``, `get`, `items`) are derived on
    each read.  Like a dict, it equals any mapping with the same items, whatever
    its dim and skewness; two tables compare (and hash) their forms.  The
    constructor validates and coerces any other mapping of rational entries in
    one pass, and takes a `Table` of the same dim and skewness as it is.
    """

    __slots__ = ("dim", "skew", "ientries", "den")

    def __init__(self, dim: int, entries: Mapping | None = None, skew: bool = False):
        if isinstance(entries, Table) and (entries.dim, entries.skew) == (dim, skew):
            self.dim, self.skew, self.ientries, self.den = (dim, skew, *entries.form)
            return
        ratios = {}
        for key, comp in (entries or {}).items():
            if not _valid(key, (dim, dim)):
                raise ValueError(f"table key {_show(key)} out of range for dim {dim}")
            if skew and key[0] >= key[1]:
                raise ValueError(f"skew table key {_show(key)} must satisfy i<j")
            ratio = ratios[key] = {}
            for k, c in comp.items():
                if type(k) is not int or not 0 <= k < dim:
                    raise ValueError(f"table output index {k!r} out of range for dim {dim}")
                ratio[k] = rat(c).as_integer_ratio()
        comps, den = _ints(list(ratios.values()))
        self._keep(dim, skew, dict(zip(ratios, comps)), den)

    def _keep(self, dim: int, skew: bool, body: dict, den: int) -> None:
        """Keep integer entries {(i, j): {k: c}} over den > 0; zeros dropped, den canonical."""
        comps, self.den = _canonical(list(body.values()), den)
        self.dim, self.skew = dim, skew
        self.ientries = {key: comp for key, comp in zip(body, comps) if comp}

    @classmethod
    def _of(cls, dim: int, body: dict, skew: bool = False, den: int = 1) -> "Table":
        """The table of integer entries {(i, j): {k: c}} over den > 0, taken as valid."""
        t = object.__new__(cls)
        t._keep(dim, skew, body, den)
        return t

    form = property(lambda self: (self.ientries, self.den))   # as `integral` reads it

    def __getitem__(self, key) -> SVec:
        return {k: Fraction(c, self.den) for k, c in self.ientries[key].items()}

    def __iter__(self) -> Iterator:
        return iter(self.ientries)

    def __len__(self) -> int:
        return len(self.ientries)

    def __eq__(self, other) -> bool:
        if isinstance(other, Table):
            return (self.den, self.ientries) == (other.den, other.ientries)
        return Mapping.__eq__(self, other)

    def __hash__(self) -> int:
        return hash((self.den, frozenset((key, frozenset(comp.items()))
                                         for key, comp in self.ientries.items())))

    def __repr__(self) -> str:
        return f"Table({self.dim}, {dict(self.items())!r}, skew={self.skew})"

    def basis_prod(self, i: int, j: int) -> Vec:
        """e_i·e_j as a coordinate vector."""
        sign = -1 if self.skew and i > j else 1
        comp = self.ientries.get((i, j) if sign == 1 else (j, i), {})
        return tuple([Fraction(sign * comp[k], self.den) if k in comp else ZERO
                      for k in range(self.dim)])

    def prod(self, x: Vec, y: Vec) -> Vec:
        """x·y on coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector dimension does not match the table")
        out = [ZERO] * self.dim
        for (i, j), comp in self.ientries.items():
            coeff = x[i] * y[j] - x[j] * y[i] if self.skew else x[i] * y[j]
            if coeff:
                for k, c in comp.items():
                    out[k] += coeff * c
        return tuple([c / self.den for c in out])


def table_rows(table: dict, n: int, skew: bool = False) -> Rows:
    """rows[i][j] = e_i·e_j as a sparse vector, from an integer table {(i, j): {k: c}} on
    dimension n; for a skew table both orders of each key."""
    rows: Rows = [{} for _ in range(n)]
    for (i, j), comp in table.items():
        rows[i][j] = comp
        if skew:
            rows[j][i] = {k: -c for k, c in comp.items()}
    return rows


def saxpy(out: SVec, a, v: SVec) -> SVec:
    """out += a·v in place; returns out."""
    for k, c in v.items():
        if k in out:
            out[k] += a * c
        else:
            out[k] = a * c
    return out


def integral(*objs):
    """The integer forms (`form`) of `Mat`s, `Table`s and tensors on one common denominator:
    each form's coefficients (a `Mat`'s columns, a `Table`'s {(i, j): {k: c}}, a tensor's
    {index tuple: c}) rescaled to D, the lcm of their denominators, then D.  A form already
    on D is returned as it is stored, not copied: callers only read it."""
    forms = [t.form for t in objs]
    den = lcm(*[d for _, d in forms])
    out = []
    for t, (body, d) in zip(objs, forms):
        k = den // d
        if k != 1:
            body = (tuple([{i: k * c for i, c in col.items()} for col in body])
                    if isinstance(t, Mat) else
                    {key: {i: k * c for i, c in v.items()} for key, v in body.items()}
                    if isinstance(t, Table) else {key: k * c for key, c in body.items()})
        out.append(body)
    return (*out, den)


# Packed vectors.  The identity kernels store an integer sparse vector {k: c} as
# one ``int`` with signed slots of a fixed width w, Σ_k c·2^(k·w) (Kronecker
# substitution), so a vector multiply-add is one bigint multiply-add and a
# zero test is ``v == 0``.  The packed value is exact whatever its slots hold
# on the way; it decodes to the right coefficients, and is 0 only for the zero
# vector, when every coefficient c it stands for has |c| ≤ 2^(w−1) − 1.  The
# kernels that pack size their slots per call with one rule, `slot_width`: a
# packed sum is a sum of terms Σ_m c_m·v_m, each coefficient of which is at
# most ‖c‖₁·max|v|, read off the integer operands actually packed (`norms`).

def width(bound: int) -> int:
    """The least slot width w with 2^(w−1) − 1 ≥ bound."""
    return bound.bit_length() + 1


def norms(vectors, rows: int = 0) -> tuple[int, int, int]:
    """The largest ℓ1 norm and the largest |entry| of integer sparse vectors (a sequence, or a
    dict of them), and the largest ℓ1 norm of the `rows` rows of the matrix they are the
    columns of."""
    l1 = top = 0
    row = [0] * rows
    for v in vectors.values() if type(vectors) is dict else vectors:
        s = 0
        for k, c in v.items():
            if c < 0:
                c = -c
            s += c
            if c > top:
                top = c
            if rows:
                row[k] += c
        if s > l1:
            l1 = s
    return l1, top, max(row) if rows else 0


def slot_width(*terms) -> int:
    """The slot width of a packed sum of `terms`, each (count, coefficients, packed): `count`
    sums Σ_m c_m·v_m with (c_m) one vector of the family `coefficients` and every v_m one of
    the family `packed`.  A coefficient of such a sum is at most ‖c‖₁·max|v|, so the term
    adds count times the largest ℓ1 norm of `coefficients` times the largest |entry| of
    `packed` to the bound (`norms`); a family named twice is read once."""
    seen: dict[int, tuple] = {}
    bound = 0
    for count, coeffs, packed in terms:
        for family in (coeffs, packed):
            if id(family) not in seen:
                seen[id(family)] = norms(family)
        bound += count * seen[id(coeffs)][0] * seen[id(packed)][1]
    return width(bound)


def pack(v: dict[int, int], w: int) -> int:
    """The vector v = {k: c} as one ``int``, c in the slot k of width w."""
    x = 0
    for k, c in v.items():
        x += c << k * w
    return x


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


def products(rows: Rows, xs: list[SVec] | None = None, ys: list[SVec] | None = None) -> Rows:
    """out[a][b] = x_a·y_b for the bilinear map with the given rows, a family left as None
    being the basis: each x_a·(−) is built from the rows once and applied to every y_b.  A
    product with no term is left out; cancelled zeros are kept."""
    if xs is not None:
        ads: Rows = []
        for x in xs:
            ad: dict[int, SVec] = {}
            for i, c in x.items():
                for j, comp in rows[i].items():
                    saxpy(ad.setdefault(j, {}), c, comp)
            ads.append(ad)
        rows = ads
    if ys is None:
        return rows
    out: Rows = [{} for _ in rows]
    for ad, row in zip(rows, out):
        for b, y in enumerate(ys):
            v: SVec = {}
            for j, c in y.items():
                if j in ad:
                    saxpy(v, c, ad[j])
            if v:
                row[b] = v
    return out
