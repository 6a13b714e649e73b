"""Exact integer linear algebra.

Smith normal forms with transforms, integer kernels and solvers, finitely
generated abelian groups in canonical form, chain complexes (plain and
presented-by-relations) with homology in normalized coordinates, and induced
maps on homology.  Everything runs on arbitrary-precision Python integers;
no floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ValidationError


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _is_int(val) -> bool:
    """An integer: an int that is not a bool (bool subclasses int)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _entry(x, i: int, j: int) -> int:
    """Internal: matrix entry x at (i, j), not a plain int, as an int; one
    that is not an integer (`_is_int`), such as 1.5 or 2.0, raises
    `ValidationError` rather than being truncated."""
    if _is_int(x):
        return int(x)
    raise ValidationError(f"matrix entry ({i}, {j}) is not an integer: {x!r}")


# ---------------------------------------------------------------------------
# Matrices


class IntMatrix:
    """Integer matrix, immutable after construction, stored as sparse
    columns: `_cols[j]` maps the row of each nonzero entry of column j to
    that entry, and holds no zero and no row outside `range(rows)`.  The
    column dicts may be shared between matrices, so nothing mutates them.
    Dense rows are built on demand by `to_rows` and never kept; only the
    dense Smith engine, `det`, `HomologyData`'s mirror and the CLI output
    read them.

    Because the matrix never changes, it memoizes its Smith invariants on
    first use (`_smith`, None until then) as the pair (k, rest): the
    number k of +-1 pivots the sparse front splits off and the invariants
    of its residual.  `smith_invariants` and `rank_z` both read the memo,
    so a boundary shared by two adjacent degrees is fronted once."""

    __slots__ = ("rows", "cols", "_cols", "_smith")

    def __init__(self, data: Iterable[Iterable[int]], cols: Optional[int] = None):
        rows = [tuple(r) for r in data]
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise ValidationError("ragged matrix rows")
            if cols is not None and cols != ncols:
                raise ValidationError(f"cols={cols} disagrees with row length {ncols}")
            cols = ncols
        elif cols is None:
            cols = 0
        elif cols < 0:
            raise ValidationError(f"negative column count {cols}")
        self.rows = len(rows)
        self.cols = cols
        self._smith: Optional[Tuple[int, List[int]]] = None
        self._cols: List[Dict[int, int]] = [{} for _ in range(cols)]
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                if type(x) is not int:
                    x = _entry(x, i, j)
                if x:
                    self._cols[j][i] = x

    # -- constructors

    @classmethod
    def _from_sparse_columns(cls, columns: List[Dict[int, int]], rows: int) -> "IntMatrix":
        """Internal: the matrix whose column j has the nonzero entries
        columns[j] (row -> int).  The dicts become the matrix's columns as
        given, without conversion or copy, so they must hold no zero and no
        row outside `range(rows)`, and nobody may mutate them afterwards."""
        mat = cls.__new__(cls)
        mat.rows = rows
        mat.cols = len(columns)
        mat._cols = columns
        mat._smith = None
        return mat

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise ValidationError(f"negative matrix shape ({rows}, {cols})")
        return cls._from_sparse_columns([{} for _ in range(cols)], rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        if n < 0:
            raise ValidationError(f"negative identity size {n}")
        return cls._from_sparse_columns([{j: 1} for j in range(n)], n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [list(c) for c in columns]
        if rows is None:
            if not cols:
                raise ValidationError("from_columns needs rows= when no columns given")
            rows = len(cols[0])
        elif rows < 0:
            raise ValidationError(f"negative row count {rows}")
        for c in cols:
            if len(c) != rows:
                raise ValidationError("column length mismatch")
        sparse = []
        for j, c in enumerate(cols):
            col = {}
            for i, x in enumerate(c):
                if type(x) is not int:
                    x = _entry(x, i, j)
                if x:
                    col[i] = x
            sparse.append(col)
        return cls._from_sparse_columns(sparse, rows)

    # -- access

    def column(self, j: int) -> Tuple[int, ...]:
        col = self._cols[j]
        return tuple(col.get(i, 0) for i in range(self.rows))

    def columns(self) -> List[List[int]]:
        return [[col.get(i, 0) for i in range(self.rows)] for col in self._cols]

    def to_rows(self) -> List[List[int]]:
        """The dense rows, built anew on each call."""
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self._cols):
            for i, x in col.items():
                out[i][j] = x
        return out

    @property
    def data(self) -> List[List[int]]:
        """The dense rows (`to_rows`)."""
        return self.to_rows()

    def _row_pairs(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Each row as the (column, entry) pairs of its nonzero entries, by
        increasing column."""
        out: List[List[Tuple[int, int]]] = [[] for _ in range(self.rows)]
        for j, col in enumerate(self._cols):
            for i, x in col.items():
                out[i].append((j, x))
        return tuple(map(tuple, out))

    def entry(self, i: int, j: int) -> int:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside a matrix of {self.rows} rows")
        return self._cols[j].get(i, 0)

    def is_zero(self) -> bool:
        return not any(self._cols)

    # -- arithmetic

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        (rows, _), cols = _product((self, other))
        return IntMatrix._from_sparse_columns(list(cols), rows)

    def apply(self, vec: Sequence[int]) -> List[int]:
        if len(vec) != self.cols:
            raise ValidationError("vector length mismatch")
        out = [0] * self.rows
        for col, x in zip(self._cols, vec):
            if x:
                for i, a in col.items():
                    out[i] += a * x
        return out

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValidationError("shape mismatch in sum")
        return IntMatrix._from_sparse_columns(
            [_combine(a, 1, b, 1) for a, b in zip(self._cols, other._cols)], self.rows
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, k: int) -> "IntMatrix":
        k = int(k)
        return IntMatrix._from_sparse_columns(
            [{i: k * x for i, x in col.items()} if k else {} for col in self._cols],
            self.rows,
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValidationError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    # -- misc

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._cols == other._cols
        )

    def __hash__(self) -> int:
        # frozensets, so that the hash does not depend on dict order
        cols = tuple(frozenset(c.items()) for c in self._cols)
        return hash((self.rows, self.cols, cols))

    def __repr__(self) -> str:
        if self.rows * self.cols <= 36:
            return f"IntMatrix({self.to_rows()})"
        return f"IntMatrix(<{self.rows}x{self.cols}>)"


def hstack(mats: Sequence[IntMatrix]) -> IntMatrix:
    if not mats:
        raise ValidationError("hstack of no matrices")
    rows = mats[0].rows
    for m in mats:
        if m.rows != rows:
            raise ValidationError("hstack row mismatch")
    return IntMatrix._from_sparse_columns([c for m in mats for c in m._cols], rows)


def _sparse_apply(cols_a: List[Dict[int, int]], vec: Dict[int, int]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    get = out.get
    for j, x in vec.items():
        for i, a in cols_a[j].items():
            v = get(i, 0) + a * x
            if v:
                out[i] = v
            elif i in out:
                del out[i]
    return out


def _combine(a: Dict[int, int], ca: int, b: Dict[int, int], cb: int) -> Dict[int, int]:
    """Internal: ca * a + cb * b on sparse vectors, as a new dict."""
    out = {} if ca == 0 else {k: ca * v for k, v in a.items()}
    if cb:
        for k, v in b.items():
            w = out.get(k, 0) + cb * v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
    return out


def _add_multiple(v: Dict[int, int], b: Dict[int, int], q: int):
    """Internal: v += q * b in place, for q != 0.  The keys of `v` change
    exactly as in `_combine(v, 1, b, q)`, so its iteration order is that of
    the dict `_combine` returns."""
    get = v.get
    for k, x in b.items():
        w = get(k, 0) + q * x
        if w:
            v[k] = w
        else:
            del v[k]


# ---------------------------------------------------------------------------
# Lattices


class LatticeAccumulator:
    """Triangular basis of an integer sublattice of Z^dim.

    Columns are sparse dicts; each basis column is keyed by its minimal
    nonzero row (its pivot).  Supports incremental insertion and exact
    membership tests.

    Reduction runs in place (`_add_multiple`): `insert` works on a private
    copy of its vector, which may become a basis column, and `remainder`
    copies its vector on the first reduction step only, so neither
    mutates the vector it is given (a gap of `product_gaps` may be a
    factor's own column).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: Dict[int, Dict[int, int]] = {}

    @classmethod
    def spanned_by(cls, mat: IntMatrix) -> "LatticeAccumulator":
        """The lattice spanned by the columns of `mat`."""
        acc = cls(mat.rows)
        for col in mat._cols:
            acc.insert(col)
        return acc

    def insert(self, vec: Dict[int, int]) -> bool:
        """Add a vector to the lattice; return True if the lattice grew."""
        v = {k: x for k, x in vec.items() if x}
        grew = False
        while v:
            r = min(v)
            piv = self.pivots.get(r)
            if piv is None:
                self.pivots[r] = v
                return True
            p = piv[r]
            c = v[r]
            if c % p == 0:
                _add_multiple(v, piv, -(c // p))
            else:
                g, x, y = xgcd(p, c)
                self.pivots[r] = _combine(piv, x, v, y)
                s = p // g
                for i in v:
                    v[i] *= s
                _add_multiple(v, piv, -(c // g))
                grew = True
        return grew

    def insert_dense(self, vec: Sequence[int]) -> bool:
        return self.insert({i: x for i, x in enumerate(vec) if x})

    def remainder(self, vec: Dict[int, int]) -> Dict[int, int]:
        """The sparse `vec` reduced by the basis, pivot row by pivot row,
        until a row has no pivot or its pivot does not divide the entry:
        empty exactly when `vec` lies in the lattice."""
        v = vec
        while v:
            r = min(v)
            piv = self.pivots.get(r)
            if piv is None or v[r] % piv[r]:
                break
            if v is vec:
                v = dict(vec)
            _add_multiple(v, piv, -(v[r] // piv[r]))
        return v

    def contains(self, vec: Sequence[int]) -> bool:
        return not self.remainder({i: int(x) for i, x in enumerate(vec) if x})

    def basis_columns(self) -> List[Dict[int, int]]:
        return [self.pivots[r] for r in sorted(self.pivots)]

    def rank(self) -> int:
        return len(self.pivots)

    def is_all_of_ambient(self) -> bool:
        return len(self.pivots) == self.dim and all(
            abs(self.pivots[r][r]) == 1 for r in self.pivots
        )


def column_image_basis(mat: IntMatrix) -> IntMatrix:
    """A lattice basis of the column span of `mat`, as matrix columns."""
    basis = LatticeAccumulator.spanned_by(mat).basis_columns()
    return IntMatrix._from_sparse_columns(basis, mat.rows)


def _product(
    factors: Sequence[IntMatrix],
) -> Tuple[Tuple[int, int], Iterator[Dict[int, int]]]:
    """Internal: the shape of the product of `factors`, checked to
    compose, and its sparse columns, made one at a time (a single factor's
    are its own)."""
    for a, b in zip(factors, factors[1:]):
        if a.cols != b.rows:
            raise ValidationError(f"shape mismatch in product: {a.shape} @ {b.shape}")
    outer = [a._cols for a in reversed(factors[:-1])]

    def columns():
        for col in factors[-1]._cols:
            for acols in outer:
                col = _sparse_apply(acols, col)
            yield col

    return (factors[0].rows, factors[-1].cols), columns()


def product_gaps(
    lhs: Sequence[IntMatrix],
    rhs: Optional[Sequence[IntMatrix]] = None,
    modulo: Optional[LatticeAccumulator] = None,
) -> Iterator[Dict[int, int]]:
    """Column by column, the product of the matrices `lhs` minus that of
    `rhs` (zero when `rhs` is None), as sparse dicts row -> nonzero entry,
    each reduced by the lattice `modulo` when one is given
    (`LatticeAccumulator.remainder`).

    This is the one check of a law such as d d = 0, d f = f d or
    a(g) a(h) = a(gh), exactly or modulo relations: the law holds when
    every gap is empty, so a check reads `any(product_gaps(...))` and stops
    at the first failing column.  Shapes are checked at the call.  Products
    are taken through `_sparse_apply` on the factors' columns; a gap may be
    a factor's own column, not to be mutated."""
    shape, gaps = _product(lhs)
    if rhs is not None:
        rshape, rcols = _product(rhs)
        if rshape != shape:
            raise ValidationError("shape mismatch in sum")
        gaps = (_combine(a, 1, b, -1) for a, b in zip(gaps, rcols))
    if modulo is not None:
        gaps = map(modulo.remainder, gaps)
    return gaps


# ---------------------------------------------------------------------------
# Smith normal form engine


class _Eliminator:
    """Row/column elimination with optional transform tracking.

    Maintains D = R * A * C where R, C are unimodular.  Optionally tracks R,
    Rinv, C, Cinv, and mirrors Cinv's row operations onto an external matrix
    (keeping mirror = Cinv @ B for an initial B).
    """

    def __init__(
        self,
        mat: IntMatrix,
        *,
        track_r: bool = False,
        track_rinv: bool = False,
        track_c: bool = False,
        track_cinv: bool = False,
        mirror: Optional[List[List[int]]] = None,
    ):
        self.s = mat.to_rows()
        self.m = mat.rows
        self.n = mat.cols
        self.r = [[1 if i == j else 0 for j in range(self.m)] for i in range(self.m)] if track_r else None
        self.rinv = [[1 if i == j else 0 for j in range(self.m)] for i in range(self.m)] if track_rinv else None
        self.c = [[1 if i == j else 0 for j in range(self.n)] for i in range(self.n)] if track_c else None
        self.cinv = [[1 if i == j else 0 for j in range(self.n)] for i in range(self.n)] if track_cinv else None
        self.mirror = mirror
        self.rank = 0

    # -- row operations (S <- E S, R <- E R, Rinv <- Rinv E^-1)

    def row_swap(self, i: int, k: int):
        if i == k:
            return
        self.s[i], self.s[k] = self.s[k], self.s[i]
        if self.r is not None:
            self.r[i], self.r[k] = self.r[k], self.r[i]
        if self.rinv is not None:
            for row in self.rinv:
                row[i], row[k] = row[k], row[i]

    def row_neg(self, i: int):
        self.s[i] = [-x for x in self.s[i]]
        if self.r is not None:
            self.r[i] = [-x for x in self.r[i]]
        if self.rinv is not None:
            for row in self.rinv:
                row[i] = -row[i]

    def row_axpy(self, i: int, k: int, q: int):
        """row_i += q * row_k."""
        if not q:
            return
        si, sk = self.s[i], self.s[k]
        self.s[i] = [a + q * b for a, b in zip(si, sk)]
        if self.r is not None:
            ri, rk = self.r[i], self.r[k]
            self.r[i] = [a + q * b for a, b in zip(ri, rk)]
        if self.rinv is not None:
            for row in self.rinv:
                v = row[i]
                if v:
                    row[k] -= q * v

    def row_pair(self, i: int, k: int, x: int, y: int, u: int, w: int):
        """(row_i, row_k) <- (x ri + y rk, u ri + w rk); requires det == 1."""
        si, sk = self.s[i], self.s[k]
        self.s[i] = [x * a + y * b for a, b in zip(si, sk)]
        self.s[k] = [u * a + w * b for a, b in zip(si, sk)]
        if self.r is not None:
            ri, rk = self.r[i], self.r[k]
            self.r[i] = [x * a + y * b for a, b in zip(ri, rk)]
            self.r[k] = [u * a + w * b for a, b in zip(ri, rk)]
        if self.rinv is not None:
            for row in self.rinv:
                a, b = row[i], row[k]
                row[i] = w * a - u * b
                row[k] = -y * a + x * b

    # -- column operations (S <- S F, C <- C F, Cinv <- F^-1 Cinv)

    def col_swap(self, j: int, l: int):
        if j == l:
            return
        for row in self.s:
            row[j], row[l] = row[l], row[j]
        if self.c is not None:
            for row in self.c:
                row[j], row[l] = row[l], row[j]
        if self.cinv is not None:
            self.cinv[j], self.cinv[l] = self.cinv[l], self.cinv[j]
        if self.mirror is not None:
            self.mirror[j], self.mirror[l] = self.mirror[l], self.mirror[j]

    def col_neg(self, j: int):
        for row in self.s:
            row[j] = -row[j]
        if self.c is not None:
            for row in self.c:
                row[j] = -row[j]
        if self.cinv is not None:
            self.cinv[j] = [-x for x in self.cinv[j]]
        if self.mirror is not None:
            self.mirror[j] = [-x for x in self.mirror[j]]

    def col_axpy(self, j: int, l: int, q: int):
        """col_j += q * col_l."""
        if not q:
            return
        for row in self.s:
            v = row[l]
            if v:
                row[j] += q * v
        if self.c is not None:
            for row in self.c:
                v = row[l]
                if v:
                    row[j] += q * v
        if self.cinv is not None:
            cj, cl = self.cinv[j], self.cinv[l]
            self.cinv[l] = [b - q * a for a, b in zip(cj, cl)]
        if self.mirror is not None:
            mj, ml = self.mirror[j], self.mirror[l]
            self.mirror[l] = [b - q * a for a, b in zip(mj, ml)]

    def col_pair(self, j: int, l: int, x: int, y: int, u: int, w: int):
        """(col_j, col_l) <- (x cj + y cl, u cj + w cl); requires det == 1.

        The column transform F has F[j][j]=x, F[l][j]=y, F[j][l]=u,
        F[l][l]=w, so F^-1 acts on rows as (rj, rl) <- (w rj - u rl,
        -y rj + x rl)."""
        for row in self.s:
            a, b = row[j], row[l]
            row[j] = x * a + y * b
            row[l] = u * a + w * b
        if self.c is not None:
            for row in self.c:
                a, b = row[j], row[l]
                row[j] = x * a + y * b
                row[l] = u * a + w * b
        if self.cinv is not None:
            cj, cl = self.cinv[j], self.cinv[l]
            self.cinv[j] = [w * a - u * b for a, b in zip(cj, cl)]
            self.cinv[l] = [-y * a + x * b for a, b in zip(cj, cl)]
        if self.mirror is not None:
            mj, ml = self.mirror[j], self.mirror[l]
            self.mirror[j] = [w * a - u * b for a, b in zip(mj, ml)]
            self.mirror[l] = [-y * a + x * b for a, b in zip(mj, ml)]

    # -- pivoting

    def _find_pivot(self, k: int) -> Optional[Tuple[int, int]]:
        # smallest nonzero absolute value; ties broken by lowest (row, col)
        best = None
        best_abs = 0
        for i in range(k, self.m):
            row = self.s[i]
            for j in range(k, self.n):
                v = row[j]
                if v:
                    a = -v if v < 0 else v
                    if a == 1:
                        return (i, j)
                    if best is None or a < best_abs:
                        best = (i, j)
                        best_abs = a
        return best

    def _row_echelon_pass(self):
        """Row echelon with pivots moved onto the diagonal and entries above
        each pivot reduced into [0, pivot); keeps entries minor-bounded."""
        s, m, n = self.s, self.m, self.n
        r = 0
        for j in range(n):
            if r >= m:
                break
            # gcd-eliminate column j below row r down to a single pivot
            while True:
                nz = [i for i in range(r, m) if s[i][j]]
                if not nz:
                    break
                best = min(nz, key=lambda i: (abs(s[i][j]), i))
                self.row_swap(best, r)
                if s[r][j] < 0:
                    self.row_neg(r)
                p = s[r][j]
                done = True
                for i in range(r + 1, m):
                    v = s[i][j]
                    if v:
                        self.row_axpy(i, r, -(v // p))
                        if s[i][j]:
                            done = False
                if done:
                    break
            if r < m and s[r][j]:
                p = s[r][j]
                for i in range(r):
                    q = s[i][j] // p
                    if q:
                        self.row_axpy(i, r, -q)
                if j != r:
                    self.col_swap(j, r)
                r += 1

    def _col_echelon_pass(self):
        """Column echelon with pivots on the diagonal and entries left of
        each pivot reduced into [0, pivot)."""
        s, m, n = self.s, self.m, self.n
        c = 0
        for i in range(m):
            if c >= n:
                break
            while True:
                nz = [j for j in range(c, n) if s[i][j]]
                if not nz:
                    break
                best = min(nz, key=lambda j: (abs(s[i][j]), j))
                self.col_swap(best, c)
                if s[i][c] < 0:
                    self.col_neg(c)
                p = s[i][c]
                done = True
                for j in range(c + 1, n):
                    v = s[i][j]
                    if v:
                        self.col_axpy(j, c, -(v // p))
                        if s[i][j]:
                            done = False
                if done:
                    break
            if c < n and s[i][c]:
                p = s[i][c]
                for j in range(c):
                    q = s[i][j] // p
                    if q:
                        self.col_axpy(j, c, -q)
                if i != c:
                    self.row_swap(i, c)
                c += 1

    def _is_diagonal(self) -> bool:
        for i, row in enumerate(self.s):
            for j, v in enumerate(row):
                if v and i != j:
                    return False
        return True

    def diagonalize(self):
        """Diagonalize by alternating reduced echelon passes (entries stay
        bounded by minor sizes), with a direct pivot-clearing fallback."""
        for _ in range(80):
            self._row_echelon_pass()
            if self._is_diagonal():
                break
            self._col_echelon_pass()
            if self._is_diagonal():
                break
        else:
            self._diagonalize_by_clearing()
        s = self.s
        k = 0
        while k < min(self.m, self.n) and s[k][k]:
            if s[k][k] < 0:
                self.row_neg(k)
            k += 1
        self.rank = k

    def _diagonalize_by_clearing(self):
        s, m, n = self.s, self.m, self.n
        k = 0
        while k < m and k < n:
            piv = self._find_pivot(k)
            if piv is None:
                break
            self.row_swap(piv[0], k)
            self.col_swap(piv[1], k)
            while True:
                for i in range(k + 1, m):
                    b = s[i][k]
                    if not b:
                        continue
                    a = s[k][k]
                    if b % a == 0:
                        self.row_axpy(i, k, -(b // a))
                    else:
                        g, x, y = xgcd(a, b)
                        self.row_pair(k, i, x, y, -(b // g), a // g)
                for j in range(k + 1, n):
                    b = s[k][j]
                    if not b:
                        continue
                    a = s[k][k]
                    if b % a == 0:
                        self.col_axpy(j, k, -(b // a))
                    else:
                        g, x, y = xgcd(a, b)
                        self.col_pair(k, j, x, y, -(b // g), a // g)
                if not any(s[i][k] for i in range(k + 1, m)) and not any(
                    s[k][j] for j in range(k + 1, n)
                ):
                    break
            k += 1

    def make_divisible(self):
        s = self.s
        changed = True
        while changed:
            changed = False
            for t in range(self.rank - 1):
                a, b = s[t][t], s[t + 1][t + 1]
                if b % a:
                    self._divis_fix(t, t + 1)
                    changed = True

    def _divis_fix(self, i: int, j: int):
        s = self.s
        a, b = s[i][i], s[j][j]
        self.col_axpy(i, j, 1)
        g, x, y = xgcd(a, b)
        self.row_pair(i, j, x, y, -(b // g), a // g)
        yb = s[i][j]
        assert yb % g == 0
        self.col_axpy(j, i, -(yb // g))
        if s[i][i] < 0:
            self.row_neg(i)
        if s[j][j] < 0:
            self.row_neg(j)

    def diag(self) -> List[int]:
        return [self.s[t][t] for t in range(self.rank)]

    def s_matrix(self) -> IntMatrix:
        return IntMatrix(self.s, cols=self.n)


class SmithForm:
    """Decomposition a == u @ s @ v with u, v unimodular and s diagonal
    with a positive divisibility chain d1 | d2 | ... followed by zeros.
    Immutable."""

    __slots__ = ("u", "s", "v")

    def __init__(self, u: IntMatrix, s: IntMatrix, v: IntMatrix):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "v", v)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def invariants(self) -> List[int]:
        return [
            self.s.entry(i, i)
            for i in range(min(self.s.rows, self.s.cols))
            if self.s.entry(i, i)
        ]


def smith_form(a: IntMatrix) -> SmithForm:
    eng = _Eliminator(a, track_rinv=True, track_cinv=True)
    eng.diagonalize()
    eng.make_divisible()
    return SmithForm(
        u=IntMatrix(eng.rinv, cols=a.rows),
        s=eng.s_matrix(),
        v=IntMatrix(eng.cinv, cols=a.cols),
    )


def _unit_pivot_reduce(mat: IntMatrix, pivots: Optional[list] = None):
    """Internal: (k, R) with `mat` equivalent over Z to I_k (+) R.

    Sparse elimination on unit pivots: take the shortest live column that
    has a +-1 entry, pivot on the shortest row among its unit entries, and
    replace the rest by its Schur complement, which stays integral since the
    pivot is a unit.  A column without a unit waits until an update gives it
    one.  R holds the nonzero columns left, on the rows they touch.

    With a list `pivots`, each pivot is appended as (r, c, u, row, col):
    its row, column and unit entry, row r off the pivot as (j, entry) pairs
    and column c off the pivot as a dict, all as they stood when it was
    taken; the result is then (k, R, R's rows, R's columns), the last two
    as indices into `mat`.  The elimination works on copies of `mat`'s
    columns, so `mat` is left as it was.

    The pivot row is found in one pass over the column, with no list of
    unit rows, and each Schur update walks the pivot column's entries
    once, binding the target column's `get`; every dict and set sees the
    same operations in the same order as in the plain loop, so pivots, R
    and their dict orders are unchanged.  `IntSolver` needs the pivots and
    fronts its matrix here, in this orientation; `smith_invariants` and
    `rank_z` front a matrix once and keep the result on it
    (`IntMatrix._smith`), here unless it is wide, where they use
    `_unit_pivot_reduce_by_rows`."""
    cols = {j: dict(c) for j, c in enumerate(mat._cols) if c}
    rows: Dict[int, set] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    heap = [(len(col), j) for j, col in cols.items()]
    heapify(heap)
    parked = set()
    k = 0
    while heap:
        n, c = heappop(heap)
        col = cols.get(c)
        if col is None or len(col) != n:
            continue
        # the unit entry on the shortest row, the least row among those
        r = -1
        for i, x in col.items():
            if x == 1 or x == -1:
                size = len(rows[i])
                if r < 0 or size < best or (size == best and i < r):
                    r, best = i, size
        if r < 0:
            parked.add(c)
            continue
        u = col.pop(r)
        del cols[c]
        for i in col:
            rows[i].discard(c)
        k += 1
        prow = []
        items = tuple(col.items())
        for j in rows.pop(r):
            if j == c:
                continue
            cj = cols[j]
            get = cj.get
            before = len(cj)
            a = cj.pop(r)
            prow.append((j, a))
            q = a * u
            for i, v in items:
                x = get(i)
                if x is None:
                    cj[i] = -q * v
                    rows[i].add(j)
                else:
                    w = x - q * v
                    if w:
                        cj[i] = w
                    else:
                        del cj[i]
                        rows[i].discard(j)
            if not cj:
                del cols[j]
                parked.discard(j)
            elif j in parked or len(cj) != before:
                parked.discard(j)
                heappush(heap, (len(cj), j))
        if pivots is not None:
            pivots.append((r, c, u, prow, col))
    residual, row_ids, left = _residual(cols)
    if pivots is None:
        return k, residual
    return k, residual, row_ids, left


def _unit_pivot_reduce_by_rows(mat: IntMatrix) -> Tuple[int, IntMatrix]:
    """Internal: (k, R) with `mat` equivalent over Z to I_k (+) R^T, for a
    wide matrix, eliminating along its rows.

    The pivot rule is `_unit_pivot_reduce`'s: the shortest live column
    that has a +-1 entry, and the shortest row among its unit entries.
    But the entries are kept by row, and the columns only as sets of rows,
    so a Schur update subtracts a multiple of the pivot row from each
    other row of the pivot column.  On a wide matrix the rows are the long
    side: an update walks one long row into the few rows of a short
    column, where the column layout walks a short column into each of the
    many columns of a long row.  The columns wait in a bucket queue by
    length, which an update keeps current for every column it touches.
    Within a bucket the order is the set's, so pivots differ from those of
    the column layout on ties, but never the invariants: they are unique,
    and A and A^T have the same ones.  R holds the nonzero rows left, as
    its columns, on the columns of `mat` they touch.  The rows are copies,
    so `mat` is left as it was."""
    rows: Dict[int, Dict[int, int]] = {}
    cols: Dict[int, set] = {}
    for j, col in enumerate(mat._cols):
        if col:
            cols[j] = set(col)
            for i, x in col.items():
                row = rows.get(i)
                if row is None:
                    rows[i] = {j: x}
                else:
                    row[j] = x
    queued = {j: len(s) for j, s in cols.items()}
    buckets: Dict[int, set] = {}
    for j, n in queued.items():
        buckets.setdefault(n, set()).add(j)
    k = 0
    while buckets:
        n = min(buckets)
        bucket = buckets[n]
        c = bucket.pop()
        if not bucket:
            del buckets[n]
        del queued[c]
        col = cols[c]
        r = -1
        for i in col:
            x = rows[i][c]
            if x == 1 or x == -1:
                size = len(rows[i])
                if r < 0 or size < best or (size == best and i < r):
                    r, best = i, size
        if r < 0:
            continue  # out of the queue until an update touches it
        del cols[c]
        row = rows.pop(r)
        u = row.pop(c)
        for j in row:
            cols[j].discard(r)
        k += 1
        items = tuple(row.items())
        for t in col:
            if t == r:
                continue
            rt = rows[t]
            get = rt.get
            q = rt.pop(c) * u
            for j, v in items:
                x = get(j)
                if x is None:
                    rt[j] = -q * v
                    cols[j].add(t)
                else:
                    w = x - q * v
                    if w:
                        rt[j] = w
                    else:
                        del rt[j]
                        cols[j].discard(t)
            if not rt:
                del rows[t]
        for j in row:
            n = len(cols[j])
            old = queued.get(j)
            if n == old:
                continue
            if old is not None:
                bucket = buckets[old]
                bucket.discard(j)
                if not bucket:
                    del buckets[old]
            if n:
                queued[j] = n
                buckets.setdefault(n, set()).add(j)
            else:
                del cols[j]
                queued.pop(j, None)
    return k, _residual(rows)[0]


def _residual(cols: Dict[int, Dict[int, int]]) -> Tuple[IntMatrix, List[int], List[int]]:
    """Internal: the matrix of the live working columns `cols` (index ->
    {row: entry}) in index order, on the rows they touch, with those rows
    and the columns' indices."""
    left = sorted(cols)
    row_ids = sorted({i for j in left for i in cols[j]})
    index = {i: t for t, i in enumerate(row_ids)}
    rest = [{index[i]: x for i, x in cols[j].items()} for j in left]
    return IntMatrix._from_sparse_columns(rest, len(index)), row_ids, left


def _smith_split(a: IntMatrix) -> Tuple[int, List[int]]:
    """Internal: (k, invariants of R) for `a ~ I_k (+) R`, computed on the
    first call and memoized on `a` (`IntMatrix._smith`).  The list is the
    memo's own; callers do not mutate it.

    A wide matrix (at least twice as many columns as rows) is fronted
    along its rows (`_unit_pivot_reduce_by_rows`), any other along its
    columns (`_unit_pivot_reduce`); R is then that of a^T or of a, whose
    invariants are the same.  The memo holds them for `a` either way."""
    memo = a._smith
    if memo is None:
        wide = a.cols >= 2 * a.rows
        k, rest = (_unit_pivot_reduce_by_rows if wide else _unit_pivot_reduce)(a)
        eng = _Eliminator(rest)
        eng.diagonalize()
        eng.make_divisible()
        memo = a._smith = (k, eng.diag())
    return memo


def smith_invariants(a: IntMatrix) -> List[int]:
    """The invariant factors d1 | d2 | ... of `a` (its nonzero Smith
    diagonal), all positive, as a new list.

    A sparse pass first splits off the unit pivots, `a ~ I_k (+) R`, and
    the dense engine then runs on the small residual R only; the
    invariants are 1 (k times) followed by R's.  This is the unit-pivot
    front of J.-G. Dumas, B. D. Saunders and G. Villard, "On efficient
    sparse integer matrix Smith normal form computations", J. Symbolic
    Comput. 32 (2001).  A wide matrix (columns >= 2 rows) is eliminated
    along its rows (`_unit_pivot_reduce_by_rows`), where each update
    walks a long row into a few others, and any other along its columns
    (`_unit_pivot_reduce`).  The side does not change the result: Smith
    invariants are unique, those of a and a^T are the same, and so the
    result is that of the dense engine on `a`.  The pair (k, R's
    invariants) is memoized on `a`, so later calls on the same matrix,
    here or in `rank_z`, do no elimination."""
    k, rest = _smith_split(a)
    return [1] * k + rest


def rank_z(a: IntMatrix) -> int:
    """Rank of `a`: its unit pivots plus the number of invariants of the
    residual, read from the memo that `smith_invariants` shares."""
    k, rest = _smith_split(a)
    return k + len(rest)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a basis of the saturated integer kernel lattice of a."""
    eng = _Eliminator(a, track_c=True)
    eng.diagonalize()
    cols = [[eng.c[i][j] for i in range(a.cols)] for j in range(eng.rank, a.cols)]
    return IntMatrix.from_columns(cols, rows=a.cols)


class IntSolver:
    """Repeated exact solving of a*x == b for a fixed integer matrix a.

    The unit pivots are split off sparsely (`_unit_pivot_reduce`, keeping
    the pivots) and only the residual is eliminated densely, with its
    transforms.  A right-hand side is reduced by the pivots' row
    eliminations, in pivot order; it must then vanish on the rows that are
    neither pivot rows nor residual rows, the residual system is solved by
    the transforms, and the pivots are back-substituted in reverse order,
    x_c = u (b_r - sum_j row_r[j] x_j)."""

    def __init__(self, a: IntMatrix):
        self.m, self.n = a.rows, a.cols
        self._pivots: list = []
        k, rest, self._rows, self._cols = _unit_pivot_reduce(a, self._pivots)
        eng = _Eliminator(rest, track_r=True, track_c=True)
        eng.diagonalize()
        self.rank = k + eng.rank
        self._diag = eng.diag()
        self._r = eng.r
        self._c = eng.c
        kept = set(self._rows)
        kept.update(p[0] for p in self._pivots)
        self._zero_rows = [i for i in range(self.m) if i not in kept]

    def solve(self, b: Sequence[int]) -> Optional[List[int]]:
        if len(b) != self.m:
            raise ValidationError("right-hand side length mismatch")
        b = list(b)
        for r, _c, u, _row, col in self._pivots:
            t = b[r]
            if t:
                t *= u
                for i, v in col.items():
                    b[i] -= v * t
        for i in self._zero_rows:
            if b[i]:
                return None
        rhs = [b[i] for i in self._rows]
        rank = len(self._diag)
        y = []
        for t, rt in enumerate(self._r):
            s = 0
            for a, x in zip(rt, rhs):
                if a and x:
                    s += a * x
            if t >= rank:
                if s:
                    return None
            elif s % self._diag[t]:
                return None
            else:
                y.append(s // self._diag[t])
        out = [0] * self.n
        for t, j in enumerate(self._cols):
            s = 0
            for a, yy in zip(self._c[t], y):
                if a and yy:
                    s += a * yy
            out[j] = s
        for r, c, u, row, _col in reversed(self._pivots):
            s = b[r]
            for j, a in row:
                x = out[j]
                if x:
                    s -= a * x
            out[c] = u * s
        return out


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Optional[List[int]]:
    """Some integer solution of a*x == b, or None if none exists."""
    return IntSolver(a).solve(b)


# ---------------------------------------------------------------------------
# Finitely generated abelian groups


def _factorize(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _invariant_chain(cyclic_orders: Sequence[int]) -> Tuple[int, ...]:
    """Canonical divisibility chain of a direct sum of finite cyclic groups."""
    by_prime: Dict[int, List[int]] = {}
    for d in cyclic_orders:
        if d == 1:
            continue
        for p, e in _factorize(d).items():
            by_prime.setdefault(p, []).append(e)
    if not by_prime:
        return ()
    depth = max(len(v) for v in by_prime.values())
    chain = []
    for k in range(depth):
        # k-th largest exponent of each prime
        d = 1
        for p, es in by_prime.items():
            es_sorted = sorted(es, reverse=True)
            if k < len(es_sorted):
                d *= p ** es_sorted[k]
        chain.append(d)
    chain.reverse()
    return tuple(chain)


class FgAbGroup:
    """Finitely generated abelian group Z^r + Z/d1 + ... in canonical form."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion: Sequence[int] = ()):
        if not _is_int(free_rank):
            raise ValidationError(f"free rank {free_rank!r} is not an integer")
        if free_rank < 0:
            raise ValidationError("negative free rank")
        self.free_rank = free_rank
        orders = list(torsion)
        for d in orders:
            if not _is_int(d):
                raise ValidationError(f"torsion order {d!r} is not an integer")
            if d < 1:
                raise ValidationError(f"torsion order {d} is not positive")
        self.torsion = _invariant_chain(orders)

    @classmethod
    def from_invariants(cls, invariants: Sequence[int], ambient_rank: int) -> "FgAbGroup":
        """Z^ambient_rank modulo the relations d of `invariants`: each
        nonzero d gives Z/|d| (Smith invariants are defined up to sign),
        and a zero one no relation."""
        inv = [abs(d) for d in invariants if d]
        return cls(ambient_rank - len(inv), [d for d in inv if d > 1])

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self) -> Optional[int]:
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    # presentation in normalized coordinates: torsion generators first
    def presentation_rank(self) -> int:
        return len(self.torsion) + self.free_rank

    def relation_matrix(self) -> IntMatrix:
        return IntMatrix._from_sparse_columns(
            [{i: d} for i, d in enumerate(self.torsion)], self.presentation_rank()
        )

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup(
            self.free_rank + other.free_rank, list(self.torsion) + list(other.torsion)
        )

    def tensor(self, other: "FgAbGroup") -> "FgAbGroup":
        tors: List[int] = []
        for a in self.torsion:
            for b in other.torsion:
                g, _, _ = xgcd(a, b)
                tors.append(g)
        tors.extend(list(self.torsion) * other.free_rank)
        tors.extend(list(other.torsion) * self.free_rank)
        return FgAbGroup(self.free_rank * other.free_rank, tors)

    def tor(self, other: "FgAbGroup") -> "FgAbGroup":
        tors = []
        for a in self.torsion:
            for b in other.torsion:
                g, _, _ = xgcd(a, b)
                tors.append(g)
        return FgAbGroup(0, tors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FgAbGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FgAbGroup({self.free_rank}, {list(self.torsion)})"


# ---------------------------------------------------------------------------
# Homology of a pair of composable boundary matrices


def homology_group(dn: IntMatrix, dnp1: IntMatrix, *, _composable: bool = False) -> FgAbGroup:
    """ker(dn)/im(dnp1) as an abstract group, without coordinates: the rank
    of dn and the invariants of dnp1, both from the sparse unit-pivot front
    (`rank_z`, `smith_invariants`), so the dense engine runs on residuals
    only.  `HomologyData` reads its group here too.

    The boundaries must compose to zero, which `product_gaps` checks;
    `_composable` is for `ChainComplex.homology` only (directly or through
    `HomologyData`), whose boundaries were checked when the complex was
    built."""
    if dn.cols != dnp1.rows:
        raise ValidationError("boundary shapes are not composable")
    if not _composable and any(product_gaps((dn, dnp1))):
        raise ValidationError("boundaries do not compose to zero")
    r1 = rank_z(dn)
    inv = smith_invariants(dnp1)
    free = dn.cols - r1 - len(inv)
    if free < 0:
        raise ValidationError("boundaries do not compose to zero")
    return FgAbGroup(free, [d for d in inv if d > 1])


class HomologyData:
    """Homology group at one degree with normalized coordinate data.

    Generators are ordered torsion-first by increasing invariant factor,
    then free generators.  Coordinates of torsion generators are reduced
    modulo the invariant factor.

    The group comes from `homology_group`, on the sparse unit-pivot front,
    which also refuses boundaries that do not compose (`_composable` as
    there).  A zero group ends the work: there are no generators, and a
    vector is a cycle when d_n v = 0 on sparse columns.  Only a nonzero
    group runs the dense engine, with transforms, for the coordinates.
    Smith invariants are unique, so it must find the same group; it is
    compared with the front's, and a difference raises `ValidationError`.
    The front's invariants are memoized on the boundaries
    (`IntMatrix._smith`), so the group costs no elimination when the
    adjacent degree has fronted them already."""

    def __init__(self, dn: IntMatrix, dnp1: IntMatrix, *, _composable: bool = False):
        self.group = homology_group(dn, dnp1, _composable=_composable)
        self.degree_rank = chain_rank = dn.cols
        self._dn = dn
        self._surviving: List[int] = []
        if self.group.is_trivial():
            return
        b = dnp1
        if b.cols > b.rows:
            b = column_image_basis(b)
        mirror = b.to_rows() if b.cols else [[] for _ in range(chain_rank)]
        eng1 = _Eliminator(dn, track_c=True, track_cinv=True, mirror=mirror)
        eng1.diagonalize()
        r = eng1.rank
        z = chain_rank - r
        for i in range(r):
            if any(mirror[i]):
                raise ValidationError("boundaries do not compose to zero")
        bpp = IntMatrix(mirror[r:], cols=b.cols) if z else IntMatrix.zeros(0, b.cols)
        eng2 = _Eliminator(bpp, track_r=True, track_rinv=True)
        eng2.diagonalize()
        eng2.make_divisible()
        d = eng2.diag()
        r2 = eng2.rank
        surviving = [i for i in range(r2) if d[i] > 1] + list(range(r2, z))
        dense = FgAbGroup(z - r2, d)
        if dense != self.group:
            raise ValidationError(
                f"homology {self.group} from the sparse front disagrees with "
                f"{dense} from the dense engine"
            )
        self._r = r
        self._z = z
        self._cinv = eng1.cinv
        self._kernel_cols = [
            [eng1.c[i][r + j] for i in range(chain_rank)] for j in range(z)
        ]
        self._r2 = eng2.r
        self._r2inv = eng2.rinv
        self._orders = [d[i] if i < r2 else 0 for i in surviving]
        self._surviving = surviving

    def generator_cycles(self) -> List[List[int]]:
        """Cycle vectors (in chain coordinates) for the normalized generators."""
        out = []
        for idx in self._surviving:
            vec = [0] * self.degree_rank
            for j in range(self._z):
                u = self._r2inv[j][idx]
                if u:
                    col = self._kernel_cols[j]
                    for i in range(self.degree_rank):
                        if col[i]:
                            vec[i] += u * col[i]
            out.append(vec)
        return out

    def coords_of_cycle(self, vec: Sequence[int]) -> List[int]:
        if len(vec) != self.degree_rank:
            raise ValidationError("cycle vector length mismatch")
        if self.group.is_trivial():
            if _sparse_apply(self._dn._cols, {i: x for i, x in enumerate(vec) if x}):
                raise ValidationError("vector is not a cycle")
            return []
        y = []
        for i in range(self.degree_rank):
            s = 0
            for a, x in zip(self._cinv[i], vec):
                if a and x:
                    s += a * x
            y.append(s)
        for i in range(self._r):
            if y[i]:
                raise ValidationError("vector is not a cycle")
        ker = y[self._r:]
        out = []
        for pos, idx in enumerate(self._surviving):
            s = 0
            for a, x in zip(self._r2[idx], ker):
                if a and x:
                    s += a * x
            order = self._orders[pos]
            out.append(s % order if order else s)
        return out


# ---------------------------------------------------------------------------
# Chain complexes


class ChainComplex:
    """Bounded complex of free abelian groups with validated boundaries.

    Degrees run over a contiguous range; boundary(n) maps degree n to n-1.
    Out-of-range boundaries are zero maps of the appropriate shape.
    """

    def __init__(
        self,
        lo: int,
        ranks: Sequence[int],
        boundaries: Dict[int, IntMatrix],
        validate: bool = True,
    ):
        self.lo = lo
        self.ranks = list(int(r) for r in ranks)
        self.hi = lo + len(self.ranks) - 1
        self._boundaries = dict(boundaries)
        for n, mat in self._boundaries.items():
            if not (self.lo < n <= self.hi):
                raise ValidationError(f"boundary at degree {n} outside range")
            if mat.shape != (self.rank(n - 1), self.rank(n)):
                raise ValidationError(
                    f"boundary {n} has shape {mat.shape}, expected "
                    f"({self.rank(n - 1)}, {self.rank(n)})"
                )
        if validate:
            self._check_dd_zero()
        self._validated = validate
        self._homology_cache: Dict[Tuple[int, bool], object] = {}

    def _check_dd_zero(self):
        for n in range(self.lo + 2, self.hi + 1):
            if any(product_gaps((self.boundary(n - 1), self.boundary(n)))):
                raise ValidationError(f"boundary squared is nonzero at degree {n}")

    def rank(self, n: int) -> int:
        if self.lo <= n <= self.hi:
            return self.ranks[n - self.lo]
        return 0

    def boundary(self, n: int) -> IntMatrix:
        mat = self._boundaries.get(n)
        if mat is None:
            return IntMatrix.zeros(self.rank(n - 1), self.rank(n))
        return mat

    def homology(self, n: int, coords: bool = False):
        """FgAbGroup at degree n, or HomologyData when coords is True."""
        key = (n, coords)
        if key not in self._homology_cache:
            dn = self.boundary(n)
            dnp1 = self.boundary(n + 1)
            if coords:
                self._homology_cache[key] = HomologyData(
                    dn, dnp1, _composable=self._validated
                )
            else:
                self._homology_cache[key] = homology_group(
                    dn, dnp1, _composable=self._validated
                )
        return self._homology_cache[key]

    def homology_data(self, n: int) -> HomologyData:
        return self.homology(n, coords=True)


class ChainMap:
    """Degree-preserving (up to a shift) map of chain complexes.

    With validate=True (the default) the components are checked to commute
    with the boundaries in every degree, and ``checked`` is True.  With
    validate=False nothing is checked and ``checked`` is False; such a map
    is checked later, degree by degree, where it is used: ``induced_map``
    raises ValidationError if it does not commute at the degrees it reads.
    """

    def __init__(
        self,
        source: ChainComplex,
        target: ChainComplex,
        components: Dict[int, IntMatrix],
        shift: int = 0,
        validate: bool = True,
    ):
        self.source = source
        self.target = target
        self.shift = shift
        self.components = dict(components)
        for n, mat in self.components.items():
            want = (target.rank(n + shift), source.rank(n))
            if mat.shape != want:
                raise ValidationError(
                    f"chain map component {n} has shape {mat.shape}, expected {want}"
                )
        if validate:
            self._check_commutes(range(source.lo + 1, source.hi + 1))
        self.checked = validate

    def component(self, n: int) -> IntMatrix:
        mat = self.components.get(n)
        if mat is None:
            return IntMatrix.zeros(self.target.rank(n + self.shift), self.source.rank(n))
        return mat

    def _check_commutes(self, degrees: Iterable[int]):
        for n in degrees:
            if not (self.source.lo < n <= self.source.hi):
                continue
            if any(
                product_gaps(
                    (self.target.boundary(n + self.shift), self.component(n)),
                    (self.component(n - 1), self.source.boundary(n)),
                )
            ):
                raise ValidationError(f"chain map does not commute at degree {n}")

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other; checked when both factors are, since a
        composite of chain maps is a chain map."""
        comps = {}
        for n in range(other.source.lo, other.source.hi + 1):
            comps[n] = self.component(n + other.shift) @ other.component(n)
        out = ChainMap(
            other.source, self.target, comps, shift=self.shift + other.shift,
            validate=False,
        )
        out.checked = self.checked and other.checked
        return out


def induced_map(f: ChainMap, n: int) -> IntMatrix:
    """Matrix of H_n(f) in the normalized homology coordinates.

    H_n(f) is defined only if f sends cycles to cycles and boundaries to
    boundaries, so a map whose commutation was not checked when it was
    built is checked here at degrees n and n+1; ValidationError names the
    first degree at which it fails to commute."""
    if not f.checked:
        f._check_commutes((n, n + 1))
    src = f.source.homology_data(n)
    tgt = f.target.homology_data(n + f.shift)
    comp = f.component(n)
    cols = [tgt.coords_of_cycle(comp.apply(c)) for c in src.generator_cycles()]
    nrows = tgt.group.presentation_rank()
    return IntMatrix.from_columns(cols, rows=nrows)


# -- maps between finitely generated abelian groups in canonical coordinates


def hom_cokernel(mat: IntMatrix, target: FgAbGroup) -> FgAbGroup:
    rel = target.relation_matrix()
    inv = smith_invariants(hstack([mat, rel]))
    return FgAbGroup.from_invariants(inv, target.presentation_rank())


def hom_kernel(mat: IntMatrix, source: FgAbGroup, target: FgAbGroup) -> FgAbGroup:
    ker = kernel_basis(hstack([mat, target.relation_matrix()]))
    # the projection of the kernel onto the source coordinates
    top = source.presentation_rank()
    lat = column_image_basis(
        IntMatrix._from_sparse_columns(
            [{i: x for i, x in c.items() if i < top} for c in ker._cols], top
        )
    )
    # kernel subgroup = lat / source relations; express relations in lat basis
    rel_a = source.relation_matrix()
    if lat.cols == 0:
        return FgAbGroup.trivial()
    solver = IntSolver(lat)
    rel_cols = []
    for j in range(rel_a.cols):
        sol = solver.solve(rel_a.column(j))
        if sol is None:
            raise ValidationError("map does not kill source relations")
        rel_cols.append(sol)
    relmat = (
        IntMatrix.from_columns(rel_cols, rows=lat.cols)
        if rel_cols
        else IntMatrix.zeros(lat.cols, 0)
    )
    inv = smith_invariants(relmat)
    return FgAbGroup.from_invariants(inv, lat.cols)


def is_isomorphism(mat: IntMatrix, source: FgAbGroup, target: FgAbGroup) -> bool:
    return (
        hom_kernel(mat, source, target).is_trivial()
        and hom_cokernel(mat, target).is_trivial()
    )


def is_zero_map(mat: IntMatrix, target: FgAbGroup) -> bool:
    t = len(target.torsion)
    return not any(
        i >= t or x % target.torsion[i] for col in mat._cols for i, x in col.items()
    )


def sequence_exact_at(
    f: IntMatrix,
    a: FgAbGroup,
    b: FgAbGroup,
    g: IntMatrix,
    c: FgAbGroup,
) -> Tuple[bool, str]:
    """Is im(f: A -> B) equal to ker(g: B -> C)?  Maps in canonical coords."""
    rel_c = c.relation_matrix()
    if any(product_gaps((g, f), modulo=LatticeAccumulator.spanned_by(rel_c))):
        return False, "composite is nonzero"
    # lattice of cycles: x with g x in relations of C
    ker = kernel_basis(hstack([g, rel_c]))
    nb = b.presentation_rank()
    img = hstack([f, b.relation_matrix()])
    solver = IntSolver(img) if img.cols else None
    for col in ker.columns():
        v = col[:nb]
        if solver is None:
            if any(v):
                return False, "kernel not contained in image"
        elif solver.solve(v) is None:
            return False, "kernel not contained in image"
    return True, ""


# ---------------------------------------------------------------------------
# Presented complexes (chain groups given by free covers plus relations)


class PresentedComplex:
    """Complex of finitely presented abelian groups.

    Each degree carries a free cover of some rank and a list of relation
    blocks (row offset, relation matrix for the rows of that slot).  The
    blocks of one degree must not overlap; the relations are block-diagonal
    by slot.  Each distinct block matrix is reduced once (a lattice basis of
    its columns) and gets one solver, shared by every slot that carries it;
    relations are solved block by block.  The assembled relation matrix is
    identical to a joint reduction of all the blocks' columns, since columns
    with disjoint row supports never interact and basis columns are ordered
    by pivot row.  The boundaries are matrices between the free covers that
    commute with the relations.  Homology is computed on an equivalent
    complex of free groups (the total complex of the two-row resolution).
    """

    def __init__(
        self,
        lo: int,
        ranks: Sequence[int],
        boundaries: Dict[int, IntMatrix],
        relation_blocks: Optional[Dict[int, List[Tuple[int, IntMatrix]]]] = None,
    ):
        self.lo = lo
        self.ranks = [int(r) for r in ranks]
        self.hi = lo + len(self.ranks) - 1
        self._boundaries = dict(boundaries)
        self._relations: Dict[int, IntMatrix] = {}
        # per degree: the row offsets of the blocks with relations, in
        # order, and each one's (row count, first relation column, index
        # into _reduced)
        self._blocks: Dict[int, Tuple[List[int], List[Tuple[int, int, int]]]] = {}
        self._reduced: List[IntMatrix] = []
        self._solvers: List[Optional[IntSolver]] = []
        index: Dict[IntMatrix, int] = {}
        blocks = self._relation_blocks = dict(relation_blocks or {})
        for n in range(self.lo, self.hi + 1):
            rows = self.rank(n)
            starts: List[int] = []
            placed: List[Tuple[int, int, int]] = []
            cols: List[Dict[int, int]] = []
            end = 0
            for offset, mat in sorted(blocks.get(n, []), key=lambda b: b[0]):
                if not mat.rows:
                    continue
                if offset < end:
                    raise ValidationError(f"relation blocks overlap at degree {n}")
                end = offset + mat.rows
                if offset < 0 or end > rows:
                    raise ValidationError(
                        f"relation block outside the free cover at degree {n}"
                    )
                k = index.get(mat)
                if k is None:
                    k = index[mat] = len(self._reduced)
                    self._reduced.append(column_image_basis(mat))
                    self._solvers.append(None)
                basis = self._reduced[k]._cols
                if basis:
                    starts.append(offset)
                    placed.append((mat.rows, len(cols), k))
                    cols.extend({offset + i: x for i, x in c.items()} for c in basis)
            self._blocks[n] = (starts, placed)
            self._relations[n] = IntMatrix._from_sparse_columns(cols, rows)
        for n, mat in self._boundaries.items():
            want = (self.rank(n - 1), self.rank(n))
            if mat.shape != want:
                raise ValidationError(
                    f"presented boundary {n} has shape {mat.shape}, expected {want}"
                )
        self._cone: Optional[ChainComplex] = None
        self._cone_rel_counts: Dict[int, int] = {}
        self._shifted: Optional[PresentedComplex] = None

    def shifted(self) -> "PresentedComplex":
        """This complex without its bottom degree, degree n + 1 moved to
        degree n, built from the same boundary matrices and relation blocks
        (cached)."""
        if self._shifted is None:
            lo = self.lo
            self._shifted = PresentedComplex(
                lo,
                self.ranks[1:],
                {n - 1: mat for n, mat in self._boundaries.items() if n > lo + 1},
                {n - 1: b for n, b in self._relation_blocks.items() if n > lo},
            )
        return self._shifted

    def rank(self, n: int) -> int:
        if self.lo <= n <= self.hi:
            return self.ranks[n - self.lo]
        return 0

    def boundary(self, n: int) -> IntMatrix:
        mat = self._boundaries.get(n)
        if mat is None:
            return IntMatrix.zeros(self.rank(n - 1), self.rank(n))
        return mat

    def relations(self, n: int) -> IntMatrix:
        mat = self._relations.get(n)
        if mat is None:
            return IntMatrix.zeros(self.rank(n), 0)
        return mat

    def has_relations(self) -> bool:
        return any(m.cols for m in self._relations.values())

    def solve_relations(self, n: int, vec: Dict[int, int]) -> Dict[int, int]:
        """The unique x with relations(n) x == vec, both sparse (index ->
        nonzero entry), solved block by block with each block's shared
        solver; raises ValidationError if vec is not in the relation
        lattice."""
        starts, placed = self._blocks.get(n, ([], []))
        slices: Dict[int, List[int]] = {}
        for i, x in vec.items():
            b = bisect_right(starts, i) - 1
            if b < 0 or i >= starts[b] + placed[b][0]:
                raise ValidationError(
                    f"vector is not in the relation lattice at degree {n}"
                )
            part = slices.get(b)
            if part is None:
                part = slices[b] = [0] * placed[b][0]
            part[i - starts[b]] = x
        out: Dict[int, int] = {}
        for b, part in slices.items():
            _, first, k = placed[b]
            solver = self._solvers[k]
            if solver is None:
                solver = self._solvers[k] = IntSolver(self._reduced[k])
            sol = solver.solve(part)
            if sol is None:
                raise ValidationError(
                    f"vector is not in the relation lattice at degree {n}"
                )
            for j, y in enumerate(sol):
                if y:
                    out[first + j] = y
        return out

    def cone(self) -> ChainComplex:
        """Free complex with the same homology in degrees <= hi (cached).

        Extends one degree above the top so that the top-degree relations
        are imposed on the top chain group.
        """
        if self._cone is not None:
            return self._cone
        if not self.has_relations():
            ranks = self.ranks
            bounds = {
                n: self.boundary(n)
                for n in range(self.lo + 1, self.hi + 1)
            }
            self._cone = ChainComplex(self.lo, ranks, bounds, validate=True)
            self._cone_rel_counts = {n: 0 for n in range(self.lo, self.hi + 2)}
            return self._cone
        ranks = []
        for n in range(self.lo, self.hi + 2):
            rc = self.relations(n - 1).cols if n - 1 >= self.lo else 0
            self._cone_rel_counts[n] = rc
            ranks.append(self.rank(n) + rc)
        bounds: Dict[int, IntMatrix] = {}
        for n in range(self.lo + 1, self.hi + 2):
            rows_f = self.rank(n - 1)
            rows_r = self._cone_rel_counts[n - 1]
            dprev_cols = self.boundary(n - 1)._cols if rows_r else []
            out_cols: List[Dict[int, int]] = []
            # columns (D x, E x) from F_n, with rho_{n-2} E = -D_{n-1} D_n x,
            # then (rho r, -B r) from R_{n-1}, with rho_{n-2} B = D_{n-1} rho r
            heads = self.boundary(n)._cols + self.relations(n - 1)._cols
            for head in heads:
                img = _sparse_apply(dprev_cols, head) if rows_r else None
                if img:
                    col = dict(head)
                    for i, v in self.solve_relations(n - 2, img).items():
                        col[rows_f + i] = -v
                    head = col
                out_cols.append(head)
            bounds[n] = IntMatrix._from_sparse_columns(out_cols, rows_f + rows_r)
        self._cone = ChainComplex(self.lo, ranks, bounds, validate=True)
        return self._cone

    def lift_cycle(self, n: int, vec: Sequence[int]) -> List[int]:
        """Lift a free-cover cycle (boundary lands in relations) to the cone."""
        cone = self.cone()
        rc = self._cone_rel_counts.get(n, 0)
        if rc == 0:
            return list(vec)
        img = self.boundary(n).apply(vec)
        r = self.solve_relations(n - 1, {i: -x for i, x in enumerate(img) if x})
        tail = [0] * rc
        for i, v in r.items():
            tail[i] = v
        return list(vec) + tail

    def homology(self, n: int, coords: bool = False):
        return self.cone().homology(n, coords=coords)

    def homology_data(self, n: int) -> HomologyData:
        return self.cone().homology(n, coords=True)


class PresentedChainMap:
    """Map of presented complexes given on free covers (commuting with the
    boundaries modulo relations)."""

    def __init__(
        self,
        source: PresentedComplex,
        target: PresentedComplex,
        components: Dict[int, IntMatrix],
    ):
        self.source = source
        self.target = target
        self.components = dict(components)
        self._cone_map: Optional[ChainMap] = None

    def component(self, n: int) -> IntMatrix:
        mat = self.components.get(n)
        if mat is None:
            return IntMatrix.zeros(self.target.rank(n), self.source.rank(n))
        return mat

    def cone_map(self) -> ChainMap:
        """The map of the free cones (cached), built on sparse columns.  In
        degree n a free generator x goes to (f_n x, c_n x) and a relation
        generator r to (0, g r), where rho'_{n-1} c_n = f_{n-1} D_n - D'_n f_n
        and rho'_{n-1} g = f_{n-1} rho_{n-1}, both solved in the target's
        relation lattice."""
        if self._cone_map is not None:
            return self._cone_map
        src, tgt = self.source, self.target
        src_cone, tgt_cone = src.cone(), tgt.cone()
        comps: Dict[int, IntMatrix] = {}
        for n in range(src.lo, src_cone.hi + 1):
            f_n = self.component(n)
            offset = tgt.rank(n)
            cols = list(f_n._cols)
            g_cols: List[Dict[int, int]] = [
                {} for _ in range(src_cone.rank(n) - src.rank(n))
            ]
            if tgt_cone.rank(n) > offset and n - 1 >= src.lo:
                f_prev = self.component(n - 1)
                gaps = product_gaps((f_prev, src.boundary(n)), (tgt.boundary(n), f_n))
                for j, gap in enumerate(gaps):
                    if gap:
                        col = cols[j] = dict(cols[j])
                        for i, v in tgt.solve_relations(n - 1, gap).items():
                            col[offset + i] = v
                g_cols = [
                    {offset + i: v for i, v in tgt.solve_relations(n - 1, gap).items()}
                    for gap in product_gaps((f_prev, src.relations(n - 1)))
                ]
            comps[n] = IntMatrix._from_sparse_columns(cols + g_cols, tgt_cone.rank(n))
        self._cone_map = ChainMap(src_cone, tgt_cone, comps, validate=True)
        return self._cone_map

    def induced(self, n: int) -> IntMatrix:
        return induced_map(self.cone_map(), n)
