"""Exact linear algebra over Q and over prime fields.

Scalars are `fractions.Fraction` over Q (always in lowest terms) and
canonical representatives in [0, p) over F_p.  Matrices are sparse column
collections and are treated as immutable values.  A single column-echelon
reduction is the only elimination primitive; rank, kernel, image and
linear solving are all derived from it.
"""

from __future__ import annotations

from fractions import Fraction


class FieldMismatch(ValueError):
    """Raised when operands live over different fields."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """An exact coefficient field: the rationals or F_p for a prime p."""

    __slots__ = ("kind", "characteristic")

    def __init__(self, kind: str, characteristic: int = 0):
        if kind == "rationals":
            if characteristic != 0:
                raise ValueError("rationals have characteristic 0")
        elif kind == "prime-field":
            if not _is_prime(characteristic):
                raise ValueError(f"{characteristic} is not prime")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.characteristic = characteristic

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and self.kind == other.kind
                and self.characteristic == other.characteristic)

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        if self.kind == "rationals":
            return "QQ"
        return f"GF({self.characteristic})"

    # -- scalar arithmetic -------------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.kind == "rationals" else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == "rationals" else 1

    def coerce(self, x):
        """Canonical scalar from an int, Fraction, or string like '-3/2'."""
        if self.kind == "rationals":
            if isinstance(x, str):
                return Fraction(x)
            return Fraction(x)
        p = self.characteristic
        if isinstance(x, str):
            if "/" in x:
                num, den = x.split("/")
                return int(num) * pow(int(den), -1, p) % p
            x = int(x)
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p

    def add(self, a, b):
        s = a + b
        return s if self.kind == "rationals" else s % self.characteristic

    def sub(self, a, b):
        s = a - b
        return s if self.kind == "rationals" else s % self.characteristic

    def mul(self, a, b):
        s = a * b
        return s if self.kind == "rationals" else s % self.characteristic

    def neg(self, a):
        return -a if self.kind == "rationals" else (-a) % self.characteristic

    def inv(self, a):
        if self.kind == "rationals":
            return Fraction(1) / a
        return pow(a, -1, self.characteristic)

    def div(self, a, b):
        return self.mul(a, self.inv(b))


QQ = FieldSpec("rationals")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime-field", p)


class Matrix:
    """Sparse exact matrix; columns are dicts {row index: nonzero scalar}."""

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, cols):
        assert len(cols) == ncols
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(field, nrows, ncols):
        return Matrix(field, nrows, ncols, [dict() for _ in range(ncols)])

    @staticmethod
    def identity(field, n):
        one = field.one
        return Matrix(field, n, n, [{i: one} for i in range(n)])

    @staticmethod
    def from_rows(field, rows, ncols=None):
        nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        cols = [dict() for _ in range(ncols)]
        for i, row in enumerate(rows):
            assert len(row) == ncols
            for j, x in enumerate(row):
                v = field.coerce(x)
                if v:
                    cols[j][i] = v
        return Matrix(field, nrows, ncols, cols)

    @staticmethod
    def from_entries(field, nrows, ncols, entries):
        """entries: mapping (i, j) -> scalar-like; zeros are dropped."""
        cols = [dict() for _ in range(ncols)]
        for (i, j), x in entries.items():
            v = field.coerce(x)
            if v:
                cols[j][i] = v
        return Matrix(field, nrows, ncols, cols)

    @staticmethod
    def from_cols(field, nrows, coldicts):
        cols = [{i: v for i, v in c.items() if v} for c in coldicts]
        return Matrix(field, nrows, len(cols), cols)

    # -- basics ------------------------------------------------------------

    def entry(self, i, j):
        return self.cols[j].get(i, self.field.zero)

    def is_zero(self):
        return all(not c for c in self.cols)

    def nnz(self):
        return sum(len(c) for c in self.cols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.cols == other.cols)

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols}, nnz={self.nnz()})"

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    # -- arithmetic ---------------------------------------------------------

    def add(self, other):
        self._check(other)
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        f = self.field
        cols = []
        for a, b in zip(self.cols, other.cols):
            c = dict(a)
            for i, v in b.items():
                s = f.add(c.get(i, f.zero), v)
                if s:
                    c[i] = s
                elif i in c:
                    del c[i]
            cols.append(c)
        return Matrix(f, self.nrows, self.ncols, cols)

    def scale(self, x):
        f = self.field
        x = f.coerce(x)
        if not x:
            return Matrix.zeros(f, self.nrows, self.ncols)
        return Matrix(f, self.nrows, self.ncols,
                      [{i: f.mul(v, x) for i, v in c.items()} for c in self.cols])

    def sub(self, other):
        return self.add(other.scale(-1))

    def mul(self, other):
        """Matrix product self @ other."""
        self._check(other)
        assert self.ncols == other.nrows
        f = self.field
        cols = []
        for bc in other.cols:
            acc: dict = {}
            for k, bv in bc.items():
                for i, av in self.cols[k].items():
                    s = f.add(acc.get(i, f.zero), f.mul(av, bv))
                    if s:
                        acc[i] = s
                    elif i in acc:
                        del acc[i]
            cols.append(acc)
        return Matrix(f, self.nrows, other.ncols, cols)

    def apply(self, coldict):
        """Image of a sparse vector {index: scalar} under this matrix."""
        f = self.field
        acc: dict = {}
        for k, x in coldict.items():
            for i, v in self.cols[k].items():
                s = f.add(acc.get(i, f.zero), f.mul(v, x))
                if s:
                    acc[i] = s
                elif i in acc:
                    del acc[i]
        return acc


def _col_axpy(field, c, pc, factor):
    """c -= factor * pc, in place on dict c."""
    for i, v in pc.items():
        s = field.sub(c.get(i, field.zero), field.mul(factor, v))
        if s:
            c[i] = s
        elif i in c:
            del c[i]


class ColumnEchelon:
    """Column echelon reduction of a Matrix, with the transformation.

    Columns are reduced so that the set of lowest nonzero row indices
    ("lows") of the surviving columns is distinct.  For each original
    column j, `reduced[j]` is the reduced column and `combo[j]` expresses
    it as a combination of the original columns (m @ combo[j] == reduced[j]).
    """

    __slots__ = ("matrix", "reduced", "combo", "pivots")

    def __init__(self, m: Matrix):
        f = m.field
        pivots: dict = {}   # low row -> column position
        reduced = []
        combo = []
        for j, col in enumerate(m.cols):
            c = dict(col)
            t = {j: f.one}
            while c:
                low = max(c)
                k = pivots.get(low)
                if k is None:
                    break
                factor = f.div(c[low], reduced[k][low])
                _col_axpy(f, c, reduced[k], factor)
                _col_axpy(f, t, combo[k], factor)
            if c:
                pivots[max(c)] = j
            reduced.append(c)
            combo.append(t)
        self.matrix = m
        self.reduced = reduced
        self.combo = combo
        self.pivots = pivots

    @property
    def rank(self):
        return len(self.pivots)

    def kernel_basis(self):
        return [self.combo[j] for j, c in enumerate(self.reduced) if not c]

    def image_basis(self):
        return [c for c in self.reduced if c]

    def reduce_vector(self, coldict):
        """Reduce a vector against the echelon columns.

        Returns (residual, coeffs) with  vector == residual + m @ x  where
        x = sum(coeffs[k] * combo[k]).
        """
        f = self.matrix.field
        c = dict(coldict)
        coeffs: dict = {}
        while c:
            low = max(c)
            k = self.pivots.get(low)
            if k is None:
                break
            factor = f.div(c[low], self.reduced[k][low])
            _col_axpy(f, c, self.reduced[k], factor)
            coeffs[k] = f.add(coeffs.get(k, f.zero), factor)
        return c, coeffs

    def solve(self, coldict):
        """Some x with m @ x == coldict, or None if there is none."""
        f = self.matrix.field
        residual, coeffs = self.reduce_vector(coldict)
        if residual:
            return None
        x: dict = {}
        for k, factor in coeffs.items():
            _col_axpy(f, x, self.combo[k], f.neg(factor))
        return x


def rank_kernel_image(m: Matrix):
    """(rank, kernel basis as a ncols x k matrix, image basis as nrows x r)."""
    ech = ColumnEchelon(m)
    kernel = Matrix.from_cols(m.field, m.ncols, ech.kernel_basis())
    image = Matrix.from_cols(m.field, m.nrows, ech.image_basis())
    assert ech.rank + kernel.ncols == m.ncols
    return ech.rank, kernel, image


def rank(m: Matrix) -> int:
    return ColumnEchelon(m).rank


def solve_linear(m: Matrix, rhs: Matrix):
    """Some x with m @ x == rhs, or None if the system is inconsistent."""
    m._check(rhs)
    assert m.nrows == rhs.nrows
    ech = ColumnEchelon(m)
    xcols = []
    for col in rhs.cols:
        x = ech.solve(col)
        if x is None:
            return None
        xcols.append(x)
    return Matrix(m.field, m.ncols, rhs.ncols, xcols)


def kronecker_tensor(a: Matrix, b: Matrix) -> Matrix:
    """Tensor product of matrices: entry ((i,j),(k,l)) = a[i,k] * b[j,l]."""
    a._check(b)
    f = a.field
    cols = []
    for k in range(a.ncols):
        acol = a.cols[k]
        for l in range(b.ncols):
            bcol = b.cols[l]
            c = {}
            for i, av in acol.items():
                base = i * b.nrows
                for j, bv in bcol.items():
                    c[base + j] = f.mul(av, bv)
            cols.append(c)
    return Matrix(f, a.nrows * b.nrows, a.ncols * b.ncols, cols)
