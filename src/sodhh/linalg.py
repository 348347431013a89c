"""Exact linear algebra over Q and over prime fields.

Scalars over Q are Python ints whenever they are integral and
`fractions.Fraction` (in lowest terms, denominator > 1) otherwise; every
`FieldSpec` operation returns that canonical form, so integral inputs stay
in int arithmetic until a division forces a fraction.  Over F_p scalars are
canonical representatives in [0, p).  Matrices are sparse column
collections and are treated as immutable values: nothing writes into a
column of a matrix once built, so matrices may share columns, and every
all-zero column of a large action matrix can be the one read-only
`ZERO_COLUMN`, which raises TypeError on a write.

A single column-echelon reduction (`ColumnEchelon`) is the elimination
primitive: rank, kernel, image and linear solving are all derived from it.
It tracks the transformation to the original columns unless asked for the
rank only (`transform=False`, what `rank` uses).  `SubspaceReducer` keeps
an echelon of a growing subspace, one column per pivot row, and gives
canonical normal forms modulo it.  Every sparse update acc += s * v, in
both of them and elsewhere, is the one `axpy`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from types import MappingProxyType


ZERO_COLUMN = MappingProxyType({})   # the one shared, read-only empty column
_INTEGER = re.compile(r"[+-]?[0-9]+")


class FieldMismatch(ValueError):
    """Raised when operands live over different fields."""


class ShapeError(ValueError):
    """Matrix shapes that do not fit: a column count, a row length, the
    operands of a sum, product or solve, or rank + nullity != columns."""


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to these bases decides primality exactly below this bound
# (J. Sorenson and J. Webster, Math. Comp. 86 (2017)).
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  ValueError for an n >= PRIME_BOUND with
    no factor among the bases, where the test is no longer exact."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    if n >= PRIME_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: primality is "
                         f"decided exactly only below {PRIME_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def too_many_digits():
    """The error for an integer string longer than Python's limit on the
    digits of an integer read from text (sys.get_int_max_str_digits)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return ValueError(f"an integer has more than {limit} digits, the limit "
                      "on integers read from text")


def _not_a_scalar(x):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and isinstance(x, str) and any(
            len(run) > limit for run in re.findall(r"\d+", x)):
        return too_many_digits()
    return ValueError(f"expected an integer or a fraction like '-3/2', "
                      f"got {x!r}")


class FieldSpec:
    """An exact coefficient field: the rationals or F_p for a prime p.

    Over Q every operation returns the canonical scalar: an int when the
    value is integral, a Fraction only when its denominator is not 1.
    """

    __slots__ = ("kind", "characteristic")

    zero = 0
    one = 1

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
    # Over Q the result of +, - and * is an int when both operands are; a
    # Fraction result is demoted to its numerator when it became integral.

    def coerce(self, x):
        """Canonical scalar from an int, a Fraction or a string like '-3/2'.
        Anything else, a float or a bool say, raises ValueError: over F_7
        the float 0.1 would become 0 and drop a relation's term."""
        if self.kind == "rationals":
            if type(x) is int:
                return x
            if isinstance(x, str):
                try:
                    if _INTEGER.fullmatch(x):
                        return int(x)   # what Fraction(x) gives, without its parser
                    x = Fraction(x)
                except ValueError:
                    raise _not_a_scalar(x) from None
                except ZeroDivisionError:
                    raise ValueError(f"denominator is zero in {x!r}") from None
            elif isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise _not_a_scalar(x)
            return x.numerator if x.denominator == 1 else x
        p = self.characteristic
        if type(x) is int:
            return x % p
        if isinstance(x, str):
            num, slash, den = x.partition("/")
            try:
                num, den = int(num), int(den) if slash else 1
            except ValueError:
                raise _not_a_scalar(x) from None
        elif isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
        else:
            raise _not_a_scalar(x)
        if not den % p:
            raise ValueError(f"denominator {den} is zero mod {p}")
        return num * pow(den, -1, p) % p

    def add(self, a, b):
        s = a + b
        if self.kind == "rationals":
            return s if type(s) is int or s.denominator != 1 else s.numerator
        return s % self.characteristic

    def sub(self, a, b):
        s = a - b
        if self.kind == "rationals":
            return s if type(s) is int or s.denominator != 1 else s.numerator
        return s % self.characteristic

    def mul(self, a, b):
        s = a * b
        if self.kind == "rationals":
            return s if type(s) is int or s.denominator != 1 else s.numerator
        return s % self.characteristic

    def neg(self, a):
        return -a if self.kind == "rationals" else (-a) % self.characteristic

    def inv(self, a):
        if self.kind == "rationals":
            return self.div(1, a)
        return pow(a, -1, self.characteristic)

    def div(self, a, b):
        if self.kind == "rationals":
            if type(a) is int and type(b) is int:
                q, r = divmod(a, b)
                return q if not r else Fraction(a, b)
            s = a / b
            return s if s.denominator != 1 else s.numerator
        return self.mul(a, self.inv(b))


QQ = FieldSpec("rationals")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime-field", p)


class Matrix:
    """Sparse exact matrix; columns are dicts {row index: nonzero scalar}."""

    __slots__ = ("field", "nrows", "ncols", "cols")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, cols):
        if len(cols) != ncols:
            raise ShapeError(f"{len(cols)} columns given for {ncols}")
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
            if len(row) != ncols:
                raise ShapeError(f"row {i} has {len(row)} entries, not {ncols}")
            for j, x in enumerate(row):
                try:
                    v = field.coerce(x)
                except ValueError as exc:
                    raise ValueError(f"row {i}, column {j}: {exc}") from None
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
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError(f"sum of a {self.nrows}x{self.ncols} and a "
                             f"{other.nrows}x{other.ncols} matrix")
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
        if self.ncols != other.nrows:
            raise ShapeError(f"product of a {self.nrows}x{self.ncols} and a "
                             f"{other.nrows}x{other.ncols} matrix")
        return Matrix(self.field, self.nrows, other.ncols,
                      [self.apply(bc) for bc in other.cols])

    def apply(self, coldict):
        """Image of a sparse vector {index: scalar} under this matrix."""
        acc: dict = {}
        for k, x in coldict.items():
            axpy(self.field, acc, self.cols[k], x)
        return acc


def axpy(field, acc, vec, scale):
    """acc += scale * vec, in place on the sparse vector acc."""
    for i, v in vec.items():
        s = field.add(acc.get(i, field.zero), field.mul(scale, v))
        if s:
            acc[i] = s
        elif i in acc:
            del acc[i]


class ColumnEchelon:
    """Column echelon reduction of a Matrix, with the transformation.

    Columns are reduced so that the set of lowest nonzero row indices
    ("lows") of the surviving columns is distinct.  For each original
    column j, `reduced[j]` is the reduced column and `combo[j]` expresses
    it as a combination of the original columns (m @ combo[j] == reduced[j]).

    With `transform=False` the combos are not built (`combo` is None):
    `rank`, `image_basis` and `reduce_vector` work as usual, while
    `kernel_basis` and `solve`, which need the combos, raise RuntimeError.
    """

    __slots__ = ("matrix", "reduced", "combo", "pivots")

    def __init__(self, m: Matrix, transform: bool = True):
        f = m.field
        pivots: dict = {}   # low row -> column position
        reduced = []
        combo = [] if transform else None
        for j, col in enumerate(m.cols):
            c = dict(col)
            t = {j: f.one} if transform else None
            while c:
                low = max(c)
                k = pivots.get(low)
                if k is None:
                    pivots[low] = j
                    break
                factor = f.neg(f.div(c[low], reduced[k][low]))
                axpy(f, c, reduced[k], factor)
                if transform:
                    axpy(f, t, combo[k], factor)
            reduced.append(c)
            if transform:
                combo.append(t)
        self.matrix = m
        self.reduced = reduced
        self.combo = combo
        self.pivots = pivots

    @property
    def rank(self):
        return len(self.pivots)

    def _combos(self):
        if self.combo is None:
            raise RuntimeError("rank-only echelon: the transformation that "
                               "kernel_basis and solve need was not tracked")
        return self.combo

    def free_columns(self):
        """The columns in the span of the columns before them, in order."""
        return [j for j, c in enumerate(self.reduced) if not c]

    def kernel_basis(self):
        """The kernel vector of each free column p, in order: e_p plus
        pivot columns below p only.  It is the one vector of that shape, so
        it depends on the linear relations among the columns alone, not on
        the rows, and a combination of the basis has its coefficient on the
        vector of p as its entry at p."""
        combo = self._combos()
        return [combo[j] for j in self.free_columns()]

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
            axpy(f, c, self.reduced[k], f.neg(factor))
            coeffs[k] = f.add(coeffs.get(k, f.zero), factor)
        return c, coeffs

    def solve(self, coldict):
        """Some x with m @ x == coldict, or None if there is none."""
        f = self.matrix.field
        combo = self._combos()
        residual, coeffs = self.reduce_vector(coldict)
        if residual:
            return None
        x: dict = {}
        for k, factor in coeffs.items():
            axpy(f, x, combo[k], factor)
        return x


class SubspaceReducer:
    """Column echelon of a growing subspace of k^dim, one column per pivot
    row: its largest nonzero row, where it has entry 1.  It is not fully
    reduced (a column may be nonzero at the pivot rows of later columns),
    yet normal forms are canonical: `normal_form` always clears the largest
    pivot row present, which changes only smaller rows, so its residual is
    the one representative of the class supported away from all pivots.
    """

    __slots__ = ("field", "dim", "cols")

    def __init__(self, field, dim, vectors=()):
        self.field = field
        self.dim = dim
        self.cols = {}  # pivot row -> column dict, pivot entry 1
        for v in vectors:
            self.add(v)

    def normal_form(self, vec):
        f = self.field
        c = dict(vec)
        while True:
            hit = None
            for i in c:
                if i in self.cols:
                    hit = i if hit is None else max(hit, i)
            if hit is None:
                return c
            axpy(f, c, self.cols[hit], f.neg(c[hit]))

    def add(self, vec) -> bool:
        """Insert vec's class; returns True if the subspace grew."""
        f = self.field
        c = self.normal_form(vec)
        if not c:
            return False
        low = max(c)
        inv = f.inv(c[low])
        self.cols[low] = {i: f.mul(v, inv) for i, v in c.items()}
        return True

    def contains(self, vec) -> bool:
        return not self.normal_form(vec)

    @property
    def rank(self):
        return len(self.cols)


def rank_kernel_image(m: Matrix):
    """(rank, kernel basis as a ncols x k matrix, image basis as nrows x r)."""
    ech = ColumnEchelon(m)
    kernel = Matrix.from_cols(m.field, m.ncols, ech.kernel_basis())
    image = Matrix.from_cols(m.field, m.nrows, ech.image_basis())
    if ech.rank + kernel.ncols != m.ncols:
        raise ShapeError(f"rank {ech.rank} + nullity {kernel.ncols} != "
                         f"{m.ncols} columns")
    return ech.rank, kernel, image


def rank(m: Matrix) -> int:
    return ColumnEchelon(m, transform=False).rank


def solve_linear(m: Matrix, rhs: Matrix):
    """Some x with m @ x == rhs, or None if the system is inconsistent."""
    m._check(rhs)
    if m.nrows != rhs.nrows:
        raise ShapeError(f"solve with {m.nrows} rows against a right-hand "
                         f"side with {rhs.nrows}")
    ech = ColumnEchelon(m)
    xcols = []
    for col in rhs.cols:
        x = ech.solve(col)
        if x is None:
            return None
        xcols.append(x)
    return Matrix(m.field, m.ncols, rhs.ncols, xcols)
