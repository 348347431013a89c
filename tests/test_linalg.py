from fractions import Fraction
from random import Random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodhh.linalg import (PRIME_BOUND, ZERO_COLUMN, ColumnEchelon,
                          FieldMismatch, GF, Matrix, QQ, SubspaceReducer,
                          _is_prime, rank, rank_kernel_image, solve_linear)


def naive_row_reduction_rank(rows, field):
    """Independent dense Gaussian elimination oracle."""
    rows = [[field.coerce(x) for x in r] for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != field.zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(x, inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y))
                           for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def random_matrix(rng, field, nrows, ncols, density=0.6, span=5):
    rows = [[(rng.randint(-span, span) if rng.random() < density else 0)
             for _ in range(ncols)] for _ in range(nrows)]
    return Matrix.from_rows(field, rows), rows


def test_rank_identity():
    m = Matrix.identity(QQ, 3)
    r, kernel, image = rank_kernel_image(m)
    assert r == 3 and kernel.ncols == 0 and image.ncols == 3


def test_rank_proportional_rows():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    r, kernel, image = rank_kernel_image(m)
    assert r == 1 and kernel.ncols == 1
    # kernel spanned by (2, -1)
    col = kernel.cols[0]
    assert col[0] * Fraction(-1) == col[1] * Fraction(2)
    assert m.mul(kernel).is_zero()


def test_rank_oracle_f5():
    rng = Random(5)
    f5 = GF(5)
    for _ in range(20):
        m, rows = random_matrix(rng, f5, 6, 4)
        assert rank(m) == naive_row_reduction_rank(rows, f5)


def test_rank_oracle_qq():
    rng = Random(7)
    for _ in range(20):
        m, rows = random_matrix(rng, QQ, 5, 7)
        assert rank(m) == naive_row_reduction_rank(rows, QQ)


def test_rank_nullity():
    rng = Random(11)
    for field in (QQ, GF(5), GF(32003)):
        for _ in range(15):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            m, _ = random_matrix(rng, field, nrows, ncols)
            r, kernel, image = rank_kernel_image(m)
            assert r + kernel.ncols == ncols
            assert image.ncols == r
            assert m.mul(kernel).is_zero()


def test_solve_identity():
    b = Matrix.from_rows(QQ, [[1], [2], [3]])
    x = solve_linear(Matrix.identity(QQ, 3), b)
    assert x == b


def test_solve_inconsistent():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    rhs = Matrix.from_rows(QQ, [[1], [0]])
    assert solve_linear(m, rhs) is None


def test_solve_random_consistent():
    rng = Random(17)
    for field in (QQ, GF(7)):
        for _ in range(15):
            m, _ = random_matrix(rng, field, 5, 4)
            x0, _ = random_matrix(rng, field, 4, 1)
            rhs = m.mul(x0)
            x = solve_linear(m, rhs)
            assert x is not None
            assert m.mul(x).sub(rhs).is_zero()


def test_column_echelon_solve():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4], [0, 1]])
    ech = ColumnEchelon(m)
    rhs = {0: QQ.coerce(3), 1: QQ.coerce(6), 2: QQ.coerce(1)}
    x = ech.solve(rhs)
    assert m.apply(x) == rhs
    assert ech.solve({0: QQ.one}) is None
    assert ech.solve({}) == {}


def test_field_mismatch():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(GF(5), 2)
    with pytest.raises(FieldMismatch):
        a.mul(b)


def test_scalar_canonical_forms():
    assert QQ.coerce("6/4") == Fraction(3, 2)
    # over Q a scalar is a Fraction exactly when its denominator is not 1
    for x in (QQ.coerce("4/2"), QQ.coerce(Fraction(6, 3)),
              QQ.add(Fraction(1, 2), Fraction(1, 2)),
              QQ.sub(Fraction(5, 3), Fraction(2, 3)),
              QQ.mul(Fraction(2, 3), 3), QQ.div(6, -3),
              QQ.div(Fraction(3, 2), Fraction(1, 2)),
              QQ.inv(Fraction(-1, 3)), QQ.inv(-1), QQ.neg(4), QQ.one, QQ.zero):
        assert type(x) is int
    assert QQ.div(3, 6) == Fraction(1, 2) and QQ.inv(-2) == Fraction(-1, 2)
    assert (QQ.div(2, 4), QQ.div(0, 3)) == (Fraction(1, 2), 0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    f = GF(7)
    assert f.coerce("-1") == 6
    assert f.coerce("3/2") == (3 * pow(2, -1, 7)) % 7
    with pytest.raises(ValueError):
        GF(6)


def test_coerce_refuses_inexact_and_boolean_scalars():
    """A float or a bool is not a scalar: truncating 0.1 to 0 over F_7 would
    drop a relation's term.  A zero denominator mod p, or one over Q, is
    named as such; ints, Fractions and strings keep their values."""
    f = GF(7)
    for field in (QQ, f):
        for x in (0.1, 1.5, 1.0, True, False, None, [1], "x", "1.5/2"):
            with pytest.raises(ValueError, match="expected an integer or a "
                               "fraction like '-3/2', got"):
                field.coerce(x)
    with pytest.raises(ValueError, match="denominator 7 is zero mod 7"):
        f.coerce("1/7")
    with pytest.raises(ValueError, match="denominator 14 is zero mod 7"):
        f.coerce(Fraction(3, 14))
    with pytest.raises(ValueError, match="denominator is zero in '1/0'"):
        QQ.coerce("1/0")
    assert [f.coerce(x) for x in (-1, 10, "-8", "3/2", Fraction(3, 2))] == \
        [6, 3, 6, 5, 5]
    assert [QQ.coerce(x) for x in (-1, "-3/2", Fraction(4, 2), "1.5")] == \
        [-1, Fraction(-3, 2), 2, Fraction(3, 2)]


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if trial_division_is_prime(n)]


def test_is_prime_rejects_carmichael_numbers_and_decides_large_moduli():
    """Carmichael numbers fool the Fermat test to every coprime base;
    3215031751 is also a strong pseudoprime to the bases 2, 3, 5 and 7.
    2^61 - 1 is a Mersenne prime and is decided at once.  Past the bound
    where the thirteen bases are exact, an n without a small factor is
    refused rather than guessed."""
    from time import perf_counter
    assert not _is_prime(561) and not _is_prime(3215031751)
    start = perf_counter()
    assert _is_prime(2 ** 61 - 1) and _is_prime(10 ** 18 + 9)
    assert not _is_prime(1000000007 * 998244353)
    assert perf_counter() - start < 1
    assert GF(2 ** 61 - 1).characteristic == 2 ** 61 - 1
    assert not _is_prime(2 * PRIME_BOUND)
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        _is_prime(PRIME_BOUND)
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        GF(2 ** 89 - 1)


def test_integer_strings_coerce_as_fraction_parses_them():
    """Over Q a string of ASCII digits with an optional sign becomes an int
    without Fraction's parser; every string keeps the value, the type and
    the accept/reject of Fraction(x), canonicalized as coerce did for all
    strings before (an over-long integer too)."""
    def reference(x):
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    for x in ("1", "-1", "+3", "007", "-4/2", "3/2", "1.5", " 2 ", "1_0",
              "", "x", "--1", "+", "١٢", "9" * 5000):
        try:
            expected = reference(x)
        except ValueError as exc:
            with pytest.raises(type(exc)):
                QQ.coerce(x)
            continue
        got = QQ.coerce(x)
        assert (got, type(got)) == (expected, type(expected)), x


def test_over_long_integer_strings_name_the_digit_limit():
    """A numerator or denominator of more than 4300 digits is refused over
    both fields with the digit limit named, not as a malformed scalar."""
    long = "9" * 5000
    for field in (QQ, GF(7)):
        for x in (long, f"-{long}", f"1/{long}", f"{long}/2"):
            with pytest.raises(ValueError) as exc:
                field.coerce(x)
            assert str(exc.value) == ("an integer has more than 4300 digits, "
                                      "the limit on integers read from text")
    with pytest.raises(ValueError, match="expected an integer or a fraction"):
        GF(7).coerce("9" * 4300 + "x")


# ---------------------------------------------------------------------------
# Oracle for elimination over Q: the all-Fraction column reduction that
# linalg used before its scalars became integer-first.  It performs the same
# eliminations in the same order, so its reduced columns, combos and
# solutions must equal linalg's value for value.


def _fraction_axpy(c, pc, factor):
    """c -= factor * pc, in place on dict c."""
    for i, v in pc.items():
        s = c.get(i, Fraction(0)) - factor * v
        if s:
            c[i] = s
        elif i in c:
            del c[i]


def fraction_echelon(cols):
    """(pivots, reduced, combo) of the all-Fraction column reduction of
    sparse columns {row: Fraction}."""
    pivots, reduced, combo = {}, [], []
    for j, col in enumerate(cols):
        c = dict(col)
        t = {j: Fraction(1)}
        while c:
            low = max(c)
            k = pivots.get(low)
            if k is None:
                break
            factor = c[low] / reduced[k][low]
            _fraction_axpy(c, reduced[k], factor)
            _fraction_axpy(t, combo[k], factor)
        if c:
            pivots[max(c)] = j
        reduced.append(c)
        combo.append(t)
    return pivots, reduced, combo


def fraction_solve(pivots, reduced, combo, vec):
    c = {i: Fraction(v) for i, v in vec.items()}
    coeffs = {}
    while c:
        low = max(c)
        k = pivots.get(low)
        if k is None:
            return None
        factor = c[low] / reduced[k][low]
        _fraction_axpy(c, reduced[k], factor)
        coeffs[k] = coeffs.get(k, Fraction(0)) + factor
    x = {}
    for k, factor in coeffs.items():
        _fraction_axpy(x, combo[k], -factor)
    return x


def assert_canonical(vectors):
    """Q scalars are ints, or Fractions whose denominator is not 1."""
    for vec in vectors:
        for v in vec.values():
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v


# Mostly small ints and zeros; rationals such as -3/2 give pivots other
# than +-1, which forces the Fraction path.  "6/3" and Fraction(-4, 2) are
# integers written as fractions.
Q_ENTRY = st.one_of(st.just(0), st.integers(-3, 3),
                    st.sampled_from([Fraction(-3, 2), Fraction(1, 3),
                                     Fraction(5, 4), "-2/7", "6/3",
                                     Fraction(-4, 2)]))


@st.composite
def q_systems(draw):
    """(matrix rows, consistent-or-not right-hand side, x0) over Q."""
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12))
    rows = [draw(st.lists(Q_ENTRY, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    x0 = draw(st.lists(Q_ENTRY, min_size=ncols, max_size=ncols))
    other = draw(st.lists(Q_ENTRY, min_size=nrows, max_size=nrows))
    return rows, x0, other


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(q_systems())
def test_q_elimination_matches_fraction_oracle(system):
    rows, x0, other = system
    ncols = len(x0)
    m = Matrix.from_rows(QQ, rows, ncols)
    ref_cols = [{i: Fraction(r[j]) for i, r in enumerate(rows) if Fraction(r[j])}
                for j in range(ncols)]
    assert m.cols == ref_cols
    pivots, ref_reduced, ref_combo = fraction_echelon(ref_cols)

    ech = ColumnEchelon(m)
    assert ech.pivots == pivots
    assert ech.reduced == ref_reduced and ech.combo == ref_combo
    assert_canonical(ech.reduced + ech.combo)
    assert rank(m) == len(pivots)

    r, kernel, image = rank_kernel_image(m)
    assert r == len(pivots) and image.ncols == r
    assert kernel.ncols == ncols - r
    assert m.mul(kernel).is_zero()
    assert_canonical(kernel.cols + image.cols)

    rhs = Matrix.from_cols(QQ, len(rows), [
        m.apply({j: QQ.coerce(v) for j, v in enumerate(x0) if v}),
        {i: QQ.coerce(v) for i, v in enumerate(other) if v}])
    for col in rhs.cols:
        x = ech.solve(col)
        expected = fraction_solve(pivots, ref_reduced, ref_combo, col)
        assert x == expected
        if x is not None:
            assert m.apply(x) == col
            assert_canonical([x])
    sol = solve_linear(m, rhs)
    if sol is not None:
        assert m.mul(sol) == rhs
        assert_canonical(sol.cols)
    assert (sol is None) == any(
        fraction_solve(pivots, ref_reduced, ref_combo, c) is None
        for c in rhs.cols)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(32003)],
                         ids=["q", "f5", "f32003"])
def test_kernel_basis_is_free_column_plus_pivots_below(field):
    """On seeded random matrices, the kernel vector of free column p is e_p
    plus earlier pivot columns only; the free columns are those that depend
    on the columns before them; and the basis depends on the linear
    relations among the columns alone: reordering the rows and embedding
    them injectively (appending sums of rows) leaves it unchanged.  So a
    combination of the basis has as its coefficient on the vector of p its
    own entry at p."""
    rng = Random(28)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 8)
        m, rows = random_matrix(rng, field, nrows, ncols, density=0.5, span=2)
        ech = ColumnEchelon(m)
        free, kernel = ech.free_columns(), ech.kernel_basis()
        assert len(free) == len(kernel) == ncols - ech.rank
        assert free == [
            j for j in range(ncols)
            if naive_row_reduction_rank([r[:j + 1] for r in rows], field)
            == naive_row_reduction_rank([r[:j] for r in rows], field)]
        for p, vec in zip(free, kernel):
            assert vec[p] == field.one and m.apply(vec) == {}
            assert all(q == p or (q < p and q not in free) for q in vec)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        sums = [[a + b for a, b in zip(rng.choice(rows), rng.choice(rows))]
                for _ in range(3)]
        embedded = ColumnEchelon(Matrix.from_rows(field, shuffled + sums,
                                                  ncols))
        assert (embedded.free_columns(), embedded.kernel_basis()) == \
            (free, kernel)
        coeffs = [field.coerce(rng.randint(-3, 3)) for _ in kernel]
        combo = {}
        for c, vec in zip(coeffs, kernel):
            for q, x in vec.items():
                combo[q] = field.add(combo.get(q, field.zero), field.mul(c, x))
        assert [combo.get(p, field.zero) for p in free] == coeffs


def test_rank_only_echelon_refuses_kernel_and_solve():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4], [0, "-3/2"]])
    ech = ColumnEchelon(m, transform=False)
    assert ech.rank == rank(m) == 2 and ech.combo is None
    assert ech.image_basis() == ColumnEchelon(m).image_basis()
    with pytest.raises(RuntimeError):
        ech.kernel_basis()
    with pytest.raises(RuntimeError):
        ech.solve({0: QQ.one})


# ---------------------------------------------------------------------------
# Oracle for SubspaceReducer: a fully reduced echelon, in which every stored
# column is zero at the pivot rows of all the others.  SubspaceReducer keeps
# an echelon that is not fully reduced, so its columns may differ, but the
# subspace, the pivot rows and the normal forms must not.


class FullyReducedSubspace:
    def __init__(self, field):
        self.field = field
        self.cols = {}   # pivot row -> column, 1 at the pivot, 0 at other pivots

    def normal_form(self, vec):
        f = self.field
        c = dict(vec)
        for low in sorted(self.cols, reverse=True):
            if low in c:
                _field_axpy(f, c, self.cols[low], c[low])
        return c

    def add(self, vec):
        f = self.field
        c = self.normal_form(vec)
        if not c:
            return False
        low = max(c)
        inv = f.inv(c[low])
        c = {i: f.mul(v, inv) for i, v in c.items()}
        for other in self.cols.values():
            if low in other:
                _field_axpy(f, other, c, other[low])
        self.cols[low] = c
        return True


def _field_axpy(f, c, pc, factor):
    """c -= factor * pc over the field f, in place."""
    for i, v in pc.items():
        s = f.sub(c.get(i, f.zero), f.mul(factor, v))
        if s:
            c[i] = s
        elif i in c:
            del c[i]


@st.composite
def subspace_inputs(draw):
    """(field, vectors to add, vectors to reduce) with entries from Q_ENTRY,
    coerced into Q or a prime field."""
    field = draw(st.sampled_from([QQ, GF(5), GF(32003)]))
    dim = draw(st.integers(1, 10))
    vector = st.lists(Q_ENTRY, min_size=dim, max_size=dim).map(
        lambda xs: {i: v for i, v in enumerate(map(field.coerce, xs)) if v})
    return (field, draw(st.lists(vector, max_size=12)),
            draw(st.lists(vector, max_size=6)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(subspace_inputs())
def test_subspace_reducer_matches_fully_reduced_oracle(inputs):
    field, vectors, probes = inputs
    red = SubspaceReducer(field, 10)
    ref = FullyReducedSubspace(field)
    for vec in vectors:
        assert red.add(vec) == ref.add(vec)
    assert set(red.cols) == set(ref.cols)
    assert red.rank == len(ref.cols)
    for col in red.cols.values():
        assert col[max(col)] == field.one
    for vec in vectors + probes:
        nf = red.normal_form(vec)
        assert nf == ref.normal_form(vec)
        assert not set(nf) & set(red.cols)
        assert red.contains(vec) == (not nf)


# ---------------------------------------------------------------------------
# Shape checks raise ShapeError, also under python -O

# Each call breaks one shape rule.  No input reaches the rank-nullity
# check, so the last case patches the kernel basis away.
SHAPE_BREAKS = """
import sodhh.linalg
from sodhh.linalg import QQ, Matrix, ShapeError, rank_kernel_image, solve_linear
I2, I3 = Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)


def no_kernel():
    sodhh.linalg.ColumnEchelon.kernel_basis = lambda self: []
    return rank_kernel_image(Matrix.zeros(QQ, 2, 2))


for call in (lambda: Matrix(QQ, 2, 3, [{}, {}]),
             lambda: Matrix.from_rows(QQ, [[1, 2], [3]], 2),
             lambda: I2.add(I3), lambda: I2.mul(I3),
             lambda: solve_linear(I2, I3), no_kernel):
    try:
        call()
        print("accepted")
    except ShapeError as exc:
        print("ShapeError:", exc)
"""

SHAPES_RAISED = [
    "ShapeError: 2 columns given for 3",
    "ShapeError: row 1 has 1 entries, not 2",
    "ShapeError: sum of a 2x2 and a 3x3 matrix",
    "ShapeError: product of a 2x2 and a 3x3 matrix",
    "ShapeError: solve with 2 rows against a right-hand side with 3",
    "ShapeError: rank 0 + nullity 0 != 2 columns"]


def test_shape_errors_raise(monkeypatch, capsys):
    # the script replaces ColumnEchelon.kernel_basis; undo that afterwards
    monkeypatch.setattr(ColumnEchelon, "kernel_basis",
                        ColumnEchelon.kernel_basis)
    exec(SHAPE_BREAKS, {})
    assert capsys.readouterr().out.splitlines() == SHAPES_RAISED


def test_shape_errors_raise_under_optimized_python(run_optimized):
    assert run_optimized(SHAPE_BREAKS) == SHAPES_RAISED


# ---------------------------------------------------------------------------
# Matrix columns are immutable values: read-only columns give the same
# results, and the shared zero column refuses writes


def read_only(m):
    """m with every column a MappingProxyType: ZERO_COLUMN where the column
    is zero, a read-only view of a copy elsewhere."""
    return Matrix(m.field, m.nrows, m.ncols,
                  [MappingProxyType(dict(c)) if c else ZERO_COLUMN
                   for c in m.cols])


def test_zero_column_is_read_only():
    with pytest.raises(TypeError):
        ZERO_COLUMN[0] = 1
    with pytest.raises(AttributeError):
        ZERO_COLUMN.setdefault(0, 1)
    assert not ZERO_COLUMN and ZERO_COLUMN == {}


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_read_only_columns_give_the_same_results(field):
    """Every linalg operation reads its operands' columns and writes only
    into columns it allocated itself, so matrices whose every column is
    read-only give the results of plain dict columns."""
    rng = Random(11)
    for _ in range(40):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        a, _ = random_matrix(rng, field, n, k, density=0.4)
        b, _ = random_matrix(rng, field, n, k, density=0.4)
        c, _ = random_matrix(rng, field, k, rng.randint(1, 6), density=0.4)
        ra, rb, rc = read_only(a), read_only(b), read_only(c)
        vec = {j: field.coerce(rng.randint(1, 4)) for j in range(k)
               if rng.random() < 0.5}
        assert ra.add(rb) == a.add(b)
        assert ra.sub(rb) == a.sub(b)
        assert ra.mul(rc) == a.mul(c)
        assert ra.scale(3) == a.scale(3) and ra.scale(0) == a.scale(0)
        assert ra.apply(MappingProxyType(vec)) == a.apply(vec)
        assert ra == a and ra.is_zero() == a.is_zero()
        ours, plain = ColumnEchelon(ra), ColumnEchelon(a)
        assert (ours.reduced, ours.combo, ours.pivots) == \
            (plain.reduced, plain.combo, plain.pivots)
        rhs = a.cols[0]
        assert ours.solve(MappingProxyType(rhs)) == plain.solve(rhs)
        assert ours.reduce_vector(ra.cols[-1]) == plain.reduce_vector(a.cols[-1])
        assert rank(ra) == rank(a)
        assert rank_kernel_image(ra) == rank_kernel_image(a)
        assert solve_linear(ra, rb) == solve_linear(a, b)
        assert solve_linear(ra, read_only(a)) == solve_linear(a, a)
        ours = SubspaceReducer(field, n, ra.cols)
        plain = SubspaceReducer(field, n, a.cols)
        assert ours.cols == plain.cols
        for col in b.cols:
            assert ours.normal_form(MappingProxyType(col)) == \
                plain.normal_form(col)
        # nothing was written into the operands
        assert ra == read_only(a) and all(
            isinstance(col, MappingProxyType) for col in ra.cols)
