from fractions import Fraction
from random import Random

import pytest

from sodhh.linalg import (ColumnEchelon, FieldMismatch, GF, Matrix, QQ,
                          kronecker_tensor, rank, rank_kernel_image,
                          solve_linear)


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


def test_kron_identity():
    m = kronecker_tensor(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3))
    assert m == Matrix.identity(QQ, 6)


def test_kron_zero():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    z = Matrix.zeros(QQ, 2, 2)
    assert kronecker_tensor(a, z).is_zero()


def test_kron_rank_multiplicative():
    rng = Random(13)
    for _ in range(10):
        a, _ = random_matrix(rng, QQ, 3, 3)
        b, _ = random_matrix(rng, QQ, 3, 3)
        assert rank(kronecker_tensor(a, b)) == rank(a) * rank(b)


def test_kron_entry_layout():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[5, 6], [7, 8]])
    k = kronecker_tensor(a, b)
    for i in range(2):
        for j in range(2):
            for s in range(2):
                for t in range(2):
                    assert k.entry(i * 2 + s, j * 2 + t) == \
                        a.entry(i, j) * b.entry(s, t)


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
    with pytest.raises(FieldMismatch):
        kronecker_tensor(a, b)


def test_scalar_canonical_forms():
    assert QQ.coerce("6/4") == Fraction(3, 2)
    f = GF(7)
    assert f.coerce("-1") == 6
    assert f.coerce("3/2") == (3 * pow(2, -1, 7)) % 7
    with pytest.raises(ValueError):
        GF(6)
