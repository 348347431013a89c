"""Finite-dimensional module representations.

A ModuleRep is a *left* module over its acting algebra, read one column
at a time: `column(k, m)` is b_k applied to basis vector m.  Its action
is given either as one action matrix per basis element (files,
`bimodule_from_actions`) or as a column function that computes a column
from the algebra's structure when it is read (the regular, dual, simple
and twisted modules), which stores no action matrix.  `action[k]` is
built from the columns when first indexed, for whole-matrix readers only.
Right modules are left modules over the opposite algebra.  A
(B,C)-bimodule is a Bimodule, a left module over B (x) C^op given by a
pair of commuting actions: `left_col` for b_i (x) 1 and `right_col` for
1 (x) c_j, the column of b_i (x) c_j being `left_col` applied to the
entries of a column of `right_col`.  Module bases are vertex-graded:
basis vector m is fixed by the idempotent of `grading[m]` and killed by
the others, which keeps every Hom computation block-sparse.
"""

from __future__ import annotations

from .algebra import (Algebra, PathAlgebra, TensorOpposite,
                      algebra_from_structure, tensor_opposite)
from .complexes import SideMismatch
from .linalg import ZERO_COLUMN, ColumnEchelon, Matrix, axpy, rank_kernel_image


class ModuleAxiomError(ValueError):
    """Action matrices that do not form a module or a bimodule."""


def _check_action(alg: Algebra, mats, dim, opposite, what):
    """Raise unless mats is a unital left module over alg (over alg^op if
    `opposite`, i.e. a right alg-module)."""
    f = alg.field
    unit = Matrix.zeros(f, dim, dim)
    for e in alg.idempotents:
        unit = unit.add(mats[e])
    if unit != Matrix.identity(f, dim):
        raise ModuleAxiomError(f"{what}: unit does not act as the identity")
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = mats[i].mul(mats[j])
            rhs = Matrix.zeros(f, dim, dim)
            for k, c in (alg.product(j, i) if opposite else alg.product(i, j)).items():
                rhs = rhs.add(mats[k].scale(c))
            if lhs != rhs:
                raise ModuleAxiomError(f"{what}: action not multiplicative on "
                                       f"{alg.labels[i]}, {alg.labels[j]}")


def _check_fixed(mat, m, what):
    if mat.cols[m] != {m: mat.field.one}:
        raise ModuleAxiomError(f"{what}: basis is not graded as declared")


class _Actions:
    """The action matrices of a column function col(i, m) as a read-only
    sequence: matrix i, whose column m is col(i, m), is built when first
    indexed and then cached.  The one whole-matrix view of an action."""

    __slots__ = ("field", "length", "dim", "col", "cache")

    def __init__(self, field, length, dim, col):
        self.field = field
        self.length = length
        self.dim = dim
        self.col = col
        self.cache = {}

    def __len__(self):
        return self.length

    def __getitem__(self, i):
        mat = self.cache.get(i)
        if mat is None:
            if not 0 <= i < self.length:
                raise IndexError(i)
            col = self.col
            mat = self.cache[i] = Matrix(self.field, self.dim, self.dim,
                                         [col(i, m) for m in range(self.dim)])
        return mat

    def __iter__(self):
        return map(self.__getitem__, range(self.length))


def _columns(alg: Algebra, dim, action):
    """(column function, matrices) of an action of alg given either as one
    Matrix per basis element or as its column function col(i, m)."""
    if callable(action):
        return action, _Actions(alg.field, alg.dim, dim, action)
    mats = list(action)
    if len(mats) != alg.dim:
        raise ModuleAxiomError("action or grading has the wrong length")
    return (lambda i, m: mats[i].cols[m]), mats


class ModuleRep:
    """A left module given by its action, as matrices or as a column
    function (see the module docstring).  Used for one-sided modules;
    bimodules are Bimodule."""

    __slots__ = ("algebra", "dim", "action", "grading", "_column")

    def __init__(self, algebra: Algebra, dim: int, action, grading, check=True):
        self.algebra = algebra
        self.dim = dim
        self._column, self.action = _columns(algebra, dim, action)
        self.grading = tuple(grading)
        if len(self.grading) != dim:
            raise ModuleAxiomError("action or grading has the wrong length")
        if check:
            self.check_axioms()

    def check_axioms(self):
        alg = self.algebra
        _check_action(alg, self.action, self.dim, False, "module")
        for m in range(self.dim):
            _check_fixed(self.action[alg.idempotents[self.grading[m]]], m, "module")

    def column(self, k, m):
        """b_k applied to basis vector m, read only: it may be a column
        of the algebra's own table."""
        return self._column(k, m)

    def act(self, a, w):
        """a . w for an algebra element a and a vector w, both sparse."""
        f = self.algebra.field
        column = self._column
        out = {}
        for k, x in a.items():
            for m, y in w.items():
                axpy(f, out, column(k, m), f.mul(x, y))
        return out


def _pair_column(env: TensorOpposite, left_col, right_col):
    """The column function of b_i (x) c_j: L_i applied to column m of R_j,
    so that no product L_i R_j is formed."""
    f = env.field
    index_pair = env.index_pair

    def column(k, m):
        i, j = index_pair(k)
        out = {}
        for m2, c in right_col(j, m).items():
            axpy(f, out, left_col(i, m2), c)
        return out
    return column


class Bimodule(ModuleRep):
    """A (B,C)-bimodule over B (x) C^op: commuting actions `left` (b_i (x)
    1, a left B-action) and `right` (1 (x) c_j, a right C-action), each
    given as matrices or as a column function (`left_col`, `right_col`)."""

    __slots__ = ("left", "right", "left_col", "right_col")

    def __init__(self, env: TensorOpposite, dim: int, left, right, grading,
                 check=True):
        b, c = env.factors
        self.left_col, self.left = _columns(b, dim, left)
        self.right_col, self.right = _columns(c, dim, right)
        super().__init__(env, dim, _pair_column(env, self.left_col, self.right_col),
                         grading, check)

    def check_axioms(self):
        """Left and right module axioms, the grading, and L_i R_j = R_j L_i:
        dim_B^2 + dim_C^2 + dim_B dim_C matrix products."""
        env = self.algebra
        b, c = env.factors
        _check_action(b, self.left, self.dim, False, "left action")
        _check_action(c, self.right, self.dim, True, "right action")
        for m in range(self.dim):
            v, w = env.vertex_pair(self.grading[m])
            _check_fixed(self.left[b.idempotents[v]], m, "left action")
            _check_fixed(self.right[c.idempotents[w]], m, "right action")
        for i, lm in enumerate(self.left):
            for j, rm in enumerate(self.right):
                if lm.mul(rm) != rm.mul(lm):
                    raise ModuleAxiomError(
                        f"left and right actions do not commute on "
                        f"{b.labels[i]}, {c.labels[j]}")


def simple_module(A: Algebra, v: int) -> ModuleRep:
    """The simple module at v: e_v acts as 1, every other basis element as
    zero."""
    e, unit = A.idempotents[v], {0: A.field.one}
    return ModuleRep(A, 1, lambda k, m: unit if k == e else ZERO_COLUMN, (v,),
                     check=False)


def regular_bimodule(A: Algebra) -> Bimodule:
    """A as a bimodule over itself, the diagonal: column m of L_i is the
    product b_i b_m and of R_j the product b_m b_j, read from A's table."""
    env = A.enveloping()
    mult = A.mult
    grading = tuple(env.vertex(A.tgt[k], A.src[k]) for k in range(A.dim))
    return Bimodule(env, A.dim, lambda i, m: mult.get((i, m), ZERO_COLUMN),
                    lambda j, m: mult.get((m, j), ZERO_COLUMN), grading,
                    check=False)


def _dual_columns(A: Algebra, axis):
    """The action of A on DA as {(i, p): column}, the column of b_i at the
    basis vector p*: {k: coeff_p(b_k b_i)} for the left action (axis 1,
    (b_i.f)(x) = f(x b_i)) and {k: coeff_p(b_i b_k)} for the right one
    (axis 0, (f.b_i)(x) = f(b_i x)); built once over the nonzero products."""
    out = {}
    for pair, x in A.mult.items():
        i, k = pair[axis], pair[1 - axis]
        for p, c in x.items():
            out.setdefault((i, p), {})[k] = c
    return out


def dual_bimodule(A: Algebra) -> Bimodule:
    """DA = Hom_k(A, k) with (a.f.b)(x) = f(b x a); the Serre kernel."""
    env = A.enveloping()
    left, right = _dual_columns(A, 1), _dual_columns(A, 0)
    grading = tuple(env.vertex(A.src[k], A.tgt[k]) for k in range(A.dim))
    return Bimodule(env, A.dim, lambda i, p: left.get((i, p), ZERO_COLUMN),
                    lambda j, p: right.get((j, p), ZERO_COLUMN), grading,
                    check=False)


def bimodule_from_actions(A: Algebra, B: Algebra, left_mats, right_mats,
                          check=True) -> Bimodule:
    """(A,B)-bimodule from commuting left and right action matrices.

    The basis is regraded if necessary so that each vector is supported at
    a single vertex pair.
    """
    env = A.enveloping() if B is A else tensor_opposite(A, B)
    f = A.field
    dim = left_mats[0].nrows if left_mats else 0
    # graded basis: concatenate images of the commuting projections
    basis_cols = []
    grading = []
    for v, ev in enumerate(A.idempotents):
        for w, ew in enumerate(B.idempotents):
            _, _, img = rank_kernel_image(left_mats[ev].mul(right_mats[ew]))
            basis_cols.extend(img.cols)
            grading.extend([env.vertex(v, w)] * img.ncols)
    if len(basis_cols) != dim:
        raise ModuleAxiomError(
            "left/right idempotent actions do not split the basis")
    basechange = ColumnEchelon(Matrix(f, dim, dim, basis_cols))

    def rebase(m):
        cols = [basechange.solve(m.apply(col)) for col in basis_cols]
        if any(col is None for col in cols):
            raise ModuleAxiomError("an action does not preserve the graded basis")
        return Matrix(f, dim, dim, cols)

    return Bimodule(env, dim, [rebase(m) for m in left_mats],
                    [rebase(m) for m in right_mats], grading, check=check)


def free_gluing_bimodule(b: Algebra, c: Algebra, d: int) -> Bimodule:
    """k^d as a (b,c)-bimodule when b and c each have a single vertex
    acting through the idempotent (the catalog's gluing data)."""
    if b.num_vertices != 1 or c.num_vertices != 1:
        raise SideMismatch("free gluing needs single-vertex algebras, got "
                           f"{b.num_vertices} and {c.num_vertices} vertices")
    f = b.field
    left = []
    for i in range(b.dim):
        left.append(Matrix.identity(f, d) if i == b.idempotents[0]
                    else Matrix.zeros(f, d, d))
    right = []
    for j in range(c.dim):
        right.append(Matrix.identity(f, d) if j == c.idempotents[0]
                     else Matrix.zeros(f, d, d))
    return bimodule_from_actions(b, c, left, right, check=False)


def triangular_gluing(b: Algebra, c: Algebra, m: Bimodule,
                      arrow_name_prefix="g") -> PathAlgebra:
    """Upper-triangular extension with underlying space b (+) m (+) c and
    multiplication (b1,m1,c1)(b2,m2,c2) = (b1 b2, b1 m2 + m1 c2, c1 c2),
    re-presented as a quiver with relations.

    m is a (b,c)-bimodule; its elements become paths from c-vertices to
    b-vertices.  Arrow names of the re-presentation are generated.
    """
    if not isinstance(m, Bimodule) or m.algebra.factors[0] is not b \
            or m.algebra.factors[1] is not c:
        raise SideMismatch("m must be a bimodule over b (x) c^op")
    m.check_axioms()
    f = b.field
    nb, nm, nc = b.dim, m.dim, c.dim
    OB, OM, OC = 0, nb, nb + nm

    # disambiguated vertex names
    if set(b.vertex_names) & set(c.vertex_names):
        vnames = tuple(f"b:{v}" for v in b.vertex_names) + \
            tuple(f"c:{v}" for v in c.vertex_names)
    else:
        vnames = tuple(b.vertex_names) + tuple(c.vertex_names)
    labels = [f"b.{l}" for l in b.labels] + [f"m{k}" for k in range(nm)] + \
        [f"c.{l}" for l in c.labels]

    mult = {}
    for off, alg in ((OB, b), (OC, c)):
        for (i, j), x in alg.mult.items():
            mult[(off + i, off + j)] = {off + k: v for k, v in x.items()}
    for i in range(nb):
        for k, col in enumerate(m.left[i].cols):
            if col:
                mult[(OB + i, OM + k)] = {OM + k2: v for k2, v in col.items()}
    for j in range(nc):
        for k, col in enumerate(m.right[j].cols):
            if col:
                mult[(OM + k, OC + j)] = {OM + k2: v for k2, v in col.items()}
    idems = [OB + e for e in b.idempotents] + [OC + e for e in c.idempotents]
    return algebra_from_structure(f, vnames, labels, mult, idems,
                                  arrow_name_prefix=arrow_name_prefix)
