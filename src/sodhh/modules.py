"""Finite-dimensional module representations.

A ModuleRep is a *left* module over its acting algebra, given by its
column function and nothing else: `column(k, m)` is b_k applied to basis
vector m, computed from the algebra's structure (the regular, dual,
simple and twisted modules) or read from a given matrix (files,
`bimodule_from_actions`).  Right modules are left modules over the
opposite algebra.  A (B,C)-bimodule is a Bimodule, a left module over
B (x) C^op given by commuting actions `left_col` (b_i (x) 1) and
`right_col` (1 (x) c_j); b_i (x) c_j is `left_col` applied to a column of
`right_col`.  Bases are vertex-graded: basis vector m is fixed by the
idempotent of `grading[m]` and killed by the others, which keeps Hom
computations block-sparse and lets the axioms be checked on generators.
"""
from __future__ import annotations

from .algebra import (Algebra, PathAlgebra, TensorOpposite, _radical_generators,
                      algebra_from_structure, tensor_opposite)
from .linalg import ZERO_COLUMN, ColumnEchelon, Matrix, axpy, rank_kernel_image


class SideMismatch(ValueError):
    """Complexes or modules with incompatible module structures."""


class ModuleAxiomError(ValueError):
    """Actions that do not form a module or a bimodule."""


def _image(f, col, k, w):
    """b_k applied to the vector w, for the action column function col."""
    out = {}
    for m, c in w.items():
        axpy(f, out, col(k, m), c)
    return out


def _check_action(alg: Algebra, col, vertex, opposite, what):
    """Raise unless col(i, m) is a unital left module over alg (over alg^op
    if `opposite`, i.e. a right alg-module) with basis vector m at the
    vertex vertex[m].  Column by column: the unit; e_v fixes the vectors
    at v; b_y kills the vectors away from the vertex it enters (its
    source, its target if `opposite`) and sends the others to the vertex
    it leaves, so rho(e_v y) = rho(e_v) rho(y); and rho(g y) = rho(g)
    rho(y) for the radical generators g, on the columns that neither side
    kills.  The x with rho(x y) = rho(x) rho(y) for every y form a
    subalgebra, so this checks all of alg."""
    f = alg.field
    into, out = (alg.tgt, alg.src) if opposite else (alg.src, alg.tgt)
    labels, idems = alg.labels, alg.idempotents
    for m, v in enumerate(vertex):
        unit = {}
        for e in idems:
            axpy(f, unit, col(e, m), f.one)
        if unit != {m: f.one}:
            raise ModuleAxiomError(f"{what}: unit does not act as the identity")
        if col(idems[v], m) != {m: f.one}:
            raise ModuleAxiomError(f"{what}: basis is not graded as declared")

    def not_multiplicative(i, j):
        return ModuleAxiomError(f"{what}: action not multiplicative on "
                                f"{labels[i]}, {labels[j]}")
    read = [{} for _ in range(alg.dim)]   # the columns b_y does not kill
    for y in range(alg.dim):
        for m, v in enumerate(vertex):
            c = col(y, m)
            if v != into[y]:
                if c:
                    raise not_multiplicative(y, idems[v])
                continue
            for m2 in c:
                if vertex[m2] != out[y]:
                    raise not_multiplicative(idems[vertex[m2]], y)
            read[y][m] = c
    for g in _radical_generators(alg):
        for y in range(alg.dim):
            if out[y] != into[g]:
                continue
            gy = alg.product(y, g) if opposite else alg.product(g, y)
            for m, ym in read[y].items():
                lhs, rhs = {}, {}
                for k, c in gy.items():
                    axpy(f, lhs, read[k][m], c)
                for m2, c in ym.items():
                    axpy(f, rhs, read[g][m2], c)
                if lhs != rhs:
                    raise not_multiplicative(g, y)


class ModuleRep:
    """A left module given by its column function: `column(k, m)` is b_k
    applied to basis vector m, read only, as it may be a column of the
    algebra's own table.  Used for one-sided modules; bimodules are
    Bimodule."""

    __slots__ = ("algebra", "dim", "grading", "column")

    def __init__(self, algebra: Algebra, dim: int, column, grading, check=True):
        self.algebra = algebra
        self.dim = dim
        self.column = column
        self.grading = tuple(grading)
        if len(self.grading) != dim:
            raise ModuleAxiomError("grading has the wrong length")
        if check:
            self.check_axioms()

    def check_axioms(self):
        _check_action(self.algebra, self.column, self.grading, False, "module")

    def act(self, a, w):
        """a . w for an algebra element a and a vector w, both sparse."""
        f = self.algebra.field
        column = self.column
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
        return _image(f, left_col, i, right_col(j, m))
    return column


class Bimodule(ModuleRep):
    """A (B,C)-bimodule over B (x) C^op: commuting column functions
    `left_col` (b_i (x) 1, a left B-action) and `right_col` (1 (x) c_j, a
    right C-action)."""

    __slots__ = ("left_col", "right_col")

    def __init__(self, env: TensorOpposite, dim: int, left_col, right_col,
                 grading, check=True):
        self.left_col, self.right_col = left_col, right_col
        super().__init__(env, dim, _pair_column(env, left_col, right_col),
                         grading, check)

    def check_axioms(self):
        """The two module axioms (_check_action), then L_g R_h = R_h L_g for
        the idempotents and radical generators g of B and h of C, on the
        vectors where the radical ones act: the pairs with an idempotent,
        compared first, show that those keep the other side's vertex, so
        both products vanish elsewhere.  As in _check_action, the elements
        that commute with one side form a subalgebra."""
        env = self.algebra
        b, c = env.factors
        f = b.field
        pairs = [env.vertex_pair(code) for code in self.grading]
        lv, rv = [v for v, _ in pairs], [w for _, w in pairs]
        _check_action(b, self.left_col, lv, False, "left action")
        _check_action(c, self.right_col, rv, True, "right action")

        def generators(alg, enters):   # (g, the vertex g enters or None)
            return ([(e, None) for e in alg.idempotents]
                    + [(g, enters[g]) for g in _radical_generators(alg)])
        for g, v in generators(b, b.src):
            for h, w in generators(c, c.tgt):
                for m in range(self.dim):
                    if v in (None, lv[m]) and w in (None, rv[m]) and (
                            _image(f, self.left_col, g, self.right_col(h, m))
                            != _image(f, self.right_col, h, self.left_col(g, m))):
                        raise ModuleAxiomError(
                            f"left and right actions do not commute on "
                            f"{b.labels[g]}, {c.labels[h]}")


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


def _dual_actions(A: Algebra):
    """The left and right actions of A on DA as two tables {(i, p):
    column}, the column of b_i at the basis vector p*: {k: coeff_p(b_k
    b_i)} for the left action ((b_i.f)(x) = f(x b_i)) and {k: coeff_p(b_i
    b_k)} for the right one ((f.b_i)(x) = f(b_i x)); both built in one pass
    over the nonzero products."""
    left, right = {}, {}
    left_col, right_col = left.setdefault, right.setdefault
    for (i, k), x in A.mult.items():   # x = b_i b_k
        for p, c in x.items():
            left_col((k, p), {})[i] = c
            right_col((i, p), {})[k] = c
    return left, right


def dual_bimodule(A: Algebra) -> Bimodule:
    """DA = Hom_k(A, k) with (a.f.b)(x) = f(b x a); the Serre kernel."""
    env = A.enveloping()
    left, right = _dual_actions(A)
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
    if len(left_mats) != A.dim or len(right_mats) != B.dim:
        raise ModuleAxiomError("action has the wrong length")
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

    def rebase(m):   # the columns of m in the graded basis
        cols = [basechange.solve(m.apply(col)) for col in basis_cols]
        if any(col is None for col in cols):
            raise ModuleAxiomError("an action does not preserve the graded basis")
        return cols

    left, right = [rebase(m) for m in left_mats], [rebase(m) for m in right_mats]
    return Bimodule(env, dim, lambda i, m: left[i][m], lambda j, m: right[j][m],
                    grading, check=check)


def free_gluing_bimodule(b: Algebra, c: Algebra, d: int) -> Bimodule:
    """k^d as a (b,c)-bimodule when b and c each have a single vertex
    acting through the idempotent (the catalog's gluing data)."""
    if b.num_vertices != 1 or c.num_vertices != 1:
        raise SideMismatch("free gluing needs single-vertex algebras, got "
                           f"{b.num_vertices} and {c.num_vertices} vertices")
    env = b.enveloping() if c is b else tensor_opposite(b, c)
    unit = [{m: b.field.one} for m in range(d)]
    return Bimodule(env, d,
                    lambda i, m: unit[m] if i == b.idempotents[0] else ZERO_COLUMN,
                    lambda j, m: unit[m] if j == c.idempotents[0] else ZERO_COLUMN,
                    (env.vertex(0, 0),) * d, check=False)


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
        for k in range(nm):
            col = m.left_col(i, k)
            if col:
                mult[(OB + i, OM + k)] = {OM + k2: v for k2, v in col.items()}
    for j in range(nc):
        for k in range(nm):
            col = m.right_col(j, k)
            if col:
                mult[(OM + k, OC + j)] = {OM + k2: v for k2, v in col.items()}
    idems = [OB + e for e in b.idempotents] + [OC + e for e in c.idempotents]
    return algebra_from_structure(f, vnames, labels, mult, idems,
                                  arrow_name_prefix=arrow_name_prefix)
