"""Bimodules stored as commuting left/right action pairs.

The dense references below build one action matrix per basis element
b_i (x) b_j of the enveloping algebra from products of basis vectors,
whatever form the multiplication table is stored in; the pair-form
modules must agree with them on every index.  `dense_check_axioms` is
the whole-matrix axiom check, every pair of basis elements, that the
generator check of `sodhh.modules` must agree with.
"""

import random

import pytest
from hypothesis import given, settings

from sodhh.catalog import CATALOG
from sodhh.complexes import (SideMismatch, bar_resolution,
                             projective_resolution, serre_twist_left,
                             tensor_env_module)
from sodhh.exceptional import projective_collection
from sodhh.kernels import decomposable_to_env, projection_kernels
from sodhh.linalg import GF, QQ, Matrix
from sodhh.modules import (Bimodule, ModuleAxiomError, ModuleRep,
                           bimodule_from_actions, dual_bimodule,
                           regular_bimodule, simple_module, triangular_gluing)


def dense_actions(alg, col, dim):
    """One Matrix per basis element b_k of alg: column m is col(k, m)."""
    return [Matrix(alg.field, dim, dim, [dict(col(k, m)) for m in range(dim)])
            for k in range(alg.dim)]


def matrix_columns(mats):
    """The column function of an action given as one Matrix per element."""
    return lambda k, m: mats[k].cols[m]


def dense_check_action(alg, mats, dim, opposite, what):
    """Raise unless mats is a unital left module over alg (over alg^op if
    `opposite`): the unit, then every product of two action matrices."""
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


def dense_check_fixed(mat, m, what):
    if mat.cols[m] != {m: mat.field.one}:
        raise ModuleAxiomError(f"{what}: basis is not graded as declared")


def dense_check_axioms(M):
    """The module axioms on whole action matrices: dim^2 products per side,
    and dim_B dim_C for the commutation of a bimodule's two actions."""
    alg = M.algebra
    if not isinstance(M, Bimodule):
        mats = dense_actions(alg, M.column, M.dim)
        dense_check_action(alg, mats, M.dim, False, "module")
        for m in range(M.dim):
            dense_check_fixed(mats[alg.idempotents[M.grading[m]]], m, "module")
        return
    b, c = alg.factors
    left = dense_actions(b, M.left_col, M.dim)
    right = dense_actions(c, M.right_col, M.dim)
    dense_check_action(b, left, M.dim, False, "left action")
    dense_check_action(c, right, M.dim, True, "right action")
    for m in range(M.dim):
        v, w = alg.vertex_pair(M.grading[m])
        dense_check_fixed(left[b.idempotents[v]], m, "left action")
        dense_check_fixed(right[c.idempotents[w]], m, "right action")
    for i, lm in enumerate(left):
        for j, rm in enumerate(right):
            if lm.mul(rm) != rm.mul(lm):
                raise ModuleAxiomError(
                    f"left and right actions do not commute on "
                    f"{b.labels[i]}, {c.labels[j]}")


def dense_regular(A):
    """action[i * dim + j] : b_k |-> b_i b_k b_j."""
    f = A.field
    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            cols = [A.multiply(A.multiply({i: f.one}, {k: f.one}), {j: f.one})
                    for k in range(A.dim)]
            out.append(Matrix(f, A.dim, A.dim, cols))
    return out


def dense_dual(A):
    """action[i * dim + j] : p* |-> sum_x coeff_p(b_j b_x b_i) x*."""
    f = A.field
    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            cols = [dict() for _ in range(A.dim)]
            for x in range(A.dim):
                jx = A.multiply({j: f.one}, {x: f.one})
                for p, c in A.multiply(jx, {i: f.one}).items():
                    cols[p][x] = c
            out.append(Matrix(f, A.dim, A.dim, cols))
    return out


def dense_tensor_env(A, P, M, M_dense):
    """Per degree of P, the dense actions on A e_v (x) e_w M:
    b_i (x) b_j sends a (x) m to b_i a (x) m b_j."""
    f = A.field
    n = A.num_vertices
    out = {}
    for p, t in P.terms.items():
        basis = []
        for s, code in enumerate(t):
            v, w = divmod(code, n)
            for a in range(A.dim):
                if A.src[a] != v:
                    continue
                for m in range(M.dim):
                    if M.grading[m] // n == w:
                        basis.append((s, a, m))
        if not basis:
            continue
        pos = {b: r for r, b in enumerate(basis)}
        action = []
        for i in range(A.dim):
            for j in range(A.dim):
                cols = []
                for (s, a, m) in basis:
                    # right action of b_j on m is that of e_w (x) b_j
                    e_w = A.idempotents[M.grading[m] // n]
                    right = M_dense[e_w * A.dim + j].cols[m]
                    col = {}
                    for a2, c1 in A.multiply({i: f.one}, {a: f.one}).items():
                        for m2, c2 in right.items():
                            r = pos[(s, a2, m2)]
                            col[r] = f.add(col.get(r, f.zero), f.mul(c1, c2))
                    cols.append({r: c for r, c in col.items() if c})
                action.append(Matrix(f, len(basis), len(basis), cols))
        out[p] = action
    return out


def dense_serre_twist(A, X):
    """Per degree of X, (grading, dense actions) on DA (x)_A X^q, the sum
    over the summands s = A e_v of D(e_v A) with basis the duals p* of the
    p with tgt(p) = v: b_k sends p* to x |-> p*(x b_k)."""
    f = A.field
    out = {}
    for q, t in X.terms.items():
        basis = [(s, p) for s, v in enumerate(t) for p in range(A.dim)
                 if A.tgt[p] == v]
        if not basis:
            continue
        pos = {b: r for r, b in enumerate(basis)}
        action = []
        for k in range(A.dim):
            cols = []
            for (s, p) in basis:
                col = {}
                for x in range(A.dim):
                    c = A.multiply({x: f.one}, {k: f.one}).get(p)
                    if c:
                        col[pos[(s, x)]] = c
                cols.append(col)
            action.append(Matrix(f, len(basis), len(basis), cols))
        out[q] = (tuple(A.src[p] for _, p in basis), action)
    return out


def assert_matches(M, dense):
    assert dense_actions(M.algebra, M.column, M.dim) == dense


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_regular_and_dual_match_dense(algebras, name):
    A = algebras[name]
    n = A.num_vertices
    R = regular_bimodule(A)
    assert_matches(R, dense_regular(A))
    assert R.grading == tuple(A.tgt[k] * n + A.src[k] for k in range(A.dim))
    D = dual_bimodule(A)
    assert_matches(D, dense_dual(A))
    assert D.grading == tuple(A.src[k] * n + A.tgt[k] for k in range(A.dim))
    R.check_axioms()
    D.check_axioms()


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_tensor_env_module_matches_dense(algebras, name):
    A = algebras[name]
    D = dual_bimodule(A)
    D_dense = dense_dual(A)
    complexes = [bar_resolution(A, 2)]
    if name != "loop-x2":   # no exceptional collection
        for K in projection_kernels(projective_collection(A)):
            complexes.append(decomposable_to_env(K.left, K.right))
    for P in complexes:
        twisted = tensor_env_module(P, D)
        dense = dense_tensor_env(A, P, D, D_dense)
        assert set(twisted.modules) == set(dense)
        for p, M in twisted.modules.items():
            assert isinstance(M, Bimodule)
            assert_matches(M, dense[p])
            M.check_axioms()


def assert_columns_match(M, dense):
    """column(k, m) is column m of L_i R_j, with L_i and R_j the whole
    matrices of the two sides, and of the dense reference."""
    env = M.algebra
    b, c = env.factors
    left = dense_actions(b, M.left_col, M.dim)
    right = dense_actions(c, M.right_col, M.dim)
    for k, mat in enumerate(dense):
        i, j = env.index_pair(k)
        for m in range(M.dim):
            assert M.column(k, m) == left[i].apply(right[j].cols[m]) \
                == mat.cols[m], (k, m)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_column_read_matches_pair_products(algebras, name):
    A = algebras[name]
    D = dual_bimodule(A)
    D_dense = dense_dual(A)
    assert_columns_match(regular_bimodule(A), dense_regular(A))
    assert_columns_match(D, D_dense)
    complexes = [bar_resolution(A, 2)]
    if name != "loop-x2":   # no exceptional collection
        for K in projection_kernels(projective_collection(A)):
            complexes.append(decomposable_to_env(K.left, K.right))
    for P in complexes:
        dense = dense_tensor_env(A, P, D, D_dense)
        for p, M in tensor_env_module(P, D).modules.items():
            assert_columns_match(M, dense[p])


@pytest.mark.parametrize("name", sorted(n for n, e in CATALOG.items()
                                         if e.has_collection))
def test_serre_twist_matches_dense(algebras, name):
    """Every collection object and every simple's resolution: the grading
    and column(k, m) on every (k, m) of each term."""
    A = algebras[name]
    objects = list(projective_collection(A).objects)
    objects += [projective_resolution(simple_module(A, v), 3)
                for v in range(A.num_vertices)]
    for X in objects:
        twisted = serre_twist_left(X)
        dense = dense_serre_twist(A, X)
        assert set(twisted.modules) == set(dense)
        for q, M in twisted.modules.items():
            grading, action = dense[q]
            assert M.grading == grading
            assert_matches(M, action)
            M.check_axioms()


def test_reading_actions_leaves_the_table_unchanged(algebras):
    """Columns of the regular bimodule are the table's own dicts: the axiom
    checks, the Hom complexes of generated P^3 and the kernel calculus on
    beilinson-p2 read them and write nothing into A.mult."""
    from test_algebra import _beilinson_doc
    from sodhh.catalog import structure_hash
    from sodhh.cli import parse_quiver_document
    from sodhh.hochschild import hh_cohomology, homology_via_serre_dual
    from sodhh.kernels import additivity_check

    def snapshot(A):
        return {k: dict(v) for k, v in A.mult.items()}, structure_hash(A)

    for A in algebras.values():
        before = snapshot(A)
        for M in (regular_bimodule(A), dual_bimodule(A)):
            M.check_axioms()
        assert snapshot(A) == before
    A = algebras["beilinson-p2"]
    before = snapshot(A)
    additivity_check(A, projective_collection(A), 3)
    assert snapshot(A) == before
    A = parse_quiver_document(_beilinson_doc(3, {"kind": "q"})).build()
    before = snapshot(A)
    assert hh_cohomology(A, 4).as_tuple() == (1, 15, 45, 35, 0)
    assert homology_via_serre_dual(A, 4).as_tuple() == (4, 0, 0, 0, 0)
    assert snapshot(A) == before


def loop_pair(left_x, right_x):
    loop = CATALOG["loop-x2"].algebra(QQ)
    x = next(k for k in range(loop.dim) if k not in loop.idempotents)

    def action(mx):
        return [Matrix.from_rows(QQ, mx) if k == x else Matrix.identity(QQ, 2)
                for k in range(loop.dim)]

    return loop, action(left_x), action(right_x)


def test_non_commuting_pair_is_rejected():
    loop, left, right = loop_pair([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    with pytest.raises(ModuleAxiomError, match="do not commute"):
        bimodule_from_actions(loop, loop, left, right)


def test_commuting_pair_is_accepted():
    loop, left, right = loop_pair([[0, 1], [0, 0]], [[0, 1], [0, 0]])
    M = bimodule_from_actions(loop, loop, left, right)
    assert M.dim == 2 and M.algebra.dim == loop.dim ** 2


def test_non_multiplicative_action_is_rejected():
    loop, left, right = loop_pair([[1, 0], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ModuleAxiomError, match="left action"):
        bimodule_from_actions(loop, loop, left, right)


BAD_BIMODULES = """
from sodhh.catalog import CATALOG
from sodhh.linalg import QQ, Matrix
from sodhh.modules import ModuleAxiomError, bimodule_from_actions
loop = CATALOG["loop-x2"].algebra(QQ)
x = next(k for k in range(loop.dim) if k not in loop.idempotents)


def action(mx):
    return [Matrix.from_rows(QQ, mx) if k == x else Matrix.identity(QQ, 2)
            for k in range(loop.dim)]


for left_x, right_x in (([[1, 0], [0, 0]], [[0, 0], [0, 0]]),
                        ([[0, 1], [0, 0]], [[0, 0], [1, 0]])):
    try:
        bimodule_from_actions(loop, loop, action(left_x), action(right_x))
        print("accepted")
    except ModuleAxiomError as exc:
        print("ModuleAxiomError:", exc)
"""


def test_bad_bimodules_raise_under_optimized_python(run_optimized):
    """The non-multiplicative and the non-commuting pair of loop_pair are
    rejected by raising, so `python -O` keeps both checks."""
    assert run_optimized(BAD_BIMODULES) == [
        "ModuleAxiomError: left action: action not multiplicative on x, x",
        "ModuleAxiomError: left and right actions do not commute on x, x"]


MISGRADED_COEFFICIENTS = """
from sodhh.catalog import CATALOG
from sodhh.complexes import ComplexError
from sodhh.hochschild import hh_with_coefficients
from sodhh.linalg import QQ
from sodhh.modules import Bimodule, ModuleRep, dual_bimodule, regular_bimodule
A = CATALOG["kronecker2"].algebra(QQ)
env, R, D = A.enveloping(), regular_bimodule(A), dual_bimodule(A)
idempotents = set(A.idempotents)


def in_place(i, m):   # an arrow that leaves m at its vertex
    return R.left_col(i, m) if i in idempotents else {m: QQ.one}


for M in (Bimodule(env, R.dim, R.left_col, R.right_col, D.grading,
                   check=False),
          ModuleRep(env, R.dim, R.column, D.grading, check=False),
          Bimodule(env, R.dim, in_place, R.right_col, R.grading,
                   check=False)):
    try:
        hh_with_coefficients(A, M, 2)
        print("accepted")
    except ComplexError as exc:
        print("ComplexError:", exc)
"""


def test_misgraded_coefficients_raise_under_optimized_python(run_optimized):
    """Coefficients built with check=False are checked where HH reads
    them, by raising, so `python -O` keeps the checks: A with DA's
    grading, as a bimodule and as a plain A^e module, fails the grading
    check, and arrows that leave each position at its vertex fail the
    check that every image stays at the vertex of its summand."""
    assert run_optimized(MISGRADED_COEFFICIENTS) == [
        "ComplexError: position 2 of the coefficients is not at its "
        "declared vertex"] * 2 + [
        "ComplexError: a term of the diagonal resolution moves a position "
        "of the coefficients off vertex 2"]


def test_gluing_needs_a_bimodule_over_the_pieces(algebras):
    A = algebras["kronecker2"]
    with pytest.raises(SideMismatch):
        triangular_gluing(A, A, dual_bimodule(algebras["kronecker3"]))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_read_only_action_columns_give_the_same_bimodules(algebras, name):
    """The axiom check and the lazy L_i R_j products read action columns
    only, so bimodules whose every column is read-only pass and fail the
    same checks and give the same action matrices as plain dict columns."""
    from test_linalg import read_only
    A = algebras[name]
    for M in (regular_bimodule(A), dual_bimodule(A)):
        left = [read_only(m) for m in dense_actions(A, M.left_col, M.dim)]
        right = [read_only(m) for m in dense_actions(A, M.right_col, M.dim)]
        frozen = Bimodule(M.algebra, M.dim, matrix_columns(left),
                          matrix_columns(right), M.grading, check=True)
        assert dense_actions(M.algebra, frozen.column, M.dim) == \
            dense_actions(M.algebra, M.column, M.dim)
    loop, left, right = loop_pair([[0, 1], [0, 0]], [[0, 0], [1, 0]])
    with pytest.raises(ModuleAxiomError, match="do not commute"):
        Bimodule(loop.enveloping(), 2, matrix_columns([read_only(m) for m in left]),
                 matrix_columns([read_only(m) for m in right]), (0, 0))


# ---------------------------------------------------------------------------
# The generator check against the whole-matrix oracle


def verdict(check, M):
    """None if check(M) accepts M, else the kind of axiom it names."""
    try:
        check(M)
    except ModuleAxiomError as exc:
        return "commute" if "commute" in str(exc) else "module"
    return None


def with_column(col, k, m, new):
    return lambda i, n: new if (i, n) == (k, m) else col(i, n)


def mutants(M, rng, count):
    """Copies of M with one column of one action changed: zeroed, doubled,
    or replaced by a unit vector at the grading of the old column's
    entries or anywhere."""
    f = M.algebra.field
    if isinstance(M, Bimodule):
        b, c = M.algebra.factors
        sides = [(b, M.left_col), (c, M.right_col)]
    else:
        sides = [(M.algebra, M.column)]
    out = []
    for _ in range(count):
        side = rng.randrange(len(sides))
        alg, col = sides[side]
        nonzero = [(k, m) for k in alg.radical_indices() for m in range(M.dim)
                   if col(k, m)]
        k, m = rng.choice(nonzero) if nonzero and rng.random() < 0.8 else \
            (rng.randrange(alg.dim), rng.randrange(M.dim))
        old = col(k, m)
        same = [n for n in range(M.dim)
                if any(M.grading[n] == M.grading[o] for o in old)]
        kind = rng.randrange(4)
        if kind == 0:
            new = {}
        elif kind == 1:
            new = {n: f.add(x, x) for n, x in old.items()}
        else:
            new = {rng.choice(same if kind == 2 and same else range(M.dim)): f.one}
        if isinstance(M, Bimodule):
            cols = [M.left_col, M.right_col]
            cols[side] = with_column(col, k, m, new)
            out.append(Bimodule(M.algebra, M.dim, *cols, M.grading, check=False))
        else:
            out.append(ModuleRep(M.algebra, M.dim, with_column(col, k, m, new),
                                 M.grading, check=False))
    return out


def left_regular(A):
    """A as a left module over itself."""
    return ModuleRep(A, A.dim, lambda i, m: A.product(i, m), A.tgt,
                     check=False)


def file_style(M):
    """M rebuilt from whole matrices, as a bimodule file is read."""
    b, c = M.algebra.factors
    return bimodule_from_actions(b, c, dense_actions(b, M.left_col, M.dim),
                                 dense_actions(c, M.right_col, M.dim),
                                 check=False)


def assert_checks_agree(modules, rng, count, verdicts):
    """Both checks accept every module and reject or accept each mutant
    alike; counts the verdicts."""
    for M in modules:
        M.check_axioms()
        dense_check_axioms(M)
        for X in mutants(M, rng, count):
            ours = verdict(type(X).check_axioms, X)
            assert (ours is None) == (verdict(dense_check_axioms, X) is None)
            verdicts[ours] = verdicts.get(ours, 0) + 1


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_generator_check_agrees_with_dense_oracle(field):
    """Regular, dual, file-style, left regular and tensor_env_module
    modules of every catalog algebra and random presentation, and
    single-column mutants of each: the generator check and the dim^2
    check accept and reject the same inputs."""
    from sodhh.hochschild import diagonal_resolution
    from test_algebra import random_presentations
    from sodhh.algebra import NotFiniteDimensional, build_path_algebra
    rng = random.Random(17)
    algebras = [entry.algebra(field) for entry in CATALOG.values()]
    found = []

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(random_presentations())
    def collect(case):
        quiver, relations, _ = case
        try:
            A = build_path_algebra(quiver, relations, field)
        except NotFiniteDimensional:
            return
        if A.dim <= 12:
            found.append(A)
    collect()
    assert len(found) >= 8
    verdicts = {}
    for A in algebras + found:
        R, D = regular_bimodule(A), dual_bimodule(A)
        modules = [R, D, file_style(R), file_style(D), left_regular(A)]
        assert_checks_agree(modules, rng, 3, verdicts)
    for A in algebras[:4]:
        twisted = tensor_env_module(diagonal_resolution(A, 1), dual_bimodule(A))
        assert_checks_agree(twisted.modules.values(), rng, 2, verdicts)
    assert set(verdicts) == {None, "module", "commute"}
