import importlib.util
import itertools
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodhh.algebra import (Algebra, AlgebraAxiomError, NonAdmissible,
                           NotFiniteDimensional, PathAlgebra, Quiver,
                           Relation, _path_label, algebra_from_structure,
                           build_path_algebra, center, tensor_opposite,
                           validate_relation)
from sodhh.catalog import CATALOG, structure_hash
from sodhh.complexes import ext_profile, single_projective
from sodhh.hochschild import hh_cohomology, hh_homology
from sodhh.linalg import (GF, QQ, Matrix, SubspaceReducer, rank,
                          rank_kernel_image)
from sodhh.modules import (dual_bimodule, free_gluing_bimodule,
                           triangular_gluing)


def kron(n, field=QQ):
    q = Quiver.make(("1", "2"), tuple((chr(97 + i), "1", "2") for i in range(n)))
    return build_path_algebra(q, [], field)


def test_kronecker3_dimension():
    A = kron(3)
    assert A.dim == 5
    assert [A.labels[e] for e in A.idempotents] == ["e(1)", "e(2)"]


def test_beilinson_dimension(algebras):
    B = algebras["beilinson-p2"]
    assert B.dim == 15
    by_len = {}
    for p in B.basis_paths:
        by_len[0 if p is None else len(p)] = by_len.get(0 if p is None else len(p), 0) + 1
    assert by_len == {0: 3, 1: 6, 2: 6}


def test_loop_square_zero(algebras):
    A = algebras["loop-x2"]
    assert A.dim == 2
    x = A.arrow_element("x")
    assert A.multiply(x, x) == {}


def test_not_finite_dimensional():
    q = Quiver.make(("1",), (("x", "1", "1"),))
    with pytest.raises(NotFiniteDimensional):
        build_path_algebra(q, [], QQ)


def truncated_polynomials(n):
    """k[x]/(x^n) over Q: one loop x and the one relation x^n."""
    q = Quiver.make(("1",), (("x", "1", "1"),))
    return build_path_algebra(q, [Relation(((1, ("x",) * n),))], QQ)


def test_length_cap_boundary():
    """The cap for one arrow is 2 * 1 + 2 = 4: x^4 survives at the cap and
    dies at length 5, so k[x]/(x^5) is built; in k[x]/(x^6) x^5 survives
    past the cap."""
    A = truncated_polynomials(5)
    assert A.dim == 5
    assert A.multiply(A.arrow_element("x"), {A.dim - 1: 1}) == {}
    with pytest.raises(NotFiniteDimensional):
        truncated_polynomials(6)


def test_length_cap_message_names_word_and_cap():
    """k[x]/(x^6) is 6-dimensional: the message says that the cap 4 was
    reached by a surviving word of length 5, not that A is infinite."""
    with pytest.raises(NotFiniteDimensional) as exc:
        truncated_polynomials(6)
    assert str(exc.value) == ("length cap 4 reached: a residue word of "
                              "length 5 survives")


def test_non_admissible_relation():
    q = Quiver.make(("1", "2"), (("a", "1", "2"),))
    with pytest.raises(NonAdmissible):
        build_path_algebra(q, [Relation(((1, ("a",)),))], QQ)


def test_relation_not_parallel():
    q = Quiver.make(("1", "2", "3"),
                    (("a", "1", "2"), ("b", "2", "3"), ("c", "2", "1")))
    with pytest.raises(NonAdmissible):
        build_path_algebra(q, [Relation(((1, ("a", "b")), (1, ("a", "c"))))], QQ)


def test_multiplication_convention():
    A = kron(2)
    a, e1, e2 = A.arrow_element("a"), A.idem(0), A.idem(1)
    assert A.multiply(a, e1) == a
    assert A.multiply(e1, a) == {}
    assert A.multiply(e2, a) == a
    # composition vanishes unless target(b) = source(a)
    b = A.arrow_element("b")
    assert A.multiply(a, b) == {}


def test_beilinson_commutativity(algebras):
    B = algebras["beilinson-p2"]
    assert B.multiply(B.arrow_element("y0"), B.arrow_element("x1")) == \
        B.multiply(B.arrow_element("y1"), B.arrow_element("x0"))


def test_axioms_all_catalog(algebras):
    for name, A in algebras.items():
        A.check_axioms()
        n = A.radical_nilpotency_index()
        assert n <= A.dim
        # A = span(e_v) (+) rad as vector spaces, by basis construction
        assert len(A.idempotents) + len(A.radical_indices()) == A.dim


def test_center_dimensions(algebras):
    assert center(algebras["kronecker3"])[0] == 1
    assert center(algebras["kxk"])[0] == 2
    assert center(algebras["beilinson-p2"])[0] == 1
    assert center(algebras["loop-x2"])[0] == 2
    # central elements commute with everything
    A = algebras["beilinson-p2"]
    _, basis = center(A)
    for z in basis:
        for k in range(A.dim):
            bk = {k: A.field.one}
            assert A.multiply(z, bk) == A.multiply(bk, z)


def test_hom_between_projectives_is_slice(algebras):
    """Hom_A(A e_v, A e_w) = e_v A e_w, a theorem of the conventions."""
    for name in ("kronecker2", "beilinson-p2", "loop-x2"):
        A = algebras[name]
        for v in range(A.num_vertices):
            for w in range(A.num_vertices):
                prof = ext_profile(single_projective(A, v),
                                   single_projective(A, w))
                d = len(A.slice_indices(v, w))
                assert prof == ({0: d} if d else {})


def test_dual_bimodule_axioms(algebras):
    for name in ("kronecker2", "kronecker3", "loop-x2", "beilinson-p2"):
        A = algebras[name]
        D = dual_bimodule(A)
        D.check_axioms()
        assert D.dim == A.dim


def test_dual_bimodule_slices():
    A = kron(2)
    D = dual_bimodule(A)
    env = D.algebra

    def block(v, w):
        code = v * A.num_vertices + w
        return [m for m in range(D.dim) if D.grading[m] == code]

    # e_2 DA e_1 = D(e_1 A e_2) = 0 and e_1 DA e_2 = D(e_2 A e_1) has dim 2
    assert block(1, 0) == []
    assert len(block(0, 1)) == 2


def test_dual_of_point():
    A = build_path_algebra(Quiver.make(("1",), ()), [], QQ)
    D = dual_bimodule(A)
    assert D.dim == 1
    D.check_axioms()


def test_triangular_gluing_kronecker3():
    k = build_path_algebra(Quiver.make(("1",), ()), [], QQ)
    m = free_gluing_bimodule(k, k, 3)
    G = triangular_gluing(k, k, m)
    assert G.dim == 5
    assert len(G.quiver.arrows) == 3
    assert not G.relations
    # same structure as kronecker3 up to names
    K3 = kron(3)
    assert sorted(len(G.slice_indices(v, w)) for v in range(2) for w in range(2)) \
        == sorted(len(K3.slice_indices(v, w)) for v in range(2) for w in range(2))


def test_triangular_gluing_dimension_additivity():
    k = build_path_algebra(Quiver.make(("1",), ()), [], QQ)
    for d in (0, 1, 2, 5):
        m = free_gluing_bimodule(k, k, d)
        G = triangular_gluing(k, k, m)
        assert G.dim == k.dim + k.dim + d


def test_triangular_gluing_projective_module():
    """b = k, c = Kronecker-2, m the 3-dimensional projective c-module:
    a 3-vertex directed algebra of total dimension 1 + 4 + 3."""
    from sodhh.linalg import Matrix
    from sodhh.modules import bimodule_from_actions
    k = build_path_algebra(Quiver.make(("1",), ()), [], QQ)
    c = kron(2)
    # m = A e_1 as a right c^op... i.e. the dim-3 projective with basis
    # e_1, a, b and the regular right c-action restricted
    basis = [i for i in range(c.dim) if c.src[i] == 0]
    assert len(basis) == 3
    pos = {b: i for i, b in enumerate(basis)}
    f = QQ
    right = []
    for j in range(c.dim):
        cols = []
        for b in basis:
            prod = c.multiply({b: f.one}, {j: f.one})
            cols.append({pos[t]: v for t, v in prod.items()})
        right.append(Matrix(f, 3, 3, cols))
    left = [Matrix.identity(f, 3) if i == k.idempotents[0]
            else Matrix.zeros(f, 3, 3) for i in range(k.dim)]
    m = bimodule_from_actions(k, c, left, right, check=True)
    G = triangular_gluing(k, c, m)
    assert G.num_vertices == 3
    assert G.dim == k.dim + c.dim + 3
    # directed: no cycles through distinct vertices
    for v in range(3):
        for w in range(3):
            if v != w:
                assert not (G.slice_indices(v, w) and G.slice_indices(w, v))


def test_catalog_integrity_hashes(algebras):
    for name, entry in CATALOG.items():
        rebuilt = entry.algebra(QQ)
        assert rebuilt.dim == algebras[name].dim
        assert structure_hash(rebuilt) == structure_hash(algebras[name])


def test_opposite_and_enveloping(algebras):
    A = algebras["kronecker2"]
    op = A.opposite()
    assert op.opposite() is A
    env = A.enveloping()
    assert env.dim == A.dim ** 2
    assert len(env.idempotents) == A.num_vertices ** 2


def test_opposite_grading_is_the_derived_one(algebras):
    """A^op takes A's grading with src and tgt swapped; it equals the
    grading derived from A^op's table by its idempotents, on every catalog
    algebra and on generated P^2..P^4."""
    from sodhh.cli import parse_quiver_document
    algs = [algebras[name] for name in sorted(algebras)]
    algs += [parse_quiver_document(_beilinson_doc(n, {"kind": "q"})).build()
             for n in (2, 3, 4)]
    for A in algs:
        op = A.opposite()
        derived = Algebra(op.field, op.labels, op.mult, op.idempotents,
                          op.vertex_names)
        assert (op.src, op.tgt) == (derived.src, derived.tgt)


def test_subspace_reducer_normal_forms():
    red = SubspaceReducer(QQ, 3)
    red.add({0: QQ.coerce(1), 1: QQ.coerce(1)})
    red.add({1: QQ.coerce(1), 2: QQ.coerce(1)})
    assert red.rank == 2
    assert red.contains({0: QQ.coerce(1), 2: QQ.coerce(-1)})
    nf = red.normal_form({0: QQ.coerce(1)})
    assert nf and all(i not in red.cols for i in nf)


# The beilinson-p2 table with x0 * e_src(x0) zeroed: the unit no longer
# acts as the identity on x0.  The grading is passed in, since the broken
# table no longer determines it.
BROKEN_TABLE = """
from sodhh.algebra import Algebra, AlgebraAxiomError
from sodhh.catalog import get_entry
from sodhh.linalg import QQ
A = get_entry("beilinson-p2").algebra(QQ)
x0 = A.labels.index("x0")
mult = dict(A.mult)
del mult[(x0, A.idempotents[A.src[x0]])]
B = Algebra(QQ, A.labels, mult, A.idempotents, A.vertex_names,
            grading=(A.src, A.tgt))
try:
    B.check_axioms()
    print("accepted")
except AlgebraAxiomError as exc:
    print("AlgebraAxiomError:", exc)
"""


def test_broken_table_raises(capsys):
    exec(BROKEN_TABLE, {})
    assert capsys.readouterr().out.splitlines() == [
        "AlgebraAxiomError: unit does not act as the identity on x0"]


def test_broken_table_raises_under_optimized_python(run_optimized):
    assert run_optimized(BROKEN_TABLE) == [
        "AlgebraAxiomError: unit does not act as the identity on x0"]


def test_non_associative_table_names_labels():
    """Rescaling a*b in the path algebra of a -> b -> c breaks (c b) a =
    c (b a) for the length-three path."""
    q = Quiver.make(("1", "2", "3", "4"),
                    (("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")))
    A = build_path_algebra(q, [], QQ)
    A.check_axioms()
    ba = A.multiply(A.arrow_element("b"), A.arrow_element("a"))
    (k, _), = ba.items()
    a, b = A.labels.index("a"), A.labels.index("b")
    A.mult[(b, a)] = {k: QQ.coerce(2)}
    with pytest.raises(AlgebraAxiomError, match="not associative on"):
        A.check_axioms()


# ---------------------------------------------------------------------------
# The sparse multiplication table


def _beilinson_doc(n, field):
    """The generated P^n quiver document of benchmark/inputs.py."""
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.beilinson_quiver_doc(n, field, 101)


# structure_hash of the generated Beilinson P^n algebras, recorded when the
# table was still a dense dim x dim list; the sparse table must hash alike.
BEILINSON_HASHES = {
    ("q", 2): "93223871cf81a7abcd3c43e29a763e926648cae4bcd9f66de1814bf3ef07db2a",
    ("q", 3): "17e56f539113695d19a182aaee01d544648e6fa14b46d0e6caa00b9aaf2151df",
    ("q", 4): "893c162145eaa399c52ac75b491d20bb820a525b74ff0da4ccd48ea18a311de4",
    ("q", 5): "7259f0a5ec6879013bae7dd90797d6a9fd63aaafea27f8642bd5f800fb299781",
    ("fp", 2): "d1c4e0516c10b3b65a644f5259e81ea6156debc052080a3c0707d266fa7dcdcd",
    ("fp", 3): "939ff88a91b84ef8423cb00a580b8e6a8f87c19ebc8ed393ad242e9dd0c7c9a8",
    ("fp", 4): "518f368e9221ead0fa037bc067f8da1ef32cb7405b85a217ae832f5dd52b85e3",
    ("fp", 5): "9619f7a9514bc4edebc62dbd92bf6599a4d60dccb2e271dd0d035b128112dc49",
    ("q", 6): "a753eab128ebe7caf5463e4069bbc9dec3c1b4e7301c54572f82de9def697bb2",
}


@pytest.mark.parametrize("kind, n", sorted(BEILINSON_HASHES))
def test_generated_beilinson_tables_are_unchanged(kind, n):
    from sodhh.cli import parse_quiver_document
    field = {"kind": "q"} if kind == "q" else {"kind": "fp", "p": 32003}
    A = parse_quiver_document(_beilinson_doc(n, field)).build()
    assert structure_hash(A) == BEILINSON_HASHES[(kind, n)]


def _stored_algebras():
    """Every catalog algebra over Q, its opposite, the triangular gluing of
    each gluing entry and the endomorphism algebra of each collection."""
    from sodhh.exceptional import endomorphism_algebra, projective_collection
    for name, entry in sorted(CATALOG.items()):
        A = entry.algebra(QQ)
        yield name, A
        yield f"{name} op", A.opposite()
        if entry.gluing_rank is not None:
            yield f"{name} gluing", triangular_gluing(*entry.gluing(QQ))
        if entry.has_collection:
            yield f"{name} end", endomorphism_algebra(projective_collection(A))


def test_sparse_tables_store_only_nonzero_composable_products():
    for name, A in _stored_algebras():
        assert A.mult, name
        for (i, j), x in A.mult.items():
            assert 0 <= i < A.dim and 0 <= j < A.dim, (name, i, j)
            assert x and all(x.values()), (name, i, j)
            assert all(0 <= k < A.dim for k in x), (name, i, j)
            assert A.src[i] == A.tgt[j], (name, A.labels[i], A.labels[j])


def test_tensor_opposite_products_match_the_factors(algebras):
    """(b_i (x) c_k)(b_j (x) c_l) = b_i b_j (x) c_l c_k, computed lazily;
    `mult` is the table of the nonzero ones, also on a fresh A^e."""
    for name, A in algebras.items():
        env, fresh = tensor_opposite(A, A), tensor_opposite(A, A)
        one = A.field.one
        basis = range(A.dim)
        prod = {(i, j): A.multiply({i: one}, {j: one})
                for i in basis for j in basis}
        table = {}
        for i1, j1, i2, j2 in itertools.product(basis, repeat=4):
            expected = {env.pair_index(a, d): A.field.mul(va, vd)
                        for a, va in prod[(i1, j1)].items()
                        for d, vd in prod[(j2, i2)].items()}
            x, y = env.pair_index(i1, i2), env.pair_index(j1, j2)
            assert env.product(x, y) == expected, name
            assert env.multiply({x: one}, {y: one}) == expected, name
            if expected:
                table[(x, y)] = expected
        for view in (env.mult, fresh.mult):
            assert len(view) == len(table) and set(view) == set(table), name
            assert dict(view.items()) == table, name


def _random_element(rng, alg, terms):
    """A sparse element with up to `terms` basis terms and coefficients
    drawn from -2, -1, 1, 2 (over F_3 products of them cancel often)."""
    return {k: alg.field.coerce(rng.choice([-2, -1, 1, 2]))
            for k in rng.sample(range(alg.dim), min(terms, alg.dim))}


def _in_the_factors(env, x, y):
    """x y in B (x) C^op from products in the factors: each pair of terms
    (b_i (x) c_j)(b_k (x) c_l) = b_i b_k (x) c_l c_j."""
    f, (b, c) = env.field, env.factors
    out = {}
    for (i1, i2, xi) in env.terms(x):
        for (k1, k2, yk) in env.terms(y):
            left = b.multiply({i1: f.one}, {k1: f.one})
            right = c.multiply({k2: f.one}, {i2: f.one})
            for p, vp in left.items():
                for q, vq in right.items():
                    k = env.pair_index(p, q)
                    out[k] = f.add(out.get(k, f.zero),
                                   f.mul(f.mul(xi, yk), f.mul(vp, vq)))
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_tensor_opposite_multiply_matches_the_factors_on_sparse_elements(field):
    """TensorOpposite.multiply, basis by basis through `product`, equals
    the product taken in the factors on random sparse elements, and keeps
    no zero coefficients: A^e of the catalog, B (x) C^op for factors of
    different dimensions, and a nested one."""
    import random
    rng = random.Random(7)
    algs = {name: e.algebra(field) for name, e in sorted(CATALOG.items())}
    envs = [A.enveloping() for A in algs.values()]
    envs += [tensor_opposite(algs[b], algs[c]) for b, c in
             [("kronecker2", "beilinson-p2"), ("beilinson-p2", "loop-x2"),
              ("a2-quiver", "kronecker3")]]
    envs.append(tensor_opposite(algs["kronecker2"].enveloping(),
                                algs["a2-quiver"]))
    assert any(e.factors[0].dim != e.factors[1].dim for e in envs)
    cancelled = 0
    for env in envs:
        for _ in range(60):
            x = _random_element(rng, env, rng.randint(1, 8))
            y = _random_element(rng, env, rng.randint(1, 8))
            ours = env.multiply(x, y)
            assert ours == _in_the_factors(env, x, y)
            assert all(ours.values())
            touched = {k for i in x for j in y for k in env.product(i, j)}
            cancelled += touched != set(ours)
        y = _random_element(rng, env, 4)
        assert env.multiply(env.unit(), y) == y == env.multiply(y, env.unit())
        assert env.multiply({}, y) == {} == env.multiply(y, {})
    assert cancelled


def _dense_copy(env):
    """B (x) C^op as a plain Algebra over the table of all its nonzero
    products, read one at a time through `product`."""
    mult = {(i, j): env.product(i, j) for i in range(env.dim)
            for j in range(env.dim) if env.product(i, j)}
    return Algebra(env.field, env.labels, mult, env.idempotents,
                   env.vertex_names)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_fresh_enveloping_algebra_reads_like_its_dense_copy(field):
    """The readers that take `mult` as the whole table agree with a dense
    copy on an A^e whose products were never asked for: the structure
    hash, the radical index (N + N - 1), the opposite, the dual actions
    and, through the regular bimodule, HH^* of A^e; and the table of
    A^e (x) A^op, whose first factor's table is itself a view."""
    from sodhh.modules import _dual_actions
    for name, entry in sorted(CATALOG.items()):
        env = entry.algebra(field).enveloping()
        dense = _dense_copy(tensor_opposite(*env.factors))
        assert structure_hash(env) == structure_hash(dense), name
        assert env.radical_nilpotency_index() == \
            dense.radical_nilpotency_index() == \
            2 * env.factors[0].radical_nilpotency_index() - 1, name
        op, dense_op = env.opposite(), dense.opposite()
        assert (op.mult, op.src, op.tgt) == \
            (dense_op.mult, dense_op.src, dense_op.tgt), name
        assert _dual_actions(env) == _dual_actions(dense)
        if name in ("a2-quiver", "kronecker1"):
            assert hh_cohomology(env, 3).as_tuple() == \
                hh_cohomology(dense, 3).as_tuple() == (1, 0, 0, 0), name
            nested = tensor_opposite(env, env.factors[0])
            assert dict(nested.mult.items()) == _dense_copy(
                tensor_opposite(env, env.factors[0])).mult, name


def test_tensor_opposite_grading_is_fixed_by_the_idempotents(algebras):
    """Each basis element k of B (x) C^op has e_tgt(k) k = k = k e_src(k),
    also when B and C have different numbers of vertices."""
    names = ["kronecker2", "beilinson-p2", "loop-x2"]
    for b, c in itertools.product([algebras[n] for n in names], repeat=2):
        env = tensor_opposite(b, c)
        for k in range(env.dim):
            fixed = {k: b.field.one}
            assert env.product(k, env.idempotents[env.src[k]]) == fixed
            assert env.product(env.idempotents[env.tgt[k]], k) == fixed


def _eager_tables(env):
    """labels, src and tgt of B (x) C^op as dim B * dim C tuples, spelled
    out as the eager construction built them."""
    b, c = env.factors
    nv = c.num_vertices
    return (tuple(f"{bl}(x){cl}" for bl in b.labels for cl in c.labels),
            tuple(v * nv + w for v in b.src for w in c.tgt),
            tuple(v * nv + w for v in b.tgt for w in c.src))


def test_tensor_opposite_index_arithmetic_matches_the_eager_tables(algebras):
    """labels, src and tgt store nothing of size dim B * dim C, yet read
    like the tuples they replace; column_indices and slice_indices equal
    the scans over the whole basis."""
    envs = [(name, A.enveloping()) for name, A in sorted(algebras.items())]
    envs.append(("kronecker3-gluing data",
                 CATALOG["kronecker3-gluing"].gluing(QQ)[2].algebra))
    names = ["kronecker2", "beilinson-p2", "loop-x2"]
    for b, c in itertools.product(names, repeat=2):
        envs.append((f"{b} (x) {c}^op",
                     tensor_opposite(algebras[b], algebras[c])))
    envs.append(("env(kronecker2) (x) kronecker1^op",
                 tensor_opposite(algebras["kronecker2"].enveloping(),
                                 algebras["kronecker1"])))
    for name, env in envs:
        n = env.dim
        assert n == env.factors[0].dim * env.factors[1].dim, name
        for seq, eager in zip((env.labels, env.src, env.tgt),
                              _eager_tables(env)):
            assert not isinstance(seq, (tuple, list)), name
            assert len(seq) == n and tuple(seq) == eager, name
            assert [seq[k] for k in range(-n, n)] == list(eager) * 2, name
            for k in (n, n + 1, -n - 1, 10 * n):
                with pytest.raises(IndexError):
                    seq[k]
        _, src, tgt = _eager_tables(env)
        for v in range(-1, env.num_vertices + 1):
            assert env.column_indices(v) == \
                [k for k in range(n) if src[k] == v], (name, v)
            for w in range(-1, env.num_vertices + 1):
                assert env.slice_indices(v, w) == \
                    [k for k in range(n) if tgt[k] == v and src[k] == w], \
                    (name, v, w)
    # the algebra of the empty quiver (a document may declare no vertices)
    empty = build_path_algebra(Quiver.make((), ()), [], QQ).enveloping()
    for seq in (empty.labels, empty.src, empty.tgt):
        assert len(seq) == 0 and tuple(seq) == ()
        with pytest.raises(IndexError):
            seq[0]


def test_enveloping_bimodules_of_generated_p4_stay_small():
    """A (x) A^op, the regular and the dual bimodule of the generated P^4
    algebra (dim 210) under tracemalloc: the dim^2 label and grading
    tables and a dim x dim grid of empty columns per action side took
    17.6 MB; the index arithmetic and the shared zero column take 2.7 MB."""
    import tracemalloc
    from sodhh.cli import parse_quiver_document
    from sodhh.modules import regular_bimodule
    A = parse_quiver_document(_beilinson_doc(4, {"kind": "q"})).build()
    tracemalloc.start()
    try:
        held = (A.enveloping(), regular_bimodule(A), dual_bimodule(A))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held[0].dim == 210 ** 2
    assert peak < 5 * 2 ** 20, peak


def test_regular_and_dual_bimodules_of_generated_p5_stay_small():
    """The regular and the dual bimodule of the generated P^5 algebra (dim
    792) under tracemalloc: with one action matrix per basis element and
    side they took 27 MB; as column functions read from the table, and
    two transposed tables for the dual, they take about 5 MB."""
    import tracemalloc
    from sodhh.cli import parse_quiver_document
    from sodhh.modules import regular_bimodule
    A = parse_quiver_document(_beilinson_doc(5, {"kind": "q"})).build()
    tracemalloc.start()
    try:
        held = (regular_bimodule(A), dual_bimodule(A))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held[0].dim == held[1].dim == 792
    assert peak < 10 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# Failed re-presentation checks raise, also under python -O

# k[x] with x * x = x: x is declared radical, but rad = rad^2, so no arrow
# is found and the paths do not span.
NOT_SPANNED = """
from sodhh.algebra import AlgebraAxiomError, algebra_from_structure
from sodhh.linalg import QQ
mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}}
try:
    algebra_from_structure(QQ, ("1",), ["e", "x"], mult, [0])
    print("accepted")
except AlgebraAxiomError as exc:
    print("AlgebraAxiomError:", exc)
"""

# No input reaches the coordinates check: the chosen basis always spans.
# With solving patched to fail, the first product reports it.
NO_COORDINATES = """
import sodhh.linalg
from sodhh.algebra import AlgebraAxiomError, algebra_from_structure
from sodhh.catalog import get_entry
from sodhh.linalg import QQ
A = get_entry("kronecker1").algebra(QQ)
sodhh.linalg.ColumnEchelon.solve = lambda self, vec: None
try:
    algebra_from_structure(QQ, A.vertex_names, A.labels, A.mult, A.idempotents)
    print("accepted")
except AlgebraAxiomError as exc:
    print("AlgebraAxiomError:", exc)
"""

# k x k has two vertices, so it cannot take part in a free gluing.
TWO_VERTEX_GLUING = """
from sodhh.catalog import get_entry
from sodhh.complexes import SideMismatch
from sodhh.linalg import QQ
from sodhh.modules import free_gluing_bimodule
kxk = get_entry("kxk").algebra(QQ)
point = get_entry("kronecker1").gluing(QQ)[0]
try:
    free_gluing_bimodule(kxk, point, 1)
    print("accepted")
except SideMismatch as exc:
    print("SideMismatch:", exc)
"""

# k[x] with x * x = x built directly: rad = rad^2 never vanishes.
NOT_NILPOTENT = """
from sodhh.algebra import Algebra, AlgebraAxiomError
from sodhh.linalg import QQ
mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}}
try:
    Algebra(QQ, ["e", "x"], mult, [0], ["1"]).radical_nilpotency_index()
    print("accepted")
except AlgebraAxiomError as exc:
    print("AlgebraAxiomError:", exc)
"""

CHECK_SCRIPTS = {
    "not spanned": (NOT_SPANNED, [
        "AlgebraAxiomError: graded basis did not span: found 1 of 2 "
        "basis elements"]),
    "no coordinates": (NO_COORDINATES, [
        "AlgebraAxiomError: the product of e(1) and e(1) has no "
        "coordinates in the graded basis"]),
    "not nilpotent": (NOT_NILPOTENT, [
        "AlgebraAxiomError: radical is not nilpotent"]),
    "two-vertex gluing": (TWO_VERTEX_GLUING, [
        "SideMismatch: free gluing needs single-vertex algebras, got 2 "
        "and 1 vertices"]),
}


@pytest.mark.parametrize("case", sorted(CHECK_SCRIPTS))
def test_failed_checks_raise(monkeypatch, capsys, case):
    import sodhh.linalg
    script, expected = CHECK_SCRIPTS[case]
    # NO_COORDINATES replaces ColumnEchelon.solve; undo that after the test
    monkeypatch.setattr(sodhh.linalg.ColumnEchelon, "solve",
                        sodhh.linalg.ColumnEchelon.solve)
    exec(script, {})
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("case", sorted(CHECK_SCRIPTS))
def test_failed_checks_raise_under_optimized_python(run_optimized, case):
    script, expected = CHECK_SCRIPTS[case]
    assert run_optimized(script) == expected


# ---------------------------------------------------------------------------
# Radical tuples, kept by length


def brute_force_radical_tuples(A, n):
    rad = A.radical_indices()
    return tuple(t for t in itertools.product(rad, repeat=n)
                 if all(A.src[t[i]] == A.tgt[t[i + 1]] for i in range(n - 1)))


def test_radical_tuples_match_brute_force(algebras):
    from sodhh.cli import parse_quiver_document
    from sodhh.complexes import radical_tuples
    cases = [(name, A, 4) for name, A in algebras.items()]
    cases += [(f"P^{n}", parse_quiver_document(
        _beilinson_doc(n, {"kind": "q"})).build(), top)
        for n, top in ((2, 4), (3, 3))]
    for name, A, top in cases:
        for n in [top, *range(top + 1)]:   # the longest first fills the cache
            assert radical_tuples(A, n) == brute_force_radical_tuples(A, n), \
                (name, n)


# ---------------------------------------------------------------------------
# build_path_algebra against the stratum construction it replaced


def reference_build(quiver, relations, field, length_cap=None):
    """The path algebra built stratum by stratum: every composable path of
    each length, every embedding x r y of every relation and the normal
    form of every path.  Raises NotFiniteDimensional as soon as a path
    stratum is still alive past the length cap, without reducing it.  The
    oracle for build_path_algebra, which must give the same labels, paths
    and table, key order included."""
    quiver = Quiver.make(quiver.vertices, quiver.arrows)
    for idx, rel in enumerate(relations):
        validate_relation(quiver, rel, idx)
    if length_cap is None:
        length_cap = 2 * len(quiver.arrows) + 2

    arrows = list(quiver.arrows)
    arrow_ix = {a.name: i for i, a in enumerate(arrows)}
    by_source = {}
    for i, a in enumerate(arrows):
        by_source.setdefault(a.source, []).append(i)

    def path_src(p):
        return arrows[p[0]].source

    def path_tgt(p):
        return arrows[p[-1]].target

    rels_by_len = {}
    for rel in relations:
        L = len(rel.terms[0][1])
        vec = [(field.coerce(c), tuple(arrow_ix[n] for n in pth)) for c, pth in rel.terms]
        if all(not c for c, _ in vec):
            continue
        rels_by_len.setdefault(L, []).append(vec)

    # strata[l] = ordered list of all composable paths of length l
    strata = {1: [(i,) for i in range(len(arrows))]}
    survivors = {1: list(strata[1])}  # relations have length >= 2
    normal = {1: {p: {p: field.one} for p in strata[1]}}  # path -> residue combo

    length = 1
    while True:
        length += 1
        prev = strata[length - 1]
        cur = [p + (i,) for p in prev for i in by_source.get(path_tgt(p), ())]
        if not cur:
            break
        if length > length_cap:
            raise NotFiniteDimensional(
                f"path strata still alive at length {length_cap}")
        index = {p: n for n, p in enumerate(cur)}
        gens = []
        for L, rvecs in rels_by_len.items():
            if L > length:
                continue
            # all embeddings  left . relation . right  of total length
            for lft_len in range(0, length - L + 1):
                rgt_len = length - L - lft_len
                for rvec in rvecs:
                    src, tgt = path_src(rvec[0][1]), path_tgt(rvec[0][1])
                    rights = [q for q in strata.get(rgt_len, [()])
                              if rgt_len == 0 or path_tgt(q) == src]
                    lefts = [q for q in strata.get(lft_len, [()])
                             if lft_len == 0 or path_src(q) == tgt]
                    for rgt in (rights if rgt_len else [()]):
                        for lft in (lefts if lft_len else [()]):
                            vec = {}
                            for c, middle in rvec:
                                key = index[rgt + middle + lft]
                                vec[key] = field.add(vec.get(key, field.zero), c)
                            gens.append({k: v for k, v in vec.items() if v})
        reducer = SubspaceReducer(field, len(cur), gens)
        surv = [p for n, p in enumerate(cur) if n not in reducer.cols]
        strata[length] = cur
        survivors[length] = surv
        normal[length] = {
            p: {cur[m]: v for m, v in reducer.normal_form({n: field.one}).items()}
            for n, p in enumerate(cur)}
        if not surv:
            break

    # assemble the basis: idempotents first, then residues by length
    labels = [f"e({v})" for v in quiver.vertices]
    basis_paths = [None] * len(quiver.vertices)
    vpos = {v: i for i, v in enumerate(quiver.vertices)}
    path_pos = {}
    ending_at = [[] for _ in quiver.vertices]  # (basis index, path) by target
    for l in sorted(survivors):
        for p in survivors[l]:
            path_pos[p] = len(labels)
            ending_at[vpos[path_tgt(p)]].append((len(labels), p))
            names = tuple(arrows[i].name for i in p)
            labels.append(_path_label(names))
            basis_paths.append(names)

    def nf_vector(p):
        # normal forms are combinations of survivors; past the last
        # stratum computed every path is zero
        return {path_pos[q]: v for q, v in normal.get(len(p), {}).get(p, {}).items()}

    # row-major over the composable pairs only; p*q is "q then p", so it
    # needs q to end where p starts
    mult = {}
    for v in range(len(quiver.vertices)):
        mult[(v, v)] = {v: field.one}
        for j, _ in ending_at[v]:
            mult[(v, j)] = {j: field.one}
    for p, i in path_pos.items():
        start = vpos[path_src(p)]
        mult[(i, start)] = {i: field.one}
        for j, q in ending_at[start]:
            pq = nf_vector(q + p)
            if pq:
                mult[(i, j)] = pq
    return PathAlgebra(field, labels, mult, list(range(len(quiver.vertices))),
                       quiver.vertices, quiver, relations, basis_paths)


@st.composite
def random_presentations(draw):
    """A random quiver on 1..4 vertices with 1..5 arrows, loops and oriented
    cycles allowed, and 0..6 relations of length 2..4, each a combination
    of parallel paths with coefficients in {1, -1, 2, 1/2}, over Q or F_3.
    Usually, and always past two arrows, every path of length 4 is killed
    too: the quotient is then finite-dimensional, and the reference, which
    lists every path up to the length cap 2 |arrows| + 2, stays fast."""
    vertices = [str(i) for i in range(draw(st.integers(1, 4)))]
    arrows = [(f"a{k}", draw(st.sampled_from(vertices)),
               draw(st.sampled_from(vertices)))
              for k in range(draw(st.integers(1, 5)))]
    paths = {1: [(a,) for a in arrows]}
    for length in (2, 3, 4):
        paths[length] = [p + (a,) for p in paths[length - 1] for a in arrows
                         if p[-1][2] == a[1]]
    relations = []
    for _ in range(draw(st.integers(0, 6))):
        length = draw(st.integers(2, 4))
        if not paths[length]:
            continue
        first = draw(st.sampled_from(paths[length]))
        parallel = [p for p in paths[length]
                    if (p[0][1], p[-1][2]) == (first[0][1], first[-1][2])]
        chosen = draw(st.lists(st.sampled_from(parallel), min_size=1,
                               max_size=3, unique=True))
        relations.append(Relation(tuple(
            (draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])),
             tuple(a[0] for a in p)) for p in chosen)))
    if len(arrows) > 2 or draw(st.integers(0, 4)):
        relations += [Relation(((1, tuple(a[0] for a in p)),))
                      for p in paths[4]]
    field = draw(st.sampled_from([QQ, GF(3)]))
    return Quiver.make(vertices, arrows), relations, field


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(random_presentations())
def test_right_extension_matches_reference_build(case):
    """Same labels, paths, table (key order included) and hash as the
    stratum construction, and NotFiniteDimensional on the same inputs but
    one: the reference gives up when words of the cap's length survive,
    even if they all die one length later, where build_path_algebra
    checks."""
    quiver, relations, field = case
    try:
        ref = reference_build(quiver, relations, field)
    except NotFiniteDimensional:
        try:
            A = build_path_algebra(quiver, relations, field)
        except NotFiniteDimensional:
            return
        longest = max(len(p) for p in A.basis_paths if p)
        assert longest == 2 * len(quiver.arrows) + 2
        return
    A = build_path_algebra(quiver, relations, field)
    assert A.labels == ref.labels
    assert A.basis_paths == ref.basis_paths
    assert list(A.mult) == list(ref.mult)
    assert A.mult == ref.mult
    assert structure_hash(A) == structure_hash(ref)


def test_build_reduces_only_relation_multiples_and_pivot_columns(monkeypatch):
    """Building generated P^3 takes one SubspaceReducer.normal_form per
    relation multiple x r (36, through SubspaceReducer.add) and one per
    pivot column (w, a) (32): 68.  A residue column's arrow map is the
    unit vector of its new word, so it takes none; the 40 residue columns
    had taken 40 more (108).  Both counts are read off the built algebra's
    words and relations."""
    from sodhh.cli import parse_quiver_document
    calls = []
    real = SubspaceReducer.normal_form

    def counting(self, vec):
        calls.append(vec)
        return real(self, vec)
    doc = parse_quiver_document(_beilinson_doc(3, {"kind": "q"}))
    monkeypatch.setattr(SubspaceReducer, "normal_form", counting)
    A = doc.build()
    monkeypatch.undo()
    vpos = {v: i for i, v in enumerate(A.vertex_names)}
    arrows = {a.name: a for a in A.quiver.arrows}
    out_degree = [sum(vpos[a.source] == v for a in arrows.values())
                  for v in range(A.num_vertices)]
    words = [(len(p) if p else 0, A.tgt[k]) for k, p in enumerate(A.basis_paths)]
    longest = max(n for n, _ in words)
    multiples = 0
    for rel in A.relations:
        first = rel.terms[0][1]
        start = vpos[arrows[first[0]].source]
        multiples += sum(n + len(first) <= longest + 1 and t == start
                         for n, t in words)
    columns = sum(out_degree[t] for n, t in words if n)
    pivots = columns - sum(n >= 2 for n, _ in words)
    assert (multiples, pivots, columns) == (36, 32, 72)
    assert len(calls) == multiples + pivots == 68


# ---------------------------------------------------------------------------
# The center and the radical index against the constructions they replaced


def reference_center(a):
    """dim Z(A) from the dim^2 x dim matrix of z |-> (z b_i - b_i z)_i over
    the whole basis: the oracle for center, which solves only over the
    e_v A e_v against the radical generators."""
    f = a.field
    # row i * dim + k, column j: the b_k coefficient of b_j b_i - b_i b_j
    entries = {}
    for (i, j), x in a.mult.items():
        for k, v in x.items():
            key = (j * a.dim + k, i)
            entries[key] = f.add(entries.get(key, f.zero), v)
            key = (i * a.dim + k, j)
            entries[key] = f.sub(entries.get(key, f.zero), v)
    _, kernel, _ = rank_kernel_image(
        Matrix.from_entries(f, a.dim * a.dim, a.dim, entries))
    return kernel.ncols


def center_by_axpy(a):
    """center as it was computed before its columns were written in place:
    each product remapped to the rows r * dim + k and added by axpy.  The
    oracle for the dimension and the basis, dict for dict."""
    from sodhh.algebra import _radical_generators
    from sodhh.linalg import ColumnEchelon, axpy
    f = a.field
    diag = [k for k in range(a.dim) if a.src[k] == a.tgt[k]]
    gens = _radical_generators(a)
    cols = []
    for d in diag:
        col = {}
        for r, g in enumerate(gens):
            for x, c in ((a.product(d, g), f.one),
                         (a.product(g, d), f.neg(f.one))):
                axpy(f, col, {r * a.dim + k: v for k, v in x.items()}, c)
        cols.append(col)
    kernel = ColumnEchelon(Matrix(f, len(gens) * a.dim, len(diag),
                                  cols)).kernel_basis()
    basis = [{diag[n]: c for n, c in z.items()} for z in kernel]
    return len(basis), basis


def plain_algebra(A):
    """The same table as a plain Algebra, which records no radical index."""
    return Algebra(A.field, A.labels, A.mult, A.idempotents, A.vertex_names)


def finite_presentations():
    """random_presentations whose quotient is finite-dimensional."""
    def build(case):
        try:
            return build_path_algebra(*case)
        except NotFiniteDimensional:
            return None
    return random_presentations().map(build).filter(lambda A: A is not None)


BEILINSON_FIELDS = ({"kind": "q"}, {"kind": "fp", "p": 32003})


def _assert_center(A):
    dim, basis = center(A)
    assert dim == len(basis) == reference_center(A)
    assert (dim, basis) == center_by_axpy(A)
    for z in basis:
        for k in range(A.dim):
            bk = {k: A.field.one}
            assert A.multiply(z, bk) == A.multiply(bk, z)
    return dim


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(finite_presentations())
def test_center_matches_reference_on_random_quivers(A):
    """Loops and oriented cycles, Q and F_3: the dimension equals the dim^2
    oracle's and every vector is central.  HH^0 = Z(A) is checked up to
    dimension 36: past it, on one vertex with four or five loops, the
    minimal bimodule resolution over A (x) A^op (dim 68^2 and more) takes
    seconds per example."""
    dim = _assert_center(A)
    if A.dim <= 36:
        assert hh_cohomology(A, 0).dim(0) == dim


def commutator_quotient_dim(a):
    """dim A/[A,A], with [A,A] spanned by the b_i b_j - b_j b_i: the oracle
    for HH_0."""
    f = a.field
    cols = []
    for i, j in a.mult:
        if i < j or (j, i) not in a.mult:
            col = dict(a.product(i, j))
            for k, v in a.product(j, i).items():
                col[k] = f.sub(col.get(k, f.zero), v)
            cols.append({k: v for k, v in col.items() if v})
    return a.dim - rank(Matrix(f, a.dim, len(cols), cols))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(finite_presentations())
def test_hh0_is_commutator_quotient_on_random_quivers(A):
    """HH_0 = A/[A,A] on loops and oriented cycles, Q and F_3, up to the
    center test's dimension 36."""
    if A.dim <= 36:
        assert hh_homology(A, 0).dim(0) == commutator_quotient_dim(A)


def test_center_matches_reference_on_catalog_and_beilinson(algebras):
    from sodhh.cli import parse_quiver_document
    cases = list(algebras.values())
    cases += [parse_quiver_document(_beilinson_doc(n, fd)).build()
              for n in (2, 3, 4, 5) for fd in BEILINSON_FIELDS]
    for A in cases:
        assert center(A)[0] == reference_center(A)
        assert center(A) == center_by_axpy(A)


def test_no_two_products_are_one_dict(algebras):
    """build_path_algebra puts a copy of an arrow map into the table, never
    the map itself: no two values of A.mult are the same object, on the
    catalog over Q and F_3 and on generated P^2..P^4."""
    from sodhh.cli import parse_quiver_document
    cases = list(algebras.values())
    cases += [entry.algebra(GF(3)) for entry in CATALOG.values()]
    cases += [parse_quiver_document(_beilinson_doc(n, fd)).build()
              for n in (2, 3, 4) for fd in BEILINSON_FIELDS]
    for A in cases:
        assert len({id(x) for x in A.mult.values()}) == len(A.mult)


def _assert_recorded_matches_plain(A):
    """The radical index and the grading build_path_algebra records equal
    the ones a plain Algebra finds from the table."""
    plain = plain_algebra(A)
    assert A.radical_nilpotency_index() == plain.radical_nilpotency_index()
    assert (A.src, A.tgt) == (plain.src, plain.tgt)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(finite_presentations())
def test_recorded_radical_index_matches_loop_on_random_quivers(A):
    assert "radical_nilpotency_index" in A._cache
    _assert_recorded_matches_plain(A)


def test_recorded_radical_index_matches_loop_on_catalog_and_beilinson(algebras):
    from sodhh.cli import parse_quiver_document
    cases = list(algebras.values())
    cases += [parse_quiver_document(_beilinson_doc(n, fd)).build()
              for n in (2, 3, 4, 5) for fd in BEILINSON_FIELDS]
    for A in cases:
        _assert_recorded_matches_plain(A)


def test_algebra_from_structure_multiplies_out_the_radical():
    """k<x, y>/(xy, yx, x^2 - y^3, y^4) is not graded by path length: its
    longest basis path has length 2, but rad^3 = k y^3 != 0.  The re-
    presentation records no index, and the loop finds 4."""
    mult = {(0, 0): {0: 1}}
    for k in range(1, 5):
        mult[(0, k)] = mult[(k, 0)] = {k: 1}
    # basis e, x, y, y^2, y^3 = x^2
    mult.update({(1, 1): {4: 1}, (2, 2): {3: 1}, (2, 3): {4: 1}, (3, 2): {4: 1}})
    B = algebra_from_structure(QQ, ["1"], ["e", "x", "y", "y2", "y3"], mult, [0])
    assert "radical_nilpotency_index" not in B._cache
    assert max(len(p) for p in B.basis_paths if p) == 2
    assert B.radical_nilpotency_index() == 4
