import pytest

from sodhh.algebra import (AlgebraAxiomError, NonAdmissible,
                           NotFiniteDimensional, Quiver, Relation,
                           build_path_algebra, center)
from sodhh.catalog import CATALOG, structure_hash
from sodhh.complexes import ext_profile, single_projective
from sodhh.linalg import QQ, SubspaceReducer
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
mult = [list(row) for row in A.mult]
mult[x0][A.idempotents[A.src[x0]]] = {}
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
    A.mult[b][a] = {k: QQ.coerce(2)}
    with pytest.raises(AlgebraAxiomError, match="not associative on"):
        A.check_axioms()
