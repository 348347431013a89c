import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodhh.algebra import Algebra, Quiver, Relation, build_path_algebra, center
from sodhh.catalog import CATALOG
from sodhh.complexes import bar_resolution, ext_profile, koszul_resolution
from sodhh.hochschild import (absolute_hh_cohomology, absolute_hh_homology,
                              diagonal_resolution, global_dimension,
                              hh_cohomology, hh_homology,
                              hh_with_coefficients, homology_via_serre_dual)
from sodhh.kernels import generalized_hoh
from sodhh.linalg import GF, QQ, Matrix, rank
from sodhh.modules import dual_bimodule, regular_bimodule


def commutator_quotient_dim(A):
    """dim A/[A,A] computed directly from the span of commutators."""
    f = A.field
    cols = []
    for i in range(A.dim):
        for j in range(A.dim):
            bi, bj = {i: f.one}, {j: f.one}
            c = A.add(A.multiply(bi, bj), A.scale(A.multiply(bj, bi), -1))
            if c:
                cols.append(c)
    if not cols:
        return A.dim
    return A.dim - rank(Matrix(f, A.dim, len(cols), cols))


def test_kronecker3_cohomology(algebras):
    assert hh_cohomology(algebras["kronecker3"], 6).as_tuple() == \
        (1, 8, 0, 0, 0, 0, 0)


def test_point_cohomology():
    A = build_path_algebra(Quiver.make(("1",), ()), [], QQ)
    assert hh_cohomology(A, 4).as_tuple() == (1, 0, 0, 0, 0)
    assert hh_homology(A, 4).as_tuple() == (1, 0, 0, 0, 0)
    assert homology_via_serre_dual(A, 4).as_tuple() == (1, 0, 0, 0, 0)


def test_kronecker2_profiles(algebras):
    A = algebras["kronecker2"]
    assert hh_cohomology(A, 6).as_tuple() == (1, 3, 0, 0, 0, 0, 0)
    assert hh_homology(A, 6).as_tuple() == (2, 0, 0, 0, 0, 0, 0)


def test_beilinson_profiles(algebras):
    B = algebras["beilinson-p2"]
    assert hh_cohomology(B, 6).as_tuple() == (1, 8, 10, 0, 0, 0, 0)
    assert hh_homology(B, 6).as_tuple() == (3, 0, 0, 0, 0, 0, 0)


def test_loop_profiles(algebras):
    A = algebras["loop-x2"]
    assert hh_cohomology(A, 6).as_tuple() == (2, 1, 1, 1, 1, 1, 1)
    assert hh_homology(A, 6).as_tuple() == (2, 1, 1, 1, 1, 1, 1)


def test_kxk_homology(algebras):
    assert hh_homology(algebras["kxk"], 4).as_tuple() == (2, 0, 0, 0, 0)


def test_kronecker3_homology(algebras):
    assert hh_homology(algebras["kronecker3"], 6).as_tuple() == \
        (2, 0, 0, 0, 0, 0, 0)
    assert homology_via_serre_dual(algebras["kronecker3"], 6).as_tuple() == \
        (2, 0, 0, 0, 0, 0, 0)


def test_hh0_is_center(algebras):
    for name, A in algebras.items():
        assert hh_cohomology(A, 2).dim(0) == center(A)[0], name


def test_hh0_is_commutator_quotient(algebras):
    for name, A in algebras.items():
        assert hh_homology(A, 2).dim(0) == commutator_quotient_dim(A), name


def test_hereditary_vanishing(algebras):
    for name in ("kronecker1", "kronecker2", "kronecker3", "a2-quiver"):
        A = algebras[name]
        hc = hh_cohomology(A, 6)
        hh = hh_homology(A, 6)
        assert all(hc.dim(n) == 0 for n in range(2, 7)), name
        assert all(hh.dim(n) == 0 for n in range(1, 7)), name


def test_serre_dual_duality(algebras):
    """dim Ext^n(A, DA) = dim HH_n(A) for every catalog algebra, n <= 6."""
    for name, A in algebras.items():
        assert homology_via_serre_dual(A, 6).as_tuple() == \
            hh_homology(A, 6).as_tuple(), name


def test_oracle_equivalence(algebras):
    """Relative-bar profiles equal truncated absolute-bar profiles for
    every catalog algebra of dim <= 6, degrees <= 3."""
    for name, A in algebras.items():
        if A.dim > 6:
            continue
        assert hh_cohomology(A, 3).as_tuple() == \
            absolute_hh_cohomology(A, 3).as_tuple(), name
        assert hh_homology(A, 3).as_tuple() == \
            absolute_hh_homology(A, 3).as_tuple(), name


def test_coefficients_in_diagonal(algebras):
    for name in ("kronecker2", "loop-x2", "beilinson-p2"):
        A = algebras[name]
        prof = hh_with_coefficients(A, regular_bimodule(A), 4)
        assert prof.as_tuple() == hh_cohomology(A, 4).as_tuple()


def test_coefficients_in_dual_degree_zero(algebras):
    for name, A in algebras.items():
        prof = hh_with_coefficients(A, dual_bimodule(A), 4)
        assert prof.dim(0) == hh_homology(A, 4).dim(0), name


def test_coefficients_point_multiplicity():
    A = build_path_algebra(Quiver.make(("1",), ()), [], QQ)
    from sodhh.modules import ModuleRep
    from sodhh.linalg import Matrix
    env = A.enveloping()
    d = 3
    M = ModuleRep(env, d, [Matrix.identity(QQ, d)], (0,) * d, check=True)
    assert hh_with_coefficients(A, M, 3).as_tuple() == (3, 0, 0, 0)


def test_global_dimension(algebras):
    assert global_dimension(algebras["kronecker2"], 6) == 1
    assert global_dimension(algebras["beilinson-p2"], 6) == 2
    assert global_dimension(algebras["kxk"], 6) == 0
    assert global_dimension(algebras["loop-x2"], 6) is None


def test_finiteness_note(algebras):
    assert "global dimension 1" in hh_cohomology(algebras["kronecker3"], 6).note
    assert hh_cohomology(algebras["loop-x2"], 4).note == ""


def test_prime_field_agreement():
    """The F_p fast mode agrees with Q on every catalog case."""
    for name, entry in CATALOG.items():
        Aq = entry.algebra(QQ)
        Ap = entry.algebra(GF(32003))
        assert hh_cohomology(Aq, 4).as_tuple() == hh_cohomology(Ap, 4).as_tuple(), name
        assert hh_homology(Aq, 4).as_tuple() == hh_homology(Ap, 4).as_tuple(), name


def test_generalized_matches_named_routes(algebras):
    A = algebras["kronecker2"]
    assert generalized_hoh("diagonal", "diagonal", 4, algebra=A).as_tuple() == \
        hh_cohomology(A, 4).as_tuple()
    assert generalized_hoh("diagonal", "serre", 4, algebra=A).as_tuple() == \
        hh_homology(A, 4).as_tuple()


def test_profile_bound_enforced(algebras):
    prof = hh_cohomology(algebras["kronecker2"], 3)
    with pytest.raises(IndexError):
        prof.dim(4)


def test_global_dimension_resolves_simples_once(algebras, monkeypatch):
    """An exact value answers every cap; "exceeds c" answers caps <= c."""
    import sodhh.hochschild as hochschild
    from sodhh.catalog import get_entry
    from sodhh.linalg import QQ
    calls = []
    real = hochschild.projective_resolution

    def counting(M, length):
        calls.append(M.grading)
        return real(M, length)

    monkeypatch.setattr(hochschild, "projective_resolution", counting)
    B = get_entry("beilinson-p2").algebra(QQ)
    assert [global_dimension(B, cap) for cap in (12, 6, 2, 1)] == \
        [2, 2, 2, None]
    assert sorted(calls) == [(0,), (1,), (2,)]
    L = get_entry("loop-x2").algebra(QQ)
    calls.clear()
    assert global_dimension(L, 4) is None and global_dimension(L, 2) is None
    assert len(calls) == 1
    assert global_dimension(L, 5) is None
    assert len(calls) == 2


@st.composite
def quadratic_quivers(draw):
    """A random acyclic quiver on 2..5 vertices, at most two arrows i -> i+1
    and one arrow i -> j further on, with random quadratic relations in each
    block of parallel paths of length 2, over Q or F_3."""
    n = draw(st.integers(2, 5))
    arrows = [(f"a{i}{j}{k}", str(i), str(j))
              for i in range(n) for j in range(i + 1, n)
              for k in range(draw(st.integers(0, 2 if j == i + 1 else 1)))]
    blocks = {}
    for x in arrows:
        for y in arrows:
            if x[2] == y[1]:
                blocks.setdefault((x[1], y[2]), []).append((x[0], y[0]))
    relations = []
    for _, paths in sorted(blocks.items()):
        for _ in range(draw(st.integers(0, len(paths)))):
            coeffs = draw(st.lists(st.sampled_from([0, 1, -1, 2]),
                                   min_size=len(paths), max_size=len(paths)))
            terms = tuple((c, p) for c, p in zip(coeffs, paths) if c)
            if terms:
                relations.append(Relation(terms))
    field = draw(st.sampled_from([QQ, GF(3)]))
    quiver = Quiver.make([str(i) for i in range(n)], arrows)
    return build_path_algebra(quiver, relations, field)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(quadratic_quivers())
def test_diagonal_resolution_matches_bar_route(A):
    """Whichever route diagonal_resolution takes, Ext into the regular and
    the dual bimodule equals the bar route's (both resolutions are
    complete: the quivers are acyclic with paths of length <= 4)."""
    ours, bar = diagonal_resolution(A, 5), bar_resolution(A, 5)
    for M in (regular_bimodule(A), dual_bimodule(A)):
        assert ext_profile(ours, M) == ext_profile(bar, M)


def _not_koszul(field):
    """0 -a-> 1 =(b0, b1)=> 2 =(c0, c1)=> 3 -d-> 4 with a b1 = 0,
    b1 c0 = b0 c0 + b1 c1 and c0 d = 0 (paths in traversal order): a
    quadratic algebra that is not Koszul, since b1 c1 d = b1 c0 d - b0 c0 d
    = 0 puts a class of internal degree 4 into Ext^3(S_0, S_4)."""
    arrows = [("a", "0", "1"), ("b0", "1", "2"), ("b1", "1", "2"),
              ("c0", "2", "3"), ("c1", "2", "3"), ("d", "3", "4")]
    relations = [Relation(((1, ("a", "b1")),)),
                 Relation(((1, ("b1", "c0")), (-1, ("b0", "c0")),
                           (-1, ("b1", "c1")))),
                 Relation(((1, ("c0", "d")),))]
    return build_path_algebra(Quiver.make(list("01234"), arrows), relations,
                              field)


def test_diagonal_resolution_takes_the_koszul_route_when_certified(algebras):
    B = algebras["beilinson-p2"]
    res = diagonal_resolution(B, 4)
    assert {n: len(t) for n, t in res.terms.items()} == {0: 3, -1: 6, -2: 3}
    assert res.terms == koszul_resolution(B, 4).terms


def test_diagonal_resolution_falls_back_to_bar(algebras):
    """A cubic relation, an algebra that is not a PathAlgebra and a failing
    Koszul certificate each give the bar route."""
    cubic = build_path_algebra(
        Quiver.make(list("1234"), [("a", "1", "2"), ("b", "2", "3"),
                                   ("c", "3", "4")]),
        [Relation(((1, ("a", "b", "c")),))], QQ)
    B = algebras["beilinson-p2"]
    table = Algebra(B.field, B.labels, B.mult, B.idempotents, B.vertex_names)
    for A in (cubic, table, _not_koszul(QQ), _not_koszul(GF(3))):
        assert diagonal_resolution(A, 5).terms == bar_resolution(A, 5).terms
    assert hh_cohomology(table, 4).as_tuple() == (1, 8, 10, 0, 0)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_failing_certificate_is_needed(field):
    """On the non-Koszul algebra the Koszul complex is not a resolution:
    its Ext differs from the bar route's, which diagonal_resolution
    returns."""
    A = _not_koszul(field)
    M = regular_bimodule(A)
    bar = ext_profile(bar_resolution(A, 5), M)
    assert ext_profile(koszul_resolution(A, 5), M) != bar
    assert hh_with_coefficients(A, M, 5).as_tuple() == \
        tuple(bar.get(n, 0) for n in range(6))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(quadratic_quivers())
def test_resolutions_of_random_quiver_simples_match_reference(A):
    from sodhh.modules import simple_module
    from test_complexes import assert_matches_reference
    for v in range(A.num_vertices):
        assert_matches_reference(simple_module(A, v), 5)


def test_algebra_graph_is_freed_without_the_cyclic_collector():
    """A keeps A.enveloping() and A.opposite() by weak references, so
    refcounting alone frees an algebra and everything built from it."""
    import gc
    import weakref
    enabled = gc.isenabled()
    gc.disable()
    try:
        A = CATALOG["beilinson-p2"].algebra(QQ)
        hh_cohomology(A, 3)
        homology_via_serre_dual(A, 3)
        op = A.opposite()
        alive = weakref.ref(A)
        del op
        del A
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_derived_algebras_are_shared_while_held(algebras):
    A = algebras["beilinson-p2"]
    env, op = A.enveloping(), A.opposite()
    assert A.enveloping() is env and env.factors == (A, A)
    assert A.opposite() is op and op.opposite() is A
