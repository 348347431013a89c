import pytest

from sodhh.algebra import Quiver, Relation, build_path_algebra
from sodhh.catalog import CATALOG
from sodhh.complexes import (FieldComplex, ModuleComplex, ModuleHomComplex,
                             _tensor_total, dualize, ext_profile,
                             module_complex_single, projective_resolution,
                             serre_twist_left, single_projective,
                             tensor_env_module)
from sodhh.exceptional import (ExceptionalCollection, dual_collection,
                               minimal_data, mutate, projective_collection)
from sodhh.hochschild import diagonal_resolution, hh_homology
from sodhh.kernels import (Kernel, NormalizationFailed, RangeNotCertified,
                           UnsupportedKernelShape, additivity_check,
                           convolution_homology_dims,
                           decomposable_class, decomposable_ext,
                           decomposable_to_env, fullness_certificate,
                           generalized_hoh, k0_identity_check, kernel_adjoint,
                           les_check, orthogonality_report,
                           projection_kernels)
from sodhh.linalg import GF, QQ, Matrix
from sodhh.modules import (ModuleRep, dual_bimodule, free_gluing_bimodule,
                           regular_bimodule, simple_module)


def kron(n):
    q = Quiver.make(("1", "2"), tuple((chr(97 + i), "1", "2") for i in range(n)))
    return build_path_algebra(q, [], QQ)


def point():
    return build_path_algebra(Quiver.make(("1",), ()), [], QQ)


@pytest.fixture(scope="module")
def K2():
    return kron(2)


@pytest.fixture(scope="module")
def ks2(K2):
    return projection_kernels(projective_collection(K2))


@pytest.fixture(scope="module")
def B(algebras):
    return algebras["beilinson-p2"]


@pytest.fixture(scope="module")
def ksB(B):
    return projection_kernels(projective_collection(B))


# -- convolution --------------------------------------------------------------


def test_convolution_decomposable_contraction(K2, ks2):
    """(E (x) F') o (G (x) H') contracts through the middle complex
    F' (x)_A G: projections to orthogonal pieces compose to 0, and P_i o P_i
    has the homology of P_i."""
    P1, P2 = ks2
    assert convolution_homology_dims(P1, P2) == {}
    assert convolution_homology_dims(P2, P1) == {}
    for P in ks2:
        assert convolution_homology_dims(P, P) == \
            decomposable_to_env(P.left, P.right).homology_dims()


def test_convolution_termwise_dimensions(K2):
    """(E (x) F') o (G (x) H') of single projectives has homology of
    dimension dim E * dim(F' (x)_A G) * dim H' in degree 0, and
    F' (x)_A G = Hom_A(F'^v, G)."""
    E = single_projective(K2, 1)          # A e_2
    Fp = dualize(single_projective(K2, 1))  # e_2 A
    G = single_projective(K2, 0)          # A e_1
    Hp = dualize(single_projective(K2, 1))
    L = Kernel(E, Fp)
    K = Kernel(G, Hp)
    W = ModuleHomComplex(dualize(Fp), G).field_complex()   # e_2 A e_1
    assert W.dims == {0: 2}
    dimE = len(K2.column_indices(1))                 # dim A e_2 = 1
    dimH = len(K2.opposite().column_indices(1))      # dim e_2 A = 3
    assert convolution_homology_dims(L, K) == {0: dimE * 2 * dimH}


def test_bar_convolution_is_identity_on_homology(K2):
    """The diagonal's resolution P convolved with the diagonal A,
    P (x)_A A, has the homology of A."""
    T = tensor_env_module(diagonal_resolution(K2, 6), regular_bimodule(K2))
    assert FieldComplex(K2.field, {n: M.dim for n, M in T.modules.items()},
                        T.diffs).homology_dims() == {0: K2.dim}


# -- Serre kernel ---------------------------------------------------------------


def test_serre_point():
    A = point()
    res = serre_twist_left(single_projective(A, 0))
    assert isinstance(res, ModuleComplex)
    assert res.modules[0].dim == 1


def test_serre_duality_on_projectives(K2):
    """total dim Ext(A e_1, S(A e_2)) = dim Ext(A e_2, A e_1)."""
    SP = serre_twist_left(single_projective(K2, 1))
    lhs = ModuleHomComplex(single_projective(K2, 0), SP).ext_profile()
    rhs = ext_profile(single_projective(K2, 1), single_projective(K2, 0))
    assert sum(lhs.values()) == sum(rhs.values()) == 2


def test_serre_duality_graded_probes(K2):
    """dim Ext^n(X, S Y) = dim Ext^{-n}(Y, X) on simples and projectives."""
    n = 4
    probes = [single_projective(K2, v) for v in range(2)]
    probes += [projective_resolution(simple_module(K2, v), n + 1)
               for v in range(2)]
    for X in probes:
        for Y in probes:
            lhs = ModuleHomComplex(X, serre_twist_left(Y)).ext_profile()
            rhs = ext_profile(Y, X)
            for d in range(-n, n + 1):
                assert lhs.get(d, 0) == rhs.get(-d, 0)


# -- adjoints --------------------------------------------------------------------


def applied(K, X):
    """K o X = M (x)_k W for a decomposable kernel K = E (x) H' and a
    left-module complex X, as M and the homology of W: M is E, or
    DA (x)_A E for a left twist, and W = H' (x)_A X = Hom_A(H'^v, X), X
    replaced by DA (x)_A X for a right twist."""
    M = serre_twist_left(K.left) if K.twist == "left" else K.left
    Y = serre_twist_left(X) if K.twist == "right" else X
    return M, ModuleHomComplex(dualize(K.right), Y).field_complex() \
        .homology_dims()


def ext_from_applied(K, X, Y):
    """dim Ext(K o X, Y) = Ext(M, Y) (x) D W by Kuenneth (M projective)."""
    from test_complexes import kuenneth
    M, hW = applied(K, X)
    return kuenneth(ext_profile(M, Y), _reflected(hW))


def ext_into_applied(X, K, Y):
    """dim Ext(X, K o Y) = Ext(X, M) (x) W by Kuenneth."""
    from test_complexes import kuenneth
    M, hW = applied(K, Y)
    return kuenneth(ext_profile(X, M), hW)


def test_adjunction_probe(K2, ks2):
    """dim Hom(Phi_{P_1} S_v, S_w) = dim Hom(S_v, Phi_{P_1^!} S_w)."""
    P1 = ks2[0]
    radj = kernel_adjoint(P1, "right")
    for v in range(2):
        for w in range(2):
            res_v = projective_resolution(simple_module(K2, v), 6)
            lhs = ext_from_applied(P1, res_v,
                                   module_complex_single(simple_module(K2, w)))
            rhs = ext_into_applied(res_v, radj, projective_resolution(
                simple_module(K2, w), 6))
            assert lhs == rhs, (v, w)


def test_left_adjunction_probe(K2, ks2):
    """dim Ext(Phi_{P^*} S_v, S_w) = dim Ext(S_v, Phi_P S_w)."""
    P1 = ks2[0]
    ladj = kernel_adjoint(P1, "left")
    for v in range(2):
        for w in range(2):
            res_v = projective_resolution(simple_module(K2, v), 6)
            res_w = projective_resolution(simple_module(K2, w), 6)
            lhs = ext_from_applied(ladj, res_v,
                                   module_complex_single(simple_module(K2, w)))
            rhs = ext_into_applied(res_v, P1, res_w)
            assert lhs == rhs, (v, w)


def test_double_adjoint_returns_original(K2, ks2, ksB):
    for ks in (ks2, ksB):
        for P in ks:
            dd = kernel_adjoint(kernel_adjoint(P, "right"), "left")
            assert minimal_data(decomposable_to_env(dd.left, dd.right)) == \
                minimal_data(decomposable_to_env(P.left, P.right))
            dd2 = kernel_adjoint(kernel_adjoint(P, "left"), "right")
            assert minimal_data(decomposable_to_env(dd2.left, dd2.right)) == \
                minimal_data(decomposable_to_env(P.left, P.right))


# -- projection kernels -----------------------------------------------------------


def test_projection_kernels_selfext(K2, ks2):
    for P in ks2:
        env = decomposable_to_env(P.left, P.right)
        assert ext_profile(env, env) == {0: 1}


def test_k0_identity(K2, ks2, B, ksB):
    assert k0_identity_check(ks2, K2)
    assert k0_identity_check(ksB, B)


def test_orthogonality_kronecker(K2, ks2):
    rep = orthogonality_report(ks2)
    assert rep["offdiagonal_zero"] and rep["diagonal_identity"]
    assert rep["adjoint_vanishing"]
    assert rep["ext_serre_table"][(1, 1)] == {0: 1}
    assert rep["ext_serre_table"][(1, 2)] == {}
    assert rep["ext_serre_table"][(2, 1)] == {}


def test_orthogonality_beilinson(B, ksB):
    rep = orthogonality_report(ksB)
    assert rep["offdiagonal_zero"] and rep["diagonal_identity"]
    assert rep["adjoint_vanishing"]
    assert len([1 for (i, j) in rep["ext_serre_table"] if i != j]) == 6


def test_orthogonality_single_object(K2):
    coll = ExceptionalCollection(K2, [single_projective(K2, 1)])
    with pytest.raises(NormalizationFailed):
        projection_kernels(coll)   # a single object is not full: K_0 fails


def test_orthogonality_single_object_point():
    A = point()
    coll = projective_collection(A)
    ks = projection_kernels(coll)
    rep = orthogonality_report(ks)
    assert rep["ext_serre_table"] == {(1, 1): {0: 1}}


def test_projection_kernels_refuse_non_projective_objects(B):
    """A left mutation of the projective collection is exceptional and
    full, but its first object is a two-term complex: there is no simple
    for its right factor to resolve."""
    coll = mutate(projective_collection(B), 1, "left")
    assert set(coll.objects[0].terms) == {-1, 0}
    with pytest.raises(UnsupportedKernelShape, match="indecomposable "
                       "projectives; E_1"):
        projection_kernels(coll)


def test_projection_kernels_refuse_an_infinite_resolution():
    """On the 2-cycle with radical square zero, A e_1 alone is exceptional
    (e_1 A e_1 = k), but the simple right module at 1 has an infinite
    resolution; the resolution stops at degree -2 (two vertices) and the
    call raises instead of running on."""
    q = Quiver.make(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
    A = build_path_algebra(q, [Relation(((1, ("a", "b")),)),
                               Relation(((1, ("b", "a")),))], QQ)
    coll = ExceptionalCollection(A, [single_projective(A, 0)])
    with pytest.raises(NormalizationFailed, match="resolution of length < 2"):
        projection_kernels(coll)


# k(1 <-> 2)/(ab) (paths in traversal order) is Koszul of global dimension
# 2, the number of vertices, so K is certified and the simple right module
# at 1, sliced off it, reaches degree -2.  A e_1 alone is exceptional.
TWO_CYCLE_ONE_RELATION = """
import sodhh.hochschild as hochschild
import sodhh.kernels as kernels
from sodhh.algebra import Quiver, Relation, build_path_algebra
from sodhh.complexes import single_projective
from sodhh.exceptional import ExceptionalCollection
from sodhh.linalg import QQ
q = Quiver.make(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
A = build_path_algebra(q, [Relation(((1, ("a", "b")),))], QQ)
resolved = []
real = hochschild.projective_resolution
hochschild.projective_resolution = lambda *args: resolved.append(args) or \\
    real(*args)
try:
    kernels.projection_kernels(ExceptionalCollection(
        A, [single_projective(A, 0)]))
    print("accepted")
except kernels.NormalizationFailed as exc:
    print(f"{type(exc).__name__}: {exc}")
print(kernels.global_dimension(A, 12), len(resolved))
"""


TWO_CYCLE_ONE_RELATION_RAISED = [
    "NormalizationFailed: the simple right module at the vertex of E_1 has "
    "no resolution of length < 2; A is not directed, so the collection is "
    "not full", "2 0"]


def test_projection_kernels_refuse_a_long_koszul_slice(capsys, monkeypatch):
    """The slice of the certified K raises as the minimal resolution did,
    and nothing is resolved."""
    import sodhh.hochschild as hochschild
    # the script wraps hochschild.projective_resolution; this puts it back
    monkeypatch.setattr(hochschild, "projective_resolution",
                        hochschild.projective_resolution)
    exec(TWO_CYCLE_ONE_RELATION, {})
    assert capsys.readouterr().out.splitlines() == \
        TWO_CYCLE_ONE_RELATION_RAISED


def test_projection_kernels_refuse_a_long_koszul_slice_under_optimized_python(
        run_optimized):
    assert run_optimized(TWO_CYCLE_ONE_RELATION) == \
        TWO_CYCLE_ONE_RELATION_RAISED


# -- additivity --------------------------------------------------------------------


def test_additivity_kronecker3(algebras):
    A = algebras["kronecker3"]
    add = additivity_check(A, projective_collection(A))
    assert add["degreewise_equal"] and add["summands_are_points"]
    assert add["hh_homology"].as_tuple() == (2, 0, 0, 0, 0, 0, 0)


def test_additivity_kronecker2(K2):
    add = additivity_check(K2, projective_collection(K2))
    assert add["degreewise_equal"] and add["summands_are_points"]


def test_additivity_beilinson(B):
    add = additivity_check(B, projective_collection(B))
    assert add["degreewise_equal"] and add["summands_are_points"]
    assert add["hh_homology"].as_tuple() == (3, 0, 0, 0, 0, 0, 0)


def test_additivity_point():
    A = point()
    add = additivity_check(A, projective_collection(A))
    assert add["degreewise_equal"] and add["summands_are_points"]
    assert add["hh_homology"].as_tuple() == (1, 0, 0, 0, 0, 0, 0)


# -- long exact sequence -------------------------------------------------------------


def test_les_kronecker3_gluing():
    k = point()
    res = les_check(k, k, free_gluing_bimodule(k, k, 3))
    assert res["euler_zero"]
    assert res["chase"] == (1, 2, 9, 8)
    assert res["chase_exact"]
    assert res["hh_glued"].as_tuple() == (1, 8, 0, 0, 0, 0, 0)
    assert res["ext_mm"].as_tuple() == (9, 0, 0, 0, 0, 0, 0)


def test_les_a2_gluing():
    k = point()
    res = les_check(k, k, free_gluing_bimodule(k, k, 1))
    assert res["euler_zero"]
    assert res["chase"] == (1, 2, 1, 0)
    assert res["chase_exact"]
    # 1 - 2 + 1 - 0 = 0
    assert res["hh_glued"].as_tuple() == (1, 0, 0, 0, 0, 0, 0)


def test_les_degenerate_zero_bimodule():
    k = point()
    res = les_check(k, k, free_gluing_bimodule(k, k, 0))
    assert res["euler_zero"]
    assert res["hh_glued"].as_tuple() == (2, 0, 0, 0, 0, 0, 0)
    assert res["ext_mm"].total() == 0


def test_les_range_certification(algebras):
    loop = algebras["loop-x2"]
    k = point()
    from sodhh.modules import bimodule_from_actions
    from sodhh.linalg import Matrix
    # m = k with loop acting by zero on the right: a (k, loop)-bimodule
    left = [Matrix.identity(QQ, 1)]
    right = [Matrix.identity(QQ, 1) if i == loop.idempotents[0]
             else Matrix.zeros(QQ, 1, 1) for i in range(loop.dim)]
    m = bimodule_from_actions(k, loop, left, right)
    with pytest.raises(RangeNotCertified):
        les_check(k, loop, m, 4)   # HH(loop) is nonzero at the bound


# -- fullness -----------------------------------------------------------------------


def test_fullness_beilinson(B):
    coll = projective_collection(B)
    assert fullness_certificate(B, coll)["verdict"] == \
        "full modulo Nonvanishing Conjecture"
    for picks in ((0, 1), (0, 2), (1, 2)):
        sub = ExceptionalCollection(B, [coll.objects[i] for i in picks])
        assert fullness_certificate(B, sub)["verdict"] == "not full"


def test_fullness_point():
    A = point()
    assert fullness_certificate(A, projective_collection(A))["verdict"] == \
        "full modulo Nonvanishing Conjecture"


# -- generalized Hochschild cohomology -------------------------------------------------


def test_generalized_unit_support(K2, ks2):
    """HH^* of an exceptional component, Ext(P, P) of its projection
    kernel, is k (test_projection_kernels_selfext checks the same over
    A (x) A^op)."""
    for P in ks2:
        assert generalized_hoh(P, "diagonal", 4).as_tuple() == \
            (1, 0, 0, 0, 0)


def test_generalized_serre_support_matches_homology(K2):
    assert generalized_hoh("diagonal", "serre", 4, algebra=K2).as_tuple() == \
        hh_homology(K2, 4).as_tuple()


def test_generalized_additivity_on_kernel_triangle(K2, ks2):
    """dim HOH_S(diagonal) = sum of dim HOH_S(P_i): the direct-sum
    consequence of the projection-kernel filtration of the diagonal."""
    total = generalized_hoh("diagonal", "serre", 4, algebra=K2)
    DA = dual_bimodule(K2)
    parts = []
    for P in ks2:
        env = decomposable_to_env(P.left, P.right)
        parts.append(ext_profile(env, tensor_env_module(env, DA)))
        assert generalized_hoh(P, "serre", 4).as_tuple() == \
            tuple(parts[-1].get(n, 0) for n in range(5))
    for n in range(5):
        assert total.dim(n) == sum(p.get(n, 0) for p in parts)


# Caller errors in the kernel calculus raise real exceptions, so
# `python -O` keeps them.
KERNEL_MISUSE = """
from sodhh.catalog import get_entry
from sodhh.exceptional import projective_collection
from sodhh.kernels import (convolution_homology_dims, generalized_hoh,
                           kernel_adjoint, projection_kernels)
from sodhh.linalg import QQ
A = get_entry("kronecker2").algebra(QQ)
P = projection_kernels(projective_collection(A))[0]
for build in (
        lambda: kernel_adjoint(P, "up"),
        lambda: kernel_adjoint(kernel_adjoint(P, "left"), "left"),
        lambda: convolution_homology_dims(kernel_adjoint(P, "left"),
                                          kernel_adjoint(P, "right")),
        lambda: generalized_hoh(kernel_adjoint(P, "left"), "serre", 2),
        lambda: generalized_hoh(P, "general", 2),
        lambda: generalized_hoh("P1", "serre", 2),
        lambda: generalized_hoh("diagonal", "diagonal", 2)):
    try:
        build()
        print("accepted")
    except ValueError as exc:
        print(f"{type(exc).__name__}: {exc}")
"""


KERNEL_MISUSE_RAISED = [
    "ValueError: adjoint side must be 'left' or 'right', got 'up'",
    "UnsupportedKernelShape: left adjoint of a right-twisted kernel",
    "UnsupportedKernelShape: convolution of doubly twisted kernels",
    "UnsupportedKernelShape: Kuenneth Ext needs an untwisted kernel, got "
    "Kernel(twist='right')",
    "ValueError: support must be 'diagonal' or 'serre', got 'general'",
    "ValueError: coefficients must be 'diagonal' or a Kernel, got 'P1'",
    "ValueError: diagonal coefficients need the algebra"]


def test_kernel_misuse_raises(capsys):
    exec(KERNEL_MISUSE, {})
    assert capsys.readouterr().out.splitlines() == KERNEL_MISUSE_RAISED


def test_kernel_misuse_raises_under_optimized_python(run_optimized):
    assert run_optimized(KERNEL_MISUSE) == KERNEL_MISUSE_RAISED


# -- Kuenneth over A and A^op against the A (x) A^op route ----------------------


KUENNETH_CASES = ([(name, field) for field in ("q", "f3")
                   for name, entry in CATALOG.items() if entry.has_collection]
                  + [("generated-p2", "q"), ("generated-p3", "q")])


def _case_algebra(name, field):
    if name.startswith("generated-p"):
        from sodhh.cli import parse_quiver_document
        from test_cli import _benchmark_inputs
        kind = {"kind": "q"} if field == "q" else {"kind": "fp", "p": 3}
        doc = _benchmark_inputs().beilinson_quiver_doc(int(name[-1]), kind,
                                                       101)
        return parse_quiver_document(doc).build()
    return CATALOG[name].algebra(QQ if field == "q" else GF(3))


@pytest.mark.parametrize("name,field", KUENNETH_CASES)
def test_kuenneth_matches_the_enveloping_route(name, field):
    """For every ordered pair of projection kernels, Ext(P_i, P_j) and
    Ext(P_i, P_j o S) from the factors over A and A^op (the twisted A^op
    factor read through the Nakayama isomorphism) equal Ext of the bimodule
    complexes decomposable_to_env, into P_j and into P_j (x)_A DA; each
    product K_0 class equals the bimodule complex's Euler class."""
    A = _case_algebra(name, field)
    DA = dual_bimodule(A)
    ks = projection_kernels(projective_collection(A))
    envs = [decomposable_to_env(P.left, P.right) for P in ks]
    nonzero = 0
    for P, envP in zip(ks, envs):
        env = envP.algebra
        assert decomposable_class(P) == {
            env.vertex_pair(code): c for code, c in envP.euler_class().items()}
        for Q, envQ in zip(ks, envs):
            plain = decomposable_ext(P, Q)
            assert plain == ext_profile(envP, envQ)
            twisted = decomposable_ext(P, Q, serre=True)
            assert twisted == ext_profile(envP, tensor_env_module(envQ, DA))
            nonzero += bool(plain) + bool(twisted)
    assert nonzero >= 2 * len(ks)


MUTATION_CASES = ([(name, field) for field in ("q", "f3")
                   for name, entry in CATALOG.items() if entry.has_collection]
                  + [(f"generated-p{n}", field) for field in ("q", "f3")
                     for n in (2, 3)])


@pytest.mark.parametrize("name,field", MUTATION_CASES)
def test_projection_kernels_match_the_mutation_route(name, field,
                                                     monkeypatch):
    """The right factors, the minimal resolutions of the simple right
    modules, are the dual objects of the mutation route, dualize(F_i[s_i])
    from dual_collection: the same terms and the same minimal_data; and
    decomposable_ext gives the same tables, plain and Serre-twisted, as
    kernels on those dual objects with Ext taken into the complex itself.
    projection_kernels runs no mutation."""
    import sodhh.exceptional as ex
    A = _case_algebra(name, field)
    coll = projective_collection(A)
    mutations = []
    real_mutation = ex.right_mutation_object

    def counting_mutation(F, E):
        mutations.append((F, E))
        return real_mutation(F, E)
    monkeypatch.setattr(ex, "right_mutation_object", counting_mutation)
    ks = projection_kernels(coll)
    assert mutations == []
    duals, shifts = dual_collection(coll)
    assert len(mutations) == len(coll) * (len(coll) - 1) // 2
    oracle = [Kernel(E, dualize(F.shift(s)))
              for E, F, s in zip(coll.objects, duals, shifts)]
    for P, Q in zip(ks, oracle):
        assert P.resolves.grading == P.left.terms[0]
        assert P.right.terms == Q.right.terms
        assert minimal_data(P.right) == minimal_data(Q.right)
    for P, P0 in zip(ks, oracle):
        for Q, Q0 in zip(ks, oracle):
            for serre in (False, True):
                assert decomposable_ext(P, Q, serre=serre) == \
                    decomposable_ext(P0, Q0, serre=serre)


def test_kernel_reports_build_no_twist_and_share_self_ext(B, monkeypatch):
    """additivity_check, generalized_hoh(P_i, 'serre') and
    orthogonality_report build no Serre twist (the adjoint convolutions
    read theirs by the Nakayama isomorphism); each kernel's
    self-Ext factors Ext(E_i, E_i) and Ext(F_i', S_i), the right one taken
    into the simple S_i that F_i' resolves, are computed once, by
    projection_kernels, and read again by the additivity summands, the
    diagonal of the orthogonality table and generalized_hoh."""
    import sodhh.complexes as cx
    import sodhh.kernels as kn
    twists, exts, built = [], [], []
    real_twist, real_ext = cx.serre_twist_left, kn.ext_profile
    real_kernels = kn.projection_kernels

    def counting_twist(X):
        twists.append(X)
        return real_twist(X)

    def counting_ext(X, Y):
        exts.append((id(X), id(Y)))
        return real_ext(X, Y)

    def keeping_kernels(coll):
        built.append(real_kernels(coll))
        return built[-1]

    def self_factors(ks):
        return {(id(X), id(Y)) for P in ks
                for X, Y in ((P.left, P.left), (P.right, P.resolves))}
    assert not hasattr(kn, "serre_twist_left")
    monkeypatch.setattr(cx, "serre_twist_left", counting_twist)
    monkeypatch.setattr(kn, "ext_profile", counting_ext)
    monkeypatch.setattr(kn, "projection_kernels", keeping_kernels)
    coll = projective_collection(B)
    m = len(coll)
    assert additivity_check(B, coll)["summands_are_points"]
    assert twists == []
    assert len(built) == 1 and all(P.resolves is not None for P in built[0])
    assert len(exts) == len(set(exts)) == 2 * m
    assert set(exts) == self_factors(built[0])
    exts.clear()
    ks = real_kernels(coll)
    selfs = self_factors(ks)
    assert len(exts) == len(set(exts)) == 2 * m and set(exts) == selfs
    for P in ks:
        assert generalized_hoh(P, "serre", 4).as_tuple() == (1, 0, 0, 0, 0)
    assert twists == []
    rep = orthogonality_report(ks)
    assert rep["diagonal_identity"] and rep["adjoint_vanishing"]
    assert twists == []
    assert len([pair for pair in exts if pair in selfs]) == 2 * m


def test_kuenneth_helpers_reject_twisted_kernels(ks2):
    twisted = kernel_adjoint(ks2[0], "right")
    for P, Q in ((twisted, ks2[0]), (ks2[0], twisted), (twisted, twisted)):
        for serre in (False, True):
            with pytest.raises(UnsupportedKernelShape):
                decomposable_ext(P, Q, serre=serre)
    with pytest.raises(UnsupportedKernelShape):
        decomposable_class(twisted)


# -- the Nakayama isomorphism that decomposable_ext reads the twist by -------


NAKAYAMA_CASES = ([(name, field) for field in ("q", "f3")
                   for name, entry in CATALOG.items() if entry.has_collection]
                  + [(f"generated-p{n}", field) for field in ("q", "f3")
                     for n in (2, 3, 4)])


def _reflected(prof):
    return {-q: d for q, d in prof.items()}


@pytest.mark.parametrize("name,field", NAKAYAMA_CASES)
def test_ext_into_serre_twist_is_reflected_reverse_ext(name, field):
    """ext_profile(X, serre_twist_left(Y)) is Ext^{-q}(Y, X), in every
    degree, on every ordered pair of right factors of the projection
    kernels: the identity decomposable_ext reads the twisted A^op factor
    by, against the twist it no longer builds."""
    A = _case_algebra(name, field)
    rights = [P.right for P in projection_kernels(projective_collection(A))]
    twisted = [serre_twist_left(Y) for Y in rights]
    nonzero = 0
    for X in rights:
        for Y, SY in zip(rights, twisted):
            lhs = ext_profile(X, SY)
            assert lhs == _reflected(ext_profile(Y, X))
            nonzero += bool(lhs)
    assert nonzero >= len(rights)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_nakayama_identity_on_the_serre_check_probes(field):
    """The same identity on the probes of serre-check, the projectives P_v
    and the truncated resolutions of the simples S_v, over every catalog
    algebra: exact in every degree, not only in serre-check's window."""
    n = 6
    for entry in CATALOG.values():
        A = entry.algebra(field)
        probes = [single_projective(A, v) for v in range(A.num_vertices)]
        probes += [projective_resolution(simple_module(A, v), n + 1)
                   for v in range(A.num_vertices)]
        for Y in probes:
            SY = serre_twist_left(Y)
            for X in probes:
                assert ext_profile(X, SY) == _reflected(ext_profile(Y, X)), \
                    entry.name


# -- the adjoint convolutions against the tensor route -------------------------


def _field_diffs(f, index, entries):
    """Total-complex entries (scalar, k = None) as matrices."""
    return {n: Matrix.from_entries(f, len(index[n + 1]), len(index[n]),
                                   {(r, col): c for (r, col, _), c in ent.items()})
            for n, ent in entries.items()}


def tensor_right_left(F, G):
    """F (x)_A G for a right complex F (over A^op) and a left complex G of
    projectives, as the total tensor complex: termwise e_v A (x)_A A e_u
    = e_v A e_u."""
    A = G.algebra
    f = A.field

    def middle(v, u):
        return [(mu, None) for mu in A.slice_indices(v, u)]

    def x_image(z, mu, u):
        for mu2, c in A.multiply(z, {mu: f.one}).items():
            yield mu2, None, c

    def y_image(x, mu, v):
        for mu2, c in A.multiply({mu: f.one}, x).items():
            yield mu2, None, c

    index, _, entries = _tensor_total(f, F, G, middle, x_image, y_image)
    return FieldComplex(f, {n: len(s) for n, s in index.items()},
                        _field_diffs(f, index, entries), check=True)


def tensor_right_module_complex(F, Y):
    """F (x)_A Y for a right complex F and a complex Y of left modules, as
    the total tensor complex: termwise e_v A (x)_A M = e_v M."""
    A = Y.algebra
    f = A.field

    def middle(v, M):
        return [(m, None) for m in range(M.dim) if M.grading[m] == v]

    def x_image(z, m, M):
        for zi, c in z.items():
            for m2, c2 in M.column(zi, m).items():
                yield m2, None, f.mul(c, c2)

    def y_image(dM, m, v):
        for m2, c in dM.cols[m].items():
            yield m2, None, c

    index, _, entries = _tensor_total(f, F, Y, middle, x_image, y_image)
    return FieldComplex(f, {n: len(s) for n, s in index.items()},
                        _field_diffs(f, index, entries), check=True)


def tensor_route_homology_dims(L, K):
    """Homology dimensions of L o K with every factor built: the Serre
    twists by serre_twist_left, DA as a left module for the right twist of
    K, and each contraction as a total tensor complex."""
    from test_complexes import kuenneth
    A = L.left.algebra

    def module_homology(Y):
        return FieldComplex(A.field, {n: M.dim for n, M in Y.modules.items()},
                            Y.diffs, check=True).homology_dims()
    if L.twist == "right" or K.twist == "left":
        W = tensor_right_module_complex(L.right, serre_twist_left(K.left))
    else:
        W = tensor_right_left(L.right, K.left)
    hL = module_homology(serre_twist_left(L.left)) if L.twist == "left" \
        else L.left.homology_dims()
    if K.twist == "right":
        D = dual_bimodule(A)
        grading = tuple(D.algebra.vertex_pair(code)[0] for code in D.grading)
        DA = ModuleRep(A, D.dim, D.left_col, grading, check=False)
        hR = tensor_right_module_complex(
            K.right, module_complex_single(DA)).homology_dims()
    else:
        hR = K.right.homology_dims()
    return kuenneth(hL, W.homology_dims(), hR)


def compare_adjoint_convolutions(algebras, shift=0):
    """convolution_homology_dims against the tensor route on every ordered
    pair of the shapes P_i, P_i^* and P_i^! of the projection kernels
    E_i[shift] (x) F_i'[-2 shift] of each algebra's projective collection;
    the doubly twisted pairs P_i^* o P_j^! are refused.  Returns the
    profiles compared."""
    profiles = []
    for A in algebras:
        ks = [Kernel(P.left.shift(shift),
                                  P.right.shift(-2 * shift))
              for P in projection_kernels(projective_collection(A))]
        shapes = ks + [kernel_adjoint(P, side) for side in ("left", "right")
                       for P in ks]
        for L in shapes:
            for K in shapes:
                if L.twist == "right" and K.twist == "left":
                    with pytest.raises(UnsupportedKernelShape):
                        convolution_homology_dims(L, K)
                    continue
                dims = convolution_homology_dims(L, K)
                assert dims == tensor_route_homology_dims(L, K), (A, L, K)
                profiles.append(dims)
    return profiles


def test_adjoint_convolutions_match_the_tensor_route():
    """On the catalog collections (over Q and F_3) and on generated P^2
    and P^3: Hom complexes with the twists read by the Nakayama
    isomorphism give the homology that building every factor gives."""
    profiles = compare_adjoint_convolutions(
        _case_algebra(name, field) for name, field in KUENNETH_CASES)
    assert len(profiles) == 792 and sum(map(bool, profiles)) >= 400


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_shifted_adjoint_convolutions_match_the_tensor_route(field):
    """The same with the kernels' factors shifted apart, E_i[1] (x)
    F_i'[-2], so that the twisted outer factors have homology off degree 0
    and a missing reflection would show."""
    profiles = compare_adjoint_convolutions(
        (entry.algebra(field) for entry in CATALOG.values()
         if entry.has_collection), shift=1)
    assert any(set(dims) - {0} for dims in profiles)


# -- the diagonal class ------------------------------------------------------


def diagonal_class_from_resolution(A, cap):
    """The K_0 class of the diagonal as it was read before it came from
    K's ends: decoded from the Euler class of diagonal_resolution, off
    K's route of the minimal bimodule resolution itself; the string
    "raises" if that has a term at -(cap + 1)."""
    from sodhh.hochschild import certified_koszul
    res = diagonal_resolution(A, cap + 1) \
        if certified_koszul(A, cap + 1) is not None \
        else projective_resolution(regular_bimodule(A), cap + 1)
    if -(cap + 1) in res.terms:
        return "raises"
    env = res.algebra
    return {env.vertex_pair(code): c for code, c in res.euler_class().items()}


def test_diagonal_class_is_the_alternating_count_of_k(monkeypatch):
    """On every catalog algebra over Q and F_3 and on generated P^2..P^4,
    each fresh, at caps 1, 2 and 32: diagonal_class equals the Euler class
    of diagonal_resolution, or raises where that has a term at
    -(cap + 1); the Koszul cases write no entry of A (x) A^op."""
    from sodhh.catalog import catalog_names, get_entry
    from sodhh.hochschild import certified_koszul
    from sodhh.kernels import diagonal_class
    from test_cli import counting_wrapper
    from test_hochschild import _generated_beilinson
    entries = counting_wrapper(monkeypatch, "_env_entries", ["hochschild"])
    builds = [lambda f=field, name=name: get_entry(name).algebra(f)
              for name in catalog_names() for field in (QQ, GF(3))]
    builds += [lambda n=n: _generated_beilinson(n) for n in (2, 3, 4)]
    read_off = raised = 0
    for build in builds:
        for cap in (1, 2, 32):
            A = build()
            entries.clear()
            try:
                ours = diagonal_class(A, cap)
            except NormalizationFailed:
                ours = "raises"
            if certified_koszul(A, cap + 1) is not None:
                read_off += entries == []
            raised += ours == "raises"
            assert ours == diagonal_class_from_resolution(A, cap), \
                (A.labels, cap)
    assert read_off >= 50 and raised >= 10

