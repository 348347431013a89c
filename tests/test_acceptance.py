"""Acceptance suite: one test per criterion, exact integer equalities only.

Cross-check dimension tables for the projective-space cases are derived
inside the tests from independent oracles (Bott-type dimension counts and
the truncated absolute bar complexes), never from the library route they
certify.
"""

from math import comb
from random import Random

from sodhh.algebra import Quiver, build_path_algebra, center
from sodhh.complexes import bar_resolution
from sodhh.exceptional import (ExceptionalCollection, bdi_check,
                               dual_collection, endomorphism_algebra,
                               minimal_data, mutate, projective_collection)
from sodhh.hochschild import (hh_cohomology, hh_homology,
                              homology_via_serre_dual)
from sodhh.kernels import (additivity_check, fullness_certificate,
                           k0_identity_check, les_check, orthogonality_report,
                           projection_kernels)
from sodhh.linalg import QQ, Matrix, rank, rank_kernel_image
from sodhh.modules import free_gluing_bimodule
from test_complexes import bar_augmentation_matrix
from test_hochschild import absolute_hh_cohomology, absolute_hh_homology


def _passed(n, text):
    print(f"[acceptance] criterion {n}: PASS - {text}")


def collection_of(name, algebras):
    return projective_collection(algebras[name])


def test_criterion_1_d5_fano_quiver(algebras):
    """hh_cohomology(kronecker3, 6) = (1, 8, 0, 0, 0, 0, 0) exactly."""
    prof = hh_cohomology(algebras["kronecker3"], 6)
    assert prof.as_tuple() == (1, 8, 0, 0, 0, 0, 0)
    _passed(1, "d=5 Fano component via its quiver: HH^* = (1, 8, 0, ...)")


def test_criterion_2_hkr_p1(algebras):
    """Cohomology of polyvector fields on P^1 and its Hodge total,
    derived from h^0(O(d) on P^1) = d + 1."""
    def h0_p1(d):
        return d + 1 if d >= 0 else 0
    hkr_coh = (h0_p1(0), h0_p1(2)) + (0,) * 5   # H^0(O), H^0(T) = H^0(O(2))
    hodge_total = 2                              # h^{0,0} + h^{1,1}
    A = algebras["kronecker2"]
    assert hh_cohomology(A, 6).as_tuple() == hkr_coh
    hh = hh_homology(A, 6)
    assert hh.as_tuple() == (hodge_total,) + (0,) * 6
    _passed(2, "HKR cross-check P^1: HH^* = (1, 3, 0, ...), HH_* = (2, 0, ...)")


def test_criterion_3_hkr_p2(algebras):
    """P^2 table via Bott/Euler-sequence dimension counts:
    h^0(O(d)) = C(d+2, 2); h^0(T) = 3 h^0(O(1)) - h^0(O);
    h^0(Lambda^2 T) = h^0(O(3))."""
    def h0(d):
        return comb(d + 2, 2) if d >= 0 else 0
    hkr = (h0(0), 3 * h0(1) - h0(0), h0(3)) + (0,) * 4
    assert hkr[:3] == (1, 8, 10)
    hodge_total = 3   # h^{0,0} + h^{1,1} + h^{2,2}
    B = algebras["beilinson-p2"]
    assert hh_cohomology(B, 6).as_tuple() == hkr
    assert hh_homology(B, 6).as_tuple() == (hodge_total,) + (0,) * 6
    _passed(3, "HKR cross-check P^2: HH^* = (1, 8, 10, 0, ...), HH_* = (3, 0, ...)")


def test_criterion_4_additivity(algebras):
    """Degreewise HH_n(A) = sum_i dim Ext^n(P_i, P_i o S), each summand a
    point, on kronecker2, kronecker3 and beilinson-p2."""
    for name in ("kronecker2", "kronecker3", "beilinson-p2"):
        A = algebras[name]
        res = additivity_check(A, collection_of(name, algebras), 6)
        assert res["degreewise_equal"], name
        assert res["summands_are_points"], name
    _passed(4, "Hochschild homology is additive over projection kernels, "
               "each exceptional summand contributing (1, 0, ...)")


def test_criterion_5_hochschild_duality(algebras):
    """dim Ext^n_{A-bimod}(A, DA) = dim HH_n(A), n <= 6, every catalog
    algebra."""
    for name, A in algebras.items():
        assert homology_via_serre_dual(A, 6).as_tuple() == \
            hh_homology(A, 6).as_tuple(), name
    _passed(5, "maps-to-Serre-kernel homology equals cyclic-chain homology "
               "degreewise on the whole catalog")


def test_criterion_6_orthogonality(algebras):
    """Off-diagonal Ext(P_i, P_j o S) = 0 and the K_0 identity on the
    kronecker2 and beilinson-p2 collections."""
    for name in ("kronecker2", "beilinson-p2"):
        A = algebras[name]
        ks = projection_kernels(collection_of(name, algebras))
        rep = orthogonality_report(ks)
        assert rep["offdiagonal_zero"], name
        assert rep["diagonal_identity"], name
        assert k0_identity_check(ks, A), name
    _passed(6, "off-diagonal Ext(P_i, P_j o S) vanish and "
               "sum [P_i] = [diagonal] in K_0")


def test_criterion_7_long_exact_sequence():
    """les_check reproduces the chase 0 -> 1 -> 2 -> 9 -> 8 -> 0 on the
    kronecker3 gluing and 1 - 2 + 1 - 0 = 0 on the a2 gluing."""
    k = build_path_algebra(Quiver.make(("1",), ()), [], QQ)
    res = les_check(k, k, free_gluing_bimodule(k, k, 3), 6)
    assert res["chase"] == (1, 2, 9, 8)
    assert res["chase_exact"] and res["euler_zero"]
    res2 = les_check(k, k, free_gluing_bimodule(k, k, 1), 6)
    assert res2["chase"] == (1, 2, 1, 0)
    assert 1 - 2 + 1 - 0 == 0 and res2["euler_zero"] and res2["chase_exact"]
    _passed(7, "gluing long exact sequence: chase (1, 2, 9, 8) and Euler "
               "sums vanish")


def test_criterion_8_braid_relations(algebras):
    """R1 R2 R1 = R2 R1 R2 objectwise on beilinson-p2; left and right
    mutations mutually inverse on all catalog pairs."""
    collB = collection_of("beilinson-p2", algebras)
    s1 = lambda c: mutate(c, 2, "right")   # acts on the pair (1, 2)
    s2 = lambda c: mutate(c, 3, "right")   # acts on the pair (2, 3)
    lhs = s1(s2(s1(collB)))
    rhs = s2(s1(s2(collB)))
    assert all(minimal_data(x) == minimal_data(y)
               for x, y in zip(lhs.objects, rhs.objects))
    for name, A in algebras.items():
        if name == "loop-x2":
            continue
        coll = projective_collection(A)
        for i in range(1, len(coll)):
            back = mutate(mutate(coll, i, "left"), i + 1, "right")
            assert all(minimal_data(x) == minimal_data(y)
                       for x, y in zip(back.objects, coll.objects)), (name, i)
    _passed(8, "braid relation on beilinson-p2 and mutation inverses on "
               "all catalog pairs (minimal multiplicity data)")


def test_criterion_9_dual_collections(algebras):
    """delta_ij Hom tables and bdi_check on every catalog collection."""
    for name, A in algebras.items():
        if name == "loop-x2":
            continue
        coll = projective_collection(A)
        dual_collection(coll)   # raises if any delta entry fails
        for i in range(1, len(coll) + 1):
            assert bdi_check(coll, i), (name, i)
    _passed(9, "dual collections satisfy the delta Hom tables and "
               "Hom(BD_i E_i, E_i) = Hom(E_i, E_i)")


def test_criterion_10_oracle_equivalence(algebras):
    """Relative-bar HH agrees with the truncated absolute bar complexes
    for every catalog algebra of dim <= 6, degrees <= 3."""
    checked = 0
    for name, A in algebras.items():
        if A.dim > 6:
            continue
        assert hh_cohomology(A, 3).as_tuple() == \
            absolute_hh_cohomology(A, 3).as_tuple(), name
        assert hh_homology(A, 3).as_tuple() == \
            absolute_hh_homology(A, 3).as_tuple(), name
        checked += 1
    assert checked >= 7
    _passed(10, f"relative and absolute bar complexes agree on {checked} "
                "catalog algebras, degrees <= 3")


def test_criterion_11_structural_suite(algebras):
    """HH^0 = dim center and HH_0 = dim A/[A,A]; hereditary vanishing;
    rank-nullity; d^2 = 0 and bar exactness."""
    for name, A in algebras.items():
        assert hh_cohomology(A, 2).dim(0) == center(A)[0], name
        f = A.field
        cols = []
        for i in range(A.dim):
            for j in range(A.dim):
                bi, bj = {i: f.one}, {j: f.one}
                c = A.add(A.multiply(bi, bj), A.scale(A.multiply(bj, bi), -1))
                if c:
                    cols.append(c)
        comm_rank = rank(Matrix(f, A.dim, len(cols), cols)) if cols else 0
        assert hh_homology(A, 2).dim(0) == A.dim - comm_rank, name
    for name in ("kronecker1", "kronecker2", "kronecker3", "a2-quiver"):
        A = algebras[name]
        assert all(hh_cohomology(A, 6).dim(n) == 0 for n in range(2, 7)), name
        assert all(hh_homology(A, 6).dim(n) == 0 for n in range(1, 7)), name
    rng = Random(23)
    for _ in range(10):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
        m = Matrix.from_rows(QQ, rows)
        r, kernel, _ = rank_kernel_image(m)
        assert r + kernel.ncols == 5
    for name, A in algebras.items():
        bar = bar_resolution(A, 4)   # d^2 = 0 asserted at build time
        fc = bar.realize()
        h = fc.homology_dims()
        assert {n: d for n, d in h.items() if n > -4} == {0: A.dim}, name
        assert rank(bar_augmentation_matrix(A, bar)) == A.dim, name
    # run the d^2 = 0 / slice validator over derived complexes too
    from sodhh.kernels import decomposable_to_env
    from sodhh.complexes import ModuleComplex, cone, tensor_env_module
    from sodhh.exceptional import evaluation_map
    from sodhh.modules import dual_bimodule
    K2 = algebras["kronecker2"]
    ks = projection_kernels(projective_collection(K2))
    for P in ks:
        decomposable_to_env(P.left, P.right)._validate()
    envs = [decomposable_to_env(P.left, P.right) for P in ks]
    twisted = tensor_env_module(envs[0], dual_bimodule(K2))
    for M in twisted.modules.values():
        M.check_axioms()
    ModuleComplex(twisted.algebra, twisted.modules, twisted.diffs)
    from sodhh.complexes import single_projective
    cone(evaluation_map(single_projective(K2, 1),
                        single_projective(K2, 0)))._validate()
    _passed(11, "HH^0/HH_0 identifications, hereditary vanishing, "
                "rank-nullity, bar exactness, "
                "d^2 = 0 on derived complexes")


def test_criterion_12_morita_invariance(algebras):
    """The endomorphism algebra of a once-mutated strong beilinson-p2
    collection has the same HH profiles as beilinson-p2."""
    B = algebras["beilinson-p2"]
    mut = mutate(collection_of("beilinson-p2", algebras), 1, "left")
    E = endomorphism_algebra(mut)
    assert hh_cohomology(E, 6).as_tuple() == hh_cohomology(B, 6).as_tuple()
    assert hh_homology(E, 6).as_tuple() == hh_homology(B, 6).as_tuple()
    _passed(12, "HH profiles are invariant under tilting to the mutated "
                "collection's endomorphism algebra")


def test_criterion_13_fullness_certificate(algebras):
    """beilinson-p2 triple is full modulo the Nonvanishing Conjecture;
    every proper subcollection is not full."""
    B = algebras["beilinson-p2"]
    coll = collection_of("beilinson-p2", algebras)
    assert fullness_certificate(B, coll)["verdict"] == \
        "full modulo Nonvanishing Conjecture"
    for picks in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
        sub = ExceptionalCollection(B, [coll.objects[i] for i in picks])
        assert fullness_certificate(B, sub)["verdict"] == "not full", picks
    _passed(13, "fullness certificate: full modulo Nonvanishing Conjecture "
                "for the triple, 'not full' for every proper subcollection")
