import pytest

from sodhh.algebra import Quiver, build_path_algebra, center
from sodhh.catalog import CATALOG
from sodhh.hochschild import (absolute_hh_cohomology, absolute_hh_homology,
                              global_dimension, hh_cohomology, hh_homology,
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
