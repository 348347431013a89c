import pytest

from sodhh.algebra import Quiver, build_path_algebra
from sodhh.complexes import (ChainMap, ComplexError, bar_augmentation_matrix,
                             bar_resolution, cone, direct_sum, dualize,
                             ext_profile, ext_profile_module, minimalize,
                             module_complex_single, projective_resolution,
                             single_projective, tensor_env_env,
                             tensor_env_left, tensor_right_left, zero_complex)
from sodhh.exceptional import evaluation_map, minimal_data
from sodhh.linalg import QQ, rank
from sodhh.modules import simple_module


def kron(n):
    q = Quiver.make(("1", "2"), tuple((chr(97 + i), "1", "2") for i in range(n)))
    return build_path_algebra(q, [], QQ)


@pytest.fixture(scope="module")
def A2():
    return kron(2)


def euler(X):
    A = X.algebra
    return sum((-1) ** n * sum(len(A.column_indices(v)) for v in t)
               for n, t in X.terms.items())


def test_cone_of_identity_minimalizes_to_zero(A2):
    P = single_projective(A2, 0)
    ident = ChainMap(P, P, {0: [[A2.idem(0)]]})
    assert minimalize(cone(ident)).is_zero()


def test_cone_of_zero_map(A2):
    X = single_projective(A2, 0)
    Y = single_projective(A2, 1)
    z = ChainMap(X, Y, {})
    C = cone(z)
    assert C.terms == {0: (1,), -1: (0,)}   # Y (+) X[1] termwise


def test_evaluation_cone_resolves_simple(A2):
    ev = evaluation_map(single_projective(A2, 1), single_projective(A2, 0))
    C = cone(ev)
    assert C.homology_dims() == {0: 1}
    M = minimalize(C)
    assert M.multiplicity_data() == {-1: ((1, 2),), 0: ((0, 1),)}
    # differential entries lie in the radical (complex already minimal)
    for row in M.diffs[-1]:
        for x in row:
            assert all(k in A2.radical_indices() for k in x)


def test_cone_euler_characteristic(A2):
    ev = evaluation_map(single_projective(A2, 1), single_projective(A2, 0))
    C = cone(ev)
    assert euler(C) == euler(ev.target) - euler(ev.source)


def test_shift_round_trip(A2):
    res = projective_resolution(simple_module(A2, 0), 4)
    assert res.shift(0).terms == res.terms
    rt = res.shift(1).shift(-1)
    assert rt.terms == res.terms and rt.diffs.keys() == res.diffs.keys()
    for n in res.diffs:
        assert rt.diffs[n] == res.diffs[n]


def test_shift_homology_convention(A2):
    res = projective_resolution(simple_module(A2, 0), 4)
    h = res.homology_dims()
    h2 = res.shift(2).homology_dims()
    assert h2 == {d - 2: v for d, v in h.items()}


def test_ext_projectives_degree_zero(A2):
    # covered in test_algebra against slices; a spot value here
    assert ext_profile(single_projective(A2, 1), single_projective(A2, 0)) == {0: 2}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ext_simples_kronecker(n):
    A = kron(n)
    res1 = projective_resolution(simple_module(A, 0), 6)
    S2 = module_complex_single(simple_module(A, 1))
    prof = ext_profile_module(res1, S2)
    assert prof == {1: n}
    prof11 = ext_profile_module(res1, module_complex_single(simple_module(A, 0)))
    assert prof11 == {0: 1}


def test_ext_projective_is_exceptional(A2):
    for v in range(2):
        P = single_projective(A2, v)
        assert ext_profile(P, P) == {0: 1}


def test_tensor_unit_bar(A2):
    """A (x)_A A = A at the derived level: the bar resolution convolved
    with itself has homology A in degree 0."""
    bar = bar_resolution(A2, 6)
    assert tensor_env_env(bar, bar).homology_dims() == {0: A2.dim}


def test_tensor_projective_slice(A2):
    """A e_v (x)_A M has dimension dim(e_v M): contract the bar with a
    projective and compare."""
    bar = bar_resolution(A2, 6)
    for v in range(2):
        X = single_projective(A2, v)
        T = tensor_env_left(bar, X)
        assert T.homology_dims() == {0: len(A2.column_indices(v))}


def test_tensor_decomposable_contraction(A2):
    """(E (x) F') (x)_A (G (x) H') contracts through F' (x)_A G."""
    E = single_projective(A2, 1)
    F = dualize(single_projective(A2, 0))    # e_1 A as a right module
    G = single_projective(A2, 0)
    W = tensor_right_left(F, G)
    # e_1 A (x)_A A e_1 = e_1 A e_1 = k
    assert W.dims == {0: 1}
    W2 = tensor_right_left(dualize(single_projective(A2, 1)), G)
    # e_2 A (x)_A A e_1 = e_2 A e_1, dim 2
    assert W2.dims == {0: 2}


def test_minimalize_preserves_homology_and_ext(A2):
    ev = evaluation_map(single_projective(A2, 1), single_projective(A2, 0))
    C = cone(ev)
    padded, _ = direct_sum([C, cone(ChainMap(single_projective(A2, 1),
                                             single_projective(A2, 1),
                                             {0: [[A2.idem(1)]]}))])
    M = minimalize(padded)
    assert M.multiplicity_data() == minimalize(C).multiplicity_data()
    assert padded.homology_dims() == M.homology_dims()
    probe = single_projective(A2, 1)
    assert ext_profile(padded, probe) == ext_profile(M, probe)


def test_bar_b0_dimension(A2):
    bar = bar_resolution(A2, 4)
    assert bar.realize().dims[0] == 6   # 3*1 + 1*3


def test_bar_exactness(A2):
    bar = bar_resolution(A2, 6)
    aug = bar_augmentation_matrix(A2, bar)
    fc = bar.realize()
    assert rank(aug) == A2.dim
    h = fc.homology_dims()
    assert h == {0: A2.dim}
    # ker(aug) = im(d^{-1}): the augmented complex is exact at degree 0
    assert rank(fc.diff(-1)) == fc.dims[0] - A2.dim


def test_bar_point():
    A = build_path_algebra(Quiver.make(("1",), ()), [], QQ)
    bar = bar_resolution(A, 5)
    assert set(bar.terms) == {0}
    assert bar.realize().dims == {0: 1}


def test_bar_loop_infinite():
    q = Quiver.make(("1",), (("x", "1", "1"),))
    from sodhh.algebra import Relation
    A = build_path_algebra(q, [Relation(((1, ("x", "x")),))], QQ)
    bar = bar_resolution(A, 5)
    assert set(bar.terms) == {0, -1, -2, -3, -4, -5}
    h = bar.realize().homology_dims()
    # exact above the truncation edge; the edge itself keeps its kernel
    assert {n: d for n, d in h.items() if n > -5} == {0: A.dim}


def test_dualize_involution(A2):
    res = projective_resolution(simple_module(A2, 0), 4)
    dd = dualize(dualize(res))
    assert dd.multiplicity_data() == res.multiplicity_data()
    assert minimal_data(dd) == minimal_data(res)


def test_d_squared_validation(A2):
    with pytest.raises(ComplexError):
        cx = {0: (0,), 1: (1,), 2: (0,)}
        # a -> e_2? invalid composite: use entries whose product is nonzero
        from sodhh.complexes import ProjComplex
        ProjComplex(A2, {0: (1,), 1: (0,), 2: (0,)},
                    {0: [[A2.arrow_element("a")]], 1: [[A2.idem(0)]]})


def test_chainmap_must_commute(A2):
    X = single_projective(A2, 1)
    Y = cone(evaluation_map(single_projective(A2, 1), single_projective(A2, 0)))
    with pytest.raises(ComplexError):
        # a map hitting the degree -1 term with no compatibility
        ChainMap(X.shift(1), Y, {-1: [[A2.idem(1)], [dict()]]})


# Each construction breaks one check over beilinson-p2 and prints what it
# raised.  P_3 -> P_2 -> P_1 by y0 then x0 composes to the nonzero path
# x0*y0, so d^2 != 0; the same holds for the 1x1 field complex 1, 1; and
# a nonzero map S_1 -> S_2 of simple modules is not L-linear.
BROKEN_COMPLEXES = """
from sodhh.catalog import get_entry
from sodhh.complexes import (ComplexError, FieldComplex, ModuleComplex,
                             ProjComplex)
from sodhh.linalg import QQ, Matrix
from sodhh.modules import simple_module
A = get_entry("beilinson-p2").algebra(QQ)
one = Matrix.identity(QQ, 1)
for build in (
        lambda: ProjComplex(A, {0: (2,), 1: (1,), 2: (0,)},
                            {0: [[A.arrow_element("y0")]],
                             1: [[A.arrow_element("x0")]]}),
        lambda: FieldComplex(QQ, {0: 1, 1: 1, 2: 1}, {0: one, 1: one},
                             check=True),
        lambda: ModuleComplex(A, {0: simple_module(A, 0),
                                  1: simple_module(A, 1)}, {0: one})):
    try:
        build()
        print("accepted")
    except ComplexError as exc:
        print("ComplexError:", exc)
"""


BROKEN_RAISED = ["ComplexError: d^2 != 0 at degree 0",
                 "ComplexError: d^2 != 0 at degree 0",
                 "ComplexError: differential at degree 0 is not L-linear"]


def test_broken_complexes_raise_over_beilinson_p2(capsys):
    exec(BROKEN_COMPLEXES, {})
    assert capsys.readouterr().out.splitlines() == BROKEN_RAISED


def test_broken_complexes_raise_under_optimized_python():
    """The checks raise instead of asserting, so `python -O` keeps them."""
    import os
    import pathlib
    import subprocess
    import sys
    import sodhh
    src = str(pathlib.Path(sodhh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [x for x in [env.get("PYTHONPATH")] if x])
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_COMPLEXES],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == BROKEN_RAISED


def test_zero_complex(A2):
    z = zero_complex(A2)
    assert z.is_zero() and minimalize(z).is_zero()
    assert ext_profile(z, single_projective(A2, 0)) == {}


def classical_hom_dimension(X, M):
    """Hom_A(X, M) for explicit module reps, by directly solving the
    intertwining equations phi(b . x) = b . phi(x) (independent of the Hom
    complex route)."""
    A = X.algebra
    f = A.field
    from sodhh.linalg import Matrix, rank_kernel_image

    def unknown(x, m):
        return x * M.dim + m

    entries = {}
    row = 0
    for b in range(A.dim):
        for x in range(X.dim):
            for m_out in range(M.dim):
                for x2, c in X.action[b].cols[x].items():
                    key = (row + m_out, unknown(x2, m_out))
                    entries[key] = f.add(entries.get(key, f.zero), c)
            for m in range(M.dim):
                for m_out, c in M.action[b].cols[m].items():
                    key = (row + m_out, unknown(x, m))
                    entries[key] = f.sub(entries.get(key, f.zero), c)
            row += M.dim
    mat = Matrix.from_entries(f, row, X.dim * M.dim, entries)
    _, kernel, _ = rank_kernel_image(mat)
    return kernel.ncols


def test_degree_zero_ext_is_classical_hom(A2):
    """Ext^0 between degree-0 complexes (projective source) matches the
    classical Hom dimension from a direct linear solve."""
    from sodhh.modules import ModuleRep, simple_module
    from sodhh.linalg import Matrix
    for v in range(2):
        # A e_v as an explicit module rep
        basis = A2.column_indices(v)
        posn = {b: i for i, b in enumerate(basis)}
        action = []
        for b in range(A2.dim):
            cols = []
            for x in basis:
                prod = A2.multiply({b: A2.field.one}, {x: A2.field.one})
                cols.append({posn[t]: c for t, c in prod.items()})
            action.append(Matrix(A2.field, len(basis), len(basis), cols))
        Pv = ModuleRep(A2, len(basis), action,
                       tuple(A2.tgt[b] for b in basis), check=True)
        for w in range(2):
            direct = classical_hom_dimension(Pv, simple_module(A2, w))
            prof = ext_profile_module(
                single_projective(A2, v),
                module_complex_single(simple_module(A2, w)))
            assert prof.get(0, 0) == direct
        direct_reg = classical_hom_dimension(Pv, Pv)
        prof = ext_profile(single_projective(A2, v), single_projective(A2, v))
        assert prof.get(0, 0) == direct_reg
