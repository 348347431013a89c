from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sodhh.algebra import Quiver, _lines, build_path_algebra
from sodhh.catalog import CATALOG
from sodhh.complexes import (ChainMap, ComplexError, FieldComplex,
                             HomComplex, ModuleComplex, ModuleHomComplex,
                             ProjComplex, _compose, bar_resolution,
                             compose_chainmaps, cone, direct_sum, dualize,
                             ext_profile, minimalize, module_complex_single,
                             projective_resolution, serre_twist_left,
                             single_projective, tensor_env_module,
                             zero_complex)
from sodhh.exceptional import (coevaluation_map, evaluation_map, minimal_data,
                               projective_collection)
from sodhh.hochschild import (global_dimension, hh_cohomology, hh_homology,
                              homology_via_serre_dual, simple_resolution)
from sodhh.kernels import (decomposable_to_env, orthogonality_report,
                           projection_kernels)
from sodhh.linalg import GF, QQ, ColumnEchelon, Matrix, rank
from sodhh.modules import dual_bimodule, regular_bimodule, simple_module
from test_hochschild import (cyclic_monomial_quivers, non_koszul_quivers,
                             quadratic_quivers)


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
    ident = ChainMap(P, P, {0: {(0, 0): A2.idem(0)}})
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
    for x in M.diffs[-1].values():
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
    prof = ext_profile(res1, S2)
    assert prof == {1: n}
    prof11 = ext_profile(res1, module_complex_single(simple_module(A, 0)))
    assert prof11 == {0: 1}


def test_ext_projective_is_exceptional(A2):
    for v in range(2):
        P = single_projective(A2, v)
        assert ext_profile(P, P) == {0: 1}


def test_tensor_unit_bar(A2):
    """A (x)_A A = A at the derived level: the bar resolution convolved
    with the diagonal A has homology A in degree 0."""
    bar = bar_resolution(A2, 6)
    assert checked(tensor_env_module(bar, regular_bimodule(A2))) == \
        {0: A2.dim}


def test_tensor_decomposable_contraction(A2):
    """(E (x) F') (x)_A (G (x) H') contracts through F' (x)_A G, which is
    the Hom complex Hom_A(F'^v, G)."""
    E = single_projective(A2, 1)
    F = dualize(single_projective(A2, 0))    # e_1 A as a right module
    G = single_projective(A2, 0)
    W = ModuleHomComplex(dualize(F), G).field_complex()
    # e_1 A (x)_A A e_1 = Hom(A e_1, A e_1) = e_1 A e_1 = k
    assert W.dims == {0: 1}
    W2 = ModuleHomComplex(single_projective(A2, 1), G).field_complex()
    # e_2 A (x)_A A e_1 = Hom(A e_2, A e_1) = e_2 A e_1, dim 2
    assert W2.dims == {0: 2}


def test_minimalize_preserves_homology_and_ext(A2):
    ev = evaluation_map(single_projective(A2, 1), single_projective(A2, 0))
    C = cone(ev)
    padded, _ = direct_sum([C, cone(ChainMap(single_projective(A2, 1),
                                             single_projective(A2, 1),
                                             {0: {(0, 0): A2.idem(1)}}))])
    M = minimalize(padded)
    assert M.multiplicity_data() == minimalize(C).multiplicity_data()
    assert padded.homology_dims() == M.homology_dims()
    probe = single_projective(A2, 1)
    assert ext_profile(padded, probe) == ext_profile(M, probe)


def bar_augmentation_matrix(A, bar):
    """Multiplication map realize(B_0) -> A."""
    env = A.enveloping()
    f = A.field
    bases = bar.realize_bases()[0]
    entries = {}
    for col, (s, k) in enumerate(bases):
        i, j = env.index_pair(k)
        for t, c in A.product(i, j).items():
            entries[(t, col)] = f.add(entries.get((t, col), f.zero), c)
    return Matrix.from_entries(f, A.dim, len(bases), entries)


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
                    {0: {(0, 0): A2.arrow_element("a")},
                     1: {(0, 0): A2.idem(0)}})


def test_chainmap_must_commute(A2):
    X = single_projective(A2, 1)
    Y = cone(evaluation_map(single_projective(A2, 1), single_projective(A2, 0)))
    with pytest.raises(ComplexError):
        # a map hitting the degree -1 term with no compatibility
        ChainMap(X.shift(1), Y, {-1: {(0, 0): A2.idem(1)}})


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
                            {0: {(0, 0): A.arrow_element("y0")},
                             1: {(0, 0): A.arrow_element("x0")}}),
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


def test_broken_complexes_raise_under_optimized_python(run_optimized):
    """The checks raise instead of asserting, so `python -O` keeps them."""
    assert run_optimized(BROKEN_COMPLEXES) == BROKEN_RAISED


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
                for x2, c in X.column(b, x).items():
                    key = (row + m_out, unknown(x2, m_out))
                    entries[key] = f.add(entries.get(key, f.zero), c)
            for m in range(M.dim):
                for m_out, c in M.column(b, m).items():
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
        Pv = ModuleRep(A2, len(basis), lambda b, m: action[b].cols[m],
                       tuple(A2.tgt[b] for b in basis), check=True)
        for w in range(2):
            direct = classical_hom_dimension(Pv, simple_module(A2, w))
            prof = ext_profile(
                single_projective(A2, v),
                module_complex_single(simple_module(A2, w)))
            assert prof.get(0, 0) == direct
        direct_reg = classical_hom_dimension(Pv, Pv)
        prof = ext_profile(single_projective(A2, v), single_projective(A2, v))
        assert prof.get(0, 0) == direct_reg


# ---------------------------------------------------------------------------
# The sparse block product behind d^2 = 0, chain-map commutation and
# chain-map composition


def densify(m, nrows, ncols):
    """A sparse {(row, col): x} matrix as a list of rows of elements."""
    return [[m.get((r, c), {}) for c in range(ncols)] for r in range(nrows)]


def dense_compose(alg, first, second, n_tgt, n_mid, n_src):
    """Reference for _compose: the dense loop over every (target, middle,
    source) summand triple that the three call sites used to run."""
    f = alg.field
    first = densify(first, n_mid, n_src)
    second = densify(second, n_tgt, n_mid)
    out = {}
    for h in range(n_tgt):
        for j in range(n_src):
            acc = {}
            for i in range(n_mid):
                x = first[i][j]
                y = second[h][i]
                if x and y:
                    for k, v in alg.multiply(x, y).items():
                        s = f.add(acc.get(k, f.zero), v)
                        if s:
                            acc[k] = s
                        else:
                            del acc[k]
            if acc:
                out[(h, j)] = acc
    return out


def alternate_columns(alg, m):
    """m with column i negated for odd i, so that a product through m no
    longer cancels."""
    return {(r, i): alg.scale(x, -1) if i % 2 else x
            for (r, i), x in m.items()}


def check_differential_pairs(X):
    """_compose agrees with the dense loop on every consecutive pair of
    differentials of X, as given and with alternating middle signs;
    returns how many of those products were nonzero."""
    alg = X.algebra
    nonzero = 0
    for n in X.diffs:
        if (n + 1) not in X.diffs:
            continue
        shape = (len(X.terms[n + 2]), len(X.terms[n + 1]), len(X.terms[n]))
        for second in (X.diffs[n + 1], alternate_columns(alg, X.diffs[n + 1])):
            sparse = _compose(alg, X.diffs[n], second)
            assert sparse == dense_compose(alg, X.diffs[n], second, *shape)
            nonzero += bool(sparse)
    return nonzero


def test_compose_matches_dense_on_bar_and_simple_resolutions(algebras):
    nonzero = 0
    for A in algebras.values():
        nonzero += check_differential_pairs(bar_resolution(A, 3))
        for v in range(A.num_vertices):
            nonzero += check_differential_pairs(
                projective_resolution(simple_module(A, v), 4))
    assert nonzero > 0


def test_compose_matches_dense_on_evaluation_maps(algebras):
    """Both sides of the commutation check of every evaluation map between
    indecomposable projectives and simple modules' resolutions."""
    nonzero = 0
    for A in algebras.values():
        objects = [single_projective(A, v) for v in range(A.num_vertices)]
        objects += [projective_resolution(simple_module(A, v), 3)
                    for v in range(A.num_vertices)]
        for ev in [evaluation_map(E, F) for E in objects for F in objects]:
            X, Y = ev.source, ev.target
            for n in set(X.terms) | set(Y.terms):
                ns, nt = len(X.terms.get(n, ())), len(Y.terms.get(n, ()))
                ns1, nt1 = (len(X.terms.get(n + 1, ())),
                            len(Y.terms.get(n + 1, ())))
                lhs = _compose(A, ev.component(n), Y.diff(n))
                rhs = _compose(A, X.diff(n), ev.component(n + 1))
                assert lhs == dense_compose(A, ev.component(n), Y.diff(n),
                                            nt1, nt, ns)
                assert rhs == dense_compose(A, X.diff(n), ev.component(n + 1),
                                            nt1, ns1, ns)
                assert lhs == rhs
                nonzero += bool(lhs)
    assert nonzero > 0


def _random_sparse(rng, alg, nrows, ncols):
    """A sparse matrix with about half of its cells filled by elements of
    up to four basis terms, coefficients in -2, -1, 1, 2."""
    f = alg.field
    return {(r, c): {k: f.coerce(rng.choice([-2, -1, 1, 2]))
                     for k in rng.sample(range(alg.dim), min(4, alg.dim))}
            for r in range(nrows) for c in range(ncols) if rng.random() < 0.5}


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_compose_matches_dense_on_random_sparse_matrices(field):
    """The fused loop of _compose against dense_compose, whose entries go
    through Algebra.multiply, on random matrices over the catalog
    algebras, their A^e and A^e (x) A^op.  A column of `first` holding x
    twice, against a row of `second` holding y and -y there, always
    cancels, and the cell must be absent, not empty."""
    import random
    from sodhh.algebra import tensor_opposite
    rng = random.Random(5)
    algs = [e.algebra(field) for _, e in sorted(CATALOG.items())]
    algs += [A.enveloping() for A in algs]
    algs.append(tensor_opposite(algs[0].enveloping(), algs[0]))
    cancelled = nonzero = 0
    for alg in algs:
        for _ in range(10):
            first, second = (_random_sparse(rng, alg, 3, 4),
                             _random_sparse(rng, alg, 4, 3))
            x = _random_sparse(rng, alg, 1, 1).get((0, 0), alg.unit())
            y = {**_random_sparse(rng, alg, 1, 1).get((0, 0), {}),
                 **alg.unit()}
            first.update({(0, 4): x, (1, 4): x})
            second.update({(3, 0): y, (3, 1): alg.scale(y, -1)})
            ours = _compose(alg, first, second)
            assert ours == dense_compose(alg, first, second, 4, 4, 5)
            assert all(c for cell in ours.values() for c in cell.values())
            assert (3, 4) not in ours
            cancelled += bool(alg.multiply(x, y))
            nonzero += len(ours)
    assert cancelled and nonzero


# Each check passes only because nonzero products cancel: in the bar and
# Koszul resolutions of beilinson-p2 the composites d_{-1} d_{-2} are sums
# of nonzero products that cancel, and an identity chain map on a simple's resolution commutes
# because d . id and id . d agree entry by entry.  One flipped sign breaks
# each.
CANCELLING_BREAKS = """
from sodhh.catalog import get_entry
from sodhh.complexes import (ChainMap, ComplexError, ProjComplex,
                             bar_resolution, projective_resolution)
from sodhh.hochschild import koszul_resolution
from sodhh.linalg import QQ
from sodhh.modules import simple_module
A = get_entry("beilinson-p2").algebra(QQ)
bar = bar_resolution(A, 3)
env = bar.algebra
d2, d1 = bar.diffs[-2], bar.diffs[-1]
i, j = next((i, j) for i, j in sorted(d2)
            if any(env.multiply(d2[i, j], y) for (h, i1), y in d1.items()
                   if i1 == i))
broken = dict(d2)
broken[i, j] = env.scale(d2[i, j], -1)
X = projective_resolution(simple_module(A, 0), 4)
ident = {n: {(r, r): A.idem(v) for r, v in enumerate(t)}
         for n, t in X.terms.items()}
flipped = {n: dict(m) for n, m in ident.items()}
flipped[-1][1, 1] = A.scale(A.idem(X.terms[-1][1]), -1)
K = koszul_resolution(A, 2)
k2, k1 = K.diffs[-2], K.diffs[-1]
i, j = next((i, j) for i, j in sorted(k2)
            if any(env.multiply(k2[i, j], y) for (h, i1), y in k1.items()
                   if i1 == i))
k_broken = dict(k2)
k_broken[i, j] = env.scale(k2[i, j], -1)
for build in (
        lambda: ProjComplex(env, bar.terms, {-2: d2, -1: d1}),
        lambda: ProjComplex(env, bar.terms, {-2: broken, -1: d1}),
        lambda: ProjComplex(env, K.terms, {-2: k2, -1: k1}),
        lambda: ProjComplex(env, K.terms, {-2: k_broken, -1: k1}),
        lambda: ChainMap(X, X, ident),
        lambda: ChainMap(X, X, flipped)):
    try:
        build()
        print("accepted")
    except ComplexError as exc:
        print("ComplexError:", exc)
"""


CANCELLING_RAISED = ["accepted",
                     "ComplexError: d^2 != 0 at degree -2",
                     "accepted",
                     "ComplexError: d^2 != 0 at degree -2",
                     "accepted",
                     "ComplexError: chain map does not commute at degree -1"]


def test_cancelling_checks_catch_one_flipped_sign(capsys):
    exec(CANCELLING_BREAKS, {})
    assert capsys.readouterr().out.splitlines() == CANCELLING_RAISED


def test_cancelling_checks_under_optimized_python(run_optimized):
    assert run_optimized(CANCELLING_BREAKS) == CANCELLING_RAISED


# Over k[x]/x^2 with x * x redefined as the unit, the radical is no ideal,
# and the bar resolution's contraction of (x, x) reports it.
BROKEN_RADICAL = """
from sodhh.algebra import AlgebraAxiomError
from sodhh.catalog import get_entry
from sodhh.complexes import bar_resolution
from sodhh.linalg import QQ
A = get_entry("loop-x2").algebra(QQ)
x = A.labels.index("x")
A.mult[(x, x)] = {A.idempotents[0]: 1}
try:
    bar_resolution(A, 2)
    print("accepted")
except AlgebraAxiomError as exc:
    print("AlgebraAxiomError:", exc)
"""


RADICAL_RAISED = ["AlgebraAxiomError: radical is not an ideal: the product "
                  "of x and x involves e(1)"]


def test_bar_resolution_rejects_a_radical_that_is_no_ideal(capsys):
    exec(BROKEN_RADICAL, {})
    assert capsys.readouterr().out.splitlines() == RADICAL_RAISED


def test_bar_resolution_radical_check_under_optimized_python(run_optimized):
    assert run_optimized(BROKEN_RADICAL) == RADICAL_RAISED


def test_compose_chainmaps_matches_dense(algebras):
    """The composite of two evaluation-map pieces, entry by entry."""
    A = algebras["beilinson-p2"]
    X = projective_resolution(simple_module(A, 0), 4)
    ev = evaluation_map(single_projective(A, 0), X)
    ident = ChainMap(X, X, {n: {(r, r): A.idem(v) for r, v in enumerate(t)}
                            for n, t in X.terms.items()})
    comp = compose_chainmaps(ev, ident)
    for n in comp.mats:
        shape = (len(X.terms[n]), len(ev.target.terms[n]),
                 len(ev.source.terms[n]))
        dense = dense_compose(A, ev.component(n), ident.component(n), *shape)
        assert comp.mats[n] == dense
    assert any(comp.mats.values())


# Caller input over the wrong algebra: every builder raises SideMismatch
# instead of asserting, so `python -O` keeps the checks.
SIDE_MISMATCHES = """
from sodhh.catalog import get_entry
from sodhh.complexes import (ModuleHomComplex, SideMismatch, bar_resolution,
                             direct_sum, dualize, module_complex_single,
                             projective_resolution, single_projective,
                             tensor_env_module)
from sodhh.hochschild import hh_with_coefficients
from sodhh.kernels import decomposable_to_env
from sodhh.linalg import QQ
from sodhh.modules import regular_bimodule, simple_module
K2 = get_entry("kronecker2").algebra(QQ)
K3 = get_entry("kronecker3").algebra(QQ)
for build in (
        lambda: ModuleHomComplex(
            projective_resolution(simple_module(K2, 0), 3),
            module_complex_single(simple_module(K3, 0))).ext_profile(),
        lambda: tensor_env_module(bar_resolution(K2, 2),
                                  regular_bimodule(K3)),
        lambda: direct_sum([single_projective(K2, 0),
                            single_projective(K3, 0)]),
        lambda: decomposable_to_env(single_projective(K2, 0),
                                    dualize(single_projective(K3, 0))),
        lambda: hh_with_coefficients(K2, regular_bimodule(K3), 2)):
    try:
        build()
        print("accepted")
    except SideMismatch as exc:
        print("SideMismatch:", exc)
"""


SIDE_RAISED = [
    "SideMismatch: Hom requires a complex and modules over the same algebra",
    "SideMismatch: P (x)_A M needs a bimodule over the complex's algebra",
    "SideMismatch: direct sum of complexes over different algebras",
    "SideMismatch: decomposable kernel needs a right complex over the left "
    "complex's algebra",
    "SideMismatch: coefficients must be a bimodule over the algebra"]


def test_side_mismatches_raise(capsys):
    exec(SIDE_MISMATCHES, {})
    assert capsys.readouterr().out.splitlines() == SIDE_RAISED


def test_side_mismatches_raise_under_optimized_python(run_optimized):
    assert run_optimized(SIDE_MISMATCHES) == SIDE_RAISED


def test_resolution_of_a_non_module_raises(algebras):
    """A length-two path acting while its arrows act by zero is not a
    module; resolving it unchecked raises ModuleAxiomError, at every length:
    the check runs on the kernel of P_0 -> M, which even a resolution of
    length 0 computes."""
    from sodhh.linalg import Matrix
    from sodhh.modules import ModuleAxiomError, ModuleRep
    A = algebras["beilinson-p2"]
    acts = [Matrix.zeros(QQ, 2, 2) for _ in range(A.dim)]
    acts[A.idempotents[2]] = Matrix(QQ, 2, 2, [{0: 1}, {}])
    acts[A.idempotents[0]] = Matrix(QQ, 2, 2, [{}, {1: 1}])
    acts[A.labels.index("x1*y2")] = Matrix(QQ, 2, 2, [{}, {0: -1}])
    M = ModuleRep(A, 2, lambda i, m: acts[i].cols[m], (2, 0), check=False)
    for length in (0, 1, 3):
        with pytest.raises(ModuleAxiomError, match="not action-invariant"):
            projective_resolution(M, length)


# ---------------------------------------------------------------------------
# The tensor-product builders on catalog inputs, and the Hom complexes
# that stand for one-sided contractions


def kuenneth(*profiles):
    """Homology dimensions of a tensor product over k of complexes with
    the given homology dimensions."""
    out = {0: 1}
    for prof in profiles:
        nxt = {}
        for a, da in out.items():
            for b, db in prof.items():
                nxt[a + b] = nxt.get(a + b, 0) + da * db
        out = nxt
    return {n: d for n, d in out.items() if d}


def checked(cx):
    """Rebuild a builder's output with every construction-time check on
    (shape, slices and d^2 = 0; module axioms and L-linearity) and return
    its homology dimensions."""
    if isinstance(cx, ProjComplex):
        return ProjComplex(cx.algebra, cx.terms, cx.diffs).homology_dims()
    if isinstance(cx, ModuleComplex):
        for M in cx.modules.values():
            M.check_axioms()
        ModuleComplex(cx.algebra, cx.modules, cx.diffs)
        return FieldComplex(cx.algebra.field,
                            {n: M.dim for n, M in cx.modules.items()},
                            cx.diffs, check=True).homology_dims()
    return FieldComplex(cx.field, cx.dims, cx.diffs, check=True).homology_dims()


def test_tensor_builders_pass_checks_and_kuenneth(algebras):
    """Inputs: the bar resolution, the simples' resolutions R, and as
    left/right parts the pairs (R_v, R_w^v) and the projection kernels'."""
    nonzero = 0
    for name, A in algebras.items():
        bar = bar_resolution(A, 3)
        res = [projective_resolution(simple_module(A, v), 3)
               for v in range(A.num_vertices)]
        parts = [(R, dualize(S)) for R in res for S in res]
        if CATALOG[name].has_collection:
            parts += [(K.left, K.right)
                      for K in projection_kernels(projective_collection(A))]
        envs = [decomposable_to_env(E, F) for E, F in parts]
        for (E, F), envP in zip(parts, envs):
            assert checked(envP) == kuenneth(E.homology_dims(),
                                             F.homology_dims())
            nonzero += bool(envP.diffs)
        for P in [bar] + envs[-2:]:
            checked(tensor_env_module(P, dual_bimodule(A)))
        twists = [serre_twist_left(R) for R in res]
        Ws = []
        for E, F in parts:
            # F (x)_A E and F (x)_A T as Hom complexes out of F^v
            Fv = dualize(F)
            Ws.append(ModuleHomComplex(Fv, E).field_complex())
            for T in twists:
                Ws.append(ModuleHomComplex(Fv, T).field_complex())
        for W in Ws:
            checked(W)
            nonzero += bool(W.diffs)
    assert nonzero > 0


def dense_linearity_error(cx):
    """The ComplexError message of L-linearity tested on every basis
    element b_i at the basis vectors at src(b_i), or None: the oracle of
    ModuleComplex(check=True), which tests only the idempotents and the
    radical generators."""
    alg = cx.algebra
    for n, d in cx.diffs.items():
        M, N = cx.modules[n], cx.modules[n + 1]
        for m, v in enumerate(M.grading):
            for i in alg.column_indices(v):
                if d.apply(M.column(i, m)) != N.act({i: alg.field.one},
                                                    d.cols[m]):
                    return f"differential at degree {n} is not L-linear"
    return None


def linearity_error(cx):
    try:
        ModuleComplex(cx.algebra, cx.modules, cx.diffs)
    except ComplexError as exc:
        return str(exc)
    return None


def column_mutants(cx, rng, count):
    """Two-term complexes M^n -> M^{n+1} of cx, each with one column of d^n
    doubled, cleared, or given an extra unit entry at a row of the same
    vertex; d^2 = 0 holds on each, so only L-linearity can fail."""
    f = cx.algebra.field
    for n, d in cx.diffs.items():
        M, N = cx.modules[n], cx.modules[n + 1]
        for _ in range(count):
            m = rng.randrange(d.ncols)
            col, kind = dict(d.cols[m]), rng.randrange(3)
            if kind == 0:
                col = {r: f.add(c, c) for r, c in col.items()}
            elif kind == 1:
                col = {}
            else:
                rows = [r for r, w in enumerate(N.grading)
                        if w == M.grading[m]]
                if not rows:
                    continue
                r = rng.choice(rows)
                col[r] = f.add(col.get(r, f.zero), f.one)
                col = {r: c for r, c in col.items() if c}
            cols = list(d.cols)
            cols[m] = col
            yield ModuleComplex(cx.algebra, {0: M, 1: N},
                                {0: Matrix(f, d.nrows, d.ncols, cols)},
                                check=False)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_linearity_check_agrees_with_dense_oracle(field):
    """The Serre twists of the simples' resolutions and tensor_env_module
    of the diagonal resolution with the regular and the dual bimodule, on
    the catalog, and three single-column mutants of each differential: the
    generator check and the all-basis check accept and reject the same
    complexes."""
    import random
    from sodhh.hochschild import diagonal_resolution
    rng = random.Random(11)
    verdicts = {}
    for entry in CATALOG.values():
        A = entry.algebra(field)
        res = [projective_resolution(simple_module(A, v), 3)
               for v in range(A.num_vertices)]
        outputs = [serre_twist_left(R) for R in res]
        if A.dim <= 8:
            P = diagonal_resolution(A, 2)
            outputs += [tensor_env_module(P, M)
                        for M in (regular_bimodule(A), dual_bimodule(A))]
        for cx in outputs:
            assert linearity_error(cx) is None
            assert dense_linearity_error(cx) is None
            for X in column_mutants(cx, rng, 3):
                ours = linearity_error(X)
                assert ours == dense_linearity_error(X)
                verdicts[ours] = verdicts.get(ours, 0) + 1
    assert set(verdicts) == {None,
                             "differential at degree 0 is not L-linear"}


# ---------------------------------------------------------------------------
# The sparse {(row, col): element} form of differentials and chain maps


def assert_sparse(m, n_rows, n_cols):
    """Every stored key is in range and every stored element nonzero."""
    for (r, c), x in m.items():
        assert 0 <= r < n_rows and 0 <= c < n_cols
        assert x and all(x.values())


def assert_sparse_complex(X):
    assert set(X.diffs) <= {n for n in X.terms if n + 1 in X.terms}
    for n, d in X.diffs.items():
        assert_sparse(d, len(X.terms[n + 1]), len(X.terms[n]))


def assert_minimalized(X):
    """minimalize(X) is sparse, has every entry in the radical and the
    homology of X."""
    M = minimalize(X)
    assert_sparse_complex(M)
    rad = set(M.algebra.radical_indices())
    assert all(set(x) <= rad for d in M.diffs.values() for x in d.values())
    assert M.homology_dims() == X.homology_dims()


def test_sparse_form_invariants(algebras):
    """Bar resolutions, simples' resolutions, (co)evaluation maps between
    projectives and simples' resolutions, their mutation cones with the
    minimalized cones, and the ProjComplex outputs of the tensor
    builders, over every catalog algebra."""
    cones = 0
    for A in algebras.values():
        bar = bar_resolution(A, 3)
        res = [projective_resolution(simple_module(A, v), 3)
               for v in range(A.num_vertices)]
        objects = [single_projective(A, v)
                   for v in range(A.num_vertices)] + res
        for X in [bar] + res:
            assert_sparse_complex(X)
        for E in objects:
            for F in objects:
                for f, s in ((evaluation_map(E, F), 0),
                             (coevaluation_map(F, E), -1)):
                    for n, m in f.mats.items():
                        assert_sparse(m, len(f.target.terms[n]),
                                      len(f.source.terms[n]))
                    C = cone(f).shift(s)
                    assert_sparse_complex(C)
                    assert_minimalized(C)
                    cones += bool(C.diffs)
        envs = [decomposable_to_env(R, dualize(S)) for R in res for S in res]
        for T in envs:
            assert_sparse_complex(T)
    assert cones > 0


def test_out_of_range_keys_have_the_wrong_shape(A2):
    """A key outside terms x terms is a shape error, for differentials and
    chain maps alike."""
    terms = {0: (1,), 1: (0,)}
    a = A2.arrow_element("a")
    for key in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        with pytest.raises(ComplexError,
                           match="differential at degree 0 has the wrong shape"):
            ProjComplex(A2, terms, {0: {key: a}})
    P = single_projective(A2, 0)
    with pytest.raises(ComplexError,
                       match="chain map at degree 0 has the wrong shape"):
        ChainMap(P, P, {0: {(0, 1): A2.idem(0)}})


# ---------------------------------------------------------------------------
# The one Hom assembler against the two it replaced

def reference_hom(X, Y):
    """The basis and differentials of Hom(X, Y) as the two separate
    classes built them: for a ProjComplex Y the cochains (i, sX, sY, t)
    with t in the slice e_v L e_w, for a ModuleComplex Y the cochains
    (i, sX, m) with m graded by v."""
    alg = X.algebra
    f = alg.field
    proj = isinstance(Y, ProjComplex)
    targets = Y.terms if proj else Y.modules
    basis = {}
    for n in {j - i for i in X.terms for j in targets}:
        b = []
        for i in sorted(X.terms):
            if (i + n) not in targets:
                continue
            for sX, v in enumerate(X.terms[i]):
                if proj:
                    b += [(i, sX, sY, t)
                          for sY, w in enumerate(Y.terms[i + n])
                          for t in alg.slice_indices(v, w)]
                else:
                    M = Y.modules[i + n]
                    b += [(i, sX, m) for m in range(M.dim) if M.grading[m] == v]
        if b:
            basis[n] = b
    pos = {n: {c: k for k, c in enumerate(bs)} for n, bs in basis.items()}
    x_rows = {m: _lines(d, 0) for m, d in X.diffs.items()}
    y_cols = {m: _lines(d, 1) for m, d in Y.diffs.items()} if proj else {}
    mats = {}
    for n in basis:
        if (n + 1) not in basis:
            continue
        sign = f.one if n % 2 == 0 else f.neg(f.one)
        tgt_pos = pos[n + 1]
        entries = {}

        def put(key, col, v):
            r = tgt_pos.get(key)
            if r is not None:
                entries[(r, col)] = f.add(entries.get((r, col), f.zero), v)
        for col, cochain in enumerate(basis[n]):
            if proj:
                i, sX, sY, t = cochain
                for i2, u in y_cols.get(i + n, {}).get(sY, ()):
                    for k, v in alg.multiply({t: f.one}, u).items():
                        put((i, sX, i2, k), col, v)
                for j2, a in x_rows.get(i - 1, {}).get(sX, ()):
                    for k, v in alg.multiply(a, {t: f.one}).items():
                        put((i - 1, j2, sY, k), col, f.neg(f.mul(sign, v)))
            else:
                i, sX, m = cochain
                M = Y.modules[i + n]
                if (i + n) in Y.diffs:
                    for m2, v in Y.diffs[i + n].cols[m].items():
                        put((i, sX, m2), col, v)
                for j2, a in x_rows.get(i - 1, {}).get(sX, ()):
                    img = {}
                    for k, c in a.items():
                        for m2, v in M.column(k, m).items():
                            img[m2] = f.add(img.get(m2, f.zero), f.mul(c, v))
                    for m2, v in img.items():
                        put((i - 1, j2, m2), col, f.neg(f.mul(sign, v)))
        mats[n] = Matrix.from_entries(f, len(basis[n + 1]), len(basis[n]),
                                      entries)
    return basis, mats


def check_hom(X, Y):
    """The Hom assembler has the reference basis, after translating a
    realized position m of a projective target to its (sY, t), and the
    reference matrices; returns how many of them are nonzero.  The basis
    is read through HomComplex, which adds only it and the chain-map
    passage to ModuleHomComplex."""
    h = HomComplex(X, Y)
    assert ModuleHomComplex(X, Y).mats == h.mats
    basis, mats = reference_hom(X, Y)
    if isinstance(Y, ProjComplex):
        realized = Y.realize_bases()
        assert {n: [(i, sX) + realized[i + n][m] for i, sX, m in b]
                for n, b in h.basis.items()} == basis
    else:
        assert h.basis == basis
    assert h.mats == mats
    return sum(not m.is_zero() for m in mats.values())


def test_hom_assembler_matches_the_two_it_replaced(algebras):
    nonzero = 0
    for name, A in algebras.items():
        objects = [single_projective(A, v) for v in range(A.num_vertices)]
        objects += [cone(evaluation_map(E, F))
                    for E in objects for F in objects if E is not F]
        objects += [projective_resolution(simple_module(A, v), 3)
                    for v in range(A.num_vertices)]
        for X in objects:
            for Y in objects:
                nonzero += check_hom(X, Y)
        bar = bar_resolution(A, 3)
        for M in (regular_bimodule(A), dual_bimodule(A)):
            nonzero += check_hom(bar, module_complex_single(M))
        if CATALOG[name].has_collection:
            DA = dual_bimodule(A)
            for P in projection_kernels(projective_collection(A)):
                envP = decomposable_to_env(P.left, P.right)
                nonzero += check_hom(envP, tensor_env_module(envP, DA))
                nonzero += check_hom(envP, envP)
    assert nonzero > 0


def test_chainmap_to_cochain_inverts_cochain_to_chainmap(algebras):
    count = 0
    for A in algebras.values():
        objects = [single_projective(A, v) for v in range(A.num_vertices)]
        objects += [projective_resolution(simple_module(A, v), 3)
                    for v in range(A.num_vertices)]
        for X in objects:
            for Y in objects:
                h = HomComplex(X, Y)
                for n in h.basis:
                    for vec in h.cocycle_representatives(n):
                        cm = h.cochain_to_chainmap(vec, n)
                        assert h.chainmap_to_cochain(cm, n) == vec
                        count += 1
    assert count > 0


# ---------------------------------------------------------------------------
# The block-offset Hom assembly on the targets of HH^* and of Kuenneth Ext


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_hom_assembler_matches_reference_on_diagonal_resolutions(field):
    """Hom(K, A) and Hom(K, DA) for the diagonal resolution of every
    catalog algebra (loop-x2 and a quadratic algebra that is not Koszul
    take the minimal bimodule resolution), and of generated P^2 and P^3."""
    from sodhh.hochschild import diagonal_resolution
    from test_hochschild import _not_koszul
    from test_cli import _benchmark_inputs
    from sodhh.cli import parse_quiver_document
    inputs = _benchmark_inputs()
    kind = {"kind": "q"} if field == QQ else {"kind": "fp", "p": 3}
    algebras = [entry.algebra(field) for entry in CATALOG.values()]
    algebras.append(_not_koszul(field))
    algebras += [parse_quiver_document(
        inputs.beilinson_quiver_doc(n, kind, 101)).build() for n in (2, 3)]
    assert {A.field for A in algebras} == {field}
    nonzero = 0
    for A in algebras:
        K = diagonal_resolution(A, 4)
        for M in (regular_bimodule(A), dual_bimodule(A)):
            nonzero += check_hom(K, module_complex_single(M))
    assert nonzero > 0


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_hom_assembler_matches_reference_into_serre_twists(field):
    """Hom(F_i', serre_twist_left(F_j')) for the right factors of the
    projection kernels, the twisted route that tests/test_kernels.py
    compares with decomposable_ext's Nakayama reading: module complexes
    with nonzero differentials."""
    nonzero = with_diffs = 0
    for entry in CATALOG.values():
        if not entry.has_collection:
            continue
        kernels = projection_kernels(projective_collection(entry.algebra(field)))
        twisted = [serre_twist_left(P.right) for P in kernels]
        with_diffs += sum(bool(Y.diffs) for Y in twisted)
        for P in kernels:
            for Y in twisted:
                nonzero += check_hom(P.right, Y)
    assert nonzero > 0 and with_diffs > 0


def test_hom_images_outside_their_block_raise(A2):
    """An image of d_Y or of an entry of d_X at the wrong vertex has no
    cochain to land on; the assembler raises instead of dropping it."""
    from sodhh.linalg import ZERO_COLUMN
    from sodhh.modules import ModuleRep
    # an entry e_1 from L e_0 to L e_1, outside e_0 L e_1: on Hom(-, L e_0)
    # it leaves the arrows (at vertex 1) where vertex 0 is expected
    X = ProjComplex(A2, {-1: (0,), 0: (1,)}, {-1: {(0, 0): A2.idem(1)}},
                    check=False)
    with pytest.raises(ComplexError, match="entry of d_X moves a position"):
        ModuleHomComplex(X, single_projective(A2, 0))
    # a d_Y from S_0 into S_0 (+) S_1 that sends e_0 to the vector at 1
    grading = (0, 1)
    N = ModuleRep(A2, 2, lambda k, m: ({m: 1} if k == A2.idempotents[grading[m]]
                                       else ZERO_COLUMN), grading)
    Y = ModuleComplex(A2, {0: simple_module(A2, 0), 1: N},
                      {0: Matrix(A2.field, 2, 1, [{1: 1}])}, check=False)
    with pytest.raises(ComplexError, match="d_Y\\^0 moves a position"):
        ModuleHomComplex(single_projective(A2, 0), Y)


def test_shared_images_are_checked_per_row_vertex(A2):
    """Two terms with the same key into the same summand vertex share one
    image, but each is checked at its own row vertex: e_0 from L e_0 to
    L e_0 is fine, e_0 from L e_1 to L e_0 raises, in either order."""
    for vertices in ((0, 1), (1, 0)):
        X = ProjComplex(A2, {-1: vertices, 0: (0,)},
                        {-1: {(0, c): A2.idem(0) for c in range(2)}},
                        check=False)
        with pytest.raises(ComplexError,
                           match="moves a position of Y\\^0 off vertex 1"):
            ModuleHomComplex(X, single_projective(A2, 0))


def test_cancelling_terms_leave_no_stored_zero(monkeypatch):
    """The terms c b_k of an entry of d_X add up in one cell: on kronecker2
    the entry a - b from A e_2 to A e_1, into k (+) k at vertices 1 and 2
    with a and b both acting as 1, cancels, so the degree-0 column is
    empty.  And no column of a Hom matrix that kernels orthogonality or
    serre-check assembles on the catalog holds a zero."""
    import sodhh.complexes as complexes
    from sodhh.cli import run_command
    from sodhh.linalg import ZERO_COLUMN
    from sodhh.modules import ModuleRep
    A = CATALOG["kronecker2"].algebra(QQ)
    a, b = A.labels.index("a"), A.labels.index("b")
    X = ProjComplex(A, {-1: (1,), 0: (0,)}, {-1: {(0, 0): {a: 1, b: -1}}})

    def column(k, m):
        if k == A.idempotents[m]:
            return {m: 1}
        return {1: 1} if k in (a, b) and m == 0 else ZERO_COLUMN
    hom = ModuleHomComplex(X, module_complex_single(ModuleRep(A, 2, column,
                                                              (0, 1))))
    assert hom.mats[0].cols == [{}]
    assert hom.ext_profile() == {0: 1, 1: 1}
    mats, real = [], complexes._hom

    def kept(*args):
        out = real(*args)
        mats.extend(out[-1].values())
        return out
    monkeypatch.setattr(complexes, "_hom", kept)
    for name, entry in CATALOG.items():
        for argv in (["kernels", "orthogonality"], ["serre-check"]):
            if entry.has_collection or argv == ["serre-check"]:
                code, _ = run_command(argv + ["--catalog", name])
                assert code == 0, (name, argv)
    assert mats and all(all(col.values()) for m in mats for col in m.cols)


def test_koszul_hom_reads_each_action_once(monkeypatch):
    """HH^* of generated P^4 is assembled by the shared complexes._hom,
    which builds the image of each (key, v, w) once per degree: _action's
    split is asked once per distinct (n, (p, q), v, w) over the terms
    (s, t, (p, q), c) of the diagonal resolution's degree n, v and w the
    vertices of the summands s and t, and the image p m q is read once per
    such group and position m of v's block; every split is asked inside
    _hom.  The terms outnumber the groups, so images are shared."""
    import sodhh.hochschild as hochschild
    from test_hochschild import _generated_beilinson
    splits, reads, inside = [], [], []
    real_action, real_hom = hochschild._action, hochschild._hom

    def counting_action(A, M):
        split = real_action(A, M)

        def counted(j, pq):
            splits.append((bool(inside), pq))
            col, k = split(j, pq)

            def read(k, m):
                reads.append((*pq, m))
                return col(k, m)
            return read, k
        return counted

    def hom(*args):
        inside.append(True)
        try:
            return real_hom(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(hochschild, "_action", counting_action)
    monkeypatch.setattr(hochschild, "_hom", hom)
    A = _generated_beilinson(4)
    M = regular_bimodule(A)
    assert hochschild.hh_cohomology(A, 5).as_tuple() == (1, 24, 126, 224,
                                                         126, 0)
    ends, terms = hochschild._diagonal_terms(A, 6)
    groups = {(n, pq, ends[n - 1][s], ends[n][t]) for n in range(1, len(terms))
              for s, t, pq, _ in terms[n]}
    expected = [(*pq, m) for _, pq, v, _ in groups for m in range(M.dim)
                if M.grading[m] == M.algebra.vertex(*v)]
    assert sorted(splits) == sorted((True, pq) for _, pq, _, _ in groups)
    assert len(groups) < sum(len(t) for t in terms[1:])
    assert sorted(reads) == sorted(expected)


@pytest.mark.parametrize("generated", [False, True],
                         ids=["beilinson-p2", "generated-p3"])
def test_serre_twist_columns_are_read_once_per_hom(monkeypatch, generated):
    """On the serre-check probe pairs (X, serre_twist_left(Y)) of
    beilinson-p2 and generated P^3, no column (j, key, m) of the twist is
    read twice within one Hom assembly: the terms that share a key share
    its image, and on these directed algebras a key of d_X occurs in one
    degree only."""
    import sodhh.complexes as complexes
    reads, real = [], complexes._as_modules

    def counting(Y):
        gradings, diffs, column = real(Y)

        def counted(j, key):
            col, k = column(j, key)

            def read(k2, m):
                reads.append((j, key, m))
                return col(k2, m)
            return read, k
        return gradings, diffs, counted
    monkeypatch.setattr(complexes, "_as_modules", counting)
    if generated:
        from test_hochschild import _generated_beilinson
        A = _generated_beilinson(3)
    else:
        A = CATALOG["beilinson-p2"].algebra(QQ)
    probes = [single_projective(A, v) for v in range(A.num_vertices)]
    probes += [simple_resolution(A, v, "left", 7)
               for v in range(A.num_vertices)]
    total = 0
    for Y in probes:
        SY = serre_twist_left(Y)
        for X in probes:
            reads.clear()
            ModuleHomComplex(X, SY)
            assert len(reads) == len(set(reads))
            total += len(reads)
    assert total


# ---------------------------------------------------------------------------
# projective_resolution against the syzygy-module construction it replaced


from sodhh.algebra import Relation, TensorOpposite
from sodhh.linalg import GF, ColumnEchelon, SubspaceReducer


def reference_resolution(M, length):
    """Minimal projective resolution that rebuilds every syzygy as a
    ModuleRep, its action solved back from the kernel vectors over every
    basis element b with b y != 0; the oracle for projective_resolution,
    which must give dict-equal terms and diffs."""
    from sodhh.modules import ModuleAxiomError, ModuleRep
    alg = M.algebra
    f = alg.field
    if isinstance(alg, TensorOpposite):
        b_right = _lines(alg.factors[0].mult, 1)
        c_left = _lines(alg.factors[1].mult, 0)

        def left_factors(y):
            j1, j2 = alg.index_pair(y)
            bs = [alg.pair_index(i1, i2) for i1, _ in b_right.get(j1, ())
                  for i2, _ in c_left.get(j2, ())]
            return [(b, alg.product(b, y)) for b in bs]
    else:
        by_right = _lines(alg.mult, 1)

        def left_factors(y):
            return by_right.get(y, ())
    terms, diffs = {}, {}
    current, embed, prev_cover_basis = M, None, None
    for step in range(length + 1):
        if current.dim == 0:
            break
        red = SubspaceReducer(f, current.dim)
        for r in alg.radical_indices():
            for m in range(current.dim):
                col = current.column(r, m)
                if col:
                    red.add(col)
        gens = [(current.grading[m], m) for m in range(current.dim)
                if red.add({m: f.one})]
        terms[-step] = tuple(v for v, _ in gens)
        if embed is not None:
            d = diffs[-step] = {}
            for s, (v, m) in enumerate(gens):
                for colpos, c in embed[m].items():
                    s0, y = prev_cover_basis[colpos]
                    d.setdefault((s0, s), {})[y] = c
        cover_cols, cover_basis = [], []
        for s, (v, m) in enumerate(gens):
            for y in alg.column_indices(v):
                cover_cols.append(dict(current.column(y, m)))
                cover_basis.append((s, y))
        cover_pos = {sy: i for i, sy in enumerate(cover_basis)}
        kernel_vecs = ColumnEchelon(
            Matrix(f, current.dim, len(cover_cols), cover_cols)).kernel_basis()
        if not kernel_vecs:
            break
        solver = ColumnEchelon(Matrix(f, len(cover_cols), len(kernel_vecs),
                                      kernel_vecs))
        grading = []
        for kv in kernel_vecs:
            vv = {alg.tgt[cover_basis[c][1]] for c in kv}
            if len(vv) != 1:
                raise ModuleAxiomError("kernel basis not graded")
            grading.append(vv.pop())
        cols = [[{} for _ in kernel_vecs] for _ in range(alg.dim)]
        for n, kv in enumerate(kernel_vecs):
            imgs = {}
            for colpos, c in kv.items():
                s0, y = cover_basis[colpos]
                for b, prod in left_factors(y):
                    img = imgs.setdefault(b, {})
                    for y2, c2 in prod.items():
                        ip = cover_pos[(s0, y2)]
                        img[ip] = f.add(img.get(ip, f.zero), f.mul(c, c2))
            for b, img in imgs.items():
                sol = solver.solve({k: x for k, x in img.items() if x})
                if sol is None:
                    raise ModuleAxiomError("kernel is not action-invariant")
                cols[b][n] = sol
        current = ModuleRep(alg, len(kernel_vecs),
                            lambda b, m, cols=cols: cols[b][m],
                            tuple(grading), check=False)
        embed, prev_cover_basis = kernel_vecs, cover_basis
    return ProjComplex(alg, terms, diffs, check=True)


def assert_matches_reference(M, length):
    ours, ref = projective_resolution(M, length), reference_resolution(M, length)
    assert ours.terms == ref.terms
    assert ours.diffs == ref.diffs


def beilinson(n, field):
    """The Beilinson quiver of P^n with its commutativity relations."""
    arrows = [(f"x{k}_{i}", str(k), str(k + 1))
              for k in range(1, n + 1) for i in range(n + 1)]
    rels = [Relation(((1, (f"x{k}_{i}", f"x{k + 1}_{j}")),
                      (-1, (f"x{k}_{j}", f"x{k + 1}_{i}"))))
            for k in range(1, n) for i in range(n + 1)
            for j in range(i + 1, n + 1)]
    return build_path_algebra(
        Quiver.make([str(k) for k in range(1, n + 2)], arrows), rels, field)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_resolutions_of_catalog_simples_match_reference(field):
    """Every catalog simple; loop-x2 has infinite global dimension and is
    truncated at the length."""
    for entry in CATALOG.values():
        A = entry.algebra(field)
        for v in range(A.num_vertices):
            assert_matches_reference(simple_module(A, v), 5)


@pytest.mark.parametrize("n", [2, 3])
def test_resolutions_of_beilinson_simples_match_reference(n):
    A = beilinson(n, QQ)
    for v in range(A.num_vertices):
        assert_matches_reference(simple_module(A, v), n + 2)


def test_resolutions_of_bimodules_match_reference(algebras):
    for name in ("beilinson-p2", "kronecker2"):
        A = algebras[name]
        for M in (regular_bimodule(A), dual_bimodule(A)):
            assert_matches_reference(M, 4)
    _, _, m = CATALOG["kronecker3-gluing"].gluing(QQ)
    assert_matches_reference(m, 7)


def test_bimodule_resolution_reads_few_pair_actions(algebras):
    """Only the generators' columns and the cover columns of the first
    step are read: 54 of the 225 x 15 columns of b_i (x) b_j on
    beilinson-p2, of 42 of the 225 pairs."""
    M = regular_bimodule(algebras["beilinson-p2"])
    read, column = set(), M.column

    def counted(k, m):
        read.add((k, m))
        return column(k, m)
    M.column = counted
    projective_resolution(M, 3)
    assert len(read) <= 54
    assert len({k for k, _ in read}) <= 42


def reference_realize(X):
    """The realization as realize built it before it summed the products
    of each column itself: one column_indices lookup per summand, and
    alg.multiply({y: 1}, x) per entry placed with Matrix.from_entries.
    Returns (dims, diffs)."""
    alg = X.algebra
    f = alg.field
    bases = {}
    for n, t in X.terms.items():
        basis = []
        for s, v in enumerate(t):
            for k in alg.column_indices(v):
                basis.append((s, k))
        bases[n] = basis
    index = {n: {sk: i for i, sk in enumerate(b)} for n, b in bases.items()}
    dims = {n: len(b) for n, b in bases.items()}
    diffs = {}
    for n, d in X.diffs.items():
        cols = _lines(d, 1)
        tgt_pos = index[n + 1]
        entries = {}
        for col, (j, y) in enumerate(bases[n]):
            for i, x in cols.get(j, ()):
                for k, v in alg.multiply({y: f.one}, x).items():
                    entries[(tgt_pos[(i, k)], col)] = v
        diffs[n] = Matrix.from_entries(f, dims.get(n + 1, 0), dims[n],
                                       entries)
    return dims, diffs


def _random_in_slices(rng, alg, terms):
    """A ProjComplex with the given terms whose every entry is a random
    element of its e_v L e_w slice with up to four terms, coefficients in
    -2, -1, 1, 2 (d^2 = 0 is not asked for)."""
    f, diffs = alg.field, {}
    for n, t in terms.items():
        if n + 1 in terms:
            diffs[n] = {}
            for r, w in enumerate(terms[n + 1]):
                for c, v in enumerate(t):
                    ks = alg.slice_indices(v, w)
                    x = {k: f.coerce(rng.choice([-2, -1, 1, 2]))
                         for k in rng.sample(ks, min(4, len(ks)))}
                    if x:
                        diffs[n][r, c] = x
    return ProjComplex(alg, terms, diffs, check=False)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_realize_matches_the_multiply_construction(field):
    """realize gives the reference's bases and matrices on the minimal
    bimodule resolutions of beilinson-p2, kronecker2 and loop-x2 (whose
    entries a (x) 1 - 1 (x) a have two terms), the bar resolutions of the
    first two, and complexes with random entries of up to four terms over
    each of them, over 0 -a-> 1 =(b, c)=> 2 with ab = ac, and over their
    A (x) A^op.  There a b and a c are one basis element, so the products
    of one column meet in it and are summed, to zero when they cancel."""
    import random
    from sodhh.algebra import Relation
    rng = random.Random(27)
    parallel = build_path_algebra(
        Quiver.make(("0", "1", "2"), (("a", "0", "1"), ("b", "1", "2"),
                                      ("c", "1", "2"))),
        [Relation(((1, ("a", "b")), (-1, ("a", "c"))))], field)
    algebras = [CATALOG[name].algebra(field)
                for name in ("beilinson-p2", "kronecker2", "loop-x2")]
    complexes = [projective_resolution(regular_bimodule(A), 3)
                 for A in algebras]
    complexes += [bar_resolution(A, 3) for A in algebras[:2]]
    for A in algebras + [parallel]:
        for alg in (A, A.enveloping()):
            nv = alg.num_vertices
            complexes.append(_random_in_slices(rng, alg, {
                n: [rng.randrange(nv) for _ in range(3)] for n in (-2, -1, 0)}))
    assert any(len(x) > 1 for X in complexes for d in X.diffs.values()
               for x in d.values())
    for X in complexes:
        dims, diffs = reference_realize(X)
        fc = X.realize()
        assert fc.dims == {n: m for n, m in dims.items() if m}
        assert fc.diffs == diffs and diffs


# ---------------------------------------------------------------------------
# Clearing: FieldComplex.homology_dims ranks each differential on the
# complement of the previous image.  The oracle ranks each on its own.


def independent_rank_dims(fc):
    """homology_dims without clearing: every differential ranked alone."""
    ranks = {n: rank(m) for n, m in fc.diffs.items()}
    out = {}
    for n, d in fc.dims.items():
        h = d - ranks.get(n, 0) - ranks.get(n - 1, 0)
        if h:
            out[n] = h
    return out


@contextmanager
def homology_checked_by_independent_ranks():
    """Inside the block every FieldComplex.homology_dims is compared with
    independent_rank_dims.  Yields counts of the complexes compared and of
    those with columns to clear (a nonzero d^(n-1) before a d^n)."""
    counts = {"complexes": 0, "cleared": 0}
    clearing = FieldComplex.homology_dims

    def checked(fc):
        dims = clearing(fc)
        assert dims == independent_rank_dims(fc)
        counts["complexes"] += 1
        counts["cleared"] += any(n - 1 in fc.diffs and not fc.diffs[n - 1].is_zero()
                                 for n in fc.diffs)
        return dims
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FieldComplex, "homology_dims", checked)
        yield counts


def read_every_homology(A, n_max, directed):
    """What sodhh reads homology from on A: Priddy's certificate (through
    global_dimension), HH^*, HH_* and the Serre route; on a directed
    algebra also the Ext of serre-check's probes and of the kernels'
    orthogonality report, all through ext_profile."""
    global_dimension(A, n_max)
    hh_cohomology(A, n_max)
    hh_homology(A, n_max)
    homology_via_serre_dual(A, n_max)
    if not directed:
        return
    probes = [single_projective(A, v) for v in range(A.num_vertices)]
    probes += [simple_resolution(A, v, "left", n_max + 1)
               for v in range(A.num_vertices)]
    for Y in probes:
        SY = serre_twist_left(Y)
        for X in probes:
            ext_profile(X, SY)
            ext_profile(Y, X)
    orthogonality_report(projection_kernels(projective_collection(A)))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_clearing_matches_independent_ranks_on_catalog_and_beilinson(field):
    """Every catalog algebra and generated P^2-P^4: equal dims on each
    complex (805 per field today, 80 of them with columns to clear; most
    Ext complexes of a probe have one differential)."""
    from sodhh.cli import parse_quiver_document
    from test_cli import _benchmark_inputs
    inputs = _benchmark_inputs()
    kind = {"kind": "q"} if field == QQ else {"kind": "fp", "p": 3}
    with homology_checked_by_independent_ranks() as counts:
        for entry in CATALOG.values():
            read_every_homology(entry.algebra(field), 4, entry.has_collection)
        for n in (2, 3, 4):
            A = parse_quiver_document(
                inputs.beilinson_quiver_doc(n, kind, 101)).build()
            read_every_homology(A, n + 1, n < 4)
    assert counts["cleared"] >= 50


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(quadratic_quivers())
def test_clearing_matches_independent_ranks_on_random_quadratic_quivers(A):
    with homology_checked_by_independent_ranks() as counts:
        read_every_homology(A, 4, True)
    assert counts["complexes"]


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(st.one_of(non_koszul_quivers(), cyclic_monomial_quivers()))
def test_clearing_matches_independent_ranks_off_koszul(A):
    """The non-Koszul family takes the minimal bimodule resolution; the
    cyclic monomial quivers have oriented cycles and no collection."""
    with homology_checked_by_independent_ranks() as counts:
        read_every_homology(A, 3, False)
    assert counts["complexes"]


@pytest.mark.parametrize("dims, diffs, expected", [
    # a zero-dimensional degree 2 between two nonzero stretches
    ({0: 1, 1: 1, 2: 0, 3: 1, 4: 1}, {0: [[1]], 3: [[1]]}, {}),
    # no differential into degree 2: d^1 is zero and not given
    ({0: 1, 1: 1, 2: 1, 3: 1}, {0: [[1]], 2: [[1]]}, {}),
    # a zero d^1 given explicitly clears nothing either
    ({0: 1, 1: 1, 2: 1, 3: 1}, {0: [[1]], 1: [[0]], 2: [[1]]}, {}),
    # d^0 hits position 0 of C^1, so d^1 is ranked on position 1 only
    ({0: 1, 1: 2, 2: 1}, {0: [[1], [0]], 1: [[0, 1]]}, {}),
    ({0: 1, 1: 2, 2: 2}, {0: [[1], [1]], 1: [[1, -1], [1, -1]]}, {2: 1}),
])
@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["q", "f3"])
def test_clearing_resets_at_a_gap(dims, diffs, expected, field):
    """The lows of d^(n-1) clear columns of d^n only: after a missing
    degree or differential they do not carry over.  Were the lows {0} of
    d^0 carried past the gap, column 0 of the last differential would be
    dropped and its rank read as 0."""
    fc = FieldComplex(field, dims, {
        n: Matrix.from_rows(field, rows) for n, rows in diffs.items()},
        check=True)
    assert fc.homology_dims() == independent_rank_dims(fc) == expected


@contextmanager
def recorded_echelons():
    """The rank-only echelons that homology_dims builds, in order."""
    import sodhh.complexes
    made = []

    class Recording(ColumnEchelon):
        __slots__ = ()

        def __init__(self, m, transform=True):
            super().__init__(m, transform)
            made.append(self)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sodhh.complexes, "ColumnEchelon", Recording)
        yield made


def _generated_p3(field):
    from sodhh.cli import parse_quiver_document
    from test_cli import _benchmark_inputs
    kind = {"kind": "q"} if field == QQ else {"kind": "fp", "p": 32003}
    return parse_quiver_document(
        _benchmark_inputs().beilinson_quiver_doc(3, kind, 101)).build()


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["q", "fp"])
def test_clearing_leaves_no_zero_column_on_the_certificate(field):
    """Priddy's certificate of P^3 is exact off H_0 = k, so the columns
    left after clearing are independent: none reduces to zero."""
    from sodhh.hochschild import _koszul_certificate, certified_koszul
    A = _generated_p3(field)
    ends, terms = certified_koszul(A, 4)
    cert = _koszul_certificate(A, ends, terms)
    with recorded_echelons() as made:
        dims = cert.homology_dims()
    assert dims == independent_rank_dims(cert) == {0: A.num_vertices}
    assert len(made) == len(cert.diffs) > 2
    assert [j for ech in made for j in ech.free_columns()] == []


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["q", "fp"])
def test_clearing_drops_rank_of_the_previous_differential(field):
    """On Hom(K, A) of P^3 the columns dropped from d^n number rank
    d^(n-1), and the first differential is ranked as given."""
    from sodhh.hochschild import _diagonal_terms, _hom_complex
    A = _generated_p3(field)
    fc = _hom_complex(A, regular_bimodule(A), *_diagonal_terms(A, 5))
    with recorded_echelons() as made:
        fc.homology_dims()
    degrees = sorted(fc.diffs)
    assert degrees == list(range(degrees[0], degrees[0] + len(degrees)))
    assert [ech.matrix for ech in made][:1] == [fc.diffs[degrees[0]]]
    dropped = [fc.diffs[n].ncols - ech.matrix.ncols
               for n, ech in zip(degrees, made)]
    assert dropped[0] == 0 and sum(dropped) > 0
    assert dropped[1:] == [rank(fc.diffs[n]) for n in degrees[:-1]]
