import pytest

from sodhh.algebra import Quiver, build_path_algebra
from sodhh.catalog import structure_hash
from sodhh.complexes import (ChainMap, cone, direct_sum, ext_profile,
                             hom_complex, minimalize,
                             module_complex_single, projective_resolution,
                             single_projective)
from sodhh.exceptional import (ExceptionalCollection, NotFull, NotStrong,
                               bdi_check, dual_collection, endomorphism_algebra,
                               evaluation_map, is_exceptional_collection,
                               minimal_data, mutate, projective_collection,
                               sod_project)
from sodhh.hochschild import hh_cohomology, hh_homology
from sodhh.linalg import QQ
from sodhh.modules import simple_module


def kron(n):
    q = Quiver.make(("1", "2"), tuple((chr(97 + i), "1", "2") for i in range(n)))
    return build_path_algebra(q, [], QQ)


@pytest.fixture(scope="module")
def K2():
    return kron(2)


@pytest.fixture(scope="module")
def coll2(K2):
    return projective_collection(K2)


@pytest.fixture(scope="module")
def B(algebras):
    return algebras["beilinson-p2"]


@pytest.fixture(scope="module")
def collB(B):
    return projective_collection(B)


def catalog_collections(algebras):
    for name, A in algebras.items():
        if name == "loop-x2":
            continue
        yield name, A, projective_collection(A)


# -- recognizing exceptional collections ------------------------------------


def test_projectives_are_exceptional(K2):
    for n in (1, 2, 3):
        A = kron(n)
        objs = [single_projective(A, 1), single_projective(A, 0)]
        ok, violations = is_exceptional_collection(objs)
        assert ok and not violations


def test_wrong_order_is_not_exceptional():
    for n in (1, 2, 3):
        A = kron(n)
        objs = [single_projective(A, 0), single_projective(A, 1)]
        ok, violations = is_exceptional_collection(objs)
        assert not ok
        assert any(f"{{0: {n}}}" in v for v in violations)


def test_simple_over_loop_not_exceptional(algebras):
    A = algebras["loop-x2"]
    S = simple_module(A, 0)
    res = projective_resolution(S, 6)
    # the module itself has self-extensions in every degree (periodicity)
    assert ext_profile(res, module_complex_single(S)).get(1) == 1
    ok, violations = is_exceptional_collection([res])
    assert not ok


# -- mutations ----------------------------------------------------------------


def test_left_mutation_kronecker(coll2, K2):
    mut = mutate(coll2, 1, "left")
    assert mut.objects[0].multiplicity_data() == {-1: ((1, 2),), 0: ((0, 1),)}
    assert minimal_data(mut.objects[1]) == minimal_data(coll2.objects[0])


def test_mutations_mutually_inverse_all_catalog(algebras):
    for name, A, coll in catalog_collections(algebras):
        m = len(coll)
        for i in range(1, m):
            back = mutate(mutate(coll, i, "left"), i + 1, "right")
            assert all(minimal_data(x) == minimal_data(y)
                       for x, y in zip(back.objects, coll.objects)), (name, i)
            forth = mutate(mutate(coll, i + 1, "right"), i, "left")
            assert all(minimal_data(x) == minimal_data(y)
                       for x, y in zip(forth.objects, coll.objects)), (name, i)


def test_mutation_index_range(coll2):
    with pytest.raises(IndexError):
        mutate(coll2, 2, "left")
    with pytest.raises(IndexError):
        mutate(coll2, 1, "right")
    single = ExceptionalCollection(coll2.algebra, coll2.objects[:1])
    with pytest.raises(IndexError):
        mutate(single, 1, "left")


def test_braid_relation_beilinson(collB):
    s1 = lambda c: mutate(c, 2, "right")
    s2 = lambda c: mutate(c, 3, "right")
    lhs = s1(s2(s1(collB)))
    rhs = s2(s1(s2(collB)))
    assert all(minimal_data(x) == minimal_data(y)
               for x, y in zip(lhs.objects, rhs.objects))


def test_mutation_preserves_exceptionality(collB):
    cur = collB
    for i, d in ((1, "left"), (2, "left"), (3, "right"), (2, "right")):
        cur = mutate(cur, i, d)   # re-verified inside mutate
        ok, violations = is_exceptional_collection(cur.objects)
        assert ok, violations


def test_evaluation_basis_permutation_invariance(K2):
    """The mutation cone does not depend on the chosen cocycle basis."""
    E = single_projective(K2, 1)
    F = single_projective(K2, 0)
    h = hom_complex(E, F)
    reps = h.cocycle_representatives(0)
    assert len(reps) == 2
    from sodhh.exceptional import _assemble_map_from
    standard = minimalize(cone(evaluation_map(E, F)))
    for variant in ([reps[1], reps[0]],
                    [reps[0], {k: 2 * v for k, v in reps[1].items()}]):
        maps = [h.cochain_to_chainmap(v, 0) for v in variant]
        ev = _assemble_map_from([m.source for m in maps], maps, F)
        assert minimal_data(minimalize(cone(ev))) == minimal_data(standard)


# -- dual collections ---------------------------------------------------------


def test_dual_single_object(K2):
    coll = ExceptionalCollection(K2, [single_projective(K2, 1)])
    duals, shifts = dual_collection(coll)
    assert shifts == [0]
    assert minimal_data(duals[0]) == minimal_data(coll.objects[0])


def test_dual_collections_catalog(algebras):
    for name, A, coll in catalog_collections(algebras):
        duals, shifts = dual_collection(coll)   # delta table verified inside
        for i in range(1, len(coll) + 1):
            assert bdi_check(coll, i), (name, i)


def test_dual_collection_computes_each_ext_once(collB, monkeypatch):
    """One Hom complex per (F_j, E_i) with j < m, m(m-1) in all: the last
    dual F_m is E_m itself, so its column Ext*(E_m, E_i) is read from the
    collection's table, and the shifts from the diagonal of the delta
    table.  A bad diagonal entry and a bad off-diagonal one raise the
    messages that name them."""
    import sodhh.exceptional as ex
    calls, real = [], ex.ext_profile

    def counting(F, E):
        calls.append((F, E))
        return real(F, E)
    monkeypatch.setattr(ex, "ext_profile", counting)
    dual_collection(collB)
    m = len(collB)
    assert len(calls) == len({(id(F), id(E)) for F, E in calls}) == m * (m - 1)
    assert all(F is not collB.objects[-1] for F, _ in calls)
    for table, message in [
            ({3: 2}, "dual object F_1 has Ext table {3: 2} against E_1"),
            ({0: 1}, "Ext*(F_2, E_1) = {0: 1}, expected {}")]:
        monkeypatch.setattr(ex, "ext_profile", lambda F, E: table)
        with pytest.raises(ex.MutationFailed) as exc:
            dual_collection(collB)
        assert str(exc.value) == message


def test_bdi_last_index_trivial(collB):
    assert bdi_check(collB, 3)


def test_collection_commands_reuse_what_they_computed(monkeypatch):
    """`collection check` reports the violations the collection's
    verification found, and `collection dual` computes the dual collection
    once.  On beilinson-p2 (m = 3) that is the verification's m + m(m-1)/2
    = 6 Ext profiles and the m(m-1) = 6 of the delta table whose dual is
    mutated: the last dual F_m is E_m itself, so its column Ext*(E_m, E_i)
    is the verification's.  bdi_check reads Ext*(F_i, E_i) from the delta
    check and Ext*(E_i, E_i) from the collection's table."""
    import sodhh.cli as cli
    import sodhh.exceptional as ex
    exts, duals = [], []
    real_ext, real_dual = ex.ext_profile, ex.dual_collection

    def counting_ext(X, Y):
        exts.append((X, Y))
        return real_ext(X, Y)

    def counting_dual(coll):
        duals.append(coll)
        return real_dual(coll)
    monkeypatch.setattr(ex, "ext_profile", counting_ext)
    for module in (ex, cli):
        monkeypatch.setattr(module, "dual_collection", counting_dual)
    code, report = cli.run_command(["collection", "check", "--catalog",
                                    "beilinson-p2"])
    assert code == 0 and report.data["violations"] == []
    assert len(exts) == 6 and duals == []
    exts.clear()
    code, _ = cli.run_command(["collection", "dual", "--catalog",
                               "beilinson-p2"])
    assert code == 0
    assert len(duals) == 1 and len(exts) == 6 + 6


def test_bdi_check_reads_the_verification(collB):
    """A verified collection keeps the diagonal and backward pairs of its
    Ext table and its (empty) violations; an unverified one starts with an
    empty table and no violations, and bdi_check computes Ext*(E_i, E_i)
    into the table on demand."""
    m = len(collB)
    assert collB.violations == []
    assert collB._ext == {**{(i, i): {0: 1} for i in range(m)},
                          **{(j, i): {} for j in range(m) for i in range(j)}}
    bare = ExceptionalCollection(collB.algebra, collB.objects, verify=False)
    assert bare._ext == {} and bare.violations is None
    dual = dual_collection(collB)
    assert all(bdi_check(bare, i, dual) for i in (1, 2, 3))
    assert bare._ext == {(i, i): {0: 1} for i in range(m)}


def test_each_ordered_pair_ext_is_computed_once(monkeypatch):
    """On generated P^3's mutation route (the reversed dual collection of
    the projectives) and on the projectives themselves, each ordered pair's
    Ext is computed once per collection: verification, bdi_check and
    endomorphism_algebra, run twice, read one table.  endomorphism_algebra builds the 6 forward Ext
    profiles the verification left out and a Hom complex for each of those
    6 nonzero pairs: 12 builds, not the 44 of rebuilding every pair."""
    import sodhh.complexes as cx
    import sodhh.exceptional as ex
    from test_hochschild import _generated_beilinson
    A = _generated_beilinson(3)
    exts, homs = [], []
    real_ext, init = ex.ext_profile, cx.ModuleHomComplex.__init__

    def counting_ext(X, Y):
        exts.append((id(X), id(Y)))
        return real_ext(X, Y)

    def counting_init(self, X, Y):
        homs.append((X, Y))
        init(self, X, Y)
    monkeypatch.setattr(ex, "ext_profile", counting_ext)
    monkeypatch.setattr(cx.ModuleHomComplex, "__init__", counting_init)
    coll = projective_collection(A)
    computed = [list(exts)]
    dual = dual_collection(coll)   # its own table, of Ext*(F_j, E_i)
    exts.clear()
    assert all(bdi_check(coll, i, dual) for i in range(1, len(coll) + 1))
    endomorphism_algebra(coll)
    endomorphism_algebra(coll)
    computed[0] += exts
    exts.clear()
    route = ExceptionalCollection(A, list(reversed(dual[0])))
    homs.clear()
    E = endomorphism_algebra(route)
    assert len(homs) <= 12
    assert structure_hash(endomorphism_algebra(route)) == structure_hash(E)
    computed.append(exts)
    for pairs in computed:
        assert len(pairs) == len(set(pairs)) == len(coll) ** 2


def test_not_strong_on_the_diagonal(K2):
    """An unverified collection whose diagonal Ext is not in degree 0, A e_1
    (+) A e_1[1], is not strong: the diagonal pairs of the Ext table ask
    s_i - s_i = d."""
    P = single_projective(K2, 0)
    X, _ = direct_sum([P, P.shift(1)])
    bad = ExceptionalCollection(K2, [X], verify=False)
    assert bad.ext(0, 0) == {-1: 1, 0: 2, 1: 1}
    with pytest.raises(NotStrong):
        endomorphism_algebra(bad)


# -- projection towers ---------------------------------------------------------


def test_sod_project_own_object(coll2, K2):
    tower = sod_project(coll2.objects[0], coll2)
    assert tower.k0_checks["k0_additive"]
    nonzero = [F for F in tower.factors if not F.is_zero()]
    assert len(nonzero) == 1
    assert minimal_data(nonzero[0]) == minimal_data(coll2.objects[0])


def test_sod_project_free_module(coll2, K2):
    free, _ = direct_sum([single_projective(K2, 0), single_projective(K2, 1)])
    tower = sod_project(free, coll2)
    assert tower.k0_checks["k0_additive"]
    total = {}
    for F in tower.factors:
        for v, c in F.euler_class().items():
            total[v] = total.get(v, 0) + c
    assert total == {0: 1, 1: 1}


def test_sod_project_simple(coll2, K2):
    S1 = projective_resolution(simple_module(K2, 0), 6)
    tower = sod_project(S1, coll2)
    assert all(not F.is_zero() for F in tower.factors)
    assert tower.k0_checks["k0_additive"]
    # [S_1] = [A e_1] - 2 [A e_2]
    assert S1.euler_class() == {0: 1, 1: -2}


def test_sod_project_not_full(coll2, K2):
    sub = ExceptionalCollection(K2, [coll2.objects[0]])   # just A e_2
    S1 = projective_resolution(simple_module(K2, 0), 6)
    with pytest.raises(NotFull):
        sod_project(S1, sub)


# -- endomorphism algebras ------------------------------------------------------


# Two checks that only an implementation bug can fail, reached by
# replacing what they read: a truncation of the projection tower that
# still has Ext against an earlier object (sod_project), and a composite
# of Hom basis cocycles that the solve cannot express in the basis
# (endomorphism_algebra).
CHECK_FAILURES = """
import sodhh.exceptional as ex
from sodhh.catalog import get_entry
from sodhh.linalg import QQ
A = get_entry("beilinson-p2").algebra(QQ)
coll = ex.projective_collection(A)
real_ext, real_solve = ex.ext_profile, ex.solve_linear
for patch, call in (
        (lambda: setattr(ex, "ext_profile", lambda X, Y: {0: 1}),
         lambda: ex.sod_project(ex.single_projective(A, 0), coll)),
        (lambda: setattr(ex, "solve_linear", lambda m, rhs: None),
         lambda: ex.endomorphism_algebra(coll))):
    patch()
    try:
        call()
        print("accepted")
    except ex.MutationFailed as exc:
        print("MutationFailed:", exc)
    finally:
        ex.ext_profile, ex.solve_linear = real_ext, real_solve
"""


CHECKS_RAISED = [
    "MutationFailed: truncation T_1 has Ext against E_1: {0: 1}",
    "MutationFailed: composite is not a combination of basis cocycles"]


def test_implementation_checks_raise(capsys):
    exec(CHECK_FAILURES, {})
    assert capsys.readouterr().out.splitlines() == CHECKS_RAISED


def test_implementation_checks_raise_under_optimized_python(run_optimized):
    assert run_optimized(CHECK_FAILURES) == CHECKS_RAISED


def test_endomorphism_reconstruction_kronecker():
    for n in (1, 2, 3):
        A = kron(n)
        E = endomorphism_algebra(projective_collection(A))
        assert E.dim == A.dim
        assert len(E.quiver.arrows) == n
        assert hh_cohomology(E, 4).as_tuple() == hh_cohomology(A, 4).as_tuple()


def test_endomorphism_reconstruction_beilinson(B, collB):
    E = endomorphism_algebra(collB)
    assert E.dim == 15
    assert len(E.quiver.arrows) == 6
    assert len(E.relations) == 3


def test_endomorphism_not_strong(K2, coll2):
    # (A e_2, A e_1[1]) has Hom in degree 1 only after unshifting; a pair
    # with two Ext degrees is genuinely not strong
    X = cone(ChainMap(single_projective(K2, 1).shift(-1),
                      single_projective(K2, 0).shift(-1), {}))
    # X = A e_1[1] (+) A e_2: Ext against A e_1 lives in degrees {0, 1}
    ok, _ = is_exceptional_collection([X])
    assert not ok  # sanity: not even exceptional; strongness is moot
    bad = ExceptionalCollection(
        K2, [single_projective(K2, 1),
             cone(ChainMap(single_projective(K2, 1), single_projective(K2, 0),
                           {0: {(0, 0): K2.arrow_element("a")}}))],
        verify=False)
    with pytest.raises(NotStrong):
        endomorphism_algebra(bad)


def test_morita_invariance_once_mutated(B, collB):
    mut = mutate(collB, 1, "left")
    E = endomorphism_algebra(mut)
    assert hh_cohomology(E, 6).as_tuple() == (1, 8, 10, 0, 0, 0, 0)
    assert hh_homology(E, 6).as_tuple() == (3, 0, 0, 0, 0, 0, 0)


# structure_hash of endomorphism_algebra, recorded while it still rebuilt
# the Hom complex of every ordered pair: the mutation route of generated
# P^2-P^4 (seed 101, Q) and four mutations of beilinson-p2's projectives.
ENDOMORPHISM_HASHES = {
    "P2": "42c1bb253b7a0a4df6edcd20b3ea91416b6d1a583eb46f54b16988980b5c6080",
    "P3": "bd3d30350c86545d47f89ab67e14a8ffe912d25ae3e170442b55e51e5439b65e",
    "P4": "54923e30b09f21e1b941f149f1771fd394a34856bcf4b1438325e782176aac3b",
    (1, "left"): "3970c09e083cb54ac204d8f277337f09f1396c6736889105074d44e40e73b7e4",
    (2, "left"): "82cfc1a025ea8b8fafbe16b9c1d96a157a7c4a254937b87c47801362fcfe6297",
    (2, "right"): "82cfc1a025ea8b8fafbe16b9c1d96a157a7c4a254937b87c47801362fcfe6297",
    (3, "right"): "4a984eba6b953a296be30e0ac147c29757e864713261ff24c650daafe6714603",
}


@pytest.mark.parametrize("key", list(ENDOMORPHISM_HASHES), ids=str)
def test_endomorphism_algebras_are_unchanged(key, collB):
    """The basis, labels and products of these endomorphism algebras."""
    if isinstance(key, str):
        from test_hochschild import _generated_beilinson
        A = _generated_beilinson(int(key[1:]))
        coll = ExceptionalCollection(
            A, list(reversed(dual_collection(projective_collection(A))[0])))
    else:
        coll = mutate(collB, *key)
    assert structure_hash(endomorphism_algebra(coll)) == ENDOMORPHISM_HASHES[key]
