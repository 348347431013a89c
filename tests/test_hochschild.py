import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sodhh.algebra import Algebra, Quiver, Relation, build_path_algebra, center
from sodhh.catalog import CATALOG
from sodhh.complexes import (FieldComplex, bar_resolution, ext_profile,
                             projective_resolution, radical_tuples)
from sodhh.hochschild import (HHProfile, certified_koszul,
                              diagonal_resolution, global_dimension,
                              hh_cohomology, hh_homology,
                              hh_with_coefficients, homology_via_serre_dual,
                              koszul_resolution, simple_resolution)
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


# ---------------------------------------------------------------------------
# Truncated absolute bar oracles: independent computations for cross-checks,
# sharing nothing with diagonal_resolution except the exact rank kernel


def _pair_expansions(A: Algebra):
    """For each basis element k, the list of (p, q, c) with  p*q ∋ c·k."""
    table = {k: [] for k in range(A.dim)}
    for (p, q), x in A.mult.items():
        for k, c in x.items():
            table[k].append((p, q, c))
    return table


def _tuples(A: Algebra, n: int):
    """All n-tuples of basis indices."""
    out = [()]
    for _ in range(n):
        out = [t + (x,) for t in out for x in range(A.dim)]
    return out


def absolute_hh_cohomology(A: Algebra, n_max: int) -> HHProfile:
    """Cohomology of the truncated absolute bar cochain complex
    C^n = Hom_k(A^{(x) n}, A)."""
    f = A.field
    expansions = _pair_expansions(A)
    bases = {}
    pos = {}
    for n in range(n_max + 2):
        bs = [(t, s) for t in _tuples(A, n) for s in range(A.dim)]
        bases[n] = bs
        pos[n] = {b: i for i, b in enumerate(bs)}
    mats = {}
    for n in range(n_max + 1):
        entries = {}
        tgt_pos = pos[n + 1]
        for col, (t, s) in enumerate(bases[n]):
            # x . phi(...) for a fresh first argument x
            for x in range(A.dim):
                for s2, c in A.product(x, s).items():
                    r = tgt_pos[((x,) + t, s2)]
                    entries[(r, col)] = f.add(entries.get((r, col), f.zero), c)
            # phi(.. a_i a_{i+1} ..) with (a_i, a_{i+1}) expanding slot i
            for i in range(n):
                sign = f.neg(f.one) if i % 2 == 0 else f.one   # (-1)^{i+1}
                for (p, q, c) in expansions[t[i]]:
                    t2 = t[:i] + (p, q) + t[i + 1:]
                    r = tgt_pos[(t2, s)]
                    entries[(r, col)] = f.add(entries.get((r, col), f.zero),
                                              f.mul(sign, c))
            # (-1)^{n+1} phi(...) . y for a fresh last argument y
            sign = f.one if (n + 1) % 2 == 0 else f.neg(f.one)
            for y in range(A.dim):
                for s2, c in A.product(s, y).items():
                    r = tgt_pos[(t + (y,), s2)]
                    entries[(r, col)] = f.add(entries.get((r, col), f.zero),
                                              f.mul(sign, c))
        mats[n] = Matrix.from_entries(f, len(bases[n + 1]), len(bases[n]), entries)
    dims = {n: len(bases[n]) for n in range(n_max + 2)}
    prof = FieldComplex(f, dims, mats).homology_dims()
    return HHProfile.from_dict(prof, f, n_max)


def absolute_hh_homology(A: Algebra, n_max: int) -> HHProfile:
    """Homology of the truncated absolute bar chain complex
    C_n = A^{(x) n+1}."""
    f = A.field
    bases = {n: _tuples(A, n + 1) for n in range(n_max + 2)}
    pos = {n: {b: i for i, b in enumerate(bs)} for n, bs in bases.items()}
    diffs = {}   # chains in degree -n
    for n in range(1, n_max + 2):
        entries = {}
        tgt_pos = pos[n - 1]
        for col, t in enumerate(bases[n]):
            for i in range(n):
                sign = f.one if i % 2 == 0 else f.neg(f.one)
                for s, c in A.product(t[i], t[i + 1]).items():
                    t2 = t[:i] + (s,) + t[i + 2:]
                    r = tgt_pos[t2]
                    entries[(r, col)] = f.add(entries.get((r, col), f.zero),
                                              f.mul(sign, c))
            sign = f.one if n % 2 == 0 else f.neg(f.one)
            for s, c in A.product(t[-1], t[0]).items():
                t2 = (s,) + t[1:-1]
                r = tgt_pos[t2]
                entries[(r, col)] = f.add(entries.get((r, col), f.zero),
                                          f.mul(sign, c))
        diffs[-n] = Matrix.from_entries(f, len(bases[n - 1]), len(bases[n]),
                                        entries)
    homology = FieldComplex(f, {-n: len(b) for n, b in bases.items()},
                            diffs).homology_dims()
    return HHProfile.from_dict({-n: h for n, h in homology.items()}, f, n_max)


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
    env = A.enveloping()
    d = 3
    M = ModuleRep(env, d, lambda k, m: {m: QQ.one}, (0,) * d, check=True)
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
    """The paper's Ext(P_D, P_D) and Ext(P_D, P_D o S) over the diagonal
    resolution P_D itself, P_D o S = P_D (x)_A DA, and the 'diagonal'
    coefficients, which take Ext into A and DA, give HH^* and HH_*."""
    from sodhh.complexes import tensor_env_module
    A = algebras["kronecker2"]
    P = diagonal_resolution(A, 5)
    hh, hh_lower = hh_cohomology(A, 4).as_tuple(), hh_homology(A, 4).as_tuple()
    assert tuple(ext_profile(P, P).get(n, 0) for n in range(5)) == hh
    assert tuple(ext_profile(P, tensor_env_module(P, dual_bimodule(A)))
                 .get(n, 0) for n in range(5)) == hh_lower
    assert generalized_hoh("diagonal", "diagonal", 4, algebra=A) \
        .as_tuple() == hh
    assert generalized_hoh("diagonal", "serre", 4, algebra=A) \
        .as_tuple() == hh_lower


def test_profile_bound_enforced(algebras):
    prof = hh_cohomology(algebras["kronecker2"], 3)
    with pytest.raises(IndexError):
        prof.dim(4)


def test_global_dimension_resolves_simples_once(monkeypatch):
    """An exact value answers every cap; "exceeds c" answers caps <= c.
    A Koszul algebra is answered by Koszul resolutions alone, one per cap
    that needs a new answer; a quadratic algebra that is not Koszul
    resolves each simple once, after one failed Koszul check."""
    from sodhh.catalog import get_entry
    from test_cli import counting_wrapper
    minimal = counting_wrapper(monkeypatch, "projective_resolution",
                               ["complexes", "hochschild"])
    koszul = counting_wrapper(monkeypatch, "_koszul_terms", ["hochschild"])
    B = get_entry("beilinson-p2").algebra(QQ)
    assert [global_dimension(B, cap) for cap in (12, 6, 2, 1)] == \
        [2, 2, 2, None]
    assert minimal == [] and koszul == [B]
    L = get_entry("loop-x2").algebra(QQ)
    koszul.clear()
    assert global_dimension(L, 4) is None and global_dimension(L, 2) is None
    assert minimal == [] and koszul == [L]
    assert global_dimension(L, 5) is None
    assert minimal == [] and koszul == [L, L]
    for field in (QQ, GF(3)):
        N = _not_koszul(field)
        minimal.clear()
        koszul.clear()
        assert [global_dimension(N, cap) for cap in (12, 6, 3)] == [3, 3, 3]
        assert [M.grading for M in minimal] == [(v,) for v in range(5)]
        assert koszul == [N]


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
    assert_diagonal_resolution_matches_bar_route(A)


def assert_diagonal_resolution_matches_bar_route(A):
    """Whichever route diagonal_resolution takes, Ext into the regular and
    the dual bimodule equals the bar route's (both resolutions are
    complete on acyclic quivers with paths of length <= 4)."""
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


@st.composite
def non_koszul_quivers(draw):
    """_not_koszul with random nonzero coefficients in its middle relation
    b1 c0 + lam b0 c0 + mu b1 c1, over Q or F_3, reversed (its opposite
    algebra) or not, next to a random disjoint quadratic chain on up to
    three vertices, its vertices and arrows listed in random orders.  A
    product of algebras is Koszul only if each factor is, and mu != 0
    keeps b1 c1 d = 0 a consequence that makes the first factor not
    Koszul.  Paths have length <= 4."""
    field = draw(st.sampled_from([QQ, GF(3)]))
    lam, mu = draw(st.lists(st.sampled_from([1, -1, 2]), min_size=2,
                            max_size=2))
    arrows = [("a", "0", "1"), ("b0", "1", "2"), ("b1", "1", "2"),
              ("c0", "2", "3"), ("c1", "2", "3"), ("d", "3", "4")]
    relations = [((1, ("a", "b1")),),
                 ((1, ("b1", "c0")), (lam, ("b0", "c0")), (mu, ("b1", "c1"))),
                 ((1, ("c0", "d")),)]
    vertices = list("01234")
    chain = draw(st.integers(0, 3))
    vertices += [f"x{i}" for i in range(chain)]
    steps = [[(f"y{i}{k}", f"x{i}", f"x{i + 1}")
              for k in range(draw(st.integers(1, 2)))]
             for i in range(chain - 1)]
    arrows += [x for step in steps for x in step]
    if len(steps) == 2:
        paths = [(x[0], y[0]) for x in steps[0] for y in steps[1]]
        coeffs = draw(st.lists(st.sampled_from([0, 1, -1]),
                               min_size=len(paths), max_size=len(paths)))
        terms = tuple((c, q) for c, q in zip(coeffs, paths) if c)
        if terms:
            relations.append(terms)
    if draw(st.booleans()):
        arrows = [(x, t, s) for x, s, t in arrows]
        relations = [tuple((c, q[::-1]) for c, q in rel) for rel in relations]
    quiver = Quiver.make(draw(st.permutations(vertices)),
                         draw(st.permutations(arrows)))
    return build_path_algebra(quiver, [Relation(r) for r in relations], field)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(non_koszul_quivers())
def test_random_non_koszul_algebras_take_the_minimal_routes(A):
    """Every draw fails Priddy's check through -13: global_dimension caches
    no K, the simples on either side are resolved by
    projective_resolution, and diagonal_resolution is the minimal bimodule
    resolution, with the Ext of the bar route."""
    from sodhh.modules import simple_module
    assert global_dimension(A, 12) is not None
    assert certified_koszul(A, 13) is None
    for u in range(A.num_vertices):
        for side, B in (("left", A), ("right", A.opposite())):
            ours = simple_resolution(A, u, side, 5)
            minimal = projective_resolution(simple_module(B, u), 5)
            assert ours.algebra is B
            assert (ours.terms, ours.diffs) == \
                (minimal.terms, minimal.diffs), (side, u)
    assert diagonal_resolution(A, 5).terms == \
        projective_resolution(regular_bimodule(A), 5).terms
    assert_diagonal_resolution_matches_bar_route(A)


def test_diagonal_resolution_takes_the_koszul_route_when_certified(algebras):
    B = algebras["beilinson-p2"]
    res = diagonal_resolution(B, 4)
    assert {n: len(t) for n, t in res.terms.items()} == {0: 3, -1: 6, -2: 3}
    assert res.terms == koszul_resolution(B, 4).terms


def test_known_global_dimension_takes_the_koszul_route_at_any_depth(
        monkeypatch):
    """Once K is certified (the CLI summary asks global_dimension with cap
    12), a degree bound below the global dimension still reads K, cut at
    that depth, and builds no minimal resolution and no second K."""
    from sodhh.cli import parse_quiver_document
    from test_cli import _benchmark_inputs, counting_wrapper
    inputs = _benchmark_inputs()
    A = parse_quiver_document(
        inputs.beilinson_quiver_doc(4, {"kind": "q"}, 101)).build()
    assert global_dimension(A, 12) == 4
    resolved = counting_wrapper(monkeypatch, "projective_resolution",
                                ["complexes", "hochschild"])
    tables = counting_wrapper(monkeypatch, "_koszul_terms", ["hochschild"])
    assert hh_cohomology(A, 2).as_tuple() == (1, 24, 126)
    assert resolved == [] and tables == []
    assert diagonal_resolution(A, 3).terms == koszul_resolution(A, 3).terms


def test_diagonal_resolution_falls_back_to_minimal(algebras):
    """A cubic relation, an algebra that is not a PathAlgebra and a failing
    Koszul certificate each give the minimal bimodule resolution, whose Ext
    into the regular and the dual bimodule equals the bar route's."""
    cubic = build_path_algebra(
        Quiver.make(list("1234"), [("a", "1", "2"), ("b", "2", "3"),
                                   ("c", "3", "4")]),
        [Relation(((1, ("a", "b", "c")),))], QQ)
    B = algebras["beilinson-p2"]
    table = Algebra(B.field, B.labels, B.mult, B.idempotents, B.vertex_names)
    for A in (cubic, table, _not_koszul(QQ), _not_koszul(GF(3))):
        ours = diagonal_resolution(A, 5)
        assert ours.terms == \
            projective_resolution(regular_bimodule(A), 5).terms
        bar = bar_resolution(A, 5)
        for M in (regular_bimodule(A), dual_bimodule(A)):
            assert ext_profile(ours, M) == ext_profile(bar, M)
    assert hh_cohomology(table, 4).as_tuple() == (1, 8, 10, 0, 0)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_failing_certificate_is_needed(field):
    """On the non-Koszul algebra the Koszul complex is not a resolution:
    its Ext differs from the bar route's, which equals that of the minimal
    resolution diagonal_resolution returns."""
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


# ---------------------------------------------------------------------------
# global_dimension against the minimal resolutions of the simples

ORACLE_CAPS = (0, 1, 2, 3, 4, 5, 6, 12)


def forget_k(A):
    """Empty A's cache, so that K and the global dimension are decided
    afresh.  Tests read K's state through certified_koszul, so the names of
    its cache entries are written in hochschild.py alone."""
    A._cache.clear()


def minimal_route_oracle(A, caps=ORACLE_CAPS):
    """{cap: (global dimension or None, Koszul route)} by the minimal
    resolutions of the simples: the global dimension is the longest of
    them, and a quadratic path algebra takes the Koszul route at a cap
    exactly when K is exact through -cap, that is when, in every degree up
    to cap + 1, the minimal resolution of each S_v has one A e_u per
    element of K_n from v to u."""
    from collections import Counter
    from sodhh.hochschild import _is_quadratic
    from sodhh.modules import simple_module
    top = max(caps) + 1
    res = [projective_resolution(simple_module(A, v), top)
           for v in range(A.num_vertices)]
    gd = max((-min(R.terms) for R in res), default=0)
    matches = [False] * top
    if _is_quadratic(A):
        K = koszul_resolution(A, top)
        pairs = {n: [K.algebra.vertex_pair(code) for code in t]
                 for n, t in K.terms.items()}
        matches = [all(Counter(end for end, start in pairs.get(-n, ())
                               if start == v) == Counter(R.terms.get(-n, ()))
                       for v, R in enumerate(res))
                   for n in range(1, top + 1)]
    return {cap: (gd if gd <= cap else None, all(matches[:cap + 1]))
            for cap in caps}


def koszul_route(A, caps=ORACLE_CAPS):
    """{cap: (global_dimension(A, cap), Koszul route)}, each cap asked of
    an empty cache, then every cap asked again in turn of one cache.  The
    route is K's when global_dimension read a K certified through
    -(cap + 1) (so exact through -cap)."""
    out = {}
    for cap in caps:
        forget_k(A)
        out[cap] = (global_dimension(A, cap),
                    certified_koszul(A, cap + 1) is not None)
    forget_k(A)
    assert [global_dimension(A, cap) for cap in caps] == \
        [gd for gd, _ in out.values()]
    return out


def _generated_beilinson(n, field=None):
    from sodhh.cli import parse_quiver_document
    from test_cli import _benchmark_inputs
    return parse_quiver_document(_benchmark_inputs().beilinson_quiver_doc(
        n, field or {"kind": "q"}, 101)).build()


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_koszul_route_matches_minimal_resolutions_on_the_catalog(field):
    from sodhh.catalog import catalog_names, get_entry
    routes = set()
    for name in catalog_names():
        A = get_entry(name).algebra(field)
        expected = minimal_route_oracle(A)
        assert koszul_route(A) == expected, name
        routes.update(expected.values())
    assert routes == {(0, True), (1, True), (2, True), (None, True)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_koszul_route_matches_minimal_resolutions_on_generated_beilinson(n):
    A = _generated_beilinson(n)
    expected = minimal_route_oracle(A)
    assert expected[12] == (n, True)
    assert koszul_route(A) == expected


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_koszul_route_matches_minimal_resolutions_off_koszul(field):
    """K of the non-Koszul algebra is exact through -1 only: it takes K's
    route at caps 0 and 1, where the global dimension exceeds the cap, and
    the minimal route from cap 2 on."""
    A = _not_koszul(field)
    expected = minimal_route_oracle(A)
    assert expected[1] == (None, True) and expected[2] == (None, False)
    assert expected[12] == (3, False)
    assert koszul_route(A) == expected


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(quadratic_quivers())
def test_koszul_route_matches_minimal_resolutions_on_random_quivers(A):
    assert koszul_route(A) == minimal_route_oracle(A)


# ---------------------------------------------------------------------------
# Koszul algebras of infinite global dimension: K is the only route


def radical_square_zero(vertices, arrows, field=QQ):
    """The path algebra of the quiver modulo all paths of length 2."""
    relations = [Relation(((1, (x[0], y[0])),))
                 for x in arrows for y in arrows if x[2] == y[1]]
    return build_path_algebra(Quiver.make(vertices, arrows), relations, field)


def exterior_algebra(n, field=QQ):
    """The exterior algebra on n generators: x_i^2 = 0, x_i x_j = -x_j x_i."""
    xs = [f"x{i}" for i in range(n)]
    relations = [Relation(((1, (x, x)),)) for x in xs]
    relations += [Relation(((1, (x, y)), (1, (y, x))))
                  for i, x in enumerate(xs) for y in xs[i + 1:]]
    return build_path_algebra(
        Quiver.make(["1"], [(x, "1", "1") for x in xs]), relations, field)


def xyz_radical_square():
    return radical_square_zero(["1"], [(x, "1", "1") for x in "xyz"])


def assert_k_is_the_route(A, caps=range(13), degree=5):
    """A is Koszul of infinite global dimension.  Both slices at every
    vertex have the summands of the minimal resolutions of the simples
    through -(degree + 1), Ext into A and into DA through K's prefix is
    that of the minimal bimodule resolution through `degree`, and
    global_dimension is None at every cap, read off K certified through
    -(max cap + 1) (asked first, as the CLI summary does)."""
    from sodhh.modules import simple_module
    depth = degree + 1
    assert [global_dimension(A, cap) for cap in sorted(caps, reverse=True)] \
        == [None] * len(caps)
    assert certified_koszul(A, max(caps) + 1) is not None
    for side, B in (("right", A.opposite()), ("left", A)):
        for u in range(A.num_vertices):
            minimal = projective_resolution(simple_module(B, u), depth)
            assert simple_resolution(A, u, side,
                                     depth).multiplicity_data() == \
                minimal.multiplicity_data(), (side, u)
    ours = diagonal_resolution(A, depth)
    minimal = projective_resolution(regular_bimodule(A), depth)
    assert ours.multiplicity_data() == minimal.multiplicity_data()
    for M in (regular_bimodule(A), dual_bimodule(A)):
        assert [ext_profile(ours, M).get(n, 0) for n in range(depth)] == \
            [ext_profile(minimal, M).get(n, 0) for n in range(depth)]


@pytest.mark.parametrize("build, caps", [
    (lambda: CATALOG["loop-x2"].algebra(QQ), range(13)),
    (lambda: CATALOG["loop-x2"].algebra(GF(3)), range(13)),
    (lambda: exterior_algebra(2), range(13)),
    (lambda: exterior_algebra(3), range(13)),
    (xyz_radical_square, range(6))])
def test_koszul_algebras_of_infinite_global_dimension_take_k(build, caps):
    """k[x]/(x^2), the exterior algebras on 2 and 3 generators and
    k<x,y,z>/rad^2.  K_n of the last has 3^n elements, so it is certified
    through -6 only: caps 0..5."""
    assert_k_is_the_route(build(), caps)


@st.composite
def radical_square_zero_cyclic_quivers(draw):
    """A quiver on 1..3 vertices with an oriented cycle through a random
    subset of them (a loop on one) and up to two arrows from the cycle to
    the other vertices, or all of it reversed, modulo all paths of length
    2, over Q or F_3: Koszul, of infinite global dimension.  With no second
    cycle, K_n grows linearly in n."""
    vertices = draw(st.permutations([str(i) for i in
                                     range(draw(st.integers(1, 3)))]))
    k = draw(st.integers(1, len(vertices)))
    cycle, rest = vertices[:k], vertices[k:]
    arrows = [(f"c{i}", v, w) for i, (v, w)
              in enumerate(zip(cycle, cycle[1:] + cycle[:1]))]
    if rest:
        extra = draw(st.lists(st.tuples(st.sampled_from(cycle),
                                        st.sampled_from(rest)), max_size=2))
        arrows += [(f"e{i}", v, w) for i, (v, w) in enumerate(extra)]
    if draw(st.booleans()):
        arrows = [(x, w, v) for x, v, w in arrows]
    return radical_square_zero(sorted(vertices), arrows,
                               draw(st.sampled_from([QQ, GF(3)])))


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(radical_square_zero_cyclic_quivers())
def test_radical_square_zero_cycles_take_k(A):
    assert_k_is_the_route(A)


@pytest.mark.parametrize("build", [lambda: CATALOG["loop-x2"].algebra(QQ),
                                   xyz_radical_square])
@pytest.mark.parametrize("hh", [hh_cohomology, hh_homology])
def test_hh_builds_k_once_and_resolves_nothing(build, hh, monkeypatch):
    """On a fresh Koszul algebra of infinite global dimension, HH^* and
    HH_* through degree 3 build K once, through -4, for the resolution and
    the note alike, and resolve neither the diagonal nor a simple."""
    from test_cli import counting_wrapper
    A = build()
    resolved = counting_wrapper(monkeypatch, "projective_resolution",
                                ["complexes", "hochschild"])
    tables = counting_wrapper(monkeypatch, "_koszul_terms", ["hochschild"])
    profile = hh(A, 3)
    assert len(tables) == 1 and resolved == [] and profile.note == ""
    if A.dim == 2:
        assert profile.as_tuple() == (2, 1, 1, 1)


def reference_koszul_spaces(A, n_max):
    """Bases of the Koszul spaces K_1..K_{n_max} as they were built before
    K was kept in splitting coordinates: each basis element of K_n as
    (vec, right), vec its vector {arrow tuple: c} in V^{(x) n} and right its
    splitting {(j, b): c} over K_{n-1} (x) V (for n = 1, j is the vertex
    tgt(b)).  K_{n+1} is the kernel of K_n (x)_E V -> V^{(x) n-1} (x)_E A_2,
    which multiplies the last two factors, one endpoint block at a time.
    The list stops at n_max or after the first empty space."""
    from sodhh.linalg import ColumnEchelon, axpy
    f = A.field
    arrows = [k for k, p in enumerate(A.basis_paths) if p and len(p) == 1]
    ending_at = {}
    for b in arrows:
        ending_at.setdefault(A.tgt[b], []).append(b)
    spaces = [None, [({(b,): f.one}, {(A.tgt[b], b): f.one}) for b in arrows]]
    while len(spaces) <= n_max and spaces[-1]:
        prev = spaces[-1]
        blocks = {}   # (end, start) vertex -> columns (j, b) of K_n (x) V
        for j, (vec, _) in enumerate(prev):
            t = next(iter(vec))
            for b in ending_at.get(A.src[t[-1]], ()):
                blocks.setdefault((A.tgt[t[0]], A.src[b]), []).append((j, b))
        space = []
        for _, cols in sorted(blocks.items()):
            rows, images = {}, []
            for j, b in cols:
                img = {}
                for t, c in prev[j][0].items():
                    for s, c2 in A.product(t[-1], b).items():
                        r = rows.setdefault((t[:-1], s), len(rows))
                        img[r] = f.add(img.get(r, f.zero), f.mul(c, c2))
                images.append({r: c for r, c in img.items() if c})
            echelon = ColumnEchelon(Matrix(f, len(rows), len(cols), images))
            for combo in echelon.kernel_basis():
                vec = {}
                for p, c in combo.items():
                    j, b = cols[p]
                    axpy(f, vec, {t + (b,): x for t, x in prev[j][0].items()}, c)
                space.append((vec, {cols[p]: c for p, c in combo.items()}))
        spaces.append(space)
    return spaces


def reference_koszul_tables(A, n_max):
    """K's (ends, tables) as _koszul_tables built them before K was kept in
    splitting coordinates: from the arrow-tuple vectors of the Koszul
    spaces, the left splitting of each element solved, first arrow by first
    arrow, against an echelon of K_{n-1}'s vectors."""
    from sodhh.complexes import ComplexError
    from sodhh.linalg import ColumnEchelon
    f = A.field
    spaces = reference_koszul_spaces(A, n_max)
    ends = [[(u, u) for u in range(A.num_vertices)]]
    tables = [None]
    for n, space in enumerate(spaces[1:], start=1):
        if not space:
            break
        firsts = [next(iter(vec)) for vec, _ in space]
        ends.append([(A.tgt[t[0]], A.src[t[-1]]) for t in firsts])
        if n > 1:   # K_{n-1} over the index of its arrow tuples
            index = {}
            basis = [{index.setdefault(t, len(index)): c
                      for t, c in vec.items()} for vec, _ in spaces[n - 1]]
            echelon = ColumnEchelon(Matrix(f, len(index), len(basis), basis))
        sign = f.one if n % 2 == 0 else f.neg(f.one)
        columns = []
        for (vec, right), t0 in zip(space, firsts):
            if n == 1:
                left = {(A.src[t0[0]], t0[0]): f.one}
            else:
                by_first = {}
                for t, c in vec.items():
                    r = index.setdefault(t[1:], len(index))
                    by_first.setdefault(t[0], {})[r] = c
                left = {}
                for a, rest in by_first.items():
                    x = echelon.solve(rest)
                    if x is None:
                        raise ComplexError(f"a basis element of K_{n} does "
                                           f"not split off {A.labels[a]}")
                    left.update({(j, a): c for j, c in x.items()})
            columns.append((left, {jb: f.mul(sign, c)
                                   for jb, c in right.items()}))
        tables.append(columns)
    return ends, tables


def reference_koszul_resolution(A, n_max):
    """The Koszul resolution as it was built before its check moved into A:
    the entries of A (x) A^op written from the reference tables, then
    ProjComplex's generic check (_check_blocks and _compose)."""
    from sodhh.complexes import ProjComplex
    env, e = A.enveloping(), A.idempotents
    ends, tables = reference_koszul_tables(A, n_max)
    terms = {-n: tuple(env.vertex(v, w) for v, w in pairs)
             for n, pairs in enumerate(ends)}
    diffs = {}
    for n in range(1, len(tables)):
        d = diffs[-n] = {}
        for col, ((v, w), (left, right)) in enumerate(zip(ends[n],
                                                          tables[n])):
            for (j, a), c in left.items():
                d.setdefault((j, col), {})[env.pair_index(a, e[w])] = c
            for (j, b), c in right.items():
                d.setdefault((j, col), {})[env.pair_index(e[v], b)] = c
    return ProjComplex(env, terms, diffs, check=True)


def table_terms(A, ends, tables):
    """K's (ends, terms) transcribed from its tables, as K was kept before
    it was kept as its terms: a left term (row, a): c of the column col at
    (v, w) is (row, col, (a, e_w), c) and a right term (row, b): c is
    (row, col, (e_v, b), c), column by column, left terms first."""
    e, terms = A.idempotents, [None]
    for n in range(1, len(ends)):
        terms.append(out := [])
        for col, ((v, w), (left, right)) in enumerate(zip(ends[n],
                                                          tables[n])):
            out += [(j, col, (a, e[w]), c) for (j, a), c in left.items()]
            out += [(j, col, (e[v], b), c) for (j, b), c in right.items()]
    return ends, terms


KOSZUL_TABLE_CAPS = (1, 2, 3, 6, 13)


def assert_tables_match_reference(A, caps=KOSZUL_TABLE_CAPS):
    """K's (ends, terms), entry for entry and in order, against the
    reference tables transcribed by table_terms."""
    from sodhh.hochschild import _koszul_terms
    for cap in caps:
        assert _koszul_terms(A, cap) == \
            table_terms(A, *reference_koszul_tables(A, cap)), cap


def test_koszul_tables_match_the_arrow_tuple_build():
    """K's ends and tables, built in splitting coordinates, are dict-equal
    to the arrow-tuple build with solved left splittings, at caps 1, 2, 3,
    6 and 13: on every quadratic catalog algebra over Q and F_3, generated
    P^2..P^5 over Q and F_32003 and the algebra that is not Koszul."""
    from sodhh.catalog import catalog_names, get_entry
    from sodhh.hochschild import _is_quadratic
    algebras = [get_entry(name).algebra(field) for name in catalog_names()
                for field in (QQ, GF(3))]
    algebras = [A for A in algebras if _is_quadratic(A)]
    algebras += [_generated_beilinson(n, field) for n in (2, 3, 4, 5)
                 for field in ({"kind": "q"}, {"kind": "fp", "p": 32003})]
    algebras += [_not_koszul(QQ), _not_koszul(GF(3))]
    assert len(algebras) >= 20
    for A in algebras:
        assert_tables_match_reference(A)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(quadratic_quivers())
def test_koszul_tables_match_the_arrow_tuple_build_on_random_quivers(A):
    assert_tables_match_reference(A)


def test_global_dimension_solves_no_linear_system(monkeypatch):
    """Certifying K on a fresh generated P^3 reads every left splitting
    off K_{n-1}'s free columns: no ColumnEchelon.solve is called."""
    from sodhh.linalg import ColumnEchelon
    solved = []
    real = ColumnEchelon.solve

    def counting(self, vec):
        solved.append(vec)
        return real(self, vec)

    monkeypatch.setattr(ColumnEchelon, "solve", counting)
    A = _generated_beilinson(3)
    assert global_dimension(A, 12) == 3
    assert certified_koszul(A, 13) is not None and solved == []
    reference_koszul_tables(A, 4)
    assert solved


def _quadratic_catalog_and_generated():
    from sodhh.catalog import catalog_names, get_entry
    from sodhh.hochschild import _is_quadratic
    algebras = [get_entry(name).algebra(field) for name in catalog_names()
                for field in (QQ, GF(3))]
    algebras += [_generated_beilinson(n) for n in (2, 3, 4)]
    return [A for A in algebras if _is_quadratic(A)]


def test_koszul_resolution_matches_the_generically_checked_build():
    """K's terms and differentials, certified in A, are dict-equal to the
    build checked over A (x) A^op, on every quadratic catalog algebra over
    Q and F_3 and on generated P^2..P^4."""
    algebras = _quadratic_catalog_and_generated()
    assert len(algebras) >= 10
    for A in algebras:
        K, R = koszul_resolution(A, 6), reference_koszul_resolution(A, 6)
        assert (K.terms, K.diffs) == (R.terms, R.diffs)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(quadratic_quivers())
def test_koszul_resolution_matches_the_reference_on_random_quivers(A):
    K, R = koszul_resolution(A, 5), reference_koszul_resolution(A, 5)
    assert (K.terms, K.diffs) == (R.terms, R.diffs)


def assert_slices_match_resolutions(A, depth, ordered=True):
    """Both slices of A's certified K at every vertex against the minimal
    resolution of the simple they resolve: equal terms (with `ordered`, in
    the same order; else the same summands in each degree), a complex
    under ProjComplex's generic check, and equal Ext into every simple.
    The differentials are not compared as dicts: they may differ by a
    change of basis and signs."""
    from sodhh.complexes import ProjComplex
    from sodhh.modules import simple_module
    for side, B in (("right", A.opposite()), ("left", A)):
        simples = [simple_module(B, w) for w in range(A.num_vertices)]
        for u, S in enumerate(simples):
            sliced = simple_resolution(A, u, side, depth)
            minimal = projective_resolution(S, depth)
            assert sliced.algebra is B
            assert sliced.multiplicity_data() == \
                minimal.multiplicity_data(), (side, u)
            assert not ordered or sliced.terms == minimal.terms, (side, u)
            ProjComplex(B, sliced.terms, sliced.diffs, check=True)
            assert [ext_profile(sliced, T) for T in simples] == \
                [ext_profile(minimal, T) for T in simples], (side, u)


def test_koszul_slices_match_minimal_resolutions():
    """On every catalog algebra, over Q and F_3, and on generated
    P^2..P^4, summand for summand in the same order (the order the
    `kernels build` reports list): each has K certified through -6,
    loop-x2 too, whose global dimension is infinite."""
    sliced = []
    for A in _quadratic_catalog_and_generated():
        assert_slices_match_resolutions(A, 6)
        sliced.append((A.num_vertices, global_dimension(A, 12)))
    assert len(sliced) == 21 and max(sliced)[0] == 5
    assert sliced.count((1, None)) == 2


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(quadratic_quivers())
def test_koszul_slices_match_minimal_resolutions_on_random_quivers(A):
    """The random quadratic quivers whose K is certified; the others have
    no slice to compare.  The quivers are acyclic with paths of length <= 4,
    so depth 5 holds every resolution whole.  Within a degree the slice
    lists its summands by vertex, as K does, and the minimal resolution in
    the order its kernel bases give, which on some of these quivers is
    another order of the same summands."""
    if certified_koszul(A, 5) is None:
        return
    assert_slices_match_resolutions(A, 5, ordered=False)


def test_koszul_slices_need_a_certified_resolution():
    """Off a certified K a simple is resolved by projective_resolution:
    on the quadratic algebra that is not Koszul, whose K is exact through
    -1 only, and on an algebra with a relation of length 3, the simple
    resolutions at every vertex, on both sides, are dict-equal to
    projective_resolution's.  A side that is neither is refused."""
    from sodhh.catalog import get_entry
    from sodhh.modules import simple_module
    from test_cli import linear_a4_cubic
    L = get_entry("loop-x2").algebra(QQ)
    for A in (_not_koszul(QQ), linear_a4_cubic()):
        assert certified_koszul(A, 6) is None
        for side, B in (("right", A.opposite()), ("left", A)):
            for u in range(A.num_vertices):
                ours = simple_resolution(A, u, side, 6)
                minimal = projective_resolution(simple_module(B, u), 6)
                assert (ours.terms, ours.diffs) == \
                    (minimal.terms, minimal.diffs), (side, u)
    with pytest.raises(ValueError, match="slice side"):
        simple_resolution(L, 0, "middle", 6)


def rad_cube(field=QQ):
    """k<a0,a1,a2>/(all paths of length 3): monomial, of infinite global
    dimension, so no resolution of its simples ends."""
    from itertools import product
    xs = ["a0", "a1", "a2"]
    return build_path_algebra(
        Quiver.make(["1"], [(x, "1", "1") for x in xs]),
        [Relation(((1, p),)) for p in product(xs, repeat=3)], field)


def test_a_cut_resolution_is_the_shallower_resolution():
    """The premise of the resolution store (hochschild._kept): for d < D,
    projective_resolution(M, D) cut at -d is projective_resolution(M, d),
    the same terms and diffs.  So is simple_resolution(A, u, side, d)
    asked after depth D, which serves the kept resolution cut.  Checked on
    the simple left and right modules of _not_koszul, linear_a4_cubic and
    rad^3, whose resolutions never end, and on the regular bimodules of
    linear_a4_cubic and _not_koszul."""
    from sodhh.complexes import ProjComplex
    from sodhh.modules import simple_module
    from test_cli import linear_a4_cubic
    cases = []
    for A, D in ((_not_koszul(QQ), 6), (linear_a4_cubic(), 6),
                 (rad_cube(), 4)):
        for side, B in (("left", A), ("right", A.opposite())):
            for u in range(A.num_vertices):
                simple_resolution(A, u, side, D)
                cases.append((simple_module(B, u), D, (A, u, side)))
    cases += [(regular_bimodule(A), 6, None)
              for A in (linear_a4_cubic(), _not_koszul(QQ))]
    for M, D, kept in cases:
        deep = projective_resolution(M, D)
        for d in range(D):
            fresh = projective_resolution(M, d)
            cut = ProjComplex(M.algebra, {n: t for n, t in deep.terms.items()
                                          if n >= -d}, deep.diffs,
                              check=False)
            assert (cut.terms, cut.diffs) == (fresh.terms, fresh.diffs), d
            if kept is not None:
                ours = simple_resolution(*kept, d)
                assert (ours.terms, ours.diffs) == \
                    (fresh.terms, fresh.diffs), (kept, d)


@pytest.mark.parametrize("name", ["beilinson-p2", "loop-x2",
                                  "linear-a4-cubic", "x^3"])
def test_diagonal_terms_asked_shallower_are_the_fresh_ones(name):
    """_diagonal_terms(A, d) asked after depth 6 equals _diagonal_terms on
    a freshly built copy at depth d, for every d < 6: on K's route, with K
    complete (beilinson-p2) or certified through the depth asked
    (loop-x2), and on the minimal route, with a resolution that ends
    (linear_a4_cubic) or does not (k[x]/(x^3))."""
    from sodhh.hochschild import _diagonal_terms
    from test_algebra import truncated_polynomials
    from test_cli import linear_a4_cubic
    build = {"linear-a4-cubic": linear_a4_cubic,
             "x^3": lambda: truncated_polynomials(3)}.get(
                 name, lambda: CATALOG[name].algebra(QQ))
    A = build()
    _diagonal_terms(A, 6)
    for d in range(6):
        assert _diagonal_terms(A, d) == _diagonal_terms(build(), d), d


def test_koszul_slices_build_no_enveloping_algebra(monkeypatch):
    """Slices are read from the cached tables of K alone, and are cut at
    the depth asked for."""
    from sodhh.algebra import Algebra, TensorOpposite
    A = _generated_beilinson(3)
    assert global_dimension(A, 12) == 3
    built = []
    monkeypatch.setattr(Algebra, "enveloping",
                        lambda self: built.append(self))
    monkeypatch.setattr(TensorOpposite, "__init__",
                        lambda self, *args: built.append(args))
    for u in range(A.num_vertices):
        for side in ("left", "right"):
            assert min(simple_resolution(A, u, side, 1).terms) >= -1
            simple_resolution(A, u, side, 3)
    assert built == []


def reference_koszul_homology(A, K):
    """Homology dimensions of K (x)_A A_0 as they were found before the
    certificate read K's tables: decoded from K's entries over A (x) A^op.
    A summand at the vertex (v, u) becomes A e_v, an entry term p (x) e_u
    acts by y |-> y p, and a term whose right factor lies in the radical
    acts as zero."""
    f, env = A.field, K.algebra
    columns = [A.column_indices(v) for v in range(A.num_vertices)]
    bases = {n: [(s, y) for s, code in enumerate(t)
                 for y in columns[env.vertex_pair(code)[0]]]
             for n, t in K.terms.items()}
    diffs = {}
    for n, d in K.diffs.items():
        rows = {sy: r for r, sy in enumerate(bases[n + 1])}
        terms = {}   # column summand -> [(row summand, p, c)] for p (x) e_u
        for (r, s), x in d.items():
            for k, c in x.items():
                p, q = env.index_pair(k)
                if q in A._idem_set:
                    terms.setdefault(s, []).append((r, p, c))
        cols = []
        for s, y in bases[n]:
            col = {}
            for r, p, c in terms.get(s, ()):
                for k, c1 in A.product(y, p).items():
                    row = rows[r, k]
                    col[row] = f.add(col.get(row, f.zero), f.mul(c, c1))
            cols.append({row: c for row, c in col.items() if c})
        diffs[n] = Matrix(f, len(rows), len(cols), cols)
    return FieldComplex(f, {n: len(b) for n, b in bases.items()},
                        diffs).homology_dims()


def reference_koszul_slice(A, terms, diffs, u, side, depth):
    """The slice of K at u as it was read before it came from K's tables:
    K's entries (terms, diffs) over A (x) A^op decoded with the divmod
    arithmetic of TensorOpposite's vertex and basis indices."""
    from sodhh.complexes import ProjComplex
    right, nv, dim, idems = side == "right", A.num_vertices, A.dim, A._idem_set
    kept, out_terms = {}, {}   # kept[n]: K's summand -> slice summand
    for n, t in terms.items():
        if n < -depth:
            continue
        keep = kept[n] = {}
        for s, code in enumerate(t):
            v, w = divmod(code, nv)
            if (v if right else w) == u:
                keep[s] = len(keep)
                out_terms.setdefault(n, []).append(w if right else v)
    out_diffs = {}
    for n, d in diffs.items():
        if n not in kept or n + 1 not in kept:
            continue
        cols, rows, block = kept[n], kept[n + 1], {}
        for (r, s), x in d.items():
            if s not in cols:
                continue
            entry = {}
            for k, c in x.items():
                p, q = divmod(k, dim)
                if right and p in idems:
                    entry[q] = c
                elif not right and q in idems:
                    entry[p] = c
            if entry:
                block[rows[r], cols[s]] = entry
        out_diffs[n] = block
    return ProjComplex(A.opposite() if right else A, out_terms, out_diffs,
                       check=True)


def whole_left_complex(A, ends, terms):
    """K (x)_A A_0 as the certificate selected it from K's left tables
    before it was written out directly: (terms, diffs) of a ProjComplex
    over A, every summand (v, w) of K_n becoming A e_v and each term
    (row, col, (a, e_w), c) the coefficient c of the arrow a in its
    entry; a term e_v (x) b acts on A_0 as zero."""
    vertices = {-n: [v for v, _ in pairs] for n, pairs in enumerate(ends)}
    diffs = {}
    for n in range(1, len(terms)):
        d = diffs[-n] = {}
        for j, s, (a, q), c in terms[n]:
            if q in A._idem_set:
                d.setdefault((j, s), {})[a] = c
    return vertices, diffs


def certificate_matches_realization(A, ends, terms):
    """Priddy's certificate, written from K's terms (ends, terms), is the
    realization of whole_left_complex, matrix for matrix, so it has the
    homology of ProjComplex(A, *whole_left_complex(...)), which is
    returned."""
    from sodhh.complexes import ProjComplex
    from sodhh.hochschild import _koszul_certificate
    ours = _koszul_certificate(A, ends, terms)
    ref = ProjComplex(A, *whole_left_complex(A, ends, terms),
                      check=False).realize()
    assert (ours.dims, ours.diffs) == (ref.dims, ref.diffs)
    return ours.homology_dims()


def koszul_homology_matches_reference(A, n_max):
    """The homology of Priddy's certificate K (x)_A A_0, written from K's
    terms through degree -n_max, asserted equal to the reference decoding
    of K's entries and to the realization of the one-sided complex
    (certificate_matches_realization); it is returned."""
    from sodhh.complexes import ProjComplex
    from sodhh.hochschild import _env_entries, _koszul_terms
    ends, terms = _koszul_terms(A, n_max)
    K = ProjComplex(A.enveloping(), *_env_entries(A, ends, terms),
                    check=False)
    homology = certificate_matches_realization(A, ends, terms)
    assert homology == reference_koszul_homology(A, K)
    return homology


def assert_slices_match_reference_decoder(A):
    """Where A has a certified K, every slice at every vertex, on both
    sides and at depths 0..gd+1 (0..13 where gd is infinite), is
    dict-equal (terms and diffs) to the reference decoding of K's
    entries."""
    from sodhh.hochschild import _env_entries
    K = certified_koszul(A, 13)
    if K is None:
        return
    entries = _env_entries(A, *K)
    for depth in range(min(len(K[0]), 13) + 1):
        for side in ("left", "right"):
            for u in range(A.num_vertices):
                ours = simple_resolution(A, u, side, depth)
                ref = reference_koszul_slice(A, *entries, u, side, depth)
                assert (ours.terms, ours.diffs) == (ref.terms, ref.diffs), \
                    (side, u, depth)


def test_koszul_tables_match_the_entry_decoders():
    """On every quadratic catalog algebra over Q and F_3, generated
    P^2..P^4 and the quadratic algebra that is not Koszul, K (x)_A A_0
    read from K's tables has the homology of the reference decoding, with
    K cut at -2 and at -6, and the slices are the reference slices.  The
    truncations and the algebra that is not Koszul give homology outside
    degree 0."""
    algebras = _quadratic_catalog_and_generated() + [_not_koszul(QQ),
                                                     _not_koszul(GF(3))]
    nonzero = 0
    for A in algebras:
        for n_max in (2, 6):
            homology = koszul_homology_matches_reference(A, n_max)
            nonzero += set(homology) != {0}
        assert_slices_match_reference_decoder(A)
    assert nonzero >= 10
    for field in (QQ, GF(3)):
        assert set(koszul_homology_matches_reference(_not_koszul(field),
                                                     6)) != {0}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(quadratic_quivers())
def test_koszul_tables_match_the_entry_decoders_on_random_quivers(A):
    """The random quadratic quivers: K cut at -1, at -2 and at -5
    (complete, as their paths have length <= 4) and, where K is certified,
    its slices.  Every one of the 60 draws is Koszul, so the nonzero
    homology comes from the cuts: at -1 on 30 draws, at -2 on 5."""
    for n_max in (1, 2, 5):
        koszul_homology_matches_reference(A, n_max)
    assert_slices_match_reference_decoder(A)


@pytest.mark.parametrize("build", [
    lambda: _generated_beilinson(2, {"kind": "fp", "p": 32003}),
    lambda: _generated_beilinson(3, {"kind": "fp", "p": 32003}),
    lambda: _generated_beilinson(4, {"kind": "fp", "p": 32003}),
    lambda: _not_koszul(QQ), lambda: _not_koszul(GF(3)),
    lambda: exterior_algebra(2), lambda: exterior_algebra(3, GF(3)),
    xyz_radical_square],
    ids=["p2-f32003", "p3-f32003", "p4-f32003", "not-koszul-q",
         "not-koszul-f3", "exterior-2", "exterior-3-f3", "xyz-rad2"])
def test_certificate_is_the_realized_one_sided_complex(build):
    """Priddy's certificate is the realization of the whole left complex at
    every cut; the catalog over Q and F_3, generated P^2..P^4 over Q and
    the random quadratic quivers check the same through
    koszul_homology_matches_reference."""
    assert_certificate_is_realized_at_every_cut(build())


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(radical_square_zero_cyclic_quivers())
def test_certificate_is_the_realized_one_sided_complex_on_cycles(A):
    assert_certificate_is_realized_at_every_cut(A)


def assert_certificate_is_realized_at_every_cut(A):
    """At every n_max 1..8, K cut there (as _koszul_terms(A, n_max)
    stops), Priddy's certificate is the realization of the whole left
    complex."""
    from sodhh.hochschild import _koszul_terms
    ends, terms = _koszul_terms(A, 8)
    for n_max in range(1, 9):
        certificate_matches_realization(A, ends[:n_max + 1],
                                        terms[:n_max + 1])


def test_global_dimension_builds_no_projective_complex(monkeypatch):
    """Priddy's certificate is written from K's tables straight into a
    complex of vector spaces: global_dimension(A, 12) on a fresh generated
    P^3 constructs no ProjComplex and realizes none."""
    from sodhh.complexes import ProjComplex
    made = []
    init, realize = ProjComplex.__init__, ProjComplex.realize

    def counted_init(self, *args, **kwargs):
        made.append("init")
        init(self, *args, **kwargs)

    def counted_realize(self):
        made.append("realize")
        return realize(self)

    monkeypatch.setattr(ProjComplex, "__init__", counted_init)
    monkeypatch.setattr(ProjComplex, "realize", counted_realize)
    A = _generated_beilinson(3)
    assert global_dimension(A, 12) == 3 and made == []


def test_hh_and_the_kernels_leave_the_table_unchanged():
    """No reader writes into A's multiplication table, whose values
    build_path_algebra copies from its arrow maps: A.mult is unchanged
    after HH^*, HH_*, the Serre route and the projection kernels, on K's
    route (generated P^3) and on the minimal route."""
    import copy
    from sodhh.exceptional import projective_collection
    from sodhh.kernels import projection_kernels
    for A in (_generated_beilinson(3), _not_koszul(QQ)):
        before = copy.deepcopy(A.mult)
        hh_cohomology(A, 3)
        hh_homology(A, 3)
        homology_via_serre_dual(A, 3)
        projection_kernels(projective_collection(A))
        assert A.mult == before


def _perturbed(terms, n, index, value):
    """A copy of the terms with the coefficient of terms[n][index] set to
    value, or the term dropped when value is None."""
    out = [None] + [list(t) for t in terms[1:]]
    j, col, pq, _ = out[n][index]
    if value is None:
        del out[n][index]
    else:
        out[n][index] = (j, col, pq, value)
    return out


def check_and_compose_verdicts(A, ends, terms):
    """(_check_koszul's ComplexError text or None, the d^2 text of the
    first degree where _compose finds a nonzero composite of the entries
    over A (x) A^op that _env_entries writes from the terms, or None)."""
    from sodhh.complexes import ComplexError, _compose
    from sodhh.hochschild import _check_koszul, _env_entries
    env = A.enveloping()
    _, diffs = _env_entries(A, ends, terms)
    expected = next((f"d^2 != 0 at degree {-m}"
                     for m in range(2, len(terms))
                     if _compose(env, diffs[-m], diffs[-m + 1])), None)
    try:
        _check_koszul(A, ends, terms)
    except ComplexError as exc:
        return str(exc), expected
    return None, expected


def assert_check_agrees_with_compose(A, ends, terms, rng, count):
    """count seeded single-term perturbations of (ends, terms) (a sign
    flip, a scaling by 2 or a dropped term): _check_koszul raises exactly
    when _compose finds a nonzero composite of the entries over
    A (x) A^op, naming the same degree, and it accepts the terms as
    given.  Returns how many raised."""
    f = A.field
    assert check_and_compose_verdicts(A, ends, terms) == (None, None)
    raised = 0
    for _ in range(count):
        n = rng.randrange(1, len(terms))
        index = rng.randrange(len(terms[n]))
        c = terms[n][index][3]
        value = rng.choice([f.neg(c), f.mul(f.coerce(2), c), None])
        changed = _perturbed(terms, n, index, value)
        verdict, expected = check_and_compose_verdicts(A, ends, changed)
        assert verdict == expected, (n, terms[n][index], value)
        raised += verdict is not None
    return raised


def test_koszul_check_agrees_with_compose_on_perturbed_tables():
    """On 150 seeded perturbations of K's terms on generated P^3,
    beilinson-p2 over F_3 and loop-x2, the check in A agrees with
    _compose over A (x) A^op (assert_check_agrees_with_compose)."""
    import random
    from sodhh.catalog import get_entry
    from sodhh.hochschild import _koszul_terms
    rng = random.Random(24)
    raised = 0
    for A in (_generated_beilinson(3),
              get_entry("beilinson-p2").algebra(GF(3)),
              get_entry("loop-x2").algebra(QQ)):
        raised += assert_check_agrees_with_compose(A, *_koszul_terms(A, 4),
                                                   rng, 50)
    assert raised > 0


def test_the_check_takes_the_minimal_routes_terms():
    """The composite rule where both factors lie in the radical, a shape
    no term of K has: _check_koszul accepts the minimal route's terms
    through -4 on rad^3 and on the quadratic algebra that is not Koszul,
    over Q and F_3, and on 150 seeded perturbations of them (50 each on
    rad^3 over Q and on _not_koszul over Q and F_3) it agrees with
    _compose on the entries diagonal_resolution writes from them
    (assert_check_agrees_with_compose)."""
    import random
    from sodhh.hochschild import _diagonal_terms
    rng = random.Random(35)
    raised = 0
    for A, count in ((rad_cube(QQ), 50), (rad_cube(GF(3)), 0),
                     (_not_koszul(QQ), 50), (_not_koszul(GF(3)), 50)):
        ends, terms = _diagonal_terms(A, 4)
        assert certified_koszul(A, 4) is None
        assert any(p not in A._idem_set and q not in A._idem_set
                   for n in range(1, len(terms))
                   for _, _, (p, q), _ in terms[n])
        raised += assert_check_agrees_with_compose(A, ends, terms, rng,
                                                   count)
    assert raised > 0


def test_the_composite_rule_agrees_with_compose_on_radical_terms():
    """Where both factors of both terms lie in the radical, the composite
    shows only in cells that neither factor's idempotent fast path fills:
    on 100 seeded random two-step term lists over rad^3, two summands at
    each of degrees 0, -1 and -2 and every factor a path of length 1 or
    2, _check_koszul raises exactly when _compose finds d^2 != 0 over
    A (x) A^op, and both verdicts occur."""
    import random
    rng = random.Random(36)
    A = rad_cube(QQ)
    radical = [k for k, path in enumerate(A.basis_paths)
               if path and len(path) <= 2]
    ends = [[(0, 0)] * 2] * 3
    seen = set()
    for _ in range(100):
        terms = [None] + [
            [(j, col, pq, c) for (j, col, pq), c in {
                (rng.randrange(2), rng.randrange(2),
                 (rng.choice(radical), rng.choice(radical))):
                rng.choice([1, -1, 2]) for _ in range(4)}.items()]
            for _ in (1, 2)]
        verdict, expected = check_and_compose_verdicts(A, ends, terms)
        assert verdict == expected, terms
        seen.add(verdict)
    assert seen == {None, "d^2 != 0 at degree -2"}


def test_koszul_resolution_raises_on_a_corrupted_table(monkeypatch):
    """Every build of K is checked: a flipped sign raises d^2 != 0, and a
    term a (x) e_w whose arrow does not join the column's and the row's
    vertices raises the slice error, both from koszul_resolution."""
    import sodhh.hochschild as hochschild
    from sodhh.catalog import get_entry
    from sodhh.complexes import ComplexError
    A = get_entry("beilinson-p2").algebra(QQ)
    ends, terms = hochschild._koszul_terms(A, 3)
    index, (j, col, (a, e_w), c) = next(
        (i, t) for i, t in enumerate(terms[2])
        if t[1] == 0 and t[2][1] in A._idem_set)
    other = next(b for b in range(A.dim) if A.basis_paths[b]
                 and len(A.basis_paths[b]) == 1
                 and (A.src[b], A.tgt[b]) != (A.src[a], A.tgt[a]))
    flipped = _perturbed(terms, 2, index, A.field.neg(c))
    moved = _perturbed(terms, 2, index, c)
    moved[2][index] = (j, col, (other, e_w), c)
    for bad, message in ((flipped, "d\\^2 != 0 at degree -2"),
                         (moved, "entry not in e_v L e_w slice at degree -2")):
        monkeypatch.setattr(hochschild, "_koszul_terms",
                            lambda A, n_max, bad=bad: (ends, bad))
        with pytest.raises(ComplexError, match=message):
            koszul_resolution(A, 3)


def test_global_dimension_makes_no_enveloping_products(monkeypatch):
    """Certifying K on a fresh generated P^3 works in A only:
    global_dimension(A, 12) builds no A (x) A^op at all, and the terms it
    caches, written out over A (x) A^op, pass the generic check."""
    from sodhh.complexes import ProjComplex
    from sodhh.hochschild import _env_entries
    from test_cli import count_builds
    built = count_builds(monkeypatch)
    A = _generated_beilinson(3)
    assert global_dimension(A, 12) == 3 and built == []
    ProjComplex(A.enveloping(),
                *_env_entries(A, *certified_koszul(A, 13)),
                check=True)
    assert built


def test_truncated_koszul_complex_is_not_certified(monkeypatch):
    """K without its last degree is still a complex, and on Beilinson P^2
    it ends by every cap >= 1, but K (x)_A S_u then has homology at -1:
    global_dimension must fall back to the minimal resolutions, and
    diagonal_resolution to the minimal bimodule resolution."""
    import sodhh.hochschild as hochschild
    from sodhh.catalog import get_entry
    real = hochschild._koszul_terms

    def truncated(A, n_max):
        ends, terms = real(A, n_max)
        return ends[:-1], terms[:-1]

    monkeypatch.setattr(hochschild, "_koszul_terms", truncated)
    B = get_entry("beilinson-p2").algebra(QQ)
    assert global_dimension(B, 6) == 2
    assert certified_koszul(B, 7) is None
    assert diagonal_resolution(B, 4).terms == \
        projective_resolution(regular_bimodule(B), 4).terms


def test_algebra_graph_is_freed_without_the_cyclic_collector():
    """A keeps A.enveloping() and A.opposite() by weak references, and its
    cached diagonal resolutions as plain data, so refcounting alone frees an
    algebra and everything built from it."""
    import gc
    import weakref
    enabled = gc.isenabled()
    gc.disable()
    try:
        A = CATALOG["beilinson-p2"].algebra(QQ)
        hh_cohomology(A, 3)
        homology_via_serre_dual(A, 3)
        hh_homology(A, 3)
        diagonal_resolution(A, 4)
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


def _three_cycle(field):
    """1 -a-> 2 -b-> 3 -c-> 1 with every path of length 2 zero."""
    quiver = Quiver.make(list("123"), [("a", "1", "2"), ("b", "2", "3"),
                                       ("c", "3", "1")])
    return build_path_algebra(
        quiver, [Relation(((1, p),)) for p in (("a", "b"), ("b", "c"),
                                               ("c", "a"))], field)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_three_cycle_homology(field):
    """The radical-square-zero 3-cycle has C_1 = 0 but C_2, C_3 != 0 in the
    relative cyclic complex; HH_* is (3, 0, 1, 1, 0, 0) on every route."""
    A = _three_cycle(field)
    hh = hh_homology(A, 5)
    assert hh.as_tuple() == (3, 0, 1, 1, 0, 0)
    assert homology_via_serre_dual(A, 5).as_tuple() == hh.as_tuple()
    assert absolute_hh_homology(A, 3).as_tuple() == hh.as_tuple(3)
    assert cyclic_hh_homology(A, 5).as_tuple() == hh.as_tuple()


@pytest.mark.parametrize("field", [{"kind": "q"}, {"kind": "fp", "p": 3},
                                   {"kind": "fp", "p": 5}])
def test_three_cycle_homology_command(tmp_path, field):
    import json
    from sodhh.cli import run_command
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps({
        "field": field, "vertices": ["1", "2", "3"],
        "arrows": [{"name": x, "source": s, "target": t}
                   for x, s, t in (("a", "1", "2"), ("b", "2", "3"),
                                   ("c", "3", "1"))],
        "relations": [[{"coeff": "1", "path": list(path)}]
                      for path in ("ab", "bc", "ca")]}))
    code, report = run_command(["homology", "--file", str(p)])
    assert code == 0
    assert report.data["hh_homology"]["dims"] == [3, 0, 1, 1, 0, 0, 0]
    assert [c["passed"] for c in report.data["checks"]
            if c["name"] == "HH_* equals Ext(A, DA) degreewise"] == [True]


@st.composite
def cyclic_monomial_quivers(draw):
    """A random quiver on 1..3 vertices: the oriented cycle 0 -> 1 -> ... ->
    0 (a loop on one vertex) and up to two more arrows, loops allowed, with
    every path of length k zero for k = 2 or 3 (one more arrow at most for
    k = 3), over Q or F_3."""
    n = draw(st.integers(1, 3))
    k = draw(st.sampled_from([2, 3]))
    ends = [(i, (i + 1) % n) for i in range(n)] + draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 if k == 2 else 1))
    arrows = [(f"a{i}", str(s), str(t)) for i, (s, t) in enumerate(ends)]
    paths = [(x,) for x in arrows]
    for _ in range(k - 1):
        paths = [p + (y,) for p in paths for y in arrows if p[-1][2] == y[1]]
    relations = [Relation(((1, tuple(x[0] for x in p)),)) for p in paths]
    field = draw(st.sampled_from([QQ, GF(3)]))
    quiver = Quiver.make([str(i) for i in range(n)], arrows)
    return build_path_algebra(quiver, relations, field)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(cyclic_monomial_quivers())
def test_cyclic_quivers_match_absolute_oracles(A):
    # the absolute homology oracle has dim^5 chains in degree 4
    assume(A.dim <= 7)
    hh = hh_homology(A, 3).as_tuple()
    assert homology_via_serre_dual(A, 3).as_tuple() == hh
    assert absolute_hh_homology(A, 3).as_tuple() == hh
    assert hh_cohomology(A, 2).as_tuple() == \
        absolute_hh_cohomology(A, 2).as_tuple()


def cyclic_hh_homology(A, n_max):
    """Hochschild homology from the relative cyclic chain complex
    C_n = (A (x)_E rad^{(x)_E n}) / [E, -], with basis the pairs (a0, t)
    of a composable tuple t of radical basis elements and a0 in
    e_{src(r_n)} A e_{tgt(r_1)}.  It shares only the rank kernel with
    hochschild.hh_homology.  An empty C_n does not end the complex: on an
    algebra with oriented cycles C_{n+1} may be nonzero again."""
    f = A.field
    bases = {0: [(a0, ()) for a0 in range(A.dim) if A.src[a0] == A.tgt[a0]]}
    for n in range(1, n_max + 2):
        bases[n] = [(a0, t) for t in radical_tuples(A, n) for a0 in range(A.dim)
                    if A.src[a0] == A.tgt[t[0]] and A.tgt[a0] == A.src[t[-1]]]
    pos = {n: {b: i for i, b in enumerate(bs)} for n, bs in bases.items()}
    diffs = {}
    for n in range(1, n_max + 2):
        if not bases[n] or not bases[n - 1]:
            continue
        entries = {}
        tgt_pos = pos[n - 1]

        def add(key, c, col):
            r = tgt_pos.get(key)
            if r is not None:
                entries[(r, col)] = f.add(entries.get((r, col), f.zero), c)
        for col, (a0, t) in enumerate(bases[n]):
            # i = 0: absorb r_1 into the A slot
            for s, c in A.product(a0, t[0]).items():
                add((s, t[1:]), c, col)
            # 0 < i < n: contract adjacent radical slots
            for i in range(1, n):
                sign = f.one if i % 2 == 0 else f.neg(f.one)
                for s, c in A.product(t[i - 1], t[i]).items():
                    add((a0, t[:i - 1] + (s,) + t[i + 1:]), f.mul(sign, c),
                        col)
            # i = n: wrap r_n around to the left of the A slot
            sign = f.one if n % 2 == 0 else f.neg(f.one)
            for s, c in A.product(t[-1], a0).items():
                add((s, t[:-1]), f.mul(sign, c), col)
        # chains in degree -n, as for the bar resolution
        diffs[-n] = Matrix.from_entries(f, len(bases[n - 1]), len(bases[n]),
                                        entries)
    homology = FieldComplex(f, {-n: len(b) for n, b in bases.items()},
                            diffs).homology_dims()
    return HHProfile.from_dict({-n: h for n, h in homology.items()}, f, n_max)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_hh_homology_matches_cyclic_complex(field):
    for name, entry in CATALOG.items():
        A = entry.algebra(field)
        assert hh_homology(A, 4).as_tuple() == \
            cyclic_hh_homology(A, 4).as_tuple(), name


@pytest.mark.parametrize("n", [2, 3])
def test_hh_homology_matches_cyclic_complex_on_generated_beilinson(n):
    from sodhh.cli import parse_quiver_document
    from test_cli import _benchmark_inputs
    inputs = _benchmark_inputs()
    A = parse_quiver_document(
        inputs.beilinson_quiver_doc(n, {"kind": "q"}, seed=1)).build()
    hh = hh_homology(A, n + 1)
    assert hh.as_tuple() == cyclic_hh_homology(A, n + 1).as_tuple() == \
        tuple(inputs.hh_homology_pn(n, n + 1))


@pytest.mark.parametrize("argv", [["kernels", "build"],
                                  ["kernels", "additivity"], ["homology"],
                                  ["kernels", "orthogonality"], ["cohomology"],
                                  ["coeffs", "--bimodule", "serre"]])
def test_diagonal_resolution_is_built_once_per_call(argv, monkeypatch):
    """Every route to the diagonal reads one Koszul resolution per algebra:
    kernels build reads it for the kernels and the K_0 identity check,
    homology for HH_* and the Serre route.  Its terms are built once and
    kept once, under "koszul": no command writes its entries over
    A (x) A^op or keeps a second copy of its terms, as HH^*, HH_*, the
    coefficients and the diagonal's K_0 class read the terms K is kept
    as.  The HH commands build no ModuleHomComplex either."""
    import sodhh.hochschild as hochschild
    from sodhh.cli import run_command
    from sodhh.complexes import ModuleHomComplex
    from test_cli import counting_wrapper
    tables = counting_wrapper(monkeypatch, "_koszul_terms", ["hochschild"])
    entries = counting_wrapper(monkeypatch, "_env_entries", ["hochschild"])
    keys, kept = [], hochschild._kept
    homs, init = [], ModuleHomComplex.__init__

    def recording_kept(A, key, depth, build):
        keys.append(key)
        return kept(A, key, depth, build)

    def counting_init(self, *args):
        homs.append(args)
        init(self, *args)
    monkeypatch.setattr(hochschild, "_kept", recording_kept)
    monkeypatch.setattr(ModuleHomComplex, "__init__", counting_init)
    code, report = run_command(argv + ["--catalog", "beilinson-p2"])
    assert code == 0 and report.all_passed()
    assert len(tables) == 1
    assert entries == []
    assert "koszul" in keys and "diagonal_terms" not in keys
    assert (homs == []) == (argv[0] != "kernels")


@pytest.mark.parametrize("argv", [["cohomology"], ["homology"],
                                  ["kernels", "additivity"]])
def test_the_diagonal_terms_are_k_itself(argv, tmp_path, monkeypatch):
    """K is stored once: after a command on generated P^3, A's cache holds
    no "diagonal_terms" entry, and at every depth _diagonal_terms returns
    the very term lists that certified_koszul keeps."""
    import json
    from sodhh.cli import run_command
    from sodhh.hochschild import _diagonal_terms
    from test_cli import _benchmark_inputs, counting_wrapper
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(_benchmark_inputs().beilinson_quiver_doc(
        3, {"kind": "q"}, seed=101)))
    algebras = counting_wrapper(monkeypatch, "_diagonal_terms",
                                ["hochschild", "kernels"])
    code, report = run_command(argv + ["--file", str(path)])
    assert code == 0 and report.all_passed() and algebras
    for A in algebras:
        assert "diagonal_terms" not in A._cache
        for d in range(8):
            ours, K = _diagonal_terms(A, d)[1], certified_koszul(A, d)[1]
            assert len(ours) == len(K) and \
                all(x is y for x, y in zip(ours, K)), d


# ---------------------------------------------------------------------------
# HH read from the resolution's p (x) q terms, against the A^e entries


def reference_tensor_complex(A, P):
    """P (x)_{A^e} A decoded from P's entries over A (x) A^op, the
    reference for hochschild._tensor_complex: a summand of P at the
    vertex (v, w) contributes e_w A e_v, and each term c (a (x) b) of an
    entry of P's differential sends m to c (b m a)."""
    f, env = A.field, P.algebra
    at_vertex = {}   # vertex (v, w) of A (x) A^op -> basis of e_w A e_v
    for m in range(A.dim):
        at_vertex.setdefault(env.vertex(A.src[m], A.tgt[m]), []).append(m)
    bases = {n: [(s, m) for s, code in enumerate(t)
                 for m in at_vertex.get(code, ())]
             for n, t in P.terms.items()}
    diffs = {}
    for n, d in P.diffs.items():
        rows = {sm: r for r, sm in enumerate(bases[n + 1])}
        d_cols = {}
        for (i, s), x in d.items():
            d_cols.setdefault(s, []).append((i, x))
        entries = {}
        for col, (s, m) in enumerate(bases[n]):
            for i, x in d_cols.get(s, ()):
                for a, b, c in env.terms(x):
                    for k, c1 in A.product(b, m).items():
                        for k2, c2 in A.product(k, a).items():
                            key = (rows[(i, k2)], col)
                            entries[key] = f.add(entries.get(key, f.zero),
                                                 f.mul(c, f.mul(c1, c2)))
        diffs[n] = Matrix.from_entries(f, len(rows), len(bases[n]), entries)
    return FieldComplex(f, {n: len(b) for n, b in bases.items()}, diffs)


def plain_module(M):
    """M as a plain module over A (x) A^op: its column function alone."""
    from sodhh.modules import ModuleRep
    return ModuleRep(M.algebra, M.dim, M.column, M.grading, check=False)


def assert_hh_complexes_match_references(A, depth=5):
    """The Hom complexes into A, DA, file-style A and DA (rebuilt from
    whole action matrices, as --bimodule files are read) and A and DA as
    plain A^e modules, and the tensor complex P (x)_{A^e} A, all read
    from _diagonal_terms, equal the ModuleHomComplex and the A^e-entry
    loop over the resolution P, matrix for matrix: K, written out over
    A (x) A^op by diagonal_resolution, where K is certified through
    -depth, else the minimal bimodule resolution as projective_resolution
    builds it, not the entries written back from the terms."""
    from sodhh.complexes import ModuleHomComplex, module_complex_single
    from sodhh.hochschild import (_diagonal_terms, _hom_complex,
                                  _tensor_complex)
    from test_modules import file_style
    P = diagonal_resolution(A, depth) \
        if certified_koszul(A, depth) is not None \
        else projective_resolution(regular_bimodule(A), depth)
    terms = _diagonal_terms(A, depth)
    R, D = regular_bimodule(A), dual_bimodule(A)
    for M in (R, D, file_style(R), file_style(D), plain_module(R),
              plain_module(D)):
        ours = _hom_complex(A, M, *terms)
        ref = ModuleHomComplex(P, module_complex_single(M))
        assert ours.dims == ref.dims and ours.diffs == ref.mats
    ours, ref = _tensor_complex(A, *terms), reference_tensor_complex(A, P)
    assert ours.dims == ref.dims and ours.diffs == ref.diffs


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_hh_complexes_match_references_on_the_catalog(field):
    for entry in CATALOG.values():
        assert_hh_complexes_match_references(entry.algebra(field))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hh_complexes_match_references_on_generated_beilinson(n):
    assert_hh_complexes_match_references(_generated_beilinson(n))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(quadratic_quivers())
def test_hh_complexes_match_references_on_random_quivers(A):
    assert_hh_complexes_match_references(A)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(non_koszul_quivers())
def test_hh_complexes_match_references_off_koszul(A):
    """The minimal route: the terms come from the minimal bimodule
    resolution's entries."""
    assert certified_koszul(A, 5) is None
    assert_hh_complexes_match_references(A)


@pytest.mark.parametrize("build", [
    lambda: _three_cycle(QQ), lambda: _three_cycle(GF(5)),
    lambda: exterior_algebra(2), lambda: exterior_algebra(3, GF(3))],
    ids=["three-cycle-q", "three-cycle-f5", "exterior-2", "exterior-3-f3"])
def test_hh_complexes_match_references_on_cycles(build):
    """Oriented cycles give the tensor complex nonzero blocks e_w A e_v
    beyond degree 0, and a noncommutative one tells q m p from p m q."""
    assert_hh_complexes_match_references(build())


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(cyclic_monomial_quivers())
def test_hh_complexes_match_references_on_cyclic_monomial_quivers(A):
    """Quadratic draws take K, cubic ones the minimal route."""
    assert_hh_complexes_match_references(A)


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(radical_square_zero_cyclic_quivers())
def test_hh_complexes_match_references_on_radical_square_zero_cycles(A):
    assert_hh_complexes_match_references(A)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(quadratic_quivers())
def test_hh_euler_characteristic_is_counted_from_k(A):
    """Every draw is Koszul of global dimension at most 4, so K is
    certified and ends, and the Euler characteristic of HH^*(A, M) for
    M = A and DA is that of the cochains of Hom(K, M): the alternating
    sum over K's summands (v, w) of the dimension of M's block at (v, w),
    counted from K's ends alone."""
    K = certified_koszul(A, 6)
    assert K is not None and len(K[0]) <= 5
    ends, env = K[0], A.enveloping()
    for M in (regular_bimodule(A), dual_bimodule(A)):
        blocks = {}
        for code in M.grading:
            blocks[code] = blocks.get(code, 0) + 1
        cochains = sum((-1) ** n * blocks.get(env.vertex(v, w), 0)
                       for n, pairs in enumerate(ends) for v, w in pairs)
        hh = hh_with_coefficients(A, M, len(ends))
        assert sum((-1) ** n * d for n, d in enumerate(hh.as_tuple())) == \
            cochains
