"""Exceptional collections, mutations, dual collections and projection
towers in the perfect derived category of a basic algebra.

Objects are bounded complexes of projective left modules, always kept in
minimal form.  Derived isomorphism is certified up to equality of minimal
multiplicity data plus Ext tables against the simple modules; minimal
perfect complexes are unique up to isomorphism, so multiplicity equality
is sound, and the probe tables guard against differential mismatch.

Left and right mutations are the object-level cone formulas
    L_E F = cone(ev : Hom*(E, F) (x) E -> F)
    R_E F = cone(coev : F -> Hom*(F, E)* (x) E)[-1]
assembled from explicit cocycle bases of the Hom complexes.

An ExceptionalCollection keeps one Ext table, ext(i, j) = Ext*(E_{i+1},
E_{j+1}), each ordered pair computed once.  A shift only re-indexes it,
    Ext^d(E[s], F[t]) = Ext^(d + t - s)(E, F),
so verification, the strongness shifts, endomorphism_algebra and
bdi_check all read that one table.
"""

from __future__ import annotations

from .algebra import Algebra, PathAlgebra, algebra_from_structure
from .complexes import (ChainMap, ProjComplex, compose_chainmaps, cone,
                        direct_sum, ext_profile, hom_complex, minimalize,
                        single_projective, zero_complex)
from .linalg import Matrix, solve_linear
from .modules import simple_module


class MutationFailed(RuntimeError):
    """A mutated collection failed re-verification (an implementation bug:
    mutations always preserve exceptionality)."""


class NotExceptional(ValueError):
    """The objects are not an exceptional collection, or the algebra is not
    directed, so its projectives have no exceptional order."""


class NotStrong(ValueError):
    """Ext between collection members is not concentrated in degree 0."""


class NotFull(ValueError):
    """An object has no nonzero component in any ⟨E_i⟩ yet is nonzero."""


def probe_tables(X: ProjComplex):
    """Ext tables of X against every simple module (sorted, hashable)."""
    A = X.algebra
    out = []
    for v in range(A.num_vertices):
        prof = ext_profile(X, simple_module(A, v))
        out.append(tuple(sorted(prof.items())))
    return tuple(out)


def minimal_data(X: ProjComplex):
    """The isomorphism proxy: (multiplicity data, simple-probe Ext tables)."""
    m = minimalize(X)
    return (tuple(sorted(m.multiplicity_data().items())), probe_tables(m))


def _assemble_map_from(pieces, maps, target) -> ChainMap:
    """Block chain map (+) pieces -> target from maps[p] : pieces[p] -> target."""
    S, offsets = direct_sum(pieces)
    mats = {}
    for p, cm in enumerate(maps):
        for n, comp in cm.mats.items():
            if n not in S.terms or n not in target.terms:
                continue
            off = offsets[p].get(n, 0)
            block = mats.setdefault(n, {})
            for (i, j), x in comp.items():
                block[(i, off + j)] = dict(x)
    return ChainMap(S, target, mats)


def _assemble_map_to(source, pieces, maps) -> ChainMap:
    """Block chain map source -> (+) pieces from maps[p] : source -> pieces[p]."""
    T, offsets = direct_sum(pieces)
    mats = {}
    for p, cm in enumerate(maps):
        for n, comp in cm.mats.items():
            if n not in source.terms or n not in T.terms:
                continue
            off = offsets[p].get(n, 0)
            block = mats.setdefault(n, {})
            for (i, j), x in comp.items():
                block[(off + i, j)] = dict(x)
    return ChainMap(source, T, mats)


def evaluation_map(E: ProjComplex, F: ProjComplex) -> ChainMap:
    """ev : Hom*(E, F) (x) E -> F, summed over a cocycle basis lifting a
    basis of the Ext groups."""
    h = hom_complex(E, F)
    pieces, maps = [], []
    for d in sorted(h.dims):
        for vec in h.cocycle_representatives(d):
            cm = h.cochain_to_chainmap(vec, d)   # E[-d] -> F
            pieces.append(cm.source)
            maps.append(cm)
    if not pieces:
        return ChainMap(zero_complex(E.algebra), F, {})
    return _assemble_map_from(pieces, maps, F)


def coevaluation_map(F: ProjComplex, E: ProjComplex) -> ChainMap:
    """coev : F -> Hom*(F, E)* (x) E, dual-basis components E[d] per
    degree-d cocycle."""
    h = hom_complex(F, E)
    pieces, maps = [], []
    for d in sorted(h.dims):
        for vec in h.cocycle_representatives(d):
            cm = h.cochain_to_chainmap(vec, d)   # F[-d] -> E
            shifted = ChainMap(F, E.shift(d),
                               {n - d: cm.mats[n] for n in cm.mats}, check=False)
            pieces.append(shifted.target)
            maps.append(shifted)
    if not pieces:
        return ChainMap(F, zero_complex(F.algebra), {})
    return _assemble_map_to(F, pieces, maps)


def left_mutation_object(E: ProjComplex, F: ProjComplex) -> ProjComplex:
    return minimalize(cone(evaluation_map(E, F)))


def right_mutation_object(F: ProjComplex, E: ProjComplex) -> ProjComplex:
    return minimalize(cone(coevaluation_map(F, E)).shift(-1))


def is_exceptional_collection(objects):
    """(ok, violations): endomorphisms k and backwards Ext vanishing."""
    objects = list(objects)
    algebra = objects[0].algebra if objects else None
    violations = _violations(ExceptionalCollection(algebra, objects,
                                                   verify=False))
    return (not violations), violations


def _violations(coll):
    """Diagonal Ext other than k in degree 0, then nonzero backward Ext."""
    m = len(coll)
    return ([f"Ext*(E_{i+1}, E_{i+1}) = {coll.ext(i, i)}, expected k in degree 0"
             for i in range(m) if coll.ext(i, i) != {0: 1}]
            + [f"Ext*(E_{j+1}, E_{i+1}) = {coll.ext(j, i)}, expected 0 (i < j)"
               for j in range(m) for i in range(j) if coll.ext(j, i)])


class ExceptionalCollection:
    """Objects E_1, ..., E_m (minimalized) and their Ext table `ext`.
    Verification reads the table's diagonal and backward pairs and keeps
    the (empty) `violations`, None when `verify` is off."""

    def __init__(self, algebra: Algebra, objects, verify=True):
        self.algebra = algebra
        self.objects = tuple(minimalize(X) for X in objects)
        self._ext = {}
        self.violations = None
        if verify:
            self.violations = _violations(self)
            if self.violations:
                raise NotExceptional("not an exceptional collection: "
                                     + "; ".join(self.violations))

    def __len__(self):
        return len(self.objects)

    def ext(self, i, j):
        """Ext*(E_{i+1}, E_{j+1}) as {degree: dim}, computed on first use."""
        if (i, j) not in self._ext:
            self._ext[(i, j)] = ext_profile(self.objects[i], self.objects[j])
        return self._ext[(i, j)]


def projective_collection(A: Algebra, order=None) -> ExceptionalCollection:
    """The indecomposable projectives in a semiorthogonal (directed)
    order; `order` lists vertex positions, rightmost argument last."""
    if order is None:
        order = _directed_order(A)
    objs = [single_projective(A, v) for v in order]
    return ExceptionalCollection(A, objs)


def _directed_order(A: Algebra):
    """Vertex order with Hom(A e_w, A e_u) = e_w A e_u = 0 for u listed
    before w, so no Hom runs from a later object to an earlier one; exists
    exactly for directed algebras."""
    verts = list(range(A.num_vertices))
    edges = {(v, w) for v in verts for w in verts
             if v != w and A.slice_indices(v, w)}
    # slice e_v A e_w != 0 means paths w -> v exist; order sinks first
    order = []
    remaining = set(verts)
    while remaining:
        found = None
        for v in sorted(remaining):
            if not any((u, v) in edges for u in remaining if u != v):
                found = v
                break
        if found is None:
            raise NotExceptional("algebra is not directed; no exceptional "
                                 "order")
        order.append(found)
        remaining.discard(found)
    return order


def mutate(coll: ExceptionalCollection, i: int, direction: str) -> ExceptionalCollection:
    """Mutation at a 1-based index: 'left' acts on the pair (E_i, E_{i+1})
    giving (L E_{i+1}, E_i); 'right' acts on (E_{i-1}, E_i) giving
    (E_i, R E_{i-1})."""
    objs = list(coll.objects)
    m = len(objs)
    if direction == "left":
        if not 1 <= i <= m - 1:
            raise IndexError(f"left mutation index {i} out of range 1..{m - 1}")
        E, F = objs[i - 1], objs[i]
        new = left_mutation_object(E, F)
        objs[i - 1], objs[i] = new, E
    elif direction == "right":
        if not 2 <= i <= m:
            raise IndexError(f"right mutation index {i} out of range 2..{m}")
        F, E = objs[i - 2], objs[i - 1]
        new = right_mutation_object(F, E)
        objs[i - 2], objs[i - 1] = E, new
    else:
        raise ValueError(direction)
    try:
        return ExceptionalCollection(coll.algebra, objs)
    except NotExceptional as exc:
        raise MutationFailed(str(exc)) from exc


def dual_collection(coll: ExceptionalCollection):
    """The dual objects F_i = R_{E_m} ... R_{E_{i+1}} (E_i) with shifts
    s_i making Ext^{s_i}(F_i, E_i) = k; returns (objects, shifts)."""
    objs = coll.objects
    m = len(objs)
    duals = []
    for i in range(m):
        T = objs[i]
        for j in range(i + 1, m):
            T = right_mutation_object(T, objs[j])
        duals.append(T)
    # tables[i][j] = Ext*(F_j, E_i); the diagonal gives the shifts.  F_m
    # is E_m itself, so its column is read from the collection's table.
    tables = [[ext_profile(F, E) for F in duals[:-1]] + [coll.ext(m - 1, i)]
              for i, E in enumerate(objs)]
    shifts = []
    for i in range(m):
        table = tables[i][i]
        if len(table) != 1 or set(table.values()) != {1}:
            raise MutationFailed(
                f"dual object F_{i+1} has Ext table {table} against E_{i+1}")
        shifts.append(next(iter(table)))
    # delta property off the diagonal
    for i in range(m):
        for j in range(m):
            if i != j and tables[i][j]:
                raise MutationFailed(
                    f"Ext*(F_{j+1}, E_{i+1}) = {tables[i][j]}, expected {{}}")
    return duals, shifts


def bdi_check(coll: ExceptionalCollection, i: int, dual=None) -> bool:
    """Graded dims of Ext*(BD_i(E_i), E_i), shifted by the dual collection's
    s_i (`dual`, if the caller has it), equal those of Ext*(E_i, E_i).
    dual_collection verified Ext*(F_i, E_i) = {s_i: 1}, so the shifted side
    is {0: 1}, and Ext*(E_i, E_i) is read from the collection's table."""
    if dual is None:
        dual_collection(coll)
    return coll.ext(i - 1, i - 1) == {0: 1}


class SodTower:
    """Filtration 0 = T_m -> ... -> T_0 = x with factors
    A_k = cone(T_k -> T_{k-1}) in <E_k>."""

    def __init__(self, obj, tower, factors, k0_checks):
        self.object = obj
        self.tower = tower
        self.factors = factors
        self.k0_checks = k0_checks


def sod_project(x: ProjComplex, coll: ExceptionalCollection) -> SodTower:
    """Project an object through the tower of an exceptional collection.

    Each factor is split off by a coevaluation cone, so it is a direct sum
    of shifts of E_k by construction; the verified content is that each
    truncation T_k has no Hom to the earlier E_j (j <= k), that the final
    residue vanishes (else NotFull), and that the K_0 classes add up."""
    x = minimalize(x)
    tower = [x]
    factors = []
    T = x
    for k, E in enumerate(coll.objects, start=1):
        coev = coevaluation_map(T, E)
        factor = coev.target
        T = minimalize(cone(coev).shift(-1))
        for j in range(k):
            prof = ext_profile(T, coll.objects[j])
            if prof:
                raise MutationFailed(
                    f"truncation T_{k} has Ext against E_{j+1}: {prof}")
        factors.append(minimalize(factor))
        tower.append(T)
    if not T.is_zero():
        raise NotFull(
            "a nonzero residue survives all projection steps; "
            "the collection does not generate this object")
    total = {}
    for F in factors:
        for v, c in F.euler_class().items():
            total[v] = total.get(v, 0) + c
    k0_ok = {v: c for v, c in total.items() if c} == x.euler_class()
    return SodTower(x, tower, factors, {"k0_additive": k0_ok})


def _strongness_shifts(coll):
    """Per-object shifts making every Ext land in degree 0, or NotStrong.

    Mutations introduce shifts, so a collection can be strong only after
    renormalizing each object; by the shift rule the shift vector solves
    s_j - s_i = d_ij over the nonzero entries of the Ext table, d_ij the
    single degree, which on the diagonal asks d_ii = 0."""
    m = len(coll)
    deg = {}
    for i in range(m):
        for j in range(m):
            prof = coll.ext(i, j)
            if not prof:
                continue
            if len(prof) > 1:
                raise NotStrong(
                    f"Ext*(E_{i+1}, E_{j+1}) has degrees {sorted(prof)}; "
                    "no shift makes the collection strong")
            deg[(i, j)] = next(iter(prof))
    shifts = [None] * m
    for start in range(m):
        if shifts[start] is not None:
            continue
        shifts[start] = 0
        queue = [start]
        while queue:
            i = queue.pop()
            for (a, b), d in deg.items():
                if a == i and shifts[b] is None:
                    shifts[b] = shifts[a] + d
                    queue.append(b)
                elif b == i and shifts[a] is None:
                    shifts[a] = shifts[b] - d
                    queue.append(a)
    for (i, j), d in deg.items():
        if shifts[j] - shifts[i] != d:
            raise NotStrong("inconsistent Ext degrees: no shift "
                            "normalization exists")
    return shifts


def endomorphism_algebra(coll: ExceptionalCollection,
                         vertex_names=None) -> PathAlgebra:
    """Basic endomorphism algebra of (+) E_i for a strong collection
    (strong after the per-object shift normalization that mutations make
    necessary), re-presented as a quiver with relations recovered by
    linear algebra on compositions of Hom-space bases.  Hom complexes of
    the shifted objects are built for the pairs i != j with nonzero Ext,
    and for any other pair a composite lands in."""
    shifts = _strongness_shifts(coll)
    objs = tuple(E if s == 0 else E.shift(s)
                 for E, s in zip(coll.objects, shifts))
    m = len(objs)
    f = coll.algebra.field
    # cocycle bases of the degree-0 Hom spaces, as cochains and chain maps
    hcxs = {(i, j): hom_complex(objs[i], objs[j]) for i in range(m)
            for j in range(m) if i != j and coll.ext(i, j)}
    reps = {ij: h.cocycle_representatives(0) for ij, h in hcxs.items()}
    hom_bases = {ij: [hcxs[ij].cochain_to_chainmap(v, 0) for v in vs]
                 for ij, vs in reps.items()}

    def class_coefficients(i, k, cm):
        """Coefficients of a degree-0 cocycle (given as a chain map
        E_i -> E_k) over the chosen basis, modulo coboundaries."""
        if (i, k) not in hcxs:   # no basis cocycles there: cm is a coboundary
            hcxs[(i, k)] = hom_complex(objs[i], objs[k])
        h, basis = hcxs[(i, k)], reps.get((i, k), [])
        dim0 = h.dims.get(0, 0)
        prev = h.mats.get(-1)
        cols = basis + (prev.cols if prev is not None else [])
        sol = solve_linear(Matrix(f, dim0, len(cols), cols),
                           Matrix(f, dim0, 1, [h.chainmap_to_cochain(cm, 0)]))
        if sol is None:
            raise MutationFailed("composite is not a combination of basis "
                                 "cocycles")
        return {b: sol.cols[0][b] for b in range(len(basis))
                if b in sol.cols[0]}

    if vertex_names is None:
        vertex_names = tuple(str(i + 1) for i in range(m))
    labels = [f"e({v})" for v in vertex_names]
    idx = {}
    for (i, j), basis in sorted(hom_bases.items()):
        for b in range(len(basis)):
            idx[(i, j, b)] = len(labels)
            labels.append(f"h{i + 1}to{j + 1}_{b}")
    mult = {}
    for v in range(m):
        mult[(v, v)] = {v: f.one}
    for (i, j, b), k in idx.items():
        mult[(j, k)] = {k: f.one}   # e_tgt * h = h
        mult[(k, i)] = {k: f.one}   # h * e_src = h
    for (i, j, b1), k1 in idx.items():
        for (j2, l, b2), k2 in idx.items():
            if j2 != j:
                continue
            # product (second)(first) in function order: k2 * k1 composes
            # E_i -> E_j -> E_l, i.e. "k1 then k2"
            comp = compose_chainmaps(hom_bases[(i, j)][b1], hom_bases[(j, l)][b2])
            coeffs = class_coefficients(i, l, comp)
            if coeffs:
                mult[(k2, k1)] = {idx[(i, l, b)]: c for b, c in coeffs.items()}
    return algebra_from_structure(f, vertex_names, labels, mult,
                                  list(range(m)), arrow_name_prefix="t")
