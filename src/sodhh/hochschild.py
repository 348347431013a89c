"""Hochschild cohomology and homology of a basic algebra.

Cohomology (and cohomology with bimodule coefficients) is the cohomology
of Hom_{A-bimod}(P_*, M) for a projective bimodule resolution P_* of A,
the one diagonal_resolution returns: the Koszul resolution K of a
quadratic path algebra that global_dimension certifies by the exactness
of every one-sided complex K (x)_A S_u (Priddy's criterion), else the
minimal bimodule resolution.  Homology is Tor^{A^e}(A, A), the homology
of P_* (x)_{A^e} A over the same resolution.

K is built here, next to its certificate, and is kept in one form: its
tables, each column of a differential as a left table (terms a (x) e_w)
and a right table (terms e_v (x) b), the left and right splittings of a
basis element of the Koszul space K_n, which is never written out in the
tensor powers of the arrows (_koszul_tables).  _check_koszul checks
slices and d^2 = 0 from them with products of arrows in A alone; the
certificate K (x)_A A_0 and the one-sided slices are selected from them
(_one_sided); and A's cache holds them once certified
(certified_koszul).  The entries of A (x) A^op are written from them
only where a bimodule resolution is asked for: by diagonal_resolution,
once per algebra, and by koszul_resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, PathAlgebra, _lines
from .complexes import (ComplexError, FieldComplex, ProjComplex, SideMismatch,
                        ext_profile, projective_resolution)
from .linalg import ColumnEchelon, FieldSpec, Matrix, axpy
from .modules import ModuleRep, dual_bimodule, regular_bimodule, simple_module


@dataclass(frozen=True)
class HHProfile:
    """Graded dimension vector, certified for degrees 0..bound."""
    dims: tuple
    field: FieldSpec
    bound: int
    note: str = ""

    @staticmethod
    def from_dict(d, field, bound, note=""):
        dims = tuple(d.get(n, 0) for n in range(bound + 1))
        return HHProfile(dims, field, bound, note)

    def dim(self, n):
        if 0 <= n <= self.bound:
            return self.dims[n]
        raise IndexError(f"degree {n} not certified (bound {self.bound})")

    def as_tuple(self, upto=None):
        if upto is None:
            return self.dims
        return tuple(self.dims[n] for n in range(upto + 1))

    def total(self):
        return sum(self.dims)

    def __str__(self):
        s = ", ".join(str(d) for d in self.dims)
        return f"({s})" + (f"  [{self.note}]" if self.note else "")


def _is_quadratic(A: Algebra) -> bool:
    return isinstance(A, PathAlgebra) and all(
        len(path) == 2 for rel in A.relations for _, path in rel.terms)


# ---------------------------------------------------------------------------
# Koszul bimodule resolution, checked in A


def _koszul_tables(A: PathAlgebra, n_max: int):
    """K's summands and differential, read in A: ends[n] lists the vertex
    pair (v, w) of each summand A e_v (x) e_w A of degree -n (ends[0] the
    (u, u)), and tables[n] (n >= 1) holds each column of d^{-n} as its
    left table {(row, a): c}, the terms c a (x) e_w, and its right table
    {(row, b): (-1)^n c}, the terms (-1)^n c e_v (x) b.  The list stops
    at n_max (K_1 always included) or after the first empty space.

    K_n is the intersection of the V^i (x) R (x) V^{n-2-i} in the tensor
    powers of the arrow span V, R = ker(V (x)_E V -> A), and is kept as the
    splittings of its basis elements.  K_1 is spanned by the arrows; K_n
    is the kernel of K_{n-1} (x)_E V -> K_{n-2} (x)_E A_2, j (x) b |-> sum
    r i (x) b' b over j's right splitting {(i, b'): r}, one endpoint block
    at a time, and its kernel vectors are the right splittings.  As
    K_{n-2} (x)_E A_2 embeds in V^{(x) n-2} (x)_E A_2, the basis is the
    one the map on arrow tuples gives (ColumnEchelon.kernel_basis).  The
    left splitting of xi = sum c j (x) b expands each j by its own into
    a (x) i (x) b and gathers by first arrow a into rho_a in K_{n-1}, in
    K_{n-1}'s column coordinates; rho_a's coefficient on a basis vector is
    rho_a at its free column, and what the coefficients leave of rho_a
    must vanish, else xi does not split off a (ComplexError)."""
    f = A.field
    add, mul, neg, zero, one = f.add, f.mul, f.neg, f.zero, f.one
    product = A.product
    arrows = [k for k, p in enumerate(A.basis_paths) if p and len(p) == 1]
    ending_at = {}
    for b in arrows:
        ending_at.setdefault(A.tgt[b], []).append(b)
    ends, tables = [[(u, u) for u in range(A.num_vertices)]], [None]
    # K_n's ends, splittings and free columns (j, b), starting at K_1
    vws = [(A.tgt[b], A.src[b]) for b in arrows]
    lefts = [{(A.src[a], a): one} for a in arrows]
    rights = [{(A.tgt[b], b): one} for b in arrows]
    frees = [(A.tgt[b], b) for b in arrows]
    while vws:
        n = len(ends)
        sign = one if n % 2 == 0 else neg(one)
        ends.append(vws)
        tables.append([(left, {jb: mul(sign, c) for jb, c in right.items()})
                       for left, right in zip(lefts, rights)])
        if n >= n_max:
            break
        blocks = {}   # (end, start) vertex -> columns (j, b) of K_n (x) V
        for j, (v, w) in enumerate(vws):
            for b in ending_at.get(w, ()):
                blocks.setdefault((v, A.src[b]), []).append((j, b))
        vws, next_rights, next_frees = [], [], []
        for vw, cols in sorted(blocks.items()):
            rows, images = {}, []
            for j, b in cols:
                img = {}
                for (i, b2), r in rights[j].items():
                    for s, c in product(b2, b).items():
                        row = rows.setdefault((i, s), len(rows))
                        img[row] = add(img.get(row, zero), mul(r, c))
                images.append({row: c for row, c in img.items() if c})
            echelon = ColumnEchelon(Matrix(f, len(rows), len(cols), images))
            for p, combo in zip(echelon.free_columns(),
                                echelon.kernel_basis()):
                vws.append(vw)
                next_rights.append({cols[q]: c for q, c in combo.items()})
                next_frees.append(cols[p])
        at_free = {jb: m for m, jb in enumerate(frees)}
        next_lefts = []
        for right in next_rights:
            by_first = {}   # first arrow a -> rho_a as {(i, b): c}
            for (j, b), c in right.items():
                for (i, a), c2 in lefts[j].items():
                    rho = by_first.setdefault(a, {})
                    rho[i, b] = add(rho.get((i, b), zero), mul(c, c2))
            left = {}
            for a, rho in by_first.items():
                residual = dict(rho)
                for jb, c in rho.items():
                    m = at_free.get(jb)
                    if m is not None and c:
                        left[m, a] = c
                        axpy(f, residual, rights[m], neg(c))
                if any(residual.values()):
                    raise ComplexError(f"a basis element of K_{n + 1} does "
                                       f"not split off {A.labels[a]}")
            next_lefts.append(left)
        lefts, rights, frees = next_lefts, next_rights, next_frees
    return ends, tables


def _check_koszul(A: PathAlgebra, ends, tables):
    """Raise ComplexError unless the tables (see _koszul_tables) define a
    complex, with the checks and messages of ProjComplex over A (x) A^op,
    but with A's multiplication table only.

    Each term c p (x) q of a column, p (x) q = a (x) e_w or e_v (x) b, must
    lie in the slice of its summands: tgt p = v and src q = w for the
    column's (v, w), and (src p, tgt q) is the row's pair.  This is checked
    for every term of a degree before its composites are taken.  By
    (p1 (x) p2)(q1 (x) q2) = p1 q1 (x) q2 p2, the product of a term of
    d^{-n} with one of d^{-n+1} (row h) falls in one of three disjoint parts
    of the basis of A (x) A^op: two left terms give a a' (x) e_w, two right
    terms e_v (x) b' b, and a left and a right term a (x) b.  Once the
    slices pass, each idempotent factor is the unit of the arrow it meets,
    and w or v is fixed by h, so the cells are (h, s) for s in a a',
    (h, t) for t in b' b and (h, a, b), filled from arrow products alone.
    d^2 = 0 exactly when every cell vanishes."""
    f = A.field
    add, mul, zero, product = f.add, f.mul, f.zero, A.product
    e, src, tgt = A.idempotents, A.src, A.tgt
    for n in range(1, len(tables)):
        rows = ends[n - 1]
        for (v, w), (left, right) in zip(ends[n], tables[n]):
            terms = [(j, a, e[w]) for j, a in left]
            terms += [(j, e[v], b) for j, b in right]
            for j, p, q in terms:
                if not 0 <= j < len(rows):
                    raise ComplexError(f"differential at degree {-n} has "
                                       "the wrong shape")
                if (tgt[p], src[q]) != (v, w) or (src[p], tgt[q]) != rows[j]:
                    raise ComplexError("entry not in e_v L e_w slice at "
                                       f"degree {-n}")
        for left, right in tables[n] if n > 1 else ():
            lefts, cross, rights = {}, {}, {}
            for (i, a), c in left.items():
                prev_left, prev_right = tables[n - 1][i]
                for (h, a2), c2 in prev_left.items():
                    c12 = mul(c, c2)
                    for s, u in product(a, a2).items():
                        lefts[h, s] = add(lefts.get((h, s), zero),
                                          mul(c12, u))
                for (h, b2), c2 in prev_right.items():
                    cross[h, a, b2] = add(cross.get((h, a, b2), zero),
                                          mul(c, c2))
            for (i, b), c in right.items():
                prev_left, prev_right = tables[n - 1][i]
                for (h, a2), c2 in prev_left.items():
                    cross[h, a2, b] = add(cross.get((h, a2, b), zero),
                                          mul(c, c2))
                for (h, b2), c2 in prev_right.items():
                    c12 = mul(c, c2)
                    for t, u in product(b2, b).items():
                        rights[h, t] = add(rights.get((h, t), zero),
                                           mul(c12, u))
            if any(lefts.values()) or any(cross.values()) or \
                    any(rights.values()):
                raise ComplexError(f"d^2 != 0 at degree {-n}")


def _koszul_entries(A: PathAlgebra, ends, tables):
    """K's terms and differentials over A (x) A^op, written from the tables
    (see _koszul_tables).  The a and b are arrows, so no a (x) e_w is an
    e_v (x) b and no two terms meet in one coefficient: each is written,
    not added."""
    env, e = A.enveloping(), A.idempotents
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
    return terms, diffs


def _one_sided(ends, tables, side, u=None):
    """(terms, diffs) of a one-sided complex read from K's tables (see
    _koszul_tables).  side "left" gives K (x)_A S_u over A: the summands
    A e_v (x) e_w A with w = u, each becoming A e_v, and the left terms
    a (x) e_w as entries a.  side "right" gives S_u (x)_A K over A^op: the
    summands with v = u, each becoming e_w A, and the right terms e_v (x) b
    as entries b.  A term of the other side acts on S_u by an arrow, so as
    zero.  With u None every summand is kept: K (x)_A A_0 on the left.
    Parallel arrows give several terms in one (row, column) entry."""
    right = side == "right"
    kept, terms, diffs = [], {}, {}
    for n, pairs in enumerate(ends):
        keep = {}
        for s, (v, w) in enumerate(pairs):
            if u is None or (v if right else w) == u:
                keep[s] = len(keep)
                terms.setdefault(-n, []).append(w if right else v)
        kept.append(keep)
    for n in range(1, len(tables)):
        rows, cols, d = kept[n - 1], kept[n], {}
        for s, sides in enumerate(tables[n]):
            if s in cols:
                for (j, x), c in sides[1 if right else 0].items():
                    d.setdefault((rows[j], cols[s]), {})[x] = c
        diffs[-n] = d
    return terms, diffs


def koszul_resolution(A: PathAlgebra, n_max: int) -> ProjComplex:
    """Koszul bimodule resolution of a quadratic path algebra (Priddy): the
    subcomplex A (x)_E K_n (x)_E A of the relative bar resolution, in
    degree -n for n <= n_max, one summand per basis element of K_n, the
    kernel of K_{n-1} (x)_E V -> K_{n-2} (x)_E A_2 (see _koszul_tables).
    The inner faces of the bar differential vanish on K_n, so the
    differential is its two outer faces: a (x) e_w times the left
    splitting of an element into a (x) K_{n-1}, read off the free columns
    of K_{n-1}, and (-1)^n e_v (x) b times its right splitting.  It
    resolves A exactly when A is Koszul; diagonal_resolution uses it only
    where global_dimension has certified that.

    Every build is checked, in A: _check_koszul certifies the tables, and
    only then are the entries of A (x) A^op written, with check=False."""
    ends, tables = _koszul_tables(A, n_max)
    _check_koszul(A, ends, tables)
    return ProjComplex(A.enveloping(), *_koszul_entries(A, ends, tables),
                       check=False)


def global_dimension(A: Algebra, cap: int):
    """Global dimension, or None if it exceeds cap.

    On a path algebra whose relations all have length 2 it is first read
    from K, built and checked through degree -(cap + 1) as in
    koszul_resolution, by Priddy's criterion: A is Koszul exactly when
    every K (x)_A S_u is exact apart from H_0 = k.  Each H_0 is at least
    k, as the entries of d^{-1} are arrows, so the homology of
    K (x)_A A_0, read from K's left tables (_one_sided) and ranked over
    the field, decides this through degree -cap.  If K ends by degree
    -cap and passes, its terms are projective on the right and every
    finite-dimensional module is an iterated extension of simples, so K
    resolves A; each K (x)_A S_u, whose entries are arrows, is then the
    minimal resolution of S_u, and the global dimension is K's length.
    If K has a term at -(cap + 1) and passes, the global dimension exceeds
    cap: every element of K_{cap+1} has a nonzero left splitting, so the
    minimal resolution of some S_u reaches that degree.  If it fails, A is
    not Koszul, and here as on every other algebra the answer is the
    maximum length of the minimal projective resolutions of the simple
    modules.  The certificate builds no A (x) A^op and writes no entries.

    The answer is kept in A's cache as either the exact value, which
    answers every cap, or "exceeds c", which answers every cap <= c.
    Under "koszul_resolution" the cache keeps the certified K as its
    tables (ends, tables), plain ints and field elements, next to an
    exact value, or None once the check failed."""
    exact, exceeds = A._cache.get("global_dimension", (None, -1))
    if exact is not None:
        return exact if exact <= cap else None
    if cap <= exceeds:
        return None
    # a cached "koszul_resolution" here can only be a failed check
    if _is_quadratic(A) and "koszul_resolution" not in A._cache:
        ends, tables = _koszul_tables(A, cap + 1)
        _check_koszul(A, ends, tables)
        homology = ProjComplex(A, *_one_sided(ends, tables, "left"),
                               check=False).homology_dims()
        if {n: h for n, h in homology.items() if n >= -cap} == \
                {0: A.num_vertices}:
            length = len(ends) - 1
            if length > cap:
                A._cache["global_dimension"] = (None, cap)
                return None
            A._cache.update(global_dimension=(length, None),
                            koszul_resolution=(ends, tables))
            return length
        A._cache["koszul_resolution"] = None
    worst = 0
    for v in range(A.num_vertices):
        length = -min(projective_resolution(simple_module(A, v),
                                            cap + 1).terms)
        if length > cap:
            A._cache["global_dimension"] = (None, cap)
            return None
        worst = max(worst, length)
    A._cache["global_dimension"] = (worst, None)
    return worst


def certified_koszul(A: Algebra, cap: int):
    """The tables (ends, tables) of A's certified Koszul resolution K (see
    _koszul_tables), or None when A has none.  On a path algebra with
    quadratic relations that has not been decided yet, global_dimension(A,
    cap) is asked first; K is read only as it cached it next to an exact
    value, complete, whatever the cap."""
    if _is_quadratic(A) and "koszul_resolution" not in A._cache:
        global_dimension(A, cap)
    return A._cache.get("koszul_resolution")


def koszul_slice(A: Algebra, u: int, side: str, depth: int):
    """The one-sided slice of the certified Koszul resolution K at the
    vertex u, through degree -depth, or None when A has no certified K.

    side "right" gives S_u (x)_A K, the minimal resolution of the simple
    right module at u over A^op: K's summands A e_v (x) e_w A with v = u,
    each becoming e_w A, with the right terms e_u (x) b of K's differential
    (a left term a (x) e_w acts on S_u by an arrow, so as zero).  side
    "left" gives K (x)_A S_u over A, the minimal resolution of the simple
    left module at u: the summands with w = u, each becoming A e_v, with
    the left terms.  Either resolves its simple, as K resolves A by
    bimodules that are projective on each side, and is minimal, as its
    entries are arrows.

    K is read only as global_dimension cached it next to an exact value:
    the slice is selected from its tables through degree -depth
    (_one_sided), with no enveloping algebra built, and is checked as a
    ProjComplex."""
    if side not in ("left", "right"):
        raise ValueError(f"slice side must be 'left' or 'right', got {side!r}")
    K = certified_koszul(A, depth)
    if K is None:
        return None
    ends, tables = K
    return ProjComplex(A.opposite() if side == "right" else A,
                       *_one_sided(ends[:depth + 1], tables[:depth + 1],
                                   side, u), check=True)


def diagonal_resolution(A: Algebra, n_max: int) -> ProjComplex:
    """A projective bimodule resolution of A through degree -n_max.

    The Koszul resolution that global_dimension certified, if it did
    (certified_koszul(A, n_max)).  The certified resolution
    is complete and serves every n_max, also one below the global
    dimension.  Otherwise the minimal bimodule resolution
    projective_resolution(regular_bimodule(A), n_max), which needs no
    certificate.

    Each is built once per algebra: A's cache keeps the entries of A (x)
    A^op that _koszul_entries writes from the certified tables (they do
    not depend on n_max), and the minimal resolution of each depth, as
    plain (terms, diffs) that name A (x) A^op's vertices and basis by
    index only, so the cache holds no reference back to A."""
    env = A.enveloping()
    K = certified_koszul(A, n_max)
    if K is not None:
        key = "koszul_entries"
        if key not in A._cache:
            A._cache[key] = _koszul_entries(A, *K)
    else:
        key = ("minimal_resolution", n_max)
        if key not in A._cache:
            P = projective_resolution(regular_bimodule(A), n_max)
            A._cache[key] = (P.terms, P.diffs)
    return ProjComplex(env, *A._cache[key], check=False)


def _finiteness_note(A: Algebra, n_max: int) -> str:
    gd = global_dimension(A, n_max)
    if gd is not None:
        return (f"global dimension {gd}: degrees above {gd} vanish "
                "(theorem-based extrapolation, not computed)")
    return ""


def hh_with_coefficients(A: Algebra, M: ModuleRep, n_max: int,
                         note="") -> HHProfile:
    """Ext_{A-bimod}(A, M) in degrees 0..n_max via diagonal_resolution."""
    if M.algebra is not A.enveloping():
        raise SideMismatch("coefficients must be a bimodule over the algebra")
    prof = ext_profile(diagonal_resolution(A, n_max + 1), M)
    return HHProfile.from_dict(prof, A.field, n_max, note)


def hh_cohomology(A: Algebra, n_max: int) -> HHProfile:
    return hh_with_coefficients(A, regular_bimodule(A), n_max,
                                note=_finiteness_note(A, n_max))


def homology_via_serre_dual(A: Algebra, n_max: int) -> HHProfile:
    """Ext_{A-bimod}(A, DA): the maps-into-the-Serre-kernel route to
    Hochschild homology (dimensions only)."""
    return hh_with_coefficients(A, dual_bimodule(A), n_max)


def hh_homology(A: Algebra, n_max: int) -> HHProfile:
    """Hochschild homology Tor^{A^e}(A, A): the homology of P (x)_{A^e} A
    for P = diagonal_resolution(A, n_max + 1).  A summand of P at the
    vertex (v, w) contributes e_w A e_v, and an entry c (a (x) b) of P's
    differential sends m to c (b m a)."""
    f = A.field
    P = diagonal_resolution(A, n_max + 1)
    env = P.algebra
    at_vertex = {}   # vertex (v, w) of A (x) A^op -> basis of e_w A e_v
    for m in range(A.dim):
        at_vertex.setdefault(env.vertex(A.src[m], A.tgt[m]), []).append(m)
    bases = {n: [(s, m) for s, code in enumerate(t)
                 for m in at_vertex.get(code, ())]
             for n, t in P.terms.items()}
    diffs = {}
    for n, d in P.diffs.items():
        rows = {sm: r for r, sm in enumerate(bases[n + 1])}
        d_cols = _lines(d, 1)
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
    homology = FieldComplex(f, {n: len(b) for n, b in bases.items()},
                            diffs).homology_dims()
    return HHProfile.from_dict({-n: h for n, h in homology.items()}, f, n_max,
                               _finiteness_note(A, n_max))
