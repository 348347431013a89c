"""Hochschild cohomology and homology of a basic algebra.

Cohomology (and cohomology with bimodule coefficients) is the cohomology
of Hom_{A-bimod}(P_*, M) for a projective bimodule resolution P_* of A,
the one diagonal_resolution describes: the Koszul resolution K of a
quadratic path algebra through the depth to which certified_koszul
certifies it by Priddy's criterion, else the minimal bimodule resolution.
Homology is Tor^{A^e}(A, A), the homology of P_* (x)_{A^e} A over the
same resolution.  Both complexes read each entry of P's differential as
terms c p (x) q, p and q basis elements of A (_diagonal_terms): on K's
route the terms K is kept as, else those of the minimal resolution's
entries, decoded once.  A term acts on a bimodule as m |-> c p m q in
complexes._hom, the Hom assembler of one-sided Ext too (_hom_complex),
and on A in P (x)_{A^e} A as m |-> c q m p (_tensor_complex).

K is built here, next to its certificate, and kept in that one form: the
terms a (x) e_w and e_v (x) b of the left and right splittings of each
basis element of K_n (_koszul_terms), which are checked in A
(_check_koszul), certified (_koszul_certificate) and sliced one-sidedly
(_one_sided) as they are.  certified_koszul alone builds and certifies K,
and every use of K (global_dimension, simple_resolution, _diagonal_terms)
asks it whether K is certified through the depth that use needs.  A's
cache keeps each resolution once, with the depth it reaches (_kept): K,
the minimal route's p (x) q terms and each simple's (simple_resolution,
the one place a simple is resolved).  Entries over A (x) A^op are written
(_env_entries) only by diagonal_resolution and koszul_resolution, which
no command calls: HH and the diagonal's K_0 class read the terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .algebra import Algebra, PathAlgebra
from .complexes import (ComplexError, FieldComplex, ProjComplex, SideMismatch,
                        _hom, projective_resolution)
from .linalg import ColumnEchelon, FieldSpec, Matrix, axpy
from .modules import (Bimodule, ModuleRep, _image, dual_bimodule,
                      regular_bimodule, simple_module)


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


def _koszul_terms(A: PathAlgebra, n_max: int):
    """K's summands and differential, read in A, as (ends, terms) (see
    _diagonal_terms), ends[0] the (u, u): column by column, the left
    splitting {(row, a): c} of a basis element of K_n gives the terms
    (row, col, (a, e_w), c), then its right one {(row, b): c} the terms
    (row, col, (e_v, b), (-1)^n c).  The list stops at n_max (K_1 always
    included) or after the first empty space.

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
    product, e = A.product, A.idempotents
    arrows = [k for k, p in enumerate(A.basis_paths) if p and len(p) == 1]
    ending_at = {}
    for b in arrows:
        ending_at.setdefault(A.tgt[b], []).append(b)
    ends, terms = [[(u, u) for u in range(A.num_vertices)]], [None]
    # K_n's ends, splittings and free columns (j, b), starting at K_1
    vws = [(A.tgt[b], A.src[b]) for b in arrows]
    lefts = [{(A.src[a], a): one} for a in arrows]
    rights = [{(A.tgt[b], b): one} for b in arrows]
    frees = [(A.tgt[b], b) for b in arrows]
    while vws:
        n = len(ends)
        sign = one if n % 2 == 0 else neg(one)
        ends.append(vws)
        terms.append(out := [])
        for col, ((v, w), left, right) in enumerate(zip(vws, lefts, rights)):
            out += [(j, col, (a, e[w]), c) for (j, a), c in left.items()]
            out += [(j, col, (e[v], b), mul(sign, c))
                    for (j, b), c in right.items()]
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
    return ends, terms


def _check_koszul(A: Algebra, ends, terms):
    """Raise ComplexError unless (ends, terms) (see _diagonal_terms) define
    a complex, with the checks and messages of ProjComplex over
    A (x) A^op, but with A's multiplication table only.

    Every term c p (x) q of a degree must lie in the slice of its
    summands, tgt p = v and src q = w for its column's (v, w) and
    (src p, tgt q) its row's pair, before the composites are taken: with
    a term c2 p2 (x) q2 of d^{-n+1} from its row into row h, it adds
    c c2 p p2 (x) q2 q to the composite, to the cells (h, s, t) of its
    column for s in p p2 and t in q2 q.  Once the slices pass, an
    idempotent factor is the unit of the other, so A's table is read only
    for two factors in the radical.  d^2 = 0 when every cell vanishes."""
    f = A.field
    add, mul, zero, product = f.add, f.mul, f.zero, A.product
    idempotent, src, tgt = A._idem_set, A.src, A.tgt
    for n in range(1, len(terms)):
        rows, cols = ends[n - 1], ends[n]
        at = [[] for _ in cols]   # the terms of d^{-n} by column
        for term in terms[n]:
            j, col, (p, q), c = term
            if not (0 <= j < len(rows) and 0 <= col < len(cols)):
                raise ComplexError(f"differential at degree {-n} has the "
                                   "wrong shape")
            if (tgt[p], src[q]) != cols[col] or (src[p], tgt[q]) != rows[j]:
                raise ComplexError("entry not in e_v L e_w slice at degree "
                                   f"{-n}")
            at[col].append(term)
        for column in at if n > 1 else ():
            cells = {}
            for i, _, (p, q), c in column:
                pe, qe = p in idempotent, q in idempotent
                for h, _, (p2, q2), c2 in prev[i]:
                    x = mul(c, c2)
                    s = p2 if pe else p if p2 in idempotent else None
                    t = q2 if qe else q if q2 in idempotent else None
                    if s is not None and t is not None:
                        cells[h, s, t] = add(cells.get((h, s, t), zero), x)
                    elif t is not None:
                        for s, u in product(p, p2).items():
                            cell = h, s, t
                            cells[cell] = add(cells.get(cell, zero), mul(x, u))
                    elif s is not None:
                        for t, u in product(q2, q).items():
                            cell = h, s, t
                            cells[cell] = add(cells.get(cell, zero), mul(x, u))
                    else:
                        for s, u in product(p, p2).items():
                            y = mul(x, u)
                            for t, u in product(q2, q).items():
                                cell = h, s, t
                                cells[cell] = add(cells.get(cell, zero),
                                                  mul(y, u))
            if any(cells.values()):
                raise ComplexError(f"d^2 != 0 at degree {-n}")
        prev = at


def _koszul_certificate(A: PathAlgebra, ends, terms) -> FieldComplex:
    """K (x)_A A_0, Priddy's certificate, as a complex of vector spaces
    written from K's terms (see _koszul_terms).  In degree -n each summand
    A e_v (x) e_w A of K_n becomes A e_v, laid out at its offset with A's
    paths starting at v, in index order, as its basis (_layout).  A term
    (row, col, (a, e_w), c) sends y in col's block to c y a in row's; a
    term whose right factor is an arrow acts on A_0 by it, so as zero.
    Right multiplication by an arrow is read off A's table once per call,
    in places: the terms (place y, place k, x) of each x b_k in y a."""
    f = A.field
    add, mul, product, idempotent = f.add, f.mul, A.product, A._idem_set
    place, offsets, blocks, sizes = _layout(
        A.src, [[v for v, _ in pairs] for pairs in ends])
    times, diffs = {}, {}   # times: arrow a -> the terms of y |-> y a
    for n in range(1, len(terms)):
        base, start = offsets[n - 1], offsets[n]
        cols = [{} for _ in range(sizes[n])]
        for row, s, (a, q), c in terms[n]:
            if q not in idempotent:
                continue
            images = times.get(a)
            if images is None:   # s's block: A e_v, v = tgt a (_check_koszul)
                images = times[a] = [(place[y], place[k], x)
                                     for y in blocks[n][s]
                                     for k, x in product(y, a).items()]
            top, first = base[row], start[s]
            for i, p, x in images:
                col, r, x = cols[first + i], top + p, mul(c, x)
                prev = col.get(r)
                if prev is not None:
                    x = add(x, prev)
                if x:
                    col[r] = x
                else:
                    del col[r]
        diffs[-n] = Matrix(f, sizes[n - 1], sizes[n], cols)
    return FieldComplex(f, {-n: size for n, size in enumerate(sizes)}, diffs)


def _one_sided(A: Algebra, ends, terms, side, u):
    """(terms, diffs) of a one-sided slice of K = (ends, terms) (see
    _koszul_terms).  side "left" gives K (x)_A S_u over A: the summands
    A e_v (x) e_w A with w = u, each becoming A e_v, and the terms
    a (x) e_w as entries a.  side "right" gives S_u (x)_A K over A^op: the
    summands with v = u, each becoming e_w A, and the terms e_v (x) b as
    entries b; a term whose other factor is an arrow acts on S_u as zero,
    and parallel arrows give several terms in one entry."""
    right, idempotent = side == "right", A._idem_set
    kept, vertices, diffs = [], {}, {}
    for n, pairs in enumerate(ends):
        keep = {}
        for s, (v, w) in enumerate(pairs):
            if (v if right else w) == u:
                keep[s] = len(keep)
                vertices.setdefault(-n, []).append(w if right else v)
        kept.append(keep)
    for n in range(1, len(terms)):
        rows, cols, d = kept[n - 1], kept[n], {}
        for j, s, (p, q), c in terms[n]:
            if s in cols and (p if right else q) in idempotent:
                d.setdefault((rows[j], cols[s]), {})[q if right else p] = c
        diffs[-n] = d
    return vertices, diffs


def koszul_resolution(A: PathAlgebra, n_max: int) -> ProjComplex:
    """Koszul bimodule resolution of a quadratic path algebra (Priddy): the
    subcomplex A (x)_E K_n (x)_E A of the relative bar resolution, in
    degree -n for n <= n_max, one summand per basis element of K_n, the
    kernel of K_{n-1} (x)_E V -> K_{n-2} (x)_E A_2 (see _koszul_terms).
    The inner faces of the bar differential vanish on K_n, so the
    differential is its two outer faces: a (x) e_w times the left
    splitting of an element into a (x) K_{n-1}, read off the free columns
    of K_{n-1}, and (-1)^n e_v (x) b times its right splitting.  It
    resolves A exactly when A is Koszul (certified_koszul).

    Every build is checked, in A: _check_koszul certifies the terms, and
    only then are the entries of A (x) A^op written (_env_entries), with
    check=False."""
    ends, terms = _koszul_terms(A, n_max)
    _check_koszul(A, ends, terms)
    return ProjComplex(A.enveloping(), *_env_entries(A, ends, terms),
                       check=False)


def _kept(A: Algebra, key, depth: int, build):
    """The value kept in A's cache under key, good through -depth: the
    cache holds (reach, value), and build(depth) gives the value through
    -depth and its reach, math.inf where it has ended, else depth.  A
    depth up to the reach is served from the cache, a deeper one builds
    again, and the caller cuts the value to the depth."""
    reach, value = A._cache.get(key, (-1, None))
    if depth > reach:
        value, reach = build(depth)
        A._cache[key] = reach, value
    return value


def certified_koszul(A: Algebra, depth: int):
    """A's Koszul resolution K as (ends, terms) through degree -depth (see
    _koszul_terms), if K is certified exact above -depth, else
    None: a resolution of A through -depth as projective_resolution gives
    one, its terms in degrees -depth..0, exact above -depth.

    K is built through -max(depth, 1) and checked (_check_koszul), and the
    homology of K (x)_A A_0, written from K's terms as a complex of
    vector spaces (_koszul_certificate) and ranked whole, is Priddy's
    certificate: where it is A_0 in degree 0 and zero elsewhere, K is
    exact, as the cone of K -> A is projective on the right and the left
    module A is an iterated extension of simples.  Homology above -depth
    means A is not Koszul.  No A (x) A^op and no ProjComplex is built.

    K is kept under "koszul" (_kept): its terms, plain ints and field
    elements, certified for every depth once complete or failed (None, as
    for an algebra that is not quadratic), else through the depth they
    were built to."""
    def build(depth):
        if not _is_quadratic(A):
            return None, math.inf
        n_max = max(depth, 1)
        ends, terms = _koszul_terms(A, n_max)
        _check_koszul(A, ends, terms)
        homology = _koszul_certificate(A, ends, terms).homology_dims()
        if {n: h for n, h in homology.items() if n > -n_max} != \
                {0: A.num_vertices}:
            return None, math.inf
        return (ends, terms), n_max if len(ends) > n_max else math.inf

    K = _kept(A, "koszul", depth, build)
    return None if K is None else (K[0][:depth + 1], K[1][:depth + 1])


def global_dimension(A: Algebra, cap: int):
    """Global dimension, or None if it exceeds cap.

    Where K is certified through -(cap + 1) (certified_koszul), each
    K (x)_A S_u, with arrows for entries, is the minimal resolution of S_u
    that far: the global dimension is K's length if K ends by -cap, and
    exceeds cap if K has a term at -(cap + 1).  On every other algebra it
    is the longest minimal resolution of a simple left module
    (simple_resolution through -(cap + 1)), read until one exceeds cap."""
    K = certified_koszul(A, cap + 1)
    if K is not None:
        length = len(K[0]) - 1
        return length if length <= cap else None
    worst = 0
    for v in range(A.num_vertices):
        length = -min(simple_resolution(A, v, "left", cap + 1).terms)
        if length > cap:
            return None
        worst = max(worst, length)
    return worst


def simple_resolution(A: Algebra, u: int, side: str, depth: int):
    """projective_resolution(S_u, depth) for the simple module at the
    vertex u, left over A or right over A^op (side), kept under
    ("simple", u, side) (_kept) and cut at -depth.

    Where K is certified through -depth (certified_koszul) it is K's
    slice K (x)_A S_u or S_u (x)_A K, selected from K's terms
    (_one_sided) with no enveloping algebra built and checked as a
    ProjComplex: it resolves S_u as far as K resolves A, as K's bimodules
    are projective on each side, and is minimal, as its entries are
    arrows.  Elsewhere projective_resolution builds it."""
    if side not in ("left", "right"):
        raise ValueError(f"slice side must be 'left' or 'right', got {side!r}")
    B = A.opposite() if side == "right" else A

    def build(depth):
        K = certified_koszul(A, depth)
        P = projective_resolution(simple_module(B, u), depth) if K is None \
            else ProjComplex(B, *_one_sided(A, *K, side, u), check=True)
        # a minimal resolution with no term at -depth has ended
        return P, depth if -depth in P.terms else math.inf

    P = _kept(A, ("simple", u, side), depth, build)
    return P if min(P.terms) >= -depth else ProjComplex(
        B, {n: t for n, t in P.terms.items() if n >= -depth}, P.diffs,
        check=False)


def diagonal_resolution(A: Algebra, n_max: int) -> ProjComplex:
    """A projective bimodule resolution of A through degree -n_max, as
    projective_resolution gives one: K through -n_max where
    certified_koszul certifies it that far (a complete K is whole from its
    length on), else the minimal bimodule resolution
    projective_resolution(regular_bimodule(A), n_max).  Its entries over
    A (x) A^op are written from the p (x) q terms of _diagonal_terms
    (_env_entries), which HH and the kernels' K_0 class read instead; no
    command writes them."""
    return ProjComplex(A.enveloping(),
                       *_env_entries(A, *_diagonal_terms(A, n_max)),
                       check=False)


def _finiteness_note(A: Algebra, n_max: int) -> str:
    gd = global_dimension(A, n_max)
    if gd is not None:
        return (f"global dimension {gd}: degrees above {gd} vanish "
                "(theorem-based extrapolation, not computed)")
    return ""


# ---------------------------------------------------------------------------
# Hochschild complexes, read from the resolution's p (x) q terms


def _diagonal_terms(A: Algebra, depth: int):
    """diagonal_resolution(A, depth) as (ends, terms): ends[n] lists the
    vertex pair (v, w) of each summand A e_v (x) e_w A of degree -n, and
    terms[n] (n >= 1) the terms (row, col, (p, q), c) of d^{-n}, each the
    part c p (x) q of the entry from summand col to summand row, p and q
    basis elements of A.  Where certified_koszul certifies K through
    -depth they are K as it keeps it; else they are the terms of the
    minimal resolution's entries, decoded once and kept under
    "diagonal_terms" (_kept), plain ints and field elements."""
    K = certified_koszul(A, depth)
    if K is not None:
        return K

    def build(depth):
        P = projective_resolution(regular_bimodule(A), depth)
        env = P.algebra
        ends = [[env.vertex_pair(code) for code in P.terms[-n]]
                for n in range(len(P.terms))]
        terms = [None] + [
            [(j, col, (p, q), c) for (j, col), x in P.diff(-n).items()
             for p, q, c in env.terms(x)]
            for n in range(1, len(ends))]
        return (ends, terms), depth if len(ends) > depth else math.inf

    ends, terms = _kept(A, "diagonal_terms", depth, build)
    return ends[:depth + 1], terms[:depth + 1]


def _env_entries(A: Algebra, ends, terms):
    """(terms, diffs) over A (x) A^op of the resolution (ends, terms) of
    _diagonal_terms: the summand at (v, w) becomes A (x) A^op's vertex
    (v, w), and the term (row, col, (p, q), c) the coefficient c of p (x) q
    in the entry (row, col) of d^{-n}.  No two terms of an entry share
    p (x) q (on K's route a and b are arrows), so each is written, not
    added."""
    env = A.enveloping()
    diffs = {}
    for n in range(1, len(ends)):
        d = diffs[-n] = {}
        for j, col, (p, q), c in terms[n]:
            d.setdefault((j, col), {})[env.pair_index(p, q)] = c
    return {-n: tuple(env.vertex(v, w) for v, w in pairs)
            for n, pairs in enumerate(ends)}, diffs


def _action(A: Algebra, M: ModuleRep):
    """split(j, (p, q)) = (column, k) with column(k, m) the vector p m q,
    for basis elements p, q of A and a position m of the A-bimodule M, in
    the degree j = 0 of complexes._hom's target, whose column it is.  M's
    grading is checked first: the idempotents of each position's declared
    vertex (v, w) must fix it, e_v on the left and e_w on the right on a
    Bimodule, e_v (x) e_w on a plain module over A (x) A^op, else
    ComplexError.  On a Bimodule, p m q is left_col(p, .) after
    right_col(q, m), an idempotent factor skipped: e_w acts on m as 1
    where w is m's right vertex, and the Hom assembler checks that the
    image of a term stays at the vertex of its summand, so that e_v acts
    on m q as 1.  A plain module acts through column(pair_index(p, q), m)."""
    env, f, e = M.algebra, A.field, A.idempotents
    bimodule = isinstance(M, Bimodule)
    pairs = {code: env.vertex_pair(code) for code in set(M.grading)}
    for m, code in enumerate(M.grading):
        (v, w), unit = pairs[code], {m: f.one}
        if bimodule:
            fixed = M.left_col(e[v], m) == unit == M.right_col(e[w], m)
        else:
            fixed = M.column(env.idempotents[code], m) == unit
        if not fixed:
            raise ComplexError(f"position {m} of the coefficients is not at "
                               "its declared vertex")
    if not bimodule:
        return lambda _, pq: (M.column, env.pair_index(*pq))
    left_col, right_col = M.left_col, M.right_col
    idempotent, images = set(e), {}

    def both(pq, m):   # memoized: one (p, q) recurs in many entries
        image = images.get((pq, m))
        if image is None:
            image = images[pq, m] = _image(f, left_col, pq[0],
                                           right_col(pq[1], m))
        return image

    def split(_, pq):
        p, q = pq
        if q in idempotent:
            return left_col, p
        return (right_col, q) if p in idempotent else (both, pq)
    return split


def _layout(keys, summands):
    """The positions m of a module graded by keys[m], laid out over the
    summands of each degree n, keyed by summands[n]: (place, offsets,
    blocks, sizes), place[m] m's place among the positions of its key,
    offsets[n][s] where summand s's block starts, blocks[n][s] its
    positions and sizes[n] the total."""
    by_key, place = {}, []
    for m, key in enumerate(keys):
        place.append(len(by_key.setdefault(key, [])))
        by_key[key].append(m)
    offsets, blocks, sizes = [], [], []
    for row in summands:
        blocks.append([by_key.get(key, ()) for key in row])
        offsets.append([0] * len(row))
        start = 0
        for s, block in enumerate(blocks[-1]):
            offsets[-1][s] = start
            start += len(block)
        sizes.append(start)
    return place, offsets, blocks, sizes


def _hom_complex(A: Algebra, M: ModuleRep, ends, terms) -> FieldComplex:
    """Hom_{A^e}(P, M) for the resolution P = (ends, terms) of
    _diagonal_terms, with M in degree 0, assembled by complexes._hom: the
    summand at (v, w) is A (x) A^op's vertex (v, w), and the key (p, q) of
    a term acts on a position m of M as p m q, read through _action,
    which checks M's grading first."""
    *_, dims, mats = _hom(
        A.field, {-n: [M.algebra.vertex(v, w) for v, w in pairs]
                  for n, pairs in enumerate(ends)},
        {-n: terms[n] for n in range(1, len(terms))},
        ({0: M.grading}, {}, _action(A, M)),
        "a term of the diagonal resolution moves a position of the "
        "coefficients off vertex {w}")
    return FieldComplex(A.field, dims, mats)


def _tensor_complex(A: Algebra, ends, terms) -> FieldComplex:
    """P (x)_{A^e} A for the resolution P = (ends, terms) of
    _diagonal_terms, in degrees -n: a summand at (v, w) contributes
    e_w A e_v, its basis in A's order, and a term (row, col, (p, q), c)
    sends m in col's block to c q m p in row's.  An idempotent factor is
    skipped, as it fixes m: P's entries lie in their slices."""
    f = A.field
    add, mul, product = f.add, f.mul, A.product
    idempotent = set(A.idempotents)
    place, offsets, blocks, sizes = _layout(zip(A.src, A.tgt), ends)
    diffs = {}
    for n in range(1, len(ends)):
        cols = [{} for _ in range(sizes[n])]
        for j, s, (p, q), c in terms[n]:
            base, start = offsets[n - 1][j], offsets[n][s]
            for m in blocks[n][s]:
                if q in idempotent:
                    image = product(m, p)
                elif p in idempotent:
                    image = product(q, m)
                else:
                    image = {}
                    for k, c1 in product(q, m).items():
                        axpy(f, image, product(k, p), c1)
                col = cols[start + place[m]]
                for k, x in image.items():
                    r, x = base + place[k], mul(c, x)
                    y = col.get(r)
                    if y is not None:
                        x = add(x, y)
                    if x:
                        col[r] = x
                    else:
                        del col[r]
        diffs[-n] = Matrix(f, sizes[n - 1], sizes[n], cols)
    return FieldComplex(f, {-n: size for n, size in enumerate(sizes)}, diffs)


def hh_with_coefficients(A: Algebra, M: ModuleRep, n_max: int) -> HHProfile:
    """Ext_{A-bimod}(A, M) in degrees 0..n_max: the cohomology of
    Hom_{A^e}(P, M) for P = diagonal_resolution(A, n_max + 1), assembled
    from P's p (x) q terms (_diagonal_terms, _hom_complex), on K's route
    the terms K is kept as."""
    if M.algebra is not A.enveloping():
        raise SideMismatch("coefficients must be a bimodule over the algebra")
    prof = _hom_complex(A, M, *_diagonal_terms(A, n_max + 1)).homology_dims()
    return HHProfile.from_dict(prof, A.field, n_max)


def hh_cohomology(A: Algebra, n_max: int) -> HHProfile:
    # the resolution first: the note then reads the K it certified
    prof = hh_with_coefficients(A, regular_bimodule(A), n_max)
    return replace(prof, note=_finiteness_note(A, n_max))


def homology_via_serre_dual(A: Algebra, n_max: int) -> HHProfile:
    """Ext_{A-bimod}(A, DA): the maps-into-the-Serre-kernel route to
    Hochschild homology (dimensions only)."""
    return hh_with_coefficients(A, dual_bimodule(A), n_max)


def hh_homology(A: Algebra, n_max: int) -> HHProfile:
    """Hochschild homology Tor^{A^e}(A, A): the homology of P (x)_{A^e} A
    for P = diagonal_resolution(A, n_max + 1), assembled from P's
    p (x) q terms (_diagonal_terms, _tensor_complex), on K's route the
    terms K is kept as."""
    homology = _tensor_complex(A, *_diagonal_terms(A, n_max + 1)) \
        .homology_dims()
    return HHProfile.from_dict({-n: h for n, h in homology.items()}, A.field,
                               n_max, _finiteness_note(A, n_max))
