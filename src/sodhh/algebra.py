"""Finite-dimensional basic algebras presented by quivers with relations.

Composition is function-style throughout: a path from u to v is an element
of e_v * A * e_u, and p*q means "q then p".  Stored path descriptors list
arrows in traversal order (first-traversed first), so the concatenation
underlying p*q is q's arrows followed by p's arrows.

`build_path_algebra` computes the quotient by right extension, one path
length at a time, by plain linear algebra; relations must be homogeneous
in path length (all catalog relations are).  The ideal I in length L is
then I_{L-1} V + sum_m kQ_{L-m} R_m, concatenating in traversal order,
for V the arrows and R_m the relations of length m.  So A_L is spanned by
the residue words of length L-1 each followed by one arrow, modulo the
x r for residue words x.  The reduction pivots on the lexicographically
largest word, which within one length is a monomial order, so the residue
words are the normal words of the deg-lex order (G. Bergman, The diamond
lemma for ring theory, Adv. Math. 29 (1978)): the words that lead no
element of I.  Every prefix of a normal word is normal, so extending the
residue words of length L-1 reaches all of them, and every normal form is
the one modulo all of I.  The quotient is graded by length, so rad^N is
spanned by the words of length >= N: the build records the radical's
nilpotency index, 1 + the longest residue word, and the vertex grading,
where a word starts and ends, so neither is computed from the table.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from typing import NamedTuple

from .linalg import ColumnEchelon, FieldSpec, Matrix, SubspaceReducer, axpy


class NonAdmissible(ValueError):
    """A relation violates admissibility (path length < 2, mixed lengths, ...)."""


class NotFiniteDimensional(ValueError):
    """A residue word longer than the length cap 2 |arrows| + 2 survived.
    The cap ends the construction; it does not prove the algebra infinite."""


class AlgebraAxiomError(ValueError):
    """A multiplication table that is not unital or not associative."""


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Quiver(NamedTuple):
    vertices: tuple
    arrows: tuple

    @staticmethod
    def make(vertices, arrows):
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertex names")
        ars = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
        names = [a.name for a in ars]
        if len(set(names)) != len(names) or set(names) & set(vs):
            raise ValueError("arrow names must be unique and distinct from vertices")
        for a in ars:
            if a.source not in vs or a.target not in vs:
                raise ValueError(f"arrow {a.name} references undeclared vertex")
        return Quiver(vs, ars)


class Relation(NamedTuple):
    """Sum of (coefficient, path) terms; paths are arrow-name tuples in
    traversal order and must be parallel (shared source and target)."""
    terms: tuple


def _lines(m, axis):
    """Entries of a sparse {(row, col): x} map grouped by column (axis 1)
    or by row (axis 0): {column: [(row, x), ...]} or {row: [(column, x),
    ...]}.  On a multiplication table, axis 0 groups the products by their
    left factor and axis 1 by their right factor."""
    out = {}
    for rc, x in m.items():
        out.setdefault(rc[axis], []).append((rc[1 - axis], x))
    return out


class Algebra:
    """Finite-dimensional basic algebra with a vertex-graded basis.

    Basis element 0..dim-1; the first elements are not required to be the
    idempotents, but `idempotents[v]` gives the basis index of e_v and every
    non-idempotent basis element lies in the radical and in a single slice
    e_{vertex tgt} A e_{vertex src}.

    The multiplication table `mult` is the dict {(i, j): b_i * b_j} of the
    nonzero products only, each a sparse vector {k: nonzero scalar}; an
    absent key is a zero product.  Readers that need every pair read one
    product at a time with `product(i, j)`; readers that need the products
    of one factor group the stored ones with `_lines`.  On B (x) C^op the
    table is a read-only view computed from the factors (`_TensorTable`).
    """

    def __init__(self, field: FieldSpec, labels, mult, idempotents, vertex_names,
                 grading=None):
        self.field = field
        self.labels = labels if isinstance(labels, _OuterSum) else tuple(labels)
        self.dim = len(self.labels)
        self.mult = mult  # {(i, j): b_i * b_j} for the nonzero products
        self.idempotents = tuple(idempotents)
        self.vertex_names = tuple(vertex_names)
        self._idem_set = frozenset(self.idempotents)
        if grading is not None:
            self.src, self.tgt = grading
        else:
            self.src = [None] * self.dim  # vertex position v with  b * e_v = b
            self.tgt = [None] * self.dim  # vertex position v with  e_v * b = b
            for k in range(self.dim):
                fixed = {k: field.one}
                for v, e in enumerate(self.idempotents):
                    if mult.get((k, e)) == fixed:
                        self.src[k] = v
                    if mult.get((e, k)) == fixed:
                        self.tgt[k] = v
                if self.src[k] is None or self.tgt[k] is None:
                    raise ValueError(
                        f"basis element {self.labels[k]} is not vertex-graded")
            self.src = tuple(self.src)
            self.tgt = tuple(self.tgt)
        self._cache = {}

    # -- structure ----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.idempotents)

    def radical_indices(self):
        return [k for k in range(self.dim) if k not in self._idem_set]

    def slice_indices(self, v, w):
        """Basis of e_v A e_w (paths from w to v), as basis indices."""
        return [k for k in range(self.dim) if self.tgt[k] == v and self.src[k] == w]

    def column_indices(self, v):
        """Basis of A e_v (the indecomposable projective left module at v)."""
        return [k for k in range(self.dim) if self.src[k] == v]

    def unit(self):
        one = self.field.one
        return {e: one for e in self.idempotents}

    def idem(self, v):
        return {self.idempotents[v]: self.field.one}

    # -- arithmetic on sparse element vectors -------------------------------

    def product(self, i, j) -> dict:
        """b_i * b_j as a sparse vector, {} when it is zero."""
        return self.mult.get((i, j), {})

    def multiply(self, x: dict, y: dict) -> dict:
        f = self.field
        product = self.product
        out: dict = {}
        for i, xi in x.items():
            for j, yj in y.items():
                cell = product(i, j)
                if cell:
                    axpy(f, out, cell, f.mul(xi, yj))
        return out

    def add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        axpy(self.field, out, y, self.field.one)
        return out

    def scale(self, x: dict, c) -> dict:
        f = self.field
        c = f.coerce(c)
        if not c:
            return {}
        return {k: f.mul(v, c) for k, v in x.items()}

    def scalar_part(self, x: dict, v: int):
        """Coefficient of e_v in x."""
        return x.get(self.idempotents[v], self.field.zero)

    def local_inverse(self, x: dict, v: int) -> dict:
        """Inverse of a unit x in the local algebra e_v A e_v."""
        f = self.field
        c = self.scalar_part(x, v)
        if not c:
            raise ZeroDivisionError("not a unit in the local algebra")
        cinv = f.inv(c)
        e = self.idem(v)
        r = self.add(self.scale(x, cinv), self.scale(e, f.neg(f.one)))  # nilpotent
        out, term = dict(e), dict(e)
        while True:
            term = self.multiply(self.scale(r, -1), term)
            if not term:
                break
            out = self.add(out, term)
        return self.scale(out, cinv)

    # -- verification -------------------------------------------------------

    def check_axioms(self):
        """Associativity on all basis triples and two-sided unit; raises
        AlgebraAxiomError naming the failing basis labels."""
        one = self.unit()
        for i in range(self.dim):
            bi = {i: self.field.one}
            if self.multiply(one, bi) != bi or self.multiply(bi, one) != bi:
                raise AlgebraAxiomError(
                    f"unit does not act as the identity on {self.labels[i]}")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.product(i, j)
                for k in range(self.dim):
                    left = self.multiply(ij, {k: self.field.one})
                    right = self.multiply({i: self.field.one}, self.product(j, k))
                    if left != right:
                        raise AlgebraAxiomError(
                            "multiplication is not associative on "
                            f"{self.labels[i]}, {self.labels[j]}, "
                            f"{self.labels[k]}")

    def radical_nilpotency_index(self):
        """Least N with rad^N = 0: recorded by build_path_algebra, found by
        multiplying out the powers of the radical for any other algebra."""
        n = self._cache.get("radical_nilpotency_index")
        if n is not None:
            return n
        f = self.field
        by_left = _lines(self.mult, 0)
        current = [{k: f.one} for k in self.radical_indices()]
        n = 1
        while current:
            if n > self.dim + 1:
                raise AlgebraAxiomError("radical is not nilpotent")
            nxt = []
            red = SubspaceReducer(f, self.dim)
            for x in current:   # over the radical b_k with some x_i b_k != 0
                for k in sorted({k for i in x for k, _ in by_left.get(i, ())
                                 if k not in self._idem_set}):
                    p = self.multiply(x, {k: f.one})
                    if p and red.add(p):
                        nxt.append(p)
            current = nxt
            n += 1
        return n

    # -- derived algebras (cached) -------------------------------------------

    def _derived(self, key, build):
        """The algebra that build() makes, kept in the cache under key by a
        weak reference: it refers back to self, so a strong one would make
        a cycle that only the cyclic collector frees.  It is rebuilt only
        after everything holding it has let it go."""
        ref = self._cache.get(key)
        alg = ref() if ref is not None else None
        if alg is None:
            alg = build()
            self._cache[key] = weakref.ref(alg)
        return alg

    def opposite(self) -> "Algebra":
        """A^op; it holds A (as its own opposite) and A holds it weakly."""
        if "op_of" in self._cache:
            return self._cache["op_of"]

        def build():
            mult = {(j, i): x for (i, j), x in self.mult.items()}
            # b e_v = b in A^op exactly when e_v b = b in A; kept as tuples,
            # like a grading derived from the table
            op = Algebra(self.field, self.labels, mult, self.idempotents,
                         self.vertex_names,
                         grading=(tuple(self.tgt), tuple(self.src)))
            op._cache["op_of"] = self
            return op
        return self._derived("op", build)

    def enveloping(self) -> "Algebra":
        """A (x) A^op; left modules over it are (A,A)-bimodules via
        (a (x) b) . m = a m b.  It holds A as its factors and A holds it
        weakly."""
        return self._derived("env", lambda: tensor_opposite(self, self))


class _OuterSum:
    """The read-only sequence of first[i] + second[j] at k = i *
    len(second) + j, for the basis of B (x) C^op: it stores only its two
    factors, not its len(first) * len(second) entries.  Indexing follows
    tuples (negative indices count from the end, IndexError past either
    end), without slices; iteration runs through the indices."""

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def __len__(self):
        return len(self.first) * len(self.second)

    def __getitem__(self, k):
        # floor division makes -len <= k < 0 count from the end, and an
        # index past either end fails on first[i]
        second = self.second
        try:
            i, j = divmod(k, len(second))
        except ZeroDivisionError:
            raise IndexError("index into an empty sequence") from None
        return self.first[i] + second[j]


class _TensorTable(Mapping):
    """The read-only table {(i, j): b_i * b_j} of the nonzero products of
    B (x) C^op, computed from the tables of B and C, the only things it
    stores: (b_i1 (x) c_i2)(b_j1 (x) c_j2) = b_i1 b_j1 (x) c_j2 c_i2 is
    nonzero exactly when both factor products are."""

    __slots__ = ("factors",)

    def __init__(self, b, c):
        self.factors = (b, c)

    def cell(self, i, j) -> dict:
        """b_i * b_j, {} when it is zero; C's product is not taken then."""
        (b, c), n = self.factors, self.factors[1].dim
        (i1, i2), (j1, j2) = divmod(i, n), divmod(j, n)
        left, mul = b.product(i1, j1), b.field.mul
        return {a * n + d: mul(va, vd) for a, va in left.items()
                for d, vd in c.product(j2, i2).items()} if left else {}

    def __getitem__(self, key):
        cell = self.cell(*key)
        if not cell:
            raise KeyError(key)
        return cell

    def __iter__(self):
        (b, c), n = self.factors, self.factors[1].dim
        return ((i1 * n + i2, j1 * n + j2) for i1, j1 in b.mult
                for j2, i2 in c.mult)

    def __len__(self):
        return len(self.factors[0].mult) * len(self.factors[1].mult)


class TensorOpposite(Algebra):
    """The algebra B (x) C^op; its left modules are (B,C)-bimodules.

    The basis element b_i (x) c_j has index i * dim C + j and the vertex
    (v, w) has position v * |C_0| + w.  The methods below, `_TensorTable`
    and the sequences built in __init__ are the only place these encodings
    are written down.  Nothing of size dim B * dim C is stored up front:
    `labels`, `src` and `tgt` compute entry k from b_i and c_j
    (`_OuterSum`), `mult` is the `_TensorTable` view of the factors'
    tables, and `product` keeps each product it computes, zero ones as {},
    in a private memo."""

    def __init__(self, b: Algebra, c: Algebra):
        if b.field != c.field:
            raise ValueError("field mismatch")
        self.factors = (b, c)
        labels = _OuterSum(tuple(f"{bl}(x)" for bl in b.labels), c.labels)
        idems = [self.pair_index(e, e2)
                 for e in b.idempotents for e2 in c.idempotents]
        vnames = [f"({v},{w})" for v in b.vertex_names for w in c.vertex_names]
        # basis (p, q) is graded by (src_b(p), tgt_c(q)) -> (tgt_b(p), src_c(q));
        # of vertex(v, w) = v * |C_0| + w, the term v * |C_0| is kept per p
        nv = c.num_vertices
        src = _OuterSum(tuple(v * nv for v in b.src), c.tgt)
        tgt = _OuterSum(tuple(v * nv for v in b.tgt), c.src)
        super().__init__(b.field, labels, _TensorTable(b, c), idems, vnames,
                         grading=(src, tgt))
        self._products = {}

    def column_indices(self, v):
        """Basis of (B (x) C^op) e_v for v = (v1, v2): the b_p (x) c_q with
        b_p in B e_v1 and c_q in e_v2 C, in ascending index order."""
        b, c = self.factors
        v1, v2 = self.vertex_pair(v)
        qs = [q for q in range(c.dim) if c.tgt[q] == v2]
        return [p * c.dim + q for p in b.column_indices(v1) for q in qs]

    def slice_indices(self, v, w):
        """Basis of e_v (B (x) C^op) e_w for v = (v1, v2), w = (w1, w2):
        the b_p (x) c_q with b_p in e_v1 B e_w1 and c_q in e_w2 C e_v2, in
        ascending index order."""
        b, c = self.factors
        (v1, v2), (w1, w2) = self.vertex_pair(v), self.vertex_pair(w)
        qs = c.slice_indices(w2, v2)
        return [p * c.dim + q for p in b.slice_indices(v1, w1) for q in qs]

    def product(self, i, j) -> dict:
        """b_i * b_j (see _TensorTable), computed once."""
        cell = self._products.get((i, j))
        if cell is None:
            cell = self._products[i, j] = self.mult.cell(i, j)
        return cell

    def radical_nilpotency_index(self):
        """N_B + N_C - 1, as rad^n = sum_{p+q=n} rad^p B (x) rad^q C^op."""
        b, c = self.factors
        return b.radical_nilpotency_index() + c.radical_nilpotency_index() - 1

    def pair_index(self, i, j):
        """Basis index of b_i (x) c_j."""
        return i * self.factors[1].dim + j

    def index_pair(self, k):
        """(i, j) with basis element k equal to b_i (x) c_j."""
        return divmod(k, self.factors[1].dim)

    def terms(self, x: dict):
        """An element as a list of (i, j, coefficient of b_i (x) c_j)."""
        return [(*self.index_pair(k), v) for k, v in x.items()]

    def vertex(self, v, w):
        """Position of the vertex (v, w), the idempotent e_v (x) e_w."""
        return v * self.factors[1].num_vertices + w

    def vertex_pair(self, code):
        """(v, w) with vertex position `code` equal to (v, w)."""
        return divmod(code, self.factors[1].num_vertices)


def tensor_opposite(b: Algebra, c: Algebra) -> TensorOpposite:
    """The algebra B (x) C^op; left modules over it are (B,C)-bimodules,
    stored as modules.Bimodule action pairs."""
    return TensorOpposite(b, c)


class PathAlgebra(Algebra):
    """Algebra presented by a quiver with admissible relations; the basis
    consists of the vertex idempotents and a set of residue paths."""

    def __init__(self, field, labels, mult, idempotents, vertex_names,
                 quiver, relations, basis_paths, grading=None):
        super().__init__(field, labels, mult, idempotents, vertex_names,
                         grading)
        self.quiver = quiver
        self.relations = tuple(relations)
        self.basis_paths = tuple(basis_paths)  # per basis index: None or arrow-name tuple

    def arrow_element(self, name) -> dict:
        for k, p in enumerate(self.basis_paths):
            if p == (name,):
                return {k: self.field.one}
        # arrows are never reducible modulo an admissible ideal
        raise KeyError(name)


def _path_label(arrow_names) -> str:
    return "*".join(arrow_names)


def validate_relation(quiver: Quiver, rel: Relation, index=None):
    where = f"relation {index}" if index is not None else "relation"
    arrows = {a.name: a for a in quiver.arrows}
    endpoints = None
    lengths = set()
    if not rel.terms:
        raise NonAdmissible(f"{where}: empty relation")
    for coeff, path in rel.terms:
        if len(path) < 2:
            raise NonAdmissible(f"{where}: path {path} has length < 2")
        lengths.add(len(path))
        for a, b in zip(path, path[1:]):
            if a not in arrows or b not in arrows:
                raise NonAdmissible(f"{where}: unknown arrow in {path}")
            if arrows[a].target != arrows[b].source:
                raise NonAdmissible(f"{where}: path {path} is not composable")
        ep = (arrows[path[0]].source, arrows[path[-1]].target)
        if endpoints is None:
            endpoints = ep
        elif endpoints != ep:
            raise NonAdmissible(f"{where}: terms are not parallel paths")
    if len(lengths) != 1:
        raise NonAdmissible(f"{where}: terms must share one path length "
                            "(length-homogeneous presentations only)")


def build_path_algebra(quiver: Quiver, relations, field: FieldSpec) -> PathAlgebra:
    """Quotient of the path algebra kQ by the ideal the relations generate.

    The basis is built by right extension (see the module docstring).  At
    length L the columns are the pairs (w, a) of a residue word w of
    length L-1 and an arrow a leaving its end, in lexicographic order.
    One SubspaceReducer takes the x r for residue words x and relations r
    of total length L, each term written straight into its columns: x
    followed by the term's first arrow is read off that arrow map, and the
    other arrows but the last are followed through the arrow maps of
    shorter lengths.  The arrow map w -> w a of column (w, a) is its
    normal form.  A column that is not a pivot is a residue word of length
    L, so its arrow map is the unit vector of that word, set when the word
    is appended; only the pivot columns take a normal form.  The product
    "q then p" applies p's arrows to q through the same maps.  A single
    basis element with coefficient one, such as a product that is one
    word, extends by an arrow to a copy of its arrow map, so no two
    products in the table are one dict.  Raises NotFiniteDimensional when
    a residue word longer than 2 |arrows| + 2 survives.
    """
    quiver = Quiver.make(quiver.vertices, quiver.arrows)
    for idx, rel in enumerate(relations):
        validate_relation(quiver, rel, idx)
    cap = 2 * len(quiver.arrows) + 2
    one, add, mul = field.one, field.add, field.mul
    arrows = quiver.arrows
    arrow_ix = {a.name: i for i, a in enumerate(arrows)}
    vpos = {v: i for i, v in enumerate(quiver.vertices)}
    nv = len(vpos)
    leaving = [[] for _ in range(nv)]  # arrow indices by source vertex
    for i, a in enumerate(arrows):
        leaving[vpos[a.source]].append(i)
    rels = []  # (length, source vertex, [(coefficient, arrow indices)])
    for rel in relations:
        vec = [(field.coerce(c), tuple(arrow_ix[n] for n in pth)) for c, pth in rel.terms]
        if any(c for c, _ in vec):
            rels.append((len(vec[0][1]), vpos[arrows[vec[0][1][0]].source], vec))

    # per basis index, idempotents first and then residue words by length:
    # the path as arrow indices, its end vertex and the basis index of the
    # path without its last arrow (the idempotent e_source for an arrow);
    # the arrow maps {(k, a): normal form of "b_k then a"}
    paths = [()] * nv + [(i,) for i in range(len(arrows))]
    tgt = list(range(nv)) + [vpos[a.target] for a in arrows]
    prefix = [None] * nv + [vpos[a.source] for a in arrows]
    amap = {(vpos[a.source], i): {nv + i: one} for i, a in enumerate(arrows)}
    levels = [list(range(nv)), list(range(nv, len(paths)))]  # by length

    def follow(vec, a):
        """vec then arrow a, as a new dict."""
        if len(vec) == 1:
            (k, c), = vec.items()
            if c == one:   # b_k alone extends to a copy of its map
                return dict(amap[k, a])
        out = {}
        for k, c in vec.items():
            axpy(field, out, amap[k, a], c)
        return out

    while levels[-1]:
        length = len(levels)
        cols = [(k, a) for k in levels[-1] for a in leaving[tgt[k]]]
        col_of = {ka: n for n, ka in enumerate(cols)}
        gens = []
        for m, start, rvec in rels:
            for x in levels[length - m] if m <= length else ():
                if tgt[x] == start:
                    g = {}   # x r, written term by term into its columns
                    for c, t in rvec:
                        xt = amap[x, t[0]]
                        for a in t[1:-1]:
                            xt = follow(xt, a)
                        for k, y in xt.items():
                            n = col_of[k, t[-1]]
                            s = add(g.get(n, 0), mul(c, y))
                            if s:
                                g[n] = s
                            elif n in g:
                                del g[n]
                    gens.append(g)
        reducer = SubspaceReducer(field, len(cols), gens)
        pos = {}
        for n, (k, a) in enumerate(cols):
            if n in reducer.cols:
                # a pivot: its normal form lies on the residue columns before it
                amap[k, a] = {pos[r]: v for r, v in
                              reducer.normal_form({n: one}).items()}
            else:
                pos[n] = len(paths)
                amap[k, a] = {pos[n]: one}
                paths.append(paths[k] + (a,))
                tgt.append(vpos[arrows[a].target])
                prefix.append(k)
        levels.append(list(pos.values()))
        if pos and length > cap:
            raise NotFiniteDimensional(
                f"length cap {cap} reached: a residue word of length "
                f"{length} survives")

    basis_paths = [None] * nv + [tuple(arrows[a].name for a in p) for p in paths[nv:]]
    labels = [f"e({v})" for v in quiver.vertices] + [
        _path_label(p) for p in basis_paths[nv:]]
    ending_at = [[] for _ in range(nv)]  # non-idempotent basis indices by target
    for i in range(nv, len(paths)):
        ending_at[tgt[i]].append(i)

    # a path starts where its first arrow does
    src = list(range(nv)) + [vpos[arrows[p[0]].source] for p in paths[nv:]]
    # row-major over the composable pairs only; b_i b_j is "b_j then b_i",
    # so it needs b_j to end where b_i starts, and it is "b_j then
    # b_prefix[i]", a product of an earlier row, followed by b_i's last arrow
    mult = {}
    for v in range(nv):
        mult[(v, v)] = {v: one}
        for j in ending_at[v]:
            mult[(v, j)] = {j: one}
    for i in range(nv, len(paths)):
        start, a = src[i], paths[i][-1]
        mult[(i, start)] = {i: one}
        for j in ending_at[start]:
            x = mult.get((prefix[i], j))
            if x is not None:
                pq = follow(x, a)
                if pq:
                    mult[(i, j)] = pq
    alg = PathAlgebra(field, labels, mult, list(range(nv)), quiver.vertices,
                      quiver, relations, basis_paths, (tuple(src), tuple(tgt)))
    # graded by length, so rad^N is spanned by the words of length >= N
    alg._cache["radical_nilpotency_index"] = len(levels) - 1  # 1 + longest
    return alg


def _radical_generators(alg):
    """Basis elements g with rad = sum_g g L = sum_g L g, so that rad . X is
    spanned by the g . x for every submodule X of a free module, and a
    graded subspace that every g maps into itself is a submodule: the
    arrows of a path algebra (a path is an arrow times a path, and a path
    times an arrow); over B (x) C^op the g (x) e_w and e_v (x) h for such
    generators g of B and h of C; the whole radical basis otherwise."""
    if isinstance(alg, TensorOpposite):
        b, c = alg.factors
        return ([alg.pair_index(g, e) for g in _radical_generators(b)
                 for e in c.idempotents]
                + [alg.pair_index(e, h) for e in b.idempotents
                   for h in _radical_generators(c)])
    if isinstance(alg, PathAlgebra):
        return [k for k, p in enumerate(alg.basis_paths) if p and len(p) == 1]
    return alg.radical_indices()


def center(a: Algebra):
    """(dimension, basis vectors) of the center {z : zx = xz for all x}.
    z commutes with the e_v exactly when it lies in the sum of the e_v A
    e_v, and then it is central exactly when it commutes with the radical
    generators, which generate A with the e_v.  Each column is written in
    place from the products b_d g_r and g_r b_d, whose rows r * dim + k
    no other generator shares, and its zeros are dropped once."""
    f = a.field
    sub, zero, product, dim = f.sub, f.zero, a.product, a.dim
    diag = [k for k in range(dim) if a.src[k] == a.tgt[k]]
    gens = _radical_generators(a)
    # row r * dim + k, column n: the b_k coefficient of b_d g_r - g_r b_d, d = diag[n]
    cols = []
    for d in diag:
        col = {}
        for r, g in enumerate(gens):
            base = r * dim
            for k, v in product(d, g).items():
                col[base + k] = v
            for k, v in product(g, d).items():
                col[base + k] = sub(col.get(base + k, zero), v)
        cols.append({i: c for i, c in col.items() if c})
    kernel = ColumnEchelon(Matrix(f, len(gens) * a.dim, len(diag), cols)).kernel_basis()
    basis = [{diag[n]: c for n, c in z.items()} for z in kernel]
    return len(basis), basis


def algebra_from_structure(field, vertex_names, labels, mult, idempotents,
                           arrow_name_prefix="a") -> PathAlgebra:
    """Re-present a concrete basic algebra as a quiver with relations.

    The input basis must be vertex-graded with every non-idempotent basis
    element in the radical.  Arrows are a slice-wise complement of rad^2 in
    rad; the path basis is chosen greedily by evaluation, and relations are
    recovered per length as kernel generators of the evaluation map.
    """
    raw = Algebra(field, labels, mult, idempotents, vertex_names)
    f = field
    rad = raw.radical_indices()
    radsq = SubspaceReducer(f, raw.dim)
    for (i, j), p in raw.mult.items():
        if i not in raw._idem_set and j not in raw._idem_set:
            radsq.add(p)
    # arrows: slice-wise complement of rad^2 inside rad
    arrow_vecs = []
    arrow_meta = []  # (source vertex pos, target vertex pos)
    for v in range(raw.num_vertices):
        for w in range(raw.num_vertices):
            sl = [k for k in rad if raw.tgt[k] == w and raw.src[k] == v]
            base = SubspaceReducer(f, raw.dim)
            for col in radsq.cols.values():
                if all(raw.tgt[k] == w and raw.src[k] == v for k in col):
                    base.add(col)
            for k in sl:
                vec = {k: f.one}
                if base.add(vec):
                    arrow_vecs.append(vec)
                    arrow_meta.append((v, w))
    arrows = [Arrow(f"{arrow_name_prefix}{n}", vertex_names[sv], vertex_names[tv])
              for n, (sv, tv) in enumerate(arrow_meta)]
    quiver = Quiver.make(vertex_names, arrows)

    # greedy path basis by evaluation
    span = SubspaceReducer(f, raw.dim)
    for e in raw.idempotents:
        span.add({e: f.one})
    basis_paths = []   # (arrow index tuple, evaluation vector)
    alive = [((i,), arrow_vecs[i]) for i in range(len(arrows))]
    kernels = {}       # length -> kernel combos over that length's enumerated paths
    enumerated = {1: [p for p, _ in alive]}
    length = 1
    relations = []
    while alive:
        for p, vec in alive:
            if span.add(vec):
                basis_paths.append((p, vec))
        if length + 1 > raw.dim + 1:
            break
        nxt = []
        for p, vec in alive:
            tv = arrow_meta[p[-1]][1]
            for i in range(len(arrows)):
                if arrow_meta[i][0] == tv:
                    prod = raw.multiply(arrow_vecs[i], vec)  # extend traversal at the end
                    nxt.append((p + (i,), prod))
        length += 1
        enumerated[length] = [p for p, _ in nxt]
        # kernel of evaluation on this stratum
        cols = {n: vec for n, (p, vec) in enumerate(nxt)}
        m = Matrix(f, raw.dim, len(nxt), [cols.get(n, {}) for n in range(len(nxt))])
        ech = ColumnEchelon(m)
        kernels[length] = ech.kernel_basis()
        # consequences of shorter kernels, projected to the enumerated stratum
        index = {p: n for n, p in enumerate(enumerated[length])}
        conseq = SubspaceReducer(f, len(nxt))
        for k in kernels.get(length - 1, []):
            for i in range(len(arrows)):
                for side in ("post", "pre"):
                    vec2 = {}
                    for n, c in k.items():
                        base = enumerated[length - 1][n]
                        q = base + (i,) if side == "post" else (i,) + base
                        pos = index.get(q)
                        if pos is not None:
                            vec2[pos] = f.add(vec2.get(pos, f.zero), c)
                    if vec2:
                        conseq.add(vec2)
        for k in kernels[length]:
            if conseq.add(k):
                terms = tuple(
                    (c, tuple(arrows[i].name for i in enumerated[length][n]))
                    for n, c in sorted(k.items()))
                relations.append(Relation(terms))
        alive = [(p, vec) for (p, vec) in nxt if vec]

    # new basis: idempotents then chosen paths (already in length order)
    new_labels = [f"e({v})" for v in vertex_names]
    new_idems = list(range(len(vertex_names)))
    new_paths = [None] * len(vertex_names)
    cob_cols = [{e: f.one} for e in raw.idempotents]
    for p, vec in basis_paths:
        new_labels.append(_path_label(tuple(arrows[i].name for i in p)))
        new_paths.append(tuple(arrows[i].name for i in p))
        cob_cols.append(vec)
    if len(cob_cols) != raw.dim:
        raise AlgebraAxiomError(
            f"graded basis did not span: found {len(cob_cols)} of "
            f"{raw.dim} basis elements")
    cob_echelon = ColumnEchelon(Matrix(f, raw.dim, raw.dim, cob_cols))

    # the new basis is graded like the raw one: b_i b_j needs src(i) = tgt(j)
    ending_at = _lines({(raw.tgt[min(x)], j): x for j, x in enumerate(cob_cols)}, 0)
    new_mult = {}
    for i, xi in enumerate(cob_cols):
        for j, xj in ending_at.get(raw.src[min(xi)], ()):
            prod = raw.multiply(xi, xj)
            if prod:
                x = cob_echelon.solve(prod)
                if x is None:
                    raise AlgebraAxiomError(
                        f"the product of {new_labels[i]} and {new_labels[j]} "
                        "has no coordinates in the graded basis")
                new_mult[(i, j)] = x
    return PathAlgebra(f, new_labels, new_mult, new_idems, vertex_names,
                       quiver, relations, new_paths)
