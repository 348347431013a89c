"""Bounded complexes of projective modules and bimodules.

Grading is cohomological with differentials of degree +1; homological
objects live in negative degrees.  A ProjComplex over an algebra L has
terms that are finite direct sums of the indecomposable projectives L e_v;
bimodule complexes are ProjComplexes over the enveloping algebra A (x)
A^op, whose indecomposable projectives are the A e_v (x) e_w A.

A differential or chain-map component is a sparse matrix of algebra
elements: the dict {(row, col): x} of its nonzero entries, rows indexing
the target summands and columns the source summands.  Its shape comes
from the terms; an absent key is zero, and so is an absent degree.  The
entry from a summand L e_v to a summand L e_w is an element x of
e_v L e_w acting by right multiplication y |-> y x.  Composites therefore
multiply left-to-right: "first a, then c" is the element a*c.

Every Hom complex, from a complex of projectives into a complex of
modules read by vertex blocks (_as_modules), is assembled by _hom: for
one-sided Ext and the kernels by ModuleHomComplex, for HH^* in hochschild.

The resolutions built here are the relative bar resolution (a test
oracle) and the minimal projective resolutions of modules.  The Koszul
bimodule resolution lives in hochschild, beside its certificate, and is
built and checked in A as its p (x) q terms, sliced from them
one-sidedly, and written over A (x) A^op only where a bimodule
resolution is asked for.

Sign conventions used throughout:
  shift       (X[s])^n = X^{n+s},  d_{X[s]} = (-1)^s d_X
  cone(f)     C^n = Y^n (+) X^{n+1},  d(y, x) = (d_Y y + f x, -d_X x)
  Hom         (d phi)_n = d_Y . phi - (-1)^n phi . d_X, applied only
              in _hom
  tensor      d(x (x) y) = dx (x) y + (-1)^{deg x} x (x) dy, applied only
              in _tensor_total, behind kernels.decomposable_to_env
  dual        entries transposed, scaled by (-1)^m at source degree m
"""

from __future__ import annotations

from functools import cached_property

from .algebra import Algebra, AlgebraAxiomError, _lines, _radical_generators
from .linalg import ZERO_COLUMN, ColumnEchelon, Matrix, SubspaceReducer, axpy
from .modules import (Bimodule, ModuleAxiomError, ModuleRep, SideMismatch,
                      _dual_columns)


class ComplexError(ValueError):
    """A differential or chain map fails a construction-time check: wrong
    shape, an entry outside its e_v L e_w slice, d^2 != 0, a chain map
    that does not commute, a differential that is not L-linear, or one
    whose Hom image leaves the vertex block it must land in."""


def _compose(alg, first, second):
    """Nonzero entries of "first, then second" for sparse matrices of
    algebra elements: {(h, j): sum_i first[i, j] * second[h, i]}.
    `second` is grouped by column, so only pairs of nonzero entries are
    multiplied, and each product of two of their terms is added into the
    (h, j) cell where it lands, as axpy would; empty cells are dropped."""
    f = alg.field
    add, mul, zero, product = f.add, f.mul, f.zero, alg.product
    second_cols = _lines(second, 1)
    out = {}
    for (i, j), x in first.items():
        for h, y in second_cols.get(i, ()):
            cell = out.setdefault((h, j), {})
            for p, xp in x.items():
                for q, yq in y.items():
                    c = mul(xp, yq)
                    for k, v in product(p, q).items():
                        s = add(cell.get(k, zero), mul(c, v))
                        if s:
                            cell[k] = s
                        elif k in cell:
                            del cell[k]
    return {hj: x for hj, x in out.items() if x}


def _check_blocks(alg, m, src_s, tgt_s, shape_msg, slice_msg):
    """Raise unless every key of m is a (row, col) inside len(tgt_s) x
    len(src_s) and the entry from summand L e_v to summand L e_w lies in
    e_v L e_w."""
    for (r, c), x in m.items():
        if not (0 <= r < len(tgt_s) and 0 <= c < len(src_s)):
            raise ComplexError(shape_msg)
        v, w = src_s[c], tgt_s[r]
        for k in x:
            if alg.tgt[k] != v or alg.src[k] != w:
                raise ComplexError(slice_msg)


class ProjComplex:
    """Bounded complex of projective left L-modules, L basic.

    terms[n] is the tuple of vertices v of the summands L e_v of degree n;
    diffs[n] is the sparse matrix {(row, col): x} of the nonzero entries
    of d^n, row a summand of degree n + 1 and col one of degree n."""

    def __init__(self, algebra: Algebra, terms, diffs, check=True):
        self.algebra = algebra
        self.terms = {n: tuple(t) for n, t in terms.items() if t}
        self.diffs = {}
        for n, d in diffs.items():
            if n in self.terms and (n + 1) in self.terms:
                self.diffs[n] = d
        self._cache = {}
        if check:
            self._validate()

    def _validate(self):
        alg = self.algebra
        for n, d in self.diffs.items():
            _check_blocks(alg, d, self.terms[n], self.terms[n + 1],
                          f"differential at degree {n} has the wrong shape",
                          f"entry not in e_v L e_w slice at degree {n}")
        for n in self.diffs:
            if (n + 1) in self.diffs and _compose(alg, self.diffs[n],
                                                  self.diffs[n + 1]):
                raise ComplexError(f"d^2 != 0 at degree {n}")

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def diff(self, n):
        return self.diffs.get(n, {})

    def multiplicity_data(self):
        """Per-degree multiset of projective summands; the isomorphism
        proxy for minimal complexes."""
        out = {}
        for n, t in sorted(self.terms.items()):
            counts = {}
            for v in t:
                counts[v] = counts.get(v, 0) + 1
            out[n] = tuple(sorted(counts.items()))
        return out

    def euler_class(self):
        """K_0 class: alternating sum of summand multiplicities, as a dict
        vertex -> integer."""
        out = {}
        for n, t in self.terms.items():
            s = 1 if n % 2 == 0 else -1
            for v in t:
                out[v] = out.get(v, 0) + s
        return {v: c for v, c in out.items() if c}

    # -- constructions --------------------------------------------------------

    def shift(self, s: int) -> "ProjComplex":
        terms = {n - s: t for n, t in self.terms.items()}
        sign = 1 if s % 2 == 0 else -1
        diffs = {n - s: {rc: self.algebra.scale(x, sign) for rc, x in d.items()}
                 for n, d in self.diffs.items()}
        return ProjComplex(self.algebra, terms, diffs, check=False)

    def realize(self):
        """Underlying complex of vector spaces (a FieldComplex).  Its basis
        in degree n is realize_bases()[n], the pairs (s, k) of a summand s
        = L e_v and a basis element k of L e_v; realize_index()[n] maps
        each pair to its position."""
        if "realize" in self._cache:
            return self._cache["realize"]
        alg = self.algebra
        f = alg.field
        columns, bases = {}, {}   # columns: vertex v -> basis of L e_v
        for n, t in self.terms.items():
            basis = bases[n] = []
            for s, v in enumerate(t):
                if v not in columns:
                    columns[v] = alg.column_indices(v)
                for k in columns[v]:
                    basis.append((s, k))
        index = {n: {sk: i for i, sk in enumerate(b)} for n, b in bases.items()}
        dims = {n: len(b) for n, b in bases.items()}
        diffs = {}
        add, mul, zero, product = f.add, f.mul, f.zero, alg.product
        for n, d in self.diffs.items():
            cols = _lines(d, 1)
            tgt_pos = index[n + 1]
            out = []
            for j, y in bases[n]:   # y in summand j goes to y x in summand i
                col = {}
                for i, x in cols.get(j, ()):
                    for p, c in x.items():
                        for k, c1 in product(y, p).items():
                            r = tgt_pos[i, k]
                            total = add(col.get(r, zero), mul(c, c1))
                            if total:
                                col[r] = total
                            elif r in col:
                                del col[r]
                out.append(col)
            diffs[n] = Matrix(f, dims[n + 1], dims[n], out)
        fc = FieldComplex(f, dims, diffs)
        self._cache.update(realize=fc, realize_bases=bases, realize_index=index)
        return fc

    def realize_bases(self):
        self.realize()
        return self._cache["realize_bases"]

    def realize_index(self):
        self.realize()
        return self._cache["realize_index"]

    def homology_dims(self):
        return self.realize().homology_dims()


def zero_complex(algebra) -> ProjComplex:
    return ProjComplex(algebra, {}, {}, check=False)


def single_projective(algebra, v, degree=0) -> ProjComplex:
    return ProjComplex(algebra, {degree: (v,)}, {}, check=False)


def direct_sum(complexes) -> ProjComplex:
    complexes = list(complexes)
    if not complexes:
        raise ValueError("direct_sum needs at least one complex")
    alg = complexes[0].algebra
    if any(c.algebra is not alg for c in complexes):
        raise SideMismatch("direct sum of complexes over different algebras")
    terms = {}
    offsets = []  # per complex: degree -> summand offset
    for c in complexes:
        offs = {}
        for n, t in c.terms.items():
            offs[n] = len(terms.get(n, ()))
            terms[n] = tuple(terms.get(n, ())) + t
        offsets.append(offs)
    diffs = {}
    for c, offs in zip(complexes, offsets):
        for n, d in c.diffs.items():
            oi, oj = offs[n + 1], offs[n]
            block = diffs.setdefault(n, {})
            for (i, j), x in d.items():
                block[(oi + i, oj + j)] = dict(x)
    return ProjComplex(alg, terms, diffs, check=False), offsets


class ChainMap:
    """Degreewise map of ProjComplexes commuting with the differentials.

    mats[n] is the sparse matrix {(row, col): x} of the nonzero entries of
    the component in degree n, row a summand of target.terms[n] and col
    one of source.terms[n]."""

    def __init__(self, source: ProjComplex, target: ProjComplex, mats, check=True):
        self.source = source
        self.target = target
        self.mats = {n: m for n, m in mats.items()
                     if n in source.terms and n in target.terms}
        if check:
            self._validate()

    def component(self, n):
        return self.mats.get(n, {})

    def _validate(self):
        alg = self.source.algebra
        for n, m in self.mats.items():
            _check_blocks(alg, m, self.source.terms[n], self.target.terms[n],
                          f"chain map at degree {n} has the wrong shape",
                          f"chain map entry not in e_v L e_w slice at degree {n}")
        degs = (set(self.source.diffs) | set(self.target.diffs)
                | set(self.mats) | {n - 1 for n in self.mats})
        for n in degs:
            # f then d_Y  ==  d_X then f
            if (_compose(alg, self.component(n), self.target.diff(n))
                    != _compose(alg, self.source.diff(n), self.component(n + 1))):
                raise ComplexError(f"chain map does not commute at degree {n}")


def compose_chainmaps(first: ChainMap, second: ChainMap) -> ChainMap:
    """first : X -> Y, second : Y -> Z, composite X -> Z."""
    X, Z = first.source, second.target
    mats = {n: _compose(X.algebra, first.component(n), second.component(n))
            for n in set(first.mats) | set(second.mats)
            if n in X.terms and n in Z.terms}
    return ChainMap(X, Z, mats, check=False)


def cone(f: ChainMap) -> ProjComplex:
    X, Y = f.source, f.target
    alg = X.algebra
    degs = set(Y.terms) | {n - 1 for n in X.terms}
    terms = {}
    for n in degs:
        terms[n] = tuple(Y.terms.get(n, ())) + tuple(X.terms.get(n + 1, ()))
    diffs = {}
    for n in degs:
        if (n + 1) not in degs:
            continue
        ny, ny1 = len(Y.terms.get(n, ())), len(Y.terms.get(n + 1, ()))
        d = {rc: dict(x) for rc, x in Y.diff(n).items()}
        for (i, j), x in f.component(n + 1).items():
            d[(i, ny + j)] = dict(x)
        for (i, j), x in X.diff(n + 1).items():
            d[(ny1 + i, ny + j)] = alg.scale(x, -1)
        diffs[n] = d
    return ProjComplex(alg, terms, diffs, check=False)


def dualize(X: ProjComplex) -> ProjComplex:
    """Termwise Hom(-, L): left projective complexes become right ones
    (complexes over the opposite algebra) and degrees are negated."""
    op = X.algebra.opposite()
    terms = {-n: t for n, t in X.terms.items()}
    diffs = {}
    for m, d in X.diffs.items():
        # dual differential: (X^{m+1})^v -> (X^m)^v at dual degree -m-1
        sign = 1 if m % 2 == 0 else -1
        diffs[-m - 1] = {(j, i): X.algebra.scale(x, sign)
                         for (i, j), x in d.items()}
    return ProjComplex(op, terms, diffs, check=False)


class FieldComplex:
    """Bounded complex of finite-dimensional vector spaces."""

    def __init__(self, field, dims, diffs, check=False):
        self.field = field
        self.dims = {n: d for n, d in dims.items() if d}
        self.diffs = {}
        for n, m in diffs.items():
            if self.dims.get(n) and self.dims.get(n + 1):
                self.diffs[n] = m
        if check:
            for n, m in self.diffs.items():
                if (n + 1) in self.diffs and not self.diffs[n + 1].mul(m).is_zero():
                    raise ComplexError(f"d^2 != 0 at degree {n}")

    def diff(self, n):
        if n in self.diffs:
            return self.diffs[n]
        return Matrix.zeros(self.field, self.dims.get(n + 1, 0), self.dims.get(n, 0))

    def homology_dims(self):
        """{n: dim H^n}, assuming d^2 = 0 (every caller's complex was
        checked at construction).  The differentials are ranked in
        increasing degree, each on the complement of the previous image
        ("clearing"): the lows of d^(n-1)'s echelon are positions of C^n,
        the unit vectors off them span a complement of im d^(n-1), and
        d^n kills that image, so rank d^n is the rank of its columns off
        those lows.  A degree with no differential into it clears none."""
        ranks = {}
        lows = {}
        for n in sorted(self.diffs):
            m = self.diffs[n]
            if n - 1 in ranks and lows:
                m = Matrix(m.field, m.nrows, m.ncols - len(lows),
                           [c for j, c in enumerate(m.cols) if j not in lows])
            lows = ColumnEchelon(m, transform=False).pivots
            ranks[n] = len(lows)
        out = {}
        for n, d in self.dims.items():
            h = d - ranks.get(n, 0) - ranks.get(n - 1, 0)
            if h:
                out[n] = h
        return out


class ModuleComplex:
    """Bounded complex of (not necessarily projective) modules over L.
    `check` tests d^2 = 0 and d b_i = b_i d for the idempotents and the
    _radical_generators b_i, on the basis vectors at src(b_i), column by
    column.  On the other vectors both sides vanish, as the idempotents
    show that d keeps the vertex of each vector; and the x with d x = x d
    form a subalgebra, so this checks L-linearity for all of L."""

    def __init__(self, algebra, modules, diffs, check=True):
        self.algebra = algebra
        self.modules = {n: m for n, m in modules.items() if m.dim}
        self.diffs = {n: d for n, d in diffs.items()
                      if n in self.modules and (n + 1) in self.modules}
        if check:
            one = algebra.field.one
            entering = {}
            for i in (*algebra.idempotents, *_radical_generators(algebra)):
                entering.setdefault(algebra.src[i], []).append(i)
            for n, d in self.diffs.items():
                if (n + 1) in self.diffs and not self.diffs[n + 1].mul(d).is_zero():
                    raise ComplexError(f"d^2 != 0 at degree {n}")
                M, N = self.modules[n], self.modules[n + 1]
                for m, v in enumerate(M.grading):
                    for i in entering.get(v, ()):
                        if d.apply(M.column(i, m)) != N.act({i: one}, d.cols[m]):
                            raise ComplexError(
                                f"differential at degree {n} is not L-linear")


# ---------------------------------------------------------------------------
# Hom complexes


def _as_modules(Y):
    """Y read as a complex of modules: (gradings, diffs, column) with
    gradings[j] the vertex of each basis position of Y^j, diffs[j] the
    matrix of d_Y^j and column(j, k) = (col, x) with col(x, m) the image
    of position m of Y^j under the basis element b_k.  A ProjComplex
    is read through its realization: position m = (s, t) of
    realize_bases()[j] is graded by tgt(t) and b_k acts on it as
    (s, b_k t)."""
    alg = Y.algebra
    if isinstance(Y, ModuleComplex):
        modules = Y.modules
        return ({j: M.grading for j, M in modules.items()}, Y.diffs,
                lambda j, k: (modules[j].column, k))
    bases, index, product = Y.realize_bases(), Y.realize_index(), alg.product

    def col(jk, m):
        j, k = jk
        s, t = bases[j][m]
        return {index[j][s, k2]: c for k2, c in product(k, t).items()}
    return ({j: [alg.tgt[t] for _, t in b] for j, b in bases.items()},
            Y.realize().diffs, lambda j, k: (col, (j, k)))


def _hom(f, x_terms, x_entries, read, off_vertex):
    """Hom from X into Y, the one Hom assembler, as (blocks, place,
    offsets, dims, mats).  X is given by x_terms[i], the vertex v of each
    summand L e_v of X^i, and x_entries[i], the terms (row, col, key, c)
    of d_X^i; Y by read = (gradings, diffs, column) as _as_modules gives
    it.  Hom(L e_v, Y^j) is the block blocks[j][v] of Y^j's positions at
    v: the cochain (i, s, m) of degree n sits at offsets[n][i][s] +
    place[i + n][m].  (d phi)_n = d_Y . phi - (-1)^n phi . d_X: for each
    term of d_X^{i-1} from summand t to s, with (col, x) = column(i + n,
    key), (i, s, m) goes to -(-1)^n c col(x, m) in t's block; the terms
    of one entry add up, and a cell that cancels is dropped.  An image
    off the vertex of its block raises ComplexError, for d_X with the
    text off_vertex.format(j=Y degree, w=vertex)."""
    gradings, y_diffs, column = read
    add, mul, neg = f.add, f.mul, f.neg
    blocks, place = {}, {}
    for j, grading in gradings.items():
        at, places = blocks[j], place[j] = {}, []
        for m, u in enumerate(grading):
            places.append(len(at.setdefault(u, [])))
            at[u].append(m)
    offsets, dims = {}, {}
    for n in {j - i for i in x_terms for j in blocks}:
        starts, start = offsets.setdefault(n, {}), 0
        for i in sorted(x_terms):
            at = blocks.get(i + n)
            for v in x_terms[i] if at is not None else ():
                starts.setdefault(i, []).append(start)
                start += len(at.get(v, ()))
        if start:
            dims[n] = start
    mats = {}
    for n in dims:
        if n + 1 not in dims:
            continue
        cols, tgt = [{} for _ in range(dims[n])], offsets[n + 1]
        for i, starts in offsets[n].items():
            j, vertices = i + n, x_terms[i]
            at, grading, places = blocks[j], gradings[j], place[j]
            dY = y_diffs.get(j)
            for s, v in enumerate(vertices) if dY is not None else ():
                base = tgt[i][s]
                for m in at.get(v, ()):
                    col = cols[starts[s] + places[m]]
                    for m2, c in dY.cols[m].items():
                        if gradings[j + 1][m2] != v:
                            raise ComplexError(f"d_Y^{j} moves a position "
                                               f"off vertex {v}")
                        col[base + place[j + 1][m2]] = c
            ws, bases = x_terms.get(i - 1), tgt.get(i - 1)
            for s, t, key, c in x_entries.get(i - 1, ()):
                w, base = ws[t], bases[t]
                c, start = c if n % 2 else neg(c), starts[s]
                col_of, k = column(j, key)
                for m in at.get(vertices[s], ()):
                    col = cols[start + places[m]]
                    for m2, x in col_of(k, m).items():
                        if grading[m2] != w:
                            raise ComplexError(off_vertex.format(j=j, w=w))
                        r, x = base + places[m2], mul(c, x)
                        y = col.get(r)
                        if y is not None:
                            x = add(x, y)
                        if x:
                            col[r] = x
                        else:
                            del col[r]
        mats[n] = Matrix(f, dims[n + 1], dims[n], cols)
    return blocks, place, offsets, dims, mats


class ModuleHomComplex:
    """Total Hom complex from a ProjComplex X into Y, a ModuleComplex or a
    ProjComplex read through its realization (see _as_modules), assembled
    by _hom from the basis terms c b_k of X's entries: its basis cochain
    (i, sX, m) of degree n sends summand sX = L e_v of X^i to the position
    m of Y^{i+n} at v, at _offsets[n][i][sX] + _place[i + n][m]."""

    def __init__(self, X: ProjComplex, Y):
        if X.algebra is not Y.algebra:
            raise SideMismatch("Hom requires a complex and modules over the "
                               "same algebra")
        self.X, self.Y = X, Y
        self._field = X.algebra.field
        entries = {i: [(r, c, k, x) for (r, c), a in d.items()
                       for k, x in a.items()]
                   for i, d in X.diffs.items()}
        self._blocks, self._place, self._offsets, self.dims, self.mats = _hom(
            self._field, X.terms, entries, _as_modules(Y),
            "an entry of d_X moves a position of Y^{j} off vertex {w}")

    def field_complex(self) -> FieldComplex:
        """The Hom complex as a complex of vector spaces."""
        return FieldComplex(self._field, dict(self.dims), dict(self.mats))

    def ext_profile(self):
        return self.field_complex().homology_dims()


class HomComplex(ModuleHomComplex):
    """Hom complex between two ProjComplexes: the ModuleHomComplex into the
    realized target, plus the passage between cocycles and chain maps.  In
    a basis cochain (i, sX, m) the position m = (sY, t) of
    Y.realize_bases()[i + n] is the component t of Hom(L e_v, L e_w) =
    e_v L e_w from summand sX of X^i to summand sY of Y^{i+n}."""

    @cached_property
    def basis(self):
        """The cochains (i, sX, m) of each degree in column order."""
        terms = self.X.terms
        return {n: [(i, sX, m) for i in self._offsets[n]
                    for sX, v in enumerate(terms[i])
                    for m in self._blocks[i + n].get(v, ())]
                for n in self.dims}

    def cocycle_representatives(self, n):
        """Vectors over the degree-n basis lifting a basis of H^n."""
        if n not in self.dims:
            return []
        fc = self.field_complex()
        red = SubspaceReducer(self._field, self.dims[n], fc.diff(n - 1).cols)
        return [k for k in ColumnEchelon(fc.diff(n)).kernel_basis() if red.add(k)]

    def cochain_to_chainmap(self, vec, n) -> ChainMap:
        """A degree-n cochain {position: c} as a chain map X[-n] -> Y."""
        bases = self.Y.realize_bases()
        mats = {}
        for p, c in vec.items():
            i, sX, m = self.basis[n][p]
            sY, t = bases[i + n][m]
            mats.setdefault(i + n, {}).setdefault((sY, sX), {})[t] = c
        return ChainMap(self.X.shift(-n), self.Y, mats)

    def chainmap_to_cochain(self, cm: ChainMap, n) -> dict:
        """The degree-n cochain {position: c} of a chain map X[-n] -> Y;
        the inverse of cochain_to_chainmap."""
        index, offsets = self.Y.realize_index(), self._offsets.get(n, {})
        return {offsets[m - n][sX] + self._place[m][index[m][(sY, t)]]: c
                for m, mat in cm.mats.items()
                for (sY, sX), x in mat.items() for t, c in x.items()}


def hom_complex(X, Y) -> HomComplex:
    return HomComplex(X, Y)


def ext_profile(X: ProjComplex, Y) -> dict:
    """Graded dimensions of Ext(X, Y) for Y a ProjComplex, a ModuleComplex
    or one module (placed in degree 0)."""
    if not isinstance(Y, (ProjComplex, ModuleComplex)):
        Y = module_complex_single(Y)
    return ModuleHomComplex(X, Y).ext_profile()


def module_complex_single(M, degree=0) -> ModuleComplex:
    return ModuleComplex(M.algebra, {degree: M}, {}, check=False)


# ---------------------------------------------------------------------------
# Minimalization


def minimalize(X: ProjComplex) -> ProjComplex:
    """Strip contractible two-term summands until every differential entry
    lies in the radical.  Minimal perfect complexes are unique up to
    isomorphism, so the result's multiplicity data identifies X.

    Summands keep their positions in X while they are stripped; the
    survivors are renumbered once at the end."""
    alg = X.algebra
    f = alg.field
    terms = X.terms
    stripped = {n: set() for n in terms}
    diffs = {n: {rc: dict(x) for rc, x in d.items()} for n, d in X.diffs.items()}

    def find_unit():
        for n, d in diffs.items():
            units = [(i, j) for (i, j), x in d.items()
                     if terms[n][j] == terms[n + 1][i]
                     and x.get(alg.idempotents[terms[n][j]])]
            if units:
                return n, min(units)
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        n, (i, j) = hit
        d = diffs[n]
        u = alg.local_inverse(d[(i, j)], terms[n][j])
        # d' = delta - gamma . u . beta  on the remaining summands
        gammas = [(i2, x) for (i2, j2), x in d.items() if j2 == j and i2 != i]
        betas = [(j2, x) for (i2, j2), x in d.items() if i2 == i and j2 != j]
        for i2, gamma in gammas:
            for j2, beta in betas:
                corr = alg.multiply(alg.multiply(beta, u), gamma)
                x = d.setdefault((i2, j2), {})
                axpy(f, x, corr, f.neg(f.one))
                if not x:
                    del d[(i2, j2)]
        # strip source summand j of term n and target summand i of term n+1
        diffs[n] = {(r, c): x for (r, c), x in d.items() if r != i and c != j}
        if (n - 1) in diffs:
            diffs[n - 1] = {(r, c): x for (r, c), x in diffs[n - 1].items()
                            if r != j}
        if (n + 1) in diffs:
            diffs[n + 1] = {(r, c): x for (r, c), x in diffs[n + 1].items()
                            if c != i}
        stripped[n].add(j)
        stripped[n + 1].add(i)

    kept = {n: [s for s in range(len(t)) if s not in stripped[n]]
            for n, t in terms.items()}
    renum = {n: {s: k for k, s in enumerate(ss)} for n, ss in kept.items()}
    return ProjComplex(
        alg, {n: tuple(terms[n][s] for s in ss) for n, ss in kept.items()},
        {n: {(renum[n + 1][r], renum[n][c]): x for (r, c), x in d.items()}
         for n, d in diffs.items()},
        check=False)


# ---------------------------------------------------------------------------
# Tensor products over the base algebra A


def _summands(X):
    """A complex as (terms, diffs) at summand level: a ProjComplex as it
    is, a ModuleComplex as one summand per degree (its module) whose
    differential entry is a matrix."""
    if isinstance(X, ProjComplex):
        return X.terms, X.diffs
    return ({n: (M,) for n, M in X.modules.items()},
            {n: {(0, 0): m} for n, m in X.diffs.items()})


def _tensor_total(f, X, Y, middle, x_image, y_image):
    """Basis and differential of the total complex of X (x) Y; the one
    place of the rule d(x (x) y) = dx (x) y + (-1)^p x (x) dy.

    Degree n has the slots (p, s1, s2, mid): summand s1 of X^p, summand s2
    of Y^{n-p}, and mid from the pairs (mid, label) that middle(x, y)
    yields for those two summands; slots run over p, then n - p, s1, s2
    and mid.  x_image(a, mid, y) yields (mid2, k, c) for a nonzero entry a
    of d_X from summand s1 to summand i1: slot mid goes to c times basis
    element k (None for scalar entries) at the slot (p+1, i1, s2, mid2).
    y_image(b, mid, x) does the same for d_Y, landing at (p, s1, i2,
    mid2), and this function applies the sign (-1)^p.

    Returns (index, labels, entries): index[n] maps each slot to its
    position, labels[n] is the tuple of slot labels and entries[n] is
    {(row, col, k): c} for every n with a term n + 1."""
    x_terms, x_diffs = _summands(X)
    y_terms, y_diffs = _summands(Y)
    x_cols = {p: _lines(d, 1) for p, d in x_diffs.items()}
    y_cols = {q: _lines(d, 1) for q, d in y_diffs.items()}
    index, labels = {}, {}
    for p, t1 in x_terms.items():
        for q, t2 in y_terms.items():
            slots = index.setdefault(p + q, {})
            lbls = labels.setdefault(p + q, [])
            for s1, x in enumerate(t1):
                for s2, y in enumerate(t2):
                    for mid, label in middle(x, y):
                        slots[(p, s1, s2, mid)] = len(lbls)
                        lbls.append(label)
    entries = {}
    for n, slots in index.items():
        tgt = index.get(n + 1)
        if tgt is None:
            continue
        ent = entries[n] = {}
        for col, (p, s1, s2, mid) in enumerate(slots):
            q = n - p
            for i1, a in x_cols.get(p, {}).get(s1, ()):
                for mid2, k, c in x_image(a, mid, y_terms[q][s2]):
                    r = tgt.get((p + 1, i1, s2, mid2))
                    if r is not None:
                        ent[(r, col, k)] = f.add(
                            ent.get((r, col, k), f.zero), c)
            for i2, b in y_cols.get(q, {}).get(s2, ()):
                for mid2, k, c in y_image(b, mid, x_terms[p][s1]):
                    r = tgt.get((p, s1, i2, mid2))
                    if r is not None:
                        ent[(r, col, k)] = f.add(
                            ent.get((r, col, k), f.zero),
                            f.neg(c) if p % 2 else c)
    return index, {n: tuple(lbls) for n, lbls in labels.items()}, entries


def _proj_diffs(index, entries):
    """Total-complex entries as ProjComplex differentials."""
    diffs = {}
    for n, ent in entries.items():
        d = diffs[n] = {}
        for (r, col, k), c in ent.items():
            if c:
                d.setdefault((r, col), {})[k] = c
    return diffs


def tensor_env_module(P: ProjComplex, M) -> ModuleComplex:
    """P (x)_A M for a bimodule complex P and a single bimodule M: the
    termwise twist (A e_v (x) e_w A) (x)_A M = A e_v (x) e_w M, on which A
    acts from the left on the first factor and from the right on M.  With
    M = DA it is the Serre-twisted target P o S, which the tests take Ext
    into as the oracle of kernels.decomposable_ext."""
    env = P.algebra
    if M.algebra is not env:
        raise SideMismatch("P (x)_A M needs a bimodule over the complex's "
                           "algebra")
    A, _ = env.factors
    f = A.field
    sides = [env.vertex_pair(code) for code in M.grading]
    blocks = {}   # degree -> list of (summand, a, m) basis
    pos = {}
    mods = {}
    for p, t in P.terms.items():
        basis = []
        grading = []
        for s, code in enumerate(t):
            v, w = env.vertex_pair(code)
            for a in A.column_indices(v):
                for m in range(M.dim):
                    if sides[m][0] == w:
                        basis.append((s, a, m))
                        grading.append(env.vertex(A.tgt[a], sides[m][1]))
        blocks[p] = basis
        index = pos[p] = {b: i for i, b in enumerate(basis)}
        if not basis:
            continue

        def left(i, col, basis=basis, index=index):   # b_i a (x) m
            s, a, m = basis[col]
            return {index[(s, a2, m)]: c for a2, c in A.product(i, a).items()}

        def right(j, col, basis=basis, index=index):  # a (x) m b_j
            s, a, m = basis[col]
            return {index[(s, a, m2)]: c for m2, c in M.right_col(j, m).items()}
        mods[p] = Bimodule(env, len(basis), left, right, grading, check=False)
    diffs = {}
    for p, d in P.diffs.items():
        if p not in mods or (p + 1) not in mods:
            continue
        entries = {}
        tgt_pos = pos[p + 1]
        d_cols = _lines(d, 1)
        for col, (s, a, m) in enumerate(blocks[p]):
            for i1, x in d_cols.get(s, ()):
                for (xi, yi, cf) in env.terms(x):
                    yact = M.left_col(yi, m)   # left action of y on e_w M
                    for a2, c1 in A.product(a, xi).items():
                        for m2, c2 in yact.items():
                            r = tgt_pos.get((i1, a2, m2))
                            if r is not None:
                                key = (r, col)
                                entries[key] = f.add(entries.get(key, f.zero),
                                                     f.mul(cf, f.mul(c1, c2)))
        diffs[p] = Matrix.from_entries(
            f, len(blocks[p + 1]), len(blocks[p]), entries)
    return ModuleComplex(env, mods, diffs, check=False)


def serre_twist_left(X: ProjComplex) -> ModuleComplex:
    """DA (x)_A X for a left-module complex X: the Serre functor applied
    termwise (DA (x)_A A e_v = D(e_v A), which is injective, not
    projective)."""
    A = X.algebra
    f = A.field
    blocks = {}
    pos = {}
    mods = {}
    dual_left, dual_right = _dual_columns(A, 1), _dual_columns(A, 0)
    for q, t in X.terms.items():
        basis = []
        grading = []
        for s, v in enumerate(t):
            for p in range(A.dim):
                if A.tgt[p] == v:   # duals of e_v A
                    basis.append((s, p))
                    grading.append(A.src[p])
        blocks[q] = basis
        index = pos[q] = {b: i for i, b in enumerate(basis)}
        if not basis:
            continue

        def column(i, col, basis=basis, index=index):
            s, p = basis[col]   # (b_i . p*)(x) = p*(x b_i)
            return {index[(s, k)]: c
                    for k, c in dual_left.get((i, p), ZERO_COLUMN).items()}
        mods[q] = ModuleRep(A, len(basis), column, tuple(grading), check=False)
    diffs = {}
    for q, d in X.diffs.items():
        if q not in mods or (q + 1) not in mods:
            continue
        entries = {}
        tgt_pos = pos[q + 1]
        d_cols = _lines(d, 1)
        for col, (s, p) in enumerate(blocks[q]):
            for i1, x in d_cols.get(s, ()):
                # induced map g -> g . x on duals: (g.x)(z) = g(x z)
                for xi, cf in x.items():
                    for z, c in dual_right.get((xi, p), ZERO_COLUMN).items():
                        r = tgt_pos.get((i1, z))
                        if r is not None:
                            key = (r, col)
                            entries[key] = f.add(entries.get(key, f.zero),
                                                 f.mul(cf, c))
        diffs[q] = Matrix.from_entries(f, len(blocks[q + 1]), len(blocks[q]), entries)
    return ModuleComplex(A, mods, diffs, check=False)


# ---------------------------------------------------------------------------
# Relative bar resolution


def radical_tuples(A: Algebra, n: int):
    """Composable n-tuples of radical basis elements, adjacency
    src(r_i) = tgt(r_{i+1}) (function order, leftmost applied last).

    The tuples are kept by length in A's cache; each new length extends
    the one before by the radical elements ending where its tuples start."""
    by_length = A._cache.get("radical_tuples")
    if by_length is None:
        by_length = A._cache["radical_tuples"] = [
            ((),), tuple((r,) for r in A.radical_indices())]
    if len(by_length) <= n:
        by_tgt = {}
        for (r,) in by_length[1]:
            by_tgt.setdefault(A.tgt[r], []).append(r)
        while len(by_length) <= n and by_length[-1]:
            by_length.append(tuple(t + (r,) for t in by_length[-1]
                                   for r in by_tgt.get(A.src[t[-1]], ())))
    return by_length[n] if n < len(by_length) else ()


def bar_resolution(A: Algebra, n_max: int) -> ProjComplex:
    """Relative bar resolution of the diagonal bimodule over the vertex
    subalgebra: B_n = A (x)_E rad^{(x)_E n} (x)_E A in degree -n.  Its
    summands grow exponentially with n; hochschild.diagonal_resolution
    does not use it, and it stays as an independent oracle."""
    env = A.enveloping()
    f = A.field
    terms = {}
    pos = {}
    for n in range(n_max + 1):
        tl = radical_tuples(A, n)
        if n > 0 and not tl:
            break
        labels = []
        index = {}
        if n == 0:
            for v in range(A.num_vertices):
                index[("v", v)] = len(labels)
                labels.append(env.vertex(v, v))
        else:
            for t in tl:
                v = A.tgt[t[0]]
                w = A.src[t[-1]]
                index[t] = len(labels)
                labels.append(env.vertex(v, w))
        terms[-n] = tuple(labels)
        pos[n] = index
    diffs = {}
    for n in range(1, n_max + 1):
        if -n not in terms:
            break
        d = {}
        for t in radical_tuples(A, n):
            col = pos[n][t]
            v = A.tgt[t[0]]
            w = A.src[t[-1]]
            # i = 0: slide r_1 into the left A slot; entry r_1 (x) e_w
            head = t[0]
            key = ("v", A.src[head]) if n == 1 else t[1:]
            r = pos[n - 1][key]
            axpy(f, d.setdefault((r, col), {}),
                 {env.pair_index(head, A.idempotents[w]): f.one}, f.one)
            # 0 < i < n: contract adjacent radical slots; entry e_v (x) e_w
            for i in range(1, n):
                prod = A.product(t[i - 1], t[i])
                sign = f.one if i % 2 == 0 else f.neg(f.one)
                for s, c in prod.items():
                    if s in A._idem_set:
                        raise AlgebraAxiomError(
                            "radical is not an ideal: the product of "
                            f"{A.labels[t[i - 1]]} and {A.labels[t[i]]} "
                            f"involves {A.labels[s]}")
                    t2 = t[:i - 1] + (s,) + t[i + 1:]
                    r2 = pos[n - 1][t2]
                    ekey2 = env.pair_index(A.idempotents[v], A.idempotents[w])
                    axpy(f, d.setdefault((r2, col), {}),
                         {ekey2: f.mul(sign, c)}, f.one)
            # i = n: slide r_n into the right A slot; entry e_v (x) r_n
            tail = t[-1]
            key3 = ("v", A.tgt[tail]) if n == 1 else t[:-1]
            r3 = pos[n - 1][key3]
            sign = f.one if n % 2 == 0 else f.neg(f.one)
            axpy(f, d.setdefault((r3, col), {}),
                 {env.pair_index(A.idempotents[v], tail): sign}, f.one)
        diffs[-n] = {rc: x for rc, x in d.items() if x}
    return ProjComplex(env, terms, diffs, check=True)


# ---------------------------------------------------------------------------
# Minimal projective resolutions of modules


def _free_action(alg, basis):
    """Left multiplication on realize(P), basis the pairs (s, y) of a
    summand s and a basis element y of it: act(b, w) is b . w."""
    f, index = alg.field, {sy: p for p, sy in enumerate(basis)}

    def act(b, w):
        out = {}
        for p, c in w.items():
            s, y = basis[p]
            for z, x in alg.product(b, y).items():
                out[k] = f.add(out.get(k := index[s, z], f.zero), f.mul(c, x))
        return {k: x for k, x in out.items() if x}
    return act


def projective_resolution(M, length: int) -> ProjComplex:
    """Minimal projective resolution of a module, in degrees -length..0.

    Stops early once a syzygy vanishes; the result then resolves M exactly.
    No syzygy module is built.  Omega_0 is M with its unit vectors, and
    Omega_n for n >= 1 stays inside the free module: the list of kernel
    vectors of the cover P_{n-1} -> Omega_{n-1}, in the coordinates (s, y)
    of realize(P_{n-1}), on which L acts by left multiplication.  rad .
    Omega is spanned by the g . w over the _radical_generators g leaving
    the vertex of w, and P_n has one summand per vector w of Omega_n
    outside rad . Omega_n and the vectors before w, so the differentials
    land in the radical (the resolution is minimal).  Every kernel basis
    is checked to be graded and, where its generators are picked, to be
    mapped into its span by every g, which with the grading is invariance
    under all of L; either failure means M is not a module and raises
    ModuleAxiomError.

    Only the kernel of P_0 -> M can fail these checks: from Omega_1 on, the
    action is left multiplication on a free module, so the kernel of each
    later cover is a submodule.  The last cover, whose kernel
    Omega_{length+1} would be dropped, is therefore skipped when length >= 1
    and computed, for the checks alone, when length == 0."""
    alg = M.algebra
    f = alg.field
    gens_at = {}
    for g in _radical_generators(alg):
        gens_at.setdefault(alg.src[g], []).append(g)
    columns = {}

    def generators(omega, act, dim):
        # rad . Omega first; its span with Omega has rank dim Omega exactly
        # when every g maps Omega into itself
        red = SubspaceReducer(f, dim)
        for u, w in omega:
            for g in gens_at.get(u, ()):
                red.add(act(g, w))
        gens = [(u, w) for u, w in omega if red.add(w)]
        if red.rank != len(omega):
            raise ModuleAxiomError("kernel is not action-invariant: the "
                                   "action is not a module action")
        return gens

    def act(b, w):
        return M.act({b: f.one}, w)

    dim = M.dim   # of the space Omega lives in
    gens = generators([(v, {m: f.one}) for m, v in enumerate(M.grading)],
                      act, dim)
    terms = {}
    diffs = {}
    prev_basis = None
    for step in range(length + 1):
        terms[-step] = tuple(u for u, _ in gens)
        if prev_basis is not None:
            d = diffs[-step] = {}
            for s, (_, w) in enumerate(gens):
                for p, c in w.items():
                    s0, y = prev_basis[p]
                    d.setdefault((s0, s), {})[y] = c
        if step == length and step:
            break   # Omega_{length+1} would only be dropped
        # cover realize(P_step) -> Omega_step, (s, y) |-> y . w_s
        basis, cols = [], []
        for s, (u, w) in enumerate(gens):
            if u not in columns:
                columns[u] = alg.column_indices(u)
            for y in columns[u]:
                basis.append((s, y))
                cols.append(act(y, w))
        kernel = ColumnEchelon(Matrix(f, dim, len(cols), cols)).kernel_basis()
        if not kernel:
            break
        omega = []
        for kv in kernel:
            vv = {alg.tgt[basis[p][1]] for p in kv}
            if len(vv) != 1:
                raise ModuleAxiomError("kernel basis not graded: the action "
                                       "does not respect the grading")
            omega.append((vv.pop(), kv))
        act, dim, prev_basis = _free_action(alg, basis), len(basis), basis
        gens = generators(omega, act, dim)
    return ProjComplex(alg, terms, diffs, check=True)
