"""Hochschild cohomology and homology of a basic algebra.

Cohomology (and cohomology with bimodule coefficients) is the cohomology
of Hom_{A-bimod}(P_*, M) for a projective bimodule resolution P_* of A,
the one diagonal_resolution returns: the Koszul resolution of a quadratic
path algebra whose simples' minimal resolutions certify it Koszul, else
the relative bar resolution over the vertex subalgebra E.  Homology uses
the cyclic E-coinvariant chain complex directly.

Truncated *absolute* bar complexes are implemented as independent oracles;
they share nothing with the relative route except the exact rank kernel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import Algebra, PathAlgebra
from .complexes import (FieldComplex, ProjComplex, SideMismatch,
                        bar_resolution, ext_profile, koszul_resolution,
                        projective_resolution, radical_tuples)
from .linalg import FieldSpec, Matrix
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


def global_dimension(A: Algebra, cap: int):
    """Global dimension, or None if it exceeds cap.

    Computed as the maximum length of the minimal projective resolutions
    of the simple modules.  The answer is kept in A's cache as either the
    exact value, which answers every cap, or "exceeds c", which answers
    every cap <= c.  With an exact value the cache also keeps, under
    "simple_resolutions", the summand multiset of each degree of each
    simple's resolution: a list [Counter of vertices in degree -n for n =
    0..length] per vertex."""
    exact, exceeds = A._cache.get("global_dimension", (None, -1))
    if exact is not None:
        return exact if exact <= cap else None
    if cap <= exceeds:
        return None
    resolutions = {}
    for v in range(A.num_vertices):
        res = projective_resolution(simple_module(A, v), cap + 1)
        length = -min(res.terms)
        if length > cap:
            A._cache["global_dimension"] = (None, cap)
            return None
        resolutions[v] = [Counter(res.terms.get(-n, ()))
                          for n in range(length + 1)]
    worst = max((len(r) - 1 for r in resolutions.values()), default=0)
    A._cache.update(global_dimension=(worst, None),
                    simple_resolutions=resolutions)
    return worst


def _koszul_certified(A: Algebra, K: ProjComplex) -> bool:
    """Whether the minimal resolution of every simple S_v has, in each
    degree -n up to one past its length, the summands that K predicts:
    one A e_u per basis element of K_n from v to u.  Ext^n(S_v, S_u) has
    at least that dimension, with equality in every degree exactly when
    it is pure of internal degree n, so equality everywhere certifies that
    A is Koszul and K resolves it."""
    env = K.algebra
    for v, degrees in A._cache["simple_resolutions"].items():
        for n in range(1, len(degrees) + 1):
            from_v = Counter(end for end, start in map(env.vertex_pair,
                                                       K.terms.get(-n, ()))
                             if start == v)
            if from_v != (degrees[n] if n < len(degrees) else Counter()):
                return False
    return True


def diagonal_resolution(A: Algebra, n_max: int) -> ProjComplex:
    """A projective bimodule resolution of A through degree -n_max.

    The Koszul resolution (complexes.koszul_resolution) when A is a path
    algebra with quadratic relations, of global dimension at most n_max,
    whose simples' minimal resolutions certify it (_koszul_certified); it
    is then complete.  Otherwise the relative bar resolution, truncated at
    n_max."""
    if isinstance(A, PathAlgebra) and all(
            len(path) == 2 for rel in A.relations for _, path in rel.terms):
        gd = global_dimension(A, n_max)
        if gd is not None:
            K = koszul_resolution(A, gd + 1)
            if _koszul_certified(A, K):
                return K
    return bar_resolution(A, n_max)


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


def _cyclic_basis(A: Algebra, n: int):
    """Basis of the cyclic E-coinvariants of A (x)_E rad^{(x)_E n}:
    pairs (a0, tuple) with src(a0) = tgt(r_1) and tgt(a0) = src(r_n)."""
    out = []
    if n == 0:
        for a0 in range(A.dim):
            if A.src[a0] == A.tgt[a0]:
                out.append((a0, ()))
        return out
    for t in radical_tuples(A, n):
        v, w = A.tgt[t[0]], A.src[t[-1]]
        for a0 in range(A.dim):
            if A.src[a0] == v and A.tgt[a0] == w:
                out.append((a0, t))
    return out


def hh_homology(A: Algebra, n_max: int) -> HHProfile:
    """Hochschild homology from the relative cyclic chain complex
    C_n = (A (x)_E rad^{(x)_E n}) / [E, -]."""
    f = A.field
    note = _finiteness_note(A, n_max)
    bases = {n: _cyclic_basis(A, n) for n in range(n_max + 2)}
    pos = {n: {b: i for i, b in enumerate(bs)} for n, bs in bases.items()}
    boundaries = {}
    for n in range(1, n_max + 2):
        if not bases[n]:
            break
        entries = {}
        tgt_pos = pos[n - 1]
        for col, (a0, t) in enumerate(bases[n]):
            # i = 0: absorb r_1 into the A slot
            for s, c in A.product(a0, t[0]).items():
                r = tgt_pos.get((s, t[1:]))
                if r is not None:
                    entries[(r, col)] = f.add(entries.get((r, col), f.zero), c)
            # 0 < i < n: contract adjacent radical slots
            for i in range(1, n):
                sign = f.one if i % 2 == 0 else f.neg(f.one)
                for s, c in A.product(t[i - 1], t[i]).items():
                    t2 = t[:i - 1] + (s,) + t[i + 1:]
                    r = tgt_pos.get((a0, t2))
                    if r is not None:
                        entries[(r, col)] = f.add(entries.get((r, col), f.zero),
                                                  f.mul(sign, c))
            # i = n: wrap r_n around to the left of the A slot
            sign = f.one if n % 2 == 0 else f.neg(f.one)
            for s, c in A.product(t[-1], a0).items():
                r = tgt_pos.get((s, t[:-1]))
                if r is not None:
                    entries[(r, col)] = f.add(entries.get((r, col), f.zero),
                                              f.mul(sign, c))
        boundaries[n] = Matrix.from_entries(f, len(bases[n - 1]), len(bases[n]),
                                            entries)
    from .linalg import rank
    ranks = {n: rank(m) for n, m in boundaries.items()}
    dims = {}
    for n in range(n_max + 1):
        d = len(bases.get(n, ())) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if d:
            dims[n] = d
    return HHProfile.from_dict(dims, f, n_max, note)


# ---------------------------------------------------------------------------
# Truncated absolute bar oracles (independent computations for cross-checks)


def _pair_expansions(A: Algebra):
    """For each basis element k, the list of (p, q, c) with  p*q ∋ c·k."""
    table = {k: [] for k in range(A.dim)}
    for (p, q), x in A.mult.items():
        for k, c in x.items():
            table[k].append((p, q, c))
    return table


def absolute_hh_cohomology(A: Algebra, n_max: int) -> HHProfile:
    """Cohomology of the truncated absolute bar cochain complex
    C^n = Hom_k(A^{(x) n}, A)."""
    f = A.field
    expansions = _pair_expansions(A)

    def tuples(n):
        out = [()]
        for _ in range(n):
            out = [t + (x,) for t in out for x in range(A.dim)]
        return out

    bases = {}
    pos = {}
    for n in range(n_max + 2):
        bs = [(t, s) for t in tuples(n) for s in range(A.dim)]
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

    def tuples(n):
        out = [()]
        for _ in range(n):
            out = [t + (x,) for t in out for x in range(A.dim)]
        return out

    bases = {n: tuples(n + 1) for n in range(n_max + 2)}
    pos = {n: {b: i for i, b in enumerate(bs)} for n, bs in bases.items()}
    boundaries = {}
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
        boundaries[n] = Matrix.from_entries(f, len(bases[n - 1]), len(bases[n]),
                                            entries)
    from .linalg import rank
    ranks = {n: rank(m) for n, m in boundaries.items()}
    dims = {}
    for n in range(n_max + 1):
        d = len(bases[n]) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        if d:
            dims[n] = d
    return HHProfile.from_dict(dims, f, n_max)
