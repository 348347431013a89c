"""Bimodule kernel calculus.

A kernel over A is a decomposable kernel E (x)_k F' (Kernel), E a
complex of projective left A-modules and F' one of right modules,
possibly carrying a symbolic Serre twist on one side (adjoints of
decomposable kernels are DA-twists).  The diagonal is A itself, resolved
by hochschild.diagonal_resolution, and the Serre kernel is the dual
bimodule DA (modules.dual_bimodule); generalized_hoh reads either as the
coefficients of Hochschild cohomology.

Convolution is the derived tensor product over A.  Of two kernels only
the homology of the convolution is computed (convolution_homology_dims),
through their inner factors read as a Hom complex: for a bounded complex
X of finitely generated projective left modules, X^v (x)_A Y =
Hom_A(X, Y).  A factor that carries DA is read by the Nakayama
isomorphism, as the reflected homology (q -> -q) of a dual:
  DA (x)_A E = D Hom_A(E, A),   F' (x)_A DA = D Hom_{A^op}(F', A^op),
  Hom_A(X, DA (x)_A G) = D Hom_A(G, X).

Ext between untwisted kernels, with or without the Serre twist, and their
K_0 classes come from the two factors over A and A^op (decomposable_ext,
decomposable_class; Kuenneth, exact over a field), the twisted A^op
factor read by the same isomorphism; no kernel builds a Serre twist of a
one-sided complex (serre_twist_left runs only in serre-check).  Their
complex over A (x) A^op (decomposable_to_env) is built by no command; it
is the tests' oracle.

The projection kernels P_i = E_i (x) F_i^v of a full collection of
indecomposable projectives E_i = A e_{v_i} need no dual collection: F_i^v
is the minimal projective resolution of the simple right module at v_i
(projection_kernels), which hochschild.simple_resolution gives and keeps
(sliced off the Koszul resolution where it is certified that far), and
Ext into it is Ext into that simple, which the kernel keeps
(Kernel.resolves).
"""

from __future__ import annotations

from .algebra import Algebra
from .complexes import (ProjComplex, SideMismatch, _proj_diffs,
                        _tensor_total, dualize, ext_profile,
                        projective_resolution)
from .exceptional import ExceptionalCollection
from .hochschild import (HHProfile, _diagonal_terms, global_dimension,
                         hh_cohomology, hh_homology, hh_with_coefficients,
                         simple_resolution)
from .modules import (Bimodule, dual_bimodule, regular_bimodule,
                      simple_module, triangular_gluing)


class UnsupportedKernelShape(ValueError):
    """A Serre twist where the operation takes none (or two where it takes
    one), or a collection that is not of indecomposable projectives."""


class NormalizationFailed(RuntimeError):
    """The projection kernels fail the K_0 identity or have no identity
    class, or a right factor has no finite resolution; evidence that the
    collection is not full."""


class RangeNotCertified(RuntimeError):
    """A profile is still nonzero at the degree bound, so Euler sums over
    the truncated range would be untrustworthy."""


class Kernel:
    """The decomposable kernel E (x)_k F' over A, E a ProjComplex over A
    and F' one over A^op, or a Serre twist of one: twist 'left' stands for
    (DA (x)_A E) (x) F', 'right' for E (x) (F' (x)_A DA).  `resolves` is a
    module that F' resolves, if known (F' -> resolves a
    quasi-isomorphism), which Ext into F' reads."""

    def __init__(self, E: ProjComplex, Fp: ProjComplex, twist=None,
                 resolves=None):
        self.algebra = E.algebra if twist != "left" \
            else Fp.algebra.opposite()
        self.left = E
        self.right = Fp
        self.twist = twist          # None | 'left' | 'right'
        self.resolves = resolves
        self._self_ext = None       # (Ext(E, E), Ext(F', _right_target))

    def __repr__(self):
        return f"Kernel(twist={self.twist!r})"


def decomposable_to_env(E: ProjComplex, Fp: ProjComplex) -> ProjComplex:
    """E (x)_k F' as a complex of projective bimodules."""
    A = E.algebra
    env = A.enveloping()
    if Fp.algebra is not A.opposite():
        raise SideMismatch("decomposable kernel needs a right complex over "
                           "the left complex's algebra")

    def middle(v, w):
        return [(None, env.vertex(v, w))]

    def x_image(a, _, w):
        for k, c in a.items():
            yield None, env.pair_index(k, A.idempotents[w]), c

    def y_image(b, _, v):
        for k, c in b.items():
            yield None, env.pair_index(A.idempotents[v], k), c

    index, terms, entries = _tensor_total(A.field, E, Fp, middle, x_image,
                                          y_image)
    return ProjComplex(env, terms, _proj_diffs(index, entries), check=True)


def _require_untwisted(P: Kernel, what: str):
    if P.twist is not None:
        raise UnsupportedKernelShape(
            f"{what} needs an untwisted kernel, got {P!r}")


def decomposable_ext(P: Kernel, Q: Kernel, serre: bool = False) -> dict:
    """Graded dimensions of Ext(P, Q) over A (x) A^op, or of Ext(P, Q o S)
    when `serre`, for untwisted decomposable kernels P = E (x)_k F' and
    Q = E' (x)_k G', by Kuenneth:

      Ext^n(E (x) F', E' (x) G') = (+)_{p+q=n} Ext^p_A(E, E') (x) Ext^q_{A^op}(F', G'),

    as Hom_{A^e}(A e_v (x) e_w A, X (x) Y) = e_v X (x) Y e_w termwise.
    Q o S = E' (x) (G' (x)_A DA), and by the Nakayama isomorphism
    Hom_B(B e_u, DB (x)_B B e_v) = D Hom_B(B e_v, B e_u), natural in both,
    dim Ext^q(F', G' (x)_A DA) = dim Ext^{-q}_{A^op}(G', F') exactly.  Ext
    into a right factor that resolves a module is Ext into that module: the
    source is a bounded complex of projectives, so the quasi-isomorphism
    G' -> S gives Ext(F', G') = Ext(F', S).  When the A factor has no Ext
    the A^op factor is skipped; a kernel keeps its two self-Ext factors
    (P is Q) once computed."""
    _require_untwisted(P, "Kuenneth Ext")
    _require_untwisted(Q, "Kuenneth Ext")
    if P is Q:
        if P._self_ext is None:
            ext_left = ext_profile(P.left, P.left)
            P._self_ext = (ext_left, ext_profile(P.right, _right_target(P))
                           if ext_left else {})
        ext_left, ext_right = P._self_ext
    else:
        ext_left = ext_profile(P.left, Q.left)
        if not ext_left:
            return {}
        ext_right = ext_profile(Q.right, _right_target(P)) if serre \
            else ext_profile(P.right, _right_target(Q))
    if serre:
        ext_right = {-q: b for q, b in ext_right.items()}
    out = {}
    for p, a in ext_left.items():
        for q, b in ext_right.items():
            out[p + q] = out.get(p + q, 0) + a * b
    return out


def _right_target(P: Kernel):
    """What Ext into P's right factor is taken into: the module it
    resolves, else the factor itself."""
    return P.right if P.resolves is None else P.resolves


def decomposable_class(P: Kernel) -> dict:
    """K_0 class of an untwisted decomposable kernel E (x)_k F' as
    {(v, w): c}, the multiplicity of A e_v (x) e_w A: class_E(v) *
    class_F'(w), which is decomposable_to_env(E, F').euler_class() without
    building that complex."""
    _require_untwisted(P, "a product K_0 class")
    right = P.right.euler_class()
    return {(v, w): a * b for v, a in P.left.euler_class().items()
            for w, b in right.items()}


def kernel_adjoint(K: Kernel, which: str) -> Kernel:
    """Left or right adjoint kernel.

    For K = E (x) F' the right adjoint is (DA (x)_A F'^v) (x) E^v and the
    left adjoint is F'^v (x) (E^v (x)_A DA); the DA factor stays symbolic
    (a twist tag).  convolution_homology_dims reads it by the Nakayama
    isomorphism, DA (x)_A E = D Hom_A(E, A), F' (x)_A DA =
    D Hom_{A^op}(F', A^op) and Hom_A(X, DA (x)_A G) = D Hom_A(G, X).
    Taking the opposite adjoint of a twisted kernel undoes
    the twist by genuinely dualizing the parts again."""
    if which not in ("left", "right"):
        raise ValueError(f"adjoint side must be 'left' or 'right', got "
                         f"{which!r}")
    if K.twist is None:
        return Kernel(dualize(K.right), dualize(K.left),
                      twist=("left" if which == "right" else "right"))
    if K.twist == which:
        return Kernel(dualize(K.right), dualize(K.left))
    raise UnsupportedKernelShape(
        f"{which} adjoint of a {K.twist}-twisted kernel")


def convolution_homology_dims(L: Kernel, K: Kernel) -> dict:
    """Graded homology dimensions of L ∘ K = E (x) (F' (x)_A G) (x) H' for
    decomposable L = E (x) F' and K = G (x) H', by Kuenneth (exact over a
    field), with the adjoint twists read by the Nakayama isomorphism:

      middle  F' (x)_A G = Hom_A(F'^v, G), and with DA between the parts
              H^q Hom_A(F'^v, DA (x)_A G) = D H^{-q} Hom_A(G, F'^v);
      outer   DA (x)_A E = D Hom_A(E, A) for a left twist of L and
              H' (x)_A DA = D Hom_{A^op}(H', A^op) for a right twist of K,
              the homology of dualize(E) or dualize(H') reflected.

    No Serre twist and no tensor complex is built."""
    if L.twist == "right" and K.twist == "left":
        raise UnsupportedKernelShape("convolution of doubly twisted kernels")
    Fv = dualize(L.right)
    hW = _reflected(ext_profile(K.left, Fv)) \
        if L.twist == "right" or K.twist == "left" else ext_profile(Fv, K.left)
    hL = _reflected(dualize(L.left).homology_dims()) if L.twist == "left" \
        else L.left.homology_dims()
    hR = _reflected(dualize(K.right).homology_dims()) if K.twist == "right" \
        else K.right.homology_dims()
    out = {}
    for a, da in hL.items():
        for b, db in hW.items():
            for c, dc in hR.items():
                n = a + b + c
                out[n] = out.get(n, 0) + da * db * dc
    return {n: d for n, d in out.items() if d}


def _reflected(prof: dict) -> dict:
    return {-q: d for q, d in prof.items()}


def generalized_hoh(e, t, n_max: int, algebra=None) -> HHProfile:
    """Hochschild cohomology with support t and coefficients e: the graded
    dimensions of Ext(e, e ∘ t) over A (x) A^op.

    e: 'diagonal' (with `algebra`) or an untwisted Kernel;
    t: 'diagonal' or 'serre', the Serre kernel DA.
    The diagonal is Ext into A or DA itself (hh_with_coefficients): a
    truncated resolution would add false classes.  A kernel is Ext(P, P)
    or Ext(P, P ∘ S) by Kuenneth (decomposable_ext)."""
    if t not in ("diagonal", "serre"):
        raise ValueError(f"support must be 'diagonal' or 'serre', got {t!r}")
    if e == "diagonal":
        if algebra is None:
            raise ValueError("diagonal coefficients need the algebra")
        M = regular_bimodule(algebra) if t == "diagonal" \
            else dual_bimodule(algebra)
        return hh_with_coefficients(algebra, M, n_max)
    if not isinstance(e, Kernel):
        raise ValueError("coefficients must be 'diagonal' or a Kernel, got "
                         f"{e!r}")
    prof = decomposable_ext(e, e, serre=t == "serre")
    for n in prof:
        if n < 0:
            raise ValueError(f"negative-degree class at {n}; not a support "
                             "profile")
    return HHProfile.from_dict(prof, e.algebra.field, n_max)


# ---------------------------------------------------------------------------
# Projection kernels of an exceptional collection


def diagonal_class(A: Algebra, cap: int = 32) -> dict:
    """K_0 class of the diagonal as {(v, w): c}, the multiplicity of
    A e_v (x) e_w A, from a resolution that ends by degree -cap: the
    alternating count of the summands of diagonal_resolution(A, cap + 1),
    read off the ends of hochschild._diagonal_terms, with no entry of
    A (x) A^op written."""
    ends = _diagonal_terms(A, cap + 1)[0]
    if len(ends) > cap + 1:
        raise NormalizationFailed("the diagonal resolution does not end by "
                                  f"degree -{cap}; no K_0 class for the "
                                  "diagonal")
    out = {}
    for n, pairs in enumerate(ends):
        for vw in pairs:
            out[vw] = out.get(vw, 0) + (-1) ** n
    return {vw: c for vw, c in out.items() if c}


def _class_sum(kernels) -> dict:
    """Sum of the K_0 classes of untwisted decomposable kernels."""
    total = {}
    for P in kernels:
        for vw, c in decomposable_class(P).items():
            total[vw] = total.get(vw, 0) + c
    return {vw: c for vw, c in total.items() if c}


def projection_kernels(coll: ExceptionalCollection):
    """Kernels P_i = E_i (x) F_i^v of the projection functors of a full
    collection of indecomposable projectives E_i = A e_{v_i}.

    Hom_A(X, A e_v) = X^v e_v termwise, so the dual-collection condition
    Ext^*(F_j, E_i) = delta_ij k says that F_j^v has one-dimensional
    homology, at v_j in degree 0 after the shift that condition fixes:
    F_i^v is the minimal projective resolution of the simple right module
    at v_i, and the kernel records that simple for decomposable_ext.
    hochschild.simple_resolution gives it: where the Koszul resolution K
    is certified through -m it is the slice S_{v_i} (x)_A K, and nothing
    is resolved.  A full projective collection makes A directed, of
    global dimension at most m - 1 for m vertices, so a resolution that
    reaches degree -m raises NormalizationFailed, as does a failure of the
    K_0 identity sum_i [P_i] = [diagonal] or of Ext^0(P_i, P_i) >= 1."""
    A = coll.algebra
    m = A.num_vertices
    op = A.opposite()
    kernels = []
    for i, E in enumerate(coll.objects):
        if set(E.terms) != {0} or len(E.terms[0]) != 1:
            raise UnsupportedKernelShape(
                f"projection kernels need a collection of indecomposable "
                f"projectives; E_{i+1} has terms {E.terms}")
        u = E.terms[0][0]
        S = simple_module(op, u)
        Fp = simple_resolution(A, u, "right", m)
        if -m in Fp.terms:
            raise NormalizationFailed(
                f"the simple right module at the vertex of E_{i+1} has no "
                f"resolution of length < {m}; A is not directed, so the "
                "collection is not full")
        kernels.append(Kernel(E, Fp, resolves=S))
    # the classes are compared as (v, w) pairs, so only the diagonal's
    # minimal resolution, off K's route, needs A (x) A^op
    if _class_sum(kernels) != diagonal_class(A):
        raise NormalizationFailed(
            "the kernel classes do not sum to the diagonal class (the "
            "collection is not full)")
    for i, P in enumerate(kernels):
        if decomposable_ext(P, P).get(0, 0) < 1:
            raise NormalizationFailed(
                f"Ext^0(P_{i+1}, P_{i+1}) has no identity class")
    return kernels


def orthogonality_report(kernels) -> dict:
    """Ext(P_i, P_j ∘ S) for all ordered pairs, plus the vanishing of the
    adjoint convolutions P_i ∘ P_j^* (i < j) and P_i ∘ P_j^! (i > j).
    P_j's adjoints are built once."""
    left_adj = [kernel_adjoint(P, "left") for P in kernels]
    right_adj = [kernel_adjoint(P, "right") for P in kernels]
    table = {}
    adjoint_vanishing = {}
    for i, P in enumerate(kernels):
        for j, Q in enumerate(kernels):
            prof = decomposable_ext(P, Q, serre=True)
            table[(i + 1, j + 1)] = dict(sorted(prof.items()))
            if i < j:
                adjoint_vanishing[(i + 1, j + 1, "left")] = \
                    convolution_homology_dims(P, left_adj[j])
            elif i > j:
                adjoint_vanishing[(i + 1, j + 1, "right")] = \
                    convolution_homology_dims(P, right_adj[j])
    offdiag_zero = all(not prof for (i, j), prof in table.items() if i != j)
    diag_ok = all(prof == {0: 1} for (i, j), prof in table.items() if i == j)
    adj_zero = all(not v for v in adjoint_vanishing.values())
    return {
        "ext_serre_table": table,
        "adjoint_convolutions": adjoint_vanishing,
        "offdiagonal_zero": offdiag_zero,
        "diagonal_identity": diag_ok,
        "adjoint_vanishing": adj_zero,
    }


def k0_identity_check(kernels, A: Algebra) -> bool:
    return _class_sum(kernels) == diagonal_class(A)


def additivity_check(A: Algebra, coll: ExceptionalCollection,
                     n_max: int = 6) -> dict:
    """Degreewise HH_n(A) = sum_i dim Ext^n(P_i, P_i ∘ S); each summand is
    (1, 0, ...) for exceptional-object components."""
    kernels = projection_kernels(coll)
    hh = hh_homology(A, n_max)
    summands = [HHProfile.from_dict(decomposable_ext(P, P, serre=True),
                                    A.field, n_max) for P in kernels]
    degreewise = all(
        hh.dim(n) == sum(s.dim(n) for s in summands) for n in range(n_max + 1))
    each_point = all(s.as_tuple() == (1,) + (0,) * n_max for s in summands)
    return {
        "hh_homology": hh,
        "summands": summands,
        "degreewise_equal": degreewise,
        "summands_are_points": each_point,
    }


def les_check(b: Algebra, c: Algebra, m: Bimodule, n_max: int = 6) -> dict:
    """Euler identity (and, in the hereditary case, the full dimension
    chase) for the long exact sequence relating HH of a triangular gluing
    to HH of its pieces and the endomorphisms of the gluing bimodule."""
    glued = triangular_gluing(b, c, m)
    hhA = hh_cohomology(glued, n_max)
    hhb = hh_cohomology(b, n_max)
    hhc = hh_cohomology(c, n_max)
    res = projective_resolution(m, n_max + 1)
    extm = ext_profile(res, m)
    ext_prof = HHProfile.from_dict(extm, b.field, n_max)
    for prof, name in ((hhA, "HH(A)"), (hhb, "HH(b)"), (hhc, "HH(c)"),
                       (ext_prof, "Ext(m,m)")):
        if prof.dim(n_max) != 0:
            raise RangeNotCertified(f"{name} is nonzero at degree {n_max}")
    euler = sum((-1) ** t * (hhA.dim(t) - hhb.dim(t) - hhc.dim(t)
                             + ext_prof.dim(t))
                for t in range(n_max + 1))
    out = {
        "glued": glued,
        "hh_glued": hhA,
        "hh_b": hhb,
        "hh_c": hhc,
        "ext_mm": ext_prof,
        "euler_sum": euler,
        "euler_zero": euler == 0,
    }
    hereditary = not b.radical_indices() and not c.radical_indices()
    out["hereditary"] = hereditary
    if hereditary:
        chase = (hhA.dim(0), hhb.dim(0) + hhc.dim(0), ext_prof.dim(0),
                 hhA.dim(1))
        tail_zero = (all(hhA.dim(t) == 0 for t in range(2, n_max + 1))
                     and all(ext_prof.dim(t) == 0 for t in range(1, n_max + 1))
                     and all(hhb.dim(t) + hhc.dim(t) == 0
                             for t in range(1, n_max + 1)))
        a0, bc0, e0, a1 = chase
        partial_ok = a0 <= bc0 and (bc0 - a0) <= e0 and a1 <= e0 - (bc0 - a0)
        out["chase"] = chase
        out["chase_exact"] = (tail_zero and partial_ok
                              and a0 - bc0 + e0 - a1 == 0)
    return out


def fullness_certificate(A: Algebra, coll: ExceptionalCollection,
                         n_max: int = 6) -> dict:
    """Compare total Hochschild homology with the collection length; each
    exceptional component contributes exactly one dimension, so equality
    certifies fullness modulo the Nonvanishing Conjecture."""
    hh = hh_homology(A, n_max)
    gd = global_dimension(A, n_max)
    if gd is None:
        raise RangeNotCertified(
            f"global dimension exceeds {n_max}; total HH_* not certified")
    total = hh.total()
    m = len(coll)
    if m == total:
        verdict = "full modulo Nonvanishing Conjecture"
    elif m < total:
        verdict = "not full"
    else:
        verdict = "inconsistent"
    return {"hh_total": total, "collection_length": m, "verdict": verdict,
            "hh_homology": hh}
