"""Built-in algebra catalog.

Every entry rebuilds deterministically; `structure_hash` fingerprints the
basis labels and multiplication table so integrity is testable.
"""

from __future__ import annotations

import hashlib

from .algebra import Algebra, PathAlgebra, Quiver, Relation, build_path_algebra
from .linalg import QQ, FieldSpec
from .modules import free_gluing_bimodule, triangular_gluing


def _kronecker(n: int, field: FieldSpec) -> PathAlgebra:
    arrows = tuple((chr(ord("a") + i), "1", "2") for i in range(n))
    return build_path_algebra(Quiver.make(("1", "2"), arrows), [], field)


def _beilinson_p2(field: FieldSpec) -> PathAlgebra:
    arrows = [(f"x{i}", "1", "2") for i in range(3)] + \
        [(f"y{i}", "2", "3") for i in range(3)]
    rels = [Relation(((1, (f"x{i}", f"y{j}")), (-1, (f"x{j}", f"y{i}"))))
            for i in range(3) for j in range(3) if i < j]
    return build_path_algebra(Quiver.make(("1", "2", "3"), arrows), rels, field)


def _loop_x2(field: FieldSpec) -> PathAlgebra:
    q = Quiver.make(("1",), (("x", "1", "1"),))
    return build_path_algebra(q, [Relation(((1, ("x", "x")),))], field)


def _kxk(field: FieldSpec) -> PathAlgebra:
    return build_path_algebra(Quiver.make(("1", "2"), ()), [], field)


def _point(field: FieldSpec) -> PathAlgebra:
    return build_path_algebra(Quiver.make(("1",), ()), [], field)


class CatalogEntry:
    def __init__(self, name, description, build, gluing_rank=None,
                 has_collection=True):
        self.name = name
        self.description = description
        self._build = build
        self.gluing_rank = gluing_rank    # m = k^rank over b = c = k, if any
        self.has_collection = has_collection

    def algebra(self, field: FieldSpec = QQ) -> PathAlgebra:
        return self._build(field)

    def gluing(self, field: FieldSpec = QQ):
        """(b, c, m) data for entries that arise as one-point gluings."""
        if self.gluing_rank is None:
            return None
        b = _point(field)
        c = _point(field)
        m = free_gluing_bimodule(b, c, self.gluing_rank)
        return b, c, m


def _kronecker3_gluing(field: FieldSpec) -> PathAlgebra:
    b = _point(field)
    c = _point(field)
    return triangular_gluing(b, c, free_gluing_bimodule(b, c, 3))


CATALOG = {
    "kronecker1": CatalogEntry(
        "kronecker1", "2 vertices, 1 arrow (the A2 quiver)",
        lambda f: _kronecker(1, f), gluing_rank=1),
    "kronecker2": CatalogEntry(
        "kronecker2", "2 vertices, 2 parallel arrows (Beilinson quiver of P^1)",
        lambda f: _kronecker(2, f), gluing_rank=2),
    "kronecker3": CatalogEntry(
        "kronecker3", "2 vertices, 3 parallel arrows (quiver of the d=5 "
        "Fano component)", lambda f: _kronecker(3, f), gluing_rank=3),
    "beilinson-p1": CatalogEntry(
        "beilinson-p1", "alias of kronecker2",
        lambda f: _kronecker(2, f), gluing_rank=2),
    "beilinson-p2": CatalogEntry(
        "beilinson-p2", "Beilinson quiver of P^2 with commutativity relations",
        _beilinson_p2),
    "loop-x2": CatalogEntry(
        "loop-x2", "k[x]/x^2 (one vertex, one loop, relation x*x)",
        _loop_x2, has_collection=False),
    "a2-quiver": CatalogEntry(
        "a2-quiver", "path algebra of 1 -> 2", lambda f: _kronecker(1, f),
        gluing_rank=1),
    "kronecker3-gluing": CatalogEntry(
        "kronecker3-gluing", "triangular gluing b = c = k, m = k^3 "
        "(isomorphic to kronecker3)", _kronecker3_gluing, gluing_rank=3),
    "kxk": CatalogEntry(
        "kxk", "two vertices, no arrows (k x k)", _kxk),
}


def catalog_names():
    return sorted(CATALOG)


def get_entry(name: str) -> CatalogEntry:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"known: {', '.join(catalog_names())}")
    return CATALOG[name]


def structure_hash(A: Algebra) -> str:
    """SHA-256 of one string: the field, each label ended by NUL, each
    product term "i,j,k,c;" in sorted order, and the idempotents."""
    terms = sorted((i, j, k, c) for (i, j), x in A.mult.items()
                   for k, c in x.items())
    text = "".join((repr(A.field), *(lbl + "\0" for lbl in A.labels),
                    *("%s,%s,%s,%s;" % t for t in terms),
                    ",".join(map(str, A.idempotents))))
    return hashlib.sha256(text.encode()).hexdigest()
