"""Command-line interface.

Exit codes: 0 success, 1 a verification check failed, 2 input error.
Input quivers come from the built-in catalog (--catalog) or a JSON file
(--file) with schema

    {"field": {"kind": "q"} | {"kind": "fp", "p": <prime>},
     "vertices": ["v1", ...],
     "arrows": [{"name": "a", "source": "v1", "target": "v2"}, ...],
     "relations": [[{"coeff": "<integer or rational>", "path": ["a","b"]}], ...]}

where each relation path lists arrow names in traversal order
(source-to-target); they are converted to the internal function-style
composition on load.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import (NonAdmissible, NotFiniteDimensional, Quiver, Relation,
                      build_path_algebra, center)
from .catalog import CATALOG, catalog_names, get_entry, structure_hash
from .complexes import ext_profile, serre_twist_left, single_projective
from .exceptional import (ExceptionalCollection, NotExceptional, NotFull,
                          bdi_check, dual_collection, mutate,
                          projective_collection, sod_project)
from .hochschild import (global_dimension, hh_cohomology, hh_homology,
                         hh_with_coefficients, homology_via_serre_dual,
                         simple_resolution)
from .kernels import (NormalizationFailed, RangeNotCertified,
                      additivity_check, fullness_certificate, generalized_hoh,
                      k0_identity_check, les_check, orthogonality_report,
                      projection_kernels)
from .linalg import GF, QQ, FieldSpec, Matrix, too_many_digits
from .modules import Bimodule, ModuleAxiomError, bimodule_from_actions, \
    dual_bimodule, regular_bimodule, simple_module
from .report import Report


class SchemaError(ValueError):
    """Input document violates the quiver JSON schema."""


class IoError(OSError):
    pass


class QuiverDocument:
    def __init__(self, field, vertices, arrows, relations, name=None):
        self.field = field
        self.vertices = vertices
        self.arrows = arrows
        self.relations = relations
        self.name = name

    def build(self):
        quiver = Quiver.make(self.vertices, self.arrows)
        return build_path_algebra(quiver, self.relations, self.field)


def _is_digits(s):
    return isinstance(s, str) and s.isascii() and s.isdigit()


def _prime_field(p: int, where):
    try:
        return GF(p)
    except ValueError as exc:   # not prime, or too large to decide
        raise SchemaError(f"{where}: {exc}") from exc


def parse_field_spec(obj, where="field") -> FieldSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(f"{where}: expected an object with a 'kind' key")
    if obj["kind"] == "q":
        return QQ
    if obj["kind"] == "fp":
        if "p" not in obj:
            raise SchemaError(f"{where}: prime-field spec needs 'p'")
        p = obj["p"]
        if _is_digits(p):
            p = int(p)
        if type(p) is not int:   # a float or a bool is refused, not truncated
            raise SchemaError(f"{where}.p: expected a prime integer, got {p!r}")
        return _prime_field(p, f"{where}.p")
    raise SchemaError(f"{where}.kind: expected 'q' or 'fp', got {obj['kind']!r}")


def parse_quiver_document(doc) -> QuiverDocument:
    if not isinstance(doc, dict):
        raise SchemaError(f"document: expected an object, got {doc!r}")
    for key in ("field", "vertices", "arrows", "relations"):
        if key not in doc:
            raise SchemaError(f"missing required key {key!r}")
    field = parse_field_spec(doc["field"])
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise SchemaError("vertices: expected a list of names")
    declared = set()
    for i, v in enumerate(vertices):
        if v in declared:
            raise SchemaError(f"vertices[{i}]: duplicate vertex name {v!r}")
        declared.add(v)
    for key in ("arrows", "relations"):
        if not isinstance(doc[key], list):
            raise SchemaError(f"{key}: expected a list, got {doc[key]!r}")
    arrows = []
    arrow_names = set()
    for i, a in enumerate(doc["arrows"]):
        if not isinstance(a, dict):
            raise SchemaError(f"arrows[{i}]: expected an object, got {a!r}")
        for key in ("name", "source", "target"):
            if key not in a:
                raise SchemaError(f"arrows[{i}]: missing {key!r}")
            if not isinstance(a[key], str):
                raise SchemaError(f"arrows[{i}].{key}: expected a string, got {a[key]!r}")
        if a["source"] not in declared:
            raise SchemaError(f"arrows[{i}].source: unknown vertex {a['source']!r}")
        if a["target"] not in declared:
            raise SchemaError(f"arrows[{i}].target: unknown vertex {a['target']!r}")
        if a["name"] in declared or a["name"] in arrow_names:
            raise SchemaError(f"arrows[{i}].name: {a['name']!r} names a "
                              "vertex or an earlier arrow")
        arrow_names.add(a["name"])
        arrows.append((a["name"], a["source"], a["target"]))
    relations = []
    for i, rel in enumerate(doc["relations"]):
        if not isinstance(rel, list) or not rel:
            raise SchemaError(f"relations[{i}]: expected a nonempty list of terms")
        terms = []
        for j, term in enumerate(rel):
            if not isinstance(term, dict):
                raise SchemaError(f"relations[{i}][{j}]: expected an object, got {term!r}")
            if "coeff" not in term or "path" not in term:
                raise SchemaError(f"relations[{i}][{j}]: needs 'coeff' and 'path'")
            path = term["path"]
            if not isinstance(path, list) or not all(isinstance(n, str) for n in path):
                raise SchemaError(f"relations[{i}][{j}].path: expected a list "
                                  f"of arrow names, got {path!r}")
            if len(path) < 2:
                raise SchemaError(
                    f"relations[{i}][{j}].path: length {len(path)} < 2 "
                    "(relations must be admissible)")
            for name in path:
                if name not in arrow_names:
                    raise SchemaError(
                        f"relations[{i}][{j}].path: unknown arrow {name!r}")
            try:
                coeff = field.coerce(term["coeff"])
            except ValueError as exc:
                raise SchemaError(f"relations[{i}][{j}].coeff: {exc}") from exc
            terms.append((coeff, tuple(path)))
        relations.append(Relation(tuple(terms)))
    return QuiverDocument(field, tuple(vertices), tuple(arrows),
                          tuple(relations), doc.get("name"))


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except ValueError as exc:   # an integer literal over the digit limit
        raise SchemaError(f"{path}: {too_many_digits()}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: arrays or objects nested too deeply "
                          "to read") from exc


def parse_quiver_file(path) -> QuiverDocument:
    return parse_quiver_document(_read_json(path))


def parse_bimodule_file(path, A) -> Bimodule:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"bimodule file: expected an object, got {doc!r}")
    for key in ("dimension", "left_action", "right_action"):
        if key not in doc:
            raise SchemaError(f"bimodule file: missing {key!r}")
    d = doc["dimension"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise SchemaError(f"dimension: expected a nonnegative integer, got {d!r}")
    label_pos = {lbl: i for i, lbl in enumerate(A.labels)}

    def load(mats, which):
        """The supplied matrices, {basis index: Matrix}, all validated."""
        if not isinstance(mats, dict):
            raise SchemaError(f"{which}: expected an object mapping basis "
                              f"labels to matrices, got {mats!r}")
        if d and not mats:
            raise SchemaError(f"{which}: no matrix given, so the unit cannot "
                              f"act as the identity in dimension {d}")
        out = {}
        for lbl, rows in mats.items():
            if lbl not in label_pos:
                raise SchemaError(f"{which}: unknown basis label {lbl!r}")
            if (not isinstance(rows, list) or len(rows) != d
                    or any(not isinstance(row, list) or len(row) != d
                           for row in rows)):
                raise SchemaError(f"{which}.{lbl}: expected a {d} x {d} matrix")
            try:
                out[label_pos[lbl]] = Matrix.from_rows(A.field, rows, d)
            except ValueError as exc:
                raise SchemaError(f"{which}.{lbl}: {exc}") from exc
        return out

    left = load(doc["left_action"], "left_action")
    right = load(doc["right_action"], "right_action")

    def filled(mats):   # zero matrices for the omitted labels
        return [mats[k] if k in mats else Matrix.zeros(A.field, d, d)
                for k in range(A.dim)]
    try:
        return bimodule_from_actions(A, A, filled(left), filled(right),
                                     check=True)
    except ModuleAxiomError as exc:
        raise SchemaError(f"bimodule file: {exc}") from exc


# ---------------------------------------------------------------------------


def _field_from_flag(s: str) -> FieldSpec:
    if s == "q":
        return QQ
    if s.startswith("fp:") and _is_digits(s[3:]):
        return _prime_field(int(s[3:]), "--field")
    raise SchemaError(f"--field: expected 'q' or 'fp:<prime>', got {s!r}")


def _catalog_entry(name):
    try:
        return get_entry(name)
    except KeyError as exc:
        raise SchemaError(exc.args[0]) from exc


def _load_algebra(args):
    field = _field_from_flag(args.field)
    if args.catalog and args.file:
        raise SchemaError("--catalog and --file are mutually exclusive")
    if args.catalog:
        entry = _catalog_entry(args.catalog)
        return entry.algebra(field), entry
    if args.file:
        return parse_quiver_file(args.file).build(), None
    raise SchemaError("one of --catalog or --file is required")


def _algebra_summary(A, report: Report):
    """Write the algebra section; returns dim Z(A) for reuse."""
    cdim, _ = center(A)
    report.set("algebra", {
        "dimension": A.dim,
        "vertices": list(A.vertex_names),
        "basis": list(A.labels),
        "center_dimension": cdim,
        "radical_nilpotency_index": A.radical_nilpotency_index(),
        "global_dimension": global_dimension(A, 12),
        "field": repr(A.field),
        "structure_hash": structure_hash(A),
    })
    return cdim


def cmd_info(args, report):
    A, entry = _load_algebra(args)
    _algebra_summary(A, report)
    if entry:
        report.set("catalog_entry", {"name": entry.name,
                                     "description": entry.description})
    return 0


def cmd_cohomology(args, report):
    A, _ = _load_algebra(args)
    cdim = _algebra_summary(A, report)
    prof = hh_cohomology(A, args.max_degree)
    report.set("hh_cohomology", prof)
    report.check("HH^0 equals dim center", prof.dim(0) == cdim,
                 {"hh0": prof.dim(0), "center": cdim})
    return 0


def cmd_homology(args, report):
    A, _ = _load_algebra(args)
    _algebra_summary(A, report)
    prof = hh_homology(A, args.max_degree)
    serre = homology_via_serre_dual(A, args.max_degree)
    report.set("hh_homology", prof)
    report.set("ext_to_serre_kernel", serre)
    report.check("HH_* equals Ext(A, DA) degreewise",
                 prof.as_tuple() == serre.as_tuple())
    return 0


def cmd_coeffs(args, report):
    A, _ = _load_algebra(args)
    _algebra_summary(A, report)
    if args.bimodule == "diagonal":
        M = regular_bimodule(A)
    elif args.bimodule == "serre":
        M = dual_bimodule(A)
    else:
        M = parse_bimodule_file(args.bimodule, A)
    prof = hh_with_coefficients(A, M, args.max_degree)
    report.set("bimodule", args.bimodule)
    report.set("hh_with_coefficients", prof)
    return 0


def cmd_generalized(args, report):
    A, _ = _load_algebra(args)
    _algebra_summary(A, report)
    if args.coeff == "diagonal":
        e = "diagonal"
    elif args.coeff.startswith("P"):
        try:
            idx = int(args.coeff[1:])
        except ValueError:
            raise SchemaError(f"--coeff: expected 'diagonal' or 'P<i>' with "
                              f"an integer i, got {args.coeff!r}") from None
        coll = projective_collection(A)
        if not 1 <= idx <= len(coll):
            raise SchemaError(f"--coeff: index {idx} out of range")
        e = projection_kernels(coll)[idx - 1]
    else:
        raise SchemaError(f"--coeff: expected 'diagonal' or 'P<i>', got "
                          f"{args.coeff!r}")
    prof = generalized_hoh(e, args.support, args.max_degree, algebra=A)
    report.set("support", args.support)
    report.set("coefficients", args.coeff)
    report.set("generalized_hoh", prof)
    return 0


def cmd_serre_check(args, report):
    A, _ = _load_algebra(args)
    _algebra_summary(A, report)
    n = args.max_degree
    probes = [("P", v, single_projective(A, v)) for v in range(A.num_vertices)]
    probes += [("S", v, simple_resolution(A, v, "left", n + 1))
               for v in range(A.num_vertices)]
    twisted = [serre_twist_left(Y) for _, _, Y in probes]
    # an S-probe with no term at -(n+1) has ended: X -> S_x is a
    # quasi-isomorphism, so Ext(Y, X) = Ext(Y, S_x) for the bounded
    # complexes of projectives Y
    reverse = [simple_module(A, vx) if kx == "S" and -(n + 1) not in X.terms
               else X for kx, vx, X in probes]
    table = {}
    ok = True
    for (kx, vx, X), RX in zip(probes, reverse):
        for (ky, vy, Y), SY in zip(probes, twisted):
            lhs = ext_profile(X, SY)
            rhs = ext_profile(Y, RX)
            match = all(lhs.get(d, 0) == rhs.get(-d, 0)
                        for d in range(-n, n + 1))
            ok = ok and match
            table[f"{kx}{vx + 1},{ky}{vy + 1}"] = {
                "ext_to_serre": dict(sorted(lhs.items())),
                "ext_reverse": dict(sorted(rhs.items())),
                "match": match,
            }
    report.set("serre_duality_table", table)
    report.check("Serre duality dims: Ext^n(X, S Y) = Ext^{-n}(Y, X)", ok)
    return 0


def _terms(X):
    return {str(k): list(v) for k, v in X.terms.items()}


def cmd_collection(args, report):
    A, _ = _load_algebra(args)
    _algebra_summary(A, report)
    coll = projective_collection(A)
    report.set("collection", [{"terms": _terms(o)} for o in coll.objects])
    if args.subcommand == "check":
        report.set("violations", coll.violations)
        report.check("exceptional collection", not coll.violations)
    elif args.subcommand == "mutate":
        if args.index is None or args.dir not in ("left", "right"):
            raise SchemaError("mutate needs --index and --dir left|right")
        lo, hi = (1, len(coll) - 1) if args.dir == "left" else (2, len(coll))
        if not lo <= args.index <= hi:
            raise SchemaError(f"--index: {args.dir} mutation index "
                              f"{args.index} is outside the valid range "
                              f"{lo}..{hi}")
        new = mutate(coll, args.index, args.dir)
        report.set("mutated", [{"terms": _terms(o)} for o in new.objects])
        report.check("mutated collection is exceptional", True)
    elif args.subcommand == "dual":
        duals, shifts = dual_collection(coll)
        report.set("dual_objects", [{"terms": _terms(d), "shift": s}
                                    for d, s in zip(duals, shifts)])
        report.check("delta-property Hom tables",
                     all(bdi_check(coll, i + 1, (duals, shifts))
                         for i in range(len(coll))))
    elif args.subcommand == "project":
        obj = _parse_object_spec(args.object, A)
        try:
            tower = sod_project(obj, coll)
        except NotFull as exc:
            report.check("projection tower", False, str(exc))
            return 1
        report.set("factors", [
            {"terms": _terms(F), "k0_class": F.euler_class()}
            for F in tower.factors])
        report.set("object_k0_class", tower.object.euler_class())
        report.check("K0 classes of factors sum to the object class",
                     tower.k0_checks["k0_additive"])
    else:
        raise SchemaError(f"unknown collection subcommand {args.subcommand!r}")
    return 0


def _parse_object_spec(spec, A):
    if not spec:
        raise SchemaError("--object is required (P<v> or S<v>)")
    kind, num = spec[0], spec[1:]
    try:
        v = int(num) - 1
    except ValueError as exc:
        raise SchemaError(f"--object: bad spec {spec!r}") from exc
    if not 0 <= v < A.num_vertices:
        raise SchemaError(f"--object: vertex index out of range in {spec!r}")
    if kind == "P":
        return single_projective(A, v)
    if kind == "S":
        return simple_resolution(A, v, "left", 2 * A.dim)
    raise SchemaError(f"--object: bad spec {spec!r}")


def cmd_kernels(args, report):
    A, _ = _load_algebra(args)
    _algebra_summary(A, report)
    coll = projective_collection(A)
    if args.subcommand == "build":
        ks = projection_kernels(coll)
        report.set("projection_kernels", [
            {"left_terms": _terms(P.left), "right_terms": _terms(P.right)}
            for P in ks])
        report.check("K0 identity: sum of kernel classes equals the "
                     "diagonal class", k0_identity_check(ks, A))
    elif args.subcommand == "orthogonality":
        rep = orthogonality_report(projection_kernels(coll))
        report.set("ext_serre_table", rep["ext_serre_table"])
        report.set("adjoint_convolutions", rep["adjoint_convolutions"])
        report.check("off-diagonal Ext(P_i, P_j o S) vanish",
                     rep["offdiagonal_zero"])
        report.check("diagonal Ext(P_i, P_i o S) = k", rep["diagonal_identity"])
        report.check("adjoint convolutions vanish", rep["adjoint_vanishing"])
    elif args.subcommand == "additivity":
        add = additivity_check(A, coll, args.max_degree)
        report.set("hh_homology", add["hh_homology"])
        report.set("summands", add["summands"])
        report.check("HH_n(A) = sum of Ext^n(P_i, P_i o S)",
                     add["degreewise_equal"])
        report.check("each summand is (1, 0, ...)", add["summands_are_points"])
    else:
        raise SchemaError(f"unknown kernels subcommand {args.subcommand!r}")
    return 0


def cmd_les_check(args, report):
    field = _field_from_flag(args.field)
    if not args.catalog:
        raise SchemaError("les-check needs --catalog naming a gluing entry")
    entry = _catalog_entry(args.catalog)
    data = entry.gluing(field)
    if data is None:
        raise SchemaError(
            f"catalog entry {entry.name!r} carries no gluing data")
    b, c, m = data
    res = les_check(b, c, m, args.max_degree)
    _algebra_summary(res["glued"], report)
    report.set("hh_glued", res["hh_glued"])
    report.set("hh_b", res["hh_b"])
    report.set("hh_c", res["hh_c"])
    report.set("ext_mm", res["ext_mm"])
    report.set("euler_sum", res["euler_sum"])
    report.check("Euler identity", res["euler_zero"])
    if res["hereditary"]:
        report.set("chase", list(res["chase"]))
        report.check("five-term dimension chase "
                     "0 -> HH^0(A) -> HH^0(b)+HH^0(c) -> Ext^0(m,m) -> "
                     "HH^1(A) -> 0", res["chase_exact"])
    return 0


def cmd_fullness(args, report):
    A, _ = _load_algebra(args)
    _algebra_summary(A, report)
    coll = projective_collection(A)
    if args.objects is not None:
        m = len(coll)
        picks = []
        for token in args.objects.split(","):
            if not token.strip():
                raise SchemaError(f"--objects: empty index in "
                                  f"{args.objects!r}")
            try:
                i = int(token)
            except ValueError:
                raise SchemaError(f"--objects: {token.strip()!r} is not an "
                                  "integer index") from None
            if not 1 <= i <= m:
                raise SchemaError(f"--objects: index {i} is outside the "
                                  f"valid range 1..{m}")
            if i - 1 in picks:
                raise SchemaError(f"--objects: index {i} is repeated")
            picks.append(i - 1)
        # a subcollection keeps the collection's order, and its errors
        # would name positions in it, not the indices given here
        for prev, i in zip(picks, picks[1:]):
            if i < prev:
                raise SchemaError(f"--objects: index {i + 1} follows index "
                                  f"{prev + 1}; list the indices in "
                                  "increasing order")
        coll = ExceptionalCollection(A, [coll.objects[i] for i in picks])
    cert = fullness_certificate(A, coll, args.max_degree)
    report.set("hh_homology", cert["hh_homology"])
    report.set("collection_length", cert["collection_length"])
    report.set("hh_total", cert["hh_total"])
    report.set("verdict", cert["verdict"])
    report.check("certificate is consistent", cert["verdict"] != "inconsistent")
    return 0


def cmd_catalog(args, report):
    if args.subcommand == "list":
        report.set("entries", [
            {"name": n, "description": CATALOG[n].description}
            for n in catalog_names()])
        return 0
    if args.subcommand == "show":
        if args.name is None:
            raise SchemaError("catalog show needs an entry name; known: "
                              + ", ".join(catalog_names()))
        entry = _catalog_entry(args.name)
        A = entry.algebra(_field_from_flag(args.field))
        _algebra_summary(A, report)
        report.set("catalog_entry", {"name": entry.name,
                                     "description": entry.description})
        report.set("relations", [
            [{"coeff": str(cf), "path": list(p)} for cf, p in rel.terms]
            for rel in A.relations])
        return 0
    raise SchemaError(f"unknown catalog subcommand {args.subcommand!r}")


# ---------------------------------------------------------------------------


def _degree(s: str) -> int:
    try:
        n = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {n}")
    return n


@functools.cache
def build_parser():
    """The argument parser, built on first use and kept for the process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog", help="built-in algebra name")
    common.add_argument("--file", help="quiver JSON document")
    common.add_argument("--max-degree", type=_degree, default=6)
    common.add_argument("--field", default="q", help="q or fp:<prime>")
    common.add_argument("--format", default="table", choices=("json", "table"))
    p = argparse.ArgumentParser(
        prog="sodhh",
        description="Hochschild (co)homology of quiver path algebras and "
                    "semiorthogonal components, in exact arithmetic")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("info", parents=[common])
    sub.add_parser("cohomology", parents=[common])
    sub.add_parser("homology", parents=[common])
    sp = sub.add_parser("coeffs", parents=[common])
    sp.add_argument("--bimodule", required=True,
                    help="diagonal | serre | <bimodule json file>")
    sp = sub.add_parser("generalized", parents=[common])
    sp.add_argument("--support", required=True, choices=("diagonal", "serre"))
    sp.add_argument("--coeff", default="diagonal", help="diagonal | P<i>")
    sub.add_parser("serre-check", parents=[common])
    sp = sub.add_parser("collection", parents=[common])
    sp.add_argument("subcommand", choices=("check", "mutate", "dual", "project"))
    sp.add_argument("--index", type=int)
    sp.add_argument("--dir", choices=("left", "right"))
    sp.add_argument("--object", help="P<v> or S<v>")
    sp = sub.add_parser("kernels", parents=[common])
    sp.add_argument("subcommand", choices=("build", "orthogonality", "additivity"))
    sub.add_parser("les-check", parents=[common])
    sp = sub.add_parser("fullness", parents=[common])
    sp.add_argument("--objects", help="comma-separated 1-based subcollection")
    sp = sub.add_parser("catalog", parents=[common])
    sp.add_argument("subcommand", choices=("list", "show"))
    sp.add_argument("name", nargs="?")
    return p


COMMANDS = {
    "info": cmd_info,
    "cohomology": cmd_cohomology,
    "homology": cmd_homology,
    "coeffs": cmd_coeffs,
    "generalized": cmd_generalized,
    "serre-check": cmd_serre_check,
    "collection": cmd_collection,
    "kernels": cmd_kernels,
    "les-check": cmd_les_check,
    "fullness": cmd_fullness,
    "catalog": cmd_catalog,
}


def run_command(argv):
    """Dispatch a CLI invocation; returns (exit code, Report)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(" ".join(["sodhh"] + list(argv)))
    report.format_hint = args.format
    try:
        code = COMMANDS[args.command](args, report)
    except (NormalizationFailed, RangeNotCertified, NotFull) as exc:
        report.set("error", str(exc))
        report.check(type(exc).__name__, False, str(exc))
        return 1, report
    except (SchemaError, IoError, NonAdmissible, NotFiniteDimensional,
            NotExceptional) as exc:   # the input's faults; others propagate
        report.set("error", str(exc))
        return 2, report
    if code == 0 and not report.all_passed():
        code = 1
    return code, report


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code, report = run_command(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    text = report.to_json() if report.format_hint == "json" \
        else report.to_table()
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
