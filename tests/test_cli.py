import json

import pytest

from sodhh.algebra import AlgebraAxiomError
from sodhh.catalog import CATALOG, catalog_names, structure_hash
from sodhh.cli import (SchemaError, parse_quiver_document, parse_quiver_file,
                       run_command)
from sodhh.complexes import ComplexError, SideMismatch
from sodhh.linalg import QQ, ShapeError
from sodhh.modules import ModuleAxiomError


KRON3_DOC = {
    "field": {"kind": "q"},
    "vertices": ["1", "2"],
    "arrows": [{"name": "a", "source": "1", "target": "2"},
               {"name": "b", "source": "1", "target": "2"},
               {"name": "c", "source": "1", "target": "2"}],
    "relations": [],
}


def test_parse_valid_document():
    doc = parse_quiver_document(KRON3_DOC)
    assert len(doc.vertices) == 2 and len(doc.arrows) == 3
    A = doc.build()
    assert A.dim == 5


def test_parse_relation_too_short():
    bad = dict(KRON3_DOC)
    bad["relations"] = [[{"coeff": "1", "path": ["a"]}]]
    with pytest.raises(SchemaError) as exc:
        parse_quiver_document(bad)
    assert "relations[0]" in str(exc.value)


def test_parse_unknown_vertex():
    bad = dict(KRON3_DOC)
    bad["arrows"] = [{"name": "a", "source": "1", "target": "3"}]
    with pytest.raises(SchemaError) as exc:
        parse_quiver_document(bad)
    assert "unknown vertex" in str(exc.value)


def test_parse_missing_key():
    bad = {k: v for k, v in KRON3_DOC.items() if k != "vertices"}
    with pytest.raises(SchemaError):
        parse_quiver_document(bad)


def test_file_with_relations(tmp_path):
    doc = {
        "field": {"kind": "q"},
        "vertices": ["1"],
        "arrows": [{"name": "x", "source": "1", "target": "1"}],
        "relations": [[{"coeff": "1", "path": ["x", "x"]}]],
    }
    p = tmp_path / "loop.json"
    p.write_text(json.dumps(doc))
    parsed = parse_quiver_file(p)
    assert parsed.build().dim == 2


def test_truncated_polynomial_file_at_the_length_cap(tmp_path):
    """k[x]/(x^5) has a residue word of length 4, the length cap of one
    arrow, and none of length 5: `info` builds it."""
    doc = {
        "field": {"kind": "q"},
        "vertices": ["1"],
        "arrows": [{"name": "x", "source": "1", "target": "1"}],
        "relations": [[{"coeff": "1", "path": ["x"] * 5}]],
    }
    p = tmp_path / "x5.json"
    p.write_text(json.dumps(doc))
    code, report = run_command(["info", "--file", str(p)])
    assert code == 0
    assert report.data["algebra"]["dimension"] == 5


def test_cohomology_command_kronecker3():
    code, report = run_command(
        ["cohomology", "--catalog", "kronecker3", "--max-degree", "4"])
    assert code == 0
    assert report.data["hh_cohomology"]["dims"] == [1, 8, 0, 0, 0]


def test_les_check_command():
    code, report = run_command(["les-check", "--catalog", "kronecker3-gluing"])
    assert code == 0
    assert report.data["chase"] == [1, 2, 9, 8]
    assert report.data["euler_sum"] == 0


def test_bad_file_exit_2():
    code, report = run_command(["cohomology", "--file", "/does/not/exist.json"])
    assert code == 2
    assert "error" in report.data


def test_bad_catalog_exit_2():
    code, report = run_command(["cohomology", "--catalog", "nope"])
    assert code == 2


def test_schema_error_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({
        "field": {"kind": "q"}, "vertices": ["1"],
        "arrows": [{"name": "x", "source": "1", "target": "1"}],
        "relations": [[{"coeff": "1", "path": ["x"]}]]}))
    code, report = run_command(["cohomology", "--file", str(p)])
    assert code == 2
    assert "relations[0]" in report.data["error"]


def _info_error(path, data):
    path.write_bytes(data)
    code, report = run_command(["info", "--file", str(path)])
    assert code == 2
    return report.data["error"]


def test_over_long_integer_literal_exit_2(tmp_path):
    p = tmp_path / "big.json"
    doc = json.dumps({**KRON3_DOC, "relations": [[{"coeff": 0, "path": ["a"]}]]})
    error = _info_error(p, doc.replace('"coeff": 0', '"coeff": ' + "9" * 5000)
                        .encode())
    assert error == (f"{p}: an integer has more than 4300 digits, the limit "
                     "on integers read from text")


def test_file_not_utf8_exit_2(tmp_path):
    p = tmp_path / "utf16.json"
    error = _info_error(p, b"\xff\xfe" + json.dumps(KRON3_DOC).encode("utf-16-le"))
    assert error == f"{p}: not UTF-8 text (byte 0)"


def test_deeply_nested_file_exit_2(tmp_path):
    p = tmp_path / "deep.json"
    error = _info_error(p, b"[" * 200000)
    assert error == f"{p}: arrays or objects nested too deeply to read"


def test_collection_on_undirected_exit_2():
    code, report = run_command(["collection", "check", "--catalog", "loop-x2"])
    assert code == 2


def test_report_determinism():
    runs = []
    for _ in range(2):
        code, report = run_command(
            ["kernels", "orthogonality", "--catalog", "kronecker2"])
        assert code == 0
        runs.append(report.to_json())
    assert runs[0] == runs[1]
    code, report = run_command(
        ["kernels", "orthogonality", "--catalog", "kronecker2"])
    assert report.to_table() is not None


def test_json_round_trip():
    code, report = run_command(["homology", "--catalog", "beilinson-p2"])
    text = report.to_json()
    assert json.loads(text) == report.data


def test_table_profile_columns():
    code, report = run_command(
        ["cohomology", "--catalog", "kronecker3", "--max-degree", "2"])
    table = report.to_table()
    assert "n=0 n=1 n=2" in table
    assert "1   8   0" in table.replace("[", " ").replace("]", " ")


def test_catalog_list_and_show():
    code, report = run_command(["catalog", "list"])
    assert code == 0
    names = [e["name"] for e in report.data["entries"]]
    assert set(names) == set(CATALOG)
    code, report = run_command(["catalog", "show", "beilinson-p2"])
    assert code == 0
    assert len(report.data["relations"]) == 3


def test_catalog_integrity_hash_stable():
    for name, entry in CATALOG.items():
        h1 = structure_hash(entry.algebra(QQ))
        h2 = structure_hash(entry.algebra(QQ))
        assert h1 == h2, name


def test_field_flag_fp():
    code, report = run_command(
        ["cohomology", "--catalog", "kronecker3", "--field", "fp:32003"])
    assert code == 0
    assert report.data["hh_cohomology"]["dims"][:2] == [1, 8]
    code, _ = run_command(
        ["cohomology", "--catalog", "kronecker3", "--field", "fp:6"])
    assert code == 2


def test_mutate_command():
    code, report = run_command(
        ["collection", "mutate", "--index", "1", "--dir", "left",
         "--catalog", "beilinson-p2"])
    assert code == 0
    assert report.data["mutated"][0]["terms"] == {"0": [1], "-1": [2, 2, 2]}


def test_project_command():
    code, report = run_command(
        ["collection", "project", "--object", "S1", "--catalog", "kronecker2"])
    assert code == 0
    assert report.all_passed()


def test_fullness_commands():
    code, report = run_command(["fullness", "--catalog", "beilinson-p2"])
    assert code == 0
    assert report.data["verdict"] == "full modulo Nonvanishing Conjecture"
    code, report = run_command(
        ["fullness", "--objects", "1,3", "--catalog", "beilinson-p2"])
    assert code == 0
    assert report.data["verdict"] == "not full"


OBJECTS_ERRORS = {
    "0": "--objects: index 0 is outside the valid range 1..3",
    "-1": "--objects: index -1 is outside the valid range 1..3",
    "4": "--objects: index 4 is outside the valid range 1..3",
    "1,4": "--objects: index 4 is outside the valid range 1..3",
    "": "--objects: empty index in ''",
    "1,,2": "--objects: empty index in '1,,2'",
    "2,": "--objects: empty index in '2,'",
    "a": "--objects: 'a' is not an integer index",
    "1,1.5": "--objects: '1.5' is not an integer index",
    "1,1": "--objects: index 1 is repeated",
    "3,2,3": "--objects: index 3 is repeated",
}


@pytest.mark.parametrize("objects", list(OBJECTS_ERRORS))
def test_fullness_objects_out_of_range_exit_2(objects):
    """beilinson-p2's collection has three objects; an index outside 1..3,
    an empty or non-integer entry and a repeated index are input errors
    that name the flag and the entry."""
    code, report = run_command(
        ["fullness", "--objects", objects, "--catalog", "beilinson-p2"])
    assert code == 2
    assert report.data["error"] == OBJECTS_ERRORS[objects]


@pytest.mark.parametrize("objects,error", [
    ("3,1", "--objects: index 1 follows index 3; list the indices in "
            "increasing order"),
    ("2,1", "--objects: index 1 follows index 2; list the indices in "
            "increasing order")])
def test_fullness_objects_out_of_order_exit_2(objects, error):
    """A subcollection keeps the collection's order, so an order that does
    not increase is an input error that names the indices as given, not
    positions in the subcollection."""
    code, report = run_command(
        ["fullness", "--objects", objects, "--catalog", "beilinson-p2"])
    assert code == 2
    assert report.data["error"] == error


def test_golden_report():
    """Byte-stable serialization against a checked-in golden file."""
    import pathlib
    golden = pathlib.Path(__file__).with_name(
        "golden_kronecker1_cohomology.json").read_text()
    code, report = run_command(
        ["cohomology", "--catalog", "kronecker1", "--max-degree", "2",
         "--format", "json"])
    assert code == 0
    assert report.to_json() == golden


def test_coeffs_with_bimodule_file(tmp_path):
    """A bimodule given by explicit action matrices: k x k with only the
    e(1)-component, i.e. the simple bimodule at the vertex pair (1, 1)."""
    doc = {
        "dimension": 1,
        "left_action": {"e(1)": [[1]]},
        "right_action": {"e(1)": [[1]]},
    }
    p = tmp_path / "bim.json"
    p.write_text(json.dumps(doc))
    code, report = run_command(
        ["coeffs", "--bimodule", str(p), "--catalog", "kxk"])
    assert code == 0
    assert report.data["hh_with_coefficients"]["dims"][0] == 1


# kronecker1 (arrow a: 1 -> 2) on k^2: each side is a module, but
# a (x) 1 and 1 (x) e(1) do not commute
NON_COMMUTING_DOC = {
    "dimension": 2,
    "left_action": {"e(1)": [[0, 0], [0, 1]], "e(2)": [[1, 0], [0, 0]],
                    "a": [[0, 1], [0, 0]]},
    "right_action": {"e(1)": [[0, 0], [0, 1]], "e(2)": [[1, 0], [0, 0]],
                     "a": [[0, 0], [1, 0]]},
}


def test_coeffs_rejects_non_commuting_bimodule(tmp_path):
    p = tmp_path / "bim.json"
    p.write_text(json.dumps(NON_COMMUTING_DOC))
    code, report = run_command(
        ["coeffs", "--bimodule", str(p), "--catalog", "kronecker1"])
    assert code == 2
    assert "do not commute" in report.data["error"]


def test_bimodule_check_survives_optimized_python(tmp_path):
    """The bimodule axioms are checked by raising, not by assert, so
    `python -O` still rejects a bad file."""
    import os
    import pathlib
    import subprocess
    import sys
    import sodhh
    p = tmp_path / "bim.json"
    p.write_text(json.dumps(NON_COMMUTING_DOC))
    src = str(pathlib.Path(sodhh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [x for x in [env.get("PYTHONPATH")] if x])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "sodhh.cli", "coeffs", "--bimodule",
         str(p), "--catalog", "kronecker1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "do not commute" in proc.stdout


def test_bimodule_file_with_wrong_matrix_shape(tmp_path):
    doc = {"dimension": 2, "left_action": {"e(1)": [[1, 0]]},
           "right_action": {}}
    p = tmp_path / "bim.json"
    p.write_text(json.dumps(doc))
    code, report = run_command(
        ["coeffs", "--bimodule", str(p), "--catalog", "kronecker1"])
    assert code == 2
    assert "left_action.e(1)" in report.data["error"]


@pytest.mark.parametrize("doc, where", [
    (5, "bimodule file"),
    ({"dimension": 1, "left_action": [], "right_action": {}}, "left_action"),
    ({"dimension": 1, "left_action": {"e(1)": 5}, "right_action": {}},
     "left_action.e(1)"),
    ({"dimension": -1, "left_action": {}, "right_action": {}}, "dimension"),
    ({"dimension": "x", "left_action": {}, "right_action": {}}, "dimension"),
    ({"dimension": 1, "left_action": {"e(1)": [[1]], "e(2)": [[0]]},
      "right_action": {}}, "right_action"),
])
def test_malformed_bimodule_file_exit_2(tmp_path, doc, where):
    """A bimodule file of the wrong JSON shape is a schema error naming
    where it sits, not a traceback."""
    p = tmp_path / "bim.json"
    p.write_text(json.dumps(doc))
    code, report = run_command(
        ["coeffs", "--bimodule", str(p), "--catalog", "kxk"])
    assert code == 2
    assert report.data["error"].startswith(where + ":")


def test_bimodule_file_without_matrices_exits_before_allocating(tmp_path):
    """A side with no matrix cannot hold the unit's action; the file is
    refused before any matrix of the declared dimension is allocated."""
    import tracemalloc
    p = tmp_path / "bim.json"
    p.write_text(json.dumps({"dimension": 100000, "left_action": {},
                             "right_action": {}}))
    tracemalloc.start()
    try:
        code, report = run_command(
            ["coeffs", "--bimodule", str(p), "--catalog", "kxk"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert report.data["error"].startswith("left_action: no matrix given")
    assert peak < 2 ** 20


def _benchmark_inputs():
    """benchmark/inputs.py: the Beilinson quiver generator and the HKR
    closed forms, loaded from its file."""
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("field", [{"kind": "q"}, {"kind": "fp", "p": 32003}])
@pytest.mark.parametrize("n", [3, 4])
def test_beilinson_files_match_hkr(tmp_path, n, field):
    """CLI cohomology and homology of the generated Beilinson P^3 and P^4
    files equal the HKR closed forms."""
    _check_beilinson_file_against_hkr(tmp_path, n, field)


def test_beilinson_p5_file_matches_hkr(tmp_path):
    """The same for P^5 (dim 792) over Q."""
    _check_beilinson_file_against_hkr(tmp_path, 5, {"kind": "q"})


def _check_beilinson_file_against_hkr(tmp_path, n, field):
    inputs = _benchmark_inputs()
    p = tmp_path / "pn.json"
    p.write_text(json.dumps(inputs.beilinson_quiver_doc(n, field, seed=1)))
    max_degree = n + 1
    for command, key, closed in (
            ("cohomology", "hh_cohomology", inputs.hh_cohomology_pn),
            ("homology", "hh_homology", inputs.hh_homology_pn)):
        code, report = run_command([command, "--file", str(p),
                                    "--max-degree", str(max_degree)])
        assert code == 0
        assert report.data["algebra"]["dimension"] == inputs.beilinson_dim(n)
        assert report.data[key]["dims"] == closed(n, max_degree)


KERNEL_COMMANDS = (["kernels", "build"], ["kernels", "orthogonality"],
                   ["kernels", "additivity"],
                   ["generalized", "--coeff", "P1", "--support", "serre"])


def test_kernel_commands_take_ext_and_classes_from_the_factors(tmp_path,
                                                               monkeypatch):
    """The kernel commands on generated P^2 compute Ext and K_0 classes of
    the projection kernels over A and A^op: no kernel is expanded into a
    complex over A (x) A^op and twisted there by DA."""
    from sodhh import complexes, kernels
    called = []
    for module, name in ((kernels, "decomposable_to_env"),
                         (complexes, "tensor_env_module")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: called.append(name))
    p = tmp_path / "p2.json"
    p.write_text(json.dumps(_benchmark_inputs().beilinson_quiver_doc(
        2, {"kind": "q"}, seed=1)))
    for command in KERNEL_COMMANDS:
        code, _ = run_command(command + ["--file", str(p)])
        assert code == 0, command
    assert called == []


def test_kernel_commands_build_the_enveloping_algebra_once(tmp_path,
                                                          monkeypatch):
    """The kernel commands on a Koszul algebra, catalog beilinson-p2 and
    generated P^2, build A (x) A^op not even once: Ext and the K_0 classes
    come from the factors over A and A^op, the diagonal's class from K's
    ends and HH_* from K's terms."""
    p = tmp_path / "p2.json"
    p.write_text(json.dumps(_benchmark_inputs().beilinson_quiver_doc(
        2, {"kind": "q"}, seed=1)))
    built = count_builds(monkeypatch)
    for source in (["--catalog", "beilinson-p2"], ["--file", str(p)]):
        for command in KERNEL_COMMANDS:
            code, _ = run_command(command + source)
            assert code == 0 and built == [], (command, source)


def test_kernels_additivity_of_generated_p4(tmp_path):
    """HH_* of P^4 is (5, 0, ...), the sum of five point summands."""
    p = tmp_path / "p4.json"
    p.write_text(json.dumps(_benchmark_inputs().beilinson_quiver_doc(
        4, {"kind": "q"}, seed=1)))
    code, report = run_command(["kernels", "additivity", "--file", str(p)])
    assert code == 0 and report.all_passed()
    point = [1, 0, 0, 0, 0, 0, 0]
    assert report.data["hh_homology"]["dims"] == [5, 0, 0, 0, 0, 0, 0]
    assert [s["dims"] for s in report.data["summands"]] == [point] * 5


def test_length_cap_exit_2_names_word_and_cap(tmp_path):
    """k[x]/(x^6) reaches the length cap 4 with the word x^5."""
    p = tmp_path / "x6.json"
    p.write_text(json.dumps({
        "field": {"kind": "q"}, "vertices": ["1"],
        "arrows": [{"name": "x", "source": "1", "target": "1"}],
        "relations": [[{"coeff": "1", "path": ["x"] * 6}]]}))
    code, report = run_command(["info", "--file", str(p)])
    assert code == 2
    assert report.data["error"] == ("length cap 4 reached: a residue word of "
                                    "length 5 survives")


def test_negative_max_degree_is_rejected_at_parse_time(capsys):
    from sodhh.cli import main
    code = main(["cohomology", "--catalog", "kronecker2", "--max-degree", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--max-degree" in captured.err


def test_rational_relation_coefficients_end_to_end(tmp_path):
    """Beilinson P^2 with every relation scaled by -3/2 spans the same
    ideal, so the algebra and its Hochschild profiles are those of
    catalog beilinson-p2."""
    doc = {
        "field": {"kind": "q"},
        "vertices": ["1", "2", "3"],
        "arrows": [{"name": f"{x}{i}", "source": s, "target": t}
                   for x, s, t in (("x", "1", "2"), ("y", "2", "3"))
                   for i in range(3)],
        "relations": [[{"coeff": "-3/2", "path": [f"x{i}", f"y{j}"]},
                       {"coeff": "3/2", "path": [f"x{j}", f"y{i}"]}]
                      for i in range(3) for j in range(i + 1, 3)],
    }
    p = tmp_path / "p2.json"
    p.write_text(json.dumps(doc))
    for command, key in (("cohomology", "hh_cohomology"),
                         ("homology", "hh_homology")):
        code, scaled = run_command([command, "--file", str(p)])
        assert code == 0
        code, catalog = run_command([command, "--catalog", "beilinson-p2"])
        assert code == 0
        assert scaled.data["algebra"]["dimension"] == 15
        assert scaled.data[key]["dims"] == catalog.data[key]["dims"]


def test_module_run_has_empty_stderr():
    """`python -m sodhh.cli` runs without a RuntimeWarning about the
    package having imported sodhh.cli already."""
    import os
    import pathlib
    import subprocess
    import sys
    import sodhh
    src = str(pathlib.Path(sodhh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [x for x in [env.get("PYTHONPATH")] if x])
    proc = subprocess.run(
        [sys.executable, "-m", "sodhh.cli", "info", "--catalog", "kronecker2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""


def counting_wrapper(monkeypatch, name, modules):
    """Replace `name` in every listed sodhh module by one counting wrapper;
    returns the list of recorded first arguments."""
    import importlib
    mods = [importlib.import_module(f"sodhh.{m}") for m in modules]
    real = getattr(mods[0], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for mod in mods:
        assert getattr(mod, name) is real
        monkeypatch.setattr(mod, name, counting)
    return calls


def count_builds(monkeypatch):
    """Record the arguments of every build of an enveloping algebra
    B (x) C^op; returns the list."""
    from sodhh import algebra
    built = []
    init = algebra.TensorOpposite.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(algebra.TensorOpposite, "__init__", counting_init)
    return built


def linear_a4_cubic():
    """1 -a-> 2 -b-> 3 -c-> 4 with abc = 0: directed, not quadratic."""
    from sodhh.algebra import Quiver, Relation, build_path_algebra
    q = Quiver.make(("1", "2", "3", "4"),
                    (("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")))
    return build_path_algebra(q, [Relation(((1, ("a", "b", "c")),))], QQ)


def test_cohomology_resolves_each_simple_once(monkeypatch):
    """Each simple is resolved at most once per call, and not at all on a
    Koszul algebra: the summary's global dimension is read from the one
    Koszul resolution that HH^* is then computed over."""
    calls = counting_wrapper(monkeypatch, "projective_resolution",
                             ["complexes", "hochschild", "kernels"])
    koszul = counting_wrapper(monkeypatch, "_koszul_terms", ["hochschild"])
    code, _ = run_command(["cohomology", "--catalog", "beilinson-p2"])
    assert code == 0
    assert calls == [] and len(koszul) == 1


def test_kernels_additivity_builds_kernels_once(monkeypatch):
    calls = counting_wrapper(monkeypatch, "projection_kernels",
                             ["kernels", "cli"])
    code, _ = run_command(["kernels", "additivity", "--catalog",
                           "beilinson-p2"])
    assert code == 0
    assert len(calls) == 1


def test_kernel_commands_slice_the_right_factors_off_k(tmp_path,
                                                       monkeypatch):
    """On a Koszul algebra of finite global dimension the right factors are
    slices of the certified K: `kernels additivity` on generated P^3 and
    `kernels build` / `orthogonality` on beilinson-p2 resolve no simple,
    and build no A (x) A^op."""
    resolved = counting_wrapper(monkeypatch, "projective_resolution",
                                ["complexes", "hochschild", "kernels"])
    sliced = counting_wrapper(monkeypatch, "simple_resolution",
                              ["hochschild", "kernels", "cli"])
    built = count_builds(monkeypatch)
    p = tmp_path / "p3.json"
    p.write_text(json.dumps(_benchmark_inputs().beilinson_quiver_doc(
        3, {"kind": "q"}, seed=1)))
    for argv, vertices in ((["kernels", "additivity", "--file", str(p)], 4),
                           (["kernels", "build", "--catalog",
                             "beilinson-p2"], 3),
                           (["kernels", "orthogonality", "--catalog",
                             "beilinson-p2"], 3)):
        sliced.clear()
        built.clear()
        code, report = run_command(argv)
        assert code == 0 and report.all_passed(), argv
        assert resolved == [] and len(sliced) == vertices, argv
        assert built == [], argv


def test_projection_kernels_resolve_the_simples_off_koszul(monkeypatch):
    """A directed algebra with a relation of length 3 has no K: its right
    factors are the minimal resolutions of the simple right modules, as
    before, one per vertex."""
    from sodhh.complexes import projective_resolution
    from sodhh.exceptional import projective_collection
    from sodhh.kernels import additivity_check, projection_kernels
    from sodhh.modules import simple_module
    A = linear_a4_cubic()
    resolved = counting_wrapper(monkeypatch, "projective_resolution",
                                ["complexes", "hochschild", "kernels"])
    kernels = projection_kernels(projective_collection(A))
    op = A.opposite()
    assert [M.grading for M in resolved if M.algebra is op] == \
        [P.left.terms[0] for P in kernels]
    for P in kernels:
        minimal = projective_resolution(simple_module(op, *P.left.terms[0]),
                                        4)
        assert (P.right.terms, P.right.diffs) == \
            (minimal.terms, minimal.diffs)
    assert additivity_check(A, projective_collection(A))["degreewise_equal"]


LINEAR_A4_CUBIC_DOC = {
    "field": {"kind": "q"}, "vertices": ["1", "2", "3", "4"],
    "arrows": [{"name": x, "source": v, "target": w}
               for x, v, w in (("a", "1", "2"), ("b", "2", "3"),
                               ("c", "3", "4"))],
    "relations": [[{"coeff": "1", "path": ["a", "b", "c"]}]]}


@pytest.mark.parametrize("argv, simples, bimodules", [
    (["kernels", "additivity"], 8, 1),
    (["serre-check"], 4, 0),
    (["collection", "project", "--object", "S1"], 4, 0)],
    ids=["kernels-additivity", "serre-check", "collection-project-S1"])
def test_off_koszul_each_resolution_is_built_once(tmp_path, monkeypatch,
                                                  argv, simples, bimodules):
    """linear_a4_cubic has no K, and every resolution it needs ends.  The
    summary resolves the four simple left modules through -13, and every
    later use is served from A's cache: the S-probes of `serre-check` and
    the object S1 of `collection project`, and the diagonal of `kernels
    additivity`, resolved through -33 for its K_0 class and read again
    for HH_*.  The right factors add the four simple right modules.  Every
    module that imports projective_resolution is counted."""
    import importlib
    from sodhh.modules import Bimodule
    modules = [m for m in ("complexes", "hochschild", "kernels", "cli")
               if hasattr(importlib.import_module(f"sodhh.{m}"),
                          "projective_resolution")]
    resolved = counting_wrapper(monkeypatch, "projective_resolution", modules)
    p = tmp_path / "a4.json"
    p.write_text(json.dumps(LINEAR_A4_CUBIC_DOC))
    code, report = run_command(argv + ["--file", str(p)])
    assert code == 0 and report.all_passed()
    kinds = [isinstance(M, Bimodule) for M in resolved]
    assert (kinds.count(False), kinds.count(True)) == (simples, bimodules)
    assert len({(id(M.algebra), M.grading) for M in resolved}) == \
        len(resolved)


def test_serre_check_slices_the_s_probes_off_k(monkeypatch):
    """The S-probes of `serre-check` are left slices of the certified K on
    beilinson-p2 and on loop-x2, whose K is infinite and certified through
    the depth the probes need."""
    resolved = counting_wrapper(monkeypatch, "projective_resolution",
                                ["complexes", "hochschild", "kernels"])
    sliced = counting_wrapper(monkeypatch, "simple_resolution",
                              ["hochschild", "kernels", "cli"])
    for name, vertices, minimal in (("beilinson-p2", 3, 0),
                                    ("loop-x2", 1, 0)):
        resolved.clear()
        sliced.clear()
        code, report = run_command(["serre-check", "--catalog", name])
        assert code == 0 and report.all_passed(), name
        assert len(sliced) == vertices and len(resolved) == minimal, name


@pytest.mark.parametrize("argv", [
    ["cohomology"], ["homology"], ["coeffs", "--bimodule", "serre"],
    ["coeffs", "--bimodule", "diagonal"], ["serre-check"],
    ["cohomology", "--max-degree", "12"]])
def test_loop_x2_takes_k_alone(argv, monkeypatch):
    """k[x]/(x^2) is Koszul of infinite global dimension: every command
    reads K, built once through the summary's cap and certified there, and
    resolves nothing else, neither the diagonal nor a simple."""
    resolved = counting_wrapper(monkeypatch, "projective_resolution",
                                ["complexes", "hochschild", "kernels"])
    tables = counting_wrapper(monkeypatch, "_koszul_terms", ["hochschild"])
    code, report = run_command(argv + ["--catalog", "loop-x2"])
    assert code == 0 and report.all_passed()
    assert report.data["algebra"]["global_dimension"] is None
    assert resolved == [] and len(tables) == 1


def test_serre_check_twists_each_probe_once(monkeypatch):
    """serre-check keeps its own route: each probe P_v, S_v is twisted by
    serre_twist_left once, and Ext into the twist is compared with the
    reverse Ext."""
    calls = counting_wrapper(monkeypatch, "serre_twist_left",
                             ["complexes", "cli"])
    code, report = run_command(["serre-check", "--catalog", "beilinson-p2"])
    assert code == 0 and len(report.data["serre_duality_table"]) == 36
    assert len(calls) == len({id(Y) for Y in calls}) == 6


SERRE_PROBE_CASES = [(name, field) for field in ("q", "f3")
                     for name in catalog_names()] + \
    [(f"generated-p{n}", field) for field in ("q", "f3") for n in (2, 3)]


@pytest.mark.parametrize("name,field", SERRE_PROBE_CASES)
def test_ended_s_probes_give_ext_into_the_simple(name, field):
    """For every S-probe X of serre-check that has ended (no term at
    -(n+1)) and every probe Y: Ext(Y, S_x) = Ext(Y, X), in every degree.
    loop-x2's S-probe never ends."""
    from sodhh.complexes import ext_profile, single_projective
    from sodhh.hochschild import simple_resolution
    from sodhh.modules import simple_module
    from test_kernels import _case_algebra
    n = 6
    A = _case_algebra(name, field)
    probes = [single_projective(A, v) for v in range(A.num_vertices)]
    probes += [simple_resolution(A, v, "left", n + 1)
               for v in range(A.num_vertices)]
    ended = [(v, X) for v, X in enumerate(probes[A.num_vertices:])
             if -(n + 1) not in X.terms]
    assert bool(ended) == (name != "loop-x2")
    for v, X in ended:
        S = simple_module(A, v)
        for Y in probes:
            assert ext_profile(Y, S) == ext_profile(Y, X)


@pytest.mark.parametrize("name,into_simples", [("loop-x2", 0),
                                               ("beilinson-p2", 18)])
def test_serre_check_reverse_ext_goes_into_ended_simples(monkeypatch, name,
                                                        into_simples):
    """The right side Ext(Y, X) of serre-check is taken into the simple S_x
    where the S-probe X has ended: on beilinson-p2 for each of the 18
    pairs (Y, S-probe), on loop-x2, whose S-probe has not ended, for none."""
    import sodhh.cli
    from sodhh.modules import ModuleRep
    calls, real = [], sodhh.cli.ext_profile

    def counting(X, Y):
        calls.append((X, Y))
        return real(X, Y)
    monkeypatch.setattr(sodhh.cli, "ext_profile", counting)
    code, report = run_command(["serre-check", "--catalog", name])
    assert code == 0 and report.all_passed()
    probes = len(report.data["serre_duality_table"])
    assert len(calls) == 2 * probes
    simples = [Y for _, Y in calls if isinstance(Y, ModuleRep)]
    assert len(simples) == into_simples
    assert all(len(Y.grading) == 1 for Y in simples)


@pytest.mark.parametrize("support,command,key", [
    ("diagonal", "cohomology", "hh_cohomology"),
    ("serre", "homology", "hh_homology")])
def test_generalized_diagonal_of_infinite_global_dimension(support, command,
                                                           key):
    """k[x]/(x^2) has infinite global dimension, so every truncation of its
    diagonal resolution has homology at its last degree; the diagonal
    coefficients still give HH^* and HH_*."""
    code, report = run_command(
        ["generalized", "--coeff", "diagonal", "--support", support,
         "--catalog", "loop-x2"])
    assert code == 0
    _, named = run_command([command, "--catalog", "loop-x2"])
    assert report.data["generalized_hoh"]["dims"] == \
        named.data[key]["dims"] == [2, 1, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("coeff", ["Px", "P"])
def test_generalized_coeff_without_index_exit_2(coeff):
    code, report = run_command(
        ["generalized", "--support", "diagonal", "--coeff", coeff,
         "--catalog", "kronecker2"])
    assert code == 2
    assert report.data["error"].startswith("--coeff: ")
    assert repr(coeff) in report.data["error"]


def test_mutate_index_out_of_range_exit_2():
    code, report = run_command(
        ["collection", "mutate", "--index", "9", "--dir", "left",
         "--catalog", "beilinson-p2"])
    assert code == 2
    assert report.data["error"] == ("--index: left mutation index 9 is "
                                    "outside the valid range 1..2")


@pytest.mark.parametrize("error", [KeyError, IndexError])
def test_internal_lookup_errors_are_not_input_errors(monkeypatch, error):
    """An index bug inside a command surfaces as that error, not as an
    exit-2 report blaming the input."""
    import sodhh.cli

    def broken(args, report):
        raise error("internal")

    monkeypatch.setitem(sodhh.cli.COMMANDS, "info", broken)
    with pytest.raises(error):
        run_command(["info", "--catalog", "kronecker2"])


@pytest.mark.parametrize("argv", [
    ["les-check", "--catalog", "nope"],
    ["catalog", "show", "nope"],
    ["collection", "project", "--object=", "--catalog", "kronecker2"],
    ["catalog", "show"]])
def test_lookups_of_bad_names_exit_2(argv):
    """Unknown catalog names, a missing one and an empty --object are input
    errors even though run_command no longer treats KeyError or IndexError
    as one; a catalog error names the known entries."""
    code, report = run_command(argv)
    assert code == 2
    known = ", ".join(catalog_names())
    expected = {"nope": f"unknown catalog entry 'nope'; known: {known}",
                "show": f"catalog show needs an entry name; known: {known}"}
    if argv[-1] in expected:
        assert report.data["error"] == expected[argv[-1]]
    else:
        assert "--object" in report.data["error"]


def _doc_with(**changes):
    doc = json.loads(json.dumps(KRON3_DOC))
    doc.update(changes)
    return doc


PATH_DOC = {
    "field": {"kind": "q"},
    "vertices": ["a", "b", "c"],
    "arrows": [{"name": "x", "source": "a", "target": "b"},
               {"name": "y", "source": "b", "target": "c"}],
}


@pytest.mark.parametrize("doc, where", [
    (5, "document"),
    (_doc_with(arrows=5), "arrows"),
    (_doc_with(relations=5), "relations"),
    (_doc_with(arrows=[5]), "arrows[0]"),
    (_doc_with(relations=[[5]]), "relations[0][0]"),
    (dict(PATH_DOC, relations=[[{"coeff": "1", "path": "xy"}]]),
     "relations[0][0].path"),
    (dict(PATH_DOC, relations=[[{"coeff": "1", "path": ["x", 5]}]]),
     "relations[0][0].path"),
    (_doc_with(arrows=[{"name": 5, "source": "1", "target": "2"}]),
     "arrows[0].name"),
    (_doc_with(arrows=[{"name": "a", "source": 1, "target": "2"}]),
     "arrows[0].source"),
    (_doc_with(arrows=[{"name": "a", "source": "1", "target": ["2"]}]),
     "arrows[0].target"),
    (dict(PATH_DOC, relations=[[{"coeff": [1], "path": ["x", "y"]}]]),
     "relations[0][0].coeff"),
    (_doc_with(field={"kind": "fp", "p": [3]}), "field.p"),
])
def test_malformed_document_types_exit_2(tmp_path, doc, where):
    """A value of the wrong JSON type is a schema error naming where it
    sits, not a TypeError and not a silently different quiver."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, report = run_command(["info", "--file", str(p)])
    assert code == 2
    assert report.data["error"].startswith(where + ":")


@pytest.mark.parametrize("vertices, arrows, where", [
    (["1", "2", "1"], [], "vertices[2]"),
    (["1", "2"], [("a", "1", "2"), ("a", "2", "1")], "arrows[1].name"),
    (["1", "2"], [("a", "1", "2"), ("2", "1", "2")], "arrows[1].name")])
def test_duplicate_names_exit_2(tmp_path, vertices, arrows, where):
    """A repeated vertex name, a repeated arrow name and an arrow named
    like a vertex are schema errors naming the entry."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({
        "field": {"kind": "q"}, "vertices": vertices,
        "arrows": [{"name": x, "source": v, "target": w}
                   for x, v, w in arrows],
        "relations": []}))
    code, report = run_command(["info", "--file", str(p)])
    assert code == 2
    assert report.data["error"].startswith(where + ":")


NOT_A_SCALAR = "expected an integer or a fraction like '-3/2', got "


@pytest.mark.parametrize("field, coeff, error", [
    ({"kind": "fp", "p": 7}, 0.1, "relations[0][0].coeff: " + NOT_A_SCALAR + "0.1"),
    ({"kind": "fp", "p": 7}, 1.5, "relations[0][0].coeff: " + NOT_A_SCALAR + "1.5"),
    ({"kind": "q"}, 0.5, "relations[0][0].coeff: " + NOT_A_SCALAR + "0.5"),
    ({"kind": "q"}, True, "relations[0][0].coeff: " + NOT_A_SCALAR + "True"),
    ({"kind": "fp", "p": 7}, True, "relations[0][0].coeff: " + NOT_A_SCALAR + "True"),
    ({"kind": "q"}, "1/0", "relations[0][0].coeff: denominator is zero in '1/0'"),
    ({"kind": "fp", "p": 7}, "1/7",
     "relations[0][0].coeff: denominator 7 is zero mod 7"),
    ({"kind": "fp", "p": 7}, "one", "relations[0][0].coeff: " + NOT_A_SCALAR + "'one'"),
    ({"kind": "fp", "p": 7.9}, "1", "field.p: expected a prime integer, got 7.9"),
    ({"kind": "fp", "p": True}, "1", "field.p: expected a prime integer, got True"),
    ({"kind": "fp", "p": "abc"}, "1", "field.p: expected a prime integer, got 'abc'"),
    ({"kind": "fp", "p": 2 ** 89 - 1}, "1",
     f"field.p: cannot decide whether {2 ** 89 - 1} is prime: primality is "
     "decided exactly only below 3317044064679887385961981"),
])
def test_inexact_numbers_and_zero_denominators_exit_2(tmp_path, field, coeff,
                                                      error):
    """A float, a bool or a zero denominator is refused where it sits, in
    sodhh's words.  Over F_7 a coefficient 0.1 once became 0, which dropped
    the relation x y and returned x y as a basis element with exit 0."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(dict(PATH_DOC, field=field, relations=[
        [{"coeff": coeff, "path": ["x", "y"]}]])))
    code, report = run_command(["info", "--file", str(p)])
    assert (code, report.data["error"]) == (2, error)


def test_large_prime_moduli_are_decided_at_once(tmp_path):
    """2^61 - 1 on the flag and 10^18 + 9 in a file are primes, accepted
    without trial division; 2^89 - 1 lies past the bound where primality is
    decided exactly, and the flag names that bound."""
    from time import perf_counter
    start = perf_counter()
    code, report = run_command(["info", "--catalog", "kronecker2", "--field",
                                f"fp:{2 ** 61 - 1}"])
    assert (code, report.data["algebra"]["field"]) == (0, f"GF({2 ** 61 - 1})")
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(dict(PATH_DOC, relations=[],
                                 field={"kind": "fp", "p": 10 ** 18 + 9})))
    code, report = run_command(["info", "--file", str(p)])
    assert (code, report.data["algebra"]["field"]) == (0, f"GF({10 ** 18 + 9})")
    assert perf_counter() - start < 5
    code, report = run_command(["info", "--catalog", "kronecker2", "--field",
                                f"fp:{2 ** 89 - 1}"])
    assert code == 2
    assert report.data["error"].startswith("--field: cannot decide whether")
    assert report.data["error"].endswith("below 3317044064679887385961981")


@pytest.mark.parametrize("flag, error", [
    ("fp:abc", "--field: expected 'q' or 'fp:<prime>', got 'fp:abc'"),
    ("fp:-7", "--field: expected 'q' or 'fp:<prime>', got 'fp:-7'"),
    ("fp:", "--field: expected 'q' or 'fp:<prime>', got 'fp:'"),
    ("fp:6", "--field: 6 is not prime"),
])
def test_field_flag_errors_name_the_flag(flag, error):
    code, report = run_command(["info", "--catalog", "kronecker2", "--field",
                                flag])
    assert (code, report.data["error"]) == (2, error)


@pytest.mark.parametrize("entry, field, error", [
    (0.5, "q", "left_action.e(1): row 0, column 0: " + NOT_A_SCALAR + "0.5"),
    (True, "q", "left_action.e(1): row 0, column 0: " + NOT_A_SCALAR + "True"),
    ("1/7", "fp:7",
     "left_action.e(1): row 0, column 0: denominator 7 is zero mod 7"),
])
def test_bimodule_entries_must_be_exact(tmp_path, entry, field, error):
    p = tmp_path / "bim.json"
    p.write_text(json.dumps({"dimension": 1, "left_action": {"e(1)": [[entry]]},
                             "right_action": {"e(1)": [[1]]}}))
    code, report = run_command(["coeffs", "--bimodule", str(p), "--catalog",
                                "kxk", "--field", field])
    assert (code, report.data["error"]) == (2, error)


def test_algebras_without_an_exceptional_collection_exit_2(tmp_path):
    """loop-x2's one projective has End = k[x]/(x^2), so it is not
    exceptional, and a 2-cycle is not directed: input errors, exit 2."""
    code, report = run_command(["kernels", "build", "--catalog", "loop-x2"])
    assert code == 2
    assert report.data["error"].startswith("not an exceptional collection")
    p = tmp_path / "cycle.json"
    p.write_text(json.dumps({
        "field": {"kind": "q"}, "vertices": ["1", "2"],
        "arrows": [{"name": "a", "source": "1", "target": "2"},
                   {"name": "b", "source": "2", "target": "1"}],
        "relations": [[{"coeff": "1", "path": ["a", "b"]}],
                      [{"coeff": "1", "path": ["b", "a"]}]]}))
    code, report = run_command(["collection", "check", "--file", str(p)])
    assert code == 2
    assert report.data["error"] == \
        "algebra is not directed; no exceptional order"


def test_internal_value_errors_are_not_input_errors(monkeypatch):
    """Only the input-error types exit 2: a plain ValueError raised inside
    a command is a fault of the program and propagates."""
    import sodhh.cli

    def broken(args, report):
        raise ValueError("internal")

    monkeypatch.setitem(sodhh.cli.COMMANDS, "info", broken)
    with pytest.raises(ValueError, match="internal"):
        run_command(["info", "--catalog", "kronecker2"])


@pytest.mark.parametrize("error", [ComplexError, SideMismatch,
                                   AlgebraAxiomError, ModuleAxiomError,
                                   ShapeError])
def test_failed_internal_checks_are_not_input_errors(monkeypatch, error):
    """A construction-time check that fails inside a command is a fault of
    the computation, so it propagates instead of exiting 2 as bad input.
    (A bimodule file that fails its axioms is still bad input: see
    test_coeffs_rejects_non_commuting_bimodule.)"""
    import sodhh.cli

    def broken(args, report):
        raise error("internal")

    monkeypatch.setitem(sodhh.cli.COMMANDS, "info", broken)
    with pytest.raises(error):
        run_command(["info", "--catalog", "kronecker2"])


# -- the one-pass JSON writer against json.dumps --------------------------------


from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sodhh.hochschild import HHProfile
from sodhh.report import Report, jsonable


class Label(str):
    pass


class Count(int):
    pass


def dumps(data):
    """What Report.to_json writes, as json.dumps writes it."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def written(data):
    report = Report("oracle")
    report.data = data
    return report.to_json()


def test_writer_matches_json_dumps_on_every_golden_report(tmp_path,
                                                         monkeypatch):
    """Every golden-report command and the pinned generated-P^3 `kernels`
    and `serre-check` reports serialize to json.dumps' bytes."""
    from test_golden_reports import GOLDEN, _write_generated_p3
    calls = [key.split() for key in json.loads(GOLDEN.read_text())]
    path = _write_generated_p3(tmp_path, monkeypatch)
    calls += [[*sub, "--file", path, "--format", "json"]
              for sub in (["kernels", "build"], ["kernels", "orthogonality"],
                          ["kernels", "additivity"], ["serre-check"])]
    for argv in calls:
        code, report = run_command(argv)
        assert code == 0 and report.to_json() == dumps(report.data), argv
    assert len(calls) == 144


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | \
    st.sampled_from(["", "é", "ÿĀ", "☃", "\U0001f600", '"',
                     "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "a\"b\\c"])
SCALARS = (st.none() | st.booleans() | TEXT
           | st.integers(-2 ** 70, 2 ** 70)
           | st.integers(-2 ** 70, 2 ** 70).map(lambda n: n * 10 ** 40)
           | st.fractions(max_denominator=50)
           | st.sampled_from([[], {}, [[]], [{}], {"": {}}, {"a": [[], {}]}]))
NESTED = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=25)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(NESTED)
def test_writer_matches_json_dumps_on_nested_values(value):
    """Non-ASCII and control characters, quotes and backslashes, empty and
    nested-empty containers, large ints, bools and None; Fractions once
    jsonable has turned them into strings."""
    data = jsonable({"value": value})
    assert written(data) == dumps(data)


@pytest.mark.parametrize("value", [
    {2: "int keys", -1: [], 10 ** 30: {}}, {2.5: "float keys", -0.5: 1},
    {True: "t", False: "f"}, {None: "n"}, {Count(3): Label("subclasses")},
    {"x": float("nan"), "y": [float("inf"), -0.0, 1e300]},
    (1, ("nested", ()), {"t": (True, None)}),
])
def test_writer_matches_json_dumps_beyond_jsonable(value):
    """Keys json converts and floats, which jsonable never yields."""
    assert written(value) == dumps(value)


@pytest.mark.parametrize("value", [{(1, 2): 1}, [object()], {"a": {1j}},
                                   {1: 1, None: 2}])
def test_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as ours:
        written(value)
    with pytest.raises(TypeError) as theirs:
        dumps(value)
    assert str(ours.value) == str(theirs.value)


def reference_jsonable(value):
    """jsonable as an isinstance chain, before the exact-type fast path."""
    if isinstance(value, HHProfile):
        out = {"dims": list(value.dims), "certified_through": value.bound}
        if value.note:
            out["note"] = value.note
        return out
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {reference_key(k): reference_jsonable(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def reference_key(k):
    if isinstance(k, (tuple, list)):
        return ",".join(str(x) for x in k)
    return str(k)


KEYS = TEXT | st.integers(-5, 5) | st.tuples(st.integers(0, 3), TEXT) \
    | st.sampled_from([Label("k"), Count(3), None, True, 1.5])
ODD = st.sampled_from([Label("s"), Count(7), 2.5, QQ, object(),
                       HHProfile((1, 0, 2), QQ, 2),
                       HHProfile((1,), QQ, 0, "a note")])
MIXED = st.recursive(
    SCALARS | ODD,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=25)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(MIXED)
def test_jsonable_matches_the_isinstance_chain(value):
    """The exact-type fast path gives what the isinstance chain gives, on
    subclasses of str and int, HHProfiles, Fractions, floats, tuple keys
    and objects that fall back to str."""
    ours = jsonable(value)
    assert ours == reference_jsonable(value)
    assert written({"v": ours}) == dumps({"v": ours})
