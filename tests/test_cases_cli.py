"""Case catalog, report emission, CLI behavior, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellforge.bell import BellExpression
from bellforge.cases import (
    RunConfig,
    _derive,
    _loop5_ops,
    case_names,
    emit_table,
    run_case,
    run_cases,
)
import bellforge
from bellforge import bell, bounds, cases
from bellforge.cli import main as cli_main
from bellforge.pauli import PauliSum
from bellforge.uncertainty import QuadraticCase

DATA = Path(__file__).resolve().parent / "data"

LOOP5_RECIPE = {
    "basis": {"kind": "graph",
              "graph": {"n": 5,
                        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]},
              "flip": "ZZZZZ"},
    "k": [0, 0, 1],
    "beta_q": "auto",
    "decomposition": {"kind": "none"},
    "symbols": {"Z": "A", "X": "B", "Y": "C"},
}

# family-like names outside the catalog: past chained:6, or with the member
# number padded, signed or zero-led
OLD_PARSER_ONLY = ["chained:7", "chained:8"] + [
    f"{head}:{pad}{n}" for head, n in (("chained", 4), ("mermin", 3),
                                       ("svetlichny", 8))
    for pad in ("0", " ", "+")]


def _flip_symbolize(monkeypatch, t: int) -> list:
    """Make the catalog's ``symbolize`` negate the coefficient of term t; the
    returned list gets each coefficient so flipped."""
    real, flipped = cases.symbolize, []

    def flipping(op, symbol_map):
        expr, bindings = real(op, symbol_map)
        index, coeffs = expr.factor_table()
        coeffs = coeffs.copy()
        flipped.append(float(coeffs[t]))
        coeffs[t] = -coeffs[t]
        return BellExpression._from_table(expr.parties, expr.symbols, index.copy(),
                                          coeffs, expr.constant), bindings

    monkeypatch.setattr(cases, "symbolize", flipping)
    return flipped


class TestCatalog:
    def test_names_cover_families(self):
        names = case_names()
        assert "chsh" in names and "l5-hyper" in names
        assert "chained:4" in names and "svetlichny:8" in names

    def test_unknown_case(self):
        with pytest.raises(KeyError):
            run_case("tsirelson")
        with pytest.raises(KeyError):
            run_case("chained:1")
        with pytest.raises(KeyError):
            run_case("mermin:9")
        with pytest.raises(KeyError):
            run_case("chained:x")
        with pytest.raises(KeyError):
            run_case("chained:7")

    @pytest.mark.parametrize("name", OLD_PARSER_ONLY)
    def test_only_listed_names_run(self, name):
        assert name not in case_names()
        with pytest.raises(KeyError, match="unknown case"):
            run_case(name)

    def test_chsh_case_passes(self):
        r = run_case("chsh", RunConfig(seed=3))
        assert r.passed
        assert r.bounds.violation
        assert r.bounds.sos_status == "verified"

    def test_case_results_serialize(self):
        r = run_case("mermin3", RunConfig(seed=3))
        payload = r.to_dict()
        assert payload["case"] == "mermin3"
        assert payload["pass"] is True
        assert all({"name", "target", "value", "pass"} <= set(c)
                   for c in payload["checks"])

    def test_chained_case(self):
        r = run_case("chained:3", RunConfig(seed=3))
        by_name = {c.name: c for c in r.checks}
        assert by_name["classical max"].value == 4.0
        assert abs(by_name["quantum lower bound"].value - 3 * math.sqrt(3)) < 1e-9
        assert r.passed

    def test_l5_identity_sign_flag_note(self):
        r = run_case("l5-identity", RunConfig(seed=3))
        assert r.passed
        assert any("sign flag" in note for note in r.notes)

    def test_seed_determinism(self):
        a = run_case("l5-svetlichny", RunConfig(seed=5))
        b = run_case("l5-svetlichny", RunConfig(seed=5))
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)


class TestSymbolizeCheck:
    @pytest.mark.parametrize("name", ["mermin3", "svetlichny3", "l5-mermin",
                                      "l5-svetlichny", "l5-hyper"])
    def test_catalog_rows_render_back_exactly(self, name):
        check, = [c for c in run_case(name, RunConfig()).checks
                  if c.name == "pipeline identity residual"]
        assert check.ok and check.value == 0.0

    def test_flipped_coefficient_fails(self, monkeypatch):
        ops = _loop5_ops()
        op = 16.0 * (ops.z + ops.x)
        symbols = {"Z": "A", "X": "B", "Y": "C"}
        assert _derive(op, {"kind": "none"}, symbols).check.value == 0.0
        flipped = _flip_symbolize(monkeypatch, 5)
        check = _derive(op, {"kind": "none"}, symbols).check
        assert not check.ok and check.value == 2 * abs(flipped[0])

    def test_build_none_recipe_computes_residual(self, tmp_path, monkeypatch, capsys):
        # a none recipe's residual is measured, not assumed to be 0
        flipped = _flip_symbolize(monkeypatch, 5)
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(LOOP5_RECIPE))
        assert cli_main(["build", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert flipped and report["pipeline_residual"] == 2 * abs(flipped[0])


class TestTables:
    def test_empty_table_has_header_only(self):
        md = emit_table([], "md")
        assert md.count("\n") == 2
        csv = emit_table([], "csv")
        assert csv.strip().startswith("case,")

    def test_formats(self):
        results = run_cases(["chsh", "uffink"], RunConfig(seed=2))
        md = emit_table(results, "md")
        assert md.startswith("| case |")
        assert "| chsh |" in md
        csv = emit_table(results, "csv")
        assert csv.splitlines()[1].startswith("chsh,")
        data = json.loads(emit_table(results, "json"))
        assert [d["case"] for d in data] == ["chsh", "uffink"]
        with pytest.raises(ValueError):
            emit_table(results, "html")

    def test_byte_determinism(self):
        r1 = run_cases(["chsh", "nki"], RunConfig(seed=9))
        r2 = run_cases(["chsh", "nki"], RunConfig(seed=9))
        for fmt in ("md", "csv", "json"):
            assert emit_table(r1, fmt) == emit_table(r2, fmt)

    def test_default_seed_table_matches_reference(self):
        # the certified numbers of the whole catalog, byte for byte
        reference = Path(__file__).resolve().parents[1] / "perfbench" / \
            "reference" / "catalog-seed7.json"
        table = emit_table(run_cases(case_names()), "json")
        assert table.encode() == reference.read_bytes()

    def test_expression_text_is_formatted_only_for_json(self, monkeypatch):
        # a row keeps its expression object; only the JSON table prints it,
        # once per expression (a quadratic row prints two)
        calls = []
        original = BellExpression.__str__

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(BellExpression, "__str__", counted)
        results = run_cases(case_names())
        assert {"uffink", "nki"} <= {r.name for r in results}
        assert calls == []
        for fmt in ("md", "csv"):
            emit_table(results, fmt)
        assert calls == []
        printed = []
        for r in results:
            if isinstance(r.expression, BellExpression):
                printed.append(r.expression)
            elif isinstance(r.expression, QuadraticCase):
                printed += [r.expression.expr1, r.expression.expr2]
        assert len(printed) == 24 + 2 * 2
        emit_table(results, "json")
        assert [id(e) for e in calls] == [id(e) for e in printed]

    @pytest.mark.parametrize("argv, golden", [
        (["verify", "--all"], "verify-seed7.txt"),
        (["table"], "table-seed7.md"),
        (["table", "--format", "csv"], "table-seed7.csv"),
    ])
    def test_seed7_text_output_matches_golden(self, capsys, argv, golden):
        # what verify prints and the text tables, byte for byte at the default seed
        assert cli_main(argv) == 0
        assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()

    def test_json_serializes_numpy_laden_cases(self):
        # cases whose checks carry numpy scalars must still emit plain JSON
        results = run_cases(["l5-identity", "mermin:5", "uncertainty-sweep"],
                            RunConfig(seed=4))
        payload = json.loads(emit_table(results, "json"))
        assert {d["case"] for d in payload} == \
            {"l5-identity", "mermin:5", "uncertainty-sweep"}
        for d in payload:
            assert isinstance(d["pass"], bool)


class TestCli:
    def test_verify_single_case(self, capsys):
        rc = cli_main(["verify", "--case", "chsh", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS  chsh :: classical max" in out

    def test_verify_unknown_case(self, capsys):
        rc = cli_main(["verify", "--case", "nope"])
        assert rc == 2
        capsys.readouterr()
        assert cli_main(["verify", "--case", "chained:7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown case(s): chained:7" in captured.err

    def test_verify_bad_parametrized_case(self, capsys):
        assert cli_main(["verify", "--case", "chained:12"]) == 2
        assert cli_main(["verify", "--case", "mermin:zz"]) == 2

    def test_verify_requires_selection(self, capsys):
        assert cli_main(["verify"]) == 2

    def test_cap_qubits_is_enforced(self, capsys):
        assert cli_main(["verify", "--case", "mermin:8", "--cap-qubits", "4"]) == 2
        err = capsys.readouterr().err
        assert "dense cap of 4" in err and "--cap-qubits 4" in err
        assert cli_main(["table", "--cap-qubits", "1"]) == 2
        assert "--cap-qubits 1" in capsys.readouterr().err

    def test_seesaw_cap_stops_before_any_render(self, monkeypatch, capsys):
        def render(plan, mats):
            raise AssertionError("see-saw rendered above the qubit cap")

        monkeypatch.setattr(bounds, "_render", render)
        assert cli_main(["verify", "--case", "l5-hyper", "--cap-qubits", "4"]) == 2
        err = capsys.readouterr().err
        assert "5 qubits exceeds dense cap of 4" in err and "--cap-qubits 4" in err

    def test_sos_cap_stops_before_any_render(self, monkeypatch, capsys):
        def render(sums, cap=None):
            raise AssertionError("SOS check rendered above the qubit cap")

        monkeypatch.setattr(bounds, "dense_stack", render)
        assert cli_main(["verify", "--case", "svetlichny3", "--cap-qubits", "2"]) == 2
        err = capsys.readouterr().err
        assert "3 qubits exceeds dense cap of 2" in err and "--cap-qubits 2" in err

    def test_verify_json_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli_main(["verify", "--case", "mermin3", "--json", str(out),
                       "--seed", "4"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload[0]["case"] == "mermin3"

    def test_verify_json_equals_table_json(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert cli_main(["verify", "--all", "--seed", "3", "--json", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["table", "--format", "json", "--seed", "3"]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_table_to_file(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = cli_main(["table", "--format", "csv", "--out", str(out),
                       "--seed", "3"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("case,")
        assert len(lines) == len(case_names()) + 1

    def test_build_recipe(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(LOOP5_RECIPE))
        out = tmp_path / "out.json"
        rc = cli_main(["build", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classical_max"] == 8.0
        assert abs(report["quantum_lower"] - 16.0) < 1e-9
        assert report["violation"] is True

    def test_build_9_qubit_path_is_exact_and_below_its_upper_bound(self, tmp_path,
                                                                    capsys):
        # past 8 qubits the lower bound of a pseudo Pauli operator is its
        # stabilizer certificate: beta |k| = 256 exactly, where Lanczos read
        # 256.0000000000012 above the dichotomic bound of 256
        recipe = {"basis": {"kind": "graph",
                            "graph": {"n": 9, "edges": [[q, q + 1] for q in range(8)]},
                            "flip": "Z" * 9},
                  "k": [0, 0, 1], "decomposition": {"kind": "none"}}
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["quantum_lower"] == 256.0
        assert report["quantum_lower"] <= report["dichotomic_bound"]

    def test_build_reproduces_catalog_row(self, tmp_path, capsys):
        # each recipe is its catalog case, so build reports the case's row
        rows = [("l5-mermin", LOOP5_RECIPE),
                ("mermin3", {"basis": {"kind": "ghz3"}, "k": [0, 0, 1],
                             "symbols": {"Z": "A", "X": "B"}})]
        rows += [(f"chained:{n}", {"basis": {"kind": "bell"},
                                   "decomposition": {"kind": "chained", "n": n}})
                 for n in range(2, 7)]
        cfg, out = tmp_path / "recipe.json", tmp_path / "out.json"
        for case, recipe in rows:
            cfg.write_text(json.dumps(recipe))
            assert cli_main(["build", "--config", str(cfg), "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            row = json.loads(json.dumps(run_case(case).to_dict()))
            assert report["expression"] == row["expression"], case
            assert {k: report[k] for k in row["bounds"]} == row["bounds"], case
            assert set(report) == {"expression", "pipeline_residual", *row["bounds"]}

    @pytest.mark.parametrize("seesaw", [False, True])
    def test_build_above_cap_exits_2(self, tmp_path, capsys, seesaw):
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(LOOP5_RECIPE))
        argv = ["build", "--config", str(cfg), "--cap-qubits", "3"]
        assert cli_main(argv + ["--seesaw"] * seesaw) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qubit cap exceeded: 5 qubits exceeds dense cap of 3" in captured.err
        assert "(--cap-qubits 3)" in captured.err

    def test_build_40_qubit_path_exits_2(self, tmp_path, monkeypatch, capsys):
        # past the qubit cap, the recipe fails before its 40 generators are built
        def no_group(graph):
            raise AssertionError("stabilizer group built above the qubit cap")

        monkeypatch.setattr(bell, "graph_state_generators", no_group)
        recipe = {"basis": {"kind": "graph", "flip": "Z" * 40,
                            "graph": {"n": 40, "edges": [[q, q + 1] for q in range(39)]}}}
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qubit cap exceeded: 40 qubits exceeds dense cap of 12" in captured.err

    def test_build_1025_qubit_auto_beta_exits_2(self, tmp_path, capsys):
        # "auto" is 2^1024 |k|_1, past a float; the cap fails before it is computed
        recipe = {"basis": {"kind": "graph", "flip": "Z" * 1025,
                            "graph": {"n": 1025, "edges": []}}, "beta_q": "auto"}
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qubit cap exceeded: 1025 qubits exceeds dense cap of 12" in captured.err

    def test_build_phased_flip_is_a_recipe_error(self, tmp_path, capsys):
        recipe = dict(LOOP5_RECIPE, basis=dict(LOOP5_RECIPE["basis"], flip="iZZZZZ"))
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"recipe error in {cfg}: ")
        assert "+iZZZZZ" in captured.err

    def test_build_graph_basis_honours_cap(self, tmp_path, monkeypatch, capsys):
        # the recipe's graph basis resolves under --cap-qubits, not the default cap
        rendered = []
        real = PauliSum.to_dense

        def to_dense(self, *args, **kwargs):
            rendered.append(self.n)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(PauliSum, "to_dense", to_dense)
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(LOOP5_RECIPE))
        assert cli_main(["build", "--config", str(cfg), "--cap-qubits", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qubit cap exceeded: 5 qubits exceeds dense cap of 4" in captured.err
        assert "(--cap-qubits 4)" in captured.err
        assert all(n <= 4 for n in rendered)

    def test_build_chained_recipe_honours_cap(self, tmp_path, capsys):
        recipe = {"basis": {"kind": "bell"}, "k": [0, 0, 1],
                  "decomposition": {"kind": "chained", "n": 3}}
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg), "--cap-qubits", "1"]) == 2
        assert "2 qubits exceeds dense cap of 1" in capsys.readouterr().err
        assert cli_main(["build", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pipeline_residual"] <= 1e-10

    def test_build_complementary_recipe(self, tmp_path, capsys):
        recipe = {"basis": {"kind": "bell"}, "k": [0, 0, 1],
                  "beta_q": 2 * math.sqrt(2),
                  "decomposition": {"kind": "complementary", "pivot": 1}}
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        out = tmp_path / "out.json"
        rc = cli_main(["build", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["classical_max"] == 2.0
        assert report["sos_status"] == "verified"
        assert report["pipeline_residual"] <= 1e-10

    def test_build_checks_symbol_budget_before_rendering(self, tmp_path, monkeypatch,
                                                         capsys):
        # the loop-5 recipe has 15 symbols; over budget, nothing is rendered
        def render_terms(*args):
            raise AssertionError("rendered an expression over the symbol budget")

        monkeypatch.setattr(bounds, "SYMBOL_BUDGET", 10)
        monkeypatch.setattr(cases, "render_terms", render_terms)
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(LOOP5_RECIPE))
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "15 symbols exceeds the exact-enumeration budget of 10" in captured.err

    def test_build_checks_chained_symbol_budget_before_construction(self, tmp_path,
                                                                    monkeypatch, capsys):
        # 2n symbols over budget: none of the 2n settings is built
        def chained_construction(n):
            raise AssertionError("built a chained construction over the symbol budget")

        monkeypatch.setattr(cases, "chained_construction", chained_construction)
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps({"basis": {"kind": "bell"},
                                   "decomposition": {"kind": "chained", "n": 10**9}}))
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "2000000000 symbols exceeds the exact-enumeration budget of 28" in captured.err

    def test_build_complementary_recipe_with_three_settings_a_party(self, tmp_path,
                                                                    capsys):
        recipe = {"basis": {"kind": "graph", "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
                            "flip": "ZZZ"},
                  "k": [0, 0, 1], "decomposition": {"kind": "complementary", "pivot": 1}}
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pipeline_residual"] == 0.0
        # party 0 measures three Pauli letters: A, A' and A''
        assert {"A_0", "A'_0", "A''_0"} <= set(report["classical_witness"])

    @pytest.mark.parametrize("decomposition,message", [
        ({"kind": "complementary"}, "complementary decomposition needs an integer 'pivot'"),
        ({"kind": "chained"}, "chained decomposition needs an integer 'n'"),
        ({"kind": "complementary", "pivot": 1.0}, "needs an integer 'pivot', got 1.0"),
        ({"kind": "chained", "n": "3"}, "needs an integer 'n', got '3'"),
        ({"kind": "chained", "n": 1}, "chained decomposition needs n >= 2"),
        ({"kind": "pivoted", "pivot": 1}, "unknown decomposition kind 'pivoted'"),
        ({"kind": ["chained"], "n": 3}, "unknown decomposition kind ['chained']"),
        (["complementary", 1], "decomposition must be an object"),
        # a field outside the format is named, not ignored
        ({"kind": "none", "pivot": 7}, "none decomposition has unknown field 'pivot'"),
        ({"pivot": 1}, "none decomposition has unknown field 'pivot'"),
        ({"kind": "complementary", "pivot": 1, "n": 3},
         "complementary decomposition has unknown field 'n'"),
        ({"kind": "chained", "n": 3, "pivot": 0},
         "chained decomposition has unknown field 'pivot'"),
    ])
    def test_build_rejects_bad_decomposition(self, tmp_path, capsys, decomposition,
                                             message):
        recipe = {"basis": {"kind": "bell"}, "k": [0, 0, 1], "beta_q": 2.0,
                  "decomposition": decomposition}
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"recipe error in {cfg}: ")
        assert message in captured.err

    @pytest.mark.parametrize("field,value,message", [
        ("basis", {"kind": "ghz3"}, "chained decomposition is defined on the two-qubit "
                                    "Bell-state basis"),
        ("k", [1, 0, 0], "chained decomposition needs k = [0, 0, 1], got [1, 0, 0]"),
        ("beta_q", "auto", "chained decomposition takes no beta_q, got 'auto'"),
        ("symbols", {"Z": "Q"}, "chained decomposition takes no symbols, got {'Z': 'Q'}"),
    ])
    def test_build_rejects_chained_recipe_field(self, tmp_path, capsys, field, value,
                                                message):
        # the chained construction brings its own logical form, bound and
        # labels, so a field it would not read is an error
        recipe = {"basis": {"kind": "bell"}, "decomposition": {"kind": "chained", "n": 3},
                  field: value}
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"recipe error in {cfg}: ")
        assert message in captured.err

    @pytest.mark.parametrize("field,value,message", [
        ("k", [0.6, 0.8], "direction k must be three real numbers, got [0.6, 0.8]"),
        ("k", [0, 0, 1, 0], "direction k must be three real numbers"),
        ("k", [False, False, True], "direction k must be three real numbers"),
        ("k", [float("nan"), 0, 1], "direction k must be three real numbers"),
        ("beta_q", None, 'beta_q must be "auto" or a positive real number, got None'),
        ("beta_q", "2.0", 'beta_q must be "auto" or a positive real number'),
        ("beta_q", 0, 'beta_q must be "auto" or a positive real number, got 0'),
        ("symbols", 5, "symbols must be an object mapping Pauli letters"),
        ("symbols", {"Z": 1}, "symbols must be an object mapping Pauli letters"),
        ("symbols", {"Z": "A", "X": "A", "Y": "C"}, "to distinct strings"),
        ("basis", "bell", "basis must be an object, not 'bell'"),
        ("symbol", {"Z": "Q"}, "recipe has unknown field 'symbol'"),
        # every term of k . L falls to COEFF_PRUNE
        ("beta_q", 1e-14, "beta_q 1e-14 scales 2 of the 2 terms of k . L"),
    ])
    def test_build_rejects_bad_recipe_field(self, tmp_path, capsys, field, value,
                                            message):
        recipe = {"basis": {"kind": "bell"}, "k": [0, 0, 1], "beta_q": 2.0,
                  field: value}
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"recipe error in {cfg}: ")
        assert message in captured.err

    @pytest.mark.parametrize("beta_q,message", [
        # the X_L terms, 0.15 beta_q each, fall to COEFF_PRUNE: the report
        # would cover the Z_L terms alone
        (6e-14, "recipe error in {cfg}: beta_q 6e-14 scales 4 of the 8 terms of k . L"),
        # the dichotomic bound overflows, and JSON has no Infinity
        (1.7976931348623157e308, "pipeline error: dichotomic_bound is inf, not a finite number"),
    ])
    def test_build_rejects_beta_q_at_either_end_of_the_float_range(self, tmp_path, capsys,
                                                                   beta_q, message):
        recipe = {"basis": {"kind": "ghz3"}, "k": [0.6, 0, 0.8], "beta_q": beta_q}
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message.format(cfg=cfg) in captured.err

    @pytest.mark.parametrize("recipe,message", [
        ({"basis": {"kind": "graph", "graph": 5, "flip": "ZZZZZ"}},
         "graph must be an object with an integer n >= 1, got 5"),
        ({"basis": {"kind": "graph", "graph": {"n": "3", "edges": [[0, 1]]},
                    "flip": "ZZZ"}},
         "graph must be an object with an integer n >= 1, got {'n': '3'"),
        ({"basis": {"kind": "graph", "graph": {"n": 3, "edges": [[0, 1]]}, "flip": 7}},
         "flip must be a Pauli string, got 7"),
        ([LOOP5_RECIPE], "recipe must be an object, not [{"),
        ({"basis": {"kind": "graph", "graph": {"n": 3, "edges": [[0, 1, 2]]},
                    "flip": "ZZZ"}},
         "graph edges must be a list of integer pairs, got [[0, 1, 2]]"),
        ({"basis": {"kind": "graph", "graph": {"n": 3, "edges": [[0, True]]},
                    "flip": "ZZZ"}},
         "graph edges must be a list of integer pairs"),
        # a missing field is named, not printed as a bare key
        ({"k": [0, 0, 1]}, "recipe has no 'basis' field"),
        ({"basis": {"graph": {"n": 3, "edges": [[0, 1]]}, "flip": "ZZZ"}},
         "basis has no 'kind' field"),
        ({"basis": {"kind": "graph", "flip": "ZZZ"}}, "graph basis has no 'graph' field"),
        ({"basis": {"kind": "graph", "graph": {"n": 3, "edges": [[0, 1]]}}},
         "graph basis has no 'flip' field"),
        # a field outside the format is named, not ignored
        ({"basis": {"kind": "ghz3", "flip": "XXX"}, "k": [0, 0, 1],
          "symbol": {"Z": "Q"}, "decomposition": {"kind": "none", "pivot": 7}},
         "recipe has unknown field 'symbol'"),
        ({"basis": {"kind": "ghz3", "flip": "XXX"}}, "ghz3 basis has unknown field 'flip'"),
        ({"basis": {"kind": "bell", "graph": {"n": 2, "edges": []}}},
         "bell basis has unknown field 'graph'"),
        ({"basis": {"kind": "graph", "graph": {"n": 3, "edges": [[0, 1]]}, "flip": "ZZZ",
                    "pivot": 0}},
         "graph basis has unknown field 'pivot'"),
        ({"basis": {"kind": "graph", "graph": {"n": 3, "edges": [[0, 1]], "loops": []},
                    "flip": "ZZZ"}},
         "graph has unknown field 'loops'"),
    ])
    def test_build_rejects_bad_graph_recipe(self, tmp_path, capsys, recipe, message):
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(recipe))
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"recipe error in {cfg}: ")
        assert message in captured.err

    @pytest.mark.parametrize("config", ["MISSING.json", "."])
    def test_build_unreadable_recipe_exits_2(self, tmp_path, capsys, config):
        # a missing file and a directory both give one line naming the file
        cfg = tmp_path / config
        assert cli_main(["build", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot read {cfg}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify", "table", "build"])
    def test_output_into_missing_directory_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "out.json"
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps({"basis": {"kind": "bell"}, "k": [0, 0, 1],
                                   "beta_q": 2.0}))
        argv = {"verify": ["verify", "--case", "chsh", "--json", str(out)],
                "table": ["table", "--format", "csv", "--out", str(out)],
                "build": ["build", "--config", str(cfg), "--out", str(out)]}[command]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {out}: ")
        assert err.count("\n") == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["verify", "table"])
    @pytest.mark.parametrize("samples", ["0", "-3", "many"])
    def test_samples_below_one_is_a_usage_error(self, capsys, command, samples):
        argv = [command, "--samples", samples] + ["--case", "uffink"] * (command == "verify")
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument --samples: must be an integer of at least 1, got '{samples}'" in err

    @pytest.mark.parametrize("command", ["verify", "table", "build"])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "many"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command, seed):
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(LOOP5_RECIPE))
        argv = {"verify": ["verify", "--case", "chsh"], "table": ["table"],
                "build": ["build", "--config", str(cfg), "--seesaw"]}[command]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument --seed: must be an integer of at least 0, got '{seed}'" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--case", "chsh", "--cap-qubits", "-3"],
        ["verify", "--case", "uffink", "--cap-qubits", "0"],
        ["table", "--cap-qubits", "0"],
        ["build", "--config", "recipe.json", "--cap-qubits", "-1"],
        ["verify", "--case", "chsh", "--cap-qubits", "2.5"],
    ])
    def test_cap_below_one_is_a_usage_error(self, capsys, argv):
        # rejected while parsing, before any case runs or any recipe is read
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert ("argument --cap-qubits: must be an integer of at least 1, "
                f"got '{argv[-1]}'") in err

    def test_build_has_no_samples_flag(self, tmp_path, capsys):
        cfg = tmp_path / "recipe.json"
        cfg.write_text(json.dumps(LOOP5_RECIPE))
        with pytest.raises(SystemExit) as exc:
            cli_main(["build", "--config", str(cfg), "--samples", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples 5" in capsys.readouterr().err

    @staticmethod
    def _module_env() -> dict:
        # the child imports the package this test imported, installed or not
        src = str(Path(bellforge.__file__).resolve().parents[1])
        return {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def _run_module(self, module: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", module, "list"],
                              capture_output=True, text=True, env=self._module_env())

    def test_reader_closed_before_output(self):
        # `bellforge list | head -1`: the reader is gone before the first write,
        # so every write fails with EPIPE; the command exits 1, as Python
        # does on EPIPE, without a traceback
        proc = subprocess.Popen([sys.executable, "-m", "bellforge", "list"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self._module_env())
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == ""

    def test_console_script_entry(self):
        proc = self._run_module("bellforge.cli")
        assert proc.returncode == 0
        assert "chsh" in proc.stdout.splitlines()

    def test_package_entry(self):
        proc = self._run_module("bellforge")
        assert proc.returncode == 0
        assert "chsh" in proc.stdout.splitlines()
