"""Case catalog, report emission, CLI behavior, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellforge.cases import (
    CaseResult,
    RunConfig,
    case_names,
    emit_table,
    run_case,
    run_cases,
)
import bellforge
from bellforge import bounds
from bellforge.cli import main as cli_main

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

    def test_verify_json_output(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli_main(["verify", "--case", "mermin3", "--json", str(out),
                       "--seed", "4"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload[0]["case"] == "mermin3"

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

    def test_build_chained_recipe_honours_cap(self, tmp_path, capsys):
        recipe = {"basis": {"kind": "bell"}, "k": [0, 0, 1], "beta_q": 2.0,
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

    def test_console_script_entry(self):
        # the child imports the package this test imported, installed or not
        src = str(Path(bellforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "bellforge.cli", "list"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "chsh" in proc.stdout.splitlines()
