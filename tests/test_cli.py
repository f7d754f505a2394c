"""Tests for the command-line interface."""

import csv
import json

import pytest

from repro.cli import COMMANDS, EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig9", "table2", "all"):
            assert name in out

    def test_list_describes_every_name(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split()[0] for line in lines]
        assert set(EXPERIMENTS) < set(COMMANDS)
        assert names == list(COMMANDS)
        for line in lines:
            name, _, text = line.strip().partition(" ")
            assert text.strip(), name

    def test_ablations_exits_nonzero_on_a_failed_claim(self, monkeypatch,
                                                       capsys):
        import repro.experiments as ex
        monkeypatch.setattr(ex, "full_grid_claims",
                            lambda rows: {"forced": False})
        assert main(["ablations"]) == 1
        assert "[FAIL] forced" in capsys.readouterr().out

    def test_all_experiments_registered(self):
        expected = {"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "fig11", "table1", "table2",
                    "ablations"}
        assert set(EXPERIMENTS) == expected

    def test_table1_runs_and_passes(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_fig3_fast(self, capsys):
        assert main(["fig3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "intra-node" in out

    def test_fig10_fast(self, capsys):
        assert main(["fig10", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "curves_coincide" in out

    def test_fig9_model_filter(self, capsys):
        assert main(["fig9", "--models", "12B"]) == 0
        out = capsys.readouterr().out
        assert "12B" in out
        assert "24B" not in out

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        assert main(["table1", "--csv", str(path)]) == 0
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["gpus"] == "48"

    def test_trace_runtime_substrate(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["trace", "--fast", "--substrate", "runtime",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "runtime" in out
        doc = json.loads(path.read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete
        for e in complete:
            for key in ("name", "ts", "dur", "pid", "tid"):
                assert key in e, key

    def test_trace_both_substrates(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["trace", "--fast", "--out", str(path)]) == 0
        for suffix in ("sim", "runtime"):
            doc = json.loads((tmp_path / f"trace-{suffix}.json").read_text())
            assert any(e["ph"] == "X" for e in doc["traceEvents"]), suffix

    def test_list_includes_serve(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "serve" in out
        assert "fleet" in out
        assert "REP012" in out
        assert "sched" in out
        assert "scaling4d" in out
        assert "train" in out
        assert "verify" in out

    def test_verify_fast(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "verify: PASS" in out
        assert "[FAIL]" not in out
        # The seeded mutant's counterexample is printed in full.
        assert "wait-for graph" in out
        assert "rank 0 waits on rank 1" in out

    def test_serve_functional_fast(self, capsys):
        assert main(["serve", "--fast", "--substrate", "runtime"]) == 0
        out = capsys.readouterr().out
        assert "functional equivalence" in out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_serve_sim_fast_with_csv_and_report(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        report_path = tmp_path / "serve.json"
        assert main(["serve", "--fast", "--substrate", "sim",
                     "--csv", str(csv_path),
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert float(rows[0]["load_fraction"]) == 0.25
        doc = json.loads(report_path.read_text())
        assert all(doc["sim"]["claims"].values())

    def test_fleet_functional_fast(self, capsys):
        assert main(["fleet", "--fast", "--substrate", "runtime"]) == 0
        out = capsys.readouterr().out
        assert "functional equivalence" in out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_fleet_sim_fast_with_report(self, tmp_path, capsys):
        report_path = tmp_path / "fleet.json"
        assert main(["fleet", "--fast", "--substrate", "sim",
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        doc = json.loads(report_path.read_text())
        assert all(doc["sim"]["claims"].values())
        policies = [r["policy"] for r in doc["sim"]["autoscaling"]]
        assert policies == ["static-peak", "reactive", "predictive"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize("argv", [
        ["train", "--steps", "0"],
        ["train", "--steps", "-2", "--backend", "process"],
        ["train", "--ranks", "0"],
        ["train", "--g-intra", "0"],
        ["sched", "--ranks", "0"],
        ["sched", "--microbatches", "0"],
        ["sched", "--microbatches", "two"],
    ])
    def test_non_positive_counts_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code != 0
        assert "must be an integer >= 1" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "table1"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "Table I" in proc.stdout
