"""Opt-in repo-wide static-analysis gate (``pytest -m lint``).

Excluded from the default run (see ``addopts`` in pyproject.toml), run
explicitly in CI.  It asserts the shipped tree is clean under
``python -m repro.analysis lint`` and that the sanitizer passes over a
real training step.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytestmark = pytest.mark.lint

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"


def test_shipped_tree_lints_clean():
    from repro.analysis import lint_paths

    issues = lint_paths([str(PACKAGE)])
    assert issues == [], "\n".join(str(i) for i in issues)


def test_lint_cli_exits_zero_on_clean_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", str(PACKAGE)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 issues" in proc.stdout


def test_lint_cli_exits_nonzero_on_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nnp.random.seed(0)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", str(bad)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "REP003" in proc.stdout


def test_lint_cli_json_mode(tmp_path):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nnp.random.seed(0)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", "--json", str(bad)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["clean"] is False and doc["issue_count"] == 1
    assert doc["issues"][0]["code"] == "REP003"
    assert doc["issues"][0]["line"] == 2


def test_lint_cli_sarif_mode(tmp_path):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nnp.random.seed(0)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", "--sarif",
         str(bad)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "REP003" in rule_ids and "REP009" in rule_ids
    result = run["results"][0]
    assert result["ruleId"] == "REP003"
    assert result["level"] == "error"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2


def test_lint_cli_sarif_clean_tree_exits_zero(tmp_path):
    import json

    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", "--sarif",
         str(good)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["runs"][0]["results"] == []


def test_repro_lint_json_passthrough():
    """``python -m repro lint --json`` forwards to the analysis CLI."""
    import json

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json"],
        capture_output=True, text=True, cwd=str(REPO),
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["clean"] is True


def test_sanitizer_smoke_full_training_step():
    """The shipped autograd closures all honour the ownership and
    mutation contracts over a real parallel training batch."""
    from repro.nn.sanitizer import sanitize
    from repro.nn import GPTConfig, LMBatches, SyntheticCorpus
    from repro.runtime import AxoNNTrainer

    cfg = GPTConfig(vocab_size=32, seq_len=8, n_layer=2, n_head=2,
                    hidden=16)
    trainer = AxoNNTrainer(cfg, g_inter=2, g_data=1, microbatch_size=2)
    corpus = SyntheticCorpus(cfg.vocab_size, 1_000, seed=0)
    x, y = LMBatches(corpus, batch_size=4, seq_len=cfg.seq_len).batch(0)
    with sanitize(anomaly=True):
        report = trainer.train_batch(x, y)
    assert np.isfinite(report.loss)
