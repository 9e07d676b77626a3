"""Smoke tests of the benchmark itself (not part of the project's test suite).

    python3 -m pytest perfbench

Each run uses ``--smoke``: one setup, one enrollment and the fewest
requests, so the whole file takes about a minute.
"""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE = ["--seed", "1", "--seconds", "0", "--smoke"]


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--trace", str(trace), *SMOKE)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def _flip_last_flag(fn):
    """Flip the low_count flag of a report's last row: a one-byte change."""

    def corrupted(*args, **kwargs):
        text = fn(*args, **kwargs)
        return text[:-2] + ("1" if text[-2] == "0" else "0") + text[-1]

    return corrupted


def _nudge_first_score(fn):
    """Scale one score by 1 + 1e-6, far outside the 1e-9 tolerance."""

    def corrupted(sheets):
        nudged = []
        for sheet in sheets:
            (speaker_id, value), *rest = sheet.scores
            scores = ((speaker_id, value * (1 + 1e-6)), *rest)
            nudged.append(dataclasses.replace(sheet, scores=scores))
        return fn(nudged)

    return corrupted


CORRUPTIONS = {
    "duration-grid": ("experiment", "emit_report", _flip_last_flag),
    "phonetic-disk": ("cli", "emit_report", _flip_last_flag),
    "cli-wav": ("cli", "score_sheets_csv", _nudge_first_score),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    # Import every sosid module first: a name bound by ``from ... import`` at
    # import time would otherwise capture the patched function for good.
    importlib.import_module("workloads")
    module_name, attr, corrupt = CORRUPTIONS[workload]
    module = importlib.import_module(f"sosid.{module_name}")
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))

    assert run.main(["--workload", workload, "--trace", "0", *SMOKE]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--trace", "0", *SMOKE)
    assert proc.returncode != 0
    assert proc.stdout == ""
