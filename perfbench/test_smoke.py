"""Smoke test of the benchmark harness at tiny n.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# ``gen-proof 4 --style ours`` must write the golden proof byte for byte.
GOLDEN = (run.ROOT / "tests" / "golden" / "proof-ours-4.drat").read_bytes()
OURS_4 = (len(GOLDEN), hashlib.sha256(GOLDEN).hexdigest())
TINY = {
    name: dataclasses.replace(wl, n=4, output=OURS_4 if wl.kind == "gen" else None)
    for name, wl in run.WORKLOADS.items()
}


def printed_units(stdout: str) -> dict[str, str]:
    """``name value unit`` lines as {name: unit}."""
    units = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 3:
            units[fields[0]] = fields[2]
    return units


def assert_reports(result: dict, stdout: str, expected: dict[str, str]) -> None:
    assert printed_units(stdout) == expected
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert json.loads(stdout.splitlines()[-1]) == result


def test_every_end_to_end_metric_is_printed_with_its_unit(tmp_path, capsys):
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for wl in TINY.values():
        result = run.measure(wl, seed=3, seconds=0, root=run.ROOT, work=tmp_path)
        assert result["correct"] and result["failed"] == 0
        assert_reports(result, capsys.readouterr().out, expected)


def test_traced_runs_print_every_layer_metric_and_their_self_checks_pass(tmp_path, capsys):
    n = TINY["ours-check"].n
    expected = {
        m["name"]: m["unit"]
        for m in SPEC["per_layer"]
        if not m["name"].startswith("iter.") or int(m["name"].split(".")[1][1:]) < n
    }
    results = {}
    for name, wl in TINY.items():
        result = run.trace(wl, 3, run.ROOT, tmp_path, workloads=TINY)
        assert result["correct"] and result["failed"] == 0
        assert_reports(result, capsys.readouterr().out, expected)
        results[name] = {k: m["value"] for k, m in result["metrics"].items()}
    # Each run profiles only its own workload.
    assert results["ours-gen"]["rup.calls"] == 0 and results["ours-gen"]["parse.s"] == 0
    assert results["ours-check"]["delete.calls"] == 0 and results["ours-check"]["rat.pass"] > 0
    assert results["cook-check-del"]["delete.calls"] > 0
    spans = json.loads((tmp_path / "trace-cook-check-del-seed3.json").read_text())["spans"]
    assert {"generate", "emit", "parse", "verify", "verify.traced", "replay"} <= {
        span["name"] for span in spans
    }


def test_gen_gate_trips_on_output_other_than_the_pinned_proof(tmp_path):
    wl = dataclasses.replace(TINY["ours-gen"], output=(OURS_4[0], "0" * 64))
    result = run.measure(wl, seed=3, seconds=0, root=run.ROOT, work=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1  # all but the paper's count


def test_soundness_gate_trips_when_the_checker_always_accepts(tmp_path):
    fake = tmp_path / "fake"
    shutil.copytree(run.ROOT / "src", fake / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", "*.so"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy2(run.ROOT / name, fake / name)
    with open(fake / "src" / "pigeonproof" / "checker.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef verify(formula, proof, strict_deletions=False, backend=None):\n"
                     "    return Verdict(ACCEPTED)\n")
    work = tmp_path / "work"
    work.mkdir()
    for name in ("ours-check", "cook-check-del"):
        result = run.measure(TINY[name], seed=3, seconds=0, root=fake, work=work)
        assert not result["correct"]
        # Every timed check is "accepted"; only the soundness gate fails.
        assert result["failed"] == 1


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy2(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ours-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
