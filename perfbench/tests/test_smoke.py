"""Smoke test of the benchmark: one tiny run per workload, untraced and traced.

Run with ``python3 -m pytest perfbench/tests``. Each run does the smallest
amount of work a run can do (one round, or one untraced and one traced
round), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "run.py"
ROOT = RUN.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def run(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-2])["context"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run(workload):
    untraced = run(workload, 0)
    traced = run(workload, 1)
    for (lines, _, result), kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        assert lines[0].startswith(f"{workload}: error_rate=0.000000 ratio")
        units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        for name, unit in units.items():
            assert any(line.startswith(f"{workload}: {name}=") and line.endswith(f" {unit}")
                       for line in lines), name
    for metric in untraced[2]["metrics"].values():
        assert metric["value"] > 0
    # Round 0 of the traced run issues the same ops as round 0 untraced.
    assert traced[1]["round_digests"][0] == untraced[1]["round_digests"][0]
    assert traced[1]["absent"] == []
    assert traced[2]["metrics"]["remote.remote_invoke.unattributed_share"]["value"] <= 0.10


def test_refuses_to_run_without_sources(tmp_path):
    """Without src/rrt beside it the benchmark exits non-zero and prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in RUN.parent.glob("*.py"):
        (bench / source.name).write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "echo_ref",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_missing_trace_target_is_reported_absent(monkeypatch):
    """A traced name that a later change removes is listed, not fatal."""
    monkeypatch.syspath_prepend(str(RUN.parent))
    import bootstrap  # noqa: F401
    import spans
    from rrt import codec

    original = codec.encode_request
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("rrt.codec", "gone", "codec.gone"),))
    tracer = spans.Tracer()
    tracer.install()
    assert codec.encode_request is not original
    tracer.uninstall()
    assert codec.encode_request is original
    assert tracer.absent == ["rrt.codec.gone"]
