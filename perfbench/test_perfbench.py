"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import arithfn as A  # noqa: E402
import run  # noqa: E402
from tracing import NullTracer, Span, self_times, tagged_medians  # noqa: E402
from workloads import SMALL, WORKLOADS  # noqa: E402

SPEC = run.load_spec()
NAMES = list(WORKLOADS)


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", NAMES)
def test_small_run_emits_every_end_to_end_metric(name):
    raw = run.measure(name, seed=3, seconds=0, trace=False, sizes=SMALL)
    result, missing = run.report(SPEC, raw, trace=False)
    assert missing == []
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_small_traced_run_emits_every_layer_metric(name):
    raw = run.measure(name, seed=4, seconds=0, trace=True, sizes=SMALL)
    result, missing = run.report(SPEC, raw, trace=True)
    assert missing == []
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    assert result["correct"]
    assert set(raw["layer_self_s"]) >= {"factor", "ladditive", "convolution", "mangoldt", "series", "cli"}


def _perturb(name: str, results: list, workload) -> None:
    """Corrupt one result the way a wrong program would."""
    if name == "catalog":
        results[0] = dataclasses.replace(results[0], holds=False, mismatch_n=7)
    elif name == "series":
        results[0] = dataclasses.replace(results[0], lhs=results[0].lhs + 1e-3)
    elif name == "points":
        i = next(i for i, op in enumerate(workload.ops) if op.tag == "ladditive.eval_natural_us")
        results[i] += 1
    else:
        values = results[0].values()
        values[workload.conv_n[0] - 1] += 1
        results[0] = A.TabulatedFunction.from_values(values)


@pytest.mark.parametrize("name", NAMES)
def test_perturbed_result_raises_fail_ratio(name):
    workload = WORKLOADS[name](5, SMALL)
    log = run.run_pass(workload, NullTracer(), keep_results=True)
    assert log.failures == {}
    _perturb(name, log.results, workload)
    log.failures = workload.failures(log)
    raw = {"metrics": run.end_to_end([log], [0.1]), "logs": [log]}
    result, _ = run.report(SPEC, raw, trace=False)
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]


def test_failed_check_gives_nonzero_exit(monkeypatch, capsys):
    monkeypatch.setattr(WORKLOADS["series"], "check_op", lambda self, i, r, log: "forced")
    args = argparse.Namespace(workload="series", seed=1, seconds=0, trace=0)
    assert run.run_one(args, SPEC, sizes=SMALL) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children_and_ops_sum():
    spans = [
        Span(1, 0, 7, "convolution.tabulate", "t", 1.0, 1.5),
        Span(2, 0, 7, "convolution.tabulate", "t", 2.0, 2.25),
        Span(0, None, None, "pass.x", None, 0.0, 3.0),
        Span(3, None, 8, "convolution.tabulate", "t", 4.0, 5.0),
    ]
    assert self_times(spans)[0] == pytest.approx(2.25)
    # op 7 is one sample of 0.75 s, op 8 another of 1.0 s
    assert tagged_medians(spans)["t"] == pytest.approx(0.875)
