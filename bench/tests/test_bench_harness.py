"""Checks of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import layer_trace  # noqa: E402
from ctctag.tag_parser import AnomalyKind  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = harness.load_workloads()


def tiny(name: str) -> harness.Workload:
    spec = WORKLOADS[name]
    return dataclasses.replace(spec, n_train=24, n_heldout=6)


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_metric_names_and_workloads_match_the_contract():
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    for kind in AnomalyKind:
        assert f"tag_parser.anomalies.{kind.value}" in units("per_layer")
    assert {w["name"] for w in CONTRACT["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(name, tmp_path):
    result, _ = harness.run(tiny(name), seed=3, seconds=0, trace=False, work=tmp_path / "w")
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    timings = [v["value"] for v in result["metrics"].values() if v["unit"] in ("1/s", "s", "us")]
    assert all(t > 0 for t in timings)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_per_layer_metrics_and_unwraps(name, tmp_path):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in layer_trace.targets()]
    result, _ = harness.run(tiny(name), seed=3, seconds=0, trace=True, work=tmp_path / "w",
                            trace_out=tmp_path / "trace.jsonl")
    assert result["correct"], result
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} still wrapped"

    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    trains = WORKLOADS[name].train_epochs > 0
    assert (metrics["ctc.calls"] > 0) == trains
    assert metrics["decoder.greedy_calls"] == 2 * harness.DECODE_REPEATS * 6
    assert metrics["decoder.stream_mismatches"] == 0
    spans = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert {"name", "start_us", "end_us", "parent", "uid"} <= set(spans[0])
    assert any(s["name"] == "decoder.push" and s["uid"] for s in spans)


def test_tracing_unwraps_when_the_block_raises():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in layer_trace.targets()]
    with pytest.raises(RuntimeError):
        with layer_trace.tracing(layer_trace.Tracer()):
            raise RuntimeError("boom")
    assert all(owner.__dict__[attr] is original for owner, attr, original in originals)
