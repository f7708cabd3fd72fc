"""Tests of the benchmark harness.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inccat  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def _child(workload: str, seed: int, trace: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--check", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if isinstance(v, int)}


def test_tail_leaves_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_wrappers_see_internal_calls_and_uninstall():
    original = inccat.posets.canonical_form
    with Tracer("test") as tracer:
        assert inccat.families.canonical_form is not original
        inccat.fin_up_to(4)
    table = tracer.table()
    assert table["posets.canonical_form.calls"] > 0
    assert table["posets.Poset.init_calls"] > 0
    assert table["families.generate.calls"] == 1
    assert inccat.posets.canonical_form is original
    assert inccat.families.canonical_form is original
    assert tracer.missing == []


def test_self_time_excludes_child_spans():
    with Tracer("test") as tracer:
        inccat.fin_up_to(4)
    spans = len(tracer.name)
    total = sum(tracer.end[i] - tracer.start[i] for i in range(spans) if tracer.parent[i] < 0)
    table = tracer.table()
    self_sum = sum(v for k, v in table.items() if k.endswith("self_s"))
    assert self_sum == pytest.approx(total, rel=1e-6)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with Tracer("test") as tracer:
        inccat.fin_up_to(2)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(tracer.table()) | {"trace_overhead_ratio"}
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.END_TO_END)


def test_traced_pass_matches_untraced():
    plain = _child("k0-snf", 3, 0)
    traced = _child("k0-snf", 3, 1)
    assert traced["digest"] == plain["digest"]
    assert traced["failed"] == plain["failed"] == 0
    assert traced["layers"]["linalg.smith_diagonal.calls"] > 0


def test_traced_counts_repeat_on_the_same_seed():
    first = _child("hall-fin7", 5, 1)
    second = _child("hall-fin7", 5, 1)
    assert first["failed"] == second["failed"] == 0
    assert _counts(first["layers"]) == _counts(second["layers"])
    assert first["layers"]["hall.product.calls"] > 0


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "k0-snf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
