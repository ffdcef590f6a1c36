"""Tests of the benchmark itself: names, tracer hygiene, output checks, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

from tracer import Tracer, ast_counts  # noqa: E402


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_names_are_well_formed_and_unique():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name
    assert len(names) == len(set(names))
    assert {w["name"] for w in bench["workloads"]} == set(_load_run().WORKLOADS)


def test_ast_counts_share_subtrees():
    from curvcheck import expr as ex

    x = ex.parse("x*x + sin(x*x)", ["x"])
    tree_nodes, distinct = ast_counts([x, x])
    # x*x + sin(x*x): + , *, x, x, sin, *, x, x  -> 8 nodes per tree
    assert tree_nodes == 16
    assert distinct == 4  # x, x*x, sin(x*x), the sum


def _namespace_snapshot():
    from curvcheck import cli

    snap = {}
    for name, module in sorted(sys.modules.items()):
        if name == "curvcheck" or name.startswith("curvcheck."):
            snap[name] = dict(vars(module))
    snap["Job.sample_ok"] = cli.Job.sample_ok
    return snap


def test_tracer_restores_every_attribute():
    from curvcheck import cli, curvops, geometry, geomap, roter

    before = _namespace_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        for owner, attr in ((roter, "derivation_apply"), (geomap, "derivation_apply"),
                            (geomap, "tachibana"), (geomap, "fit_roter"),
                            (geometry, "kulkarni_nomizu"), (curvops, "tachibana"),
                            (roter, "proportionality"), (cli, "run_manifest")):
            assert getattr(owner, attr) is not before[owner.__name__][attr], attr
        assert cli.Job.sample_ok is not before["Job.sample_ok"]
    finally:
        tracer.restore()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    for key in before:
        if key == "Job.sample_ok":
            assert after[key] is before[key]
            continue
        assert after[key].keys() == before[key].keys(), key
        for attr, value in before[key].items():
            assert after[key][attr] is value, f"{key}.{attr}"


def test_run_refuses_to_report_when_a_check_fails(monkeypatch, capsys):
    bench = _load_run()
    reference = bench.load_reference()
    reference["checks"]["tiny"]["charged_sweep"] += 1
    monkeypatch.setattr(bench, "load_reference", lambda: reference)
    code = bench.main(["--workload", "charged_sweep", "--seed", "3", "--seconds", "0",
                        "--trace", "0", "--size", "tiny"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "reference says" in out.err


def test_check_rep_rejects_off_expectation_records():
    bench = _load_run()
    rep = {"checks": 10, "off_expectation": 1, "not_ok_records": 1}
    with pytest.raises(bench.BenchError):
        bench.check_rep(rep, 10)
    bench.check_rep(dict(rep, off_expectation=0, not_ok_records=0), 10)


@pytest.mark.parametrize("workload", ["corpus", "family_sweep", "charged_sweep"])
def test_smoke_untraced(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0",
                "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["metrics"]["on_expectation_ratio"]["value"] == 1.0
    stamp = json.loads(lines[-2])["stamp"]
    assert stamp["seed"] == 5 and stamp["workload"] == workload


def test_smoke_traced_reports_every_per_layer_metric():
    proc = _run("--workload", "family_sweep", "--seed", "5", "--seconds", "0", "--trace", "1",
                "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    names = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["expr.compile_exprs.tree_nodes"] > metrics["expr.compile_exprs.distinct_nodes"]
    assert metrics["geometry.frame.distinct"] <= metrics["geometry.frame.calls"]
    assert metrics["entry.theorem41_n4.run_s"] > 0
    assert metrics["trace.overhead_ratio"] > 0


def test_fails_without_curvcheck_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
