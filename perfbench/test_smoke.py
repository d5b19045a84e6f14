"""Seconds-long smoke test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    info = json.loads(info_line)["info"]
    assert info["seed"] == 3 and info["nproc"] >= 1 and info["python"]
    if trace:
        assert info["unhooked"] == []
    else:
        assert info["op_samples"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_counts(workload):
    """The same seed gives the same inputs and counts, however many passes
    a run makes."""
    runs = [bench("--workload", workload, "--seed", "5", "--seconds", seconds,
                  "--size", "tiny") for seconds in ("0", "1")]
    lines = [p.stdout.strip().splitlines() for p in runs]
    infos = [json.loads(line[-2])["info"] for line in lines]
    results = [json.loads(line[-1]) for line in lines]
    assert infos[0]["passes"] < infos[1]["passes"]
    assert infos[0]["checks"] == infos[1]["checks"]
    assert len(infos[0]["checks"]) == 1
    assert infos[0]["fail_ratio"] == infos[1]["fail_ratio"]
    assert [(r["attempted"], r["failed"]) for r in results][0] == \
        [(r["attempted"], r["failed"]) for r in results][1]
    if workload.startswith("verify"):
        assert results[0]["failed"] == 0
        assert results[0]["attempted"] == sum(infos[0]["checks"][0]["cases"].values())


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    lower = {"name": "wall_s", "better": "lower", "bound": 0.1}
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.5 for v in parent]
    assert compare.judge(lower, parent, faster)["gain"] == "gain"
    assert compare.judge(lower, parent, faster)["bound"] == "ok"
    assert compare.judge(lower, parent[:5], faster[:5])["gain"] == "unresolved"
    same = parent[1:] + parent[:1]
    assert compare.judge(lower, parent, same)["gain"] == "unresolved"
    slower = [v * 1.5 for v in parent]
    assert compare.judge(lower, parent, slower)["bound"] == "regression"
    noisy = [5.0, 15.0] * 5
    assert compare.judge(lower, noisy, noisy)["bound"] == "unresolved"
    assert compare.judge(lower, parent, faster, more_failures=True)["gain"] == "unresolved"


def test_compare_requires_the_same_work():
    check = {"cases": {"compat": 10}, "report_sha256": {"compat": "ab"}}
    fewer = {"cases": {"compat": 9}, "report_sha256": {"compat": "cd"}}
    assert compare.work_done({"checks": [check]}) == compare.work_done({"checks": [check]})
    assert compare.work_done({"checks": [check]}) != compare.work_done({"checks": [fewer]})
    sent = {"requests_sha256": "ef", "requests_by_kind": {"flip": {"sent": 5, "failed": 0}}}
    fixed = {"requests_sha256": "ef", "requests_by_kind": {"flip": {"sent": 5, "failed": 1}}}
    assert compare.work_done({"checks": [sent]}) == compare.work_done({"checks": [fixed]})


def test_missing_hooks_are_listed():
    program = types.SimpleNamespace(
        **{m: types.ModuleType(m) for m in workloads.MODULES})
    t = tracer.Tracer()
    t.install(program)
    t.uninstall()
    assert {"disk.crosses", "quiver.ColoredQuiver.mutate",
            "verify.random_walk"} <= set(t.unhooked)
