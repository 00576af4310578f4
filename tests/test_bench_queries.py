"""Smoke test for benchmarks/bench_queries.py: the bench must run on a
tiny workload, assert oracle/QuerySession answer parity, and emit a
well-formed BENCH_queries.json (schema only — no performance assertion;
speedup is hardware)."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH = REPO_ROOT / "benchmarks" / "bench_queries.py"


def _bench_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    return env


def test_smoke_emits_well_formed_json(tmp_path):
    out = tmp_path / "BENCH_queries.json"
    run = subprocess.run(
        [sys.executable, str(BENCH), "--durations", "40", "80",
         "--repeats", "2", "--kernel-duration", "40",
         "--kernel-repeats", "1", "--out", str(out)],
        capture_output=True, text=True, env=_bench_env(), timeout=300)
    assert run.returncode == 0, run.stderr

    payload = json.loads(out.read_text())
    assert payload["benchmark"] == "bench_queries"
    assert payload["workload"]["durations"] == [40, 80]
    assert len(payload["workload"]["statements"]) >= 8
    assert payload["parity"] is True
    assert payload["speedup"] > 0.0
    assert payload["backend"] == "python"
    assert len(payload["results"]) == 2
    for entry in payload["results"]:
        assert entry["statements"] >= 8
        assert entry["node_seconds"] > 0.0
        assert entry["flat_seconds"] > 0.0
        assert entry["flat_size_bytes"] < entry["node_size_bytes"]
    kernel = payload["kernel"]
    assert kernel["duration"] == 40
    assert kernel["python_seconds"] > 0.0
    if kernel["measured"]:
        assert kernel["parity"] is True
        assert kernel["kernel_speedup"] > 0.0
        assert payload["kernel_speedup"] == kernel["kernel_speedup"]
    else:
        assert payload["kernel_speedup"] is None

    # The bench's own --check mode agrees.
    check = subprocess.run(
        [sys.executable, str(BENCH), "--check", str(out)],
        capture_output=True, text=True, env=_bench_env(), timeout=60)
    assert check.returncode == 0, check.stderr


def test_numpy_backend_smoke(tmp_path):
    # The CI kernel-parity step: the numpy-backed flat pipeline must
    # agree with the node-DP oracle under the tolerance gate.
    out = tmp_path / "BENCH_queries.json"
    run = subprocess.run(
        [sys.executable, str(BENCH), "--durations", "40", "--repeats", "1",
         "--backend", "numpy", "--kernel-duration", "40",
         "--kernel-repeats", "1", "--out", str(out)],
        capture_output=True, text=True, env=_bench_env(), timeout=300)
    assert run.returncode == 0, run.stderr
    payload = json.loads(out.read_text())
    assert payload["backend"] == "numpy"
    assert payload["parity"] is True


def test_smoke_flag_runs_ci_sized_workload(tmp_path):
    out = tmp_path / "BENCH_queries.json"
    run = subprocess.run(
        [sys.executable, str(BENCH), "--smoke", "--out", str(out)],
        capture_output=True, text=True, env=_bench_env(), timeout=300)
    assert run.returncode == 0, run.stderr
    payload = json.loads(out.read_text())
    assert payload["workload"]["durations"] == [60]
    assert payload["repeats"] == 2


def test_check_rejects_malformed_payload(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"benchmark": "bench_queries"}))
    check = subprocess.run(
        [sys.executable, str(BENCH), "--check", str(bad)],
        capture_output=True, text=True, env=_bench_env(), timeout=60)
    assert check.returncode == 1
    assert "SCHEMA:" in check.stderr


def test_check_rejects_parity_failure(tmp_path):
    good = tmp_path / "ok.json"
    run = subprocess.run(
        [sys.executable, str(BENCH), "--durations", "40", "--repeats", "1",
         "--kernel-duration", "40", "--kernel-repeats", "1",
         "--out", str(good)],
        capture_output=True, text=True, env=_bench_env(), timeout=300)
    assert run.returncode == 0, run.stderr
    payload = json.loads(good.read_text())
    payload["parity"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    check = subprocess.run(
        [sys.executable, str(BENCH), "--check", str(bad)],
        capture_output=True, text=True, env=_bench_env(), timeout=60)
    assert check.returncode == 1
    assert "parity" in check.stderr
