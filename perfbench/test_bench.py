"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inproc  # noqa: E402
import run as bench  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC_PATH = os.path.join(bench.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def small_work(name, seed=1, L=40):
    params = bench.gen_params(name, seed)
    params["L"] = L
    if name == "transport-chain":
        params["modes"] = [2, L // 2, L + 1]
    return bench.build_work(name, params)


def test_metric_and_workload_names(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert all(NAME_RE.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS


def test_traced_run_reports_every_per_layer_metric(spec, tmp_path):
    work = small_work("transport-chain")
    out = inproc.trace({
        "workload": work.name, "params": work.params, "cli_args": list(work.cli_args),
        "seconds": 0, "spans_file": str(tmp_path / "spans.json"),
    })
    reported = {name: m["unit"] for name, m in out["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in out["metrics"].values())
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len(spans["spans"]) == out["spans"]


def test_seed_determinism():
    for name in bench.WORKLOADS:
        assert bench.make_work(name, 7) == bench.make_work(name, 7)
        assert bench.make_work(name, 7).cli_args != bench.make_work(name, 8).cli_args
    work = bench.make_work("transport-chain", 7)
    first, second = (bench.cli_child(work.cli_args) for _ in range(2))
    assert first.code == second.code == 0
    assert first.stdout == second.stdout


def test_gate_rejects_corrupted_rows():
    work = small_work("evolve-long")
    ref, problem = bench.reference(work)
    assert problem is None
    res = bench.cli_child(work.cli_args)
    assert bench.check_output(work, res.stdout, ref) == []

    lines = res.stdout.decode().split("\n")

    def corrupted(row, column, value):
        fields = lines[row].split(",")
        fields[column] = value
        return "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]).encode()

    g_s_to_an = bench.EVOLVE_HEADER.index("g_s_to_an")
    assert bench.check_output(work, corrupted(30, g_s_to_an, "nan"), ref)
    assert bench.check_output(work, corrupted(30, g_s_to_an, "-0.25"), ref)
    # A plausible but wrong coefficient is caught by the oracle cross-check alone.
    assert bench.check_output(work, corrupted(10, 1, "0.5"), ref)


def test_gate_checks_scan_markovian_line_and_transport_column():
    scan = small_work("scan-grid", L=20)
    out = bench.cli_child(scan.cli_args).stdout
    assert bench.check_output(scan, out) == []
    lines = out.decode().split("\n")
    markovian = next(i for i, line in enumerate(lines) if line.split(",")[1:2] == ["1"])
    lines[markovian] = ",".join(lines[markovian].split(",")[:2] + ["1e-9", "0", "0"])
    assert bench.check_output(scan, "\n".join(lines).encode())

    transport = small_work("transport-chain")
    ref, problem = bench.reference(transport)
    assert problem is None
    out = bench.cli_child(transport.cli_args).stdout
    assert bench.check_output(transport, out, ref) == []
    assert bench.check_output(transport, out, ref[:-1] + ["9"])


def test_peak_rss_is_per_child():
    large = bench.run_child(["-c", "b = b'x' * (300 << 20)"])
    small = bench.run_child(["-c", "pass"])
    assert large.code == small.code == 0
    assert large.peak_rss_mb > 300
    assert small.peak_rss_mb < large.peak_rss_mb - 200


def test_fails_without_the_package(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
