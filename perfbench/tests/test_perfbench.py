"""Tests of the benchmark itself, not of frcodes.

    python3 -m pytest perfbench/tests

They take about two minutes: the per-layer test runs every workload once
untraced and once traced.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

# Each per-layer metric is mapped to the workload where the layer does
# its work; there it must be non-zero.
NONZERO_ON = {
    "soak56": [
        "subspace.add.calls", "subspace.le.calls", "subspace.express.calls",
        "subspace.solve.calls", "subspace.self_s",
        "storage.find_repair_witness.calls", "storage.find_repair_witness.self_s",
        "storage.check_repair_property.self_s", "storage.collections_checked",
        "storage.membership_tests", "storage.replace.calls", "storage.self_s",
        "simulator.repair.p50_ms", "simulator.repair.p99_ms",
        "simulator.collect.self_s", "simulator.newcomer_cache_hit_ratio",
        "simulator.downloads_per_event",
        "fsc.parse_fsc.s", "fsc.bytes_parsed", "fsc.document_to_states.s",
        "cli.self_s", "trace_overhead_ratio",
    ],
    "soak_family": [
        "subspace.enum.calls", "subspace.enum.yielded", "subspace.self_s",
        "storage.iter_obtainable.yielded", "storage.iter_obtainable.distinct",
        "storage.candidate_distinct_ratio", "storage.valid_newcomers.calls",
        "storage.valid_newcomers.self_s", "storage.membership_tests",
        "storage.replace.calls", "storage.self_s",
        "family.is_good.calls", "family.is_good.self_s", "family.cached_collections",
        "simulator.repair.p50_ms", "simulator.repair.p99_ms",
        "simulator.collect.self_s", "simulator.newcomer_cache_hit_ratio",
        "simulator.downloads_per_event", "trace_overhead_ratio",
    ],
    "search56": [
        "gf.mul.calls", "gf.add.calls", "gf.inv.calls",
        "subspace.rank_of.calls", "subspace.matmul.calls", "subspace.self_s",
        "storage.check_repair_property.self_s", "storage.collections_checked",
        "groupsearch.group_closure.calls", "groupsearch.group_elements",
        "groupsearch.compose.calls", "groupsearch.group_closure.self_s",
        "groupsearch.orbit_code.calls", "groupsearch.orbit_code.self_s",
        "groupsearch.orbits_verified_ratio", "groupsearch.transition_maps.self_s",
        "groupsearch.stabilizer.self_s",
        "fsc.parse_fsc.s", "fsc.bytes_parsed", "cli.self_s", "trace_overhead_ratio",
    ],
    "maxcheck": [
        "subspace.meet.calls", "subspace.self_s",
        "partition_code.max_collection_size.self_s",
        "partition_code.build_partition.s", "partition_code.code_states.s",
        "cli.self_s", "trace_overhead_ratio",
    ],
}


def _bench(tmp_root: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tmp_root,
                          capture_output=True, text=True, timeout=200)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_UNITS


def test_every_per_layer_metric_is_mapped_to_a_workload():
    mapped = {name for names in NONZERO_ON.values() for name in names}
    assert mapped == set(tracer.PER_LAYER_UNITS)


def test_input_files_match_a_fresh_render():
    assert inputs.check() == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_are_nonzero_where_mapped(workload):
    result = _result(_bench(ROOT, "--workload", workload, "--seed", "3",
                            "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(tracer.PER_LAYER_UNITS)
    zero = [name for name in NONZERO_ON[workload] if not metrics[name] > 0]
    assert zero == []


def test_end_to_end_metrics_are_reported_and_positive():
    result = _result(_bench(ROOT, "--workload", "soak56", "--seed", "5",
                            "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == worker.STEPS["soak56"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_speed_probe_samples_during_a_phase_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.Probe()
    probe.start()
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        pass
    probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.passes) >= 3
    assert 0 < probe.in_handler < 0.5
    assert probe.factor() > 0


def test_worker_scales_its_raw_times():
    deadline = time.monotonic() + 120
    result = run.run_worker("soak56", 4, 0, "full", 0, deadline)
    assert result["failed"] == 0
    assert result["wall_raw_s"] > 0 and result["setup_raw_s"] > 0
    ratio = result["wall_s"] / result["wall_raw_s"]
    assert 0.1 < ratio < 10
    traced = run.run_worker("soak56", 4, 0, "full", 1, deadline)
    assert traced["wall_s"] == traced["wall_raw_s"]


def test_same_seed_gives_the_same_report_digest():
    deadline = time.monotonic() + 120
    first = run.run_worker("soak56", 9, 2, "full", 0, deadline)
    again = run.run_worker("soak56", 9, 2, "full", 0, deadline)
    other = run.run_worker("soak56", 9, 3, "full", 0, deadline)
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


def test_failing_input_counts_as_error_without_crashing():
    bad = ROOT / "tests" / "data" / "example1_bad.fsc"
    outcome = worker.simulate_cli(str(bad), "1011", 10, 7)
    assert (outcome.attempted, outcome.failed) == (10, 10)
    assert outcome.error
    tally = run.Tally("soak56")
    tally.add(None)
    assert tally.failed == tally.attempted == worker.STEPS["soak56"]


def test_tracer_wraps_every_binding_and_restores_them():
    worker.import_frcodes()
    from frcodes import cli, groupsearch, partition_code, simulator, storage, subspace

    bindings = [(simulator, "find_repair_witness"), (storage, "find_repair_witness"),
                (simulator, "valid_newcomers"), (storage, "valid_newcomers"),
                (cli, "symmetry_search"), (groupsearch, "symmetry_search"),
                (cli, "max_collection_size"), (partition_code, "max_collection_size"),
                (simulator, "express"), (groupsearch, "express"), (subspace, "express")]
    before = [getattr(module, name) for module, name in bindings]
    add = subspace.Subspace.__dict__["__add__"]
    traced = tracer.Tracer()
    traced.install()
    try:
        during = [getattr(module, name) for module, name in bindings]
        assert all(now is not old for now, old in zip(during, before))
        assert simulator.find_repair_witness is storage.find_repair_witness
        assert cli.symmetry_search is groupsearch.symmetry_search
        assert cli.max_collection_size is partition_code.max_collection_size
        assert subspace.Subspace.__dict__["__add__"] is not add
        assert worker.run_cli(["verify", str(ROOT / "tests" / "data" / "example1.fsc")])[0] == 0
    finally:
        traced.restore()
    assert [getattr(module, name) for module, name in bindings] == before
    assert subspace.Subspace.__dict__["__add__"] is add
    assert traced.stats["storage.check_repair_property"].calls == 1
    assert traced.stats["fsc.parse_fsc"].amount > 0


def test_benchmark_alone_fails_without_printing_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "soak56", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
