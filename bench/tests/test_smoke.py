"""Smoke test of the benchmark on tiny variants of its three workloads.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDEN = workloads.load_golden()


def tiny(kind, workdir, golden=GOLDEN):
    if kind == "census-12":
        return workloads.Census(workdir, 12, golden["census-12"])
    if kind == "search-(3,3,4,3,4)-14":
        return workloads.Search((3, 3, 4, 3, 4), 14, 0)
    return workloads.Invariants(5, ["torus-4^4-7"], golden["invariants"])


KINDS = ("census-12", "search-(3,3,4,3,4)-14", "grid-14")


def evaluate(workload, trace, tmp_path, key="k"):
    checks = workloads.Checks()
    metrics, untraced, traced, counts = run.evaluate(
        workload, 0.0, trace, [0.01, 0.02, 0.03], checks,
        tmp_path / "counters.json", key)
    return metrics, checks, counts


def assert_metrics(metrics, spec):
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_benchmark_json_matches_the_printed_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("kind", KINDS)
def test_end_to_end_metrics_print_with_units(kind, tmp_path):
    metrics, checks, _ = evaluate(tiny(kind, tmp_path), False, tmp_path)
    assert_metrics(metrics, SPEC["end_to_end"])
    assert checks.failed == 0 and checks.attempted > 0
    assert metrics["success_rate"]["value"] == 1.0
    assert metrics["calibrated_wall_s"]["value"] > 0


@pytest.mark.parametrize("kind", KINDS)
def test_per_layer_metrics_print_and_self_times_add_up(kind, tmp_path):
    metrics, checks, _ = evaluate(tiny(kind, tmp_path), True, tmp_path)
    assert_metrics(metrics, SPEC["per_layer"])
    assert checks.failed == 0
    self_sum = sum(metrics[layers.self_metric(m)]["value"] for m in layers.MODULES)
    assert self_sum == pytest.approx(metrics["trace.wall_s"]["value"], abs=1e-6)


def test_census_counters(tmp_path):
    metrics, _, counts = evaluate(tiny("census-12", tmp_path), True, tmp_path)
    assert counts["classes"] == GOLDEN["census-12"]["total"]
    assert counts["completed_maps"] == metrics["enumeration.completed_maps"]["value"]
    assert counts["canonical_form_calls"] == counts["completed_maps"]
    assert metrics["classify.canonical_form.calls"]["value"] == counts["completed_maps"]


def test_zero_map_cell_does_no_map_work(tmp_path):
    metrics, _, counts = evaluate(tiny("search-(3,3,4,3,4)-14", tmp_path), True, tmp_path)
    assert counts["cells"] == [["(3,3,4,3,4)", 14, 0, 0]]
    assert counts["polyhedral_map_constructions"] == 0
    assert metrics["enumeration.enumerate_sems.calls"]["value"] == 1


@pytest.mark.parametrize("kind, corrupt", [
    ("census-12", lambda g: g["census-12"]["rows"][2].__setitem__(3, 0)),
    ("census-12", lambda g: g["census-12"].__setitem__("sha256", "0" * 64)),
    ("grid-14", lambda g: g["invariants"]["torus-4^4-7"].__setitem__("systole", 4)),
])
def test_wrong_golden_value_counts_in_error_rate(kind, corrupt, tmp_path):
    golden = copy.deepcopy(GOLDEN)
    corrupt(golden)
    metrics, checks, _ = evaluate(tiny(kind, tmp_path, golden), False, tmp_path)
    assert checks.failed == 1
    assert metrics["success_rate"]["value"] == 1 - 1 / checks.attempted


def test_counters_that_change_between_runs_of_one_code_fail(tmp_path):
    evaluate(tiny("grid-14", tmp_path), False, tmp_path, key="same-code")
    store = tmp_path / "counters.json"
    known = json.loads(store.read_text())
    known["same-code"]["polyhedral_map_constructions"] += 1
    store.write_text(json.dumps(known))
    _, checks, _ = evaluate(tiny("grid-14", tmp_path), False, tmp_path, key="same-code")
    assert checks.failed == 1


def test_calibrator_keeps_reference_calls_off_the_clock():
    start = time.perf_counter()
    with run.Calibrator() as calibrator:
        while time.perf_counter() - start < 0.5:
            pass
    work = [w for w, _ in calibrator.segments]
    refs = [r for _, r in calibrator.segments]
    assert len(calibrator.segments) >= 3
    # the last reference call runs after the work is over
    assert calibrator.wall + sum(refs[:-1]) == pytest.approx(0.5, abs=0.02)
    assert calibrator.calibrated == pytest.approx(
        sum(w * run.REFERENCE_NOMINAL_S / r for w, r in zip(work, refs)))


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "search-22",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
