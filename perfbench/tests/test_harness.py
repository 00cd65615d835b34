"""Tests of the benchmark harness itself, on the seconds-long `small` size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

# a span each workload must reach, proving its traced run covers that layer
REACHED = {
    "query": ("select.score_grid.cells", "encode.query_db.entries", "io.read_descriptor_db.bytes"),
    "build": ("render.render_mesh.calls", "encode.fit_gmm.iterations", "encode.fisher_vector.rows"),
    "loo": ("select.ransac_viewpoint.self_s", "evaluate.make_synthetic_dataset.self_s",
            "scansim.simulate_scan.points"),
}


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def check_result(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in expected]
    for name, unit in expected:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", "0",
                 "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    check_result(result, END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
    assert record["machine"]["nproc"] >= 1 and record["machine"]["numpy"]
    assert "threads" in record["machine"]["blas"]
    assert record["run"]["seed"] == 7 and record["run"]["config"]["threads"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_accounts_for_its_wall_time(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", "1",
                 "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    check_result(result, PER_LAYER)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name in REACHED[workload]:
        assert values[name] > 0, name
    trace = json.loads((ROOT / ".perfbench" / "traces" / f"{workload}-small.json").read_text())
    self_total = sum(stat["self_s"] for stat in trace["stats"].values())
    assert all(stat["self_s"] >= 0 for stat in trace["stats"].values())
    assert values["trace.uncovered_s"] >= 0
    assert self_total + values["trace.uncovered_s"] == pytest.approx(values["trace.wall_s"],
                                                                     abs=1e-6)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nested_spans_self_times_sum_to_parent_duration():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap(lambda: None, "render.leaf")
    middle = tracer.wrap(lambda: (leaf(), leaf()), "select.middle")
    top = tracer.wrap(lambda: (middle(), leaf()), "cli.top")
    top()
    duration = {sid: end - start for sid, _, _, start, end in tracer.spans}
    child_sum = {}
    for sid, parent, *_ in tracer.spans:
        child_sum[parent] = child_sum.get(parent, 0.0) + duration[sid]
    self_by_name = {}
    for sid, _, name, _, _ in tracer.spans:
        own = duration[sid] - child_sum.get(sid, 0.0)
        assert own > 0
        self_by_name[name] = self_by_name.get(name, 0.0) + own
    assert self_by_name == {name: stat["self_s"] for name, stat in tracer.stats.items()}
    (root,) = [span for span in tracer.spans if span[1] < 0]
    assert root[2] == "cli.top"
    assert sum(self_by_name.values()) == duration[root[0]] == tracer.top_level_s()


def test_errors_count_once_per_module_they_leave():
    class Boom(ValueError):
        pass

    tracer = Tracer(error_type=Boom)

    def raise_boom():
        raise Boom("x")

    inner = tracer.wrap(raise_boom, "render.inner")
    same_module = tracer.wrap(lambda: inner(), "render.outer")
    caller = tracer.wrap(lambda: same_module(), "select.caller")
    with pytest.raises(Boom):
        caller()
    assert tracer.errors == {"render": 1, "select": 1}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert spec["command"][1] == "perfbench/run.py"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
