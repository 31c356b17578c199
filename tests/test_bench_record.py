"""The paired recorder of tools/bench_record.py on canned run.py and pytest
output: it runs no benchmark and no tests."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run_py_output(workload, seed, values, failed=0):
    """What perfbench/run.py --trace 0 prints: provenance, table, JSON."""
    prov = {"git_sha": "0" * 40, "git_dirty": False, "workload": workload, "seed": seed,
            "seconds": 2.0, "nproc": 2, "cpu_model": "cpu", "python": "3.11.7",
            "numpy": "2.4.6", "ops": 7, "traced_ops": 0}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in END_TO_END}
    table = [f"{workload:16s} {name:48s} {m['value']:14.6g} {m['unit']}"
             for name, m in metrics.items()]
    table.append(f"{workload:16s} {'fail_frac':48s} {failed / 7:14.6g} 1  ({failed} of 7 ops)")
    summary = {"correct": failed == 0, "attempted": 7, "failed": failed, "metrics": metrics}
    return "\n".join(["provenance " + json.dumps(prov), *table, json.dumps(summary)]) + "\n"


@pytest.fixture
def parent(tmp_path):
    (tmp_path / "parent" / "perfbench").mkdir(parents=True)
    (tmp_path / "parent" / "perfbench" / "run.py").touch()
    (tmp_path / "parent" / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "parent" / "src" / "pkg" / "__init__.py").write_text('"""pkg."""\n')
    (tmp_path / "parent" / "src" / "pkg" / "mod.py").write_text("a = 1\nb = 2\n")
    (tmp_path / "parent" / "src" / "pkg" / "notes.txt").write_text("not python\n")
    return tmp_path / "parent"


def fake_runner(calls, parent):
    """Every metric of the parent reads 1 + seed; the change's reads 0.5
    less.  The parent's run at seed 2 fails one op."""
    def run(cmd, cwd, timeout):
        calls.append((cmd, cwd))
        if "pytest" in cmd:
            return 1, "..F.\n1 failed, 743 passed, 2 warnings in 48.60s\n"
        seed = int(cmd[cmd.index("--seed") + 1])
        on_parent = cwd == parent.resolve()
        value = 1.0 + seed - (0.0 if on_parent else 0.5)
        return 0, run_py_output(cmd[cmd.index("--workload") + 1], seed,
                                {m["name"]: value for m in END_TO_END},
                                failed=int(on_parent and seed == 2))
    return run


def test_recorder_pairs_sides_and_summarizes(parent):
    calls = []
    doc = bench_record.record("t", parent.resolve(), 3, 2.0, run=fake_runner(calls, parent))
    assert json.loads(json.dumps(doc)) == doc
    assert doc["seeds"] == [1, 2, 3]
    assert list(doc["workloads"]) == WORKLOADS
    # per workload: the pairs alternate which side runs first, both at one seed
    runs = [(Path(cwd) == parent.resolve(), cmd[cmd.index("--seed") + 1])
            for cmd, cwd in calls if "pytest" not in cmd]
    assert runs[:6] == [(True, "1"), (False, "1"), (False, "2"), (True, "2"),
                        (True, "3"), (False, "3")]
    assert len(runs) == 6 * len(WORKLOADS)
    for w in WORKLOADS:
        entry = doc["workloads"][w]
        assert list(entry["metrics"]) == [m["name"] for m in END_TO_END]
        for m in END_TO_END:
            got = entry["metrics"][m["name"]]
            assert got["parent"]["values"] == [2.0, 3.0, 4.0]
            assert got["change"]["values"] == [1.5, 2.5, 3.5]
            assert (got["change"]["min"], got["change"]["median"]) == (1.5, 2.5)
            assert got["parent"]["q1"] <= got["parent"]["median"] <= got["parent"]["q3"]
            assert got["change_better"] == (3 if m["better"] == "lower" else 0)
        assert entry["ops"] == {"change": {"failed": 0, "attempted": 21},
                                "parent": {"failed": 1, "attempted": 21}}
        assert [p["seed"] for p in entry["provenance"]["parent"]] == [1, 2, 3]
    assert [cwd for cmd, cwd in calls if "pytest" in cmd] == [bench_record.ROOT, parent.resolve()]
    for side in ("change", "parent"):
        tier1 = doc["sides"][side]["tier1"]
        assert (tier1["passed"], tier1["failed"]) == (743, 1) and tier1["wall_s"] >= 0.0


def test_recorder_counts_each_sides_src_lines(parent):
    doc = bench_record.record("t", parent.resolve(), 1, 2.0, run=fake_runner([], parent))
    assert doc["sides"]["parent"]["src_lines"] == 3
    want = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert doc["sides"]["change"]["src_lines"] == want > 1000


def test_recorder_runs_tier1_once_for_one_checkout():
    calls = []
    doc = bench_record.record("ci", ROOT, 1, 2.0, run=fake_runner(calls, ROOT))
    assert sum("pytest" in cmd for cmd, _ in calls) == 1
    assert doc["sides"]["change"]["tier1"] == doc["sides"]["parent"]["tier1"]
    metrics = doc["workloads"][WORKLOADS[0]]["metrics"]["op_norm_s.p50"]
    assert metrics["change"]["q1"] == metrics["change"]["q3"] == metrics["change"]["min"]


def test_recorder_stops_on_a_failed_run(parent):
    with pytest.raises(RuntimeError, match="run.py exited 1"):
        bench_record.record("x", parent.resolve(), 1, 10.0,
                            run=lambda cmd, cwd, timeout: (1, ""))
