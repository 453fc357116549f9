"""Self-tests of the benchmark: span arithmetic, catalogue, smoke runs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
from workloads import ALL_SUITES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(sid, name, start, end, parent=None, thread=1, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "run": "t", "thread": thread, "attrs": attrs}


def two_worker_tree():
    """fk_evaluate -> map_chunks (2 workers) -> chunks on threads A and B."""
    return [
        span(1, "feynman_kac.fk_evaluate", 0.0, 12.0, paths=8, leaves=80, flagged=True),
        span(2, "streams.map_chunks", 1.0, 11.0, parent=1, tag=4, workers=2),
        span(3, "streams.chunk", 1.0, 7.0, parent=2, thread=10, size=4),
        span(4, "potentials.eval", 2.0, 3.0, parent=3, thread=10, points=100),
        span(5, "potentials.singularity_distance", 4.0, 5.0, parent=3, thread=10,
             points=100),
        span(6, "streams.chunk", 2.0, 10.0, parent=2, thread=11, size=4),
        span(7, "potentials.eval", 3.0, 6.0, parent=6, thread=11, points=50),
        # a potential evaluating its base potential counts once
        span(8, "potentials.eval", 3.5, 5.5, parent=7, thread=11, points=50),
    ]


def test_self_time_unions_overlapping_worker_chunks():
    spans = two_worker_tree()
    ix = tracer.SpanIndex(spans)
    mc = ix.by_id[2]
    # chunks cover [1, 7] and [2, 10]: union 9 of the 10 s
    assert tracer.self_time(mc, ix.children[2]) == pytest.approx(1.0)
    assert tracer.self_time(ix.by_id[3], ix.children[3]) == pytest.approx(4.0)
    assert tracer.self_time(ix.by_id[6], ix.children[6]) == pytest.approx(5.0)


def test_layer_metrics_on_two_worker_tree():
    m = tracer.layer_metrics(two_worker_tree(), ALL_SUITES)
    assert m["streams.chunks"] == 2
    assert m["streams.single_chunk_ratio"] == 0.0
    assert m["streams.worker_idle_ratio"] == pytest.approx(1 - (6 + 8) / (10 * 2))
    assert m["feynman_kac.engine.self_s"] == pytest.approx(4.0 + 5.0)
    assert m["potentials.eval.points"] == 150
    assert m["potentials.eval.busy_s"] == pytest.approx(1.0 + 3.0)
    assert m["potentials.singularity_distance.busy_s"] == pytest.approx(1.0)
    assert m["feynman_kac.fk_evaluate.calls"] == 1
    assert m["feynman_kac.leaves_per_path"] == 10.0
    assert m["feynman_kac.flagged_ratio"] == 1.0
    assert m["spaces.sphere.transitions"] == 0


def test_latency_pmax_leaves_ten_samples_above():
    assert tracer.latency_pmax(list(range(1, 43))) == 32
    assert tracer.latency_pmax([3.0, 1.0, 2.0]) == 3.0
    assert tracer.latency_pmax([]) == 0.0


def test_tracer_parents_spans_across_threads():
    t = tracer.Tracer("r")
    from concurrent.futures import ThreadPoolExecutor

    with t.span("outer") as outer:
        def work(i):
            with t.span("inner", parent=outer["id"]):
                with t.span("leaf"):
                    return i

        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(work, range(4))) == [0, 1, 2, 3]
    ix = tracer.SpanIndex(t.spans)
    inner = ix.by_name["inner"]
    assert len(inner) == 4 and all(s["parent"] == outer["id"] for s in inner)
    inner_ids = {s["id"] for s in inner}
    assert all(s["parent"] in inner_ids for s in ix.by_name["leaf"])


def test_catalogue_matches_benchmark_json():
    layer_names = set(tracer.layer_metrics([], ALL_SUITES)) | {"trace.overhead_ratio"}
    assert layer_names == {m["name"] for m in SPEC["per_layer"]}
    assert set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for w in WORKLOADS.values():
        assert set(w.exercised) | set(w.predicted_zero) <= layer_names


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    report = tmp_path / "report.json"
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke", "--report", str(report))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    runs = json.loads(report.read_text())["runs"]
    assert runs[0]["hashes"] and all(r["hashes"] == runs[0]["hashes"] for r in runs)
    if trace:
        traced = [r for r in runs if r["traced"]]
        assert traced and all(r["spans"] for r in traced)
        assert set(traced[0]["spans"][0]) == {
            "id", "name", "start", "end", "parent", "run", "thread", "attrs"}
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sphere-moments", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
