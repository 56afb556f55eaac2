"""Smoke tests of the benchmark: the same commands at the CLI default size.

They check that every metric named in BENCHMARK.json is emitted with its
unit, that the output checks pass, and that the traced run's span tree
nests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import Run, _traced, invoke, run_workload  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric(name, trace, tmp_path):
    result, report = run_workload(WORKLOADS[name], seed=1, seconds=0.1,
                                  trace=trace, workdir=tmp_path, smoke=True)
    assert report["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[name].timed)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert report["self_time_coverage"] == \
            pytest.approx([1.0] * len(report["self_time_coverage"]), abs=1e-9)
    else:  # every program time is paired with one of the baseline build
        assert len(report["wall_s_samples"]) == \
            len(report["baseline_wall_s_samples"]) >= 1
        assert len(report["setup_s_samples"]) == \
            len(report["baseline_setup_s_samples"]) >= 5


def test_failing_baseline_fails_the_run(tmp_path, monkeypatch):
    from perfbench import harness
    real = harness.baseline_cli.main
    monkeypatch.setattr(harness.baseline_cli, "main", lambda argv: (
        real(argv) if argv[0] in ("gen", "mine", "train") else 1))
    result, report = run_workload(WORKLOADS["report-dense"], seed=1,
                                  seconds=0.1, trace=False, workdir=tmp_path,
                                  smoke=True)
    assert not result["correct"] and result["failed"] == 0
    assert any(e.startswith("baseline eval: exit code 1")
               for e in report["errors"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_span_tree_nests(name, tmp_path):
    run = Run(WORKLOADS[name], seed=2, workdir=tmp_path, smoke=True)
    run.setup()
    _, tracer = _traced(run)
    assert tracer.spans and tracer.nesting_errors() == []
    assert all(s.self_time >= 0 for s in tracer.spans)
    roots = [s for s in tracer.spans if s.parent is None]
    assert {s.name for s in roots} == {"cli.main"}
    assert len(roots) == len(WORKLOADS[name].timed)


def test_tracer_restores_the_package(tmp_path):
    import conceptmine
    from conceptmine import cli, mining, xaimetrics
    before = (cli.main, mining.dbscan, xaimetrics.mine_concepts,
              conceptmine.hungarian)
    run = Run(WORKLOADS["report-dense"], seed=3, workdir=tmp_path, smoke=True)
    run.setup()
    _traced(run)
    assert (cli.main, mining.dbscan, xaimetrics.mine_concepts,
            conceptmine.hungarian) == before


def test_changed_output_is_a_failure(tmp_path):
    run = Run(WORKLOADS["mine-bigcell"], seed=4, workdir=tmp_path, smoke=True)
    run.setup()
    run.repetition()
    assert run.failed == 0
    # New inputs make the next repetition's outputs differ from the first.
    invoke(run.workload.gen_argv(tmp_path, seed=5, smoke=True))
    run.repetition()
    assert run.failed >= 1 and "differ" in run.errors[0]


def test_missing_function_is_skipped(tmp_path, monkeypatch):
    from conceptmine import occlusion
    monkeypatch.delattr(occlusion, "save_curve_svg")
    run = Run(WORKLOADS["mine-bigcell"], seed=6, workdir=tmp_path, smoke=True)
    run.setup()
    _, tracer = _traced(run)
    m = tracer.metrics()
    assert m["head.train_calls"] == 2 and m["head.epochs"] == 400
    assert m["mining.mine_calls"] == 1 and run.failed == 0
