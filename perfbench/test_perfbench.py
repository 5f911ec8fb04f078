"""The benchmark's own tests: BENCHMARK.json's schema and a round trip of the
result line through it, tracing that leaves outputs unchanged and counts that
repeat, gates that fail on wrong outputs, and a smoke run of each workload
at tiny levels.  Each test runs in seconds."""

from __future__ import annotations

import json
import re

import pytest

import declab.experiments
import declab.forms
from perfbench import run
from perfbench.tracing import COUNTS, LAYERS, STAGES, Tracer
from perfbench.workloads import WORKLOADS, Workload, check, perturbed_k1, symmetric_sweep

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_result_line_round_trips_through_the_schema(name, trace, monkeypatch, capsys):
    """run.main on the smoke configuration prints a last line that parses
    back to exactly the metrics BENCHMARK.json lists for the mode."""
    monkeypatch.setitem(WORKLOADS, name, Workload(WORKLOADS[name].smoke, WORKLOADS[name].smoke))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert got["value"] >= 0 or m["name"] == "trace.overhead_s"
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_pass_passes_its_gate(name, tmp_path):
    p = WORKLOADS[name].smoke(3, tmp_path)
    check(p)
    assert p.ops and all(op.error is None for op in p.ops), [op.error for op in p.ops]
    assert p.wall_s > 0 and 0 < p.finest_s <= p.wall_s


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_leaves_outputs_unchanged_and_counts_repeat(name, tmp_path):
    smoke = WORKLOADS[name].smoke
    untraced = smoke(1, tmp_path)
    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            traced = smoke(1, tmp_path)
        assert traced.outputs == untraced.outputs
        runs.append(tracer.metrics())
    first, second = runs
    for key in COUNTS + tuple(f"{layer}.calls" for layer in LAYERS):
        assert first[key] == second[key], key
    stages = sum(first[f"stage.{s}_s"] for s in STAGES)
    assert stages == pytest.approx(first["trace.self_s"], rel=1e-9)
    # every binding is restored on exit
    assert declab.experiments.de_rham is declab.forms.de_rham
    assert not hasattr(declab.forms.de_rham, "__wrapped__")


def test_traced_convergence_level_has_every_stage(tmp_path):
    with Tracer() as tracer:
        WORKLOADS["perturbed_k1"].smoke(1, tmp_path)
    m = tracer.metrics()
    for stage in ("mesh", "dual", "assemble", "exact", "solve", "errors"):
        assert m[f"stage.{stage}_s"] > 0, stage
    assert m["solver.matvec_nnz"] > m["solver.iterations"] > 0
    assert m["forms.quad_points"] > m["forms.de_rham_calls"] > 0
    assert m["meshes.vertices"] > 0


@pytest.mark.parametrize("name, studies", [("perturbed_k1", 1), ("symmetric_sweep", 3)])
def test_workloads_run_behind_the_cli(name, studies, tmp_path):
    with Tracer() as tracer:
        WORKLOADS[name].smoke(1, tmp_path)
    m = tracer.metrics()
    assert m["cli.calls"] == studies and m["experiments.render_report_s"] > 0
    parents = [s.parent.name for s in tracer.spans if s.name == "experiments.run_convergence"]
    assert parents == ["cli.main"] * studies


def test_gates_fail_on_wrong_outputs(tmp_path):
    p = perturbed_k1(1, tmp_path, levels=(2, 3), windows={"de_u": (5.0, 0.1)})
    check(p)
    assert [op.error is not None for op in p.ops] == [False, True]
    assert "de_u rate" in p.ops[-1].error

    p = WORKLOADS["symmetric_sweep"].smoke(1, tmp_path)
    p.studies[1].rows[0]["norms"]["e_u"] *= 1.0 + 1e-6
    check(p)
    assert [op.error is not None for op in p.ops] == [False, False, True, False, False, False]
    assert "differs from reference" in p.ops[2].error

    p = symmetric_sweep(1, tmp_path, levels=(0, 1), windows={})
    check(p)
    assert all("exited with 2" in op.error for op in p.ops)
