"""Tests of the benchmark itself: generators, parity with the CLI, tracing, checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reswitch import cli, graphs

from perfbench import pipeline, tracing, workloads
from perfbench.run import END_TO_END

ROOT = Path(__file__).resolve().parent.parent


def _spans(g: graphs.Graph) -> bool:
    return graphs.validate(g) == [] and len(g.backbone) == g.n - 1


def test_grid_comb_backbone_is_a_spanning_comb():
    g, d = workloads.grid_comb(6, 5, seed=3)
    assert (g.n, g.m) == (30, 6 * 4 + 5 * 5)
    assert _spans(g)
    # Switchable edges are exactly the vertical ones off the first column.
    free = [g.edges[k] for k in range(g.m) if k not in g.backbone]
    assert len(free) == 5 * 4
    assert all(j - i == 5 and i % 5 != 0 for i, j, _ in free)
    assert abs(d.sum()) < 1e-12 and np.isclose(np.linalg.norm(d), 1.0)


def test_chord_ring_backbone_is_the_path():
    g, _ = workloads.chord_ring(50, seed=4)
    assert (g.n, g.m) == (50, 50 + 5)
    assert _spans(g)
    assert all(g.edges[k][1] - g.edges[k][0] == 1 for k in g.backbone)
    assert g.edges[49][:2] == (0, 49) and 49 not in g.backbone
    assert len({e[:2] for e in g.edges}) == g.m


@pytest.mark.parametrize("name, n, m", [
    ("expander", 5000, 4999 + 10000),
    ("grid-comb", 6400, 2 * 80 * 79),
    ("chord-ring", 1500, 1500 + 150),
    ("exact-small", 30, 29 + 16),
])
def test_workload_sizes_and_determinism(name, n, m):
    wl = workloads.WORKLOADS[name]
    g, d = wl.generate(7)
    assert (g.n, g.m) == (n, m)
    assert _spans(g)
    again = graphs.instance_text(*wl.generate(7), cli.default_budget(g))
    assert again == graphs.instance_text(g, d, cli.default_budget(g))
    gw, _ = wl.warm(7)
    assert _spans(gw) and gw.n <= g.n


def _write(tmp_path, wl, seed):
    g, d = wl.warm(seed)
    path = tmp_path / f"{wl.name}.txt"
    graphs.write_instance(path, g, d, cli.default_budget(g))
    return path


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_staged_pipeline_matches_run_experiment(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    assert pipeline.parity_problems(_write(tmp_path, wl, 11), wl, 11) == []


def test_parity_on_a_generated_cli_instance(tmp_path):
    g, d = cli.generate_instance(150, 300, 5, demand="gauss")
    path = tmp_path / "cli.txt"
    graphs.write_instance(path, g, d, cli.default_budget(g))
    wl = replace(workloads.WORKLOADS["expander"], alpha=0.1)
    assert pipeline.parity_problems(path, wl, 5) == []


def test_checks_pass_and_catch_broken_outputs(tmp_path):
    wl = workloads.WORKLOADS["exact-small"]
    out = pipeline.run_instance(_write(tmp_path, wl, 2), wl, 2)
    assert out.failed == 0 and pipeline.check(out, wl) == []

    opened = out.draws[0].sbin.copy()
    opened[min(out.g.backbone)] = 0.0
    broken = replace(out, draws=[replace(out.draws[0], sbin=opened)])
    assert any("backbone" in p for p in pipeline.check(broken, wl))

    wrong_phi = replace(out, cert=replace(out.cert, phi_value=out.cert.phi_value * 1.01))
    assert any("re-solve" in p for p in pipeline.check(wrong_phi, wl))

    above_best = replace(out, best_phi=out.cert.phi_value / 1.5)
    assert any("(1 + alpha)" in p for p in pipeline.check(above_best, wl))


def test_tracing_counts_match_the_trace_and_restores_modules(tmp_path):
    wl = workloads.WORKLOADS["chord-ring"]
    path = _write(tmp_path, wl, 3)
    before = graphs.read_instance
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = pipeline.run_instance(path, wl, 3, tracer)
    assert graphs.read_instance is before
    plain = pipeline.run_instance(path, wl, 3)
    assert traced.digest() == plain.digest()

    stats = tracing.run_stats(tracer.spans)
    st = stats[0]
    assert st["frankwolfe.iterations"] == st["frankwolfe.trace_iterations"] == traced.iterations
    assert st["rounding.sample.calls"] == len(wl.repairs)
    assert st["graphs.algebraic_connectivity.calls"] == len(wl.repairs)
    # Self times of all layers add up to the root span's duration.
    layer_total = sum(st[f"self.{layer}.s"] for layer in (*tracing.LAYERS, tracing.BENCH_LAYER))
    assert layer_total == pytest.approx(st["pipeline.s"], rel=1e-9)
    values = tracing.layer_metrics(stats, [0], [plain.pipeline_s], [1.0])
    assert set(values) == {name for name, _ in tracing.PER_LAYER}
    assert tracing.trace_problems(stats, values["trace.stage_coverage"]) == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
