"""In-memory spans around the public functions of each reswitch layer.

``instrument`` replaces module attributes with wrappers for as long as it
is entered. Functions look up other modules' functions, and their own
module's globals, through those attributes, so calls between layers and
calls inside a layer both pass through the wrappers. A span records its
name, start, end, parent span and run id (one run per traced instance);
its layer is the part of its name before the first dot. A layer's self
time is the duration of its spans minus the time their child spans cover.
"""
from __future__ import annotations

import contextlib
import json
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from reswitch import congestion, enumeration, frankwolfe, graphs, rounding, solver

from .pipeline import clock

LAYERS = ("graphs", "solver", "congestion", "frankwolfe", "rounding", "enumeration")
# Spans the benchmark opens itself ("pipeline", "stage.*") are the bench layer.
BENCH_LAYER = "bench"


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``run`` tags the spans opened next."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    def _start(self, name: str) -> Span:
        span = Span(name, clock(), 0.0,
                    self._open[-1] if self._open else None, self.run)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _stop(self, span: Span) -> None:
        span.end = clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self._start(name)
        try:
            yield sp
        finally:
            self._stop(sp)

    def wrap(self, fn, name: str, note=None):
        """fn inside a span; note(span, result) records counts from the result."""
        def traced(*args, **kwargs):
            sp = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stop(sp)
            if note is not None:
                note(sp, result)
            return result
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"name": sp.name, "start": sp.start, "end": sp.end,
                                     "parent": sp.parent, "run": sp.run,
                                     **sp.attrs}) + "\n")


def _note_solve(span, res):
    span.attrs["iterations"] = res.iterations
    span.attrs["residual"] = res.achieved_residual


def _note_run(span, result):
    records = result[2].records
    span.attrs["iterations"] = len(records)
    # A step the monotone guard rejects leaves s, and so phi, unchanged.
    span.attrs["rejections"] = sum(b.phi == a.phi for a, b in zip(records, records[1:]))


def _note_sample(span, report):
    span.attrs["repairs"] = len(report.repairs)
    span.attrs["resamples"] = report.resamples_used


def _note_enumerate(span, result):
    span.attrs["evaluated"] = result.evaluated_count


# (owner, attribute, span name, note). Several functions may share a span name.
TARGETS = (
    (graphs, "read_instance", "graphs.read_instance", None),
    (graphs, "assemble_laplacian", "graphs.assemble_laplacian", None),
    (graphs, "assemble_laplacian_dense", "graphs.assemble_laplacian_dense", None),
    (graphs, "algebraic_connectivity", "graphs.algebraic_connectivity", None),
    (solver, "solve", "solver.solve", _note_solve),
    (solver, "context_from_edges", "solver.context", None),
    (solver, "context_from_laplacian", "solver.context", None),
    (solver.TreeFactor, "quadform", "solver.tree_bound", None),
    (solver, "exact_pinv_apply", "solver.dense", None),
    (solver, "pinv_laplacian", "solver.dense", None),
    (congestion, "approx_diff", "congestion.approx_diff", None),
    (congestion, "phi", "congestion.phi", None),
    (frankwolfe, "run", "frankwolfe.run", _note_run),
    (frankwolfe, "lmo_top_q", "frankwolfe.lmo_top_q", None),
    (rounding, "floor_probabilities", "rounding.floor_probabilities", None),
    (rounding, "sample", "rounding.sample", _note_sample),
    (rounding, "shrinkage", "rounding.shrinkage", None),
    (rounding, "sandwich_epsilon", "rounding.sandwich_epsilon", None),
    (enumeration, "enumerate_optimal", "enumeration.enumerate_optimal", _note_enumerate),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target in a span while the block runs, then restore it."""
    saved = []
    try:
        for owner, attr, name, note in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else BENCH_LAYER


def run_stats(spans: list[Span]) -> dict[int, Counter]:
    """Per-run totals: seconds, self seconds and calls per span name, plus counts."""
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.duration
    dense_parents = {sp.parent for sp in spans if sp.name == "solver.dense"}
    stats: dict[int, Counter] = defaultdict(Counter)
    for i, sp in enumerate(spans):
        st = stats[sp.run]
        own = sp.duration - covered[i]
        parent = spans[sp.parent].name if sp.parent is not None else None
        st[f"{sp.name}.s"] += sp.duration
        st[f"{sp.name}.self_s"] += own
        st[f"{sp.name}.calls"] += 1
        st[f"self.{layer_of(sp.name)}.s"] += own
        if sp.name.startswith("stage."):
            st["stage.total_s"] += sp.duration
        elif sp.name == "solver.solve" and i not in dense_parents:
            st["solver.cg_solves"] += 1
            st["solver.cg_iterations"] += sp.attrs.get("iterations", 0)
            st["solver.achieved_residual.max"] = max(st["solver.achieved_residual.max"],
                                                     sp.attrs.get("residual", 0.0))
        elif sp.name == "frankwolfe.run":
            st["frankwolfe.trace_iterations"] += sp.attrs.get("iterations", 0)
            st["frankwolfe.guard_rejections"] += sp.attrs.get("rejections", 0)
        elif parent == "frankwolfe.run" and sp.name == "frankwolfe.lmo_top_q":
            st["frankwolfe.iterations"] += 1
        elif parent == "frankwolfe.run" and sp.name == "congestion.approx_diff":
            st["frankwolfe.diff_solves"] += 1
        elif sp.name == "rounding.sample":
            st["rounding.repairs"] += sp.attrs.get("repairs", 0)
            st["rounding.resamples"] += sp.attrs.get("resamples", 0)
        elif sp.name == "enumeration.enumerate_optimal":
            st["enumeration.evaluated"] += sp.attrs.get("evaluated", 0)
    return stats


# Per-layer metrics and their units. A function's or layer's time is given
# as its share of the traced pipeline time per instance (median over traced
# instances), so that a layer a workload never calls reads 0 as a ratio, not
# as a constant time; trace.pipeline_s turns shares back into seconds.
# Counts are per instance over the first pass through the instance pool, so
# they repeat exactly at a fixed seed.
TIMED = (
    "graphs.read_instance", "graphs.assemble_laplacian", "graphs.algebraic_connectivity",
    "solver.solve", "solver.tree_bound", "solver.context", "solver.dense",
    "congestion.approx_diff", "congestion.phi", "frankwolfe.run", "frankwolfe.lmo_top_q",
    "rounding.sample", "rounding.sandwich_epsilon", "rounding.shrinkage",
    "enumeration.enumerate_optimal",
)
# metric name -> run_stats key of the seconds it is a share of.
SHARES = {
    **{f"{name}.share": f"{name}.s" for name in TIMED},
    "congestion.approx_diff.self_share": "congestion.approx_diff.self_s",
    **{f"self.{layer}.share": f"self.{layer}.s" for layer in (*LAYERS, BENCH_LAYER)},
}
COUNTS = (
    "graphs.assemble_laplacian.calls", "graphs.algebraic_connectivity.calls",
    "solver.solve.calls", "solver.tree_bound.calls", "solver.context.calls",
    "solver.cg_iterations", "congestion.approx_diff.calls", "congestion.phi.calls",
    "frankwolfe.iterations", "frankwolfe.guard_rejections", "enumeration.evaluated",
)
PER_LAYER = (
    *((name, "ratio") for name in SHARES),
    *((name, "count") for name in COUNTS),
    ("solver.cg_iterations_per_solve", "count"),
    ("solver.achieved_residual.max", "ratio"),
    ("frankwolfe.accepted_ratio", "ratio"),
    ("rounding.repairs", "count"),
    ("rounding.resamples", "count"),
    ("rounding.resample_yield", "ratio"),
    ("enumeration.configs_per_s", "1/s"),
    ("trace.pipeline_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.stage_coverage", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 where the layer did no such work."""
    return num / den if den else 0.0


def layer_metrics(stats: dict[int, Counter], first_pass: list[int],
                  untraced_pipeline_s: list[float], scale: list[float]) -> dict[str, float]:
    """Every PER_LAYER metric from run_stats output.

    first_pass lists the run ids of one traced pass over the pool;
    untraced_pipeline_s holds the (scaled) pipeline times of the untraced
    runs made alongside, for the tracing overhead; scale[run] converts that
    run's CPU seconds to the scaled seconds of the end-to-end metrics.
    """
    runs = stats.values()
    first = Counter()
    for run in first_pass:
        first.update(stats[run])
    per_instance = len(first_pass)
    out = {name: statistics.median(st[key] / st["pipeline.s"] for st in runs)
           for name, key in SHARES.items()}
    out.update({name: first[name] / per_instance for name in COUNTS})
    step_solves = first["frankwolfe.diff_solves"] - first["frankwolfe.run.calls"]
    draws_made = first["rounding.sample.calls"] + first["rounding.resamples"]
    traced = statistics.median(st["pipeline.s"] * scale[run] for run, st in stats.items())
    out.update({
        "solver.cg_iterations_per_solve": _ratio(first["solver.cg_iterations"],
                                                 first["solver.cg_solves"]),
        "solver.achieved_residual.max": float(max(
            stats[run]["solver.achieved_residual.max"] for run in first_pass)),
        "frankwolfe.accepted_ratio": _ratio(step_solves - first["frankwolfe.guard_rejections"],
                                            step_solves),
        "rounding.repairs": _ratio(first["rounding.repairs"], first["rounding.sample.calls"]),
        "rounding.resamples": _ratio(first["rounding.resamples"],
                                     first["rounding.sample.calls"]),
        "rounding.resample_yield": _ratio(first["rounding.sample.calls"], draws_made),
        "enumeration.configs_per_s": _ratio(
            sum(st["enumeration.evaluated"] for st in runs),
            sum(st["enumeration.enumerate_optimal.s"] * scale[run]
                for run, st in stats.items())),
        "trace.pipeline_s": traced,
        "trace.overhead_s": traced - statistics.median(untraced_pipeline_s),
        "trace.stage_coverage": _ratio(sum(st["stage.total_s"] for st in runs),
                                       sum(st["pipeline.s"] for st in runs)),
    })
    return out


def trace_problems(stats: dict[int, Counter], coverage: float) -> list[str]:
    """Checks on the traced run: FW iteration counts and stage coverage."""
    problems = []
    for run, st in sorted(stats.items()):
        if st["frankwolfe.iterations"] != st["frankwolfe.trace_iterations"]:
            problems.append(f"run {run}: {st['frankwolfe.iterations']} FW iterations "
                            f"in spans, {st['frankwolfe.trace_iterations']} in the FWTrace")
    if abs(coverage - 1.0) > 0.10:
        problems.append(f"stage times cover {coverage:.3f} of the traced pipeline time")
    return problems
