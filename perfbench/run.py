"""Set-up, the timed loop, the checks and the report of one benchmark run.

Timings are CPU seconds of the process (see pipeline.clock) scaled to the
reference kernel's nominal speed (see calibration); the report also
prints the raw CPU and the wall-clock times. Set-up generates the
workload's instance pool from the seed, writes each instance file and
warms every layer up on a smaller instance of the same family; it is
repeated SETUP_REPS times and setup_s is the median. The timed loop then
cycles through the pool, one instance at a time, until the pool has been
through once and ``--seconds`` have passed. Each instance's first pass is
checked; later passes must reproduce its switch decisions exactly.

With ``--trace 0`` the last line of output is a JSON object holding every
end-to-end metric. With ``--trace 1`` each instance runs once untraced and
once with every layer wrapped in spans, and the metrics are the per-layer
ones. A failed check prints ``"correct": false`` and exits with 1.
"""
import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from reswitch import cli, congestion, graphs

from . import calibration, pipeline, tracing
from .workloads import WORKLOADS, instance_seed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
OUT_DIR = ".perfbench_out"
END_TO_END = (
    ("certify_s", "s"), ("round_s", "s"), ("pipeline_s", "s"), ("setup_s", "s"),
    ("certified_frac", "ratio"), ("succeeded_frac", "ratio"),
    ("rounded_over_fractional", "ratio"), ("fractional_over_best", "ratio"),
    ("peak_rss_mb", "MiB"),
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(solve_mode: str) -> dict:
    def blas(config) -> str:
        dep = getattr(config, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', 'unknown')} {dep.get('version', '')}".strip()

    return {
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(np.__config__), "scipy_blas": blas(scipy.__config__),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pyamg_importable": importlib.util.find_spec("pyamg") is not None,
        "solve_mode": solve_mode,
    }


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def set_up(wl, seed: int, workdir: Path, ref):
    """Generate and write the pool, warm up; return (paths, seeds, times, problems).

    times holds each repetition's CPU seconds, raw and scaled by ref.
    """
    seeds = [instance_seed(seed, k) for k in range(wl.pool)]
    paths = [workdir / f"instance-{k}.txt" for k in range(wl.pool)]
    warm_path, warm_seed = workdir / "warm.txt", instance_seed(seed, wl.pool)
    times = {"setup_s": [], "setup_raw_s": []}
    digests = []
    before = ref.measure()
    for _ in range(SETUP_REPS):
        t0 = pipeline.clock()
        for path, s in zip(paths, seeds):
            g, d = wl.generate(s)
            graphs.write_instance(path, g, d, cli.default_budget(g))
        g, d = wl.warm(warm_seed)
        graphs.write_instance(warm_path, g, d, cli.default_budget(g))
        pipeline.run_instance(warm_path, wl, warm_seed)
        elapsed = pipeline.clock() - t0
        after = ref.measure()
        times["setup_raw_s"].append(elapsed)
        times["setup_s"].append(elapsed * calibration.factor(before, after))
        before = after
        digests.append([file_digest(p) for p in paths])
    problems = []
    if any(dg != digests[0] for dg in digests):
        problems.append("set-up wrote different instances for the same seed")
    problems += pipeline.parity_problems(warm_path, wl, warm_seed)
    return paths, seeds, times, problems


def measure(wl, paths, seeds, seconds: float, tracer, ref):
    """The timed closed loop over the pool; see the module docstring."""
    pool = len(paths)
    names = ("certify_s", "round_s", "pipeline_s")
    times = {key: [] for name in names for key in (name, name.replace("_s", "_raw_s"))}
    times["pipeline_wall_s"] = []
    scale = []
    first = [None] * pool
    digests = [None] * pool
    problems = []
    attempted = failed = 0
    start = time.perf_counter()
    before = ref.measure()
    i = 0
    while i < pool or time.perf_counter() - start < seconds:
        k = i % pool
        # In a traced run, alternate which of the pair goes first.
        order = ((False, True) if (i // pool) % 2 == 0 else (True, False)) if tracer else (False,)
        raw = {name: [] for name in names}
        for traced in order:
            if traced:
                tracer.run = i
                with tracing.instrument(tracer):
                    out = pipeline.run_instance(paths[k], wl, seeds[k], tracer)
            else:
                out = pipeline.run_instance(paths[k], wl, seeds[k])
                if out.certify_s is not None:
                    raw["certify_s"].append(out.certify_s)
                    raw["pipeline_s"].append(out.pipeline_s)
                    times["pipeline_wall_s"].append(out.wall_s)
                raw["round_s"] += [dr.seconds for dr in out.draws if dr.within_budget]
            attempted += out.attempted
            failed += out.failed
            digest = out.digest()
            if digests[k] is None:
                digests[k] = digest
                first[k] = quality(out)
                problems += [f"instance {k}: {p}" for p in pipeline.check(out, wl)]
            elif digest != digests[k]:
                problems.append(f"instance {k}: a repeat run changed its switch decisions")
        after = ref.measure()
        scale.append(calibration.factor(before, after))
        for name in names:
            times[name.replace("_s", "_raw_s")] += raw[name]
            times[name] += [x * scale[-1] for x in raw[name]]
        before = after
        i += 1
    decisions = hashlib.sha256("".join(digests).encode()).hexdigest()
    return times, scale, first, problems, attempted, failed, decisions


def quality(out) -> dict:
    """Seeded quality figures of one instance's first pass."""
    q = {"attempted": out.attempted, "failed": out.failed, "certified": False,
         "ratios": [], "over_best": None}
    if out.cert is None:
        return q
    phi = out.cert.phi_value
    q["certified"] = out.cert.certified
    q["ratios"] = [dr.phi / phi for dr in out.draws if dr.within_budget]
    # Where the instance is too large to enumerate, the certified lower
    # bound phi - gap on every feasible point stands in for the best phi.
    best = out.best_phi if out.best_phi is not None else phi - out.cert.gap
    q["over_best"] = phi / best
    return q


def quality_metrics(first: list[dict]) -> dict:
    ratios = [r for q in first for r in q["ratios"]]
    over_best = [q["over_best"] for q in first if q["over_best"] is not None]
    failed = sum(q["failed"] for q in first)
    return {
        "certified_frac": sum(q["certified"] for q in first) / len(first),
        "succeeded_frac": 1.0 - failed / sum(q["attempted"] for q in first),
        "rounded_over_fractional": statistics.fmean(ratios) if ratios else float("nan"),
        "fractional_over_best": statistics.fmean(over_best) if over_best else float("nan"),
    }


def tail(samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    text = f"median {statistics.median(samples):.6g}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            text += f", p{p:g} {np.percentile(samples, p):.6g}"
            break
    return text + f", n={len(samples)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench",
                                 description="layered benchmark of the reswitch pipeline")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir))
    try:
        ref = calibration.Reference()
        paths, seeds, setup_times, problems = set_up(wl, args.seed, workdir, ref)
        g0, _, q0 = graphs.read_instance(paths[0])
        env = environment(congestion.make_context(g0, pipeline.solver_config()).mode)
        tracer = tracing.Tracer() if args.trace else None
        times, scale, first, found, attempted, failed, decisions = measure(
            wl, paths, seeds, args.seconds, tracer, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    times.update(setup_times)
    problems += found

    print(f"perfbench: workload={wl.name} seed={args.seed} trace={args.trace} "
          f"pool={wl.pool} n={g0.n} m={g0.m} q={q0} instance_runs={len(scale)}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"decisions digest: {decisions}")
    if args.trace:
        stats = tracing.run_stats(tracer.spans)
        values = tracing.layer_metrics(stats, list(range(wl.pool)), times["pipeline_s"], scale)
        problems += tracing.trace_problems(stats, values["trace.stage_coverage"])
        units = dict(tracing.PER_LAYER)
        tracer.write(out_dir / f"{wl.name}-seed{args.seed}-spans.jsonl")
    else:
        values = {name: statistics.median(times[name]) if times[name] else float("nan")
                  for name in ("certify_s", "round_s", "pipeline_s")}
        values["setup_s"] = statistics.median(times["setup_s"])
        values.update(quality_metrics(first))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
        for name, samples in times.items():
            if samples:
                print(f"{name}: {tail(samples)} (s)")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:.6g} {unit}")
    nan = [name for name, v in values.items() if v != v]
    if nan:
        problems.append(f"no value for {', '.join(nan)}")
    print("checks: " + ("all passed" if not problems else "FAILED"))
    for p in problems:
        print(f"  FAILED {p}")

    correct = not problems
    metrics = {name: {"value": (values[name] if values[name] == values[name] else 0.0),
                      "unit": unit} for name, unit in units.items()}
    report = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="ascii") as fh:
        json.dump({**report, "environment": env, "problems": problems,
                   "decisions_digest": decisions, "samples": times}, fh, indent=1)
    print(json.dumps(report))
    return 0 if correct else 1
