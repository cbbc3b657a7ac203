"""The staged pipeline the benchmark times, and the checks on its outputs.

run_instance mirrors cli.run_experiment stage for stage: read the
instance file, run Frank-Wolfe to its certificate, then for each draw
floor the probabilities, sample with the draw's repair mode and evaluate
phi of the draw, and last, where the workload asks for it, enumerate the
exact binary optimum. Library calls go through the module attributes
(``graphs.read_instance``, ...) so that a tracer can wrap them.
"""
from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from reswitch import (cli, congestion, enumeration, frankwolfe, graphs,
                      rounding, solver)
from reswitch.errors import (CapExceededError, InvalidInputError,
                             NumericalError, StructuralError)

from .workloads import Workload

# Every error the library documents for bad data or a failed computation;
# ResampleExhaustedError and InfeasibleShrinkageError are subclasses.
LIBRARY_ERRORS = (NumericalError, InvalidInputError, StructuralError, CapExceededError)
# Tolerance of the reference solve that re-checks each fractional phi.
REFERENCE_EPSILON = 1e-11
# Rounding failure probability: the CLI's default.
DELTA = 0.1
# Relative slack for comparing floating-point values that should agree.
ROUNDOFF = 1e-12
# Every timing is CPU seconds of this process. The pipeline is single
# threaded (one BLAS thread) and does no blocking I/O, so on an idle
# machine this equals wall time; on a shared virtual machine it leaves out
# the time other tenants take from this process, which moves wall time by
# tens of percent from one minute to the next.
clock = time.process_time


class NullTracer:
    """Stand-in for tracing.Tracer when tracing is off."""

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


def solver_config(epsilon: float = 1e-8) -> solver.SolverConfig:
    """The CLI's default solver settings."""
    return solver.SolverConfig(epsilon=epsilon, preconditioner="auto")


@dataclass(eq=False)
class Draw:
    repair: str
    sbin: np.ndarray
    phi: float
    repairs: int
    seconds: float
    within_budget: bool


@dataclass(eq=False)
class Outcome:
    """Results and stage timings of one instance through the pipeline."""

    g: graphs.Graph
    d: np.ndarray
    q: int
    s: np.ndarray | None = None
    cert: frankwolfe.Certificate | None = None
    iterations: int = 0
    draws: list[Draw] = field(default_factory=list)
    best_phi: float | None = None
    certify_s: float | None = None
    pipeline_s: float | None = None
    wall_s: float | None = None
    attempted: int = 0
    failed: int = 0

    def digest(self) -> str:
        """Hash of every switch decision and value the run produced."""
        h = hashlib.sha256()
        if self.s is not None:
            h.update(self.s.tobytes())
            h.update(repr((self.cert.phi_value, self.cert.gap, self.iterations)).encode())
        for dr in self.draws:
            h.update(dr.sbin.tobytes())
            h.update(repr(dr.phi).encode())
        h.update(repr((self.best_phi, self.attempted, self.failed)).encode())
        return h.hexdigest()


def run_instance(path, wl: Workload, seed: int, tracer=NULL_TRACER) -> Outcome:
    """Read, certify, round and evaluate one instance; enumerate if asked.

    Draw r uses rng seed ``seed + r``, as cli.run_experiment does. An
    operation that raises a library error counts as failed, and so does a
    draw that overshoots the budget; such a draw is kept, marked, because
    the CLI keeps it too.
    """
    t0, wall0 = clock(), time.perf_counter()
    with tracer.span("pipeline"):
        with tracer.span("stage.read"):
            g, d, q = graphs.read_instance(path)
        out = Outcome(g, d, q, attempted=1)
        scfg = solver_config()
        try:
            with tracer.span("stage.fw"):
                s, cert, trace = frankwolfe.run(
                    g, d, frankwolfe.FWConfig(q=q, alpha=wl.alpha, solver=scfg))
        except LIBRARY_ERRORS:
            out.failed += 1
            return out
        out.s, out.cert, out.iterations = s, cert, len(trace.records)
        out.certify_s = clock() - t0

        with tracer.span("stage.round"):
            for r, repair in enumerate(wl.repairs):
                out.attempted += 1
                ta = clock()
                params = rounding.RoundingParams(delta=DELTA, repair=repair,
                                                 rng_seed=seed + r)
                try:
                    sbar = rounding.floor_probabilities(s, g, params)
                    report = rounding.sample(sbar, g, q, params)
                    value = congestion.phi(g, report.sampled.sbin, d, scfg)
                except LIBRARY_ERRORS:
                    out.failed += 1
                    continue
                sbin = report.sampled.sbin
                within = bool(sbin.sum() <= q)
                out.failed += not within
                out.draws.append(Draw(repair, sbin, value, len(report.repairs),
                                      clock() - ta, within))

        if wl.enumerate:
            out.attempted += 1
            try:
                with tracer.span("stage.enumerate"):
                    out.best_phi = enumeration.enumerate_optimal(g, d, q).best_phi
            except LIBRARY_ERRORS:
                out.failed += 1
    out.pipeline_s = clock() - t0
    out.wall_s = time.perf_counter() - wall0
    return out


def reference_phi(g: graphs.Graph, s: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """phi(s) re-solved at REFERENCE_EPSILON, and that epsilon.

    At or below the solver's dense threshold the solve is exact, so the
    returned epsilon is 0.
    """
    cfg = solver_config(REFERENCE_EPSILON)
    eps = 0.0 if g.n <= cfg.dense_threshold else REFERENCE_EPSILON
    return congestion.phi(g, s, d, cfg), eps


def check(out: Outcome, wl: Workload) -> list[str]:
    """Output checks for one instance; an empty list means all passed."""
    if out.cert is None:
        return []
    problems = []
    g, q, phi_frac = out.g, out.q, out.cert.phi_value
    if not out.cert.certified:
        problems.append(f"certificate did not fire (gap {out.cert.gap!r}, phi {phi_frac!r})")
    try:
        ref, ref_eps = reference_phi(g, out.s, out.d)
    except LIBRARY_ERRORS as exc:
        problems.append(f"re-solve of the fractional phi failed: {exc}")
    else:
        eps = 0.0 if g.n <= solver_config().dense_threshold else solver_config().epsilon
        if abs(phi_frac / ref - 1.0) > eps + ref_eps + ROUNDOFF:
            problems.append(f"fractional phi {phi_frac!r} disagrees with re-solve {ref!r}")
    for dr in out.draws:
        if not np.all(dr.sbin[g.backbone_mask] == 1.0):
            problems.append(f"{dr.repair} draw opened a backbone edge")
        if dr.repair == "trim_and_fill" and dr.sbin.sum() != min(q, g.m):
            problems.append(f"trim_and_fill draw has {dr.sbin.sum()} edges on, "
                            f"expected {min(q, g.m)}")
    if out.best_phi is not None:
        bound = (1.0 + wl.alpha) * out.best_phi * (1.0 + ROUNDOFF)
        if phi_frac > bound:
            problems.append(f"phi_frac {phi_frac!r} above (1 + alpha) best {bound!r}")
        for dr in out.draws:
            if dr.within_budget and out.best_phi > dr.phi * (1.0 + ROUNDOFF):
                problems.append(f"best phi {out.best_phi!r} above a draw's phi {dr.phi!r}")
    return problems


def parity_problems(path, wl: Workload, seed: int) -> list[str]:
    """Compare run_instance with cli.run_experiment on the same instance file.

    The CLI uses one repair mode for all repeats, so the comparison runs
    once per repair mode of the workload, with as many draws as the
    workload makes per instance.
    """
    problems = []
    for repair in dict.fromkeys(wl.repairs):
        spec = replace(wl, repairs=(repair,) * len(wl.repairs))
        mine = run_instance(path, spec, seed)
        if mine.cert is None or len(mine.draws) != len(spec.repairs):
            problems.append(f"parity ({repair}): an operation raised")
            continue
        cfg = cli.ExperimentConfig(input_path=str(path), seed=seed, alpha=spec.alpha,
                                   delta=DELTA, repair=repair,
                                   repeats=len(spec.repairs),
                                   enumerate_baseline=spec.enumerate)
        record = cli.run_experiment(cfg)["record"]
        values = [dr.phi for dr in mine.draws]
        expect = {
            "phi_fractional": mine.cert.phi_value,
            "iterations": mine.iterations,
            "rounded_phi_min": float(np.min(values)),
            "rounded_phi_mean": float(np.mean(values)),
            "rounded_phi_max": float(np.max(values)),
            "repairs_total": sum(dr.repairs for dr in mine.draws),
        }
        if spec.enumerate:
            expect["best_phi"] = mine.best_phi
        for key, value in expect.items():
            if record[key] != value:
                problems.append(f"parity ({repair}): {key} is {value!r}, "
                                f"cli.run_experiment gives {record[key]!r}")
    return problems
