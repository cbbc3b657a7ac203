"""Command line interface: instance generation, runs, and serialized results.

Subcommands: generate, solve, round, certify, enumerate, experiment,
bench. Each composes the same pipeline stages (load, optimize or certify,
draw and evaluate, enumerate); all but generate and bench write one
record by one path (_record). Records are JSON documents with a
deterministic "record" payload (byte-identical across replays of the same
config and seeds) plus volatile "timing" and "timestamp" fields kept
outside it; a CSV summary mirrors the scalar fields. Exit codes: 0
success, 2 invalid input, 3 numerical failure, 4 branch-and-bound node cap
exceeded.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
import typing
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import congestion, enumeration, frankwolfe, graphs, rounding, solver
from .errors import (CapExceededError, InvalidInputError, NumericalError,
                     StructuralError)

SCHEMA_VERSION = 1
EPSILON_HELP = ("relative accuracy of every reported phi (default 1e-8); CG solves "
                "stop at energy accuracy sqrt(epsilon), the steps Frank-Wolfe tries "
                "more loosely")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description (the config file keys); home of each CLI default."""

    input_path: str | None = None
    n: int = 0
    extra: int = 0
    weight_lo: float = 0.5
    weight_hi: float = 2.0
    demand: str = "pair"
    multigraph: bool = False
    seed: int = 0
    q: int | None = None
    alpha: float = 0.1
    delta: float = 0.1
    p_min_constant: float = rounding.RoundingParams.p_min_constant
    repair: str = rounding.RoundingParams.repair
    max_resamples: int = rounding.RoundingParams.max_resamples
    repeats: int = 1
    max_iterations: int = frankwolfe.FWConfig.max_iterations
    epsilon: float = solver.SolverConfig.epsilon
    enumerate_baseline: bool = False
    output: str | None = None
    format: str = "json"

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        """Read a flat JSON object; unknown keys and mistyped values are
        invalid, and so are the keys of a generated instance beside input_path.

        A value must have its field's JSON type; integers are accepted
        for float fields, and booleans only for boolean fields.
        """
        with open(path, "r", encoding="ascii") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise InvalidInputError("config file must hold a JSON object")
        types = typing.get_type_hints(ExperimentConfig)
        unknown = set(raw) - set(types)
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            allowed = typing.get_args(types[key]) or (types[key],)
            if float in allowed:
                allowed += (int,)
            if (isinstance(value, bool) and bool not in allowed
                    or not isinstance(value, allowed)):
                raise InvalidInputError(
                    f"config key {key!r} has {type(value).__name__} value {value!r}")
        # An instance file fixes the graph and the demand; seed still seeds
        # the draws and q overrides the file's budget.
        if raw.get("input_path"):
            generating = set(raw) & {"n", "extra", "weight_lo", "weight_hi", "demand",
                                     "multigraph"}
            if generating:
                raise InvalidInputError(f"config keys {sorted(generating)} describe a "
                                        "generated instance, but input_path reads one")
        return ExperimentConfig(**raw)


def generate_instance(n: int, extra: int, seed: int,
                      weight_lo: float = ExperimentConfig.weight_lo,
                      weight_hi: float = ExperimentConfig.weight_hi,
                      demand: str = ExperimentConfig.demand,
                      multigraph: bool = ExperimentConfig.multigraph,
                      ) -> tuple[graphs.Graph, np.ndarray]:
    """Random instance with a spanning-tree backbone and extra switchable edges.

    The backbone is a random-attachment tree; extra edges are drawn
    uniformly over non-tree node pairs (distinct pairs unless multigraph
    is set). Weights are uniform on [weight_lo, weight_hi]. Demands are a
    random source/sink pair or a Gaussian in the zero-sum subspace,
    normalized to unit 2-norm either way.
    """
    if n < 2:
        raise InvalidInputError(f"need at least 2 nodes, got n={n}")
    if extra < 0:
        raise InvalidInputError("extra edge count must be nonnegative")
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    if not (np.isfinite(weight_lo) and np.isfinite(weight_hi) and weight_lo <= weight_hi):
        raise InvalidInputError(
            f"weight bounds must be finite and in order, got [{weight_lo}, {weight_hi}]")
    rng = np.random.default_rng(seed)
    # Node v attaches to parent[v], a uniform earlier node: one draw per node.
    parent = np.concatenate([[-1], rng.integers(0, np.arange(1, n))])
    ei, ej = parent[1:], np.arange(1, n)
    # Extra edges join node pairs off the tree. A multigraph may repeat
    # them, but at n = 2 there is none to repeat.
    capacity = n * (n - 1) // 2 - (n - 1)
    if extra > capacity and (not multigraph or capacity == 0):
        raise InvalidInputError(
            f"{extra} extra edges exceed the {capacity} node pairs off the tree"
            + ("" if multigraph else "; pass multigraph to allow parallel edges"))
    chosen = np.zeros(0, dtype=np.int64)  # keys u * n + v of the extra pairs so far
    while len(ei) < n - 1 + extra:
        # Draw spare candidate pairs and keep them in draw order up to the need-th
        # acceptable one; then rewind the generator and redraw just those, so it
        # ends where drawing one candidate at a time would leave it.
        need, state = n - 1 + extra - len(ei), rng.bit_generator.state
        u, v = np.sort(rng.integers(0, n, size=(2 * need + 8, 2)), axis=1).T
        keep = (u != v) & (u != parent[v])
        if not multigraph:
            first = np.zeros(len(u), dtype=bool)
            first[np.unique(u * n + v, return_index=True)[1]] = True
            keep &= first & ~np.isin(u * n + v, chosen)
        used = min(np.searchsorted(np.cumsum(keep), need) + 1, len(keep))
        rng.bit_generator.state = state
        rng.integers(0, n, size=(used, 2))
        u, v = u[:used][keep[:used]], v[:used][keep[:used]]
        chosen = np.concatenate([chosen, u * n + v])
        ei, ej = np.concatenate([ei, u]), np.concatenate([ej, v])
    w = rng.uniform(weight_lo, weight_hi, len(ei))
    g = graphs.from_arrays(n, ei, ej, w, np.arange(len(ei)) < n - 1)
    if demand == "pair":
        a, b = rng.choice(n, size=2, replace=False)
        d = np.zeros(n)
        d[int(a)], d[int(b)] = 1.0, -1.0
    elif demand == "gauss":
        d = rng.standard_normal(n)
        d -= d.mean()
    else:
        raise InvalidInputError(f"unknown demand kind {demand!r}")
    d /= np.linalg.norm(d)
    return g, d


def instance_digest(g: graphs.Graph, d: np.ndarray, q: int) -> str:
    return _text_digest(graphs.instance_text(g, d, q))


def _text_digest(text: str) -> str:
    """The SHA-256 of an instance_text, as instance_digest gives it."""
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def default_budget(g: graphs.Graph) -> int:
    t_size = np.count_nonzero(g.backbone_mask)
    return t_size + max(1, (g.m - t_size) // 2) if g.m > t_size else t_size


# --- pipeline stages ----------------------------------------------------------
# Every subcommand composes these: load, optimize (or certify a given
# point), draw and evaluate, enumerate, then one record header (_record).

def _load(cfg: ExperimentConfig) -> tuple[graphs.Graph, np.ndarray, int]:
    if cfg.input_path:
        g, d, q_file = graphs.read_instance(cfg.input_path)
        q = cfg.q if cfg.q is not None else q_file
    else:
        g, d = generate_instance(cfg.n, cfg.extra, cfg.seed, cfg.weight_lo,
                                 cfg.weight_hi, cfg.demand, cfg.multigraph)
        q = cfg.q if cfg.q is not None else default_budget(g)
    return g, d, int(q)


def _solver_config(cfg: ExperimentConfig) -> solver.SolverConfig:
    return solver.SolverConfig(epsilon=cfg.epsilon)


def _fw_config(cfg: ExperimentConfig, q: int) -> frankwolfe.FWConfig:
    return frankwolfe.FWConfig(q=q, alpha=cfg.alpha, max_iterations=cfg.max_iterations,
                               solver=_solver_config(cfg))


def _timed(timing: dict, key: str, fn, *args):
    """fn(*args), with its wall-clock seconds stored in timing[key]."""
    t0 = time.perf_counter()
    result = fn(*args)
    timing[key] = time.perf_counter() - t0
    return result


def _draw(g: graphs.Graph, d: np.ndarray, q: int, s: np.ndarray,
          cfg: ExperimentConfig) -> list[dict]:
    """Round s cfg.repeats times and evaluate phi of each draw.

    Draw r uses rng seed cfg.seed + r, so draws are reproducible and
    independent.
    """
    if cfg.repeats < 1:
        raise InvalidInputError(f"repeats must be at least 1, got {cfg.repeats}")
    scfg = _solver_config(cfg)
    draws = []
    for r in range(cfg.repeats):
        params = rounding.RoundingParams(delta=cfg.delta,
                                         p_min_constant=cfg.p_min_constant,
                                         repair=cfg.repair,
                                         max_resamples=cfg.max_resamples,
                                         rng_seed=cfg.seed + r)
        sbar = rounding.floor_probabilities(s, g, params)
        report = rounding.sample(sbar, g, q, params)
        sbin = report.sampled.sbin
        draws.append({"seed": cfg.seed + r, "repairs": len(report.repairs),
                      "resamples": report.resamples_used,
                      "edges_on": float(sbin.sum()),
                      "phi": congestion.phi(g, sbin, d, scfg)})
    return draws


def _header(kind: str, g: graphs.Graph, q: int, d: np.ndarray | None = None) -> dict:
    """Fields every record starts with; the digest needs the demand d."""
    head = {"schema_version": SCHEMA_VERSION, "kind": kind, "n": g.n, "m": g.m, "q": q}
    if d is not None:
        head["instance_digest"] = instance_digest(g, d, q)
    return head


def _solution_fields(cert: frankwolfe.Certificate, trace: frankwolfe.FWTrace) -> dict:
    return {"iterations": len(trace.records), "phi_fractional": cert.phi_value,
            "certificate": asdict(cert)}


def _rounded_fields(draws: list[dict]) -> dict:
    values = [dr["phi"] for dr in draws]
    return {"rounded_phi_mean": float(np.mean(values)),
            "rounded_phi_min": float(np.min(values)),
            "rounded_phi_max": float(np.max(values)),
            "rng_algorithm": rounding.RNG_ALGORITHM}


def _record(kind: str, cfg: ExperimentConfig, fields) -> dict:
    """One record of cfg's instance: the header, then fields(g, d, q,
    timing), which runs the subcommand's stages and times each in timing."""
    g, d, q = _load(cfg)
    timing = {}
    body = fields(g, d, q, timing)
    return _wrap({**_header(kind, g, q, d), **body}, timing)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Full pipeline: optimize, certify, round with repeats, optional baseline."""
    def fields(g, d, q, timing):
        s_frac, cert, trace = _timed(timing, "optimize_s", frankwolfe.run, g, d,
                                     _fw_config(cfg, q))
        draws = _timed(timing, "round_s", _draw, g, d, q, s_frac, cfg)
        body = {"alpha": cfg.alpha, "delta": cfg.delta, "seed": cfg.seed,
                "repeats": cfg.repeats, **_solution_fields(cert, trace),
                **_rounded_fields(draws),
                "repairs_total": sum(dr["repairs"] for dr in draws)}
        if cfg.enumerate_baseline:
            best = _timed(timing, "enumerate_s", enumeration.enumerate_optimal, g, d, q)
            body["best_phi"] = best.best_phi
            body["fractional_over_best"] = cert.phi_value / best.best_phi
            body["rounded_min_over_best"] = body["rounded_phi_min"] / best.best_phi
        return body
    return _record("experiment", cfg, fields)


def _wrap(record: dict, timing: dict) -> dict:
    return {"record": record, "timing": timing,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())}


def _write_output(doc, path: str | None, fmt: str) -> None:
    docs = doc if isinstance(doc, list) else [doc]
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True)
        if path:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return
    rows = []
    for item in docs:
        flat = _flatten(item.get("record", item))
        flat.update(_flatten(item.get("timing", {}), prefix="timing."))
        rows.append(flat)
    cols = sorted({c for row in rows for c in row})
    out = open(path, "w", newline="", encoding="ascii") if path else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _flatten(obj, prefix="") -> dict:
    flat = {}
    for key, val in obj.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            flat.update(_flatten(val, prefix=f"{name}."))
        elif isinstance(val, (list, tuple)):
            continue
        else:
            flat[name] = val
    return flat


# --- subcommand implementations --------------------------------------------

def _cmd_generate(args) -> int:
    g, d, q = _load(_config_from_args(args))
    graphs.check_budget(g, q)
    text = graphs.write_instance(args.output, g, d, q)
    print(f"wrote {args.output}: n={g.n} m={g.m} q={q} digest={_text_digest(text)}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _config_from_args(args)

    def fields(g, d, q, timing):
        s_frac, cert, trace = _timed(timing, "optimize_s", frankwolfe.run, g, d,
                                     _fw_config(cfg, q))
        return {"alpha": cfg.alpha, **_solution_fields(cert, trace),
                "switch_vector": [float(v) for v in s_frac]}
    _write_output(_record("solve", cfg, fields), cfg.output, cfg.format)
    return 0


def _read_solution(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    rec = doc.get("record", doc) if isinstance(doc, dict) else None
    if not isinstance(rec, dict) or "switch_vector" not in rec:
        raise InvalidInputError(f"{path} carries no switch_vector field")
    try:
        return np.array(rec["switch_vector"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{path}: switch_vector is not numeric: {exc}") from exc


def _cmd_round(args) -> int:
    cfg = _config_from_args(args)

    def fields(g, d, q, timing):
        s = _read_solution(args.solution)
        draws = _timed(timing, "round_s", _draw, g, d, q, s, cfg)
        return {"delta": cfg.delta, "seed": cfg.seed, "repeats": cfg.repeats,
                "repair": cfg.repair, **_rounded_fields(draws), "draws": draws}
    _write_output(_record("round", cfg, fields), cfg.output, cfg.format)
    return 0


def _cmd_certify(args) -> int:
    cfg = _config_from_args(args)

    def fields(g, d, q, timing):
        s = _read_solution(args.solution) if args.solution else g.backbone_indicator()
        cert = _timed(timing, "certify_s", frankwolfe.certificate, g, s, d, _fw_config(cfg, q))
        return {"alpha": cfg.alpha, "certificate": asdict(cert)}
    _write_output(_record("certify", cfg, fields), cfg.output, cfg.format)
    return 0


def _cmd_enumerate(args) -> int:
    cfg = _config_from_args(args)

    def fields(g, d, q, timing):
        result = _timed(timing, "enumerate_s", enumeration.enumerate_optimal, g, d, q)
        return {"best_phi": result.best_phi, "evaluated_count": result.evaluated_count,
                "best_switch_vector": [float(v) for v in result.best_config.sbin]}
    _write_output(_record("enumerate", cfg, fields), cfg.output, cfg.format)
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.output:
        cfg = replace(cfg, output=args.output)
    _write_output(run_experiment(cfg), cfg.output, cfg.format)
    return 0


def _cmd_bench(args) -> int:
    base = replace(_config_from_args(args), max_iterations=args.iters, multigraph=True)
    docs = []
    for part in args.sizes.split(","):
        try:
            n, m = (int(v) for v in part.split(":"))
        except ValueError as exc:
            raise InvalidInputError(f"size {part!r} is not an n:m pair of integers") from exc
        if m < n - 1:
            raise InvalidInputError(f"size {n}:{m} has fewer edges than a tree")
        cfg = replace(base, n=n, extra=m - (n - 1))
        g, d, q = _load(cfg)
        timing = {}
        _, cert, trace = _timed(timing, "total_s", frankwolfe.run, g, d,
                                _fw_config(cfg, q))
        walls = [r.wall_time for r in trace.records]
        steps = np.diff(walls) if len(walls) > 1 else np.array([timing["total_s"]])
        timing["per_iteration_s"] = float(np.median(steps))
        record = {**_header("bench", g, q), "alpha": cfg.alpha, "seed": cfg.seed,
                  "iterations": len(trace.records), "certified": cert.certified,
                  "phi": cert.phi_value}
        docs.append(_wrap(record, timing))
        print(f"n={g.n} m={g.m}: {timing['per_iteration_s']:.4f} s/iteration, "
              f"{len(trace.records)} iterations, certified={cert.certified}")
    if base.output:
        _write_output(docs, base.output, base.format)
    return 0


def _config_from_args(args) -> ExperimentConfig:
    kwargs = {}
    for name in ExperimentConfig.__dataclass_fields__:
        if hasattr(args, name) and getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    return ExperimentConfig(**kwargs)


def _add_common(p: argparse.ArgumentParser, *names) -> None:
    opts = {
        "input": lambda: p.add_argument("--input", dest="input_path", required=True,
                                        help="instance file"),
        "output": lambda: p.add_argument("--output"),
        "format": lambda: p.add_argument("--format", choices=("json", "csv")),
        "seed": lambda: p.add_argument("--seed", type=int),
        "q": lambda: p.add_argument("--q", type=int,
                                    help="edge budget (defaults to the instance file)"),
        "alpha": lambda: p.add_argument("--alpha", type=float),
        "delta": lambda: p.add_argument("--delta", type=float),
        "repeats": lambda: p.add_argument("--repeats", type=int),
        "epsilon": lambda: p.add_argument("--epsilon", type=float, help=EPSILON_HELP),
        # Frank-Wolfe's iteration cap, for the subcommand that runs it.
        "max_iterations": lambda: p.add_argument("--max-iterations", dest="max_iterations",
                                                 type=int),
    }
    for name in names:
        opts[name]()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="reswitch",
                                 description="budgeted switching reconfiguration")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--extra", type=int)
    p.add_argument("--weight-lo", dest="weight_lo", type=float)
    p.add_argument("--weight-hi", dest="weight_hi", type=float)
    p.add_argument("--demand", choices=("pair", "gauss"))
    p.add_argument("--multigraph", action="store_true")
    p.add_argument("--output", required=True)
    _add_common(p, "seed", "q")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="optimize and certify a fractional solution")
    _add_common(p, "input", "output", "format", "q", "alpha", "epsilon", "max_iterations")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("round", help="round a fractional solution")
    p.add_argument("--solution", required=True, help="JSON record from solve")
    p.add_argument("--repair", choices=rounding.REPAIR_MODES)
    p.add_argument("--p-min-constant", dest="p_min_constant", type=float)
    p.add_argument("--max-resamples", dest="max_resamples", type=int)
    _add_common(p, "input", "output", "format", "seed", "q", "delta", "repeats",
                "epsilon")
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("certify", help="evaluate the gap certificate at a point")
    p.add_argument("--solution", help="JSON record with switch_vector")
    _add_common(p, "input", "output", "format", "q", "alpha", "epsilon")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("enumerate", help="exact baseline by branch and bound")
    _add_common(p, "input", "output", "format", "q")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("experiment", help="run a config-file experiment end to end")
    p.add_argument("--config", required=True, help="flat JSON config file")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("bench", help="per-iteration timing across sizes")
    p.add_argument("--sizes", required=True, help="comma list of n:m pairs")
    p.add_argument("--iters", type=int, default=3)
    _add_common(p, "output", "format", "seed", "alpha", "epsilon")
    p.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, StructuralError, OSError,
            json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": "invalid input", "detail": str(exc)}),
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(json.dumps({"error": "numerical failure", "detail": str(exc)}),
              file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(json.dumps({"error": "cap exceeded", "detail": str(exc)}),
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
