"""Conditional-gradient optimization of congestion under an edge budget.

The feasible set is the unit cube with backbone entries pinned to 1 and
total mass at most q. Its linear minimization oracle keeps the backbone
and closes the q - |T| switchable edges with the most negative gradient
entries. The gap <grad, s - v*> certifies approximation quality: once it
falls below tau * phi(s) with tau = alpha/(1+alpha), the iterate is
within a (1+alpha) factor of the constrained optimum.

Steps follow the 2/(t+2) schedule, but each step's objective is evaluated
first and a step that would increase it is skipped (the monotone guard),
so the value trace is non-increasing while the classic convergence
analysis still applies.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import congestion, graphs, solver
from .errors import InvalidInputError

# Round-off allowed in ||s||_1 <= q: run holds every iterate to it, and
# certificate refuses a point beyond it.
BUDGET_SLACK = 1e-9


@dataclass(frozen=True)
class FWConfig:
    q: int
    alpha: float
    max_iterations: int = 500
    solver: solver.SolverConfig = field(default_factory=solver.SolverConfig)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InvalidInputError("alpha must lie in (0, 1)")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")


@dataclass(frozen=True)
class Certificate:
    gap: float
    tau: float
    phi_value: float
    certified: bool
    bound_factor: float | None


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    phi: float
    gap: float
    eta: float
    l1: float
    wall_time: float


@dataclass(frozen=True, eq=False)
class FWTrace:
    records: tuple[IterationRecord, ...]


def lmo_top_q(grad: np.ndarray, g: graphs.Graph, q: int) -> np.ndarray:
    """Vertex minimizing <grad, v> over the budgeted cube with backbone kept.

    Selects the min(q, m) - |T| switchable edges with the most negative
    gradient entries; ties, including zero entries, break toward lower
    edge index. The result has exactly min(q, m) ones.
    """
    t_size = graphs.check_budget(g, q)
    grad = np.asarray(grad, dtype=float)
    off = np.flatnonzero(~g.backbone_mask)
    k = min(q, g.m) - t_size
    v = np.zeros(g.m)
    v[g.backbone_mask] = 1.0
    v[off[graphs.smallest_k(grad[off], k)]] = 1.0
    return v


def fw_gap(grad: np.ndarray, s: np.ndarray, v_star: np.ndarray) -> float:
    """Certificate gap <grad, s - v*>; nonnegative when v* is the oracle output."""
    return float(np.asarray(grad) @ (np.asarray(s) - np.asarray(v_star)))


def certificate(g: graphs.Graph, s: np.ndarray, d: np.ndarray, cfg: FWConfig) -> Certificate:
    """Evaluate the gap certificate at an arbitrary feasible point.

    One solve gives it: the exact dense kernel at or below the dense
    threshold, certified CG on the graph's solve context
    (graphs.Graph.context) above it. A point that closes more than q
    edges is not feasible, and its gap bounds nothing, so it raises
    InvalidInputError.
    """
    s = graphs.check_switch(g, s)
    if s.sum() > cfg.q + BUDGET_SLACK:
        raise InvalidInputError(
            f"switch vector closes {s.sum():.12g} edges, above the budget q={cfg.q}")
    diff = congestion.approx_diff(g, s, d, cfg.solver)
    v = lmo_top_q(diff.grad, g, cfg.q)
    gap = fw_gap(diff.grad, s, v)
    return _certificate(gap, cfg.alpha, diff.phi)


def _certificate(gap: float, alpha: float, phi_value: float) -> Certificate:
    tau = alpha / (1.0 + alpha)
    # An overflowed phi or gap bounds nothing (inf <= tau * inf holds).
    certified = bool(np.isfinite(phi_value) and np.isfinite(gap)) and gap <= tau * phi_value
    return Certificate(gap=gap, tau=tau, phi_value=phi_value, certified=certified,
                       bound_factor=(1.0 + alpha) if certified else None)


def run(g: graphs.Graph, d: np.ndarray, cfg: FWConfig
        ) -> tuple[np.ndarray, Certificate, FWTrace]:
    """Optimize from the backbone indicator; stop on certificate or budget.

    Returns the certified iterate or, when max_iterations runs out, the
    lowest-phi iterate seen (the last accepted step included), with its
    certificate, and the iteration trace of at most max_iterations records.
    It returns early, uncertified, once phi has overflowed at both the
    iterate and its tried step. The budget ||s_t||_1 <= q and backbone
    pinning hold at every iterate. Every solve is congestion's: the exact
    dense kernel at or below the dense threshold, certified CG on the
    graph's solve context (graphs.Graph.context) above it.
    """
    d = graphs.check_demand(g, d)
    graphs.check_budget(g, cfg.q)
    bb = g.backbone_mask

    start = time.perf_counter()
    s = g.backbone_indicator()
    diff = congestion.approx_diff(g, s, d, cfg.solver)
    records = []
    # The guard keeps phi non-increasing, so the best iterate is the last
    # one, except that a tie goes to the earliest iterate with that phi.
    best_phi = np.inf
    best_s = s
    best_gap = np.inf

    for t in range(cfg.max_iterations):
        v = lmo_top_q(diff.grad, g, cfg.q)
        gap = fw_gap(diff.grad, s, v)
        eta = 2.0 / (t + 2.0)
        records.append(IterationRecord(iteration=t, phi=diff.phi, gap=gap, eta=eta,
                                       l1=float(s.sum()),
                                       wall_time=time.perf_counter() - start))
        cert = _certificate(gap, cfg.alpha, diff.phi)
        if cert.certified:
            return s, cert, FWTrace(tuple(records))
        if diff.phi < best_phi:
            best_phi, best_s, best_gap = diff.phi, s, gap

        s_try = (1.0 - eta) * s + eta * v
        s_try[bb] = 1.0
        np.clip(s_try, 0.0, 1.0, out=s_try)
        assert s_try.sum() <= cfg.q + BUDGET_SLACK
        diff_try = congestion.approx_diff(g, s_try, d, cfg.solver)
        # Overflowed on both sides, no step can be compared or certified.
        if not (np.isfinite(diff.phi) or np.isfinite(diff_try.phi)):
            break
        if diff_try.phi > diff.phi:
            continue
        s, diff = s_try, diff_try

    # The budget ran out: the last accepted step was solved but not yet
    # compared, so certify it from that solve before choosing.
    if diff.phi < best_phi:
        best_phi, best_s = diff.phi, s
        best_gap = fw_gap(diff.grad, s, lmo_top_q(diff.grad, g, cfg.q))
    return best_s, _certificate(best_gap, cfg.alpha, best_phi), FWTrace(tuple(records))

