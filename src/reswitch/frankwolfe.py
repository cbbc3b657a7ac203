"""Conditional-gradient optimization of congestion under an edge budget.

The feasible set is the unit cube with backbone entries pinned to 1 and
total mass at most q. Its linear minimization oracle keeps the backbone
and closes the q - |T| switchable edges with the most negative gradient
entries. The gap <grad, s - v*> certifies approximation quality through
an interval that holds at any solve accuracy. With phi, the certified
lower end, and bound from the solve at s (congestion.DiffResult), every
point s' of the polytope has phi(s') >= phi + <grad, s' - s>, so the
optimum is at least lower_bound = phi - gap (Frank-Wolfe duality), while
phi(s) is at most upper_bound = phi + bound. Once upper_bound <= (1+alpha)
lower_bound, the iterate is within a (1+alpha) factor of the constrained
optimum. At an exact solve (bound = 0) this is gap <= tau * phi with tau =
alpha/(1+alpha).

Since the interval holds at any accuracy, only the certificate that is
returned needs a solve at SolverConfig.epsilon, phi's relative accuracy.
run solves the start there, but each step tried at eta = 2/(t+2) only to
max(epsilon, min(alpha, eta * gap / phi) / 10): a tenth of the decrease
eta * gap that the step predicts, and at most a tenth of alpha, so that a
loose interval still certifies with nine tenths of the slack. An iterate
read loosely (bound > epsilon * phi) whose interval certifies is read again
at epsilon before it is returned, and so is a loosely read last iterate of
a run that ends on its budget.

Steps follow the 2/(t+2) schedule, but each step's lower end phi is
evaluated first and a step that would raise it is skipped (the monotone
guard), while the classic convergence analysis still applies. The
recorded phi is non-increasing except where a loosely read iterate is read
again at epsilon: CG restarts from zero with the same preconditioner and
repeats the loose solve's iterates, so the lower end can only rise, and by
at most the loose read's bound, since the true phi lies in its interval.
An accepted step does not raise the lower end, and can raise the true phi
by at most the trial's bound.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

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
    """The gap at a point, tau = alpha/(1+alpha), phi_value, the solve's
    phi at the point, and the interval: the optimum is at least lower_bound
    = phi_value - gap and phi at the point at most upper_bound = phi_value
    + bound (module docstring), so lower_bound <= phi_value <= upper_bound.
    certified holds iff both ends are finite and upper_bound <= (1+alpha)
    lower_bound; bound_factor is then 1 + alpha."""
    gap: float
    tau: float
    phi_value: float
    certified: bool
    bound_factor: float | None
    lower_bound: float
    upper_bound: float


@dataclass(frozen=True)
class IterationRecord:
    """One iterate: its phi and gap, the step size tried from it, ||s||_1,
    and cg_iterations, the CG iterations of the solve made since the
    previous record (the start's solve, then the step tried from the
    previous iterate, accepted or not, or the previous iterate read again
    at epsilon; 0 on the dense kernel). bound is the width of the
    iterate's phi interval, [phi, phi + bound]: above epsilon * phi the
    iterate was read loosely, as a tried step (frankwolfe.run)."""
    iteration: int
    phi: float
    gap: float
    eta: float
    l1: float
    wall_time: float
    cg_iterations: int
    bound: float


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
    """Certificate gap <grad, s - v*>; nonnegative when v* is the oracle output.

    An overflowed gradient gives an infinite or NaN gap, which certifies nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.asarray(grad) @ (np.asarray(s) - np.asarray(v_star)))


def certificate(g: graphs.Graph, s: np.ndarray, d: np.ndarray, cfg: FWConfig) -> Certificate:
    """Evaluate the gap certificate at an arbitrary feasible point.

    One solve gives it: the exact dense kernel at or below the dense
    threshold, certified CG on the graph's switching core
    (graphs.Graph.core) above it. A point that closes more than q
    edges is not feasible, and its gap bounds nothing, so it raises
    InvalidInputError.
    """
    s = graphs.check_switch(g, s)
    if s.sum() > cfg.q + BUDGET_SLACK:
        raise InvalidInputError(
            f"switch vector closes {s.sum():.12g} edges, above the budget q={cfg.q}")
    diff = congestion.approx_diff(g, s, d, cfg.solver)
    v = lmo_top_q(diff.grad, g, cfg.q)
    return _certificate(diff, fw_gap(diff.grad, s, v), cfg.alpha)


def _certificate(diff: congestion.DiffResult, gap: float, alpha: float) -> Certificate:
    # phi* >= phi - gap over the budget polytope, and phi(s) <= phi + bound.
    # An overflowed bound bounds nothing (inf <= inf holds), and neither does NaN.
    lower = diff.phi - gap
    upper = diff.phi + diff.bound
    certified = bool(math.isfinite(lower) and math.isfinite(upper)
                     and upper <= (1.0 + alpha) * lower)
    return Certificate(gap=gap, tau=alpha / (1.0 + alpha), phi_value=diff.phi,
                       certified=certified,
                       bound_factor=(1.0 + alpha) if certified else None,
                       lower_bound=lower, upper_bound=upper)


def run(g: graphs.Graph, d: np.ndarray, cfg: FWConfig
        ) -> tuple[np.ndarray, Certificate, FWTrace]:
    """Optimize from the backbone indicator; stop on certificate or budget.

    Returns the certified iterate or, when max_iterations runs out, the
    last accepted iterate, whose phi is the lowest seen, with the
    certificate of a solve at it, and the iteration trace of at most
    max_iterations records. It returns early, uncertified, once phi has
    overflowed at both the iterate and its tried step. The budget
    ||s_t||_1 <= q and backbone pinning hold at every iterate. Every solve
    is congestion's: the exact dense kernel at or below the dense
    threshold, certified CG on the graph's switching core
    (graphs.Graph.core) above it.

    The start is solved to cfg.solver's phi accuracy epsilon, each tried
    step more loosely (module docstring). When an iterate read loosely,
    bound > epsilon * phi, certifies, the next pass reads the same point
    again at epsilon and records that solve, so each record still stands
    for one solve and one oracle call; a run that ends on a loose read
    reads its iterate again at epsilon after the loop. The returned
    certificate is thus always from a solve at epsilon, and equals the one
    certificate gives at the returned point.
    """
    d = graphs.check_demand(g, d)
    graphs.check_budget(g, cfg.q)
    bb = g.backbone_mask
    tight = cfg.solver

    def loose(diff):
        return diff.bound > tight.epsilon * diff.phi

    start = time.perf_counter()
    s = g.backbone_indicator()
    diff = congestion.approx_diff(g, s, d, tight)
    records = []
    spent = diff.cg_iterations

    for t in range(cfg.max_iterations):
        v = lmo_top_q(diff.grad, g, cfg.q)
        gap = fw_gap(diff.grad, s, v)
        eta = 2.0 / (t + 2.0)
        records.append(IterationRecord(iteration=t, phi=diff.phi, gap=gap, eta=eta,
                                       l1=float(s.sum()),
                                       wall_time=time.perf_counter() - start,
                                       cg_iterations=spent, bound=diff.bound))
        cert = _certificate(diff, gap, cfg.alpha)
        if cert.certified:
            if not loose(diff):
                return s, cert, FWTrace(tuple(records))
            # Certified from a loose read: re-read the same point at
            # epsilon, the solve the next pass records.
            diff = congestion.approx_diff(g, s, d, tight)
            spent = diff.cg_iterations
            continue

        s_try = (1.0 - eta) * s + eta * v
        s_try[bb] = 1.0
        np.clip(s_try, 0.0, 1.0, out=s_try)
        assert s_try.sum() <= cfg.q + BUDGET_SLACK
        # The step's phi to a tenth of the decrease eta * gap it predicts,
        # and of alpha: the guard compares lower ends, and a read whose
        # slack exceeds the decrease can reject every later step.
        eps_try = tight.epsilon
        if diff.phi > 0.0:
            eps_try = max(eps_try, 0.1 * min(cfg.alpha, eta * gap / diff.phi))
        diff_try = congestion.approx_diff(g, s_try, d, replace(tight, epsilon=eps_try))
        spent = diff_try.cg_iterations
        # Overflowed on both sides, no step can be compared or certified.
        if not (np.isfinite(diff.phi) or np.isfinite(diff_try.phi)):
            break
        if diff_try.phi > diff.phi:
            continue
        s, diff = s_try, diff_try

    # The guard never accepts a higher lower end, so the last accepted
    # iterate is the best one; certify it from a solve at epsilon.
    if loose(diff):
        diff = congestion.approx_diff(g, s, d, tight)
    cert = _certificate(diff, fw_gap(diff.grad, s, lmo_top_q(diff.grad, g, cfg.q)), cfg.alpha)
    return s, cert, FWTrace(tuple(records))
