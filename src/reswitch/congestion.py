"""Congestion objective phi(s) = d^T L_s^+ d and its derivatives.

One approximate solve yields the value, the per-edge voltage differences
Delta_e, and the full gradient (grad phi)_e = -w_e Delta_e^2 at once.
SolverConfig.epsilon is read as the relative accuracy of phi. CG from
zero misses phi by exactly its error energy, so a solve to energy
accuracy sqrt(epsilon) gives phi_lb <= phi <= phi_lb + bound <= (1 +
epsilon) phi_lb, and phi_lb is the one value reported. The exact gradient
and Hessian that check the analysis live beside the tests
(tests/theory.py).

Above the dense threshold the solve runs on the graph's switching core
(graphs.Graph.core): the demand is folded onto the kept nodes, CG solves
the core's Laplacian, phi is the eliminated nodes' constant energy plus
the core's phi, and every edge's voltage drop is read back from the
core's voltages. The core's residual is the whole graph's, so its
interval [phi_lb, phi_lb + bound] and certificate hold for the graph's
phi unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import graphs, solver


@dataclass(frozen=True, eq=False)
class DiffResult:
    """Gradient bundle from a single solve.

    grad_e = -w_e * delta_e^2 holds by construction, so every entry is
    nonpositive. phi is the solve's certified lower end (solver.SolveResult
    phi_lb), and the true phi lies in [phi, phi + bound]; the dense kernel
    gives phi = d^T x, bound = 0 and cg_iterations = 0.
    """

    grad: np.ndarray
    delta: np.ndarray
    phi: float
    bound: float
    cg_iterations: int


def make_context(g: graphs.Graph,
                 cfg: solver.SolverConfig | None = None) -> solver.SolveContext:
    """The solve context every CG solve of congestion on g reads: that of
    g's core (graphs.Graph.core); cfg is accepted, for the benchmark's
    call, and not used."""
    return g.core.context


def _voltages(g, s, d, cfg) -> tuple[float, float, int, Callable[[], np.ndarray]]:
    """(phi_lb, bound, CG iterations, delta) of one solve, delta() giving
    the voltage drop on every edge."""
    # The one place a kernel is picked, by size. At or below the threshold
    # one dense Cholesky solve is exact and cheaper than CG; assembly
    # checks s, then d is checked. Above it, certified CG runs on the
    # graph's core, which is built only there, to energy accuracy
    # sqrt(epsilon): that puts phi itself within relative epsilon. The
    # core runs on d scaled by a power of two (solver._unit_scaled), so
    # that no flow's square over- or underflows, and scales back. s is
    # checked once, on g; the core's vector is a part of it.
    if g.n <= solver.SolverConfig.dense_threshold:
        res = solver._exact_solve(graphs.assemble_laplacian_dense(g, s),
                                  graphs.check_demand(g, d))
        return res.phi_lb, res.bound, 0, lambda: res.x[g.ei] - res.x[g.ej]
    cfg = cfg or solver.SolverConfig()
    core = g.core
    s = graphs.check_switch(g, s)
    d, exponent = solver._unit_scaled(graphs.check_demand(g, d))
    d_core, energy, local = core.fold(d)
    L = graphs._assemble(core.graph, core.switch(s))
    res = solver.solve(L, d_core, replace(cfg, epsilon=math.sqrt(cfg.epsilon)),
                       context=core.context)
    with np.errstate(over="ignore"):
        phi_lb, bound = np.ldexp([energy + res.phi_lb, res.bound], 2 * exponent)
    return (float(phi_lb), float(bound), res.iterations,
            lambda: core.delta(np.ldexp(res.x, exponent), np.ldexp(local, exponent)))


def phi(g: graphs.Graph, s: np.ndarray, d: np.ndarray,
        cfg: solver.SolverConfig | None = None) -> float:
    """Congestion d^T L_s^+ d of the switched graph, within relative
    epsilon, from one solve; a phi beyond the float range comes out as inf."""
    return _voltages(g, s, d, cfg)[0]


def approx_diff(g: graphs.Graph, s: np.ndarray, d: np.ndarray,
                cfg: solver.SolverConfig | None = None) -> DiffResult:
    """Value, voltage differences, gradient and phi's interval from one solve.

    A phi or gradient entry beyond the float range comes out as inf. The
    gradient squares delta scaled by a power of two (solver._unit_scaled)
    and scales back, so it is w * delta^2 bit for bit wherever that is in
    range, and no square under- or overflows when every weight is far
    from 1. Above the dense threshold delta comes from the core's solve,
    on a kept edge as a difference of the core's voltages and on an
    eliminated one as its resistance times its flow (graphs.Core.delta).
    """
    phi_lb, bound, iterations, drops = _voltages(g, s, d, cfg)
    delta = drops()
    unit, exponent = solver._unit_scaled(delta)
    with np.errstate(over="ignore"):
        grad = np.ldexp(-g.w * unit ** 2, 2 * exponent)
    return DiffResult(grad=grad, delta=delta, phi=phi_lb, bound=bound,
                      cg_iterations=iterations)
