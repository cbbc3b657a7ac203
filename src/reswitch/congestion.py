"""Congestion objective phi(s) = d^T L_s^+ d and its derivatives.

One approximate solve yields the value, the per-edge voltage differences
Delta_e, and the full gradient (grad phi)_e = -w_e Delta_e^2 at once.
SolverConfig.epsilon is read as the relative accuracy of phi. CG from
zero misses phi by exactly its error energy, so a solve to energy
accuracy sqrt(epsilon) gives phi_lb <= phi <= phi_lb + bound <= (1 +
epsilon) phi_lb, and phi_lb is the one value reported. The exact gradient
and Hessian that check the analysis live beside the tests
(tests/theory.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    """The graph's solve context (graphs.Graph.context), which every CG
    solve on g reads; cfg is accepted, for the benchmark's call, and not used."""
    return g.context


def _voltages(g, s, d, cfg) -> solver.SolveResult:
    # The one place a kernel is picked, by size. At or below the threshold
    # one dense Cholesky solve is exact and cheaper than CG; assembly
    # checks s, then d is checked. Above it, certified CG runs on the
    # graph's context, which is built only there, to energy accuracy
    # sqrt(epsilon): that puts phi itself within relative epsilon.
    if g.n <= solver.SolverConfig.dense_threshold:
        return solver._exact_solve(graphs.assemble_laplacian_dense(g, s),
                                  graphs.check_demand(g, d))
    cfg = cfg or solver.SolverConfig()
    L = graphs.assemble_laplacian(g, s)
    return solver.solve(L, d, replace(cfg, epsilon=math.sqrt(cfg.epsilon)),
                        context=g.context)


def phi(g: graphs.Graph, s: np.ndarray, d: np.ndarray,
        cfg: solver.SolverConfig | None = None) -> float:
    """Congestion d^T L_s^+ d of the switched graph, within relative
    epsilon, from one solve; a phi beyond the float range comes out as inf."""
    return _voltages(g, s, d, cfg).phi_lb


def approx_diff(g: graphs.Graph, s: np.ndarray, d: np.ndarray,
                cfg: solver.SolverConfig | None = None) -> DiffResult:
    """Value, voltage differences, gradient and phi's interval from one solve.

    A phi or gradient entry beyond the float range comes out as inf. The
    gradient squares delta scaled by a power of two (solver._unit_scaled)
    and scales back, so it is w * delta^2 bit for bit wherever that is in
    range, and no square under- or overflows when every weight is far
    from 1.
    """
    res = _voltages(g, s, d, cfg)
    delta = res.x[g.ei] - res.x[g.ej]
    unit, exponent = solver._unit_scaled(delta)
    with np.errstate(over="ignore"):
        grad = np.ldexp(-g.w * unit ** 2, 2 * exponent)
    return DiffResult(grad=grad, delta=delta, phi=res.phi_lb,
                      bound=res.bound, cg_iterations=res.iterations)
