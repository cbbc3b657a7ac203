"""Exact minimizer of congestion over binary configurations, by branch and bound.

Ground truth for certificate and rounding claims at small scale. phi does
not increase as a switch closes (L_s only grows in the PSD order), so some
optimum closes exactly k = min(q - |T|, F) of the F free (non-backbone)
edges, and the search runs over those configurations only. Bit i of a
configuration bitmask refers to the i-th free edge in edge order.

The search is depth-first (Land and Doig). A node fixes some free edges
closed and some open; its relaxation lets the unfixed ones take values in
[0, 1] that add up to at most the number still to close. phi is convex in
s, so at any point s of that relaxation

    phi(s') >= phi(s) + <grad phi(s), s' - s> >= phi(s) - gap(s)

for every s' in it, where gap(s) = <grad phi(s), s - v> is the Frank-Wolfe
duality gap and v, the linear minimization oracle, closes the unfixed
edges with the most negative gradient entries. A node runs NODE_STEPS
Frank-Wolfe steps on exact solves and keeps the largest phi - gap seen as
its lower bound; it inherits its parent's bound and last point.
Every oracle vertex is a configuration of the node and is evaluated, once
per search, as a candidate incumbent; its gradient sets the step length
(a secant step on the derivative along the segment to it). A node is
pruned only when its bound exceeds the incumbent by the relative margin
PRUNE_RTOL, so roundoff never prunes an optimum or a tie. Otherwise it
branches on the unfixed edge whose value is nearest 1/2, nearer side
first.

Only the free edges change between solves, so each is exact in the
free-edge space. With L_B the backbone's Laplacian, U the free edges'
incidence vectors (n x F) and C = diag(s_F w_F), L_s = L_B + U C U^T. One
grounded dense solve per search (solver._grounded_solve), on F + 1
right-hand sides, gives b = U^T L_B^+ d, G = U^T L_B^+ U and phi_B =
d^T L_B^+ d. Then M = I + C^1/2 G C^1/2 is positive definite with
eigenvalues at least 1, and by the Woodbury identity (Hager, 1989), with
z = M^-1 C^1/2 b,

    phi(s) = phi_B - (C^1/2 b)^T z,    U^T L_s^+ d = b - G C^1/2 z,

so a node solve is one F x F Cholesky. The search runs on d scaled by a
power of two (solver._unit_scaled): every phi, gradient and bound is then
scaled by one power of four, exactly, so no comparison changes and none
overflows. The best_phi reported is the dense kernel's phi of the chosen
configuration, a second grounded n x n solve (solver._exact_solve). A
dense residual that shows an edge lost to round-off raises NumericalError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import graphs, solver
from .errors import CapExceededError, StructuralError

# Most search nodes before the search gives up with CapExceededError.
NODE_CAP = 10000
NODE_STEPS = 4
PRUNE_RTOL = 1e-9
# Configurations whose phi agree to this relative margin tie.
TIE_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    best_config: graphs.Configuration
    best_phi: float
    evaluated_count: int


def free_edges(g: graphs.Graph) -> np.ndarray:
    """Non-backbone edge indices in edge order (bitmask bit order)."""
    return np.flatnonzero(~g.backbone_mask)


class _Search:
    """Incumbent, node count and exact solves of one branch and bound.

    Switch values and masks here are indexed by free edge, not by edge.
    d is the demand scaled by a power of two, and every phi and gradient
    here is d's (module docstring).
    """

    def __init__(self, g: graphs.Graph, d: np.ndarray, head: int):
        self.free = free_edges(g)
        # Edges every configuration searched closes: phi never rises as one closes.
        self.k = min(head, len(self.free))
        self.w = g.w[self.free]
        self.d = solver._unit_scaled(d)[0]
        # The backbone's solve on [d, U], from the dense kernel on the d
        # enumerate_optimal checked once.
        ei, ej = g.ei[self.free], g.ej[self.free]
        cols = np.arange(1, len(self.free) + 1)
        rhs = np.zeros((g.n, len(cols) + 1))
        rhs[:, 0] = self.d
        rhs[ei, cols], rhs[ej, cols] = 1.0, -1.0
        X = solver._grounded_solve(
            graphs.assemble_laplacian_dense(g, g.backbone_indicator()), rhs)
        drops = X[ei] - X[ej]
        self.b = drops[:, 0]
        self.G = 0.5 * (drops[:, 1:] + drops[:, 1:].T)
        self.phi_B = float(self.d @ X[:, 0])
        self.best_phi = np.inf
        self.best_mask = None
        self.best_on = None
        self.nodes = 0
        # bitmask -> (phi, gradient) of every configuration solved so far
        self.leaves = {}

    def solve(self, sf: np.ndarray) -> tuple[float, np.ndarray]:
        """phi and its gradient on the free edges at free-edge values sf: one
        F x F Cholesky of M = I + C^1/2 G C^1/2 (module docstring)."""
        if self.k == 0:
            # The one configuration opens every free edge, and F = 0 leaves
            # no M to factor: the backbone's own solve.
            return self.phi_B, -self.w * self.b ** 2
        r = np.sqrt(sf * self.w)
        rb = r * self.b
        M = r[:, None] * self.G * r
        M.flat[::len(r) + 1] += 1.0
        _, z, info = lapack.dposv(M, rb)
        if info != 0:
            raise StructuralError("free-edge system is not positive definite")
        y = self.b - self.G @ (r * z)
        return self.phi_B - float(rb @ z), -self.w * y ** 2

    def leaf(self, on: np.ndarray) -> tuple[float, np.ndarray]:
        """phi and gradient of configuration on, offered once as incumbent.

        It replaces the incumbent when phi is lower, or ties it and has
        the smaller bitmask.
        """
        mask = int.from_bytes(np.packbits(on, bitorder="little").tobytes(), "little")
        hit = self.leaves.get(mask)
        if hit is None:
            hit = self.leaves[mask] = self.solve(on.astype(float))
            phi = hit[0]
            if (self.best_on is None or phi < self.best_phi * (1.0 - TIE_RTOL)
                    or phi <= self.best_phi * (1.0 + TIE_RTOL) and mask < self.best_mask):
                self.best_phi, self.best_mask, self.best_on = phi, mask, on
        return hit

    def pruned(self, lb: float) -> bool:
        # phi = 0 only at zero demand. There every configuration ties, and the
        # root's first vertex, the lowest k free edges, is the smallest mask.
        return lb > self.best_phi * (1.0 + PRUNE_RTOL) or self.best_phi == 0.0

    def visit(self, on: np.ndarray, off: np.ndarray, sf: np.ndarray, lb: float):
        """Bound one node; return its children (far side first), or none."""
        self.nodes += 1
        if self.nodes > NODE_CAP:
            raise CapExceededError(
                f"branch and bound exceeded its node cap {NODE_CAP}")
        unfixed = np.flatnonzero(~(on | off))
        r = self.k - int(np.count_nonzero(on))
        if r == 0 or r == len(unfixed):
            # One configuration: the remaining edges all open or all close.
            only = on.copy()
            only[unfixed] = r > 0
            self.leaf(only)
            return []
        for _ in range(NODE_STEPS):
            phi_s, grad_s = self.solve(sf)
            # Oracle vertex: the fixed-closed edges and the r most negative
            # unfixed ones, ties toward the lower edge (graphs.smallest_k's
            # set; a stable sort is cheaper on a few dozen entries).
            v = on.copy()
            v[unfixed[np.argsort(grad_s[unfixed], kind="stable")[:r]]] = True
            gap = float(grad_s @ (sf - v))
            grad_v = self.leaf(v)[1]
            lb = max(lb, phi_s - gap)
            if self.pruned(lb):
                return []
            if gap <= 0.0:
                break
            # Secant step on the derivative along s -> v, which rises from -gap.
            slope_v = float(grad_v @ (v - sf))
            eta = 1.0 if slope_v <= 0.0 else gap / (gap + slope_v)
            sf = sf + eta * (v - sf)
        e = unfixed[np.argmin(np.abs(sf[unfixed] - 0.5))]
        children = []
        for close in ((False, True) if sf[e] >= 0.5 else (True, False)):
            c_on, c_off, c_sf = on.copy(), off.copy(), sf.copy()
            (c_on if close else c_off)[e] = True
            c_sf[e] = float(close)
            rest = np.flatnonzero(~(c_on | c_off))
            total, room = c_sf[rest].sum(), self.k - np.count_nonzero(c_on)
            if total > room:
                c_sf[rest] *= room / total
            children.append((c_on, c_off, c_sf, lb))
        return children


def enumerate_optimal(g: graphs.Graph, d: np.ndarray, q: int) -> EnumerationResult:
    """Exact minimizer of phi over binary s with backbone kept and ||s||_1 <= q.

    The optimum returned closes exactly k = min(q - |T|, F) free edges.
    Ties, values of phi within a relative TIE_RTOL, go to the smallest
    bitmask among those configurations. evaluated_count is the number of
    search nodes bounded; more than NODE_CAP raises CapExceededError.
    """
    d = graphs.check_demand(g, d)
    t_size = graphs.check_budget(g, q)
    # The backbone's solve and the final phi are dense n x n solves.
    solver.require_dense(g.n)
    search = _Search(g, d, q - t_size)
    F = len(search.free)
    none = np.zeros(F, dtype=bool)
    # The root starts from the relaxation's centre: every free edge at k / F.
    stack = [(none, none, np.full(F, search.k / max(F, 1)), -np.inf)]
    while stack:
        on, off, sf, lb = stack.pop()
        if not search.pruned(lb):
            stack.extend(search.visit(on, off, sf, lb))

    s_best = g.backbone_indicator()
    s_best[search.free] = search.best_on
    best_phi = solver._exact_solve(graphs.assemble_laplacian_dense(g, s_best), d).phi_lb
    return EnumerationResult(best_config=graphs.Configuration(sbin=s_best),
                             best_phi=best_phi, evaluated_count=search.nodes)
