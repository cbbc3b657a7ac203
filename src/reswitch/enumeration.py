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
Frank-Wolfe steps on exact dense solves and keeps the largest phi - gap
seen as its lower bound; it inherits its parent's bound and last point.
Every oracle vertex is a configuration of the node and is evaluated, once
per search, as a candidate incumbent; its gradient sets the step length
(a secant step on the derivative along the segment to it). A node is
pruned only when its bound exceeds the incumbent by the relative margin
PRUNE_RTOL, so roundoff never prunes an optimum or a tie. Otherwise it
branches on the unfixed edge whose value is nearest 1/2, nearer side
first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs, solver
from .errors import CapExceededError

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
    """

    def __init__(self, g: graphs.Graph, d: np.ndarray, head: int):
        self.g, self.d = g, d
        self.free = free_edges(g)
        # Edges every configuration searched closes: phi never rises as one closes.
        self.k = min(head, len(self.free))
        self.ei, self.ej = g.ei[self.free], g.ej[self.free]
        self.w = g.w[self.free]
        self.best_phi = np.inf
        self.best_mask = None
        self.best_on = None
        self.nodes = 0
        # bitmask -> (phi, gradient) of every configuration solved so far
        self.leaves = {}

    def solve(self, sf: np.ndarray) -> tuple[float, np.ndarray]:
        """phi and its gradient on the free edges at free-edge values sf."""
        s = self.g.backbone_indicator()
        s[self.free] = sf
        x = solver.exact_pinv_apply(graphs.assemble_laplacian_dense(self.g, s), self.d)
        delta = x[self.ei] - x[self.ej]
        return float(self.d @ x), -self.w * delta ** 2

    def leaf(self, on: np.ndarray) -> tuple[float, np.ndarray]:
        """phi and gradient of configuration on, offered once as incumbent.

        It replaces the incumbent when phi is lower, or ties it and has
        the smaller bitmask.
        """
        mask = sum(1 << int(b) for b in np.flatnonzero(on))
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
            # Oracle vertex: the fixed-closed edges and the r most negative unfixed ones.
            v = on.copy()
            v[unfixed[graphs.smallest_k(grad_s[unfixed], r)]] = True
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
    return EnumerationResult(best_config=graphs.Configuration(sbin=s_best),
                             best_phi=search.best_phi,
                             evaluated_count=search.nodes)
