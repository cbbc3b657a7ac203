"""Weighted multigraph with a designated always-on backbone edge set.

The graph is the static data of a budgeted switching problem: each edge
carries a finite positive conductance w_e, a connected spanning set of edges
(the backbone) is permanently closed, and the remaining edges may be
opened or closed. The central object is the switched Laplacian

    L_s = sum_e s_e * w_e * a_e a_e^T,    a_e = e_i - e_j (i < j),

for a switch vector s in [0,1]^m. Parallel edges are kept distinct, and
all per-edge vectors are indexed by input edge order.

Each graph assembles L_s on one fixed pattern. Its symbolic plan
(Graph.plan, a solver.LaplacianPlan) holds the CSR pattern of every
position an edge touches, the data position of each edge's four terms and,
when the graph's fill verdict is direct, the minimum-degree order of the
grounded Laplacian; so sparse assembly is one np.bincount, and no solve
redoes symbolic work. The plan is built on first use and kept on the
graph.

Every solve on a graph that is not dense, congestion's CG solves and the
branch and bound's tree solve alike, runs on the graph's switching core
(Graph.core, a Core): the graph with its switch-free pendant subtrees and
series chains of the backbone tree eliminated once, exactly, by Kron
reduction, the maps that carry a demand into the core and the core's
voltages back out, and the core's tree, the graph's only one. Where most
nodes carry no switch, as in radial networks with a few ties, the core is
a small fraction of the graph; where every node ends a switchable edge,
it holds the graph's own arrays.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import InvalidInputError
from . import solver


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable multigraph as read-only per-edge arrays in input edge order.

    Edge k joins nodes ei[k] < ej[k] (0-based) with weight w[k];
    backbone_mask[k] marks it permanently closed.
    """

    n: int
    ei: np.ndarray
    ej: np.ndarray
    w: np.ndarray
    backbone_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        # Read-only copies, so the cached views below cannot go stale.
        for name, dtype in (("ei", np.int64), ("ej", np.int64), ("w", float),
                            ("backbone_mask", bool)):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype))
            getattr(self, name).setflags(write=False)
        shapes = {a.shape for a in (self.ei, self.ej, self.w, self.backbone_mask)}
        if len(shapes) != 1 or self.w.ndim != 1:
            raise InvalidInputError(f"edge arrays must be 1-d of one length, got {shapes}")

    @property
    def m(self) -> int:
        return len(self.w)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """(i, j, w) tuples of Python numbers, for reference code."""
        return tuple(zip(self.ei.tolist(), self.ej.tolist(), self.w.tolist()))

    @cached_property
    def backbone(self) -> frozenset[int]:
        """Backbone edge indices, for reference code."""
        return frozenset(np.flatnonzero(self.backbone_mask).tolist())

    @cached_property
    def dense_index(self) -> np.ndarray:
        """Flat n x n positions of the entries (i, i), (j, j), (i, j) and
        (j, i) of every edge: four blocks of m, each in edge order, which is
        the order the dense assembly sums in."""
        return _flat_positions(self)

    @cached_property
    def plan(self) -> solver.LaplacianPlan:
        """The symbolic plan of the Laplacian with every edge on.

        Its CSR pattern holds every position an edge touches, so every
        switch vector, zeros included, assembles into it; slot maps the 4m
        terms of dense_index's order to their data positions. The plan
        probes its own fill on that pattern, with a budget for each of its
        edges (parallel copies count once), and when it is low-fill, the
        plan also holds the grounded minimum-degree order that every direct
        factor on the graph reuses (solver.LaplacianPlan). It is built on
        first use, from a sort of the m pair keys i * n + j and one of the
        distinct pairs' keys j * n + i, with no sort of the 4m positions:
        each row holds its lower entries, its diagonal, then its upper
        entries, placed from per-row counts.
        """
        # The pattern's work arrays are freed before the plan probes it.
        return solver.LaplacianPlan(*_pattern(self))

    @cached_property
    def core(self) -> "Core":
        """The graph's one solve object, which congestion's CG solves and
        the branch and bound both read: the graph with its switch-free
        pendant subtrees and series chains eliminated, the exact maps into
        and out of it, and the core's tree (Core). Built on first use."""
        return Core(self)

    def backbone_indicator(self) -> np.ndarray:
        """Switch vector with backbone edges closed and all others open."""
        return self.backbone_mask.astype(float)


def _flat_positions(g: Graph) -> np.ndarray:
    n, i, j = g.n, g.ei, g.ej
    return np.concatenate([i * n + i, j * n + j, i * n + j, j * n + i])


def _pattern(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """indptr, indices and slot of Graph.plan's pattern."""
    n, m = g.n, g.m
    key = g.ei * n + g.ej
    by_key = np.argsort(key)
    new = np.ones(m, dtype=bool)
    new[1:] = key[by_key[1:]] != key[by_key[:-1]]
    pair = np.empty(m, dtype=np.intp)
    pair[by_key] = np.cumsum(new) - 1
    first = by_key[new]
    pi, pj = g.ei[first], g.ej[first]
    upper, lower = np.bincount(pi, minlength=n), np.bincount(pj, minlength=n)
    diag = (upper + lower) > 0
    indptr = np.concatenate([[0], np.cumsum(lower + diag + upper)])
    at_diag = indptr[:-1] + lower
    # Pairs are sorted by (i, j), so each row's upper entries are in
    # order as they come; a sort by (j, i) orders the lower ones.
    rank = np.arange(len(pi))
    up = at_diag[pi] + 1 + rank - (np.cumsum(upper) - upper)[pi]
    by_j = np.argsort(pj * n + pi)
    low = np.empty(len(pi), dtype=np.intp)
    low[by_j] = indptr[pj[by_j]] + rank - (np.cumsum(lower) - lower)[pj[by_j]]
    indices = np.empty(indptr[-1], dtype=np.int32)
    indices[at_diag[diag]] = np.flatnonzero(diag)
    indices[up], indices[low] = pj, pi
    slot = np.concatenate([at_diag[g.ei], at_diag[g.ej], up[pair], low[pair]])
    return indptr, indices, slot


class Core:
    """A graph's switching core: the graph with every node eliminated, once
    per graph, that no solve needs (Kron reduction), and the core's tree.

    On the backbone's tree T (solver.TreeFactor, rooted at node 0) the core
    keeps node 0, every endpoint of a switchable edge or of a backbone edge
    off T, and every node with at least two child subtrees that hold a kept
    node. Every other node lies on a pendant subtree, with no kept node
    below it, or on a chain of T between two kept nodes, and only edges of
    T touch it. With E the eliminated nodes, K the kept ones and A = L_EE,
    which holds backbone edges only and so does not depend on s, the Schur
    complement L_KK - L_KE A^-1 L_EK is again a graph Laplacian: graph holds
    the edges with both ends kept, in input order, then one backbone edge
    of conductance 1/sum(1/w) per chain. With d_core = d_K - L_KE A^-1 d_E,

        phi = energy + d_core^T L_core^+ d_core,    energy = d_E^T A^-1 d_E,

    and x_E = A^-1 (d_E - L_EK x_K). A residual of the core is the whole
    graph's, zero on E, and its tree bound is at most T's, so a certified
    solve on the core certifies phi. A is a forest, so both maps are sums
    over T (fold, delta) that read d on E alone, in T's preorder: each
    eliminated edge of T carries the flow of its subtree's demand, less, on
    a chain, the resistance-weighted mean of those flows over the chain,
    plus the chain's share of the core flow; a node's demand goes to its
    nearest kept ancestor, less its chain's share. When no node goes, graph
    holds the graph's own arrays and every map is the identity, up to
    round-off at node 0.

    tree (a solver.TreeFactor) is derived from T, each kept node keeping its
    preorder, and sums every backbone edge of the core that runs along it,
    as TreeFactor sums parallel copies: a backbone edge off T that joins a
    chain's two ends joins the chain's conductance. off_tree holds the
    core's other backbone edges, by index into graph. T is built once,
    here, and only the core's tree is kept: a graph's one tree.
    """

    def __init__(self, g: Graph):
        bb, n = g.backbone_mask, g.n
        tree = solver.TreeFactor(n, g.ei[bb], g.ej[bb], g.w[bb])
        par, order, end = tree.pred, tree.order, tree.end
        on_tree = bb & ((par[g.ei] == g.ej) | (par[g.ej] == g.ei))
        keep = np.zeros(n, dtype=bool)
        keep[0] = keep[g.ei[~on_tree]] = keep[g.ej[~on_tree]] = True
        # before[p]: the kept nodes at preorder positions before p.
        before = np.concatenate([[0], np.cumsum(keep[order])])
        held = before[end] > before[:-1]
        keep |= np.bincount(par[order[1:][held[1:]]], minlength=n) >= 2
        before = np.concatenate([[0], np.cumsum(keep[order])])
        nk = int(before[-1])
        kept = keep[order]
        label = (np.cumsum(keep) - 1).astype(np.int32)
        # Each position's segment: the first kept position at or below it,
        # by its index in core preorder, or nk on a pendant subtree. A kept
        # node's segment is itself and the chain above it.
        seg = np.where(held, before[:-1], nk)
        r = tree.inv_w
        resist = np.bincount(seg, r, minlength=nk + 1)
        # The core parent of each segment: the kept parent of its top.
        pos = np.empty(n, dtype=np.intp)
        pos[order] = np.arange(n)
        ppos = np.concatenate([[0], pos[par[order[1:]]]])
        is_top = held & kept[ppos]
        is_top[0] = False
        up = np.zeros(nk, dtype=np.intp)
        up[seg[is_top]] = before[ppos[is_top]]
        corder = label[order[kept]]
        pred = np.full(nk, -1, dtype=np.int32)
        pred[corder[1:]] = corder[up[1:]]
        chain = np.flatnonzero(np.bincount(seg, minlength=nk + 1)[:nk] > 1)
        both = keep[g.ei] & keep[g.ej]
        # Labels keep the node order, so a kept edge keeps i < j.
        li, lj = label[g.ei], label[g.ej]
        bottom, top = corder[chain], corder[up[chain]]
        self.graph = Graph(nk, np.concatenate([li[both], np.minimum(bottom, top)]),
                           np.concatenate([lj[both], np.maximum(bottom, top)]),
                           np.concatenate([g.w[both], 1.0 / resist[chain]]),
                           np.concatenate([g.backbone_mask[both], np.ones(len(chain), bool)]))
        # A backbone edge off T runs along the core tree only beside a
        # chain; its conductance joins the chain's, at the chain's bottom,
        # whose core position is the kept nodes before it in preorder.
        off = np.flatnonzero(bb & ~on_tree)
        oi, oj = li[off], lj[off]
        along = (pred[oi] == oj) | (pred[oj] == oi)
        bottom_of = np.where(pred[oi] == oj, g.ei[off], g.ej[off])[along]
        folded, into = np.unique(before[pos[bottom_of]], return_inverse=True)
        inv_w = resist[:nk].copy()
        inv_w[folded] = 1.0 / (1.0 / inv_w[folded] + np.bincount(into, g.w[off[along]]))
        self.tree = type(tree).from_preorder(pred, corder, before[end[kept]].astype(np.int32),
                                             inv_w)
        self.off_tree = (np.cumsum(both) - 1)[off[~along]]

        # The maps read E alone, in preorder. A sum of d over a run of
        # positions holding no kept node is a difference of its prefix
        # sums over E: a pendant subtree's is its flow, and a chain node's
        # subtree less its segment's kept node's subtree is such a run too.
        self._kept_nodes = np.flatnonzero(keep).astype(np.int32)
        self._drop_nodes = order[~kept]
        at = np.arange(n + 1) - before  # E positions before each position
        # Chains by index, then nch for the pendant subtrees.
        nch = len(chain)
        self._chain_ends = (bottom, top)
        self._inv_r = np.append(1.0 / resist[chain], 0.0)
        chain_of = np.full(nk + 1, nch)
        chain_of[chain] = np.arange(nch)
        lowest = np.flatnonzero(kept)[chain]
        # Every eliminated edge of T by its child's position, once.
        cut = np.flatnonzero(~both)
        ei, ej = g.ei[cut], g.ej[cut]
        below, cut_edge = np.unique(pos[np.where(par[ei] == ej, ei, ej)], return_inverse=True)
        self._chain = chain_of[seg[below]]
        self._r = r[below]
        self._runs = np.stack([at[end[below]], at[below],
                               np.append(at[end[lowest]], 0)[self._chain],
                               np.append(at[lowest], 0)[self._chain]])
        # Each eliminated node's demand goes to its nearest kept ancestor,
        # before its chain's share moves on: a chain node's is its chain's
        # top; a pendant subtree's, that of the node it hangs from.
        held_to = np.where(kept, before[:-1], np.append(up, 0)[seg])
        drop = np.flatnonzero(~kept)
        pend = drop[~held[drop]]
        roots = pend[held[ppos[pend]]]
        to = held_to[drop]
        to[~held[drop]] = np.repeat(held_to[ppos[roots]], end[roots] - roots)
        self._owners = np.concatenate([corder[to], *self._chain_ends])
        # Where each edge's two ends are read from: [x, the eliminated
        # edges' drops, 0].
        self._kept = both
        self._cut_edge, self._cut_chain = cut_edge, self._chain[cut_edge]
        self._cut_r = np.where(par[ei] == ej, 1.0, -1.0) * self._r[cut_edge]
        self._src = np.array([np.where(both, li, nk + np.cumsum(~both) - 1),
                              np.where(both, lj, nk + len(cut))], dtype=np.int32)

    @cached_property
    def context(self) -> solver.SolveContext:
        """The core's solve context, its tree and plan, built on first use."""
        return solver.SolveContext(self.tree, self.graph.plan)

    def switch(self, s: np.ndarray) -> np.ndarray:
        """The core's switch vector of a checked switch vector s of the graph:
        its kept edges' entries, then 1 on each chain."""
        return np.concatenate([s[self._kept], np.ones(len(self._chain_ends[0]))])

    def fold(self, d: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """(d_core, energy, local) for a checked demand d of the graph.

        local is the flow on each eliminated edge of T when every kept node
        is grounded: its subtree's flow, less on a chain the chain's
        resistance-weighted mean flow. energy, that flow's energy, is
        d_E^T A^-1 d_E.
        """
        dropped = d.take(self._drop_nodes)
        sums = np.concatenate([[0.0], np.cumsum(dropped)])
        a, b, c, e = (sums.take(k) for k in self._runs)
        # Flow relative to the chain's kept node (the flow itself on a
        # pendant subtree), and the chain's mean of it.
        rel = (a - b) - (c - e)
        share = np.bincount(self._chain, self._r * rel, minlength=len(self._inv_r)) * self._inv_r
        local = rel - share.take(self._chain)
        d_core = d.take(self._kept_nodes)
        d_core += np.bincount(self._owners, np.concatenate([dropped, share[:-1], -share[:-1]]),
                              minlength=self.graph.n)
        # Node 0 takes the rest, so d_core sums to zero as d does, though
        # nearly all of d may lie on E.
        d_core[0] = -d_core[1:].sum()
        return d_core, float(local @ (self._r * local)), local

    def delta(self, x: np.ndarray, local) -> np.ndarray:
        """The voltage drop x_i - x_j on every edge of the graph, from the
        core's voltages x and fold's local flows: on an eliminated edge, its
        resistance times its flow, local plus its chain's share of the core
        flow."""
        bottom, top = self._chain_ends
        flow = np.append((x.take(bottom) - x.take(top)) * self._inv_r[:-1], 0.0)
        drops = self._cut_r * (local.take(self._cut_edge) + flow.take(self._cut_chain))
        ends = np.concatenate([x, drops, [0.0]])
        return ends.take(self._src[0]) - ends.take(self._src[1])


@dataclass(frozen=True, eq=False)
class Configuration:
    """Binary switch assignment."""

    sbin: np.ndarray


def make_graph(n: int, edges, backbone) -> Graph:
    """Build a Graph from (i, j, w) triples and backbone edge indices.

    Endpoints are put in order i < j; invalid data raises InvalidInputError.
    An endpoint or backbone index must be a whole number; none is truncated.
    """
    tri = np.array(list(edges), dtype=float).reshape(-1, 3)
    ends, idx = tri[:, :2], np.fromiter(backbone, dtype=float)
    # Checked as floats, so NaN fails quietly instead of warning in a cast.
    whole, whole_idx = (np.isfinite(a) & (a == np.floor(a)) for a in (ends, idx))
    problems = [f"edge {k} endpoint {ends[k, c]} is not an integer"
                for k, c in zip(*np.nonzero(~whole))]
    problems += [f"backbone index {k} is not an integer" for k in idx[~whole_idx]]
    problems += [f"backbone index {k:.0f} out of range"
                 for k in idx[whole_idx & ((idx < 0) | (idx >= len(tri)))]]
    if problems:
        raise InvalidInputError("; ".join(problems))
    # Clipped first so that no cast overflows; -1 and n stay out of range.
    i, j = np.clip(ends, -1, n).astype(np.int64).T
    return from_arrays(n, i, j, tri[:, 2],
                       np.bincount(idx.astype(np.int64), minlength=len(tri)) > 0)


def from_arrays(n, i, j, w, backbone_mask) -> Graph:
    """Build a Graph from integer endpoint arrays, weights and a backbone
    mask, with endpoints put in order i < j; invalid data (validate) raises
    InvalidInputError."""
    g = Graph(n, np.minimum(i, j), np.maximum(i, j), w, backbone_mask)
    problems = validate(g)
    if problems:
        raise InvalidInputError("; ".join(problems))
    return g


def validate(g: Graph) -> list[str]:
    """Return a list of invariant violations; empty list means valid."""
    bad_end = (np.minimum(g.ei, g.ej) < 0) | (np.maximum(g.ei, g.ej) >= g.n)
    nonfinite = ~np.isfinite(g.w)
    out = ["graph has no nodes"] if g.n < 1 else []
    out += [f"edge {k} endpoint out of range" for k in np.flatnonzero(bad_end)]
    out += [f"self-loop at edge {k}" for k in np.flatnonzero(~bad_end & (g.ei == g.ej))]
    out += [f"edge {k} endpoints not ordered i < j"
            for k in np.flatnonzero(~bad_end & (g.ei > g.ej))]
    out += [f"nonpositive weight at edge {k}" for k in np.flatnonzero(~nonfinite & (g.w <= 0))]
    out += [f"non-finite weight at edge {k}" for k in np.flatnonzero(nonfinite)]
    if out:
        return out
    bb = g.backbone_mask
    adj = sp.csr_matrix((np.ones(np.count_nonzero(bb)), (g.ei[bb], g.ej[bb])),
                        shape=(g.n, g.n))
    _, labels = connected_components(adj, directed=False)
    # The first node of each component that node 0 does not reach.
    first = np.sort(np.unique(labels, return_index=True)[1])[1:]
    return [f"backbone does not span node {node}" for node in first]


def check_switch(g: Graph, s: np.ndarray) -> np.ndarray:
    """Validate a switch vector: length m, entries in [0,1], backbone pinned to 1."""
    s = np.asarray(s, dtype=float)
    if s.shape != (g.m,):
        raise InvalidInputError(f"switch vector has shape {s.shape}, expected ({g.m},)")
    # Written so that NaN, which fails every comparison, fails the check.
    if not ((s >= -1e-12) & (s <= 1 + 1e-12)).all():
        raise InvalidInputError("switch entries must lie in [0, 1]")
    if not (s[g.backbone_mask] == 1.0).all():
        raise InvalidInputError("backbone switch entries must equal 1")
    return s


def check_demand(g: Graph, d: np.ndarray) -> np.ndarray:
    """Validate a demand vector: length n, finite, zero sum (d perpendicular to 1)."""
    return solver._checked_demand(d, g.n)


def check_budget(g: Graph, q: int) -> int:
    """Validate an edge budget, which must cover the always-on backbone; return |T|."""
    t_size = int(np.count_nonzero(g.backbone_mask))
    if q < t_size:
        raise InvalidInputError(f"budget q={q} is below the backbone size {t_size}")
    return t_size


def free_edges(g: Graph) -> np.ndarray:
    """Switchable (non-backbone) edge indices in edge order."""
    return np.flatnonzero(~g.backbone_mask)


def smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest entries of values, ties toward lower position.

    The same set as the first k of np.lexsort((positions, values)), in no
    promised order: every oracle vertex's rule. A stable sort finds it up to
    256 entries, a few µs cheaper there; a partition, in O(len), above.
    """
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k >= len(values):
        return np.arange(len(values))
    if len(values) <= 256:
        return np.argsort(values, kind="stable")[:k]
    kth = np.partition(values, k - 1)[k - 1]
    pick = values < kth
    ties = np.flatnonzero(values == kth)
    pick[ties[: k - np.count_nonzero(pick)]] = True
    return np.flatnonzero(pick)


def assemble_laplacian(g: Graph, s: np.ndarray) -> sp.csr_matrix:
    """Switched Laplacian L_s = sum_e s_e w_e a_e a_e^T as sparse CSR, on the
    graph's one pattern (Graph.plan), stored zeros included."""
    return _assemble(g, check_switch(g, s))


def _assemble(g: Graph, s: np.ndarray) -> sp.csr_matrix:
    """assemble_laplacian of a switch vector already checked."""
    x = s * g.w
    # bincount adds each slot's terms in Graph.dense_index order, so the
    # values are the dense assembly's, bit for bit.
    plan = g.plan
    data = np.bincount(plan.slot, np.concatenate([x, x, -x, -x]),
                       minlength=len(plan.indices))
    return sp.csr_matrix((data, plan.indices, plan.indptr), shape=(g.n, g.n))


def assemble_laplacian_dense(g: Graph, s: np.ndarray) -> np.ndarray:
    """Dense switched Laplacian, for small instances and test oracles."""
    s = check_switch(g, s)
    x = s * g.w
    # bincount adds each position's entries in Graph.dense_index order.
    n = g.n
    return np.bincount(g.dense_index, np.concatenate([x, x, -x, -x]),
                       minlength=n * n).reshape(n, n)


def algebraic_connectivity(g: Graph, s: np.ndarray) -> float:
    """Second-smallest eigenvalue of L_s; positive iff the graph is connected.

    A dense eigensolve, so at most solver.DENSE_CAP nodes.
    """
    solver.require_dense(g.n)
    s = check_switch(g, s)
    return float(np.linalg.eigvalsh(assemble_laplacian_dense(g, s))[1])


# --- instance file format -------------------------------------------------
#
# Line-oriented text; '#' starts a comment. First data line is "n m q",
# then m lines "i j w b" with 1-based node ids and b in {0,1} marking
# backbone edges, then n demand values (one per line). A node id is plain
# decimal digits within int64 and a flag is exactly 0 or 1; weights and
# demands are anything Python's float reads.

# np.fromstring saturates an int64 overflow to the limit.
_INT64_MAX = np.iinfo(np.int64).max


def read_instance(path) -> tuple[Graph, np.ndarray, int]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
        if "#" in text:
            text = re.sub(r"#.*", "", text)
        tokens = text.split()
        if len(tokens) < 3:
            raise InvalidInputError("instance file truncated: missing header")
        n, m, q = int(tokens[0]), int(tokens[1]), int(tokens[2])
        need = 3 + 4 * m + n
        if len(tokens) != need:
            raise InvalidInputError(
                f"instance file has {len(tokens)} fields, expected {need}")
        end = 3 + 4 * m
        i, j = _node_ids(tokens[3:end:4] + tokens[4:end:4], m)
        w = np.array(tokens[5:end:4], dtype=float)
        b = _backbone_flags(tokens[6:end:4])
        d = np.array(tokens[end:], dtype=float)
    # InvalidInputError and UnicodeDecodeError are ValueErrors.
    except ValueError as exc:
        raise InvalidInputError(f"instance file parse error: {exc}") from exc
    g = from_arrays(n, i, j, w, b)
    return g, check_demand(g, d), q


def _node_ids(col: list[str], m: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based endpoints from the 1-based i tokens of m edges, then their j
    tokens, read by numpy's C parser once the text is digits and spaces."""
    text = " ".join(col)
    if text.encode("ascii").translate(None, b"0123456789 "):
        k = next(k for k, t in enumerate(col) if not t.isdigit())
        raise InvalidInputError(f"node id {col[k]!r} at edge {k % m} is not a decimal integer")
    ids = np.fromstring(text, dtype=np.int64, sep=" ")
    if ids.size and ids.max() == _INT64_MAX:
        k = int(np.argmax(ids))
        raise InvalidInputError(f"node id {col[k]!r} at edge {k % m} is too large for int64")
    ids -= 1
    return ids[:m], ids[m:]


def _backbone_flags(col: list[str]) -> np.ndarray:
    """The backbone mask of the flag tokens, each exactly 0 or 1."""
    flags = "".join(col)
    if len(flags) != len(col) or flags.strip("01"):
        k = next(k for k, t in enumerate(col) if t not in ("0", "1"))
        raise InvalidInputError(f"backbone flag at edge {k} must be 0 or 1")
    return np.frombuffer(flags.encode("ascii"), dtype=np.uint8) == ord("1")


def write_instance(path, g: Graph, d: np.ndarray, q: int) -> str:
    """Write the instance's instance_text to path, and return that text."""
    text = instance_text(g, d, q)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return text


def instance_text(g: Graph, d: np.ndarray, q: int) -> str:
    """Canonical serialization used for digests (no comments, repr floats)."""
    edges = map("{} {} {!r} {}".format, (g.ei + 1).tolist(), (g.ej + 1).tolist(),
                g.w.tolist(), g.backbone_mask.astype(np.int64).tolist())
    demand = map(repr, np.asarray(d, dtype=float).tolist())
    return "\n".join([f"{g.n} {g.m} {int(q)}", *edges, *demand]) + "\n"
