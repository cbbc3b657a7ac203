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
graph, and so is the solve context of every CG solve on it (Graph.context):
the backbone's tree solve beside the plan.
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
        probes its own fill on that pattern, with a budget for each of the
        m edges, and when it is low-fill, the plan also holds the
        grounded minimum-degree order that every direct factor on the graph
        reuses (solver.LaplacianPlan). It is built on first use.
        """
        n = self.n
        flat, slot = np.unique(_flat_positions(self), return_inverse=True)
        indptr = np.searchsorted(flat, np.arange(n + 1) * n).astype(np.int32)
        indices = (flat % n).astype(np.int32)
        return solver.LaplacianPlan(n, indptr, indices, self.m, slot)

    @cached_property
    def context(self) -> solver.SolveContext:
        """The solve context of every CG solve on the graph: the backbone's
        tree solve (solver.TreeFactor, 4n numbers) and the graph's plan. It
        is built on first use. check_switch pins the backbone closed, so
        every L_s on the graph dominates L_T and the bound holds; solves
        only read the context, so sharing it changes no result."""
        bb = self.backbone_mask
        return solver.context_from_edges(self.n, self.ei[bb], self.ej[bb], self.w[bb],
                                         plan=self.plan)

    def backbone_indicator(self) -> np.ndarray:
        """Switch vector with backbone edges closed and all others open."""
        return self.backbone_mask.astype(float)


def _flat_positions(g: Graph) -> np.ndarray:
    n, i, j = g.n, g.ei, g.ej
    return np.concatenate([i * n + i, j * n + j, i * n + j, j * n + i])


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
    return _checked_graph(n, i, j, tri[:, 2],
                          np.bincount(idx.astype(np.int64), minlength=len(tri)) > 0)


def _checked_graph(n, i, j, w, backbone_mask) -> Graph:
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


def smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest entries of values, ties toward lower position.

    The same set as the first k of np.lexsort((positions, values)), found in
    O(len) by a partition to the k-th value, and returned in ascending order.
    """
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k >= len(values):
        return np.arange(len(values))
    kth = np.partition(values, k - 1)[k - 1]
    pick = values < kth
    ties = np.flatnonzero(values == kth)
    pick[ties[: k - np.count_nonzero(pick)]] = True
    return np.flatnonzero(pick)


def assemble_laplacian(g: Graph, s: np.ndarray) -> sp.csr_matrix:
    """Switched Laplacian L_s = sum_e s_e w_e a_e a_e^T as sparse CSR, on the
    graph's one pattern (Graph.plan), stored zeros included."""
    s = check_switch(g, s)
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
    g = _checked_graph(n, i, j, w, b)
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


def write_instance(path, g: Graph, d: np.ndarray, q: int) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(instance_text(g, d, q))


def instance_text(g: Graph, d: np.ndarray, q: int) -> str:
    """Canonical serialization used for digests (no comments, repr floats)."""
    edges = map("{} {} {!r} {}".format, (g.ei + 1).tolist(), (g.ej + 1).tolist(),
                g.w.tolist(), g.backbone_mask.astype(np.int64).tolist())
    demand = map(repr, np.asarray(d, dtype=float).tolist())
    return "\n".join([f"{g.n} {g.m} {int(q)}", *edges, *demand]) + "\n"
