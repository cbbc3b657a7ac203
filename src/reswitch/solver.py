"""Laplacian solves with a relative energy-norm guarantee.

The contract is ||x_hat - L^+ d||_L <= eps * ||L^+ d||_L. It is enforced
by a computable stopping bound rather than a residual heuristic: for any
switch vector that keeps the backbone closed, L_s dominates the backbone
Laplacian L_T in the PSD order, so the error energy satisfies

    ||x - L^+ d||_L^2 = r^T L^+ r <= r^T L_T^+ r,    r = d - L x,

and L_T^+ r is exact in O(n), with no factorization, when T is a spanning
tree: two prefix sums over it (TreeFactor). For a backbone with cycles or
parallel edges, T is a maximum-weight spanning tree of its merged edges,
which the backbone's Laplacian dominates, so the bound holds with it.
Combined with the lower bound phi_lb = 2 d^T x - x^T L x <= d^T L^+ d this
yields a deterministic certificate, whatever preconditioner drives the
iteration. The same two numbers bound phi = d^T L^+ d itself: phi - phi_lb
is exactly the error energy above, so phi_lb <= phi <= phi_lb + r^T L_T^+ r
(Thomson's principle on the flow of x plus the tree flow of r gives the
same upper end). A solve returns both, so energy accuracy epsilon puts phi
within relative epsilon^2; congestion asks for the square root of the phi
accuracy it wants.

solve runs preconditioned CG at every size, at most
SolverConfig.max_iterations (5000) iterations, and requires a solve
context, which alone picks the preconditioner (SolveContext.preconditioner).
Its mode is fixed when it is built: direct (a sparse LU of the grounded
L_s itself, built once per solve) when the widest pattern the context will
solve is low-fill, and jacobi otherwise. No option overrides the choice:
epsilon is the only setting. A LaplacianPlan probes its own pattern when
it is built, comparing the envelope of a reverse Cuthill-McKee order of it
with FILL_BUDGET nonzeros per edge of the pattern, its entries below the
diagonal, so parallel edges count once; a graph's one context, its
core's (graphs.Core), takes the verdict of the core graph's plan, probed
once per graph. Planar, grid-like and ring-like graphs pass it and their
factor is cheap; expander-like graphs fail it, and there Jacobi needs
only tens of iterations. The symbolic work of a direct factor is done
once per pattern, not per solve: a LaplacianPlan keeps the grounded
block's minimum-degree order, so each factor is one gather of L_s's
values and one LU in that order, and a direct solve refuses an L_s that
does not carry the plan's pattern. On a Laplacian with the tree's own
sparsity pattern (the switch vector at the backbone indicator, where
optimization starts, when every backbone edge runs along the tree) the
tree solve is used whatever the mode, since it is exact there: L_s =
L_T. Under direct or the tree solve CG takes one iteration, and the
solution still has to pass the stopping bound below, so a poor factor
can cost time but never accuracy.

Every solve starts from x = 0 and only reads its context, so no solve
depends on the ones before it. solve knows only whether its
preconditioner is exact, and keeps one bound rule for each kind; the
bound r^T L_T^+ r costs one pass over the tree either way. Under an exact
M, the tree solve or a direct factor, one iteration mostly certifies, so
the bound is read at the end of every iteration, before M is applied
again. Jacobi evaluates it only when it can fire: its next value is
predicted from the last measured ratio bound / r^T z (1 at the start), and
it is evaluated when the prediction meets the target or BOUND_INTERVAL
iterations have passed since the last evaluation. Convergence is declared
only on an evaluated bound, and a solve that runs out of iterations
evaluates it before it raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import (breadth_first_order, minimum_spanning_tree,
                                  reverse_cuthill_mckee)

from .errors import CapExceededError, InvalidInputError, NumericalError, StructuralError

# Reverse Cuthill-McKee envelope per edge of the pattern (parallel copies
# count once) up to which a context solves directly; a LaplacianPlan
# probes its own pattern against it. Grids of 80 x 80 to 300 x 300 come
# to 27-101 (their factors, in the minimum-degree order each graph's
# LaplacianPlan keeps, to 17.5-28 nonzeros per edge), chord rings of 1500
# nodes to 62-76; CLI expanders with 2n extra edges pass below about 1450.
# A graph pays for its probe, and if it passes for its order, once, when
# its plan is built.
FILL_BUDGET = 128
BOUND_INTERVAL = 16
# Largest node count for the dense-only operations (lambda_2 and the
# theory checks): an n x n dense matrix and its O(n^3) solve.
DENSE_CAP = 2000


@dataclass(frozen=True)
class SolverConfig:
    """epsilon, the solve accuracy, is the only setting: solve reads it in
    the energy norm, congestion as phi's relative accuracy, which it gets
    by asking solve for sqrt(epsilon). CG's iteration cap is a class
    constant, not a field. dense_threshold is the node count up
    to which congestion solves with the exact dense kernel instead of
    calling solve (congestion._voltages)."""
    epsilon: float = 1e-8
    # Only "auto" is accepted: the input picks the path (module docstring).
    preconditioner: str = "auto"
    dense_threshold: ClassVar[int] = 64
    max_iterations: ClassVar[int] = 5000

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidInputError("epsilon must lie in (0, 1)")
        if self.preconditioner != "auto":
            raise InvalidInputError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """x_hat, CG's iterations, the certified relative energy error, and the
    interval phi_lb <= d^T L^+ d <= phi_lb + bound from the last bound
    evaluation (module docstring); a zero demand gives 0 for both."""
    x: np.ndarray
    iterations: int
    achieved_residual: float
    phi_lb: float
    bound: float


def project_zero_mean(v: np.ndarray) -> np.ndarray:
    """Project onto the zero-mean subspace: v - mean(v) * 1."""
    v = np.asarray(v, dtype=float)
    return v - v.mean()


def _as_dense(L) -> np.ndarray:
    Ld = L.toarray() if sp.issparse(L) else np.asarray(L, dtype=float)
    if Ld.ndim != 2 or Ld.shape[0] != Ld.shape[1]:
        raise InvalidInputError(f"matrix has shape {Ld.shape}, expected (n, n)")
    if not np.array_equal(Ld, Ld.T):
        raise StructuralError("matrix is not symmetric")
    return Ld


def require_dense(n: int) -> None:
    """Refuse a dense-only operation on more than DENSE_CAP nodes."""
    if n > DENSE_CAP:
        raise CapExceededError(f"dense-only operation: n={n} exceeds the dense cap {DENSE_CAP}")


def _grounded_solve(L: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Zero-mean X with L X = D, for one connected Laplacian L (n x n).

    The columns of D (n x r) must sum to zero. Node 0 is grounded, as in
    LaplacianPlan.factor: one Cholesky solve with L[1:, 1:], projected to
    zero mean. Nothing is added to L, so no unit of w is special. A residual
    on L above 1e-8 ||d|| in a column, compared squared, is NumericalError.
    """
    X = np.zeros(D.shape)
    if len(L) > 1:
        _, X[1:], info = lapack.dposv(L[1:, 1:], D[1:])
        if info != 0:
            raise StructuralError("matrix is not a connected graph Laplacian")
    with np.errstate(over="ignore", invalid="ignore"):
        R = L @ X - D
        if not ((R * R).sum(axis=0) <= 1e-16 * (D * D).sum(axis=0)).all():
            raise NumericalError("dense solve missed its residual bound")
    return X - X.sum(axis=0) / X.shape[0]


def pinv_laplacian(L) -> np.ndarray:
    """Exact pseudoinverse of a connected Laplacian: the zero-mean X with L X = I - 1/n."""
    Ld = _as_dense(L)
    n = Ld.shape[0]
    return _grounded_solve(Ld, np.eye(n) - 1.0 / n)


def _checked_demand(d, n: int) -> np.ndarray:
    """d as a finite float vector of length n orthogonal to 1: the one
    demand check, run once per solve and by graphs.check_demand."""
    d = np.asarray(d, dtype=float)
    if d.shape != (n,):
        raise InvalidInputError(f"demand vector has shape {d.shape}, expected ({n},)")
    # d @ d is finite unless an entry is not (or it overflows), so the
    # entrywise test runs only then. Its root is np.linalg.norm(d).
    unit = d
    with np.errstate(over="ignore"):
        sq = float(d @ d)
    if not math.isfinite(sq):
        if not np.isfinite(d).all():
            raise InvalidInputError("demand entries must be finite")
        # d @ d overflowed: test d / max|d|, whose sum and norm do not.
        unit = d / np.abs(d).max()
        sq = float(unit @ unit)
    if abs(unit.sum()) > 1e-12 * max(math.sqrt(sq), 1e-300):
        raise InvalidInputError("demand entries must sum to zero")
    return d


def _unit_scaled(d: np.ndarray) -> tuple[np.ndarray, int]:
    """d scaled by a power of two to max|d| in [1/2, 1), and the exponent k
    with d = 2^k * scaled (k = 0 for d = 0 or empty).

    Scaling by a power of two is exact, so a linear solve on the scaled d
    gives the solution of d's own scaled back, bit for bit, but no square
    of d over- or underflows on the way.
    """
    exponent = int(np.frexp(np.abs(d).max(initial=0.0))[1])
    return np.ldexp(d, -exponent), exponent


def exact_pinv_apply(L, d: np.ndarray) -> np.ndarray:
    """Machine-precision L^+ d for a connected Laplacian: the dense kernel.

    One grounded Cholesky solve (_grounded_solve) on d scaled by a power of
    two (_unit_scaled), refused unless its residual on L is small, and
    scaled back; the tests compare it against an LU oracle of their own. L
    must be symmetric and d is checked as every demand is (_checked_demand).
    """
    Ld = _as_dense(L)
    return _exact_solve(Ld, _checked_demand(d, Ld.shape[0])).x


def _exact_solve(Ld: np.ndarray, d: np.ndarray) -> SolveResult:
    """The dense kernel on a dense Laplacian and a demand already checked:
    x = L^+ d and phi = d^T x, with bound 0 and no CG iteration.

    phi is the scaled demand's, scaled back by 4^k, so a phi beyond the
    float range comes out as inf, never as the NaN of inf - inf in d @ x.
    """
    if not d.any():
        return SolveResult(np.zeros(Ld.shape[0]), 0, 0.0, 0.0, 0.0)
    d, exponent = _unit_scaled(d)
    x = _grounded_solve(Ld, d[:, None])[:, 0]
    with np.errstate(over="ignore"):
        phi = float(np.ldexp(d @ x, 2 * exponent))
    return SolveResult(np.ldexp(x, exponent), 0, 0.0, phi, 0.0)


# SuperLU settings of every grounded factor. A grounded Laplacian is
# symmetric positive definite, so the diagonal pivots and no row is swapped.
_SPLU_OPTIONS = dict(diag_pivot_thresh=0.0, relax=1, panel_size=1,
                     options=dict(SymmetricMode=True))


def _canonical_csr(L) -> sp.csr_matrix:
    """A CSR copy of L with sorted indices and one entry per position; stored
    zeros are kept."""
    Ls = sp.csr_matrix(L, copy=True)
    Ls.sum_duplicates()
    return Ls


def _frozen(a, dtype) -> np.ndarray:
    """a as a read-only array of dtype; the plan owns the arrays it is given."""
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


class LaplacianPlan:
    """The symbolic analysis of one Laplacian sparsity pattern, done once.

    indptr and indices are a canonical CSR pattern (sorted, one entry per
    position, stored zeros kept) as read-only int32 arrays, which every
    Laplacian assembled on the plan shares. slot, when the plan is a
    graph's, gives the data position of each summed term (graphs.Graph.plan).

    The plan probes its own fill when it is built: low_fill holds when the
    envelope of a reverse Cuthill-McKee order of the pattern (_envelope) is
    at most FILL_BUDGET per edge of the pattern, its entries below the
    diagonal. Then the plan also orders the grounded block L[1:, 1:] for
    direct factors. order is SuperLU's own MMD_AT_PLUS_A column order, the
    inverse of its perm_c (permuting by perm_c itself multiplies the fill
    many times over), and block is the ordered block's read-only CSC
    pattern, each entry holding its position in L.data. Each factor is then
    one gather and one splu in the NATURAL order, with the fill of
    SuperLU's own ordered factor. scipy has no call that only orders, so
    the order comes from an incomplete factor that drops every entry, which
    computes the same perm_c as splu.
    """

    def __init__(self, indptr, indices, slot=None):
        self.indptr = _frozen(indptr, np.int32)
        self.indices = _frozen(indices, np.int32)
        self.n = n = len(self.indptr) - 1
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(self.indptr))
        edges = np.count_nonzero(self.indices < rows)
        self.low_fill = _envelope(self.indptr, self.indices) <= FILL_BUDGET * edges
        self.slot = None if slot is None else _frozen(slot, np.intp)
        if self.low_fill and n > 1:
            self._order()

    def _order(self):
        n = self.n
        block = sp.csr_matrix((np.arange(len(self.indices), dtype=np.int32), self.indices,
                               self.indptr), shape=(n, n))[1:, 1:]
        # The order depends on the pattern alone, so any values will do:
        # these make the grounded block strictly diagonally dominant.
        degree = np.diff(block.indptr)
        rows = np.repeat(np.arange(n - 1), degree)
        vals = np.where(rows == block.indices, degree[rows], -1.0)
        try:
            perm_c = spla.spilu(sp.csc_matrix((vals, block.indices, block.indptr), block.shape),
                                drop_tol=1e300, fill_factor=1,
                                permc_spec="MMD_AT_PLUS_A", **_SPLU_OPTIONS).perm_c
        except RuntimeError as exc:
            raise StructuralError("pattern is not a connected graph Laplacian's") from exc
        self.order = _frozen(np.argsort(perm_c), np.int32)
        self.block = block[self.order][:, self.order].tocsc()
        for a in (self.block.data, self.block.indices, self.block.indptr):
            a.setflags(write=False)

    def _carries(self, L) -> bool:
        return (sp.issparse(L) and L.format == "csr" and L.shape == (self.n, self.n)
                and np.array_equal(L.indptr, self.indptr)
                and np.array_equal(L.indices, self.indices))

    def lu(self, L):
        """SuperLU factor of L's grounded block in the plan's order.

        L may be dense or sparse in any format; it is refused unless its
        canonical CSR form carries the plan's pattern. A Laplacian assembled
        on the plan carries it as it is, and is not copied.
        """
        if not self._carries(L):
            L = _canonical_csr(L)
            if not self._carries(L):
                raise InvalidInputError("Laplacian does not carry the solve context's "
                                        "sparsity pattern")
        block = self.block
        try:
            return spla.splu(sp.csc_matrix((L.data.take(block.data), block.indices,
                                            block.indptr), shape=block.shape),
                             permc_spec="NATURAL", **_SPLU_OPTIONS)
        except RuntimeError as exc:
            raise StructuralError("matrix is not a connected graph Laplacian") from exc

    def factor(self, L):
        """r -> L^+ r by one direct factor of the grounded, ordered L.

        r must be orthogonal to 1; the result has zero mean.
        """
        lu, order, n = self.lu(L), self.order, self.n

        def apply(r):
            x = np.empty(n)
            x[0] = 0.0
            x[1:][order] = lu.solve(r[1:].take(order))
            return project_zero_mean(x)
        return apply


def _envelope(indptr, indices) -> int:
    """The envelope of a symmetric CSR pattern in reverse Cuthill-McKee order.

    Row by row of the ordered pattern it counts the entries between the
    first nonzero and the diagonal; a factor in that order fills no more
    than that.
    """
    n = len(indptr) - 1
    P = sp.csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
    pos = np.empty(n, dtype=np.int64)
    pos[reverse_cuthill_mckee(P, symmetric_mode=True)] = np.arange(n)
    # Each row's first position in the order: its own, or a nonzero's before it.
    rows = np.flatnonzero(np.diff(indptr))
    first = pos.copy()
    if rows.size:
        first[rows] = np.minimum(pos[rows],
                                 np.minimum.reduceat(pos[indices], indptr[rows]))
    return int((pos - first).sum())


def _ancestor_levels(parent: np.ndarray):
    """Yield every node's 2^k-th ancestor for k = 0, 1, ... while some node has one.

    parent[v] is v's parent for the n nodes; the root's, and entry n, is n,
    a sentinel that is its own ancestor.
    """
    n = len(parent) - 1
    anc = parent
    while (anc[:n] < n).any():
        yield anc
        anc = anc[anc]


class TreeFactor:
    """Exact L_T^+ for a spanning tree T of an edge set, in O(n) per solve.

    Parallel edges count as one edge of summed conductance. When that leaves
    a cycle, T is a maximum-weight spanning tree: its Laplacian is dominated
    by the whole edge set's, so r^T L_T^+ r still bounds the error of every
    solve whose Laplacian contains the edge set. An edge set that does not
    reach every node raises StructuralError.

    Nodes are kept in a depth-first preorder, where every subtree is one
    contiguous run, so its sum of r is a difference of two prefix sums. That
    sum S_v is the flow through the edge from v to its parent, of weight w_v:
    quadform(r) is the flow's energy sum S_v^2 / w_v, and apply(r) gives each
    node the sum of S_u / w_u over its path to the root, projected to zero
    mean, for r orthogonal to 1. nnz counts the nonzeros of L_T, which
    SolveContext.on_tree compares: L_T is the Laplacian solved exactly.
    pred[v] is v's parent on T (negative at the root, node 0); order[p] is
    the node at preorder position p, end[p] the position just past its
    subtree and inv_w[p] the resistance 1/w of its edge to its parent (0 at
    the root). from_preorder builds a factor from these arrays alone.
    """

    def __init__(self, n: int, ei: np.ndarray, ej: np.ndarray, w: np.ndarray):
        # The CSR conversion sums parallel edges.
        T = sp.csr_matrix((w, (np.minimum(ei, ej), np.maximum(ei, ej))), shape=(n, n))
        if T.nnz > n - 1:
            # The maximum-weight spanning tree is the minimum one under 1/w.
            R = T.copy()
            R.data = 1.0 / R.data
            tree = minimum_spanning_tree(R)
            tree.data = np.asarray(T[tree.nonzero()]).ravel()
            T = tree
        # Breadth-first search, linear in n; scipy's depth-first search
        # rescans a node's neighbours each time it returns to it.
        bfs, pred = breadth_first_order(T, 0, directed=False, return_predecessors=True)
        if len(bfs) != n:
            raise StructuralError("edge set is not connected")
        parent = np.append(pred, n)
        parent[0] = n
        size = np.ones(n)
        for anc in _ancestor_levels(parent):
            size += np.bincount(anc[:n], weights=size, minlength=n + 1)[:n]
        size = size.astype(np.intp)
        # In preorder a node comes 1 + the subtree sizes of its earlier
        # siblings after its parent. The search lists siblings together.
        kids = bfs[1:]
        first = np.diff(pred[kids], prepend=-1) != 0
        before = np.cumsum(size[kids]) - size[kids]
        pos = np.zeros(n + 1, dtype=np.intp)
        pos[kids] = 1 + before - before[first][np.cumsum(first) - 1]
        for anc in _ancestor_levels(parent):
            pos = pos + pos[anc]
        pos = pos[:n]
        order = np.empty(n, dtype=np.intp)
        order[pos] = np.arange(n)
        end = np.empty(n, dtype=np.intp)
        end[pos] = pos + size
        row = np.repeat(np.arange(n), np.diff(T.indptr))
        child = np.where(pred[T.indices] == row, T.indices, row)
        inv_w = np.zeros(n)
        inv_w[pos[child]] = 1.0 / T.data
        self._set(pred, order, end, inv_w)

    def _set(self, pred, order, end, inv_w):
        self.n = n = len(order)
        self.nnz = 3 * n - 2 if n > 1 else 0
        self.pred, self.order, self.end, self.inv_w = pred, order, end, inv_w

    @classmethod
    def from_preorder(cls, pred, order, end, inv_w) -> "TreeFactor":
        """The factor of a tree given by the arrays a factor keeps (pred,
        order, end and inv_w, class docstring), with no search and no sum."""
        tree = cls.__new__(cls)
        tree._set(pred, order, end, inv_w)
        return tree

    def _subtree_sums(self, r: np.ndarray) -> np.ndarray:
        """The sum of r over the subtree at each preorder position, along
        r's last axis."""
        c = np.empty(r.shape[:-1] + (self.n + 1,))
        c[..., 0] = 0.0
        np.cumsum(r.take(self.order, axis=-1), axis=-1, out=c[..., 1:])
        return c.take(self.end, axis=-1) - c[..., :-1]

    def apply(self, r: np.ndarray) -> np.ndarray:
        """L_T^+ r for r orthogonal to 1. r may also be an n x k block; each
        column comes out bit for bit as it does on its own."""
        n = self.n
        # The node axis last, so a block's columns are contiguous rows.
        rows = np.atleast_2d(r.T)
        drop = self._subtree_sums(rows) * self.inv_w
        # Each drop adds to its whole subtree: a difference array, summed.
        at = self.end + (n + 1) * np.arange(len(rows))[:, None]
        ends = np.bincount(at.ravel(), weights=drop.ravel(), minlength=(n + 1) * len(rows))
        x = np.empty_like(drop)
        x[:, self.order] = np.cumsum(drop - ends.reshape(-1, n + 1)[:, :n], axis=1)
        x -= x.mean(axis=1, keepdims=True)
        return x.T if r.ndim == 2 else x[0]

    def quadform(self, r: np.ndarray) -> float:
        """r^T L_T^+ r, the stopping-bound numerator, for r orthogonal to 1."""
        flow = self._subtree_sums(r)
        return float(flow @ (flow * self.inv_w))


class SolveContext:
    """Backbone tree solve and preconditioner, shared by CG solves on one graph.

    A solve keeps no state here, so the order of solves changes no result.
    tree is the TreeFactor of the backbone; a graph keeps its core's
    context (graphs.Core), whose tree, derived from the backbone's, is the
    one tree every solve on the graph reads, the branch and bound's too.
    plan is the LaplacianPlan of the widest Laplacian the context will
    solve, which probed its own fill when it was built; its verdict fixes
    mode: direct if it holds, jacobi otherwise or without a plan (module
    docstring).
    preconditioner is the one place a solve's M is picked. A Laplacian with
    the tree's sparsity pattern is preconditioned by the tree solve whatever
    the mode, since it is exact there. A direct solve on an L without the
    plan's pattern is refused.
    """

    def __init__(self, tree: TreeFactor, plan: LaplacianPlan | None = None):
        self.tree = tree
        self.plan = plan
        self.mode = "direct" if plan is not None and plan.low_fill else "jacobi"

    def on_tree(self, L) -> bool:
        """Whether a solve on L is preconditioned by the tree solve: L has as
        many nonzeros as L_T, which it contains when the backbone is closed."""
        return np.count_nonzero(L.data if sp.issparse(L) else L) == self.tree.nnz

    def preconditioner(self, L):
        """(M, exact) for a solve on L: r -> M^-1 r, and whether M is exact,
        which fixes the solve's bound rule (module docstring). M is the tree
        solve on the tree (see on_tree), else the plan's direct factor in
        direct mode, both exact, else Jacobi."""
        if self.on_tree(L):
            return self.tree.apply, True
        if self.mode == "direct":
            return self.plan.factor(L), True
        diag = L.diagonal() if sp.issparse(L) else np.diag(L).copy()
        if np.any(diag <= 0):
            raise StructuralError("Laplacian has an isolated node")
        return (lambda r: r / diag), False


def context_from_edges(n: int, ei, ej, w, plan: LaplacianPlan | None = None) -> SolveContext:
    """Build a solve context from explicit backbone edge arrays.

    plan is the symbolic plan of the widest Laplacian to be solved; its fill
    verdict fixes the mode (see SolveContext). Without one the mode is jacobi.
    """
    tree = TreeFactor(n, np.asarray(ei, dtype=np.int64), np.asarray(ej, dtype=np.int64),
                      np.asarray(w, dtype=float))
    return SolveContext(tree, plan)


def context_from_laplacian(L) -> SolveContext:
    """Build a solve context from L alone: a TreeFactor over L's off-diagonal
    edges (a maximum-weight spanning tree of them) for the stopping bound,
    and the plan of L's own canonical CSR pattern, which probes its fill
    as every plan does."""
    Ls = _canonical_csr(L)
    n = Ls.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(Ls.indptr))
    edge = (rows > Ls.indices) & (Ls.data < 0)
    tree = TreeFactor(n, Ls.indices[edge], rows[edge], -Ls.data[edge])
    return SolveContext(tree, LaplacianPlan(Ls.indptr, Ls.indices))


def solve(L, d: np.ndarray, cfg: SolverConfig | None = None,
          context: SolveContext | None = None) -> SolveResult:
    """Approximate x = L^+ d with ||x - L^+ d||_L <= epsilon ||L^+ d||_L.

    Preconditioned conjugate gradient from x = 0 on the singular consistent
    system, with the tree-dominance stopping bound described in the module
    docstring, at every size; the context is required (InvalidInputError
    without one) and only read, so the result does not depend on earlier
    solves. d is checked once (_checked_demand). CG runs on d scaled by a
    power of two (_unit_scaled), and x is scaled back: the iterates are d's
    own, but no energy overflows on the way, so a phi beyond the float range
    comes out as inf. The result also carries phi_lb and bound from the
    bound evaluation that stopped CG, scaled back by 4^k: phi_lb <= d^T L^+ d
    <= phi_lb + bound <= (1 + epsilon^2) phi_lb.
    """
    if context is None:
        raise InvalidInputError("a solve needs a context")
    cfg = cfg or SolverConfig()
    n = L.shape[0]
    d = _checked_demand(d, n)
    if not d.any():
        return SolveResult(np.zeros(n), 0, 0.0, 0.0, 0.0)
    d, exponent = _unit_scaled(d)

    tree = context.tree
    M, exact = context.preconditioner(L)
    eps2 = cfg.epsilon ** 2

    def stops(phi_lb, bound):
        return (phi_lb > 0.0 and bound <= eps2 * phi_lb) or bound <= 0.0

    def achieved(phi_lb, bound):
        return float(np.sqrt(max(bound, 0.0) / phi_lb)) if phi_lb > 0 else float("inf")

    def result(it, phi_lb, bound):
        # Energies scale by 4^k, which may overflow to inf.
        with np.errstate(over="ignore"):
            lb, ub = np.ldexp([phi_lb, max(bound, 0.0)], 2 * exponent)
        return SolveResult(np.ldexp(project_zero_mean(x), exponent), it,
                           achieved(phi_lb, bound), float(lb), float(ub))

    x = np.zeros(n)
    Lx = np.zeros(n)
    r = d.copy()
    z = project_zero_mean(M(r))
    rz = float(r @ z)
    p = z.copy()
    # bound / r^T z at the last evaluation predicts the bound in between.
    ratio = 1.0
    since = 0
    for it in range(1, cfg.max_iterations + 1):
        q = L @ p
        pq = float(p @ q)
        if pq <= 0.0:
            raise NumericalError("conjugate gradient broke down (p^T L p <= 0)")
        alpha = rz / pq
        x += alpha * p
        Lx += alpha * q
        r -= alpha * q
        r -= r.mean()
        phi_lb = 2.0 * float(d @ x) - float(x @ Lx)
        # An exact M mostly stops CG after one iteration, so under it the
        # bound is read at the end of every iteration, before M is applied again.
        bound = tree.quadform(r) if exact else None
        if bound is not None and stops(phi_lb, bound):
            return result(it, phi_lb, bound)
        z = project_zero_mean(M(r))
        rz_new = float(r @ z)
        since += 1
        last = it == cfg.max_iterations or rz_new <= 0.0
        if bound is None and (last or since >= BOUND_INTERVAL
                              or ratio * rz_new <= eps2 * phi_lb):
            bound = tree.quadform(r)
            if stops(phi_lb, bound):
                return result(it, phi_lb, bound)
        if bound is not None:
            if last:
                err = achieved(phi_lb, bound)
                raise NumericalError(
                    f"solve did not converge in {it} iterations "
                    f"(certified relative energy error {err:.3e})", achieved_residual=err)
            since = 0
            ratio = bound / rz_new
        p = z + (rz_new / rz) * p
        rz = rz_new
