"""Laplacian solves with a relative energy-norm guarantee.

The contract is ||x_hat - L^+ d||_L <= eps * ||L^+ d||_L. It is enforced
by a computable stopping bound rather than a residual heuristic: for any
switch vector that keeps the backbone closed, L_s dominates the backbone
Laplacian L_T in the PSD order, so the error energy satisfies

    ||x - L^+ d||_L^2 = r^T L^+ r <= r^T L_T^+ r,    r = d - L x,

and L_T^+ r is one sparse triangular solve on the (grounded) backbone.
Combined with the lower bound 2 d^T x - x^T L x <= d^T L^+ d this yields a
deterministic certificate, whatever preconditioner drives the iteration.

The input picks the path, and no option overrides it: epsilon is the only
setting. solve checks its demand once, then takes the exact dense path up
to SolverConfig.dense_threshold nodes, a constant (64). Above it, solve
runs CG, at most SolverConfig.max_iterations (5000) iterations, and
requires a solve context, which fixes the preconditioner when it is built,
at every size: direct (a sparse LU of the grounded L_s itself, built once
per solve) when a fill probe finds the widest pattern the context will
solve low-fill, and jacobi otherwise. The probe compares the envelope of a
reverse Cuthill-McKee order with FILL_BUDGET nonzeros per edge; a context
over a graph's backbone takes the graph's verdict, probed once per graph
(graphs.Graph.low_fill). Planar, grid-like and ring-like graphs pass it
and their factor is cheap; expander-like graphs fail it, and there Jacobi
needs only tens of iterations. On a Laplacian with the backbone's own
sparsity pattern (the switch vector at the backbone indicator, where
optimization starts) the backbone factor is used whatever the mode, since
it is exact there: L_s = L_T. Under direct or the backbone factor CG takes
one iteration, and the solution still has to pass the stopping bound
below, so a poor factor can cost time but never accuracy. The exact dense
path solves one matrix at a time by a Cholesky factorization of the
positive definite L + 1/n, refused unless its residual is small; the tests
compare it against an LU oracle of their own.

Every solve starts from x = 0 and only reads its context, so no solve
depends on the ones before it. Under the backbone factor the bound
r^T L_T^+ r is the CG quantity r^T z and costs nothing. Under any other
preconditioner it costs a backbone solve, so it is evaluated only when it
can fire: its next value is predicted from the last measured ratio
bound / r^T z (1 at the start), and it is evaluated when the prediction
meets the target or BOUND_INTERVAL iterations have passed since the last
evaluation. Convergence is declared only on an evaluated bound, and a
solve that runs out of iterations evaluates it before it raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import (connected_components, minimum_spanning_tree,
                                  reverse_cuthill_mckee)

from .errors import CapExceededError, InvalidInputError, NumericalError, StructuralError

# Reverse Cuthill-McKee envelope per edge up to which a context solves directly.
# Grids of 80 x 80 to 300 x 300 come to 27-101 (their minimum-degree factors,
# which the solves use, to 17.5-28 nonzeros per edge), chord rings of 1500
# nodes to 62-76; CLI expanders with 2n extra edges pass below about 1450.
FILL_BUDGET = 128
BOUND_INTERVAL = 16
# Largest node count for the dense-only operations (resistances, Hessian,
# Kirchhoff index, exact baseline): an n x n dense matrix and its O(n^3) solve.
DENSE_CAP = 2000


@dataclass(frozen=True)
class SolverConfig:
    """epsilon, the solve accuracy, is the only setting; the dense
    threshold and CG's iteration cap are class constants, not fields."""
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
    x: np.ndarray
    iterations: int
    achieved_residual: float


def project_zero_mean(v: np.ndarray) -> np.ndarray:
    """Project onto the zero-mean subspace: v - mean(v) * 1."""
    v = np.asarray(v, dtype=float)
    return v - v.mean()


def _as_dense(L) -> np.ndarray:
    Ld = L.toarray() if sp.issparse(L) else np.asarray(L, dtype=float)
    if Ld.ndim != 2 or Ld.shape[0] != Ld.shape[1]:
        raise InvalidInputError(f"matrix has shape {Ld.shape}, expected (n, n)")
    return Ld


def require_dense(n: int) -> None:
    """Refuse a dense-only operation on more than DENSE_CAP nodes."""
    if n > DENSE_CAP:
        raise CapExceededError(f"dense-only operation: n={n} exceeds the dense cap {DENSE_CAP}")


def _shifted_solve(L: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Zero-mean X with L X = D, for one connected Laplacian L (n x n).

    The columns of D (n x r) must sum to zero. Adding 1/n to every entry
    of L adds the eigenvalue 1 on the ones vector and leaves L unchanged on
    the zero-mean subspace, so L + 1/n is positive definite exactly when L
    is a connected Laplacian, and one Cholesky solve with it gives L^+ D up
    to a multiple of the ones vector. Cholesky reads one triangle only; the
    residual check on the whole matrix refuses a non-symmetric L.
    """
    B = L + 1.0 / L.shape[0]
    _, X, info = lapack.dposv(B, D)
    if info != 0:
        raise StructuralError("matrix is not a connected graph Laplacian")
    # ||B x - d|| <= 1e-8 ||d|| for every column, compared squared.
    R = B @ X - D
    if not ((R * R).sum(axis=0) <= 1e-16 * (D * D).sum(axis=0)).all():
        raise StructuralError("matrix is not a connected graph Laplacian")
    return X - X.sum(axis=0) / X.shape[0]


def pinv_laplacian(L) -> np.ndarray:
    """Exact pseudoinverse of a connected Laplacian: the zero-mean X with L X = I - 1/n."""
    Ld = _as_dense(L)
    n = Ld.shape[0]
    return _shifted_solve(Ld, np.eye(n) - 1.0 / n)


def _checked_demand(d, n: int) -> np.ndarray:
    """d as a finite float vector of length n orthogonal to 1: the one
    demand check, run once per solve and by graphs.check_demand."""
    d = np.asarray(d, dtype=float)
    if d.shape != (n,):
        raise InvalidInputError(f"demand vector has shape {d.shape}, expected ({n},)")
    # d @ d is finite unless an entry is not (or it overflows), so the
    # entrywise test runs only then. Its root is np.linalg.norm(d).
    sq = float(d @ d)
    if not math.isfinite(sq) and not np.isfinite(d).all():
        raise InvalidInputError("demand entries must be finite")
    if abs(d.sum()) > 1e-12 * max(math.sqrt(sq), 1e-300):
        raise InvalidInputError("demand entries must sum to zero")
    return d


def exact_pinv_apply(L, d: np.ndarray) -> np.ndarray:
    """Machine-precision L^+ d for a connected Laplacian (dense path)."""
    Ld = _as_dense(L)
    d = _checked_demand(d, Ld.shape[0])
    if not d.any():
        return np.zeros(Ld.shape[0])
    return _shifted_solve(Ld, d[:, None])[:, 0]


def _grounded_factor(L):
    """r -> L^+ r for a connected Laplacian L, by one sparse LU of L[1:, 1:].

    Grounding node 0 leaves a symmetric positive definite matrix, so the
    factor needs no pivoting; a minimum-degree order on its symmetric
    pattern keeps the fill low. r must be orthogonal to 1; the result has
    zero mean.
    """
    n = L.shape[0]
    if n == 1:
        return lambda r: np.zeros(1)
    try:
        lu = spla.splu(sp.csc_matrix(L)[1:, 1:], permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, relax=1, panel_size=1,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise StructuralError("matrix is not a connected graph Laplacian") from exc

    def apply(r: np.ndarray) -> np.ndarray:
        x = np.empty(n)
        x[0] = 0.0
        x[1:] = lu.solve(r[1:])
        return project_zero_mean(x)
    return apply


def _low_fill(n: int, ei: np.ndarray, ej: np.ndarray) -> bool:
    """O(m) fill probe: is the graph's Cuthill-McKee envelope within FILL_BUDGET?

    The graph has n nodes and edges (ei, ej); the budget is per edge. In the
    reverse Cuthill-McKee order the envelope counts, row by row of the
    Laplacian, the entries between the first nonzero and the diagonal; a
    factor in that order fills no more than that.
    """
    ones = np.ones(len(ei), dtype=np.int32)
    A = sp.csr_matrix((ones, (ei, ej)), shape=(n, n))
    order = reverse_cuthill_mckee(A + A.T, symmetric_mode=True)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    pi, pj = pos[ei], pos[ej]
    first = np.arange(n)
    np.minimum.at(first, np.maximum(pi, pj), np.minimum(pi, pj))
    return int((np.arange(n) - first).sum()) <= FILL_BUDGET * len(ei)


class TreeFactor:
    """Grounded factorization of a connected subgraph Laplacian L_T.

    apply(r) returns the zero-mean solution of L_T x = r for r
    orthogonal to 1, i.e. L_T^+ r.
    """

    def __init__(self, n: int, ei: np.ndarray, ej: np.ndarray, w: np.ndarray):
        self.n = n
        adj = sp.csr_matrix((np.ones(len(ei)), (ei, ej)), shape=(n, n))
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp != 1:
            raise StructuralError("backbone subgraph is not connected")
        rows = np.concatenate([ei, ej, ei, ej])
        cols = np.concatenate([ei, ej, ej, ei])
        data = np.concatenate([w, w, -w, -w])
        LT = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()
        self.nnz = int(np.count_nonzero(LT.data))
        self.apply = _grounded_factor(LT)

    def quadform(self, r: np.ndarray) -> float:
        """r^T L_T^+ r, the stopping-bound numerator."""
        return float(r @ self.apply(r))


class SolveContext:
    """Backbone factor and preconditioner mode, shared by CG solves on one graph.

    A solve keeps no state here, so the order of solves changes no result.
    low_fill is the fill probe's verdict on the widest Laplacian the context
    will solve, and fixes mode when the context is built: direct if it holds,
    jacobi otherwise (module docstring). A Laplacian with the backbone's
    sparsity pattern is preconditioned by the backbone factor whatever the
    mode, since the factor is exact there.
    """

    def __init__(self, tree: TreeFactor, low_fill: bool = False):
        self.tree = tree
        self.mode = "direct" if low_fill else "jacobi"

    def on_tree(self, L) -> bool:
        """Whether a solve on L is preconditioned by the backbone factor."""
        return np.count_nonzero(L.data if sp.issparse(L) else L) == self.tree.nnz

    def preconditioner(self, L):
        """r -> M^-1 r for a solve on L off the backbone factor (see on_tree)."""
        if self.mode == "direct":
            return _grounded_factor(L)
        diag = L.diagonal() if sp.issparse(L) else np.diag(L).copy()
        if np.any(diag <= 0):
            raise StructuralError("Laplacian has an isolated node")
        return lambda r: r / diag


def context_from_edges(n: int, ei, ej, w, low_fill: bool = False) -> SolveContext:
    """Build a solve context from explicit backbone edge arrays.

    low_fill is the fill probe's verdict on the widest Laplacian to be
    solved, which fixes the mode (see SolveContext).
    """
    tree = TreeFactor(n, np.asarray(ei, dtype=np.int64), np.asarray(ej, dtype=np.int64),
                      np.asarray(w, dtype=float))
    return SolveContext(tree, low_fill)


def context_from_laplacian(L) -> SolveContext:
    """Build a solve context from L alone: a max-weight spanning tree of L
    for the stopping bound, and the fill probe on L's own pattern."""
    Ls = sp.csr_matrix(L) if not sp.issparse(L) else L.tocsr()
    n = Ls.shape[0]
    off = sp.tril(Ls, k=-1).tocoo()
    wabs = -off.data
    keep = wabs > 0
    inv = sp.coo_matrix((1.0 / wabs[keep], (off.row[keep], off.col[keep])), shape=(n, n))
    mst = minimum_spanning_tree(inv.tocsr()).tocoo()
    if len(mst.data) != n - 1:
        raise StructuralError("Laplacian sparsity pattern is disconnected")
    w = np.asarray(Ls[mst.row, mst.col]).ravel() * -1.0
    tree = TreeFactor(n, mst.row.astype(np.int64), mst.col.astype(np.int64), w)
    return SolveContext(tree, _low_fill(n, off.row, off.col))


def solve(L, d: np.ndarray, cfg: SolverConfig | None = None,
          context: SolveContext | None = None) -> SolveResult:
    """Approximate x = L^+ d with ||x - L^+ d||_L <= epsilon ||L^+ d||_L.

    d is checked once, on either path (_checked_demand). At or below
    SolverConfig.dense_threshold nodes this is the exact dense path, and
    any context is ignored. Above it, preconditioned conjugate gradient from
    x = 0 on the singular consistent system, with the tree-dominance
    stopping bound described in the module docstring; a context is required
    there (InvalidInputError without one). The context is only read, so the
    result does not depend on earlier solves.
    """
    cfg = cfg or SolverConfig()
    n = L.shape[0]
    if n <= cfg.dense_threshold:
        return SolveResult(exact_pinv_apply(L, d), 0, 0.0)
    if context is None:
        raise InvalidInputError(
            f"a solve above dense_threshold={cfg.dense_threshold} nodes needs a context")
    d = _checked_demand(d, n)
    if not d.any():
        return SolveResult(np.zeros(n), 0, 0.0)

    tree = context.tree
    tree_is_M = context.on_tree(L)
    M = tree.apply if tree_is_M else context.preconditioner(L)
    eps2 = cfg.epsilon ** 2

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
        z = project_zero_mean(M(r))
        rz_new = float(r @ z)
        phi_lb = 2.0 * float(d @ x) - float(x @ Lx)
        since += 1
        last = it == cfg.max_iterations or rz_new <= 0.0
        if (last or tree_is_M or since >= BOUND_INTERVAL
                or ratio * rz_new <= eps2 * phi_lb):
            bound = rz_new if tree_is_M else tree.quadform(r)
            achieved = float(np.sqrt(max(bound, 0.0) / phi_lb)) if phi_lb > 0 else float("inf")
            if (phi_lb > 0.0 and bound <= eps2 * phi_lb) or bound <= 0.0:
                return SolveResult(project_zero_mean(x), it, achieved)
            if last:
                raise NumericalError(
                    f"solve did not converge in {it} iterations "
                    f"(certified relative energy error {achieved:.3e})",
                    achieved_residual=achieved)
            since = 0
            ratio = bound / rz_new
        p = z + (rz_new / rz) * p
        rz = rz_new
