"""Laplacian solves with a relative energy-norm guarantee.

The contract is ||x_hat - L^+ d||_L <= eps * ||L^+ d||_L. It is enforced
by a computable stopping bound rather than a residual heuristic: for any
switch vector that keeps the backbone closed, L_s dominates the backbone
Laplacian L_T in the PSD order, so the error energy satisfies

    ||x - L^+ d||_L^2 = r^T L^+ r <= r^T L_T^+ r,    r = d - L x,

and L_T^+ r is one sparse triangular solve on the (grounded) backbone.
Combined with the lower bound 2 d^T x - x^T L x <= d^T L^+ d this yields a
deterministic certificate, whatever preconditioner drives the iteration.

Preconditioners: backbone_tree (default; the grounded backbone factor),
jacobi, none, amg (smoothed aggregation via pyamg), and auto. Below
AMG_AUTO_THRESHOLD nodes auto is backbone_tree. At or above it, auto is amg
when pyamg is installed and otherwise jacobi, except on a Laplacian with the
backbone's own sparsity pattern (the switch vector at the backbone indicator,
where optimization starts): there L_s = L_T, the backbone factor is exact and
CG takes one iteration. Tree-preconditioned CG needs hundreds to thousands of
iterations once the switch vector moves off the backbone, Jacobi needs tens
on expander-like graphs. Exact dense solves are used below a configurable
node-count threshold and as the test oracle.

Under the tree preconditioner the bound r^T L_T^+ r is the CG quantity
r^T z and costs nothing. Under any other it costs a backbone solve, so it is
evaluated only when it can fire: its next value is predicted from the last
measured ratio bound / r^T z, and it is evaluated when the prediction meets
the target or BOUND_INTERVAL iterations have passed since the last
evaluation. Convergence is declared only on an evaluated bound, and a solve
that runs out of iterations evaluates it before it raises.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from .errors import CapExceededError, InvalidInputError, NumericalError, StructuralError

PRECONDITIONERS = ("backbone_tree", "jacobi", "none", "amg", "auto")
AMG_AUTO_THRESHOLD = 3000
BOUND_INTERVAL = 16
# Largest node count for the dense-only operations (resistances, Hessian,
# Kirchhoff index, enumeration): an n x n dense matrix and its O(n^3) solve.
DENSE_CAP = 2000


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-8
    max_iterations: int = 5000
    preconditioner: str = "backbone_tree"
    dense_threshold: int = 64

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidInputError("epsilon must lie in (0, 1)")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if self.preconditioner not in PRECONDITIONERS:
            raise InvalidInputError(f"unknown preconditioner {self.preconditioner!r}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    x: np.ndarray
    iterations: int
    achieved_residual: float
    converged: bool


def project_zero_mean(v: np.ndarray) -> np.ndarray:
    """Project onto the zero-mean subspace: v - mean(v) * 1."""
    v = np.asarray(v, dtype=float)
    return v - v.mean()


def _as_dense(L) -> np.ndarray:
    return L.toarray() if sp.issparse(L) else np.asarray(L, dtype=float)


def require_dense(n: int) -> None:
    """Refuse a dense-only operation on more than DENSE_CAP nodes."""
    if n > DENSE_CAP:
        raise CapExceededError(f"dense-only operation: n={n} exceeds the dense cap {DENSE_CAP}")


def _shifted_solve(L: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Zero-mean X with L X = D, for a connected Laplacian L or a stack of them.

    The columns of D (n x r, or broadcast against a stack) must sum to
    zero. Adding 1/n to every entry of L adds the eigenvalue 1 on the ones
    vector and leaves L unchanged on the zero-mean subspace, so L + 1/n is
    nonsingular exactly when L is a connected Laplacian, and one dense
    solve with it gives L^+ D up to a multiple of the ones vector.
    """
    B = L + 1.0 / L.shape[-1]
    try:
        X = np.linalg.solve(B, D)
    except np.linalg.LinAlgError as exc:
        raise StructuralError("matrix is not a connected graph Laplacian") from exc
    # ||B x - d|| <= 1e-8 ||d|| for every column, compared squared.
    R = B @ X - D
    if not ((R * R).sum(axis=-2) <= 1e-16 * (D * D).sum(axis=-2)).all():
        raise StructuralError("matrix is not a connected graph Laplacian")
    return X - X.sum(axis=-2, keepdims=True) / X.shape[-2]


def pinv_laplacian(L) -> np.ndarray:
    """Exact pseudoinverse of a connected Laplacian: the zero-mean X with L X = I - 1/n."""
    Ld = _as_dense(L)
    n = Ld.shape[0]
    return _shifted_solve(Ld, np.eye(n) - 1.0 / n)


def exact_pinv_apply(L, d: np.ndarray) -> np.ndarray:
    """Machine-precision L^+ d for a connected Laplacian (dense path).

    L may also be a stack (k, n, n) of Laplacians; the result is then the
    (k, n) stack of their L^+ d.
    """
    Ld = _as_dense(L)
    n = Ld.shape[-1]
    d = np.asarray(d, dtype=float)
    if d.shape != (n,):
        raise InvalidInputError("demand length does not match matrix size")
    nrm = np.linalg.norm(d)
    if abs(d.sum()) > 1e-12 * max(nrm, 1e-300):
        raise InvalidInputError("demand must be orthogonal to the ones vector")
    if nrm == 0.0:
        return np.zeros(Ld.shape[:-1])
    return _shifted_solve(Ld, d[:, None])[..., 0]


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
        self._lu = spla.splu(LT[1:, 1:]) if n > 1 else None

    def apply(self, r: np.ndarray) -> np.ndarray:
        if self._lu is None:
            return np.zeros(1)
        x = np.empty(self.n)
        x[0] = 0.0
        x[1:] = self._lu.solve(r[1:])
        return project_zero_mean(x)

    def quadform(self, r: np.ndarray) -> float:
        """r^T L_T^+ r, the stopping-bound numerator."""
        return float(r @ self.apply(r))


class SolveContext:
    """Caller-owned cache: backbone factor, AMG hierarchy, warm-start voltages.

    mode is the resolved preconditioner. When auto resolves to jacobi (large
    instance, no pyamg), a Laplacian with the backbone's sparsity pattern is
    still preconditioned by the backbone factor, which is exact there. The
    AMG hierarchy is reused across calls while it keeps working; it is
    rebuilt lazily when iteration counts degrade past 3x the first solve
    (the matrix drifts as the switch vector moves).
    """

    def __init__(self, tree: TreeFactor, cfg: SolverConfig):
        self.tree = tree
        n = tree.n
        mode = cfg.preconditioner
        self._tree_on_backbone = False
        if mode == "auto":
            if n < AMG_AUTO_THRESHOLD:
                mode = "backbone_tree"
            elif _pyamg() is not None:
                mode = "amg"
            else:
                mode, self._tree_on_backbone = "jacobi", True
        if mode == "amg" and _pyamg() is None:
            raise InvalidInputError("preconditioner 'amg' requires pyamg")
        self.mode = mode
        self.x_warm: np.ndarray | None = None
        self._ml = None
        self._baseline: int | None = None

    def on_tree(self, L) -> bool:
        """Whether a solve on L is preconditioned by the backbone factor."""
        if self.mode == "backbone_tree":
            return True
        if not self._tree_on_backbone:
            return False
        return np.count_nonzero(L.data if sp.issparse(L) else L) == self.tree.nnz

    def preconditioner(self, L):
        if self.mode == "backbone_tree":
            return self.tree.apply
        if self.mode == "none":
            return lambda r: r
        if self.mode == "jacobi":
            diag = L.diagonal() if sp.issparse(L) else np.diag(L).copy()
            if np.any(diag <= 0):
                raise StructuralError("Laplacian has an isolated node")
            return lambda r: r / diag
        if self._ml is None:
            pyamg = _pyamg()
            smoother = ("gauss_seidel", {"sweep": "symmetric"})
            self._ml = pyamg.smoothed_aggregation_solver(
                sp.csr_matrix(L), B=np.ones((L.shape[0], 1)),
                presmoother=smoother, postsmoother=smoother)
        op = self._ml.aspreconditioner(cycle="V")
        return lambda r: op @ r

    def note_iterations(self, iterations: int) -> None:
        if self.mode != "amg":
            return
        if self._baseline is None:
            self._baseline = max(iterations, 1)
        elif iterations > 3 * self._baseline:
            self._ml = None
            self._baseline = None


def _pyamg():
    try:
        import pyamg
    except ImportError:
        return None
    return pyamg


def context_from_edges(n: int, ei, ej, w, cfg: SolverConfig) -> SolveContext:
    """Build a solve context from explicit backbone edge arrays."""
    tree = TreeFactor(n, np.asarray(ei, dtype=np.int64), np.asarray(ej, dtype=np.int64),
                      np.asarray(w, dtype=float))
    return SolveContext(tree, cfg)


def context_from_laplacian(L, cfg: SolverConfig) -> SolveContext:
    """Extract a max-weight spanning tree from L for the stopping bound."""
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
    return SolveContext(tree, cfg)


def solve(L, d: np.ndarray, cfg: SolverConfig | None = None,
          context: SolveContext | None = None,
          x0: np.ndarray | None = None) -> SolveResult:
    """Approximate x = L^+ d with ||x - L^+ d||_L <= epsilon ||L^+ d||_L.

    Preconditioned conjugate gradient on the singular consistent system,
    with the tree-dominance stopping bound described in the module
    docstring. When a context is supplied, its warm-start voltages are
    updated in place after each call.
    """
    cfg = cfg or SolverConfig()
    n = L.shape[0]
    if n <= cfg.dense_threshold:
        x = exact_pinv_apply(L, d)  # checks d as below
        if context is not None:
            context.x_warm = x
        return SolveResult(x, 0, 0.0, True)
    d = np.asarray(d, dtype=float)
    if d.shape != (n,):
        raise InvalidInputError("demand length does not match matrix size")
    if abs(d.sum()) > 1e-12 * max(np.linalg.norm(d), 1e-300):
        raise InvalidInputError("demand must be orthogonal to the ones vector")
    if not np.any(d):
        return SolveResult(np.zeros(n), 0, 0.0, True)

    if context is None:
        context = context_from_laplacian(L, cfg)
    tree = context.tree
    tree_is_M = context.on_tree(L)
    M = tree.apply if tree_is_M else context.preconditioner(L)
    eps2 = cfg.epsilon ** 2

    def fires(bound, phi_lb):
        return (phi_lb > 0.0 and bound <= eps2 * phi_lb) or bound <= 0.0

    if x0 is not None:
        x = project_zero_mean(x0)
        Lx = L @ x
        r = project_zero_mean(d - Lx)
    else:
        x = np.zeros(n)
        Lx = np.zeros(n)
        r = d.copy()

    z = project_zero_mean(M(r))
    rz = float(r @ z)
    bound = rz if tree_is_M else tree.quadform(r)
    phi_lb = 2.0 * float(d @ x) - float(x @ Lx)
    if fires(bound, phi_lb):
        achieved = float(np.sqrt(max(bound, 0.0) / phi_lb)) if phi_lb > 0 else 0.0
        context.x_warm = x
        return SolveResult(x, 0, achieved, True)

    # bound / r^T z at the last evaluation predicts the bound in between.
    ratio = bound / rz if rz > 0.0 else 1.0
    fresh = True
    since = 0
    p = z.copy()
    iterations = 0
    converged = False
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
        iterations = it
        since += 1
        fresh = (tree_is_M or since >= BOUND_INTERVAL
                 or ratio * rz_new <= eps2 * phi_lb or rz_new <= 0.0)
        if fresh:
            bound = rz_new if tree_is_M else tree.quadform(r)
            since = 0
            if rz_new > 0.0:
                ratio = bound / rz_new
            if fires(bound, phi_lb):
                converged = True
                break
        if rz_new <= 0.0:
            break
        p = z + (rz_new / rz) * p
        rz = rz_new

    if not fresh:
        bound = tree.quadform(r)
        converged = fires(bound, phi_lb)
    achieved = float(np.sqrt(max(bound, 0.0) / phi_lb)) if phi_lb > 0 else float("inf")
    x = project_zero_mean(x)
    if not converged:
        raise NumericalError(
            f"solve did not converge in {cfg.max_iterations} iterations "
            f"(certified relative energy error {achieved:.3e})",
            achieved_residual=achieved)
    context.note_iterations(iterations)
    context.x_warm = x
    return SolveResult(x, iterations, achieved, True)
