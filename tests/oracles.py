"""Slow reference implementations that pin down expected test values.

Everything here favors transparency over speed: Laplacians are built with
explicit loops, pseudoinverses come straight from np.linalg.pinv, phi
from a dense solve refined in long double (refined_voltages), derivatives
from central differences, and the dual norm from subset enumeration. None
of the package's fast paths are used, so agreement between a reference
function and the package is meaningful evidence.

The exceptions are at the end: brute_force, the exhaustive reference for
the branch and bound in reswitch.enumeration, batches its dense solves
(stack_pinv_apply, an LU kernel apart from the package's Cholesky) so
that every configuration of a few dozen free edges can be checked; and
diagnostics that only tests use (hexagon norms, the homogeneity residual
of the package's own gradient).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from reswitch import congestion, graphs, solver
from reswitch.errors import CapExceededError, InvalidInputError, StructuralError
from reswitch.graphs import Graph, make_graph


def laplacian(n, edges, s):
    """Loop-built switched Laplacian; edges are (i, j, w) triples."""
    L = np.zeros((n, n))
    for k, (i, j, w) in enumerate(edges):
        c = s[k] * w
        L[i, i] += c
        L[j, j] += c
        L[i, j] -= c
        L[j, i] -= c
    return L


def laplacian_add_at(g: Graph, s) -> np.ndarray:
    """Switched Laplacian by four np.add.at scatters, (i, i), (j, j), (i, j)
    and (j, i), each in edge order: the summation order the package's
    dense assembly promises, so its result must be identical."""
    x = np.asarray(s, dtype=float) * g.w
    L = np.zeros((g.n, g.n))
    np.add.at(L, (g.ei, g.ei), x)
    np.add.at(L, (g.ej, g.ej), x)
    np.add.at(L, (g.ei, g.ej), -x)
    np.add.at(L, (g.ej, g.ei), -x)
    return L


def laplacian_coo(g: Graph, s):
    """Switched Laplacian as scipy COO triplets summed by tocsr(), the
    package's sparse assembly before it had a per-graph pattern."""
    x = np.asarray(s, dtype=float) * g.w
    rows = np.concatenate([g.ei, g.ej, g.ei, g.ej])
    cols = np.concatenate([g.ei, g.ej, g.ej, g.ei])
    data = np.concatenate([x, x, -x, -x])
    return scipy.sparse.coo_matrix((data, (rows, cols)), shape=(g.n, g.n)).tocsr()


def laplacian_pattern(g: Graph):
    """CSR (indptr, indices) of every position some edge touches, by loops."""
    touched = [set() for _ in range(g.n)]
    for i, j, _ in g.edges:
        touched[i] |= {i, j}
        touched[j] |= {i, j}
    indices = [c for row in touched for c in sorted(row)]
    indptr = np.cumsum([0] + [len(row) for row in touched])
    return indptr, np.array(indices, dtype=int)


def graph_context(g: Graph) -> solver.SolveContext:
    """The solve context of a CG solve on g's own Laplacian, through the
    public solver.context_from_edges: the backbone's tree solve and g's
    plan, whose fill verdict fixes the mode."""
    bb = g.backbone_mask
    return solver.context_from_edges(g.n, g.ei[bb], g.ej[bb], g.w[bb], plan=g.plan)


def pinv(L):
    return np.linalg.pinv(L, hermitian=True)


def phi(g: Graph, s, d) -> float:
    """d^T L_s^+ d, from refined_voltages: pinv loses 3e-12 to 5e-12 of it
    on long chains."""
    return float(d @ refined_voltages(g, s, d))


def refined_voltages(g: Graph, s, d) -> np.ndarray:
    """L_s^+ d by a grounded dense LU solve refined with long double
    residuals, so that it keeps the digits pinv loses on long chains (about
    1e-12 of phi on a 300-node path)."""
    L = laplacian(g.n, g.edges, s)
    lu = scipy.linalg.lu_factor(L[1:, 1:])
    A, b = L[1:, 1:].astype(np.longdouble), np.asarray(d[1:], dtype=np.longdouble)
    x = np.zeros(g.n - 1, dtype=np.longdouble)
    for _ in range(6):
        x += scipy.linalg.lu_solve(lu, (b - A @ x).astype(float))
    x = np.concatenate([[0.0], x])
    return (x - x.mean()).astype(float)


def gradient_fd(g: Graph, s, d, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of phi in s."""
    s = np.asarray(s, dtype=float)
    out = np.empty(g.m)
    for e in range(g.m):
        up = s.copy()
        dn = s.copy()
        up[e] += h
        dn[e] -= h
        out[e] = (phi(g, up, d) - phi(g, dn, d)) / (2.0 * h)
    return out


def resistance(g: Graph, s, e: int) -> float:
    """Effective resistance across edge e in the switched graph."""
    return cross_resistance(g, s, e, e)


def cross_resistance(g: Graph, s, k: int, l: int) -> float:
    """a_k^T L_s^+ a_l for edge index pair (k, l)."""
    Lp = pinv(laplacian(g.n, g.edges, s))
    ak = np.zeros(g.n)
    al = np.zeros(g.n)
    ak[g.edges[k][0]], ak[g.edges[k][1]] = 1.0, -1.0
    al[g.edges[l][0]], al[g.edges[l][1]] = 1.0, -1.0
    return float(ak @ Lp @ al)


def hessian_entrywise(g: Graph, s, d) -> np.ndarray:
    """Hessian of phi from the entrywise formula.

    H[k, l] = 2 * delta_k * delta_l * w_k * w_l * (a_k^T L^+ a_l), with
    delta the voltage difference across each edge.
    """
    Lp = pinv(laplacian(g.n, g.edges, s))
    x = Lp @ d
    H = np.empty((g.m, g.m))
    for k in range(g.m):
        ik, jk, wk = g.edges[k]
        dk = x[ik] - x[jk]
        for l in range(g.m):
            il, jl, wl = g.edges[l]
            dl = x[il] - x[jl]
            rho = Lp[ik, il] - Lp[ik, jl] - Lp[jk, il] + Lp[jk, jl]
            H[k, l] = 2.0 * dk * dl * wk * wl * rho
    return H


def sandwich_pencil_eigenvalues(g: Graph, sbar, sampled) -> np.ndarray:
    """Eigenvalues of the pencil (L_sampled, L_sbar) on the zero-mean subspace.

    Both Laplacians are restricted to an explicit orthonormal basis of the
    vectors orthogonal to the ones vector.
    """
    full = np.eye(g.n) - np.full((g.n, g.n), 1.0 / g.n)
    vals, vecs = np.linalg.eigh(full)
    U = vecs[:, vals > 0.5]
    L0 = laplacian(g.n, g.edges, sbar)
    L1 = laplacian(g.n, g.edges, sampled)
    return scipy.linalg.eigh(U.T @ L1 @ U, U.T @ L0 @ U, eigvals_only=True)


def hexagon_dual_subsets(u, q: int) -> float:
    """Dual norm by brute force: best size-min(q, len) subset of |u|, over q."""
    a = np.abs(np.asarray(u, dtype=float))
    k = min(q, len(a))
    if k == 0:
        return 0.0
    best = max(sum(a[list(c)]) for c in itertools.combinations(range(len(a)), k))
    return float(best) / q


def best_binary(g: Graph, d, q: int):
    """Brute-force minimizer of phi over binary budgeted configurations.

    Returns (s, phi) with ties broken toward the lexicographically
    smallest free-edge pattern, matching bitmask order.
    """
    free = [e for e in range(g.m) if e not in g.backbone]
    base = np.zeros(g.m)
    base[list(g.backbone)] = 1.0
    best_s, best_val = None, np.inf
    for mask in range(1 << len(free)):
        s = base.copy()
        for k, e in enumerate(free):
            s[e] = float((mask >> k) & 1)
        if s.sum() > q:
            continue
        val = phi(g, s, d)
        if val < best_val:
            best_val, best_s = val, s
    return best_s, best_val


def random_instance(rng, n: int, extra: int, lo: float = 0.5, hi: float = 2.0,
                    multigraph: bool = False, demand: str = "pair"):
    """Random-attachment tree plus extra edges; returns (Graph, unit demand)."""
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(lo, hi))))
    have = {(min(i, j), max(i, j)) for (i, j, _) in edges}
    added = tries = 0
    while added < extra and tries < 200 * (extra + 1):
        tries += 1
        i, j = rng.integers(0, n, size=2)
        i, j = int(min(i, j)), int(max(i, j))
        if i == j or (not multigraph and (i, j) in have):
            continue
        have.add((i, j))
        edges.append((i, j, float(rng.uniform(lo, hi))))
        added += 1
    g = make_graph(n, edges, range(n - 1))
    if demand == "pair":
        d = np.zeros(n)
        d[0], d[n - 1] = 1.0, -1.0
    else:
        d = rng.normal(size=n)
        d -= d.mean()
    d /= np.linalg.norm(d)
    return g, d


def scale_to_unit(g: Graph, d):
    """Rescale weights so the backbone Laplacian has lambda_2 = 1, ||d|| = 1."""
    st = np.zeros(g.m)
    st[list(g.backbone)] = 1.0
    lam2 = np.linalg.eigvalsh(laplacian(g.n, g.edges, st))[1]
    edges = [(i, j, w / lam2) for (i, j, w) in g.edges]
    d = np.asarray(d, dtype=float)
    return make_graph(g.n, edges, g.backbone), d / np.linalg.norm(d)


def random_fractional(rng, g: Graph, lo: float = 0.05, hi: float = 1.0):
    """Feasible fractional switch vector: backbone at 1, rest uniform."""
    s = rng.uniform(lo, hi, size=g.m)
    s[list(g.backbone)] = 1.0
    return s


def generate_instance_loop(n: int, extra: int, seed: int, weight_lo: float = 0.5,
                           weight_hi: float = 2.0, demand: str = "pair",
                           multigraph: bool = False):
    """cli.generate_instance drawing one candidate pair at a time."""
    rng = np.random.default_rng(seed)
    pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    tree_set = set(pairs)
    chosen = set()
    while len(pairs) < n - 1 + extra:
        u, v = sorted((int(rng.integers(0, n)), int(rng.integers(0, n))))
        if u == v or (u, v) in tree_set or (not multigraph and (u, v) in chosen):
            continue
        chosen.add((u, v))
        pairs.append((u, v))
    w = rng.uniform(weight_lo, weight_hi, len(pairs))
    g = make_graph(n, [(i, j, wk) for (i, j), wk in zip(pairs, w)], range(n - 1))
    if demand == "pair":
        a, b = rng.choice(n, size=2, replace=False)
        d = np.zeros(n)
        d[int(a)], d[int(b)] = 1.0, -1.0
    else:
        d = rng.standard_normal(n)
        d -= d.mean()
    return g, d / np.linalg.norm(d)


def grid_comb(rows: int, cols: int, seed: int):
    """rows x cols grid whose backbone is a comb; returns (Graph, unit demand).

    The backbone is every horizontal edge plus the vertical edges of the
    first column; the other vertical edges switch. Weights are uniform on
    [0.5, 2] and the demand is Gaussian. Planar and power-network-like.
    """
    rng = np.random.default_rng(seed)
    edges, backbone = [], []
    for r in range(rows):
        for c in range(cols - 1):
            backbone.append(len(edges))
            edges.append((r * cols + c, r * cols + c + 1))
    for r in range(rows - 1):
        for c in range(cols):
            if c == 0:
                backbone.append(len(edges))
            edges.append((r * cols + c, (r + 1) * cols + c))
    w = rng.uniform(0.5, 2.0, len(edges))
    g = make_graph(rows * cols, [(i, j, wk) for (i, j), wk in zip(edges, w)], backbone)
    d = rng.standard_normal(g.n)
    d -= d.mean()
    return g, d / np.linalg.norm(d)


def chord_ring(n: int, seed: int):
    """Path backbone 0-1-...-(n-1), a switchable ring-closing edge and n // 10
    chords between distinct other node pairs; returns (Graph, unit demand).

    Weights are uniform on [0.5, 2] and the demand is Gaussian.
    """
    rng = np.random.default_rng(seed)
    pairs = [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)]
    while len(pairs) < n + n // 10:
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u != v and (u, v) not in pairs:
            pairs.append((u, v))
    w = rng.uniform(0.5, 2.0, len(pairs))
    g = make_graph(n, [(i, j, wk) for (i, j), wk in zip(pairs, w)], range(n - 1))
    d = rng.standard_normal(n)
    d -= d.mean()
    return g, d / np.linalg.norm(d)


def chain_parallel(seed: int, cycle: bool = True):
    """A 100-node graph of every core shape; returns (Graph, unit demand).

    The backbone is the path 0-1-...-69 and three pendant trees of ten
    nodes, hung from path nodes 15, 27 and 67; eight switchable edges join
    path nodes, so the path between their ends is eliminated as chains and
    its tail beyond node 65 as a pendant tree. Three backbone edges of
    weight 0.1, below every other weight, so that the maximum-weight
    spanning tree leaves them out, each join the two ends of a chain, to
    which they run parallel in the core. With cycle, one more such edge
    joins path node 25 to pendant node 75, which closes a cycle in the core.
    Other weights are uniform on [0.5, 2] and the demand is Gaussian.
    """
    rng = np.random.default_rng(seed)
    pairs = [(k, k + 1) for k in range(69)]
    for root, first in ((15, 90), (27, 70), (67, 80)):
        pairs.append((root, first))
        pairs += [(int(rng.integers(first, v)), v) for v in range(first + 1, first + 10)]
    w = list(rng.uniform(0.5, 2.0, len(pairs)))
    light = [(10, 20), (35, 45), (50, 60)] + [(25, 75)] * cycle
    free = [(5, 30), (10, 45), (20, 60), (30, 50), (35, 65), (10, 20), (45, 65), (5, 50)]
    edges = [(i, j, wk) for (i, j), wk in zip(pairs + light, w + [0.1] * len(light))]
    g = make_graph(100, edges + [(i, j, float(wk)) for (i, j), wk in
                                 zip(free, rng.uniform(0.5, 2.0, len(free)))],
                   range(len(edges)))
    d = rng.standard_normal(100)
    d -= d.mean()
    return g, d / np.linalg.norm(d)


# FILL_BUDGET under which the fill probe picks each solve mode: every
# envelope is over a zero budget and under a vast one.
POLICY = {"jacobi": 0, "direct": 10 ** 9}


def ring(n: int) -> Graph:
    """Unit-weight cycle on n nodes: the path backbone plus one free edge
    that closes it."""
    return make_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)] + [(0, n - 1, 1.0)],
                      range(n - 1))


def edge_envelope(n: int, ei, ej) -> int:
    """The reverse Cuthill-McKee envelope of a graph, built from its edge
    list: the order of the symmetric adjacency A + A^T, then, row by row,
    the positions between each row's first neighbour and its diagonal. The
    reference for solver._envelope, which reads a plan's CSR pattern."""
    A = scipy.sparse.csr_matrix((np.ones(len(ei), dtype=np.int32), (ei, ej)), shape=(n, n))
    order = reverse_cuthill_mckee(A + A.T, symmetric_mode=True)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    pi, pj = pos[ei], pos[ej]
    first = np.arange(n)
    np.minimum.at(first, np.maximum(pi, pj), np.minimum(pi, pj))
    return int((np.arange(n) - first).sum())


def lexsort_smallest(values, k: int) -> np.ndarray:
    """Positions of the k smallest values, ordered by (value, position)."""
    values = np.asarray(values)
    return np.lexsort((np.arange(len(values)), values))[:max(k, 0)]


# --- exhaustive enumeration -------------------------------------------------

FREE_EDGE_CAP = 22
KEEP_VALUES_CAP = 16
# Bytes of stacked n x n Laplacians per batched dense solve: a batch holds
# BATCH_BYTES // (8 n^2) configurations, so its memory does not grow with n.
BATCH_BYTES = 8 << 20


def stack_pinv_apply(Ls: np.ndarray, d) -> np.ndarray:
    """L^+ d for each connected Laplacian L of a stack (k, n, n), as (k, n).

    One batched LU solve with L + 1/n, refused (StructuralError) unless
    every residual is within 1e-8 of ||d||: the independent reference for
    the package's dense kernel, a shifted LU on the whole stack where the
    package grounds node 0 and runs a Cholesky per matrix.
    """
    B = Ls + 1.0 / Ls.shape[-1]
    D = np.asarray(d, dtype=float)[:, None]
    try:
        X = np.linalg.solve(B, D)
    except np.linalg.LinAlgError as exc:
        raise StructuralError("matrix is not a connected graph Laplacian") from exc
    R = B @ X - D
    if not ((R * R).sum(axis=-2) <= 1e-16 * (D * D).sum(axis=-2)).all():
        raise StructuralError("matrix is not a connected graph Laplacian")
    X = X[..., 0]
    return X - X.mean(axis=-1, keepdims=True)


@dataclass(frozen=True, eq=False)
class BruteForceResult:
    best_config: graphs.Configuration
    best_phi: float
    evaluated_count: int
    all_values: dict[int, float] | None


def brute_force(g: Graph, d, q: int) -> BruteForceResult:
    """Minimizer of phi over every binary s with backbone kept and ||s||_1 <= q.

    Every bitmask over the free edges (bit k is the k-th non-backbone edge
    in edge order) with at most q - |T| bits is evaluated, in batches of
    stacked dense solves. Ties break toward the smallest bitmask.
    all_values, bitmask -> phi, is kept only up to KEEP_VALUES_CAP free edges.
    """
    d = graphs.check_demand(g, d)
    t_size = graphs.check_budget(g, q)
    solver.require_dense(g.n)
    free = np.flatnonzero(~g.backbone_mask)
    F = len(free)
    if F > FREE_EDGE_CAP:
        raise CapExceededError(f"{F} free edges exceed the enumeration cap {FREE_EDGE_CAP}")

    LT = graphs.assemble_laplacian_dense(g, g.backbone_indicator())
    k, i, j, w = np.arange(F), g.ei[free], g.ej[free], g.w[free]
    elem = np.zeros((F, g.n, g.n))
    elem[k, i, i] = elem[k, j, j] = w
    elem[k, i, j] = elem[k, j, i] = -w

    head = q - t_size
    best_phi = np.inf
    best_mask = -1
    evaluated = 0
    values: dict[int, float] | None = {} if F <= KEEP_VALUES_CAP else None
    shifts = np.arange(F, dtype=np.uint64)
    batch = max(1, BATCH_BYTES // (8 * g.n * g.n))

    for lo in range(0, 1 << F, batch):
        masks = np.arange(lo, min(lo + batch, 1 << F), dtype=np.uint64)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(float)
        keep = bits.sum(axis=1) <= head
        if not keep.any():
            continue
        masks, bits = masks[keep], bits[keep]
        X = stack_pinv_apply(LT[None, :, :] + np.tensordot(bits, elem, axes=1), d)
        phis = X @ d
        evaluated += len(masks)
        if values is not None:
            values.update(zip((int(v) for v in masks), (float(p) for p in phis)))
        k = int(np.argmin(phis))
        if phis[k] < best_phi:
            best_phi = float(phis[k])
            best_mask = int(masks[k])

    s_best = config_from_mask(g, best_mask)
    return BruteForceResult(best_config=graphs.Configuration(sbin=s_best),
                            best_phi=best_phi, evaluated_count=evaluated,
                            all_values=values)


def config_from_mask(g: Graph, mask: int) -> np.ndarray:
    """Switch vector with the backbone and the free edges of mask closed."""
    s = g.backbone_indicator()
    free = np.flatnonzero(~g.backbone_mask)
    s[free] = [(mask >> b) & 1 for b in range(len(free))]
    return s


def mask_of(g: Graph, s) -> int:
    """Bitmask of the closed free edges of switch vector s."""
    on = np.asarray(s)[~g.backbone_mask] > 0.5
    return sum(1 << int(b) for b in np.flatnonzero(on))


def exact_phi_all(g: Graph, d, configs) -> np.ndarray:
    """Exact phi for each supplied configuration (dense path)."""
    d = graphs.check_demand(g, d)
    out = np.empty(len(configs))
    for k, c in enumerate(configs):
        s = c.sbin if isinstance(c, graphs.Configuration) else np.asarray(c, dtype=float)
        L = graphs.assemble_laplacian_dense(g, s)
        out[k] = float(d @ solver.exact_pinv_apply(L, d))
    return out


# --- diagnostics -------------------------------------------------------------

def hexagon_norm(u, q: int) -> float:
    """max(||u||_1, q ||u||_inf), the budget-polytope gauge."""
    if q < 1:
        raise InvalidInputError("q must be at least 1")
    a = np.abs(np.asarray(u, dtype=float))
    if a.size == 0:
        return 0.0
    return float(max(a.sum(), q * a.max()))


def hexagon_dual_norm(u, q: int) -> float:
    """Average of the q largest coordinate magnitudes (zero-padded)."""
    if q < 1:
        raise InvalidInputError("q must be at least 1")
    a = np.sort(np.abs(np.asarray(u, dtype=float)))[::-1]
    return float(a[:q].sum() / q)


def homogeneity_residual(g: Graph, s, d) -> float:
    """|phi(s) + <grad, s>| / phi(s) from congestion.approx_diff.

    phi is homogeneous of degree -1, so the residual is zero in exact
    arithmetic. Returns the absolute residual when phi(s) = 0 (zero demand).
    """
    diff = congestion.approx_diff(g, s, d)
    resid = abs(diff.phi + float(diff.grad @ s))
    return resid / diff.phi if diff.phi > 0 else resid
