"""Slow reference implementations that pin down expected test values.

Everything here favors transparency over speed: Laplacians are built with
explicit loops, pseudoinverses come straight from np.linalg.pinv,
derivatives from central differences, and the dual norm from subset
enumeration. None of the package's fast paths are used, so agreement
between a reference function and the package is meaningful evidence.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

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


def pinv(L):
    return np.linalg.pinv(L, hermitian=True)


def phi(g: Graph, s, d) -> float:
    return float(d @ pinv(laplacian(g.n, g.edges, s)) @ d)


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


def kirchhoff_index(g: Graph, s) -> float:
    return g.n * float(np.trace(pinv(laplacian(g.n, g.edges, s))))


def kirchhoff_gradient_fd(g: Graph, s, h: float = 1e-6) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.empty(g.m)
    for e in range(g.m):
        up = s.copy()
        dn = s.copy()
        up[e] += h
        dn[e] -= h
        out[e] = (kirchhoff_index(g, up) - kirchhoff_index(g, dn)) / (2.0 * h)
    return out


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


def lexsort_smallest(values, k: int) -> np.ndarray:
    """Positions of the k smallest values, ordered by (value, position)."""
    values = np.asarray(values)
    return np.lexsort((np.arange(len(values)), values))[:max(k, 0)]
