"""Exhaustive search over binary configurations at small scale.

Ground truth for certificate and rounding claims: every binary switch
vector with the backbone closed and at most q edges in total is evaluated
with the exact dense path, in batches of configurations solved at once.
Bit k of a configuration bitmask refers to the k-th non-backbone edge in
edge order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs, solver
from .errors import CapExceededError

FREE_EDGE_CAP = 22
KEEP_VALUES_CAP = 16
# Bytes of stacked n x n Laplacians per batched dense solve: a batch holds
# BATCH_BYTES // (8 n^2) configurations, so its memory does not grow with n.
BATCH_BYTES = 8 << 20


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    best_config: graphs.Configuration
    best_phi: float
    evaluated_count: int
    all_values: dict[int, float] | None


def free_edges(g: graphs.Graph) -> np.ndarray:
    """Non-backbone edge indices in edge order (bitmask bit order)."""
    return np.flatnonzero(~g.backbone_mask)


def config_from_mask(g: graphs.Graph, mask: int) -> np.ndarray:
    s = g.backbone_indicator()
    free = free_edges(g)
    s[free] = (mask >> np.arange(len(free))) & 1
    return s


def enumerate_optimal(g: graphs.Graph, d: np.ndarray, q: int) -> EnumerationResult:
    """Exact minimizer of phi over binary s with backbone kept and ||s||_1 <= q.

    Ties break toward the smallest bitmask. all_values is retained only
    when the free-edge count is at most 16.
    """
    d = graphs.check_demand(g, d)
    t_size = graphs.check_budget(g, q)
    solver.require_dense(g.n)
    free = free_edges(g)
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
        X = solver.exact_pinv_apply(LT[None, :, :] + np.tensordot(bits, elem, axes=1), d)
        phis = X @ d
        evaluated += len(masks)
        if values is not None:
            values.update(zip((int(v) for v in masks), (float(p) for p in phis)))
        k = int(np.argmin(phis))
        if phis[k] < best_phi:
            best_phi = float(phis[k])
            best_mask = int(masks[k])

    s_best = config_from_mask(g, best_mask)
    x = solver.exact_pinv_apply(graphs.assemble_laplacian_dense(g, s_best), d)
    cfg = graphs.Configuration(sbin=s_best, voltages=x)
    return EnumerationResult(best_config=cfg, best_phi=best_phi,
                             evaluated_count=evaluated, all_values=values)


def exact_phi_all(g: graphs.Graph, d: np.ndarray, configs) -> np.ndarray:
    """Exact phi for each supplied configuration (dense path)."""
    d = graphs.check_demand(g, d)
    out = np.empty(len(configs))
    for k, c in enumerate(configs):
        s = c.sbin if isinstance(c, graphs.Configuration) else np.asarray(c, dtype=float)
        L = graphs.assemble_laplacian_dense(g, s)
        out[k] = float(d @ solver.exact_pinv_apply(L, d))
    return out
